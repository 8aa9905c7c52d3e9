//! Layer probes: direct timings of each layer's public calls on the
//! workload's own model, data shape and noise level.
//!
//! Inputs are made here through the same public constructors the program
//! uses: benign uploads come from a `DpWorker` stepping on one worker's
//! shard, the crafted upload from `attack::craft_uploads`. Each probe runs
//! `ITERATIONS` times and reports the median.

use crate::stats::median;
use crate::workloads::resolved_dp;
use dpbfl::attack::{craft_uploads, AttackContext};
use dpbfl::prelude::*;
use dpbfl::simulation::resolve_sigma;
use dpbfl_nn::{accuracy, CrossEntropyLoss};
use dpbfl_stats::gaussian_vector;
use dpbfl_tensor::vecops;
use dpbfl_transport::Message;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Iterations of every micro-probe.
const ITERATIONS: usize = 200;
/// Iterations of the probes that take tens of milliseconds and more.
const SLOW_ITERATIONS: usize = 5;
/// Uploads handed to the second-stage probes.
const SELECT_UPLOADS: usize = 32;

/// Median seconds of `iterations` timed calls of `op`.
fn time<R>(iterations: usize, mut op: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..iterations)
        .map(|_| {
            let start = Instant::now();
            black_box(op());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// What the probes measured.
pub struct Probes {
    /// `(metric name, value)` for every probe metric.
    pub values: Vec<(&'static str, f64)>,
    /// The first-stage verdict on the crafted upload of the reject probe.
    pub crafted_verdict: FirstStageVerdict,
}

/// Runs every probe for `cfg`. `clients` is the connection count a served
/// run uses (for the computed bytes per round).
pub fn run(cfg: &SimulationConfig, clients: usize) -> Probes {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e0be);
    let mut model = cfg.model.build(&mut rng, &cfg.dataset);
    let params = model.params();
    let d = params.len();
    let shard = cfg.dataset.generate(cfg.per_worker, cfg.seed.wrapping_add(0x5a4d));
    let test = cfg.dataset.generate(cfg.test_count, cfg.seed.wrapping_add(0x7e57));
    let dp = resolved_dp(cfg);
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // ---- worker / nn / stats / tensor ------------------------------------
    let step_us = |batch_size: usize| {
        let mut dp = dp.clone();
        dp.batch_size = batch_size;
        let mut worker = DpWorker::new(model.clone(), shard.clone(), dp, cfg.seed);
        time(ITERATIONS, || worker.local_step(&params)) * 1e6
    };
    values.push(("worker.local_step_b16_us", step_us(16)));
    values.push(("worker.local_step_b1_us", step_us(1)));

    let loss = CrossEntropyLoss;
    let mut grad = vec![0.0f32; d];
    let example_grad = time(ITERATIONS, || {
        model.example_gradient(&loss, shard.example(0), shard.label(0), &mut grad)
    });
    values.push(("nn.example_grad_us", example_grad * 1e6));
    let eval = time(ITERATIONS, || accuracy(&mut model, &test.features, &test.labels));
    values.push(("nn.eval_ms", eval * 1e3));
    let draws = time(ITERATIONS, || gaussian_vector(&mut rng, 1.0, d));
    values.push(("stats.normal_ns_per_draw", draws * 1e9 / d as f64));

    // Benign uploads at the workload's own batch size, so they carry the
    // noise level its first stage expects.
    let mut worker = DpWorker::new(model.clone(), shard.clone(), dp.clone(), cfg.seed);
    let benign: Vec<Vec<f32>> = (0..8).map(|_| worker.local_step(&params)).collect();
    let server_grad = grad.clone();
    let dot = time(ITERATIONS, || vecops::dot(&benign[0], &server_grad));
    values.push(("tensor.dot_d_us", dot * 1e6));

    // ---- first stage -------------------------------------------------------
    let first = FirstStage::new(
        dp.effective_noise_std(),
        d,
        cfg.defense_cfg.ks_significance,
        cfg.defense_cfg.norm_test_stds,
    );
    let ctx = AttackContext {
        benign_uploads: &benign,
        d,
        n_byzantine: 1,
        noise_std: dp.effective_noise_std(),
        round: 0,
        total_rounds: cfg.iterations(),
        poisoned_uploads: &[],
    };
    let crafted = craft_uploads(&AttackSpec::ALittle, &ctx, &mut rng).remove(0);
    let mut scratch = KsScratch::new();
    let crafted_verdict = first.check_with(&crafted, &mut scratch);
    let accept = time(ITERATIONS, || first.check_with(&benign[0], &mut scratch));
    let reject = time(ITERATIONS, || first.check_with(&crafted, &mut scratch));
    values.push(("first_stage.check_accept_us", accept * 1e6));
    values.push(("first_stage.check_reject_us", reject * 1e6));

    // ---- second stage ------------------------------------------------------
    let uploads: Vec<Vec<f32>> =
        (0..SELECT_UPLOADS).map(|i| benign[i % benign.len()].clone()).collect();
    let mut second = SecondStage::with_rules(
        SELECT_UPLOADS,
        cfg.defense_cfg.gamma,
        cfg.defense_cfg.scoring,
        cfg.defense_cfg.weighting,
    );
    let cohort: Vec<usize> = (0..SELECT_UPLOADS).collect();
    let scores = second.select(&uploads, &server_grad).round_scores;
    let select = time(ITERATIONS, || second.select(&uploads, &server_grad));
    let select_scored = time(ITERATIONS, || second.select_scored(&cohort, scores.clone()));
    let score_per_upload = (select - select_scored).max(0.0) / SELECT_UPLOADS as f64;
    values.push(("second_stage.score_us_per_upload", score_per_upload * 1e6));
    values.push(("second_stage.select_us", select_scored * 1e6));

    // ---- wire codec --------------------------------------------------------
    let members = data_member_indices(cfg).len().min(cfg.n_total());
    let upload = Message::Upload { round: 0, worker: 0, data: benign[0].clone() };
    let begin = Message::RoundBegin {
        round: 0,
        deadline_ms: RoundPolicy::default().deadline_ms,
        members: (0..members.div_ceil(clients.max(1)) as u32).collect(),
        params: params.clone(),
    };
    let upload_frame = upload.encode();
    let begin_frame = begin.encode();
    values.push(("transport.encode_upload_us", time(ITERATIONS, || upload.encode()) * 1e6));
    let decode = time(ITERATIONS, || Message::decode(&upload_frame).expect("own frame decodes"));
    values.push(("transport.decode_upload_us", decode * 1e6));
    values.push(("transport.encode_round_begin_us", time(ITERATIONS, || begin.encode()) * 1e6));
    // kind (1 byte) + length (4 bytes) + payload, per frame.
    let frame_bytes = |payload: usize| (5 + payload) as f64;
    let cohort_members = (members as f64 * cfg.sampling.min(1.0)).ceil();
    values.push((
        "transport.bytes_per_round",
        clients as f64 * frame_bytes(begin_frame.payload.len())
            + cohort_members * frame_bytes(upload_frame.payload.len()),
    ));

    // ---- set-up ------------------------------------------------------------
    values.push(("simulation.prepare_s", time(SLOW_ITERATIONS, || prepare(cfg))));
    values.push(("dp.resolve_sigma_ms", time(SLOW_ITERATIONS, || resolve_sigma(cfg)) * 1e3));

    Probes { values, crafted_verdict }
}
