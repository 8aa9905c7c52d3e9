//! The \[77\]/\[43\]-style sign-compression DP baseline the paper compares
//! against: workers upload randomized per-coordinate gradient *signs*; the
//! server takes a coordinate-wise majority vote. Its update rule differs
//! structurally from gradient averaging, so a [`WorkerProtocol::SignDp`]
//! config runs this module's own loop instead of the round loop. Byzantine
//! workers upload inverted signs — with ≥50 % Byzantine workers the
//! majority flips, which is exactly the failure mode Table 1 records.
//!
//! (The \[30\]-style baseline, clipping DP-SGD plus an off-the-shelf robust
//! rule, needs no loop of its own: it is a config with
//! [`WorkerProtocol::ClippedDp`] and [`crate::simulation::DefenseKind::Robust`].)

use crate::round::{evaluate, init_model};
use crate::simulation::{RunResult, RunSummary, SimulationConfig, WorkerProtocol};
use dpbfl_data::sample_batch;
use dpbfl_data::{iid_partition, Dataset};
use dpbfl_nn::CrossEntropyLoss;
use dpbfl_telemetry::{RoundMetrics, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flip probability `p = 1/(e^{ε₀} + 1)` for a per-round, per-coordinate
/// randomized-response privacy level ε₀.
pub fn flip_prob_for_epsilon(eps0: f64) -> f64 {
    assert!(eps0 > 0.0);
    1.0 / (eps0.exp() + 1.0)
}

/// Runs a [`WorkerProtocol::SignDp`] config through the majority-vote loop,
/// recording to `tel`. Dataset, model, worker counts, epochs, batch size
/// (`cfg.dp.batch_size`) and seed come from `cfg`; the step size and flip
/// probability ride on the protocol variant. `cfg.attack` and `cfg.defense`
/// are not read: Byzantine workers always upload inverted signs, and the
/// server rule is always the majority vote. Evaluation follows the round
/// loop's schedule ([`evaluate`]); [`SimulationConfig::check`] keeps a
/// sign-DP cell at `eval_every = 0`, once per epoch.
///
/// Per-round metrics are trivial for this substrate — no defense filters
/// anything, so the whole cohort is accepted and aggregated;
/// `achieved_epsilon` stays `None`. `sigma` and `delta` are reported as 0:
/// randomized response is not the Gaussian accountant's mechanism (reports
/// show such cells as non-Gaussian-private). The result is byte-identical
/// with any sink.
pub(crate) fn run_sign_dp(cfg: &SimulationConfig, tel: &Telemetry) -> RunResult {
    let WorkerProtocol::SignDp { lr, flip_prob } = cfg.protocol else {
        panic!("the sign-DP loop requires WorkerProtocol::SignDp");
    };
    cfg.check().unwrap_or_else(|problems| panic!("unrunnable config: {}", problems.join("; ")));
    let batch_size = cfg.dp.batch_size;
    let mut master = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x51677ea7));
    let train = cfg.dataset.generate(cfg.n_honest * cfg.per_worker, cfg.seed);
    let parts = iid_partition(&mut master, train.len(), cfg.n_honest);
    let test = cfg.dataset.generate(cfg.test_count, cfg.seed.wrapping_add(0x7e57));

    let mut model = init_model(cfg);
    let d = model.param_len();
    let mut params = model.params();
    let loss_fn = CrossEntropyLoss;

    let datasets: Vec<Dataset> = parts.iter().map(|p| train.subset(p)).collect();
    let iterations = cfg.iterations();
    let mut history = Vec::new();
    let mut grad = vec![0.0f32; d];
    let mut votes = vec![0i32; d];

    for t in 0..iterations {
        votes.fill(0);
        let timer = tel.start();
        // Honest workers: privatized gradient signs.
        for data in &datasets {
            model.set_params(&params);
            let batch = sample_batch(&mut master, data.len(), batch_size.min(data.len()));
            let examples: Vec<(&[f32], usize)> =
                batch.iter().map(|&i| (data.example(i), data.label(i))).collect();
            model.batch_gradient(&loss_fn, &examples, &mut grad);
            for (v, &g) in votes.iter_mut().zip(&grad) {
                let mut sign = if g >= 0.0 { 1i32 } else { -1i32 };
                if master.gen_range(0.0..1.0) < flip_prob {
                    sign = -sign;
                }
                *v += sign;
            }
        }
        tel.stop(timer, "collect", Some(t as u64));
        // Byzantine workers: invert the honest majority (omniscient).
        let timer = tel.start();
        if cfg.n_byzantine > 0 {
            let majority: Vec<i32> = votes.iter().map(|&v| if v >= 0 { 1 } else { -1 }).collect();
            for (v, &m) in votes.iter_mut().zip(&majority) {
                *v -= m * cfg.n_byzantine as i32;
            }
        }
        tel.stop(timer, "attack", Some(t as u64));
        // Majority-vote descent step.
        let timer = tel.start();
        for (p, &v) in params.iter_mut().zip(&votes) {
            let step = if v > 0 {
                1.0
            } else if v < 0 {
                -1.0
            } else {
                0.0
            };
            *p -= (lr as f32) * step;
        }
        tel.stop(timer, "aggregate", Some(t as u64));

        if tel.enabled() {
            let cohort = cfg.n_total() as u64;
            let mut m = RoundMetrics::new(t as u64, cohort);
            m.accepted = cohort;
            m.selected = cohort;
            // Every worker contributes d sign votes; count them as exact
            // retention (1 vote rides in 4 bytes of the i32 tally here).
            m.retained_exact_bytes = cohort * 4 * d as u64;
            tel.round(m);
        }

        history.extend(evaluate(cfg, t, &mut model, &params, &test, tel));
    }

    RunSummary {
        final_accuracy: history.last().map(|p| p.accuracy).unwrap_or(0.0),
        history,
        defense_stats: Default::default(),
        sigma: 0.0,
        lr,
        iterations,
        delta: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::ModelKind;
    use dpbfl_data::SyntheticSpec;

    fn run(n_byz: usize) -> RunResult {
        let mut cfg =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        cfg.per_worker = 128;
        cfg.test_count = 200;
        cfg.n_honest = 6;
        cfg.n_byzantine = n_byz;
        cfg.seed = 3;
        cfg.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: flip_prob_for_epsilon(1.0) };
        run_sign_dp(&cfg, &Telemetry::null())
    }

    #[test]
    fn flip_prob_formula() {
        // ε₀ = 0 would be p = 1/2; ε₀ → ∞ gives p → 0.
        assert!((flip_prob_for_epsilon(1.0) - 1.0 / (1f64.exp() + 1.0)).abs() < 1e-12);
        assert!(flip_prob_for_epsilon(8.0) < 0.001);
    }

    #[test]
    fn honest_sign_dp_learns_something() {
        let r = run(0);
        assert!(r.final_accuracy > 0.3, "sign-DP failed to learn: {}", r.final_accuracy);
    }

    #[test]
    fn byzantine_majority_destroys_sign_dp() {
        // 7 byzantine vs 6 honest: majority vote flips, accuracy collapses
        // to chance — the paper's Table 1 "✗ at >50%" entry.
        let honest = run(0);
        let attacked = run(7);
        assert!(
            attacked.final_accuracy < honest.final_accuracy - 0.1,
            "sign-DP unexpectedly survived a Byzantine majority: {} vs {}",
            attacked.final_accuracy,
            honest.final_accuracy
        );
    }
}
