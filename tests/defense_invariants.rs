//! Cross-crate defense invariants: the first stage confines exactly what the
//! paper says it confines, crafted attacks behave as analyzed, and malformed
//! input never reaches the model.

use dpbfl::attack::{craft_uploads, AttackContext, AttackSpec};
use dpbfl::first_stage::{FirstStage, FirstStageVerdict};
use dpbfl::prelude::*;
use dpbfl::second_stage::SecondStage;
use dpbfl_stats::normal::gaussian_vector;
use dpbfl_tensor::vecops;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

const D: usize = 25_450;
const NOISE_STD: f64 = 0.05; // σ = 0.8, b_c = 16

fn stage() -> FirstStage {
    FirstStage::new(NOISE_STD, D, 0.05, 3.0)
}

fn benign(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| gaussian_vector(&mut rng, NOISE_STD, D)).collect()
}

fn ctx<'a>(b: &'a [Vec<f32>], n_byz: usize) -> AttackContext<'a> {
    AttackContext {
        benign_uploads: b,
        d: D,
        n_byzantine: n_byz,
        noise_std: NOISE_STD,
        round: 50,
        total_rounds: 100,
        poisoned_uploads: &[],
    }
}

/// Guideline 2 (paper §4.6): the OptLMP attack is *designed* to pass the
/// first stage — verify it actually does, then verify the second stage
/// rejects it anyway.
#[test]
fn opt_lmp_passes_first_stage_but_loses_second_stage() {
    let b = benign(16, 1);
    let mut rng = StdRng::seed_from_u64(2);
    let byz = craft_uploads(&AttackSpec::OptLmp, &ctx(&b, 8), &mut rng);
    let s = stage();
    for u in &byz {
        assert_eq!(s.check(u), FirstStageVerdict::Accepted, "OptLMP failed the first stage");
    }

    // Second stage with a positive "server gradient" correlated with the
    // benign mean: honest uploads must win the selection.
    let refs: Vec<&[f32]> = b.iter().map(|u| u.as_slice()).collect();
    let server_grad = vecops::mean(&refs).expect("non-empty");
    let mut all = b.clone();
    all.extend(byz);
    let mut second = SecondStage::new(all.len(), 16.0 / 24.0);
    let mut last = None;
    for _ in 0..10 {
        last = Some(second.select(&all, &server_grad));
    }
    let selected = last.expect("ran").selected;
    assert!(
        selected.iter().all(|&i| i < 16),
        "second stage selected a Byzantine OptLMP upload: {selected:?}"
    );
}

/// The "A little" attack's coordinate-wise shift does NOT match the noise
/// distribution — the first stage must reject it (the paper's claim that
/// naive application "will end up rejected by first-stage aggregation").
#[test]
fn a_little_is_rejected_by_first_stage() {
    let b = benign(10, 3);
    let mut rng = StdRng::seed_from_u64(4);
    let byz = craft_uploads(&AttackSpec::ALittle, &ctx(&b, 15), &mut rng);
    let s = stage();
    // The crafted upload is μ − z·s with s ≈ σ'/√n per coordinate: its norm
    // is far below the accepted band.
    assert!(
        !s.check(&byz[0]).is_accepted(),
        "a-little upload unexpectedly passed: verdict {:?}",
        s.check(&byz[0])
    );
}

#[test]
fn inner_product_attack_is_rejected_by_first_stage() {
    let b = benign(10, 5);
    let mut rng = StdRng::seed_from_u64(6);
    // −5 × mean(benign): norm ≈ 5σ'√d/√10 ≈ 1.6 σ'√d — outside the band.
    let byz = craft_uploads(&AttackSpec::InnerProduct { scale: 5.0 }, &ctx(&b, 4), &mut rng);
    assert!(!stage().check(&byz[0]).is_accepted());
}

#[test]
fn gaussian_attack_passes_first_stage_by_construction() {
    let b = benign(5, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let byz = craft_uploads(&AttackSpec::Gaussian, &ctx(&b, 10), &mut rng);
    let s = stage();
    let accepted = byz.iter().filter(|u| s.check(u).is_accepted()).count();
    assert!(accepted >= 8, "only {accepted}/10 Gaussian uploads passed");
}

#[test]
fn malformed_uploads_are_always_zeroed() {
    let s = stage();
    for bad in [vec![f32::NAN; D], vec![f32::INFINITY; D], vec![f32::MAX; D], vec![0.0f32; D]] {
        let mut u = bad;
        let verdict = s.filter(&mut u);
        assert!(!verdict.is_accepted());
        assert!(u.iter().all(|&x| x == 0.0), "malformed upload not zeroed");
    }
}

/// Theorem-2 interpretation: an accepted upload's payload (after removing
/// the noise-scale component) is strictly norm-bounded relative to the noise.
#[test]
fn accepted_uploads_have_bounded_payload() {
    let s = stage();
    let (lo, hi) = s.norm_bounds();
    // The band is narrow: hi/lo − 1 ≈ 6/√(2d) ≈ 2.7 % at d = 25 450.
    assert!(hi / lo < 1.05, "norm band too wide: [{lo}, {hi}]");
    // Any accepted vector has norm ≤ hi, so a worst-case adversarial payload
    // within the band is bounded by hi − lo ≪ noise norm.
    let payload_budget = hi - lo;
    let noise_norm = NOISE_STD * (D as f64).sqrt();
    assert!(payload_budget < 0.05 * noise_norm);
}

/// A defended two-stage configuration exercising both first-stage paths:
/// honest + label-flip Byzantine workers, enough rounds for accepts,
/// KS-rejects and norm-rejects to all occur.
fn two_stage_cfg() -> SimulationConfig {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
    cfg.per_worker = 128;
    cfg.test_count = 200;
    cfg.n_honest = 4;
    cfg.n_byzantine = 3;
    cfg.epochs = 1.0;
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.5;
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.5;
    cfg
}

/// Re-checks every upload that crosses it against the always-sort oracle
/// before handing it to the run's own fold, and counts what the run's first
/// stage saw.
struct OracleTransport<'a> {
    inner: InProcessTransport<'a>,
    /// The filter the run itself builds: same σ', dimension and thresholds.
    first: FirstStage,
    rejected: AtomicUsize,
    exact_fallbacks: AtomicUsize,
}

impl Transport for OracleTransport<'_> {
    fn round_trip(
        &mut self,
        round: usize,
        members: &[usize],
        params: &[f32],
        fold: &dpbfl::round::UploadFold<'_>,
    ) -> Vec<Collected> {
        let OracleTransport { inner, first, rejected, exact_fallbacks } = self;
        let checked = |upload: Vec<f32>, scratch: &mut KsScratch| {
            let fast = first.check_with_info(&upload, scratch);
            assert_eq!(fast.verdict, first.check_reference(&upload), "round {round}");
            rejected.fetch_add(usize::from(!fast.verdict.is_accepted()), Ordering::Relaxed);
            exact_fallbacks.fetch_add(usize::from(fast.ks_exact), Ordering::Relaxed);
            fold(upload, scratch)
        };
        inner.round_trip(round, members, params, &checked)
    }
}

/// The fast path's end-to-end contract, with no runtime switch: every real
/// upload of a full two-stage run gets the same verdict from the sort-free
/// screen the run uses as from the retained always-sort reference — so a
/// run on the reference would be byte-identical, verdict for verdict. The
/// run must have exercised both a rejection and the sorted fallback.
#[test]
fn fast_and_reference_first_stage_runs_are_byte_identical() {
    let mut cfg = two_stage_cfg();
    cfg.epochs = 4.0; // enough uploads for a borderline KS statistic to occur
    let prep = dpbfl::simulation::prepare(&cfg);
    let d = cfg.model.build(&mut StdRng::seed_from_u64(0), &cfg.dataset).param_len();
    let (defense, dp) = (&cfg.defense_cfg, &cfg.dp); // ε is off: σ is the config's
    let mut transport = OracleTransport {
        inner: InProcessTransport::new(&cfg, &prep, dp),
        first: FirstStage::new(
            dp.effective_noise_std(),
            d,
            defense.ks_significance,
            defense.norm_test_stds,
        ),
        rejected: AtomicUsize::new(0),
        exact_fallbacks: AtomicUsize::new(0),
    };
    let observed = run_with_transport_telemetry(&cfg, &prep, &mut transport, &Telemetry::null());
    assert!(transport.exact_fallbacks.into_inner() > 0, "never reached the exact sorted fallback");
    // The decorator saw exactly the uploads the run's own first stage judged
    // (label-flip members are data members, so every upload crosses it).
    let stats = &observed.defense_stats;
    let rejected = stats.first_stage_rejected_honest + stats.first_stage_rejected_byzantine;
    assert!(rejected > 0, "configuration never triggered a first-stage rejection");
    assert_eq!(transport.rejected.into_inner() as u64, rejected);
}

/// The per-chunk scratch buffers introduce no order or thread-count
/// dependence: the fast-path run's `RunSummary` JSON is byte-identical at 1
/// and 4 threads (strengthens `two_stage_identical_across_thread_counts`
/// from accuracy bits to the whole summary).
#[test]
fn fast_path_summary_is_byte_identical_across_thread_counts() {
    let cfg = two_stage_cfg();
    let run_with_threads = |threads: usize| {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("local pool");
        let summary = pool.install(|| dpbfl::simulation::run(&cfg)).summary();
        serde_json::to_string(&summary).expect("summary serializes")
    };
    assert_eq!(run_with_threads(1), run_with_threads(4));
}

/// Second-stage accumulation: a Byzantine worker that passes the first stage
/// with pure noise cannot climb the accumulated-score ranking.
#[test]
fn noise_uploads_cannot_outscore_aligned_uploads() {
    let mut rng = StdRng::seed_from_u64(11);
    let d = 2_000;
    let server_grad = gaussian_vector(&mut rng, 1.0, d);
    let mut second = SecondStage::new(6, 0.5);
    let mut byz_selected = 0usize;
    for round in 0..50 {
        // 3 honest uploads: noise + small component along the server grad.
        let mut uploads: Vec<Vec<f32>> = (0..3)
            .map(|_| {
                let mut u = gaussian_vector(&mut rng, 0.05, d);
                vecops::axpy(0.01, &server_grad, &mut u);
                u
            })
            .collect();
        // 3 Byzantine uploads: pure noise (passed first stage).
        uploads.extend((0..3).map(|_| gaussian_vector(&mut rng, 0.05, d)));
        let sel = second.select(&uploads, &server_grad);
        if round > 10 {
            byz_selected += sel.selected.iter().filter(|&&i| i >= 3).count();
        }
    }
    assert!(byz_selected <= 10, "noise uploads selected {byz_selected} times after warm-up");
}
