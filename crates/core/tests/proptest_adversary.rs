//! Property-based invariants of the zoo v2 adversaries.
//!
//! * Collusion: across α, cohort size and seed, every share individually
//!   passes the first-stage *norm* check while the shares sum back to the
//!   crafted gradient (within f32 accumulation).
//! * Sleeper: a run whose sleeper never turns is bit-identical — accuracy
//!   history and rejection totals — to the same population run honestly
//!   under `AttackSpec::None` (the cover phase IS the honest protocol).

use dpbfl::attack::{craft_uploads, AttackContext, AttackSpec};
use dpbfl::first_stage::FirstStage;
use dpbfl::prelude::*;
use dpbfl_stats::normal::gaussian_vector;
use dpbfl_tensor::vecops;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: usize = 4096;
const STD: f64 = 0.05;

fn benign(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| gaussian_vector(&mut rng, STD, D)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // α stays in the upper range where the share-norm fluctuation leaves a
    // comfortable margin (≥ ~4 fluctuation std) to the 3√2·σ'²√(2d) band
    // edge; lower α trades signal for mask noise and would need more slack
    // than the first stage grants.
    #[test]
    fn collusion_shares_pass_the_norm_check_and_reconstruct(
        alpha in 0.75f64..0.95,
        m in 2usize..8,
        n_benign in 2usize..6,
        seed in 0u64..1024,
    ) {
        let b = benign(n_benign, seed.wrapping_add(0x1000));
        let ctx = AttackContext {
            benign_uploads: &b,
            d: D,
            n_byzantine: m,
            noise_std: STD,
            round: 0,
            total_rounds: 8,
            poisoned_uploads: &[],
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let shares = craft_uploads(&AttackSpec::Collusion { alpha }, &ctx, &mut rng);
        prop_assert_eq!(shares.len(), m);

        // Every share individually sits inside the first-stage norm band.
        let first = FirstStage::new(STD, D, 0.05, 3.0);
        let (lo, hi) = first.norm_bounds();
        for (i, s) in shares.iter().enumerate() {
            let norm = vecops::l2_norm(s);
            prop_assert!(
                norm > lo && norm < hi,
                "share {i} norm {norm} outside the first-stage band [{lo}, {hi}] \
                 (alpha={alpha}, m={m})"
            );
        }

        // The shares sum to the crafted gradient m·α·σ'·√d·dir: the crafted
        // direction opposes the benign mean, and the zero-sum masks cancel
        // to f32 accumulation error.
        let refs: Vec<&[f32]> = shares.iter().map(|s| s.as_slice()).collect();
        let sum = vecops::sum(&refs).expect("non-empty");
        let brefs: Vec<&[f32]> = b.iter().map(|u| u.as_slice()).collect();
        let mut dir = vecops::mean(&brefs).expect("non-empty");
        let mean_norm = vecops::l2_norm(&dir);
        vecops::scale(&mut dir, -(1.0 / mean_norm) as f32);
        let signal_norm = m as f64 * alpha * STD * (D as f64).sqrt();
        let crafted: Vec<f32> = dir.iter().map(|&v| (signal_norm as f32) * v).collect();
        let mut err_sq = 0.0f64;
        for (s, c) in sum.iter().zip(&crafted) {
            err_sq += ((s - c) as f64) * ((s - c) as f64);
        }
        prop_assert!(
            err_sq.sqrt() < 1e-3 * signal_norm,
            "reconstruction error {} vs crafted norm {signal_norm} (alpha={alpha}, m={m})",
            err_sq.sqrt()
        );
    }
}

/// A small two-stage config over `h` honest + `b` Byzantine workers.
fn cfg(attack: AttackSpec, h: usize, b: usize) -> SimulationConfig {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
    cfg.per_worker = 64;
    cfg.test_count = 128;
    cfg.n_honest = h;
    cfg.n_byzantine = b;
    cfg.epochs = 1.0;
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.5;
    cfg.defense = DefenseKind::TwoStage;
    cfg.attack = attack;
    cfg
}

/// The sleeper's cover phase is the honest protocol, bit for bit: a run
/// where the sleeper never turns (turn_round ≥ T) produces the exact
/// accuracy trajectory of the same 5-worker population run honestly under
/// `AttackSpec::None`. Only the bookkeeping *labels* differ (the honest run
/// counts all 5 workers as honest), so the comparison is the accuracy
/// history bits plus the label-free rejection totals.
#[test]
fn sleeper_pre_turn_rounds_are_bit_identical_to_none() {
    let never = cfg(
        AttackSpec::Sleeper { turn_round: usize::MAX, inner: Box::new(AttackSpec::Gaussian) },
        3,
        2,
    );
    // `None` folds each upload as it arrives, the sleeper after crafting:
    // the comparison also holds the two fold timings to the same bits.
    let honest = cfg(AttackSpec::None, 5, 0);
    assert_eq!(never.iterations(), honest.iterations());

    let run_never = dpbfl::simulation::run(&never);
    let run_honest = dpbfl::simulation::run(&honest);

    let hist_never = serde_json::to_string(&run_never.history).expect("history serializes");
    let hist_honest = serde_json::to_string(&run_honest.history).expect("history serializes");
    assert_eq!(hist_never, hist_honest, "cover phase diverged from the honest protocol");

    let (sn, sh) = (&run_never.defense_stats, &run_honest.defense_stats);
    assert_eq!(
        sn.first_stage_rejected_honest + sn.first_stage_rejected_byzantine,
        sh.first_stage_rejected_honest + sh.first_stage_rejected_byzantine,
        "rejection totals diverged"
    );
    assert_eq!(sn.total_selected, sh.total_selected);
    // No sleeper ever turned, so none was flagged: the Byzantine-selected
    // counter differs only by the label split (workers 3 and 4 count as
    // Byzantine in the sleeper run while uploading honestly).
    assert_eq!(run_never.summary().final_accuracy, run_honest.summary().final_accuracy);
}

/// And the turn is real: the same config with a mid-run turn round must
/// diverge from the honest trajectory once the payload fires.
#[test]
fn sleeper_turn_changes_the_trajectory() {
    let turning = cfg(
        AttackSpec::Sleeper {
            turn_round: 2,
            inner: Box::new(AttackSpec::InnerProduct { scale: 5.0 }),
        },
        3,
        2,
    );
    let never = cfg(
        AttackSpec::Sleeper { turn_round: usize::MAX, inner: Box::new(AttackSpec::Gaussian) },
        3,
        2,
    );
    let run_turning = dpbfl::simulation::run(&turning);
    let run_never = dpbfl::simulation::run(&never);
    let stats = &run_turning.defense_stats;
    assert!(
        stats.first_stage_rejected_byzantine > 0,
        "the inner-product payload (scale 5) must trip the first stage after the turn"
    );
    // Pre-turn rounds are shared; the histories must differ somewhere after.
    let hist_turning = serde_json::to_string(&run_turning.history).expect("serializes");
    let hist_never = serde_json::to_string(&run_never.history).expect("serializes");
    assert_ne!(hist_turning, hist_never, "turning sleeper never affected the run");
}
