//! Composite prior-work protocols the paper compares against.
//!
//! * **\[30\]-style (Guerraoui et al.)**: vanilla clipping DP-SGD at the
//!   workers, an off-the-shelf robust aggregator (Krum / coordinate-wise
//!   median) at the server. Expressed as a [`SimulationConfig`] preset —
//!   the simulation loop already supports both pieces.
//! * **\[77\]/\[43\]-style sign-compression DP**: workers upload randomized
//!   per-coordinate gradient *signs*; the server takes a coordinate-wise
//!   majority vote. Implemented as its own loop ([`run_sign_dp_with`]) because its
//!   update rule differs structurally from gradient averaging. Byzantine
//!   workers upload inverted signs — with ≥50 % Byzantine workers the
//!   majority flips, which is exactly the failure mode Table 1 records.

use crate::aggregator::AggregatorKind;
use crate::simulation::{
    DefenseKind, EvalPoint, ModelKind, RunResult, SimulationConfig, WorkerProtocol,
};
use dpbfl_data::sample_batch;
use dpbfl_data::{iid_partition, Dataset, SyntheticSpec};
use dpbfl_nn::{accuracy, CrossEntropyLoss};
use dpbfl_telemetry::{RoundMetrics, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rewrites a configuration into the \[30\]-style baseline: clipping DP-SGD
/// workers + a robust aggregation rule on the noisy uploads.
pub fn guerraoui_style(
    mut cfg: SimulationConfig,
    clip: f64,
    rule: AggregatorKind,
) -> SimulationConfig {
    cfg.protocol = WorkerProtocol::ClippedDp { clip };
    cfg.defense = DefenseKind::Robust { rule };
    cfg
}

/// Configuration for the sign-compression DP baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SignDpConfig {
    /// Synthetic dataset family.
    pub dataset: SyntheticSpec,
    /// Network architecture.
    pub model: ModelKind,
    /// Examples per worker.
    pub per_worker: usize,
    /// Held-out test examples.
    pub test_count: usize,
    /// Honest workers.
    pub n_honest: usize,
    /// Byzantine workers (they upload inverted signs).
    pub n_byzantine: usize,
    /// Epochs over the per-worker data.
    pub epochs: f64,
    /// Server step size applied to the majority-vote sign vector.
    pub lr: f64,
    /// Batch size per worker step.
    pub batch_size: usize,
    /// Per-coordinate randomized-response flip probability
    /// `p = 1/(e^{ε₀} + 1)` for per-round sign privacy ε₀.
    pub flip_prob: f64,
    /// Master seed.
    pub seed: u64,
}

impl SignDpConfig {
    /// Flip probability for a per-round, per-coordinate randomized-response
    /// privacy level ε₀.
    pub fn flip_prob_for_epsilon(eps0: f64) -> f64 {
        assert!(eps0 > 0.0);
        1.0 / (eps0.exp() + 1.0)
    }

    /// The sign-DP configuration a [`SimulationConfig`] with
    /// [`WorkerProtocol::SignDp`] resolves to, or `None` for any other
    /// protocol.
    ///
    /// This mapping is the contract that makes sign-DP a grid-expressible
    /// *substrate*: dataset/model/worker counts/epochs/seed come from the
    /// simulation config (batch size from `cfg.dp.batch_size`), while the
    /// substrate-specific step size and flip probability ride on the
    /// protocol variant itself. `cfg.attack` and `cfg.defense` do not
    /// appear — the baseline's Byzantine workers always upload inverted
    /// signs and its server rule is always the majority vote.
    pub fn from_simulation(cfg: &SimulationConfig) -> Option<SignDpConfig> {
        let WorkerProtocol::SignDp { lr, flip_prob } = cfg.protocol else {
            return None;
        };
        Some(SignDpConfig {
            dataset: cfg.dataset.clone(),
            model: cfg.model,
            per_worker: cfg.per_worker,
            test_count: cfg.test_count,
            n_honest: cfg.n_honest,
            n_byzantine: cfg.n_byzantine,
            epochs: cfg.epochs,
            lr,
            batch_size: cfg.dp.batch_size,
            flip_prob,
            seed: cfg.seed,
        })
    }
}

/// Result of a sign-DP run (mirrors [`crate::simulation::RunResult`]'s
/// essentials).
#[derive(Debug, Clone)]
pub struct SignDpResult {
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Accuracy trajectory.
    pub history: Vec<EvalPoint>,
}

/// Runs the sign-compression DP baseline, recording to `tel`. Per-round
/// metrics are trivial for this substrate — no defense filters anything, so
/// the whole cohort is accepted and aggregated; `achieved_epsilon` stays
/// `None` (randomized response, not the Gaussian accountant). The result is
/// byte-identical with any sink.
pub fn run_sign_dp_with(cfg: &SignDpConfig, tel: &Telemetry) -> SignDpResult {
    let mut master = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x51677ea7));
    let train = cfg.dataset.generate(cfg.n_honest * cfg.per_worker, cfg.seed);
    let parts = iid_partition(&mut master, train.len(), cfg.n_honest);
    let test = cfg.dataset.generate(cfg.test_count, cfg.seed.wrapping_add(0x7e57));

    let mut init_rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x4d0de1));
    let mut model = cfg.model.build(&mut init_rng, &cfg.dataset);
    let d = model.param_len();
    let mut params = model.params();
    let loss_fn = CrossEntropyLoss;

    let datasets: Vec<Dataset> = parts.iter().map(|p| train.subset(p)).collect();
    let iterations = ((cfg.epochs * cfg.per_worker as f64) / cfg.batch_size as f64).ceil() as usize;
    let eval_every = (cfg.per_worker / cfg.batch_size).max(1);
    let mut history = Vec::new();
    let mut grad = vec![0.0f32; d];
    let mut votes = vec![0i32; d];

    for t in 0..iterations {
        votes.fill(0);
        let timer = tel.start();
        // Honest workers: privatized gradient signs.
        for data in &datasets {
            model.set_params(&params);
            let batch = sample_batch(&mut master, data.len(), cfg.batch_size.min(data.len()));
            let examples: Vec<(&[f32], usize)> =
                batch.iter().map(|&i| (data.example(i), data.label(i))).collect();
            model.batch_gradient(&loss_fn, &examples, &mut grad);
            for (v, &g) in votes.iter_mut().zip(&grad) {
                let mut sign = if g >= 0.0 { 1i32 } else { -1i32 };
                if master.gen_range(0.0..1.0) < cfg.flip_prob {
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
            *p -= (cfg.lr as f32) * step;
        }
        tel.stop(timer, "aggregate", Some(t as u64));

        if tel.enabled() {
            let cohort = (cfg.n_honest + cfg.n_byzantine) as u64;
            let mut m = RoundMetrics::new(t as u64, cohort);
            m.accepted = cohort;
            m.selected = cohort;
            // Every worker contributes d sign votes; count them as exact
            // retention (1 vote rides in 4 bytes of the i32 tally here).
            m.retained_exact_bytes = cohort * 4 * d as u64;
            tel.round(m);
        }

        if (t + 1) % eval_every == 0 || t + 1 == iterations {
            let timer = tel.start();
            model.set_params(&params);
            let acc = accuracy(&mut model, &test.features, &test.labels);
            tel.stop(timer, "eval", Some(t as u64));
            history.push(EvalPoint {
                iteration: t + 1,
                epoch: (t + 1) as f64 * cfg.batch_size as f64 / cfg.per_worker as f64,
                accuracy: acc,
            });
        }
    }

    SignDpResult { final_accuracy: history.last().map(|p| p.accuracy).unwrap_or(0.0), history }
}

/// Runs a [`WorkerProtocol::SignDp`] simulation config through the sign-DP
/// loop and wraps the outcome as a [`RunResult`] (what `simulation::run`
/// dispatches to for this substrate; see [`run_sign_dp_with`] for what it
/// records).
///
/// `sigma` and `delta` are reported as 0: sign-DP privatizes via
/// randomized response, so the Gaussian accountant's achieved-ε does not
/// apply (reports show such cells as non-Gaussian-private).
pub(crate) fn run_sign_dp_simulation_telemetry(
    cfg: &SimulationConfig,
    tel: &Telemetry,
) -> RunResult {
    let sign_cfg = SignDpConfig::from_simulation(cfg)
        .expect("the sign-DP loop requires WorkerProtocol::SignDp");
    let iterations = ((sign_cfg.epochs * sign_cfg.per_worker as f64) / sign_cfg.batch_size as f64)
        .ceil() as usize;
    let r = run_sign_dp_with(&sign_cfg, tel);
    RunResult {
        final_accuracy: r.final_accuracy,
        history: r.history,
        defense_stats: Default::default(),
        sigma: 0.0,
        lr: sign_cfg.lr,
        iterations,
        delta: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n_byz: usize) -> SignDpConfig {
        SignDpConfig {
            dataset: SyntheticSpec::mnist_like(),
            model: ModelKind::SmallMlp { hidden: 8 },
            per_worker: 128,
            test_count: 200,
            n_honest: 6,
            n_byzantine: n_byz,
            epochs: 4.0,
            lr: 0.002,
            batch_size: 16,
            flip_prob: SignDpConfig::flip_prob_for_epsilon(1.0),
            seed: 3,
        }
    }

    #[test]
    fn flip_prob_formula() {
        // ε₀ = 0 would be p = 1/2; ε₀ → ∞ gives p → 0.
        assert!(
            (SignDpConfig::flip_prob_for_epsilon(1.0) - 1.0 / (1f64.exp() + 1.0)).abs() < 1e-12
        );
        assert!(SignDpConfig::flip_prob_for_epsilon(8.0) < 0.001);
    }

    #[test]
    fn honest_sign_dp_learns_something() {
        let r = run_sign_dp_with(&cfg(0), &Telemetry::null());
        assert!(r.final_accuracy > 0.3, "sign-DP failed to learn: {}", r.final_accuracy);
    }

    #[test]
    fn byzantine_majority_destroys_sign_dp() {
        // 7 byzantine vs 6 honest: majority vote flips, accuracy collapses
        // to chance — the paper's Table 1 "✗ at >50%" entry.
        let honest = run_sign_dp_with(&cfg(0), &Telemetry::null());
        let attacked = run_sign_dp_with(&cfg(7), &Telemetry::null());
        assert!(
            attacked.final_accuracy < honest.final_accuracy - 0.1,
            "sign-DP unexpectedly survived a Byzantine majority: {} vs {}",
            attacked.final_accuracy,
            honest.final_accuracy
        );
    }

    #[test]
    fn sign_dp_simulation_config_maps_onto_the_baseline_loop() {
        // A SignDp-protocol SimulationConfig must resolve to exactly the
        // SignDpConfig a hand-coded baseline call would build, and running
        // it through the simulation entry point must reproduce the
        // baseline loop bit for bit.
        let hand = cfg(2);
        let mut sim =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        sim.per_worker = hand.per_worker;
        sim.test_count = hand.test_count;
        sim.n_honest = hand.n_honest;
        sim.n_byzantine = hand.n_byzantine;
        sim.epochs = hand.epochs;
        sim.dp.batch_size = hand.batch_size;
        sim.seed = hand.seed;
        sim.protocol = WorkerProtocol::SignDp { lr: hand.lr, flip_prob: hand.flip_prob };
        assert_eq!(SignDpConfig::from_simulation(&sim), Some(hand.clone()));
        assert_eq!(
            SignDpConfig::from_simulation(&SimulationConfig::quick(
                SyntheticSpec::mnist_like(),
                ModelKind::Mlp784
            )),
            None
        );

        let via_simulation = crate::simulation::run(&sim);
        let direct = run_sign_dp_with(&hand, &Telemetry::null());
        assert_eq!(via_simulation.final_accuracy.to_bits(), direct.final_accuracy.to_bits());
        assert_eq!(via_simulation.history.len(), direct.history.len());
        assert_eq!(via_simulation.sigma, 0.0);
        assert_eq!(via_simulation.delta, 0.0);
        assert!((via_simulation.lr - hand.lr).abs() < 1e-15);
    }

    #[test]
    fn guerraoui_preset_sets_protocol_and_defense() {
        let base =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        let cfg = guerraoui_style(base, 1.0, AggregatorKind::Krum { f: 2 });
        assert_eq!(cfg.protocol, WorkerProtocol::ClippedDp { clip: 1.0 });
        assert!(matches!(cfg.defense, DefenseKind::Robust { rule: AggregatorKind::Krum { f: 2 } }));
    }
}
