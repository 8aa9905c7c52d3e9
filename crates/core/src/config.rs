//! Protocol configuration.

use crate::second_stage::{ScoringRule, WeightScheme};
use crate::simulation::worker_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// What each worker does with its momentum list after uploading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum MomentumReset {
    /// Algorithm 1 line 11 as written: every slot is overwritten with the
    /// noisy upload, `φ[j] ← g_i^t`.
    #[default]
    PaperReset,
    /// Conventional momentum: slots persist across rounds (ablation).
    Keep,
}

/// How the server normalizes the sum of selected uploads in the model update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum StepNormalization {
    /// Algorithm 1 line 14 as written: `w ← w − η·(1/n)·Σ_{g∈G} g`
    /// (divide by the total worker count).
    #[default]
    TotalWorkers,
    /// Divide by the number of *selected* uploads (ablation; keeps the
    /// effective step independent of the Byzantine fraction).
    SelectedCount,
}

/// How the two-stage fold retains stage-1 survivors until the round's
/// selection resolves. Honoured in every two-stage round, under any attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum UploadRetention {
    /// Keep each accepted upload verbatim (`f32`): the update sums exactly
    /// the bits the workers sent.
    #[default]
    Exact,
    /// Re-encode each accepted upload as a scale + `i16` codes
    /// (`dpbfl_tensor::quant::QuantizedVec`), halving retained bytes at the
    /// extreme cohort tail. Deterministic but lossy: opt-in per scenario,
    /// never used by the pinned paper grids.
    Quantized,
}

/// Per-worker DP training hyper-parameters (paper Algorithm 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpSgdConfig {
    /// Local batch size `b_c` — deliberately small (8/16), §4.2 property 1.
    /// Also the per-step batch of the sign-DP baseline substrate: a
    /// [`crate::simulation::WorkerProtocol::SignDp`] run reads this field
    /// in the [`crate::baseline`] majority-vote loop.
    pub batch_size: usize,
    /// Gradient momentum `β` (paper uses 0.1).
    pub momentum: f32,
    /// Noise multiplier σ (relative to the unit per-example sensitivity the
    /// normalization enforces).
    pub noise_multiplier: f64,
    /// Momentum handling after upload.
    pub momentum_reset: MomentumReset,
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        DpSgdConfig {
            batch_size: 16,
            momentum: 0.1,
            noise_multiplier: 0.79, // the paper's σ_b at ε = 2 (MNIST setup)
            momentum_reset: MomentumReset::default(),
        }
    }
}

impl DpSgdConfig {
    /// Per-coordinate standard deviation of the noise *as the server sees
    /// it*: Algorithm 1 line 10 scales the noisy sum by `1/b_c`, so uploads
    /// carry `N(0, (σ/b_c)² I)`.
    pub fn effective_noise_std(&self) -> f64 {
        self.noise_multiplier / self.batch_size as f64
    }

    /// The worker's preconditions against its shard of `per_worker`
    /// records, when the run builds a [`crate::worker::DpWorker`].
    pub(crate) fn check(&self, per_worker: Option<usize>) -> Vec<String> {
        let (b, n, m) = (self.batch_size, per_worker.unwrap_or(usize::MAX), self.momentum);
        #[rustfmt::skip]
        let rules = [
            (b > 0, "dp.batch_size: dp.batch_size must be positive (0 makes the iteration count \
                ⌈epochs·per_worker/batch_size⌉ unbounded)".into()),
            (b <= n, format!("dp.batch_size: dp.batch_size {b} exceeds per_worker {n}: the local \
                batch is drawn from the shard, and the accountant's sampling rate \
                batch_size/per_worker must be at most 1")),
            ((0.0..1.0).contains(&m), format!("dp.momentum: momentum {m} outside [0, 1)")),
        ];
        refusals(rules)
    }
}

/// The messages of the `rules` that do not hold; each rule is `(holds,
/// message)`, its message led by the field it concerns.
pub(crate) fn refusals(rules: impl IntoIterator<Item = (bool, String)>) -> Vec<String> {
    rules.into_iter().filter(|rule| !rule.0).map(|rule| rule.1).collect()
}

/// Server-side defense parameters (Algorithms 2 and 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Server's belief: at least `⌈γ·n⌉` of the `n` workers are honest.
    pub gamma: f64,
    /// KS significance level (paper: 0.05).
    pub ks_significance: f64,
    /// Width of the norm-test interval in χ² standard deviations (paper: 3,
    /// the 68–95–99.7 rule).
    pub norm_test_stds: f64,
    /// Number of auxiliary samples per class the server holds (paper: 2).
    pub aux_per_class: usize,
    /// Model-update normalization.
    pub step_normalization: StepNormalization,
    /// Second-stage scoring metric (paper: inner product).
    pub scoring: ScoringRule,
    /// Second-stage weight scheme (paper: binary).
    pub weighting: WeightScheme,
    /// Whether the first stage runs at all (disabled only by the
    /// design-choice ablation; the paper argues second stage alone is
    /// unsafe because a single selected arbitrary upload can destroy the
    /// model).
    pub first_stage_enabled: bool,
    /// How the fold retains stage-1 survivors.
    pub retention: UploadRetention,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            gamma: 0.5,
            ks_significance: 0.05,
            norm_test_stds: 3.0,
            aux_per_class: 2,
            step_normalization: StepNormalization::default(),
            scoring: ScoringRule::default(),
            weighting: WeightScheme::default(),
            first_stage_enabled: true,
            retention: UploadRetention::default(),
        }
    }
}

/// Deterministic fault-injection plan for serving runs.
///
/// Every decision is a pure function of `(seed, worker, round)` — never of
/// wall-clock time, arrival order, or which client process hosts the worker
/// — so the in-process transport can model the same plan and produce a
/// byte-identical `RunSummary` (the parity reference CI's churn leg `cmp`s
/// served runs against).
///
/// Axes:
///
/// * **Withholding** ([`FaultSpec::withholds`]): the worker steps normally
///   but its upload never leaves the client. `skip_rounds` withholds whole
///   rounds; `flaky_pct` withholds each `(worker, round)` upload
///   independently with the given probability. Both are modeled identically
///   by [`crate::round::InProcessTransport`].
/// * **Connection churn** (`drop_at_round`): the client closes its
///   connection on receiving that round's `RoundBegin`, then reconnects
///   under its retry policy. Wire-only: with reconnect + replay no upload
///   is lost, so the in-process model ignores it — which is exactly the
///   property the churn sweep verifies.
/// * **Latency** (`delay_ms_lo..=delay_ms_hi`): a deterministic per-upload
///   sleep before sending. Wall-clock only; parity with the in-process
///   reference holds as long as the round deadline absorbs the delay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Rounds whose uploads are withheld entirely (the workers still step).
    pub skip_rounds: Vec<usize>,
    /// Close the connection on receiving this round's `RoundBegin`, before
    /// stepping; fires once per client process. Wire-only (see above).
    pub drop_at_round: Option<usize>,
    /// Lower bound of the per-upload delay, milliseconds.
    pub delay_ms_lo: u64,
    /// Upper bound of the per-upload delay, milliseconds (`0` = no delay).
    pub delay_ms_hi: u64,
    /// Per-upload withholding probability, in percent `[0, 100]`.
    pub flaky_pct: f64,
    /// Seed of the fault plan's own RNG streams (independent of the run's
    /// master seed, so sweeping faults never perturbs training draws).
    pub seed: u64,
}

/// Domain-separation salts for the fault plan's derived RNG streams.
const FLAKY_SALT: u64 = 0x00f1_a417;
const DELAY_SALT: u64 = 0x00de_1a59;

impl FaultSpec {
    /// True when the plan injects nothing (the `seed` alone is inert).
    pub fn is_noop(&self) -> bool {
        self.skip_rounds.is_empty()
            && self.drop_at_round.is_none()
            && self.delay_ms_lo == 0
            && self.delay_ms_hi == 0
            && self.flaky_pct == 0.0
    }

    /// One per-`(worker, round)` RNG stream of the plan, domain-separated
    /// by `salt` — the same derivation shape as the run's worker streams.
    fn stream(&self, salt: u64, worker: usize, round: usize) -> StdRng {
        StdRng::seed_from_u64(worker_seed(worker_seed(self.seed ^ salt, worker), round))
    }

    /// Whether `worker`'s upload for `round` is withheld.
    pub fn withholds(&self, worker: usize, round: usize) -> bool {
        if self.skip_rounds.contains(&round) {
            return true;
        }
        if self.flaky_pct <= 0.0 {
            return false;
        }
        let p = (self.flaky_pct / 100.0).clamp(0.0, 1.0);
        self.stream(FLAKY_SALT, worker, round).gen_bool(p)
    }

    /// The deterministic pre-upload delay for `(worker, round)`, drawn
    /// uniformly from `[delay_ms_lo, delay_ms_hi]`.
    pub fn delay_ms(&self, worker: usize, round: usize) -> u64 {
        let (lo, hi) = (self.delay_ms_lo, self.delay_ms_hi.max(self.delay_ms_lo));
        if hi == 0 {
            return 0;
        }
        self.stream(DELAY_SALT, worker, round).gen_range(lo..=hi)
    }
}

/// Serving-layer knobs carried on the run configuration, so a grid cell can
/// sweep deadline policy and fault schedule like any other axis. `None` on
/// [`crate::simulation::SimulationConfig::serving`] means "no serving
/// overrides": the default deadline and a no-op fault plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServingSpec {
    /// Per-round upload deadline override, milliseconds. `Some(0)` means
    /// "collect only already-queued uploads, never wait" — over the wire no
    /// upload can be queued before the round broadcast, so every member
    /// drops, and the in-process model withholds every upload to match.
    pub deadline_ms: Option<u64>,
    /// The fault-injection plan clients adopt from the server's `Welcome`
    /// (unless overridden per client) and the in-process transport models.
    pub fault: FaultSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_noise_scales_with_batch() {
        let cfg = DpSgdConfig { batch_size: 16, noise_multiplier: 0.8, ..Default::default() };
        assert!((cfg.effective_noise_std() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn defaults_match_paper() {
        let dp = DpSgdConfig::default();
        assert_eq!(dp.batch_size, 16);
        assert!((dp.momentum - 0.1).abs() < 1e-6);
        let def = DefenseConfig::default();
        assert!((def.ks_significance - 0.05).abs() < 1e-12);
        assert_eq!(def.aux_per_class, 2);
        assert!((def.norm_test_stds - 3.0).abs() < 1e-12);
        assert!(def.first_stage_enabled);
        assert_eq!(def.retention, UploadRetention::Exact, "bit-exact retention by default");
    }

    #[test]
    fn configs_serialize_roundtrip() {
        let dp = DpSgdConfig::default();
        let s = serde_json::to_string(&dp).expect("serialize");
        let back: DpSgdConfig = serde_json::from_str(&s).expect("deserialize");
        assert_eq!(back.batch_size, dp.batch_size);
    }

    #[test]
    fn fault_plan_is_deterministic_and_per_member() {
        let fault = FaultSpec { flaky_pct: 40.0, seed: 7, ..FaultSpec::default() };
        assert!(!fault.is_noop());
        // Same (seed, worker, round) → same verdict, every time.
        for w in 0..8 {
            for r in 0..8 {
                assert_eq!(fault.withholds(w, r), fault.withholds(w, r));
            }
        }
        // The plan actually withholds *some* but not *all* uploads.
        let withheld: usize = (0..8)
            .flat_map(|w| (0..8).map(move |r| (w, r)))
            .filter(|&(w, r)| fault.withholds(w, r))
            .count();
        assert!(withheld > 0 && withheld < 64, "flaky plan withheld {withheld}/64");
        // A different fault seed gives a different schedule.
        let other = FaultSpec { seed: 8, ..fault.clone() };
        let differs = (0..8)
            .flat_map(|w| (0..8).map(move |r| (w, r)))
            .any(|(w, r)| fault.withholds(w, r) != other.withholds(w, r));
        assert!(differs, "fault seed must matter");
    }

    #[test]
    fn skip_rounds_withhold_every_member_and_defaults_are_noop() {
        assert!(FaultSpec::default().is_noop());
        assert!(!FaultSpec::default().withholds(0, 0));
        assert_eq!(FaultSpec::default().delay_ms(3, 5), 0);
        let fault = FaultSpec { skip_rounds: vec![2], ..FaultSpec::default() };
        for w in 0..6 {
            assert!(fault.withholds(w, 2));
            assert!(!fault.withholds(w, 1));
        }
    }

    #[test]
    fn delay_draws_stay_in_bounds() {
        let fault = FaultSpec { delay_ms_lo: 5, delay_ms_hi: 9, seed: 3, ..FaultSpec::default() };
        for w in 0..8 {
            for r in 0..8 {
                let d = fault.delay_ms(w, r);
                assert!((5..=9).contains(&d), "delay {d} out of [5, 9]");
                assert_eq!(d, fault.delay_ms(w, r), "delay draw must be deterministic");
            }
        }
    }
}
