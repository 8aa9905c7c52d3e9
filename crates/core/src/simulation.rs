//! End-to-end federated training simulation.
//!
//! One simulation run reproduces the paper's experimental loop: a server
//! broadcasts the model, honest workers run Algorithm 1, the omniscient
//! adversary crafts its Byzantine uploads, the server defends (or doesn't),
//! updates the model, and the test accuracy is tracked per epoch.
//!
//! The *Reference Accuracy* of the paper (§6.1) is this same simulation with
//! zero Byzantine workers and [`DefenseKind::NoDefense`].

use crate::aggregator::AggregatorKind;
use crate::attack::AttackSpec;
use crate::config::{refusals, DefenseConfig, DpSgdConfig, ServingSpec};
use crate::round::{InProcessTransport, Transport};
use dpbfl_data::{iid_partition, non_iid_partition, Dataset, SyntheticSpec};
use dpbfl_dp::{paper_delta, RdpAccountant, MAX_NOISE_MULTIPLIER};
use dpbfl_nn::{zoo, Sequential};
use dpbfl_stats::sample_without_replacement;
use dpbfl_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Which network architecture the run trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's Fashion/USPS MLP (`d = 25 450`); also used for the
    /// MNIST-like task at reduced scale.
    Mlp784,
    /// The paper's MNIST CNN (`d = 21 802`).
    MnistCnn,
    /// The Colorectal-like residual CNN.
    ColorectalCnn,
    /// Small generic MLP (reduced-scale experiments): `input → hidden →
    /// classes`.
    SmallMlp {
        /// Hidden width.
        hidden: usize,
    },
}

impl ModelKind {
    /// The model's preconditions against its dataset: a positive hidden
    /// width, and the example length and class count as input and output.
    pub fn check(&self, spec: &SyntheticSpec) -> Result<(), String> {
        let want = (spec.example_len(), spec.num_classes);
        let shape = match *self {
            ModelKind::Mlp784 | ModelKind::MnistCnn => (784, 10),
            ModelKind::ColorectalCnn => (3 * 32 * 32, 8),
            ModelKind::SmallMlp { hidden: 0 } => return Err("SmallMlp hidden must be > 0".into()),
            ModelKind::SmallMlp { .. } => want,
        };
        let why = || format!("{self:?} maps {shape:?} (input, classes); {} is {want:?}", spec.name);
        (shape == want).then_some(()).ok_or_else(why)
    }

    /// Builds the network; panics where [`ModelKind::check`] refuses `spec`.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R, spec: &SyntheticSpec) -> Sequential {
        self.check(spec).unwrap_or_else(|e| panic!("model: {e}"));
        match *self {
            ModelKind::Mlp784 => zoo::mlp_784(rng),
            ModelKind::MnistCnn => zoo::mnist_cnn(rng),
            ModelKind::ColorectalCnn => zoo::colorectal_cnn(rng),
            ModelKind::SmallMlp { hidden } => {
                zoo::mlp(rng, spec.example_len(), hidden, spec.num_classes)
            }
        }
    }
}

/// How worker uploads are produced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkerProtocol {
    /// The paper's protocol: normalization + momentum + Gaussian noise
    /// (Algorithm 1).
    PaperDp,
    /// Vanilla DP-SGD with clipping (the \[30\]-style baseline substrate).
    ClippedDp {
        /// Clipping threshold `C`.
        clip: f64,
    },
    /// No privacy: Algorithm 1 with σ = 0 (normalization and momentum kept,
    /// no noise), so the Non-DP ablation rows share the same tuned
    /// hyper-parameters — matching the paper's "same hyperparameter setup
    /// for a fair comparison" (supp. A.6).
    Plain,
    /// The \[77\]-style sign-compression DP baseline substrate: workers upload
    /// randomized per-coordinate gradient *signs* and the server takes a
    /// coordinate-wise majority vote. Structurally different from gradient
    /// averaging, so a run under this protocol dispatches to the
    /// [`crate::baseline`] majority-vote loop: the `defense` must be
    /// [`DefenseKind::NoDefense`] (the majority vote *is* the server rule)
    /// and the `attack` must be [`crate::attack::AttackSpec::None`] —
    /// Byzantine workers always upload inverted signs, the baseline's worst
    /// case, so any other attack label would misrepresent what ran
    /// ([`SimulationConfig::check`] refuses both).
    SignDp {
        /// Server step size applied to the majority-vote sign vector.
        lr: f64,
        /// Per-coordinate randomized-response flip probability
        /// `p = 1/(e^{ε₀} + 1)` for per-round sign privacy ε₀ (see
        /// [`crate::baseline::flip_prob_for_epsilon`]).
        flip_prob: f64,
    },
}

impl WorkerProtocol {
    /// Short name for reports and grid-axis labels.
    pub fn name(&self) -> String {
        match *self {
            WorkerProtocol::PaperDp => "paper-dp".into(),
            WorkerProtocol::ClippedDp { clip } => format!("clipped-dp(C={clip})"),
            WorkerProtocol::Plain => "plain".into(),
            WorkerProtocol::SignDp { flip_prob, .. } => format!("sign-dp(p={flip_prob})"),
        }
    }

    /// Whether the protocol adds Gaussian noise (and the run asks the accountant).
    fn gaussian(&self) -> bool {
        matches!(self, WorkerProtocol::PaperDp | WorkerProtocol::ClippedDp { .. })
    }

    /// The protocol's preconditions on `cfg`: a finite, positive clip, and
    /// the five things the sign-DP loop does not do.
    fn check(&self, cfg: &SimulationConfig) -> Vec<String> {
        #[rustfmt::skip]
        let rules = match *self {
            WorkerProtocol::ClippedDp { clip } => vec![(clip.is_finite() && clip > 0.0,
                format!("protocol: ClippedDp clip {clip} must be finite and > 0"))],
            WorkerProtocol::SignDp { .. } => vec![
                (cfg.defense == DefenseKind::NoDefense, "protocol: the sign-DP substrate runs its \
                    own majority-vote server loop; its defense must be NoDefense".into()),
                (cfg.attack == AttackSpec::None, "protocol: the sign-DP substrate's Byzantine \
                    behavior is structural sign-inversion; its attack must be None".into()),
                (cfg.sampling >= 1.0, "protocol: the sign-DP substrate polls every worker each \
                    round; its sampling fraction must be 1".into()),
                (cfg.provisioning == Provisioning::Pooled, "protocol: the sign-DP substrate \
                    synthesizes its own pooled data; its provisioning must be Pooled".into()),
                (cfg.eval_every == 0, format!("protocol: the sign-DP substrate evaluates once per \
                    epoch; its eval_every must be 0, got {}", cfg.eval_every)),
            ],
            _ => Vec::new(),
        };
        refusals(rules)
    }
}

/// Which server-side defense runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DefenseKind {
    /// Plain averaging of every upload (Reference Accuracy / undefended).
    NoDefense,
    /// The paper's two-stage protocol (Algorithms 2 + 3).
    TwoStage,
    /// A classical robust aggregator applied to the uploads (the paper's
    /// "off-the-shelf robust rule on top of DP" comparison).
    Robust {
        /// The aggregation rule the server applies.
        rule: AggregatorKind,
    },
    /// FLTrust [Cao et al. 2020]: cosine-trust weighting against the server's
    /// auxiliary gradient (the prior auxiliary-data defense in Table 1).
    FlTrust,
}

impl DefenseKind {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            DefenseKind::NoDefense => "none".into(),
            DefenseKind::TwoStage => "two-stage".into(),
            DefenseKind::Robust { rule } => rule.name(),
            DefenseKind::FlTrust => "fltrust".into(),
        }
    }

    /// The defense's preconditions against `cfg`'s cohort: its parameters'
    /// ranges, an upload left by trimming, auxiliary data, and DP noise.
    fn check(&self, cfg: &SimulationConfig) -> Vec<String> {
        let DefenseConfig { gamma: g, ks_significance: a, norm_test_stds: s, .. } = cfg.defense_cfg;
        let trim = match self {
            DefenseKind::Robust { rule: AggregatorKind::TrimmedMean { trim } } => *trim,
            _ => 0,
        };
        let cohort = cfg.cohort_len();
        let aux = !matches!(self, DefenseKind::TwoStage | DefenseKind::FlTrust);
        let sigma = cfg.dp.noise_multiplier;
        let noise = *self != DefenseKind::TwoStage
            || cfg.protocol != WorkerProtocol::Plain
                && (cfg.epsilon.is_some() || sigma > 0.0 && sigma.is_finite());
        #[rustfmt::skip]
        let rules = [
            (g > 0.0 && g <= 1.0, format!("defense_cfg.gamma: gamma {g} outside (0, 1]")),
            (a > 0.0 && a < 1.0, format!("defense_cfg.ks_significance: {a} outside (0, 1)")),
            (s.is_finite() && s > 0.0, format!("defense_cfg.norm_test_stds: {s} is not finite and \
                positive")),
            (trim == 0 || 2 * trim < cohort, format!("defense: trimmed mean drops {trim} uploads \
                from each end of a cohort of {cohort}; it needs 2·trim < {cohort}")),
            (aux || cfg.defense_cfg.aux_per_class > 0, format!("defense_cfg.aux_per_class: the \
                {} defense needs at least one auxiliary example per class", self.name())),
            (noise, "defense: two-stage defense requires DP noise (σ > 0): a protocol other than \
                Plain, and a finite dp.noise_multiplier > 0 or an epsilon target".into()),
        ];
        refusals(rules)
    }
}

/// How client training data is provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Provisioning {
    /// The paper's setup: [`prepare`] deals one pooled training set across
    /// long-lived workers whose momentum persists over the rounds they
    /// participate in. Only the worker's holder builds its shard: the
    /// in-process transport for every data worker, a serving client for the
    /// workers it claims; no process holds the whole set.
    #[default]
    Pooled,
    /// Million-client mode: no pooled set exists. Each *sampled* client
    /// synthesizes its own local shard on demand (a pure function of the
    /// master seed and the client index, stable across rounds) and trains as
    /// a fresh worker — cold momentum per participation. Only sensible
    /// together with client sampling; memory per round is
    /// `O(cohort)`, never `O(n)`.
    OnDemand,
}

/// Full experiment configuration.
///
/// Serializes to/from JSON (the `dpbfl-harness` scenario format embeds it
/// verbatim), so a cell of an experiment grid is reproducible from its
/// serialized config alone.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Synthetic dataset family.
    pub dataset: SyntheticSpec,
    /// Network architecture.
    pub model: ModelKind,
    /// Examples per worker, `|D_i|`.
    pub per_worker: usize,
    /// Held-out test examples.
    pub test_count: usize,
    /// Honest worker count.
    pub n_honest: usize,
    /// Byzantine worker count.
    pub n_byzantine: usize,
    /// i.i.d. (true) or Algorithm-4 non-i.i.d. (false) data distribution.
    pub iid: bool,
    /// Epochs; `T = ⌈epochs·|D_i|/b_c⌉`.
    pub epochs: f64,
    /// Base learning rate `η_b` (paper: 0.2).
    pub base_lr: f64,
    /// Base noise multiplier `σ_b` the base lr was tuned at (paper: 0.79,
    /// i.e. ε = 2 on MNIST). The run's lr is `η_b·σ_b/σ`.
    pub base_sigma: f64,
    /// Target privacy ε; `Some` derives σ via the RDP accountant with
    /// `δ = |D_i|^{−1.1}`, `None` uses `dp.noise_multiplier` as-is.
    pub epsilon: Option<f64>,
    /// Worker-side DP parameters.
    pub dp: DpSgdConfig,
    /// Server-side defense parameters.
    pub defense_cfg: DefenseConfig,
    /// The attack mounted by the Byzantine workers.
    pub attack: AttackSpec,
    /// The server's defense.
    pub defense: DefenseKind,
    /// Upload protocol.
    pub protocol: WorkerProtocol,
    /// Auxiliary data drawn from a different data space (supp. Table 17).
    pub ood_auxiliary: bool,
    /// Master seed.
    pub seed: u64,
    /// Evaluate every this many iterations (0 = only at epoch boundaries).
    pub eval_every: usize,
    /// Per-round client sampling fraction `q ∈ (0, 1]`: each round draws a
    /// cohort of `⌈q·n⌉` workers from a dedicated sampling RNG stream.
    /// `q = 1` reproduces full participation bit-exactly (the identity
    /// cohort, no sampling draw at all).
    pub sampling: f64,
    /// How client training data is provisioned.
    pub provisioning: Provisioning,
    /// Serving-layer overrides: deadline policy and the fault-injection
    /// plan. `None` (the default, and what any pre-existing config JSON
    /// deserializes to) means no overrides. The in-process transport models
    /// the withholding plan so served and in-process runs stay
    /// byte-identical under the same schedule.
    pub serving: Option<ServingSpec>,
}

impl SimulationConfig {
    /// A small, fast default configuration (reduced scale; the bench harness
    /// overrides fields per experiment).
    pub fn quick(dataset: SyntheticSpec, model: ModelKind) -> Self {
        SimulationConfig {
            dataset,
            model,
            per_worker: 400,
            test_count: 500,
            n_honest: 10,
            n_byzantine: 0,
            iid: true,
            epochs: 4.0,
            base_lr: 0.2,
            base_sigma: 0.79,
            epsilon: Some(2.0),
            dp: DpSgdConfig::default(),
            defense_cfg: DefenseConfig::default(),
            attack: AttackSpec::None,
            defense: DefenseKind::NoDefense,
            protocol: WorkerProtocol::PaperDp,
            ood_auxiliary: false,
            seed: 1,
            eval_every: 0,
            sampling: 1.0,
            provisioning: Provisioning::default(),
            serving: None,
        }
    }

    /// Total workers `n`.
    pub fn n_total(&self) -> usize {
        self.n_honest + self.n_byzantine
    }

    /// Iterations `T = ⌈epochs·|D_i|/b_c⌉`.
    pub fn iterations(&self) -> usize {
        ((self.epochs * self.per_worker as f64) / self.dp.batch_size as f64).ceil() as usize
    }

    /// The one more precondition of a run served over a transport: the
    /// sign-DP substrate owns its own loop and cannot be served.
    pub fn check_servable(&self) -> Result<(), String> {
        let served = !matches!(self.protocol, WorkerProtocol::SignDp { .. });
        served.then_some(()).ok_or_else(|| {
            "protocol: sign-DP runs its own loop (baseline::run_sign_dp) and cannot be served \
             over a transport"
                .into()
        })
    }

    /// Members per round, `⌈q·n⌉` in `[1, n]` (`n` at `q ≥ 1`): the length
    /// of every [`round_cohort`], without drawing one.
    fn cohort_len(&self) -> usize {
        ((self.sampling * self.n_total() as f64).ceil() as usize).max(1).min(self.n_total())
    }

    /// Every precondition of a run, stated once: a config that passes runs
    /// without a panic. Each type checks the facts it owns; `Err` has one
    /// message per problem, led by the field path it concerns. No work grows
    /// with the worker count; an ε target costs one accountant step.
    pub fn check(&self) -> Result<(), Vec<String>> {
        let dataset = self.dataset.check().into_iter().map(|p| format!("dataset.{p}"));
        let mut problems: Vec<String> = dataset.collect();
        problems.extend(self.model.check(&self.dataset).err().map(|e| format!("model: {e}")));
        let worker = !matches!(self.protocol, WorkerProtocol::SignDp { .. });
        problems.extend(self.dp.check(worker.then_some(self.per_worker)));
        problems.extend(self.protocol.check(self).into_iter().chain(self.defense.check(self)));
        problems.extend(
            self.attack.validate().err().map(|e| format!("attack: invalid attack spec: {e}")),
        );
        let (protocol, n, q, e) = (self.protocol, self.per_worker, self.sampling, self.epochs);
        let holders = if worker { data_members(self) } else { self.n_honest };
        let min = if protocol.gaussian() { 2 } else { 1 }; // δ = per_worker^-1.1 needs two records
        let eps = self.epsilon.unwrap_or(1.0);
        let fault = self.serving.as_ref().map(|s| s.fault.clone()).unwrap_or_default();
        let (pct, lo, hi) = (fault.flaky_pct, fault.delay_ms_lo, fault.delay_ms_hi);
        #[rustfmt::skip]
        let rules = [
            (holders > 0, "n_honest: no worker holds training data (n_honest is 0, and no \
                Byzantine worker trains)".into()),
            (n >= min, format!("per_worker: {n} below {min}, the least {protocol:?} runs on")),
            (self.test_count > 0, "test_count: test_count must be positive".into()),
            (e.is_finite() && e > 0.0, format!("epochs: epochs {e} must be positive and finite")),
            (q > 0.0 && q <= 1.0, format!("sampling: sampling fraction {q} outside (0, 1]")),
            (self.iid || self.provisioning == Provisioning::Pooled, "provisioning: on-demand \
                provisioning synthesizes each client's shard i.i.d.; the non-iid sorted partition \
                (Algorithm 4) needs the pooled path".into()),
            (eps.is_finite() && eps > 0.0, format!("epsilon: target epsilon {eps} must be positive \
                and finite")),
            ((0.0..=100.0).contains(&pct), format!("serving.fault.flaky_pct: serving flaky_pct \
                {pct} outside [0, 100]")),
            (lo <= hi || hi == 0, format!("serving.fault.delay_ms_lo: serving delay bounds \
                inverted ({lo} > {hi})")),
        ];
        problems.extend(refusals(rules));
        // Only a config valid so far has an accountant to ask.
        if protocol.gaussian() && self.epsilon.is_some() && problems.is_empty() {
            let (acc, delta) = accountant(self);
            let why = format!("epsilon: target epsilon {eps} needs σ > {MAX_NOISE_MULTIPLIER}");
            problems.extend(refusals([(acc.reaches(eps, delta), why)]));
        }
        problems.is_empty().then_some(()).ok_or(problems)
    }
}

/// One accuracy measurement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalPoint {
    /// Iteration index (1-based, after the update).
    pub iteration: usize,
    /// Fractional epoch.
    pub epoch: f64,
    /// Test accuracy in [0, 1].
    pub accuracy: f64,
}

/// Defense bookkeeping across the whole run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DefenseStats {
    /// Uploads zeroed by the first stage, split by worker kind.
    pub first_stage_rejected_honest: u64,
    /// Byzantine uploads zeroed by the first stage.
    pub first_stage_rejected_byzantine: u64,
    /// Second-stage selections that picked a Byzantine upload.
    pub byzantine_selected: u64,
    /// Total selections made (`⌈γn⌉ · rounds`).
    pub total_selected: u64,
}

/// Result of one simulation run: its summary.
pub type RunResult = RunSummary;

/// The result of one simulation run, and the on-disk contract of the
/// `dpbfl-harness` JSONL sink: field names and meanings are stable, so
/// archived grid results stay readable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Final test accuracy in [0, 1].
    pub final_accuracy: f64,
    /// Noise multiplier σ actually used.
    pub sigma: f64,
    /// Learning rate actually used.
    pub lr: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// δ used by the accountant (0 for non-private runs).
    pub delta: f64,
    /// Defense bookkeeping (zeros when no defense ran).
    pub defense_stats: DefenseStats,
    /// Per-evaluation accuracy trajectory.
    pub history: Vec<EvalPoint>,
}

impl RunSummary {
    /// A copy of this summary (the name callers of [`RunResult`] use).
    pub fn summary(&self) -> RunSummary {
        self.clone()
    }
}

/// The deterministic data-preparation product of a run: everything derived
/// from the dataset spec and seed *before* any training happens.
///
/// It holds no training pixels: the pooled set is dealt (every label drawn,
/// the partition computed), and each worker's shard is built later by the
/// worker's holder alone. Splitting this out of [`run`] lets grid runners
/// share one preparation across every cell with the same data inputs (same
/// dataset spec, seed, worker/test counts, distribution and auxiliary pool
/// size) instead of re-synthesizing the test and validation sets and
/// re-dealing per cell. [`run`] itself is [`run_prepared_telemetry`] on
/// `prepare(cfg)`, so sharing is bit-identical to standalone runs by
/// construction.
#[derive(Debug, Clone)]
pub struct PreparedRun {
    /// Per-data-worker index partition of the pooled training set
    /// `generate(parts.len()·per_worker, seed)`; empty on demand.
    pub(crate) parts: Vec<Vec<usize>>,
    /// Held-out test set.
    pub(crate) test: Dataset,
    /// Validation pool the server draws auxiliary samples from.
    pub(crate) validation: Dataset,
    /// Master RNG state *after* the partition draws; the run resumes this
    /// stream (auxiliary sampling draws from it), so hoisting the
    /// preparation does not shift any downstream RNG stream.
    pub(crate) master: StdRng,
}

impl PreparedRun {
    /// Canonical cache key: two configs with equal keys produce bit-identical
    /// [`PreparedRun`]s. Everything [`prepare`] reads is in the key.
    pub fn cache_key(cfg: &SimulationConfig) -> String {
        let key = PrepKey {
            dataset: cfg.dataset.clone(),
            seed: cfg.seed,
            per_worker: cfg.per_worker,
            test_count: cfg.test_count,
            iid: cfg.iid,
            n_data_workers: data_worker_count(cfg),
            aux_per_class: cfg.defense_cfg.aux_per_class,
            provisioning: cfg.provisioning,
        };
        serde_json::to_string(&key).expect("prep key serializes")
    }
}

/// The exact inputs [`prepare`] consumes, in serialized form (the content
/// behind [`PreparedRun::cache_key`]).
#[derive(Debug, Clone, Serialize)]
struct PrepKey {
    dataset: SyntheticSpec,
    seed: u64,
    per_worker: usize,
    test_count: usize,
    iid: bool,
    n_data_workers: usize,
    aux_per_class: usize,
    provisioning: Provisioning,
}

/// The members that hold training data are `0..data_members(cfg)`: the
/// honest workers, plus the Byzantine ones when the attack trains on
/// poisoned local data (label flip, sleeper cover). Every other member's
/// upload is crafted server-side and never touches a transport.
pub(crate) fn data_members(cfg: &SimulationConfig) -> usize {
    cfg.n_honest + if cfg.attack.needs_poisoned_workers() { cfg.n_byzantine } else { 0 }
}

/// Number of pooled shards [`prepare`] deals: one per data member, none
/// under on-demand provisioning (every sampled client synthesizes its own
/// shard inside the round loop).
pub(crate) fn data_worker_count(cfg: &SimulationConfig) -> usize {
    match cfg.provisioning {
        Provisioning::OnDemand => 0,
        Provisioning::Pooled => data_members(cfg),
    }
}

/// Deals the run's data and synthesizes its test set and validation pool
/// (the model-free prefix of [`run`]). No training pixel is built.
pub fn prepare(cfg: &SimulationConfig) -> PreparedRun {
    let (parts, master) = deal(cfg);
    let test = cfg.dataset.generate(cfg.test_count, cfg.seed.wrapping_add(0x7e57));
    let validation = cfg.dataset.generate(
        (cfg.defense_cfg.aux_per_class * cfg.dataset.num_classes * 20).max(200),
        cfg.seed.wrapping_add(0xa0c),
    );
    PreparedRun { parts, test, validation, master }
}

/// Draws every label of the pooled training set and deals it to the data
/// workers — the first draws of the master stream — without building a
/// pixel. Returns the partition and the master stream after it. On demand
/// no pooled set exists: the partition is empty and the master stream is
/// untouched, so the run proceeds straight to auxiliary sampling.
pub(crate) fn deal(cfg: &SimulationConfig) -> (Vec<Vec<usize>>, StdRng) {
    let mut master = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e3779b97f4a7c15));
    if cfg.provisioning == Provisioning::OnDemand {
        return (Vec::new(), master);
    }
    let (spec, n_workers) = (&cfg.dataset, data_members(cfg));
    let rows = (0..n_workers * cfg.per_worker).map(|_| None);
    let labels = spec.synthesize(&spec.prototypes(), cfg.seed, rows);
    let parts = if cfg.iid {
        iid_partition(&mut master, labels.len(), n_workers)
    } else {
        non_iid_partition(&mut master, &labels, spec.num_classes, n_workers)
    };
    (parts, master)
}

/// The only builder of pooled training data: the shards of `workers` under
/// the partition `parts` from [`deal`]. Every example's stream is drawn, but
/// only these workers' pixels are built, straight into their shards — the
/// in-process transport asks for every data worker, a serving client for
/// its claim, and neither holds anything else. The draws run in stream
/// order; the pixels are built across threads
/// ([`SyntheticSpec::synthesize_parallel`]), bit-identical at every count.
///
/// # Panics
/// If a worker is not an index of `parts`.
pub(crate) fn pooled_shards(
    cfg: &SimulationConfig,
    parts: &[Vec<usize>],
    workers: &BTreeSet<usize>,
) -> BTreeMap<usize, Dataset> {
    let spec = &cfg.dataset;
    let example_len = spec.example_len();
    let mut features: Vec<Vec<f32>> =
        workers.iter().map(|&w| vec![0.0; parts[w].len() * example_len]).collect();
    let mut rows: Vec<Option<&mut [f32]>> =
        (0..parts.len() * cfg.per_worker).map(|_| None).collect();
    for (shard, &w) in features.iter_mut().zip(workers) {
        for (row, &i) in shard.chunks_mut(example_len).zip(&parts[w]) {
            rows[i] = Some(row);
        }
    }
    let labels = spec.synthesize_parallel(&spec.prototypes(), cfg.seed, rows);
    let (name, classes) = (&spec.name, spec.num_classes);
    workers
        .iter()
        .zip(features)
        .map(|(&w, features)| {
            let shard_labels = parts[w].iter().map(|&i| labels[i]).collect();
            (w, Dataset::new(name.clone(), features, shard_labels, example_len, classes))
        })
        .collect()
}

/// The round's participating cohort: global worker indices, sorted ascending.
///
/// Full participation (`sampling == 1`) is the identity cohort and draws no
/// randomness at all, so every pre-sampling config reproduces bit-exactly.
/// Sub-sampled rounds draw `⌈q·n⌉` members from a dedicated per-round RNG
/// stream (salt `0xc0407`, then [`worker_seed`] over the round index), so
/// cohort membership never perturbs the worker, attack or data streams — and
/// the draw happens sequentially before any parallel work, so cohorts are
/// identical at every thread count.
pub fn round_cohort(cfg: &SimulationConfig, round: usize) -> Vec<usize> {
    if cfg.sampling >= 1.0 {
        return (0..cfg.n_total()).collect();
    }
    let mut rng = StdRng::seed_from_u64(worker_seed(cfg.seed.wrapping_add(0xc0407), round));
    sample_without_replacement(&mut rng, cfg.n_total(), cfg.cohort_len())
}

/// Runs one full experiment.
pub fn run(cfg: &SimulationConfig) -> RunResult {
    // The sign-DP substrate runs its own loop (and synthesizes its own
    // data), so skip the gradient-protocol preparation entirely.
    if matches!(cfg.protocol, WorkerProtocol::SignDp { .. }) {
        return crate::baseline::run_sign_dp(cfg, &Telemetry::null());
    }
    run_prepared_telemetry(cfg, &prepare(cfg), &Telemetry::null())
}

/// Runs one full experiment on already-prepared data, in process, with a
/// telemetry sink attached.
///
/// `prep` must come from [`prepare`] on a config with the same
/// [`PreparedRun::cache_key`] as `cfg` (enforced by assertion on the worker
/// count); cells of a grid sharing a key may share one `prep`.
///
/// The returned [`RunResult`] is byte-identical under every sink: telemetry
/// only *observes* (counters accumulate after the fold's shard merge, in
/// cohort order; no sink ever draws RNG or reorders accumulation), so
/// enabling it cannot perturb the run. Pass [`Telemetry::null`] to record
/// nothing.
pub fn run_prepared_telemetry(
    cfg: &SimulationConfig,
    prep: &PreparedRun,
    tel: &Telemetry,
) -> RunResult {
    // The sign-compression substrate is structurally different (majority
    // vote instead of gradient averaging) and owns its data pipeline: a
    // shared `prep` is simply unused for such cells.
    if matches!(cfg.protocol, WorkerProtocol::SignDp { .. }) {
        return crate::baseline::run_sign_dp(cfg, tel);
    }
    let (dp, delta) = calibrated_dp(cfg);
    let mut transport = InProcessTransport::new(cfg, prep, &dp);
    crate::round::orchestrate(cfg, prep, &mut transport, tel, &dp, delta)
}

/// Runs one full experiment on already-prepared data, delivering uploads
/// through `transport`.
///
/// This is the serving entry point: `dpbfl-server` calls it with a
/// `WireTransport`, [`run_prepared_telemetry`] with an
/// [`InProcessTransport`]. The run is a pure function of `(cfg, prep)` plus
/// the transport's accepted set — a transport that delivers every member's
/// upload produces a result bit-identical to the in-process path, regardless
/// of arrival order, and late/missing uploads are treated exactly like
/// first-stage rejections. Telemetry observes only, as in
/// [`run_prepared_telemetry`].
///
/// # Panics
/// Where [`SimulationConfig::check_servable`] refuses `cfg`: such configs
/// must go through [`run`] / [`run_prepared_telemetry`].
pub fn run_with_transport_telemetry(
    cfg: &SimulationConfig,
    prep: &PreparedRun,
    transport: &mut dyn Transport,
    tel: &Telemetry,
) -> RunResult {
    cfg.check_servable().unwrap_or_else(|e| panic!("{e}"));
    let (dp, delta) = calibrated_dp(cfg);
    crate::round::orchestrate(cfg, prep, transport, tel, &dp, delta)
}

/// The run's privacy calibration: the worker-side DP parameters carrying the
/// resolved σ, and δ. The one place a run calls [`resolve_sigma`] (an
/// accountant search for every ε-targeted config).
pub(crate) fn calibrated_dp(cfg: &SimulationConfig) -> (DpSgdConfig, f64) {
    let (sigma, delta) = resolve_sigma(cfg);
    let mut dp = cfg.dp.clone();
    dp.noise_multiplier = sigma;
    (dp, delta)
}

/// σ and δ for the run: either derived from the ε target via the accountant,
/// or taken from the config. Public so experiment harnesses and examples can
/// report the calibration a config resolves to without running it.
pub fn resolve_sigma(cfg: &SimulationConfig) -> (f64, f64) {
    // Sign-DP privatizes via randomized response, not Gaussian noise; the
    // Gaussian accountant does not apply.
    if !cfg.protocol.gaussian() {
        return (0.0, 0.0);
    }
    match cfg.epsilon {
        Some(eps) => {
            let (acc, delta) = accountant(cfg);
            (acc.find_noise_multiplier(eps, delta), delta)
        }
        None => (cfg.dp.noise_multiplier, paper_delta(cfg.per_worker)),
    }
}

/// A Gaussian run's accountant and δ. A record joins a step only when its
/// client is in the cohort AND it lands in the batch, so the rate is the
/// product of the two fractions (bit-exactly `b_c/|D_i|` at `sampling == 1`).
fn accountant(cfg: &SimulationConfig) -> (RdpAccountant, f64) {
    let q = cfg.sampling * (cfg.dp.batch_size as f64 / cfg.per_worker as f64);
    (RdpAccountant::new(q, cfg.iterations() as u64), paper_delta(cfg.per_worker))
}

/// Deterministic per-worker RNG seed (the PR-1 determinism contract).
///
/// Public because the same derivation scheme seeds other index-addressed
/// streams: `dpbfl-harness` derives per-cell seeds for experiment grids from
/// the grid's master seed and the cell index the same way.
pub fn worker_seed(master: u64, index: usize) -> u64 {
    master.wrapping_mul(0x100000001b3).wrapping_add(index as u64).wrapping_mul(0x9e3779b97f4a7c15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UploadRetention;

    fn quick_cfg() -> SimulationConfig {
        let mut cfg =
            SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
        cfg.per_worker = 128;
        cfg.test_count = 200;
        cfg.n_honest = 4;
        cfg.epochs = 1.0;
        cfg.epsilon = None;
        cfg.dp.noise_multiplier = 0.5;
        cfg
    }

    /// The oracle for a pooled worker's data: the eager route, written out.
    /// Synthesize the whole pooled training set, deal it on the master
    /// stream, cut each data worker's shard out of it, and flip the labels of
    /// the Byzantine ones. Returns the workers' data and the master stream
    /// after the deal.
    fn eager_worker_data(cfg: &SimulationConfig) -> (Vec<Dataset>, StdRng) {
        let poisoned = if cfg.attack.needs_poisoned_workers() { cfg.n_byzantine } else { 0 };
        let n_data = cfg.n_honest + poisoned;
        let train = cfg.dataset.generate(n_data * cfg.per_worker, cfg.seed);
        let mut master = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e3779b97f4a7c15));
        let parts = if cfg.iid {
            iid_partition(&mut master, train.len(), n_data)
        } else {
            non_iid_partition(&mut master, &train.labels, cfg.dataset.num_classes, n_data)
        };
        let data = parts
            .iter()
            .enumerate()
            .map(|(w, part)| {
                let mut shard = train.subset(part);
                if w >= cfg.n_honest {
                    dpbfl_data::flip_labels(&mut shard);
                }
                shard
            })
            .collect();
        (data, master)
    }

    #[test]
    fn pooled_workers_and_the_master_stream_match_the_eager_route_bitwise() {
        use rand::RngCore;
        let bits = |d: &Dataset| d.features.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for iid in [true, false] {
            for flipped in [false, true] {
                let mut cfg = quick_cfg();
                cfg.n_honest = 5;
                cfg.per_worker = 40;
                cfg.iid = iid;
                if flipped {
                    cfg.n_byzantine = 2;
                    cfg.attack = AttackSpec::LabelFlip;
                }
                let case = format!("iid {iid}, flipped {flipped}");
                let (want, mut want_master) = eager_worker_data(&cfg);
                let prep = prepare(&cfg);
                let template = crate::round::init_model(&cfg);
                // Every data worker at once (the in-process pool), and a
                // sparse claim (a serving client).
                let every: BTreeSet<usize> = (0..want.len()).collect();
                let sparse: BTreeSet<usize> = [1, want.len() - 1].into();
                for claim in [every, sparse] {
                    let shards = pooled_shards(&cfg, &prep.parts, &claim);
                    assert_eq!(shards.keys().copied().collect::<BTreeSet<_>>(), claim, "{case}");
                    for (w, shard) in shards {
                        let worker = crate::round::data_worker(&cfg, shard, &cfg.dp, &template, w);
                        assert_eq!(bits(worker.data()), bits(&want[w]), "{case}, worker {w}");
                        assert_eq!(worker.data().labels, want[w].labels, "{case}, worker {w}");
                    }
                }
                // Auxiliary sampling resumes the master stream after the deal.
                let mut master = prep.master.clone();
                for draw in 0..8 {
                    assert_eq!(master.next_u64(), want_master.next_u64(), "{case}, draw {draw}");
                }
            }
        }
    }

    #[test]
    fn pooled_shards_match_the_eager_route_at_every_thread_count() {
        let bits = |d: &Dataset| d.features.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for dataset in [SyntheticSpec::mnist_like(), SyntheticSpec::colorectal_like()] {
            let mut cfg = quick_cfg();
            cfg.dataset = dataset;
            cfg.n_honest = 5;
            cfg.per_worker = 37;
            let (want, _) = eager_worker_data(&cfg);
            let prep = prepare(&cfg);
            let every: BTreeSet<usize> = (0..want.len()).collect();
            let sparse: BTreeSet<usize> = [0, 3].into();
            for threads in [1, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                for claim in [&every, &sparse] {
                    let shards = pool.install(|| pooled_shards(&cfg, &prep.parts, claim));
                    assert_eq!(shards.keys().collect::<Vec<_>>(), claim.iter().collect::<Vec<_>>());
                    for (w, shard) in &shards {
                        let case = format!("{}, {threads} threads, worker {w}", cfg.dataset.name);
                        assert_eq!(bits(shard), bits(&want[*w]), "{case}");
                        assert_eq!(shard.labels, want[*w].labels, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = quick_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = quick_cfg();
        let mut cfg2 = quick_cfg();
        cfg2.seed = 99;
        let a = run(&cfg);
        let b = run(&cfg2);
        assert_ne!(a.final_accuracy, b.final_accuracy);
    }

    #[test]
    fn lr_follows_tuning_rule() {
        let mut cfg = quick_cfg();
        cfg.dp.noise_multiplier = 1.58; // 2 × σ_b
        let r = run(&cfg);
        assert!((r.lr - 0.2 * 0.79 / 1.58).abs() < 1e-12);
        assert!((r.sigma - 1.58).abs() < 1e-12);
    }

    #[test]
    fn non_private_runs_have_zero_sigma() {
        let mut cfg = quick_cfg();
        cfg.protocol = WorkerProtocol::Plain;
        let r = run(&cfg);
        assert_eq!(r.sigma, 0.0);
        assert!((r.lr - cfg.base_lr).abs() < 1e-12);
    }

    #[test]
    fn iterations_match_epoch_formula() {
        let cfg = quick_cfg();
        assert_eq!(cfg.iterations(), (128.0f64 / 16.0).ceil() as usize);
        let r = run(&cfg);
        assert_eq!(r.iterations, cfg.iterations());
    }

    #[test]
    fn two_stage_identical_across_thread_counts() {
        // The acceptance property of the rayon port: per-worker RNG streams
        // are derived from the master seed, so a defended run under attack
        // is bit-identical whether the pool has 1 thread or many.
        let mut cfg = quick_cfg();
        cfg.n_byzantine = 2;
        cfg.attack = AttackSpec::LabelFlip;
        cfg.defense = DefenseKind::TwoStage;
        cfg.defense_cfg.gamma = 0.5;
        // build() + install() rather than build_global(): upstream rayon
        // errors on a second build_global() call, and another test may have
        // already initialized the global pool.
        let run_with_threads = |threads: usize| {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("local pool");
            pool.install(|| run(&cfg))
        };
        let single = run_with_threads(1);
        let multi = run_with_threads(4);
        assert_eq!(single.final_accuracy.to_bits(), multi.final_accuracy.to_bits());
        assert_eq!(single.history.len(), multi.history.len());
        for (a, b) in single.history.iter().zip(&multi.history) {
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "iteration {}", a.iteration);
        }
        assert_eq!(
            single.defense_stats.first_stage_rejected_byzantine,
            multi.defense_stats.first_stage_rejected_byzantine
        );
    }

    #[test]
    fn first_stage_ablation_survives_nan_uploads() {
        // Regression: the design-choice ablation disables the first stage, so
        // a non-finite Byzantine upload reaches the second-stage scorer —
        // which used to panic on `partial_cmp(..).expect("scores are
        // finite")`. An `InnerProduct` attack with a NaN scale manufactures
        // exactly such uploads.
        let mut cfg = quick_cfg();
        cfg.n_byzantine = 2;
        cfg.attack = AttackSpec::InnerProduct { scale: f64::NAN };
        cfg.defense = DefenseKind::TwoStage;
        cfg.defense_cfg.first_stage_enabled = false;
        let r = run(&cfg);
        assert!(r.final_accuracy.is_finite());
        assert!(!r.history.is_empty());
        // The NaN uploads score 0; honest workers (lower indices win ties)
        // keep every selection slot.
        assert_eq!(r.defense_stats.byzantine_selected, 0);
    }

    #[test]
    fn fully_byzantine_cohort_runs_to_completion() {
        // The supp_fig_extreme_byz config space pushed to its limit: zero
        // honest workers. `craft_uploads` used to panic inferring the upload
        // dimension, and the adaptive honest phase on `gen_range(0..0)`.
        let mut cfg = quick_cfg();
        cfg.n_honest = 0;
        cfg.n_byzantine = 5;
        cfg.attack = AttackSpec::Adaptive { ttbb: 0.5, inner: Box::new(AttackSpec::LabelFlip) };
        cfg.defense = DefenseKind::TwoStage;
        cfg.defense_cfg.gamma = 0.2;
        let r = run(&cfg);
        assert!(r.final_accuracy.is_finite());
        assert_eq!(r.iterations, cfg.iterations());
        // Every selection is necessarily Byzantine — the stat must say so.
        assert_eq!(r.defense_stats.byzantine_selected, r.defense_stats.total_selected);
        assert!(r.defense_stats.total_selected > 0);
    }

    #[test]
    #[should_panic(expected = "requires DP noise")]
    fn two_stage_rejects_non_private_runs() {
        let mut cfg = quick_cfg();
        cfg.protocol = WorkerProtocol::Plain;
        cfg.defense = DefenseKind::TwoStage;
        let _ = run(&cfg);
    }

    fn summary_json(r: &RunResult) -> String {
        serde_json::to_string(&r.summary()).expect("summary serializes")
    }

    fn run_with_threads(cfg: &SimulationConfig, threads: usize) -> RunResult {
        let pool =
            rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("local pool");
        pool.install(|| run(cfg))
    }

    #[test]
    fn fold_timing_is_invisible_bitwise() {
        // One pipeline, two fold timings: an attack that reads the cohort
        // is folded after crafting, any other as uploads arrive. Wrapping an
        // at-arrival attack in a cohort-reading shell that always defers to
        // it (an oscillator that never rests, a TTBB of zero) changes only
        // the timing — same uploads, same attack-stream draws — so the
        // summaries must agree byte for byte, with and without sampling.
        let never_rests =
            |inner| AttackSpec::Oscillating { period: 1, duty: 1, inner: Box::new(inner) };
        let turned = |inner| AttackSpec::Adaptive { ttbb: 0.0, inner: Box::new(inner) };
        for (at_arrival, after_craft, sampling) in [
            (AttackSpec::Gaussian, never_rests(AttackSpec::Gaussian), 1.0),
            (AttackSpec::LabelFlip, turned(AttackSpec::LabelFlip), 1.0),
            (AttackSpec::Gaussian, never_rests(AttackSpec::Gaussian), 0.6),
        ] {
            assert!(!at_arrival.reads_cohort() && after_craft.reads_cohort());
            let [a, b] = [at_arrival, after_craft].map(|attack| {
                let mut cfg = quick_cfg();
                cfg.n_byzantine = 2;
                cfg.defense = DefenseKind::TwoStage;
                cfg.sampling = sampling;
                cfg.attack = attack;
                summary_json(&run(&cfg))
            });
            assert_eq!(a, b, "fold timing moved a bit at q={sampling}");
        }
    }

    #[test]
    fn sampled_streaming_run_identical_across_thread_counts() {
        // Cohort draws happen sequentially before any parallel work and the
        // fold's shard merge is order-fixed, so a sub-sampled run is
        // bit-identical at any thread count.
        let mut cfg = quick_cfg();
        cfg.n_byzantine = 2;
        cfg.attack = AttackSpec::LabelFlip;
        cfg.defense = DefenseKind::TwoStage;
        cfg.sampling = 0.6;
        let single = run_with_threads(&cfg, 1);
        let multi = run_with_threads(&cfg, 4);
        assert_eq!(summary_json(&single), summary_json(&multi));
    }

    #[test]
    fn cohorts_are_seeded_sorted_and_thread_independent() {
        let mut cfg = quick_cfg();
        cfg.n_honest = 40;
        cfg.n_byzantine = 10;
        cfg.sampling = 0.25;
        let pool1 = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("local pool");
        let pool4 = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("local pool");
        for t in 0..5 {
            let a = pool1.install(|| round_cohort(&cfg, t));
            let b = pool4.install(|| round_cohort(&cfg, t));
            assert_eq!(a, b, "round {t}");
            assert_eq!(a.len(), 13, "⌈0.25·50⌉ members");
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
            assert!(a.iter().all(|&i| i < 50), "in range");
        }
        // Different rounds and different master seeds draw different cohorts.
        assert_ne!(round_cohort(&cfg, 0), round_cohort(&cfg, 1));
        let mut other = cfg.clone();
        other.seed = 99;
        assert_ne!(round_cohort(&cfg, 0), round_cohort(&other, 0));
        // Full participation is the identity cohort (no draw at all).
        cfg.sampling = 1.0;
        assert_eq!(round_cohort(&cfg, 3), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn on_demand_provisioning_is_deterministic_across_thread_counts() {
        let mut cfg = quick_cfg();
        cfg.n_honest = 20;
        cfg.n_byzantine = 5;
        cfg.sampling = 0.2;
        cfg.provisioning = Provisioning::OnDemand;
        cfg.attack = AttackSpec::Gaussian;
        cfg.defense = DefenseKind::TwoStage;
        let single = run_with_threads(&cfg, 1);
        let multi = run_with_threads(&cfg, 4);
        assert_eq!(summary_json(&single), summary_json(&multi));
        assert!(single.final_accuracy.is_finite());
    }

    #[test]
    fn quantized_retention_is_deterministic() {
        let mut cfg = quick_cfg();
        cfg.n_byzantine = 2;
        cfg.attack = AttackSpec::Gaussian;
        cfg.defense = DefenseKind::TwoStage;
        cfg.defense_cfg.retention = UploadRetention::Quantized;
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(summary_json(&a), summary_json(&b));
        assert!(a.final_accuracy.is_finite());
    }

    /// Runs a two-stage OptLMP cell (folded after crafting) with a memory
    /// sink attached; returns the per-round records.
    fn opt_lmp_rounds(
        edit: impl FnOnce(&mut SimulationConfig),
    ) -> Vec<dpbfl_telemetry::RoundMetrics> {
        let mut cfg = quick_cfg();
        cfg.n_byzantine = 2;
        cfg.attack = AttackSpec::OptLmp;
        cfg.defense = DefenseKind::TwoStage;
        edit(&mut cfg);
        let sink =
            std::sync::Arc::new(std::sync::Mutex::new(dpbfl_telemetry::MemorySink::default()));
        let tel = Telemetry::new(Box::new(std::sync::Arc::clone(&sink)));
        run_prepared_telemetry(&cfg, &prepare(&cfg), &tel);
        let rounds = sink.lock().expect("sink lock").rounds.clone();
        rounds
    }

    #[test]
    fn quantized_retention_is_honoured_under_cohort_reading_attacks() {
        // One pipeline, one meaning: survivors of a round folded after
        // crafting are retained as i16 codes too, never verbatim.
        let rounds = opt_lmp_rounds(|cfg| cfg.defense_cfg.retention = UploadRetention::Quantized);
        assert!(rounds.iter().any(|m| m.accepted > 0), "no survivor to retain");
        for m in &rounds {
            assert_eq!(m.retained_exact_bytes, 0, "round {}", m.round);
            assert_eq!(m.retained_quantized_bytes > 0, m.accepted > 0, "round {}", m.round);
        }
    }

    #[test]
    fn dropped_members_count_as_dropped_under_cohort_reading_attacks() {
        // Round 1 withholds every data member's upload. In a round folded
        // after crafting they are dropped in transit like anywhere else —
        // not norm-test rejections of a zero vector nobody sent.
        let fault = crate::config::FaultSpec { skip_rounds: vec![1], ..Default::default() };
        let rounds =
            opt_lmp_rounds(|cfg| cfg.serving = Some(ServingSpec { deadline_ms: None, fault }));
        for m in &rounds {
            let withheld = if m.round == 1 { 4 } else { 0 }; // the honest cohort
            assert_eq!(m.rejected_dropped, withheld, "round {}", m.round);
            assert_eq!(m.accepted + m.rejected(), m.cohort, "round {}", m.round);
        }
        // Whatever the norm test rejected in round 1 was crafted (from the
        // zero contributions the attacker saw), not withheld.
        assert!(rounds[1].rejected_norm <= 2);
    }

    #[test]
    fn streaming_none_attack_drops_its_byzantine_members() {
        // `AttackSpec::None` crafts no upload, so its Byzantine members
        // never deliver: each is a dropped slot of every two-stage round.
        let mut cfg = quick_cfg();
        cfg.n_byzantine = 2;
        cfg.attack = AttackSpec::None;
        cfg.defense = DefenseKind::TwoStage;
        let summary = run(&cfg);
        let rounds = cfg.iterations() as u64;
        assert_eq!(summary.defense_stats.first_stage_rejected_byzantine, 2 * rounds);
    }

    #[test]
    #[should_panic(expected = "sampling: sampling fraction 0 outside (0, 1]")]
    fn zero_sampling_fraction_is_rejected() {
        let mut cfg = quick_cfg();
        cfg.sampling = 0.0;
        let _ = run(&cfg);
    }

    #[test]
    #[should_panic(expected = "sampling: sampling fraction NaN outside (0, 1]")]
    fn nan_sampling_fraction_is_rejected() {
        let mut cfg = quick_cfg();
        cfg.sampling = f64::NAN;
        let _ = run(&cfg);
    }

    #[test]
    fn check_refuses_exactly_the_epsilon_targets_the_sigma_search_cannot_reach() {
        // A shard of 2 000 makes δ small enough that the highest orders'
        // ε floors are positive, so a tiny target is out of reach.
        let mut cfg = quick_cfg();
        cfg.per_worker = 2000;
        let mut refused = 0;
        for eps in [1e-9, 1e-3, 0.1, 2.0] {
            cfg.epsilon = Some(eps);
            let searched = std::panic::catch_unwind(|| resolve_sigma(&cfg)).is_ok();
            assert_eq!(cfg.check().is_ok(), searched, "ε {eps}: {:?}", cfg.check());
            refused += usize::from(!searched);
        }
        assert_eq!(refused, 2, "1e-9 and 1e-3 are out of reach, 0.1 and 2 are not");
    }

    #[test]
    fn model_checks_agree_with_the_networks_the_zoo_builds() {
        let mut rng = StdRng::seed_from_u64(0);
        let models = [ModelKind::Mlp784, ModelKind::MnistCnn, ModelKind::ColorectalCnn];
        for spec in [SyntheticSpec::mnist_like(), SyntheticSpec::colorectal_like()] {
            for model in models.into_iter().chain([ModelKind::SmallMlp { hidden: 3 }]) {
                let net = match model {
                    ModelKind::Mlp784 => zoo::mlp_784(&mut rng),
                    ModelKind::MnistCnn => zoo::mnist_cnn(&mut rng),
                    ModelKind::ColorectalCnn => zoo::colorectal_cnn(&mut rng),
                    ModelKind::SmallMlp { hidden } => {
                        zoo::mlp(&mut rng, spec.example_len(), hidden, spec.num_classes)
                    }
                };
                let fits =
                    (net.input_len(), net.output_len()) == (spec.example_len(), spec.num_classes);
                assert_eq!(model.check(&spec).is_ok(), fits, "{model:?} on {}", spec.name);
            }
        }
    }
}
