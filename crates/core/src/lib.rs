//! # dpbfl — Practical Differentially Private and Byzantine-resilient Federated Learning
//!
//! A from-scratch Rust implementation of the SIGMOD 2023 paper by Xiang,
//! Wang, Lin and Wang (arXiv:2304.09762): a federated learning protocol that
//! is simultaneously `(ε, δ)`-differentially private and resilient to
//! Byzantine majorities of up to 90 % of workers, built from a *co-design* of
//! the DP mechanism and the robust aggregation rule.
//!
//! ## The protocol in one paragraph
//!
//! Workers run a refactored DP-SGD ([`worker::DpWorker`], Algorithm 1): small
//! batches, per-example gradients blended with momentum and **normalized** to
//! unit norm (instead of clipped), Gaussian noise. Because the noise *dominates*
//! each upload, a benign upload is statistically a sample of `N(0, σ'²I_d)` —
//! so the server's [`first_stage::FirstStage`] (Algorithm 2) rejects anything
//! failing a χ²-norm test or a Kolmogorov–Smirnov test against that exact
//! distribution, confining every surviving upload to a norm-bounded payload
//! riding on noise. The [`second_stage::SecondStage`] (Algorithm 3) then
//! scores survivors by inner product against a gradient computed from ~2
//! auxiliary samples per class, accumulates suppressed-threshold scores
//! across rounds, and selects the top `⌈γn⌉` with binary weights. As a cherry
//! on top, normalization makes the optimal learning rate `∝ 1/σ`
//! ([`tuning`]), collapsing DP hyper-parameter search to one dimension.
//!
//! ## Crate layout
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`config`] | protocol hyper-parameters (`b_c`, β, σ, γ, …) |
//! | [`worker`] | Algorithm 1 (honest local step; clipped-DP baseline) |
//! | [`first_stage`] | Algorithm 2 `FirstAGG` + Theorem 2 envelope |
//! | [`second_stage`] | Algorithm 3 lines 4–14 |
//! | [`attack`] | §2.3/§4.6 attacks: Gaussian, label-flip, OptLMP, "a little", inner-product, adaptive/TTBB |
//! | [`aggregator`] | Table 1 baselines: Krum, CM, trimmed mean, RFA, mean |
//! | [`baseline`] | the \[77\]-style sign-compression DP loop (\[30\]-style is a config) |
//! | [`simulation`] | the experiment loop (Reference Accuracy = no attack + no defense) |
//! | [`tuning`] | Theorem 1 / Eq. 4 learning-rate transfer |
//!
//! This crate sits eighth in the workspace's linear 9-crate dependency
//! chain; `docs/ARCHITECTURE.md` (repo root) describes that chain, the
//! `prepare() → run_prepared_telemetry()` split, the determinism contract every
//! parallel section obeys, the two-stage defense data flow end to end,
//! the [`round::Transport`] layer ([`serving`] puts it on real
//! sockets), and the `dpbfl-telemetry` observability layer (deterministic
//! per-round metrics plus wall-clock spans, recorded through a
//! [`dpbfl_telemetry::TelemetrySink`]).
//!
//! ## Quick start
//!
//! ```no_run
//! use dpbfl::prelude::*;
//!
//! let mut cfg = SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 16 });
//! cfg.n_byzantine = 6;                       // 60% Byzantine
//! cfg.defense_cfg.gamma = 0.4;               // server believes ≥40% honest
//! cfg.attack = AttackSpec::LabelFlip;
//! cfg.defense = DefenseKind::TwoStage;
//! let result = dpbfl::simulation::run(&cfg);
//! println!("accuracy under attack: {:.3}", result.final_accuracy);
//! ```

pub mod aggregator;
pub mod aggregator_ext;
pub mod attack;
pub mod baseline;
pub mod config;
pub mod first_stage;
pub mod round;
pub mod second_stage;
pub mod serving;
pub mod simulation;
pub mod tuning;
pub mod worker;

/// One-stop imports for examples, the harness and the repository benchmark.
pub mod prelude {
    pub use crate::aggregator::AggregatorKind;
    pub use crate::attack::AttackSpec;
    pub use crate::config::{
        DefenseConfig, DpSgdConfig, FaultSpec, MomentumReset, ServingSpec, StepNormalization,
        UploadRetention,
    };
    pub use crate::first_stage::{CheckInfo, FirstStage, FirstStageVerdict, KsScratch};
    pub use crate::round::{Collected, InProcessTransport, Retained, Transport};
    pub use crate::second_stage::{ScoringRule, SecondStage, WeightScheme};
    pub use crate::serving::{
        data_member_indices, run_client, BoundServer, ClientOptions, RoundPolicy, ServeAddr,
        ServingReport,
    };
    pub use crate::simulation::{
        prepare, run, run_prepared_telemetry, run_with_transport_telemetry, DefenseKind, EvalPoint,
        ModelKind, PreparedRun, Provisioning, RunResult, RunSummary, SimulationConfig,
        WorkerProtocol,
    };
    pub use crate::worker::DpWorker;
    pub use dpbfl_data::SyntheticSpec;
    pub use dpbfl_telemetry::{
        JsonlSink, MemorySink, NullSink, RoundMetrics, Telemetry, TelemetrySink,
    };
}
