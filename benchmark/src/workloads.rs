//! The four workloads. Names are stable: later issues refer to them.

use dpbfl::prelude::*;

/// How a workload's uploads reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// `InProcessTransport` under rayon.
    InProcess,
    /// `BoundServer` on TCP loopback, fed by `run_client` threads.
    TcpLoopback,
}

/// One benchmark workload.
pub struct Workload {
    /// Stable name (the `--workload` argument).
    pub name: &'static str,
    /// Why the workload exists: which layers it stresses.
    pub why: &'static str,
    /// How uploads travel.
    pub delivery: Delivery,
    /// The run configuration for a seed. The program sees only this.
    pub config: fn(u64) -> SimulationConfig,
    /// Lowest final accuracy a correct run may reach, and the largest share
    /// of second-stage selections that may pick a Byzantine upload. Both are
    /// calibrated over some forty seeds with margin (see README): loose
    /// enough for any seed, tight enough that a broken defense fails them.
    /// 0.0 means no floor: there the accuracy of a correct run reaches down
    /// to chance.
    pub min_accuracy: f64,
    pub max_byzantine_selected_share: f64,
    /// Peak RSS in MiB a run must stay below (a workload's documented memory
    /// bound); infinite when it has none.
    pub max_peak_rss_mib: f64,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "headline_inproc",
        why: "the paper/quickstart defended cell: client-compute-bound, streaming fold",
        delivery: Delivery::InProcess,
        config: headline_inproc,
        min_accuracy: 0.50,
        max_byzantine_selected_share: 0.10,
        max_peak_rss_mib: f64::INFINITY,
    },
    Workload {
        name: "omniscient_inproc",
        why: "90 % server-crafted OptLMP: defense-bound, forces the materialized path",
        delivery: Delivery::InProcess,
        config: omniscient_inproc,
        min_accuracy: 0.0,
        max_byzantine_selected_share: 0.02,
        max_peak_rss_mib: f64::INFINITY,
    },
    Workload {
        name: "scale_ondemand",
        why: "10^6 registered clients, cohort 512, on-demand shards: the bounded-memory claim",
        delivery: Delivery::InProcess,
        config: scale_ondemand,
        min_accuracy: 0.0,
        max_byzantine_selected_share: 0.02,
        // The bound `scale/million_clients` documents.
        max_peak_rss_mib: 512.0,
    },
    Workload {
        name: "ingest_tcp",
        why: "cheapest legal local step over TCP loopback: the server ingest pipeline",
        delivery: Delivery::TcpLoopback,
        config: ingest_tcp,
        min_accuracy: 0.50,
        max_byzantine_selected_share: 0.0,
        max_peak_rss_mib: f64::INFINITY,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

fn mnist_mlp(seed: u64) -> SimulationConfig {
    let mut cfg = SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::Mlp784);
    cfg.seed = seed;
    cfg
}

/// The `paper/quickstart` defended cell: Mlp784 (d = 25 450), 10 honest +
/// 15 label-flip, ε = 2, two-stage, 125 rounds.
pub fn headline_inproc(seed: u64) -> SimulationConfig {
    let mut cfg = mnist_mlp(seed);
    cfg.per_worker = 500;
    cfg.n_honest = 10;
    cfg.n_byzantine = 15;
    cfg.epochs = 4.0;
    cfg.epsilon = Some(2.0);
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.4;
    cfg
}

/// The paper's 90 % regime: 10 honest + 90 server-crafted OptLMP uploads per
/// round, γ = 0.1, 192 rounds.
pub fn omniscient_inproc(seed: u64) -> SimulationConfig {
    let mut cfg = mnist_mlp(seed);
    cfg.per_worker = 256;
    cfg.n_honest = 10;
    cfg.n_byzantine = 90;
    cfg.epochs = 12.0;
    cfg.attack = AttackSpec::OptLmp;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.1;
    cfg
}

/// `scale/million_clients` stretched to 12 rounds (`epochs = 3`).
pub fn scale_ondemand(seed: u64) -> SimulationConfig {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 16 });
    cfg.seed = seed;
    cfg.per_worker = 64;
    cfg.test_count = 256;
    cfg.n_honest = 900_000;
    cfg.n_byzantine = 100_000;
    cfg.epochs = 3.0;
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.5;
    cfg.attack = AttackSpec::Gaussian;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.5;
    cfg.defense_cfg.retention = UploadRetention::Quantized;
    cfg.sampling = 0.000_512;
    cfg.provisioning = Provisioning::OnDemand;
    cfg
}

/// 32 honest thin clients (`b_c = 1`), no attack, 320 rounds.
pub fn ingest_tcp(seed: u64) -> SimulationConfig {
    let mut cfg = mnist_mlp(seed);
    cfg.per_worker = 320;
    cfg.n_honest = 32;
    cfg.n_byzantine = 0;
    cfg.epochs = 1.0;
    cfg.dp.batch_size = 1;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.5;
    cfg
}

/// `cfg` with its round count divided by `factor` (warm-up and tests).
pub fn scaled_down(cfg: &SimulationConfig, factor: f64) -> SimulationConfig {
    let mut small = cfg.clone();
    small.epochs = cfg.epochs / factor;
    small
}

/// The worker-side DP config with σ resolved, as `run_prepared` builds it.
pub fn resolved_dp(cfg: &SimulationConfig) -> DpSgdConfig {
    let mut dp = cfg.dp.clone();
    dp.noise_multiplier = dpbfl::simulation::resolve_sigma(cfg).0;
    dp
}

/// Uploads one run folds: the sum of its rounds' cohort sizes (crafted
/// Byzantine uploads included).
pub fn uploads_per_run(cfg: &SimulationConfig) -> u64 {
    if cfg.sampling >= 1.0 {
        return (cfg.iterations() * cfg.n_total()) as u64;
    }
    (0..cfg.iterations()).map(|t| dpbfl::simulation::round_cohort(cfg, t).len() as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl_harness::registry;

    fn json(cfg: &SimulationConfig) -> String {
        serde_json::to_string(cfg).expect("config serializes")
    }

    #[test]
    fn headline_is_the_registry_quickstart_defended_cell() {
        let spec = registry::get("paper/quickstart").expect("built-in scenario");
        assert_eq!(json(&headline_inproc(1)), json(&spec.cells()[0].config));
    }

    #[test]
    fn scale_is_the_registry_million_clients_cell_at_three_epochs() {
        let spec = registry::get("scale/million_clients").expect("built-in scenario");
        let mut cell = spec.cells()[0].config.clone();
        cell.epochs = 3.0;
        assert_eq!(json(&scale_ondemand(1)), json(&cell));
    }

    #[test]
    fn round_and_upload_counts() {
        let rounds: Vec<usize> = ALL.iter().map(|w| (w.config)(1).iterations()).collect();
        assert_eq!(rounds, [125, 192, 12, 320]);
        let uploads: Vec<u64> = ALL.iter().map(|w| uploads_per_run(&(w.config)(1))).collect();
        assert_eq!(uploads, [125 * 25, 192 * 100, 12 * 512, 320 * 32]);
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &ALL {
            assert_eq!(by_name(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }
}
