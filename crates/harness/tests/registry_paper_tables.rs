//! The registry scenarios ported from hand-coded bench binaries reproduce
//! those binaries **verbatim**.
//!
//! Before the registry covered them, `crates/bench/src/bin/` built the
//! configs of Table 1, Table 3, Figure 3, Figure 4, supp. Tables 15–17 and
//! the design-choice ablation by hand (at the bench harness's reduced
//! scale, seed 1). Those constructions are replicated here, and every
//! registry cell is asserted to resolve to a bit-identical configuration —
//! which, by the determinism contract (a run is a pure function of its
//! resolved config; guarded end to end by `grid_determinism.rs`), pins the
//! registry scenarios to the exact accuracies the deleted binaries
//! produced.

use dpbfl::baseline::flip_prob_for_epsilon;
use dpbfl::prelude::*;
use dpbfl_harness::{registry, Cell};

/// The reduced-scale config of the bench harness (`Scale::from_env`
/// without `DPBFL_FULL`), exactly as `scale.config(dataset)` built it for
/// the two families the binaries ran by default.
fn scale_config(dataset: &str) -> SimulationConfig {
    let spec = match dataset {
        "mnist" => SyntheticSpec::mnist_like(),
        "fashion" => SyntheticSpec::fashion_like(),
        other => panic!("the binaries' default scale ran mnist and fashion, not {other}"),
    };
    let mut cfg = SimulationConfig::quick(spec, ModelKind::Mlp784);
    cfg.per_worker = 500;
    cfg.n_honest = 10;
    cfg.epochs = 6.0;
    cfg.test_count = 400;
    cfg
}

fn scale_mnist() -> SimulationConfig {
    scale_config("mnist")
}

/// The binaries' Byzantine count for a percentage of the *total* cohort.
fn byz_for_pct(cfg: &SimulationConfig, byz_pct: usize) -> usize {
    (cfg.n_honest as f64 * byz_pct as f64 / (100.0 - byz_pct as f64)).round() as usize
}

/// The binaries' "two-stage at the true honest fraction" tail, applied after
/// `n_byzantine` was set.
fn defend(cfg: &mut SimulationConfig) {
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = cfg.n_honest as f64 / cfg.n_total() as f64;
}

/// Every cell of `scenario`, after checking the grid has exactly `expected`
/// of them — so a row the old binary never ran cannot ride along unpinned.
fn cells_of(scenario: &str, expected: usize) -> Vec<Cell> {
    let cells = registry::get(scenario).unwrap_or_else(|| panic!("{scenario} registered")).cells();
    assert_eq!(cells.len(), expected, "{scenario}");
    cells
}

/// The pre-registry binaries ran every config through `run_seeds(cfg, [1])`,
/// which pins the seed before running.
fn with_seed_1(mut cfg: SimulationConfig) -> SimulationConfig {
    cfg.seed = 1;
    cfg
}

/// Bit-identical configs serialize identically (`SimulationConfig` has no
/// `PartialEq`; canonical JSON equality is exactly what the content-keyed
/// sink uses for identity).
fn assert_config_eq(cell: &Cell, expected: &SimulationConfig) {
    assert_eq!(
        serde_json::to_string(&cell.config).unwrap(),
        serde_json::to_string(expected).unwrap(),
        "cell `{}` diverged from the pre-registry construction",
        cell.axes.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(" "),
    );
}

/// The \[77\]-style rows: the old binaries built the sign-DP baseline's
/// own config by hand, and the registry cell must carry exactly the values
/// that loop reads.
fn assert_sign_dp_eq(cell: &Cell, n_byzantine: usize, flip_prob: f64) {
    let c = &cell.config;
    assert_eq!(c.dataset, SyntheticSpec::mnist_like());
    assert_eq!(c.model, ModelKind::SmallMlp { hidden: 16 });
    assert_eq!((c.per_worker, c.test_count), (500, 400));
    assert_eq!((c.n_honest, c.n_byzantine), (10, n_byzantine));
    assert_eq!((c.epochs, c.dp.batch_size, c.seed), (6.0, 16, 1));
    assert_eq!(c.protocol, WorkerProtocol::SignDp { lr: 0.002, flip_prob });
}

fn cell_by_label<'a>(cells: &'a [Cell], label: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.axis("row") == Some(label))
        .unwrap_or_else(|| panic!("row `{label}` missing"))
}

/// `table1_matrix`'s old `base(byz_mult)` closure.
fn table1_base(byz_mult: f64) -> SimulationConfig {
    let mut cfg = scale_mnist();
    cfg.epsilon = Some(1.0);
    cfg.n_byzantine = (cfg.n_honest as f64 * byz_mult).round() as usize;
    cfg.attack = if cfg.n_byzantine > 0 { AttackSpec::LabelFlip } else { AttackSpec::None };
    cfg
}

#[test]
fn table1_matrix_cells_equal_the_pre_registry_configs() {
    let spec = registry::get("paper/table1_matrix").unwrap();
    let cells = spec.cells();
    assert_eq!(cells.len(), 8);

    // Reference row: DP training, zero Byzantine workers.
    assert_config_eq(cell_by_label(&cells, "reference"), &with_seed_1(table1_base(0.0)));

    // Non-private robust rows: plain uploads, zero noise, one rule each
    // (Krum's f and the trim width were derived from the 60 % cohort).
    for (label, rule) in [
        ("krum", AggregatorKind::Krum { f: 15 }),
        ("coord-median", AggregatorKind::CoordinateMedian),
        ("trimmed-mean", AggregatorKind::TrimmedMean { trim: 25 / 2 - 1 }),
        ("rfa", AggregatorKind::GeometricMedian),
    ] {
        let mut cfg = table1_base(1.5);
        cfg.protocol = WorkerProtocol::Plain;
        cfg.epsilon = None;
        cfg.dp.noise_multiplier = 0.0;
        cfg.defense = DefenseKind::Robust { rule };
        assert_config_eq(cell_by_label(&cells, label), &with_seed_1(cfg));
    }

    // [30]-style clipping DP-SGD + Krum.
    let mut dp_krum = table1_base(1.5);
    dp_krum.protocol = WorkerProtocol::ClippedDp { clip: 1.0 };
    dp_krum.defense = DefenseKind::Robust { rule: AggregatorKind::Krum { f: 15 } };
    assert_config_eq(cell_by_label(&cells, "dp-sgd+krum"), &with_seed_1(dp_krum));

    // Ours: two-stage at γ = the true honest fraction.
    let mut ours = table1_base(1.5);
    ours.defense = DefenseKind::TwoStage;
    ours.defense_cfg.gamma = ours.n_honest as f64 / ours.n_total() as f64;
    assert_config_eq(cell_by_label(&cells, "two-stage"), &with_seed_1(ours));

    // [77]-style sign-DP.
    let n_byzantine = (10.0f64 * 1.5).round() as usize;
    assert_sign_dp_eq(cell_by_label(&cells, "sign-dp"), n_byzantine, flip_prob_for_epsilon(1.0));
}

#[test]
fn table3_sign_dp_cells_equal_the_pre_registry_configs() {
    let spec = registry::get("paper/table3_sign_dp").unwrap();
    let cells = spec.cells();
    assert_eq!(cells.len(), 4);
    let base_cfg = scale_mnist();

    // The [77] rows: total budget ε split linearly across the run's
    // rounds, exactly as the old binary derived the flip probability.
    for (label, eps_total) in [("sign-dp(eps=0.21)", 0.21f64), ("sign-dp(eps=0.4)", 0.40)] {
        let rounds = (base_cfg.epochs * base_cfg.per_worker as f64 / 16.0).ceil();
        let n_byzantine = (base_cfg.n_honest as f64 / 9.0).round().max(1.0) as usize;
        let flip_prob = flip_prob_for_epsilon(eps_total / rounds);
        assert_sign_dp_eq(cell_by_label(&cells, label), n_byzantine, flip_prob);
    }

    // Ours at 40 % and 60 % Byzantine, ε = 0.125.
    for (label, byz_pct) in [("ours(byz=40%)", 40usize), ("ours(byz=60%)", 60)] {
        let mut cfg = scale_mnist();
        cfg.epsilon = Some(0.125);
        cfg.n_byzantine =
            (cfg.n_honest as f64 * byz_pct as f64 / (100.0 - byz_pct as f64)).round() as usize;
        cfg.attack = AttackSpec::Gaussian;
        cfg.defense = DefenseKind::TwoStage;
        cfg.defense_cfg.gamma = cfg.n_honest as f64 / cfg.n_total() as f64;
        assert_config_eq(cell_by_label(&cells, label), &with_seed_1(cfg));
    }
}

#[test]
fn fig3_tuning_cells_equal_the_pre_registry_configs() {
    let cells = cells_of("paper/fig3_tuning", 8);
    for eps in [2.0, 0.5] {
        for lr in [0.02, 0.08, 0.2, 0.8] {
            let mut cfg = scale_config("mnist");
            cfg.iid = true;
            cfg.epsilon = Some(eps);
            cfg.base_lr = lr;
            cfg.n_byzantine = (cfg.n_honest as f64 * 1.5).round() as usize;
            cfg.attack = AttackSpec::LabelFlip;
            defend(&mut cfg);
            let label = format!("eps={eps}/lr={lr}");
            assert_config_eq(cell_by_label(&cells, &label), &with_seed_1(cfg));
        }
    }
}

#[test]
fn fig4_convergence_cells_equal_the_pre_registry_configs() {
    let cells = cells_of("paper/fig4_convergence", 6);
    for dataset in ["mnist", "fashion"] {
        for byz_pct in [20usize, 60] {
            let mut cfg = scale_config(dataset);
            cfg.epsilon = Some(1.0);
            cfg.n_byzantine = byz_for_pct(&cfg, byz_pct);
            cfg.attack = AttackSpec::LabelFlip;
            defend(&mut cfg);
            let label = format!("{dataset}-like/byz={byz_pct}%");
            assert_config_eq(cell_by_label(&cells, &label), &with_seed_1(cfg));
        }
        // The Reference Accuracy curve the binary re-ran next to each
        // attacked curve (one cell here: the two runs were identical).
        let mut ra = scale_config(dataset);
        ra.epsilon = Some(1.0);
        let label = format!("{dataset}-like/reference");
        assert_config_eq(cell_by_label(&cells, &label), &with_seed_1(ra));
    }
}

#[test]
fn supp_dp_cost_cells_equal_the_pre_registry_configs() {
    let cells = cells_of("paper/supp_dp_cost", 16);
    for (partition, iid) in [("iid", true), ("non-iid", false)] {
        for dataset in ["mnist", "fashion"] {
            let mut plain = scale_config(dataset);
            plain.iid = iid;
            plain.protocol = WorkerProtocol::Plain;
            let label = format!("{partition}/{dataset}-like/non-dp");
            assert_config_eq(cell_by_label(&cells, &label), &with_seed_1(plain));
            for eps in [2.0, 0.5, 0.125] {
                let mut cfg = scale_config(dataset);
                cfg.iid = iid;
                cfg.epsilon = Some(eps);
                let label = format!("{partition}/{dataset}-like/eps={eps}");
                assert_config_eq(cell_by_label(&cells, &label), &with_seed_1(cfg));
            }
        }
    }
}

#[test]
fn supp_ood_aux_cells_equal_the_pre_registry_configs() {
    let cells = cells_of("paper/supp_ood_aux", 16);
    for (aname, attack) in
        [("gaussian", AttackSpec::Gaussian), ("label-flip", AttackSpec::LabelFlip)]
    {
        for byz_pct in [20usize, 40] {
            for dataset in ["mnist", "fashion"] {
                for (aux, ood) in [("ood-aux", true), ("in-dist-aux", false)] {
                    let mut cfg = scale_config(dataset);
                    cfg.epsilon = Some(2.0);
                    cfg.n_byzantine = byz_for_pct(&cfg, byz_pct);
                    cfg.attack = attack.clone();
                    defend(&mut cfg);
                    cfg.ood_auxiliary = ood;
                    let label = format!("{aname}/byz={byz_pct}%/{dataset}-like/{aux}");
                    assert_config_eq(cell_by_label(&cells, &label), &with_seed_1(cfg));
                }
            }
        }
    }
}

#[test]
fn ablation_cells_equal_the_pre_registry_configs() {
    let cells = cells_of("paper/ablation", 9);
    let base = || {
        let mut cfg = scale_config("mnist");
        cfg.epsilon = Some(1.0);
        cfg.n_byzantine = (cfg.n_honest as f64 * 1.5).round() as usize;
        cfg.attack = AttackSpec::LabelFlip;
        defend(&mut cfg);
        cfg
    };
    let mut reference = scale_config("mnist");
    reference.epsilon = Some(1.0);
    let variants: Vec<(&str, SimulationConfig)> = vec![
        ("reference", reference),
        ("full-protocol", base()),
        ("cosine-scoring", {
            let mut c = base();
            c.defense_cfg.scoring = ScoringRule::Cosine;
            c
        }),
        ("proportional-weights", {
            let mut c = base();
            c.defense_cfg.weighting = WeightScheme::Proportional;
            c
        }),
        ("second-stage-only", {
            let mut c = base();
            c.defense_cfg.first_stage_enabled = false;
            c
        }),
        ("first-stage-only", {
            let mut c = base();
            c.defense_cfg.gamma = 1.0;
            c
        }),
        ("momentum-kept", {
            let mut c = base();
            c.dp.momentum_reset = MomentumReset::Keep;
            c
        }),
        ("selected-count-step", {
            let mut c = base();
            c.defense_cfg.step_normalization = StepNormalization::SelectedCount;
            c
        }),
        ("fltrust", {
            let mut c = base();
            c.defense = DefenseKind::FlTrust;
            c
        }),
    ];
    for (label, cfg) in variants {
        assert_config_eq(cell_by_label(&cells, label), &with_seed_1(cfg));
    }
}

/// README's "Reproducing the paper" table and the registry name the same
/// `paper/*` scenarios: a renamed or new scenario must show up in both.
#[test]
fn readme_artifact_table_and_registry_name_the_same_paper_scenarios() {
    let readme = include_str!("../../../README.md");
    let section = readme
        .split("## Reproducing the paper")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("README has a `Reproducing the paper` section");
    let in_table: Vec<&str> = section
        .lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|line| line.split('`'))
        .filter(|token| token.starts_with("paper/"))
        .collect();
    assert!(!in_table.is_empty(), "artifact table not found");
    for name in &in_table {
        assert!(registry::get(name).is_some(), "README names unregistered scenario `{name}`");
    }
    for name in registry::names().filter(|n| n.starts_with("paper/")) {
        assert!(in_table.contains(&name), "`{name}` is missing from README's artifact table");
    }
}
