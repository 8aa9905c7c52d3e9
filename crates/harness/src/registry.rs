//! Named built-in scenarios reproducing the paper's headline tables.
//!
//! `dpbfl-exp run paper/attack_showdown` works out of the box because the
//! grids behind the paper's §6 evidence live here as data, not as hand-coded
//! example binaries. The `examples/` directory is a set of thin wrappers
//! over this registry, so the experiment configs exist exactly once.

use crate::spec::{GridSpec, IncludeRow, ScenarioSpec, SeedPolicy};
use dpbfl::baseline::flip_prob_for_epsilon;
use dpbfl::prelude::*;

/// Every built-in scenario, in display order: its name, the paper artifact
/// it reproduces (`None` for grids that exist for the repo's own sake, like
/// the CI smoke grid), and its constructor. The one table behind [`names`],
/// [`get`], [`paper_artifact`] and [`resolve`], and the only place a
/// scenario's name is written.
type Entry = (&'static str, Option<&'static str>, fn() -> ScenarioSpec);
const SCENARIOS: &[Entry] = &[
    ("paper/quickstart", Some("the headline result (§6 flagship; CI-pinned)"), quickstart),
    ("paper/reference", Some("Reference Accuracy (§6.1)"), reference),
    (
        "paper/attack_showdown",
        Some("Tables 1–2 shape (all attacks × three servers)"),
        attack_showdown,
    ),
    ("paper/gamma_sweep", Some("Table 6 shape (γ sensitivity)"), gamma_sweep),
    ("paper/epsilon_sweep", Some("Tables 2–3 shape (privacy-budget sweep)"), epsilon_sweep),
    ("paper/dataset_sweep", Some("Figure 1's dataset columns"), dataset_sweep),
    (
        "paper/protocol_sweep",
        Some("protocol-vs-protocol matrix (related-work shape)"),
        protocol_sweep,
    ),
    ("paper/non_iid", Some("supp. Figure 5 (Algorithm-4 heterogeneity)"), non_iid),
    ("paper/extreme_byz", Some("supp. extreme-Byzantine figure (80–90 %)"), extreme_byz),
    ("paper/accounting", Some("§5 privacy accounting at paper scale"), accounting),
    ("paper/table1_matrix", Some("Table 1 (privacy / >50 %-resilience matrix)"), table1_matrix),
    ("paper/table2_ours", Some("Table 2, bottom rows (ours on Fashion)"), table2_ours),
    ("paper/table2_dp_krum", Some("Table 2, top rows ([30]-style baseline)"), table2_dp_krum),
    ("paper/table3_sign_dp", Some("Table 3 (vs [77] sign-compression DP)"), table3_sign_dp),
    ("paper/table4_side_effect", Some("Table 4 (defense on, zero attackers)"), table4_side_effect),
    ("paper/table5_ttbb", Some("Table 5 (adaptive turn-time sweep)"), table5_ttbb),
    ("paper/table6_gamma", Some("Table 6 (γ belief × ε)"), table6_gamma),
    ("paper/fig3_tuning", Some("Figure 3 (η_b × ε: one tuning transfers)"), fig3_tuning),
    ("paper/fig4_convergence", Some("Figure 4 (convergence trajectories)"), fig4_convergence),
    ("paper/supp_dp_cost", Some("supp. Tables 15/16 (DP's own utility cost)"), supp_dp_cost),
    (
        "paper/supp_ood_aux",
        Some("supp. Table 17 (out-of-distribution auxiliary data)"),
        supp_ood_aux,
    ),
    ("paper/ablation", Some("§4.5/§4.7 design-choice ablation"), ablation),
    ("scale/million_clients", None, scale_million_clients),
    ("scale/smoke", None, scale_smoke),
    ("scenarios/adversary_zoo", None, adversary_zoo),
    ("serving/loopback_smoke", None, serving_loopback_smoke),
    ("serving/churn_sweep", None, serving_churn_sweep),
    ("serving/deadline_sweep", None, serving_deadline_sweep),
    ("smoke/tiny", None, smoke_tiny),
];

/// The names [`get`] resolves, in display order.
pub fn names() -> impl Iterator<Item = &'static str> {
    SCENARIOS.iter().map(|&(name, _, _)| name)
}

fn entry(name: &str) -> Option<&'static Entry> {
    SCENARIOS.iter().find(|(n, _, _)| *n == name)
}

/// Looks up a built-in scenario by name.
pub fn get(name: &str) -> Option<ScenarioSpec> {
    entry(name).map(|&(name, _, build)| ScenarioSpec { name: name.into(), ..build() })
}

/// The paper artifact a registered scenario reproduces, if any.
pub fn paper_artifact(name: &str) -> Option<&'static str> {
    entry(name).and_then(|&(_, artifact, _)| artifact)
}

/// Resolves a scenario argument the way every binary does: a registered
/// name first, then a spec file path. An argument that is neither fails
/// with the full catalog grouped by prefix, plus a nearest-match guess when
/// it looks like a typo of a registered name.
pub fn resolve(arg: &str) -> Result<ScenarioSpec, String> {
    if let Some(spec) = get(arg) {
        return Ok(spec);
    }
    let path = std::path::Path::new(arg);
    if path.exists() {
        return ScenarioSpec::load(path);
    }
    let mut msg =
        format!("`{arg}` is neither a built-in scenario nor a spec file.\n\nbuilt-in scenarios:");
    for (prefix, members) in grouped_names() {
        msg.push_str(&format!("\n  {prefix}/"));
        for name in members {
            msg.push_str(&format!("\n    {name}"));
        }
    }
    if let Some(close) = suggest(arg) {
        msg.push_str(&format!("\n\ndid you mean `{close}`?"));
    }
    Err(msg)
}

/// [`names`] grouped by the prefix before the first `/`, in display order.
fn grouped_names() -> Vec<(&'static str, Vec<&'static str>)> {
    let mut groups: Vec<(&'static str, Vec<&'static str>)> = Vec::new();
    for name in names() {
        let prefix = name.split('/').next().unwrap_or(name);
        match groups.iter_mut().find(|(p, _)| *p == prefix) {
            Some((_, members)) => members.push(name),
            None => groups.push((prefix, vec![name])),
        }
    }
    groups
}

/// The registered name closest to `arg` by edit distance, if it is close
/// enough to plausibly be a typo (distance ≤ max(2, |arg|/3)).
fn suggest(arg: &str) -> Option<&'static str> {
    let budget = (arg.chars().count() / 3).max(2);
    names()
        .map(|name| (name, edit_distance(arg, name)))
        .filter(|&(_, d)| d <= budget)
        .min_by_key(|&(_, d)| d)
        .map(|(name, _)| name)
}

/// Levenshtein distance over chars (two-row dynamic program).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// A scenario running every cell at seed 1. Its name is left empty: [`get`]
/// stamps the one written in [`SCENARIOS`].
fn scenario(title: &str, notes: &str, base: SimulationConfig, grid: GridSpec) -> ScenarioSpec {
    ScenarioSpec {
        name: String::new(),
        title: title.into(),
        notes: notes.into(),
        seed: SeedPolicy::Fixed { seed: 1 },
        base,
        grid,
    }
}

/// The reduced-scale stand-in for the paper's MNIST setup every `paper/*`
/// scenario starts from: 25 workers (15 Byzantine = 60 %), |D_i| = 500,
/// and `SimulationConfig::quick`'s 10 honest workers, 4 epochs and ε = 2
/// target — the configuration the repo's headline numbers (quickstart:
/// 1.000 defended vs 0.010 undefended) are pinned to.
fn paper_base() -> SimulationConfig {
    let mut cfg = SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::Mlp784);
    cfg.per_worker = 500;
    cfg.n_byzantine = 15;
    cfg
}

/// The headline cell: 60 % Byzantine label-flip at ε = 2 against the
/// two-stage defense believing γ = 0.4.
fn headline_base() -> SimulationConfig {
    let mut cfg = SimulationConfig {
        attack: AttackSpec::LabelFlip,
        defense: DefenseKind::TwoStage,
        ..paper_base()
    };
    cfg.defense_cfg.gamma = 0.4;
    cfg
}

/// The flagship result: 60 % Byzantine label-flip at ε = 2, two-stage
/// defense vs plain averaging.
fn quickstart() -> ScenarioSpec {
    scenario(
        "60 % Byzantine label-flip headline (defended vs undefended)",
        "The repo's pinned headline: two-stage reaches 1.000 while plain averaging \
         collapses to 0.010 under the same attack (CI greps these numbers).",
        headline_base(),
        GridSpec {
            defenses: Some(vec![DefenseKind::TwoStage, DefenseKind::NoDefense]),
            ..GridSpec::default()
        },
    )
}

/// Reference Accuracy (paper §6.1): DP training with zero Byzantine workers
/// and no defense, across privacy levels.
fn reference() -> ScenarioSpec {
    scenario(
        "Reference Accuracy: DP only, no Byzantine workers",
        "The ceiling every defended run is measured against (§6.1), swept over ε.",
        SimulationConfig { n_byzantine: 0, ..paper_base() },
        GridSpec { epsilons: Some(vec![Some(2.0), Some(1.0), Some(0.5)]), ..GridSpec::default() },
    )
}

/// Every implemented attack against three servers (Tables 1–2 shape):
/// undefended mean, Krum, and the two-stage protocol, at 60 % Byzantine.
fn attack_showdown() -> ScenarioSpec {
    let mut base = SimulationConfig { epsilon: Some(1.0), ..paper_base() };
    base.defense_cfg.gamma = 0.4;
    scenario(
        "Attack showdown: 6 attacks × {mean, Krum, two-stage} at 60 % Byzantine",
        "Expected shape: the two-stage column tracks the Reference Accuracy under \
         every attack; undefended and Krum collapse under most of them.",
        base,
        GridSpec {
            attacks: Some(vec![
                AttackSpec::Gaussian,
                AttackSpec::LabelFlip,
                AttackSpec::OptLmp,
                AttackSpec::ALittle,
                AttackSpec::InnerProduct { scale: 5.0 },
                AttackSpec::Adaptive { ttbb: 0.4, inner: Box::new(AttackSpec::LabelFlip) },
            ]),
            defenses: Some(vec![
                DefenseKind::NoDefense,
                DefenseKind::Robust { rule: AggregatorKind::Krum { f: 15 } },
                DefenseKind::TwoStage,
            ]),
            ..GridSpec::default()
        },
    )
}

/// Sensitivity to the server's honest-fraction belief γ (Table 6 shape).
fn gamma_sweep() -> ScenarioSpec {
    scenario(
        "γ-sweep: two-stage under 60 % label-flip across server beliefs",
        "γ below the true honest fraction (0.4) selects fewer honest uploads but \
         stays safe; γ above it must admit Byzantine uploads.",
        SimulationConfig {
            per_worker: 400,
            epochs: 3.0,
            attack: AttackSpec::LabelFlip,
            defense: DefenseKind::TwoStage,
            ..paper_base()
        },
        GridSpec { gammas: Some(vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]), ..GridSpec::default() },
    )
}

/// Accuracy as the privacy budget tightens (Tables 2–3 shape).
fn epsilon_sweep() -> ScenarioSpec {
    scenario(
        "ε-sweep: two-stage under 60 % label-flip across privacy budgets",
        "Tighter ε means more noise and a lower ceiling; the defense must keep \
         tracking the Reference Accuracy at each level.",
        headline_base(),
        GridSpec {
            epsilons: Some(vec![Some(2.0), Some(1.0), Some(0.5), Some(0.25)]),
            ..GridSpec::default()
        },
    )
}

/// The two-stage defense across dataset families (Fig. 1's dataset columns,
/// at one privacy level): the defense must track the per-dataset Reference
/// Accuracy on every 784-input family.
fn dataset_sweep() -> ScenarioSpec {
    scenario(
        "Dataset sweep: two-stage under 60 % label-flip across data families",
        "The same defended configuration on the MNIST-, Fashion- and USPS-like \
         synthetic families (all 784-input, so one MLP serves every cell); \
         absolute ceilings differ per family, resilience must not.",
        headline_base(),
        GridSpec {
            datasets: Some(vec!["mnist-like".into(), "fashion-like".into(), "usps-like".into()]),
            ..GridSpec::default()
        },
    )
}

/// Protocol-vs-protocol comparison (the matrix shape DP-BREM-style systems
/// are evaluated on): the same Krum server under 60 % label-flip, fed by
/// three different worker upload protocols.
fn protocol_sweep() -> ScenarioSpec {
    scenario(
        "Protocol sweep: Krum under 60 % label-flip across upload protocols",
        "Holding the server rule fixed isolates what the worker protocol itself \
         contributes: non-private uploads, clipped DP-SGD uploads and the paper's \
         noise-dominated uploads give the same aggregator very different inputs.",
        SimulationConfig {
            epsilon: Some(1.0),
            attack: AttackSpec::LabelFlip,
            defense: DefenseKind::Robust { rule: AggregatorKind::Krum { f: 15 } },
            ..paper_base()
        },
        GridSpec {
            protocols: Some(vec![
                WorkerProtocol::Plain,
                WorkerProtocol::ClippedDp { clip: 1.0 },
                WorkerProtocol::PaperDp,
            ]),
            ..GridSpec::default()
        },
    )
}

/// i.i.d. vs Algorithm-4 non-i.i.d. data distribution (supp. Fig. 5 shape).
fn non_iid() -> ScenarioSpec {
    scenario(
        "Partition sweep: two-stage under 60 % label-flip, iid vs non-iid",
        "The paper reports the defense is insensitive to Algorithm-4 heterogeneity.",
        SimulationConfig { per_worker: 400, epochs: 3.0, ..headline_base() },
        GridSpec { iid: Some(vec![true, false]), ..GridSpec::default() },
    )
}

/// Byzantine majorities pushed to the extreme (supp. extreme-Byzantine
/// figure shape): 80 % and 90 % Byzantine cohorts.
fn extreme_byz() -> ScenarioSpec {
    let mut base = SimulationConfig {
        per_worker: 300,
        epochs: 2.0,
        n_honest: 2,
        n_byzantine: 0,
        attack: AttackSpec::LabelFlip,
        defense: DefenseKind::TwoStage,
        ..paper_base()
    };
    base.defense_cfg.gamma = 0.1;
    scenario(
        "Extreme majorities: 2 honest workers vs 8 / 18 Byzantine",
        "γ = 0.1 keeps the selection inside the honest minority even at 90 % \
         Byzantine — the paper's strongest resilience claim.",
        base,
        GridSpec { n_byzantine: Some(vec![8, 18]), ..GridSpec::default() },
    )
}

/// The paper-scale MNIST accounting configuration (|D_i| = 3 000, b_c = 16,
/// 8 epochs → T = 1 500): the source of truth for the privacy-accounting
/// example. Heavy to actually train; its grid is meant for accountant math.
fn accounting() -> ScenarioSpec {
    scenario(
        "Paper-scale privacy accounting anchor (σ_b ≈ 0.79 at ε = 2)",
        "Full-scale MNIST setup (20 workers × 3 000 examples, 8 epochs). Used by \
         the privacy_accounting example for its q/T/δ constants; running the \
         grid trains at paper scale — expect it to be slow.",
        SimulationConfig {
            per_worker: 3000,
            n_honest: 20,
            n_byzantine: 0,
            epochs: 8.0,
            ..paper_base()
        },
        GridSpec {
            epsilons: Some(vec![Some(2.0), Some(1.0), Some(0.5), Some(0.25), Some(0.125)]),
            ..GridSpec::default()
        },
    )
}

/// The reduced-scale MNIST base of every scenario ported from a hand-coded
/// binary (Tables 1 and 3, Figures 3 and 4, the supplementary tables, the
/// ablation): [`paper_base`] without attackers, at 6 epochs and 400 test
/// examples — the configuration those binaries ran by default, kept
/// bit-identical so the registry reproduces their accuracies verbatim
/// (`tests/registry_paper_tables.rs`).
fn ported_base() -> SimulationConfig {
    SimulationConfig { test_count: 400, n_byzantine: 0, epochs: 6.0, ..paper_base() }
}

/// A ported table: its `rows` over `base`, run at the paper's literal
/// seeds — `{1}` at this reduced scale (the paper averages {1, 2, 3}).
fn ported(title: &str, notes: &str, base: SimulationConfig, rows: Vec<IncludeRow>) -> ScenarioSpec {
    ScenarioSpec {
        seed: SeedPolicy::List { seeds: vec![1] },
        ..scenario(title, notes, base, GridSpec { include: Some(rows), ..GridSpec::default() })
    }
}

/// The overrides of a "two-stage at the true honest fraction" row over
/// [`ported_base`]: `n_byz` attackers against its 10 honest workers, the
/// server believing γ = 10 / (10 + `n_byz`). γ is coupled to the Byzantine
/// count, which is why these grids are rows and not cartesian axes.
fn defended(n_byz: usize) -> IncludeRow {
    IncludeRow {
        n_byzantine: Some(n_byz),
        defense: Some(DefenseKind::TwoStage),
        gamma: Some(10.0 / (10 + n_byz) as f64),
        ..IncludeRow::default()
    }
}

/// The ported base at 60 % Byzantine label-flip (15 of the 25-worker cohort).
fn ported_majority(epsilon: f64) -> SimulationConfig {
    SimulationConfig {
        epsilon: Some(epsilon),
        n_byzantine: 15,
        attack: AttackSpec::LabelFlip,
        ..ported_base()
    }
}

/// Table 1: the privacy / >50 %-resilience matrix — every prior method next
/// to the two-stage protocol under 60 % label-flip, plus the Reference
/// Accuracy row the resilience threshold is measured against. The rows vary
/// protocol, defense and privacy level *jointly*, so they are `include`
/// rows, not a cartesian product.
fn table1_matrix() -> ScenarioSpec {
    // Non-private robust-aggregation rows: plain uploads (σ pinned to 0),
    // an off-the-shelf rule at the server.
    let robust = |label: &str, rule: AggregatorKind| IncludeRow {
        label: label.into(),
        protocol: Some(WorkerProtocol::Plain),
        fixed_sigma: Some(0.0),
        defense: Some(DefenseKind::Robust { rule }),
        ..IncludeRow::default()
    };
    let rows = vec![
        IncludeRow {
            label: "reference".into(),
            n_byzantine: Some(0),
            attack: Some(AttackSpec::None),
            ..IncludeRow::default()
        },
        robust("krum", AggregatorKind::Krum { f: 15 }),
        robust("coord-median", AggregatorKind::CoordinateMedian),
        robust("trimmed-mean", AggregatorKind::TrimmedMean { trim: 11 }),
        robust("rfa", AggregatorKind::GeometricMedian),
        IncludeRow {
            label: "dp-sgd+krum".into(),
            protocol: Some(WorkerProtocol::ClippedDp { clip: 1.0 }),
            defense: Some(DefenseKind::Robust { rule: AggregatorKind::Krum { f: 15 } }),
            ..IncludeRow::default()
        },
        IncludeRow {
            label: "sign-dp".into(),
            protocol: Some(WorkerProtocol::SignDp {
                lr: 0.002,
                flip_prob: flip_prob_for_epsilon(1.0),
            }),
            model: Some(ModelKind::SmallMlp { hidden: 16 }),
            attack: Some(AttackSpec::None), // sign-inversion is structural
            ..IncludeRow::default()
        },
        IncludeRow {
            label: "two-stage".into(),
            defense: Some(DefenseKind::TwoStage),
            gamma: Some(10.0 / 25.0),
            ..IncludeRow::default()
        },
    ];
    ported(
        "Table 1: privacy and >50 %-resilience, measured per method",
        "Every prior row lacks privacy, resilience beyond a Byzantine majority, \
         or both; only the two-stage protocol keeps both. `reference` is the \
         zero-attacker DP ceiling; a method counts as resilient when it retains \
         ≥80 % of it under 60 % label-flip. Paper seeds at full scale: {1, 2, 3}.",
        ported_majority(1.0),
        rows,
    )
}

/// Table 3: comparison with [77] (sign-compression DP) on MNIST — the
/// baseline at 10 % Byzantine and its published ε budgets vs ours at 40–60 %
/// Byzantine and the much stronger ε = 0.125.
fn table3_sign_dp() -> ScenarioSpec {
    let base =
        SimulationConfig { epsilon: Some(0.125), attack: AttackSpec::Gaussian, ..ported_base() };
    // [77]'s ε is the whole run's budget; naive linear composition leaves
    // ε/T per round, which drives the randomized-response flip probability
    // toward 1/2 — the structural reason its accuracy collapses.
    let rounds = base.iterations() as f64;
    let sign = |eps_total: f64| IncludeRow {
        label: format!("sign-dp(eps={eps_total})"),
        protocol: Some(WorkerProtocol::SignDp {
            lr: 0.002,
            flip_prob: flip_prob_for_epsilon(eps_total / rounds),
        }),
        model: Some(ModelKind::SmallMlp { hidden: 16 }),
        n_byzantine: Some(1),           // 10 % of the cohort
        attack: Some(AttackSpec::None), // sign-inversion is structural
        ..IncludeRow::default()
    };
    let ours = |byz_pct: usize, n_byz: usize| IncludeRow {
        label: format!("ours(byz={byz_pct}%)"),
        ..defended(n_byz)
    };
    ported(
        "Table 3: vs sign-compression DP under the Gaussian attack",
        "Paper's numbers: [77] reaches .20/.43 with only 10 % Byzantine workers at \
         ε ∈ {0.21, 0.40}; ours reaches ~.86 with 40–60 % Byzantine at ε = 0.125. \
         Paper seeds at full scale: {1, 2, 3}.",
        base,
        vec![sign(0.21), sign(0.40), ours(40, 7), ours(60, 15)],
    )
}

/// The reduced-scale Fashion base the Table-2 grids share (the paper runs
/// Table 2 on Fashion-MNIST).
fn fashion_base() -> SimulationConfig {
    SimulationConfig { dataset: SyntheticSpec::fashion_like(), n_byzantine: 0, ..paper_base() }
}

/// Table 2, "ours" half: the two-stage protocol on Fashion under the
/// "A little" and inner-product attacks at 40 % / 60 % Byzantine, ε = 2.
fn table2_ours() -> ScenarioSpec {
    let mut base = SimulationConfig { defense: DefenseKind::TwoStage, ..fashion_base() };
    // γ = 0.4 is exact at 60 % Byzantine and conservative at 40 % — one
    // belief serves both rows (the bin used the per-row exact fraction; a
    // conservative belief is the paper's own recommended operating mode).
    base.defense_cfg.gamma = 0.4;
    scenario(
        "Table 2 (ours): two-stage on Fashion, ε = 2",
        "Paper Table 2's bottom rows: the two-stage defense under the \"A little\" \
         and inner-product attacks at 40 % and 60 % Byzantine with the *stronger* \
         ε = 2 guarantee.",
        base,
        GridSpec {
            attacks: Some(vec![AttackSpec::ALittle, AttackSpec::InnerProduct { scale: 5.0 }]),
            n_byzantine: Some(vec![7, 15]),
            ..GridSpec::default()
        },
    )
}

/// Table 2, baseline half: [30]-style clipping DP-SGD + Krum on Fashion at
/// its viable Byzantine range (ε ≈ 3.46, the guarantee the paper compares
/// against).
fn table2_dp_krum() -> ScenarioSpec {
    scenario(
        "Table 2 ([30]-style): clipping DP-SGD + Krum on Fashion, ε ≈ 3.46",
        "Paper Table 2's top rows: the prior DP+robust-aggregation design at 20 % \
         and 40 % Byzantine (its viable range) under the same two attacks.",
        SimulationConfig {
            epsilon: Some(3.46),
            protocol: WorkerProtocol::ClippedDp { clip: 1.0 },
            // f pinned to the worst-case row (7 Byzantine of 17): Krum stays
            // valid (n − f − 2 ≥ 1) and conservative on the 3-Byzantine row.
            defense: DefenseKind::Robust { rule: AggregatorKind::Krum { f: 7 } },
            ..fashion_base()
        },
        GridSpec {
            attacks: Some(vec![AttackSpec::ALittle, AttackSpec::InnerProduct { scale: 5.0 }]),
            n_byzantine: Some(vec![3, 7]),
            ..GridSpec::default()
        },
    )
}

/// Table 4: the side-effect test — every worker is honest, but the server
/// still runs the full two-stage defense believing only 40 % are.
fn table4_side_effect() -> ScenarioSpec {
    let mut base = SimulationConfig {
        n_honest: 25, // the 15 "declared Byzantine" workers are honest too
        n_byzantine: 0,
        defense: DefenseKind::TwoStage,
        ..paper_base()
    };
    base.defense_cfg.gamma = 0.4; // the server's (wrong) conservative belief
    scenario(
        "Table 4: defense on, zero actual attackers",
        "The medicine must not harm a healthy patient: with all 25 workers honest \
         and γ = 0.4, accuracy must track the Reference Accuracy (paper/reference) \
         at each ε.",
        base,
        GridSpec { epsilons: Some(vec![Some(2.0), Some(0.5)]), ..GridSpec::default() },
    )
}

/// Table 5: the adaptive attack's turn-time sweep — 60 % Byzantine workers
/// behave honestly until `TTBB·T`, then mount label-flip.
fn table5_ttbb() -> ScenarioSpec {
    let flip = Box::new(AttackSpec::LabelFlip);
    scenario(
        "Table 5: adaptive label-flip across turn times (TTBB)",
        "Resilience must be independent of when the 60 % Byzantine cohort turns \
         malicious; TTBB = 0 is the plain label-flip attack.",
        // The headline cell with the attack left to the grid.
        SimulationConfig { attack: AttackSpec::None, ..headline_base() },
        GridSpec {
            attacks: Some(vec![
                AttackSpec::LabelFlip,
                AttackSpec::Adaptive { ttbb: 0.2, inner: flip.clone() },
                AttackSpec::Adaptive { ttbb: 0.4, inner: flip.clone() },
                AttackSpec::Adaptive { ttbb: 0.6, inner: flip.clone() },
                AttackSpec::Adaptive { ttbb: 0.8, inner: flip },
            ]),
            ..GridSpec::default()
        },
    )
}

/// Table 6: the γ-belief ablation at a 50 % honest truth, crossed with the
/// privacy level.
fn table6_gamma() -> ScenarioSpec {
    scenario(
        "Table 6: server belief γ vs a 50 % honest truth, across ε",
        "Conservative beliefs (γ ≤ 50 %) must keep robustness; radical beliefs \
         (γ > 50 %) admit Byzantine uploads and pay in accuracy, most visibly at \
         tight ε.",
        SimulationConfig {
            n_byzantine: 10, // truth: exactly 50 % honest
            ..gamma_sweep().base
        },
        GridSpec {
            gammas: Some(vec![0.2, 0.35, 0.5, 0.65, 0.8]),
            epsilons: Some(vec![Some(2.0), Some(0.5)]),
            ..GridSpec::default()
        },
    )
}

/// Figure 3 (and supp. Figures 20/23/26/29/32): the hyper-parameter tuning
/// claim — with η = η_b·σ_b/σ the optimal *base* learning rate is the same
/// at every privacy level, so tuning once at ε = 2 transfers everywhere.
fn fig3_tuning() -> ScenarioSpec {
    let mut base = SimulationConfig { defense: DefenseKind::TwoStage, ..ported_majority(2.0) };
    base.defense_cfg.gamma = 10.0 / 25.0;
    let mut rows = Vec::new();
    for eps in [2.0, 0.5] {
        for lr in [0.02, 0.08, 0.2, 0.8] {
            rows.push(IncludeRow {
                label: format!("eps={eps}/lr={lr}"),
                epsilon: Some(eps),
                base_lr: Some(lr),
                ..IncludeRow::default()
            });
        }
    }
    ported(
        "Figure 3: accuracy vs base learning rate η_b across ε, 60 % label-flip",
        "Paper shape: the argmax base lr is the SAME across privacy levels (0.2 for \
         MNIST), validating η = η_b·σ_b/σ — a one-dimensional hyper-parameter \
         search. The paper sweeps η_b ∈ {0.02, 0.04, 0.08, 0.2, 0.4, 0.8, 1.0} at \
         ε ∈ {2, 0.5, 0.125}, also under Gaussian and OptLMP and on non-iid data; \
         export, edit and re-run for those. Paper seeds at full scale: {1, 2, 3}.",
        base,
        rows,
    )
}

/// Figure 4: convergence curves (test accuracy per epoch, the `history` of
/// every result record) under label-flip at 20 % and 60 % Byzantine, ε = 1,
/// next to the Reference Accuracy curve of the same dataset.
fn fig4_convergence() -> ScenarioSpec {
    let mut rows = Vec::new();
    for dataset in ["mnist-like", "fashion-like"] {
        for (byz_pct, n_byz) in [(20, 3), (60, 15)] {
            rows.push(IncludeRow {
                label: format!("{dataset}/byz={byz_pct}%"),
                dataset: Some(dataset.into()),
                attack: Some(AttackSpec::LabelFlip),
                ..defended(n_byz)
            });
        }
        rows.push(IncludeRow {
            label: format!("{dataset}/reference"),
            dataset: Some(dataset.into()),
            ..IncludeRow::default()
        });
    }
    ported(
        "Figure 4: convergence under 20 % / 60 % label-flip vs the reference, ε = 1",
        "The figure is the trajectory: each record's `history` in results.jsonl \
         holds one (epoch, accuracy) point per epoch. Paper shape: training \
         converges within the first few epochs and the attacked curve hugs the \
         Reference Accuracy curve at both 20 % and 60 % Byzantine. The paper also \
         plots USPS and Colorectal; paper seeds at full scale: {1, 2, 3}.",
        SimulationConfig { epsilon: Some(1.0), ..ported_base() },
        rows,
    )
}

/// Supp. Tables 15/16: the side-effect of DP itself — plain federated
/// training vs DP training across ε, i.i.d. (Table 15) and non-i.i.d.
/// (Table 16), with no Byzantine workers and no defense.
fn supp_dp_cost() -> ScenarioSpec {
    let mut rows = Vec::new();
    for (partition, iid) in [("iid", true), ("non-iid", false)] {
        for dataset in ["mnist-like", "fashion-like"] {
            let row = |privacy: String| IncludeRow {
                label: format!("{partition}/{dataset}/{privacy}"),
                iid: Some(iid),
                dataset: Some(dataset.into()),
                ..IncludeRow::default()
            };
            rows.push(IncludeRow { protocol: Some(WorkerProtocol::Plain), ..row("non-dp".into()) });
            for eps in [2.0, 0.5, 0.125] {
                rows.push(IncludeRow { epsilon: Some(eps), ..row(format!("eps={eps}")) });
            }
        }
    }
    ported(
        "Supp. Tables 15/16: DP's own utility cost, iid and non-iid",
        "Paper shape: monotone utility loss as ε shrinks; the i.i.d. and \
         non-i.i.d. columns are nearly identical. The paper's full ε grid is \
         {2, 1, 0.5, 0.25, 0.125} on four datasets; paper seeds at full scale: \
         {1, 2, 3}.",
        ported_base(),
        rows,
    )
}

/// Supp. Table 17: the server's auxiliary data drawn from a *different data
/// space* (KMNIST in the paper, the independent-seed `kmnist-like` family
/// here) next to in-distribution auxiliary data, under the Gaussian and
/// label-flip attacks at 20 % / 40 % Byzantine, ε = 2.
fn supp_ood_aux() -> ScenarioSpec {
    let mut rows = Vec::new();
    for attack in [AttackSpec::Gaussian, AttackSpec::LabelFlip] {
        for (byz_pct, n_byz) in [(20, 3), (40, 7)] {
            for dataset in ["mnist-like", "fashion-like"] {
                for (aux, ood) in [("ood-aux", true), ("in-dist-aux", false)] {
                    rows.push(IncludeRow {
                        label: format!("{}/byz={byz_pct}%/{dataset}/{aux}", attack.name()),
                        attack: Some(attack.clone()),
                        dataset: Some(dataset.into()),
                        ood_auxiliary: Some(ood),
                        ..defended(n_byz)
                    });
                }
            }
        }
    }
    ported(
        "Supp. Table 17: out-of-distribution vs in-distribution auxiliary data",
        "Paper shape: with out-of-distribution auxiliary data the second-stage \
         gradient misdirects and the defense collapses (≈ chance under Gaussian, \
         ≤ chance under label-flip), while in-distribution auxiliary data \
         preserves full utility — motivating the same-data-space assumption. \
         Paper seeds at full scale: {1, 2, 3}.",
        ported_base(),
        rows,
    )
}

/// The design-choice ablation (paper §4.5 "Novelties" and §4.7): each of the
/// protocol's deliberate choices flipped in isolation at 60 % label-flip,
/// plus the FLTrust prior-work comparator and the Reference Accuracy row.
fn ablation() -> ScenarioSpec {
    let mut base = SimulationConfig { defense: DefenseKind::TwoStage, ..ported_majority(1.0) };
    base.defense_cfg.gamma = 10.0 / 25.0;
    let row = |label: &str| IncludeRow { label: label.into(), ..IncludeRow::default() };
    let defense_cfg = |flip: fn(&mut DefenseConfig)| {
        let mut cfg = base.defense_cfg.clone();
        flip(&mut cfg);
        Some(cfg)
    };
    let rows = vec![
        IncludeRow {
            n_byzantine: Some(0),
            attack: Some(AttackSpec::None),
            defense: Some(DefenseKind::NoDefense),
            // An undefended run never reads γ; the default keeps the cell
            // bit-identical to every other reference run of this base.
            gamma: Some(DefenseConfig::default().gamma),
            ..row("reference")
        },
        row("full-protocol"),
        IncludeRow {
            defense_cfg: defense_cfg(|c| c.scoring = ScoringRule::Cosine),
            ..row("cosine-scoring")
        },
        IncludeRow {
            defense_cfg: defense_cfg(|c| c.weighting = WeightScheme::Proportional),
            ..row("proportional-weights")
        },
        IncludeRow {
            defense_cfg: defense_cfg(|c| c.first_stage_enabled = false),
            ..row("second-stage-only")
        },
        // γ = 1 selects every upload: only the first stage filters.
        IncludeRow { gamma: Some(1.0), ..row("first-stage-only") },
        IncludeRow {
            dp: Some(DpSgdConfig { momentum_reset: MomentumReset::Keep, ..base.dp.clone() }),
            ..row("momentum-kept")
        },
        IncludeRow {
            defense_cfg: defense_cfg(|c| {
                c.step_normalization = StepNormalization::SelectedCount;
            }),
            ..row("selected-count-step")
        },
        IncludeRow { defense: Some(DefenseKind::FlTrust), ..row("fltrust") },
    ];
    ported(
        "Design-choice ablation: each §4.5/§4.7 choice flipped, 60 % label-flip, ε = 1",
        "What each choice buys: inner-product scoring carries Eq. 7's bound, cosine \
         does not; real-valued weights plus DP noise bias the update; without the \
         first stage one selected arbitrary upload can destroy the model; line 11's \
         momentum reset is what the paper runs; Algorithm 1 line 14 divides by n, \
         not |selected|; FLTrust is cosine + real weights with no DP-awareness. \
         Expected shape: the full protocol tracks `reference`; disabling the first \
         stage admits unbounded payloads; FLTrust loses accuracy under DP noise; \
         the remaining flips cost little at 60 % Byzantine but remove the \
         guarantees the paper proves. Paper seeds at full scale: {1, 2, 3}.",
        base,
        rows,
    )
}

/// The small non-private base of the scale, serving, zoo and smoke grids:
/// a `hidden`-unit MLP on MNIST-like data with no ε target and the noise
/// multiplier pinned at σ = 0.5.
fn small_base(hidden: usize) -> SimulationConfig {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden });
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.5;
    cfg
}

/// The million-client streaming round: 10⁶ registered clients, a sampled
/// cohort of 512, on-demand data provisioning and quantized retention, so
/// peak memory is bounded by the cohort — never by the client population.
fn scale_million_clients() -> ScenarioSpec {
    let mut base = SimulationConfig {
        per_worker: 64,
        test_count: 256,
        n_honest: 900_000,
        n_byzantine: 100_000,
        epochs: 0.25, // one round at b_c = 16: T = 0.25 · 64 / 16 = 1
        attack: AttackSpec::Gaussian,
        defense: DefenseKind::TwoStage,
        sampling: 0.000_512, // cohort of ⌈q·n⌉ = 512 clients per round
        provisioning: Provisioning::OnDemand,
        ..small_base(16)
    };
    base.defense_cfg.gamma = 0.5;
    base.defense_cfg.retention = UploadRetention::Quantized;
    scenario(
        "Streaming scale: one round over 10⁶ registered clients",
        "A production-shaped round: the server samples 512 of 1 000 000 clients \
         (10 % Byzantine, Gaussian), synthesizes each sampled client's shard on \
         demand, and folds uploads through the two-stage defense one at a time \
         with quantized survivor retention. Documented bound: completes on a \
         1-core host under 512 MiB peak RSS (CI gates the shrunken scale/smoke \
         variant; see .github/workflows/ci.yml).",
        base,
        GridSpec::default(),
    )
}

/// The CI-sized streaming scenario: [`scale_million_clients`] shrunk to 10⁵
/// registered clients on a smaller model with exact retention, swept over
/// two sampling fractions, run in CI under a hard max-RSS ceiling (the
/// memory-regression gate).
fn scale_smoke() -> ScenarioSpec {
    let mut base = SimulationConfig {
        model: ModelKind::SmallMlp { hidden: 8 },
        test_count: 128,
        n_honest: 90_000,
        n_byzantine: 10_000,
        sampling: 0.001,
        ..scale_million_clients().base
    };
    base.defense_cfg.retention = UploadRetention::Exact;
    scenario(
        "Streaming scale smoke: 10⁵ clients under a CI memory ceiling",
        "The shrunken scale/million_clients: 10⁵ registered clients, cohorts of \
         100 and 200 (q ∈ {0.001, 0.002}), exact retention. CI runs this under \
         `/usr/bin/time -v` and fails if peak RSS crosses the gate's ceiling.",
        base,
        GridSpec { samplings: Some(vec![0.001, 0.002]), ..GridSpec::default() },
    )
}

/// The 6-worker base config every `serving/*` scenario shares: small enough
/// for CI loopback runs, adversarial enough (2 Byzantine label-flip under
/// the two-stage defense) that a lost upload visibly changes the summary.
fn serving_base() -> SimulationConfig {
    SimulationConfig {
        per_worker: 128,
        test_count: 200,
        n_honest: 4,
        n_byzantine: 2,
        epochs: 1.0,
        attack: AttackSpec::LabelFlip,
        defense: DefenseKind::TwoStage,
        ..small_base(8)
    }
}

/// The config the served loopback run is pinned to: the same cell CI runs
/// once over `dpbfl-server` + TCP loopback clients and once in-process,
/// diffing the two `RunSummary` JSON blobs byte for byte.
fn serving_loopback_smoke() -> ScenarioSpec {
    scenario(
        "Served round loop: TCP loopback vs in-process, byte-identical",
        "One cell, 6 workers (2 Byzantine label-flip), two-stage defense. Running \
         it through `dpbfl-server` with loopback `dpbfl-client`s must produce a \
         RunSummary byte-identical to the in-process transport — the serving \
         determinism contract CI's serving-smoke job enforces.",
        serving_base(),
        GridSpec::default(),
    )
}

/// Dropout-rate sweep under connection churn: every cell drops one client's
/// connection at round 1 (wire runs reconnect and replay; in-process runs
/// are unaffected by design) while sweeping the flaky-upload percentage.
fn serving_churn_sweep() -> ScenarioSpec {
    let serving = ServingSpec {
        deadline_ms: Some(1_500),
        fault: FaultSpec { drop_at_round: Some(1), seed: 7, ..FaultSpec::default() },
    };
    scenario(
        "Fault-injection sweep: dropout rate × mid-run reconnect",
        "Sweeps the flaky-upload percentage {0, 10, 25} with a connection drop \
         injected at round 1. `drop_at_round` is wire-only: the replacement \
         connection replays closed rounds and re-answers the open one, so every \
         cell served over loopback must stay byte-identical to its in-process \
         reference — the CI churn leg's contract. The flaky plan is a pure \
         function of (fault seed, worker, round), so both transports withhold \
         the identical upload set.",
        SimulationConfig { serving: Some(serving), ..serving_base() },
        GridSpec { flaky_pcts: Some(vec![0.0, 10.0, 25.0]), ..GridSpec::default() },
    )
}

/// Round-deadline policy sweep, including the drain-only zero deadline.
fn serving_deadline_sweep() -> ScenarioSpec {
    let serving = ServingSpec { deadline_ms: None, fault: FaultSpec::default() };
    scenario(
        "Round-deadline policy sweep, 0 ms (drain-only) to 2 s",
        "Sweeps the per-round collection deadline {0, 250, 2000} ms. The 0 ms \
         cell pins the defined drain-only semantics: the server collects only \
         already-queued uploads and never blocks, clients withhold their sends, \
         and the in-process model withholds every upload to match — all-dropped, \
         deterministic, and still byte-identical across transports.",
        SimulationConfig { serving: Some(serving), ..serving_base() },
        GridSpec { deadlines_ms: Some(vec![0, 250, 2_000]), ..GridSpec::default() },
    )
}

/// The stateful-adversary stress surface: every zoo v2 attack (sleeper,
/// oscillating, collusion, sybil flood, acceptance-rate search) × {two-stage,
/// undefended} at 60 % Byzantine on a small 8-round config. The grid every
/// later stateful-defense PR is measured against; its bench summary lands as
/// `BENCH_adversary_zoo.json` robust-accuracy rows.
fn adversary_zoo() -> ScenarioSpec {
    let base = SimulationConfig {
        per_worker: 128, // 8 rounds at batch 16, epochs 1 — room to turn/oscillate
        test_count: 200,
        n_honest: 4,
        n_byzantine: 6, // the paper's 60 % Byzantine majority
        epochs: 1.0,
        ..small_base(8)
    };
    let payload = || Box::new(AttackSpec::InnerProduct { scale: 5.0 });
    let grid = GridSpec {
        attacks: Some(vec![
            AttackSpec::Sleeper { turn_round: 4, inner: payload() },
            AttackSpec::Oscillating { period: 2, duty: 1, inner: payload() },
            AttackSpec::Collusion { alpha: 0.8 },
            AttackSpec::SybilFlood { scale: 0.95 },
            AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept: 0.9, step: 0.25 },
        ]),
        defenses: Some(vec![DefenseKind::TwoStage, DefenseKind::NoDefense]),
        ..GridSpec::default()
    };
    ScenarioSpec {
        seed: SeedPolicy::Fixed { seed: 11 },
        ..scenario(
            "Adversary zoo v2: stateful multi-round attacks × {two-stage, undefended}",
            "Sleeper turns at round 4 of 8; the oscillator attacks every other round; \
             collusion/sybil shares are calibrated to sit inside the first-stage norm \
             band; the adaptive search retunes its scale against the observed stage-1 \
             acceptance rate each round. Deterministic at any thread count.",
            base,
            grid,
        )
    }
}

/// A 2×2 grid small enough for CI and the determinism tests: two attacks ×
/// {two-stage, undefended} on a tiny MLP (seconds, not minutes).
fn smoke_tiny() -> ScenarioSpec {
    let base = SimulationConfig {
        per_worker: 96,
        test_count: 128,
        n_honest: 3,
        n_byzantine: 2,
        epochs: 1.0,
        ..small_base(8)
    };
    ScenarioSpec {
        seed: SeedPolicy::Fixed { seed: 7 },
        ..scenario(
            "CI smoke grid: 2 attacks × 2 defenses on a tiny MLP",
            "Exercises the whole harness (expansion, shared preparation, sink, resume, \
             reports) in well under 30 s.",
            base,
            GridSpec {
                attacks: Some(vec![AttackSpec::Gaussian, AttackSpec::LabelFlip]),
                defenses: Some(vec![DefenseKind::TwoStage, DefenseKind::NoDefense]),
                ..GridSpec::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_resolves_and_validates() {
        for name in names() {
            let spec = get(name).expect("registered name resolves");
            assert_eq!(spec.name, name);
            let problems = spec.validate();
            assert!(problems.is_empty(), "{name}: {problems:?}");
            assert!(spec.n_cells() >= 1, "{name}");
        }
        assert!(get("paper/nope").is_none());
    }

    #[test]
    fn adversary_zoo_sweeps_every_stateful_attack() {
        let spec = get("scenarios/adversary_zoo").unwrap();
        let cells = spec.cells();
        // 5 zoo attacks × {two-stage, undefended}.
        assert_eq!(cells.len(), 10);
        let attacks: Vec<String> =
            cells.iter().step_by(2).map(|c| c.config.attack.name()).collect();
        assert_eq!(
            attacks,
            [
                "sleeper(4,inner-product)",
                "oscillating(2,1,inner-product)",
                "collusion(0.8)",
                "sybil-flood(0.95)",
                "adaptive-search(1,0.9,0.25)",
            ]
        );
        for c in &cells {
            assert_eq!(c.config.n_byzantine, 6, "60 % Byzantine majority");
            // The sleeper must have enough rounds to actually turn.
            assert_eq!(c.config.iterations(), 8);
            // Every zoo cell is expressible from grid JSON: the spec's serde
            // round trip preserves the attack variant exactly.
            let json = serde_json::to_string(&c.config.attack).unwrap();
            let back: AttackSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, c.config.attack, "{json}");
        }
        assert_eq!(cells[0].config.defense, DefenseKind::TwoStage);
        assert_eq!(cells[1].config.defense, DefenseKind::NoDefense);
    }

    #[test]
    fn quickstart_matches_the_pinned_headline_config() {
        let spec = get("paper/quickstart").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        let defended = &cells[0].config;
        assert_eq!(defended.seed, 1);
        assert_eq!(defended.n_byzantine, 15);
        assert_eq!(defended.defense, DefenseKind::TwoStage);
        assert_eq!(defended.attack, AttackSpec::LabelFlip);
        assert!((defended.defense_cfg.gamma - 0.4).abs() < 1e-12);
        assert_eq!(cells[1].config.defense, DefenseKind::NoDefense);
    }

    #[test]
    fn smoke_grid_is_two_by_two() {
        let spec = get("smoke/tiny").unwrap();
        assert_eq!(spec.n_cells(), 4);
    }

    #[test]
    fn serving_smoke_is_one_cell_matching_the_core_parity_tests() {
        let spec = get("serving/loopback_smoke").unwrap();
        assert_eq!(spec.n_cells(), 1);
        let cfg = &spec.cells()[0].config;
        assert_eq!(cfg.seed, 1);
        assert_eq!((cfg.n_honest, cfg.n_byzantine), (4, 2));
        assert_eq!(cfg.attack, AttackSpec::LabelFlip);
        assert_eq!(cfg.defense, DefenseKind::TwoStage);
        assert_eq!(cfg.epsilon, None);
    }

    #[test]
    fn grouped_names_partition_the_registry_in_order() {
        let groups = grouped_names();
        let flat: Vec<&str> = groups.iter().flat_map(|(_, ns)| ns.iter().copied()).collect();
        assert!(flat.into_iter().eq(names()), "grouping must preserve display order, lose nothing");
        let prefixes: Vec<&str> = groups.iter().map(|(p, _)| *p).collect();
        assert_eq!(prefixes, ["paper", "scale", "scenarios", "serving", "smoke"]);
        assert!(groups.iter().all(|(p, ns)| ns.iter().all(|n| n.starts_with(&format!("{p}/")))));
    }

    #[test]
    fn suggest_catches_typos_but_not_noise() {
        assert_eq!(suggest("paper/quickstart"), Some("paper/quickstart"));
        assert_eq!(suggest("paper/quickstrat"), Some("paper/quickstart"));
        assert_eq!(suggest("paper/gamma_swep"), Some("paper/gamma_sweep"));
        assert_eq!(suggest("serving/loopback_smok"), Some("serving/loopback_smoke"));
        assert_eq!(suggest("smoke/tinny"), Some("smoke/tiny"));
        assert_eq!(suggest("definitely-not-a-scenario"), None);
        assert_eq!(suggest(""), None);
    }

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn scale_scenarios_sample_cohorts_and_provision_on_demand() {
        let big = get("scale/million_clients").unwrap();
        assert_eq!(big.n_cells(), 1);
        let cell = &big.cells()[0];
        let cfg = &cell.config;
        assert_eq!(cfg.n_total(), 1_000_000);
        assert_eq!(cfg.provisioning, Provisioning::OnDemand);
        assert_eq!(cfg.defense_cfg.retention, UploadRetention::Quantized);
        // One round, cohort of exactly 512.
        assert_eq!((cfg.sampling * cfg.n_total() as f64).ceil() as usize, 512);
        assert_eq!(dpbfl::simulation::round_cohort(cfg, 0).len(), 512);

        let smoke = get("scale/smoke").unwrap();
        assert_eq!(smoke.n_cells(), 2);
        let cells = smoke.cells();
        assert_eq!(cells[0].axis("sampling"), Some("0.001"));
        assert_eq!(dpbfl::simulation::round_cohort(&cells[0].config, 0).len(), 100);
        assert_eq!(dpbfl::simulation::round_cohort(&cells[1].config, 0).len(), 200);
    }

    #[test]
    fn table1_matrix_rows_cover_every_method() {
        let spec = get("paper/table1_matrix").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 8, "reference + 4 robust + [30] + [77] + ours");
        let labels: Vec<&str> = cells.iter().map(|c| c.axis("row").unwrap()).collect();
        assert_eq!(
            labels,
            [
                "reference",
                "krum",
                "coord-median",
                "trimmed-mean",
                "rfa",
                "dp-sgd+krum",
                "sign-dp",
                "two-stage"
            ]
        );
        // Every cell runs the paper's verbatim seed 1 and carries its label.
        assert!(cells.iter().all(|c| c.config.seed == 1));
        assert!(cells.iter().all(|c| c.axis("seed") == Some("1")));
        // The reference row is the zero-attacker ceiling.
        assert_eq!(cells[0].config.n_byzantine, 0);
        assert_eq!(cells[0].config.attack, AttackSpec::None);
        // The sign-DP row resolves to the baseline substrate.
        assert!(matches!(cells[6].config.protocol, WorkerProtocol::SignDp { .. }));
    }

    #[test]
    fn table3_sign_dp_rows_pit_the_substrates() {
        let spec = get("paper/table3_sign_dp").unwrap();
        let cells = spec.cells();
        assert_eq!(cells.len(), 4);
        let labels: Vec<&str> = cells.iter().map(|c| c.axis("row").unwrap()).collect();
        assert_eq!(
            labels,
            ["sign-dp(eps=0.21)", "sign-dp(eps=0.4)", "ours(byz=40%)", "ours(byz=60%)"]
        );
        // The two sign rows differ only in flip probability — and the
        // tighter budget must flip closer to 1/2.
        let flip = |cell: &crate::spec::Cell| match cell.config.protocol {
            WorkerProtocol::SignDp { flip_prob, .. } => flip_prob,
            _ => panic!("sign row must use the sign-DP protocol"),
        };
        assert!(flip(&cells[0]) > flip(&cells[1]));
        assert!(flip(&cells[0]) < 0.5 && flip(&cells[0]) > 0.49);
        // Ours rows: 40 % and 60 % Byzantine at γ = honest fraction.
        assert_eq!(cells[2].config.n_byzantine, 7);
        assert_eq!(cells[3].config.n_byzantine, 15);
        assert!((cells[2].config.defense_cfg.gamma - 10.0 / 17.0).abs() < 1e-15);
    }
}
