//! The config-mutation guard: a cell that validates cannot panic.
//!
//! Every numeric and enum field of [`SimulationConfig`] is set, one field at
//! a time, to edge values on the one-round cell of `smoke/tiny` (LabelFlip
//! against the two stages, grid cleared). Each edited cell must either be
//! refused by [`ScenarioSpec::validate`] with a message that names the
//! field, or run to completion without a panic. A panic in a rayon worker
//! reaches the calling thread, so `catch_unwind` there sees every one.
//!
//! Size-like fields take only {0, 1, 2, limit ± 1}: a huge worker count,
//! shard, width, dimension or epoch count would allocate or loop in
//! proportion. Rates take {0, −1, 1e-9, 1, just above 1, NaN, ∞}. The
//! ignored test widens both sets and repeats them on three more base cells;
//! run it in release:
//!
//! ```text
//! cargo test --release -q -p dpbfl-harness --test validate_mutations -- --ignored
//! ```

use dpbfl::prelude::*;
use dpbfl_harness::{registry, run_scenario_in_memory, GridSpec, ScenarioSpec};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One edit of the base cell: its label, the text a refusal must contain
/// (the field it names), and the edit.
struct Mutation {
    label: String,
    names: &'static str,
    edit: Box<dyn Fn(&mut SimulationConfig)>,
}

/// Sets `field` to each of `values`, one mutation per value.
fn each<T: Copy + Debug + 'static>(
    field: &'static str,
    values: &[T],
    set: fn(&mut SimulationConfig, T),
) -> Vec<Mutation> {
    // A nested parameter (`protocol ClippedDp clip`) is named by its field.
    let name = field.split(' ').next().unwrap_or(field);
    values
        .iter()
        .map(|&v| Mutation {
            label: format!("{field} = {v:?}"),
            names: name,
            edit: Box::new(move |c| set(c, v)),
        })
        .collect()
}

/// A hand-written edit of several fields (the regression cases).
fn case(label: &str, names: &'static str, edit: fn(&mut SimulationConfig)) -> Mutation {
    Mutation { label: label.into(), names, edit: Box::new(edit) }
}

/// `{0, 1, 2, limit ± 1}` and the limit itself, without repeats.
fn sizes(limits: &[usize], wide: bool) -> Vec<usize> {
    let mut out: Vec<usize> = vec![0, 1, 2];
    if wide {
        out.push(3);
    }
    for &l in limits {
        out.extend([l.saturating_sub(1), l, l + 1]);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The rate edges, and in the wide set a few more.
fn rates(wide: bool) -> Vec<f64> {
    let mut out = vec![0.0, -1.0, 1e-9, 1.0, 1.0 + f64::EPSILON, f64::NAN, f64::INFINITY];
    if wide {
        out.extend([-0.0, 0.5, 2.0, 1e-300, f64::MIN_POSITIVE, 1e9, f64::NEG_INFINITY]);
    }
    out
}

/// The one-round cell of `smoke/tiny`: LabelFlip against the two stages.
fn tiny_two_stage() -> SimulationConfig {
    let mut cfg = single_cell().base;
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    cfg.epochs = cfg.dp.batch_size as f64 / cfg.per_worker as f64;
    assert_eq!(cfg.iterations(), 1);
    cfg
}

/// The same cell undefended under a Gaussian attack, with an ε target.
fn tiny_undefended() -> SimulationConfig {
    let mut cfg = tiny_two_stage();
    cfg.attack = AttackSpec::Gaussian;
    cfg.defense = DefenseKind::NoDefense;
    cfg.epsilon = Some(2.0);
    cfg
}

/// The undefended cell whose Byzantine workers send nothing.
fn tiny_silent() -> SimulationConfig {
    let mut cfg = tiny_undefended();
    cfg.attack = AttackSpec::None;
    cfg
}

/// The same cell on the sign-DP substrate, its Byzantine workers inverting
/// the honest vote.
fn tiny_sign_dp() -> SimulationConfig {
    let mut cfg = tiny_undefended();
    cfg.attack = AttackSpec::InnerProduct { scale: 1.0 };
    cfg.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: 0.25 };
    cfg
}

/// Every field's edits. `wide` widens the value sets.
fn mutations(wide: bool) -> Vec<Mutation> {
    let r = rates(wide);
    let r32: Vec<f32> = r.iter().map(|&v| v as f32).collect();
    let pcts: Vec<f64> = r.iter().map(|&v| 100.0 * v).collect();
    let small = sizes(&[], wide);
    let mut all = vec![];
    // The dataset: every dimension, the class count, the prototype grid,
    // and each family (the model follows a SmallMlp's shape).
    all.extend(each("dataset.channels", &small, |c, v| c.dataset.channels = v));
    all.extend(each("dataset.height", &small, |c, v| c.dataset.height = v));
    all.extend(each("dataset.width", &small, |c, v| c.dataset.width = v));
    all.extend(each("dataset.num_classes", &sizes(&[10], wide), |c, v| c.dataset.num_classes = v));
    all.extend(each("dataset.proto_grid", &small, |c, v| c.dataset.proto_grid = v));
    all.extend(each("dataset.signal_mix", &r32, |c, v| c.dataset.signal_mix = v));
    all.extend(each("dataset.class_sep", &r32, |c, v| c.dataset.class_sep = v));
    all.extend(each("dataset.proto_salt", &[0, u64::MAX], |c, v| c.dataset.proto_salt = v));
    all.extend(each("dataset.invert", &[true], |c, v| c.dataset.invert = v));
    for &family in SyntheticSpec::family_names() {
        all.extend(each("dataset", &[family], |c, v| {
            c.dataset = SyntheticSpec::by_name(v).unwrap()
        }));
    }
    // The model.
    let mut models = vec![ModelKind::Mlp784, ModelKind::MnistCnn, ModelKind::ColorectalCnn];
    models.extend(small.iter().map(|&hidden| ModelKind::SmallMlp { hidden }));
    all.extend(each("model", &models, |c, v| c.model = v));
    // Counts and sizes: the batch size is the shard's limit and back.
    all.extend(each("per_worker", &sizes(&[16], wide), |c, v| c.per_worker = v));
    all.extend(each("test_count", &small, |c, v| c.test_count = v));
    all.extend(each("n_honest", &small, |c, v| c.n_honest = v));
    all.extend(each("n_byzantine", &small, |c, v| c.n_byzantine = v));
    all.extend(each("dp.batch_size", &sizes(&[96], wide), |c, v| c.dp.batch_size = v));
    all.extend(each("defense_cfg.aux_per_class", &small, |c, v| c.defense_cfg.aux_per_class = v));
    all.extend(each("eval_every", &small, |c, v| c.eval_every = v));
    // Epochs are size-like: never a huge or infinite value here.
    all.extend(each("epochs", &[0.0, -1.0, 1e-9, 1.0, f64::NAN], |c, v| c.epochs = v));
    all.extend(each("iid", &[false], |c, v| c.iid = v));
    all.extend(each("seed", &[0, u64::MAX], |c, v| c.seed = v));
    // Rates.
    all.extend(each("base_lr", &r, |c, v| c.base_lr = v));
    all.extend(each("base_sigma", &r, |c, v| c.base_sigma = v));
    all.extend(each("epsilon", &r, |c, v| c.epsilon = Some(v)));
    all.extend(each("epsilon", &[None::<f64>], |c, v| c.epsilon = v));
    all.extend(each("sampling", &r, |c, v| c.sampling = v));
    all.extend(each("dp.momentum", &r32, |c, v| c.dp.momentum = v));
    all.extend(each("dp.noise_multiplier", &r, |c, v| c.dp.noise_multiplier = v));
    all.extend(each("defense_cfg.gamma", &r, |c, v| c.defense_cfg.gamma = v));
    all.extend(each("defense_cfg.ks_significance", &r, |c, v| c.defense_cfg.ks_significance = v));
    all.extend(each("defense_cfg.norm_test_stds", &r, |c, v| c.defense_cfg.norm_test_stds = v));
    // The other enums and switches.
    let keep = MomentumReset::Keep;
    all.extend(each("dp.momentum_reset", &[keep], |c, v| c.dp.momentum_reset = v));
    let selected = StepNormalization::SelectedCount;
    all.extend(each("defense_cfg.step_normalization", &[selected], |c, v| {
        c.defense_cfg.step_normalization = v
    }));
    all.extend(each("defense_cfg.scoring", &[ScoringRule::Cosine], |c, v| {
        c.defense_cfg.scoring = v
    }));
    all.extend(each("defense_cfg.weighting", &[WeightScheme::Proportional], |c, v| {
        c.defense_cfg.weighting = v
    }));
    all.extend(each("defense_cfg.retention", &[UploadRetention::Quantized], |c, v| {
        c.defense_cfg.retention = v
    }));
    let first = |c: &mut SimulationConfig, v| c.defense_cfg.first_stage_enabled = v;
    all.extend(each("defense_cfg.first_stage_enabled", &[false], first));
    all.extend(each("ood_auxiliary", &[true], |c, v| c.ood_auxiliary = v));
    all.extend(each("provisioning", &[Provisioning::OnDemand], |c, v| c.provisioning = v));
    // The protocol and its parameters.
    all.extend(each("protocol", &[WorkerProtocol::PaperDp, WorkerProtocol::Plain], |c, v| {
        c.protocol = v
    }));
    all.extend(each("protocol ClippedDp clip", &r, |c, clip| {
        c.protocol = WorkerProtocol::ClippedDp { clip }
    }));
    all.extend(each("protocol SignDp lr", &r, |c, lr| {
        c.protocol = WorkerProtocol::SignDp { lr, flip_prob: 0.25 }
    }));
    all.extend(each("protocol SignDp flip_prob", &r, |c, flip_prob| {
        c.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob }
    }));
    // The defense, each robust rule at the cohort's limits.
    let rules: Vec<AggregatorKind> =
        [AggregatorKind::Mean, AggregatorKind::CoordinateMedian, AggregatorKind::GeometricMedian]
            .into_iter()
            .chain(sizes(&[2], wide).into_iter().flat_map(|f| {
                [
                    AggregatorKind::Krum { f },
                    AggregatorKind::Bulyan { f },
                    AggregatorKind::TrimmedMean { trim: f },
                ]
            }))
            .collect();
    let defenses: Vec<DefenseKind> = [DefenseKind::NoDefense, DefenseKind::FlTrust]
        .into_iter()
        .chain(rules.into_iter().map(|rule| DefenseKind::Robust { rule }))
        .collect();
    for defense in defenses {
        let label = format!("defense = {defense:?}");
        all.push(Mutation {
            label,
            names: "defense",
            edit: Box::new(move |c| c.defense = defense.clone()),
        });
    }
    // The attack: every variant, and each parameter at its edges.
    let gaussian = || Box::new(AttackSpec::Gaussian);
    let attacks = [
        AttackSpec::None,
        AttackSpec::Gaussian,
        AttackSpec::OptLmp,
        AttackSpec::ALittle,
        AttackSpec::InnerProduct { scale: 1.0 },
        AttackSpec::Adaptive { ttbb: 0.5, inner: gaussian() },
        AttackSpec::Sleeper { turn_round: 0, inner: gaussian() },
        AttackSpec::Oscillating { period: 2, duty: 1, inner: gaussian() },
        AttackSpec::Collusion { alpha: 0.5 },
        AttackSpec::SybilFlood { scale: 0.5 },
        AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept: 0.5, step: 0.1 },
    ];
    for attack in attacks {
        let label = format!("attack = {attack:?}");
        let edit = Box::new(move |c: &mut SimulationConfig| c.attack = attack.clone());
        all.push(Mutation { label, names: "attack", edit });
    }
    all.extend(each("attack InnerProduct scale", &r, |c, scale| {
        c.attack = AttackSpec::InnerProduct { scale }
    }));
    all.extend(each("attack Adaptive ttbb", &r, |c, ttbb| {
        c.attack = AttackSpec::Adaptive { ttbb, inner: Box::new(AttackSpec::Gaussian) }
    }));
    all.extend(each("attack Collusion alpha", &r, |c, alpha| {
        c.attack = AttackSpec::Collusion { alpha }
    }));
    all.extend(each("attack SybilFlood scale", &r, |c, scale| {
        c.attack = AttackSpec::SybilFlood { scale }
    }));
    all.extend(each("attack AdaptiveSearch init_scale", &r, |c, init_scale| {
        c.attack = AttackSpec::AdaptiveSearch { init_scale, target_accept: 0.5, step: 0.1 }
    }));
    all.extend(each("attack AdaptiveSearch target_accept", &r, |c, target_accept| {
        c.attack = AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept, step: 0.1 }
    }));
    all.extend(each("attack AdaptiveSearch step", &r, |c, step| {
        c.attack = AttackSpec::AdaptiveSearch { init_scale: 1.0, target_accept: 0.5, step }
    }));
    all.extend(each("attack Sleeper turn_round", &small, |c, turn_round| {
        c.attack = AttackSpec::Sleeper { turn_round, inner: Box::new(AttackSpec::Gaussian) }
    }));
    all.extend(each("attack Oscillating period", &small, |c, period| {
        c.attack =
            AttackSpec::Oscillating { period, duty: 1, inner: Box::new(AttackSpec::Gaussian) }
    }));
    all.extend(each("attack Oscillating duty", &small, |c, duty| {
        c.attack =
            AttackSpec::Oscillating { period: 2, duty, inner: Box::new(AttackSpec::Gaussian) }
    }));
    // The serving overrides the in-process transport models.
    let deadlines = [None, Some(0), Some(1)];
    all.extend(each("serving.deadline_ms", &deadlines, |c, v| serving(c).deadline_ms = v));
    all.extend(each("serving.fault.flaky_pct", &pcts, |c, v| serving(c).fault.flaky_pct = v));
    all.extend(each("serving.fault.delay_ms_lo", &[1, 2], |c, v| {
        serving(c).fault.delay_ms_lo = v;
        serving(c).fault.delay_ms_hi = 1;
    }));
    all.extend(each("serving.fault.skip_rounds", &small, |c, v| {
        serving(c).fault.skip_rounds = vec![v]
    }));
    all.extend(each("serving.fault.drop_at_round", &small, |c, v| {
        serving(c).fault.drop_at_round = Some(v)
    }));
    all
}

/// The cell's serving overrides, created empty if absent.
fn serving(c: &mut SimulationConfig) -> &mut ServingSpec {
    c.serving.get_or_insert_with(ServingSpec::default)
}

/// The cases once found to validate and then panic the run (exit 101).
fn regressions() -> Vec<Mutation> {
    vec![
        case("per_worker 1", "per_worker", |c| c.per_worker = 1),
        case("batch 97 on a shard of 96", "dp.batch_size", |c| c.dp.batch_size = 97),
        case("ClippedDp, batch 200, no ε target", "dp.batch_size", |c| {
            c.protocol = WorkerProtocol::ClippedDp { clip: 1.0 };
            c.dp.batch_size = 200;
            c.epsilon = None;
        }),
        case("no auxiliary example", "defense_cfg.aux_per_class", |c| {
            c.defense_cfg.aux_per_class = 0
        }),
        case("clip 0", "protocol", |c| c.protocol = WorkerProtocol::ClippedDp { clip: 0.0 }),
        case("clip −1", "protocol", |c| c.protocol = WorkerProtocol::ClippedDp { clip: -1.0 }),
        case("hidden 0", "model", |c| c.model = ModelKind::SmallMlp { hidden: 0 }),
        case("no classes", "dataset.num_classes", |c| c.dataset.num_classes = 0),
        case("no prototype grid", "dataset.proto_grid", |c| c.dataset.proto_grid = 0),
        case("height 0", "dataset.height", |c| c.dataset.height = 0),
        case("width 0", "dataset.width", |c| c.dataset.width = 0),
        case("channels 0", "dataset.channels", |c| c.dataset.channels = 0),
        case("Mlp784 on colorectal-like", "model", |c| {
            c.model = ModelKind::Mlp784;
            c.dataset = SyntheticSpec::colorectal_like();
        }),
        case("two stages without noise", "protocol", |c| c.protocol = WorkerProtocol::Plain),
        case("trimmed mean of 3 on 5", "defense", |c| {
            c.defense = DefenseKind::Robust { rule: AggregatorKind::TrimmedMean { trim: 3 } }
        }),
    ]
}

/// `smoke/tiny` with its grid cleared: one cell, the base config.
fn single_cell() -> ScenarioSpec {
    ScenarioSpec { grid: GridSpec::default(), ..registry::get("smoke/tiny").expect("built-in") }
}

/// Applies every mutation to `base` and collects each that validates and
/// then panics, or is refused without naming its field.
fn failures(base: fn() -> SimulationConfig, mutations: Vec<Mutation>) -> Vec<String> {
    let mut failures = Vec::new();
    for Mutation { label, names, edit } in mutations {
        let mut spec = single_cell();
        spec.base = base();
        edit(&mut spec.base);
        let problems = spec.validate();
        if !problems.is_empty() {
            if !problems.iter().any(|p| p.contains(names)) {
                failures.push(format!("{label}: refused without naming `{names}`: {problems:?}"));
            }
            continue;
        }
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| run_scenario_in_memory(&spec))) {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            failures.push(format!("{label}: validated, then panicked: {message}"));
        }
    }
    failures
}

#[test]
fn the_known_panics_are_refused_with_their_field() {
    for Mutation { label, names, edit } in regressions() {
        let mut spec = single_cell();
        spec.base = tiny_two_stage();
        edit(&mut spec.base);
        let problems = spec.validate();
        assert!(problems.iter().any(|p| p.contains(names)), "{label}: {problems:?}");
    }
}

#[test]
fn a_mutated_cell_is_refused_by_name_or_runs_without_a_panic() {
    let mut all = regressions();
    all.extend(mutations(false));
    let failures = failures(tiny_two_stage, all);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
#[ignore = "the wide value set on four base cells; run in release"]
fn a_widely_mutated_cell_is_refused_by_name_or_runs_without_a_panic() {
    let mut failures_all = Vec::new();
    for base in [tiny_two_stage, tiny_undefended, tiny_silent, tiny_sign_dp] {
        failures_all.extend(failures(base, mutations(true)));
    }
    assert!(failures_all.is_empty(), "{}", failures_all.join("\n"));
}
