//! Golden `RunSummary` pins: the two-stage defense's observable output,
//! frozen as 64-bit FNV-1a hashes of the serialized summary.
//!
//! The defense is one pipeline (`fold_upload` → `TwoStageState::finish`);
//! these pins hold it to the bits the repo has always produced, for every
//! attack variant, with and without client sampling, pooled and on-demand
//! provisioning, at 1 and 4 threads, plus the sign-compression baseline's
//! majority-vote loop. An intended change re-captures the
//! table (a failure prints every cell's actual hash) and says why in
//! CHANGES.md.
//!
//! The small matrices run in the default (tier-1) test pass; the registry
//! and CNN pins are `#[ignore]`d and run by CI in release:
//! `cargo test --release -p dpbfl-harness --test golden_summaries -- --ignored`.

use dpbfl::prelude::*;
use dpbfl_harness::registry;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// Asserts every `(label, config, pinned hash)` row at 1 and 4 threads; on
/// any mismatch, fails once with the full actual table.
fn assert_pins(rows: &[(String, SimulationConfig, u64)]) {
    let mut drift = false;
    let mut table = String::new();
    for (label, cfg, pinned) in rows {
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let summary = pool.install(|| dpbfl::simulation::run(cfg)).summary();
            let actual = fnv1a(serde_json::to_string(&summary).expect("serializes").as_bytes());
            drift |= actual != *pinned;
            table.push_str(&format!("{actual:#018x} @{threads} (pinned {pinned:#018x}) {label}\n"));
        }
    }
    assert!(!drift, "golden summaries drifted:\n{table}");
}

/// 5 honest + 3 Byzantine workers on a tiny MLP, 8 rounds, two-stage.
fn small(attack: &AttackSpec, sampling: f64) -> SimulationConfig {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
    cfg.per_worker = 128;
    cfg.test_count = 500;
    cfg.eval_every = 1; // the whole accuracy trajectory is in the summary
    cfg.n_honest = 5;
    cfg.n_byzantine = if *attack == AttackSpec::None { 0 } else { 3 };
    cfg.epochs = 1.0;
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.5;
    cfg.seed = 5;
    cfg.attack = attack.clone();
    cfg.defense = DefenseKind::TwoStage;
    cfg.sampling = sampling;
    cfg
}

#[test]
#[rustfmt::skip]
fn small_matrix_summaries_match_their_pins() {
    let payload = || Box::new(AttackSpec::InnerProduct { scale: 5.0 });
    let oscillating = AttackSpec::Oscillating { period: 2, duty: 1, inner: payload() };
    // Every `AttackSpec` variant — seven memoryless, five stateful — with
    // its pins at sampling 1.0 and 0.6. (Equal pins are cells whose
    // Byzantine uploads never survive: same trajectory, same counters.)
    let attacks = [
        (AttackSpec::None, [0xb1970eca55e1127a, 0x8c04d885898b74f8]),
        (AttackSpec::Gaussian, [0xf4f85691812fe9d3, 0x2a81756997aede42]),
        (AttackSpec::LabelFlip, [0x6fcd9a96820c970e, 0x806dddac930e7013]),
        (AttackSpec::OptLmp, [0x43340997822a9481, 0x70b1d78b57bd9bb7]),
        (AttackSpec::ALittle, [0x9419bfb8ef5cfa79, 0x8973daf3c591c61d]),
        (AttackSpec::InnerProduct { scale: 5.0 }, [0x9419bfb8ef5cfa79, 0x8973daf3c591c61d]),
        (AttackSpec::Adaptive { ttbb: 0.4, inner: Box::new(AttackSpec::LabelFlip) }, [0x715d1476f7bcccda, 0xe6324696dc041d29]),
        (AttackSpec::Sleeper { turn_round: 4, inner: payload() }, [0x996ddbb6e90e6111, 0x419c69f14b1a1c14]),
        (oscillating.clone(), [0x15906fe6cc06fa83, 0x7b4e87e3b8655296]),
        (AttackSpec::Collusion { alpha: 0.8 }, [0x575697e69587bcb8, 0x8e0e1d866506f9cb]),
        (AttackSpec::SybilFlood { scale: 0.95 }, [0x43340997822a9481, 0x12673b22d16fa68c]),
        // −2.2·mean of 5 benign uploads sits just inside the norm band, so
        // the search walks out of it and back: accepts and rejects both occur.
        (AttackSpec::AdaptiveSearch { init_scale: 2.2, target_accept: 0.9, step: 0.02 }, [0x095f6041dd1ca64a, 0x8973daf3c591c61d]),
    ];
    let mut rows = Vec::new();
    for (attack, pins) in &attacks {
        for (sampling, pin) in [1.0, 0.6].into_iter().zip(pins) {
            rows.push((format!("{} q={sampling}", attack.name()), small(attack, sampling), *pin));
        }
    }
    // Cosine scoring, once per fold timing (the two attacks whose selection
    // it moves at this scale), and the first-stage ablation.
    let mut variant = |label: &str, attack: &AttackSpec, edit: fn(&mut DefenseConfig), pin: u64| {
        let mut cfg = small(attack, 1.0);
        edit(&mut cfg.defense_cfg);
        rows.push((format!("{} {label}", attack.name()), cfg, pin));
    };
    variant("cosine", &AttackSpec::Gaussian, |d| d.scoring = ScoringRule::Cosine, 0x42b56364e0b81f32);
    variant("cosine", &oscillating, |d| d.scoring = ScoringRule::Cosine, 0x1142485e73fbefed);
    variant("first-stage-off", &AttackSpec::InnerProduct { scale: 5.0 }, |d| d.first_stage_enabled = false, 0xb2a8d5e5245a5a64);
    assert_pins(&rows);
}

#[test]
#[rustfmt::skip]
fn on_demand_summaries_match_their_pins() {
    // `small` at sampling 0.6 with every sampled client rebuilt per round
    // from its own synthesized shard: crafted Byzantine uploads, flipped
    // on-demand Byzantine shards, the clipping protocol, and both extremes
    // of b_c against the shard size.
    let on_demand = |attack: &AttackSpec, edit: fn(&mut SimulationConfig)| {
        let mut cfg = small(attack, 0.6);
        cfg.provisioning = Provisioning::OnDemand;
        edit(&mut cfg);
        cfg
    };
    let rows = [
        ("none", on_demand(&AttackSpec::None, |_| {}), 0x65cea8505832e47c),
        ("gaussian", on_demand(&AttackSpec::Gaussian, |_| {}), 0x96b85de0b3179fb3),
        ("label-flip", on_demand(&AttackSpec::LabelFlip, |_| {}), 0x6d023658896157c9),
        ("label-flip clipped-dp", on_demand(&AttackSpec::LabelFlip, |c| c.protocol = WorkerProtocol::ClippedDp { clip: 0.2 }), 0x7d7ce6a4ffa2fbd1),
        // b_c = 1: 16 rounds of one-example steps.
        ("label-flip b_c=1", on_demand(&AttackSpec::LabelFlip, |c| { c.dp.batch_size = 1; c.epochs = 0.125 }), 0x29b2515f98c178bd),
        // b_c = per_worker: every synthesized row is a batch row.
        ("label-flip b_c=per_worker", on_demand(&AttackSpec::LabelFlip, |c| { c.per_worker = 32; c.dp.batch_size = 32; c.epochs = 4.0 }), 0x3474768475c70b13),
    ];
    let rows: Vec<_> = rows.into_iter().map(|(label, cfg, pin)| (format!("on-demand {label}"), cfg, pin)).collect();
    assert_pins(&rows);
}

/// The sign-compression baseline: 6 honest workers and `n_byzantine`
/// sign-inverters on a 12-unit MLP, randomized response at ε₀ = 1.
fn sign_dp(n_byzantine: usize) -> SimulationConfig {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 12 });
    cfg.per_worker = 200;
    cfg.test_count = 300;
    cfg.n_honest = 6;
    cfg.n_byzantine = n_byzantine;
    cfg.seed = 5;
    cfg.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: 1.0 / (1f64.exp() + 1.0) };
    cfg
}

#[test]
#[rustfmt::skip]
fn sign_dp_summaries_match_their_pins() {
    // The majority-vote loop the `SignDp` protocol dispatches to: the two
    // registry rows that run it, and an honest and a Byzantine-majority
    // cohort of the baseline on its own.
    let row = |name: &str, label: &str| {
        let cell = registry::get(name).expect("registered scenario").cells().into_iter()
            .find(|c| c.axis("row") == Some(label)).expect("row exists");
        (format!("{name} {label}"), cell.config)
    };
    let rows = [
        (row("paper/table1_matrix", "sign-dp"), 0x64e22b01534f6aea),
        (row("paper/table3_sign_dp", "sign-dp(eps=0.21)"), 0x2127f7e133b846b8),
        (("baseline 0 byzantine".to_string(), sign_dp(0)), 0x1dd485f836ad6bbd),
        (("baseline 8 byzantine".to_string(), sign_dp(8)), 0x08876da2965ef57e),
    ];
    let rows: Vec<_> = rows.into_iter().map(|((label, cfg), pin)| (label, cfg, pin)).collect();
    assert_pins(&rows);
}

#[test]
#[ignore = "reduced paper scale; run with --release -- --ignored (CI does)"]
#[rustfmt::skip]
fn registry_cells_match_their_pins() {
    let pins = [
        // The 1.000 headline (60 % label-flip, ε = 2), folded at arrival.
        ("paper/quickstart", 0, 0x24a0467058228d96),
        // OptLMP × two-stage (Eq. 8–10's attack), folded after crafting.
        ("paper/attack_showdown", 8, 0x40ff9f20c054252a),
        // The zoo grid: attack-major, two-stage then undefended.
        ("scenarios/adversary_zoo", 0, 0xda51dee4802a99c1),
        ("scenarios/adversary_zoo", 1, 0xf42d752c4086b573),
        ("scenarios/adversary_zoo", 2, 0x406cfd4c2fb9a131),
        ("scenarios/adversary_zoo", 3, 0xf42d752c4086b573),
        ("scenarios/adversary_zoo", 4, 0xc9edb14f5e10c820),
        ("scenarios/adversary_zoo", 5, 0xf42d752c4086b573),
        ("scenarios/adversary_zoo", 6, 0x63163117f263ea25),
        ("scenarios/adversary_zoo", 7, 0xf42d752c4086b573),
        ("scenarios/adversary_zoo", 8, 0x81b0e0806b66356c),
        ("scenarios/adversary_zoo", 9, 0xf42d752c4086b573),
        // On-demand provisioning at population scale: 10⁵ and 10⁶ clients.
        ("scale/smoke", 0, 0xd633a8013198b821),
        ("scale/smoke", 1, 0xc5abb9685c2af3a6),
        ("scale/million_clients", 0, 0x2399c99a54db39cf),
    ];
    let rows: Vec<_> = pins
        .iter()
        .map(|&(name, index, pin)| {
            let cell = registry::get(name).expect("registered scenario").cells().swap_remove(index);
            (format!("{name} cell {index} {:?}", cell.axes), cell.config, pin)
        })
        .collect();
    let showdown = &rows[1].1;
    assert!(showdown.attack == AttackSpec::OptLmp && showdown.defense == DefenseKind::TwoStage);
    assert_pins(&rows);
}

/// A label-flip two-stage cell on one of the paper's CNNs: 3 honest + 1
/// Byzantine workers, 32 examples each, `b_c = 4`, one epoch (8 rounds).
fn cnn(dataset: SyntheticSpec, model: ModelKind) -> SimulationConfig {
    let mut cfg = SimulationConfig::quick(dataset, model);
    cfg.per_worker = 32;
    cfg.test_count = 100;
    cfg.eval_every = 1;
    cfg.n_honest = 3;
    cfg.n_byzantine = 1;
    cfg.epochs = 1.0;
    cfg.epsilon = None;
    cfg.dp.batch_size = 4;
    cfg.dp.noise_multiplier = 0.5;
    cfg.seed = 5;
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    cfg
}

#[test]
#[ignore = "trains two CNNs; run with --release -- --ignored (CI does)"]
#[rustfmt::skip]
fn cnn_summaries_match_their_pins() {
    // Every worker step runs the conv, GroupNorm, pool and residual layers'
    // per-example gradients; evaluation and the server gradient run them
    // batched.
    let rows = [
        ("mnist-like MnistCnn", cnn(SyntheticSpec::mnist_like(), ModelKind::MnistCnn), 0x16b0feee1653d387),
        ("colorectal-like ColorectalCnn", cnn(SyntheticSpec::colorectal_like(), ModelKind::ColorectalCnn), 0x53c1696f195f6c49),
    ];
    let rows: Vec<_> = rows.into_iter().map(|(label, cfg, pin)| (format!("cnn {label}"), cfg, pin)).collect();
    assert_pins(&rows);
}
