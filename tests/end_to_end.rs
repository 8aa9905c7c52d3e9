//! End-to-end integration tests spanning every crate: data generation →
//! per-example gradients → DP calibration → attacks → two-stage defense.
//!
//! Configurations are deliberately small so the whole suite runs in seconds;
//! the bench binaries cover paper-scale behaviour.

use dpbfl::prelude::*;

fn small(n_byz: usize) -> SimulationConfig {
    let mut cfg = SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::Mlp784);
    cfg.per_worker = 400;
    cfg.test_count = 300;
    cfg.n_honest = 8;
    cfg.n_byzantine = n_byz;
    cfg.epochs = 4.0;
    cfg.epsilon = Some(2.0);
    cfg.seed = 1;
    cfg
}

#[test]
fn honest_dp_training_learns() {
    let r = dpbfl::simulation::run(&small(0));
    assert!(
        r.final_accuracy > 0.8,
        "DP training should learn the synthetic task, got {}",
        r.final_accuracy
    );
    assert!(r.sigma > 0.3, "accountant produced an implausible σ = {}", r.sigma);
}

#[test]
fn label_flip_destroys_undefended_training() {
    let mut cfg = small(12); // 60 % Byzantine
    cfg.attack = AttackSpec::LabelFlip;
    let r = dpbfl::simulation::run(&cfg);
    assert!(
        r.final_accuracy < 0.3,
        "undefended training should collapse under a flipped majority, got {}",
        r.final_accuracy
    );
}

#[test]
fn two_stage_defense_recovers_reference_accuracy() {
    let reference = dpbfl::simulation::run(&small(0)).final_accuracy;
    let mut cfg = small(12);
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.4;
    let defended = dpbfl::simulation::run(&cfg);
    assert!(
        defended.final_accuracy > reference - 0.1,
        "two-stage defense should track the reference ({reference}), got {}",
        defended.final_accuracy
    );
    // The selector should almost never pick Byzantine uploads.
    let byz_rate = defended.defense_stats.byzantine_selected as f64
        / defended.defense_stats.total_selected.max(1) as f64;
    assert!(byz_rate < 0.2, "Byzantine selection rate too high: {byz_rate}");
}

#[test]
fn defense_survives_opt_lmp_and_gaussian() {
    let reference = dpbfl::simulation::run(&small(0)).final_accuracy;
    for attack in [AttackSpec::OptLmp, AttackSpec::Gaussian] {
        let mut cfg = small(12);
        cfg.attack = attack.clone();
        cfg.defense = DefenseKind::TwoStage;
        cfg.defense_cfg.gamma = 0.4;
        let r = dpbfl::simulation::run(&cfg);
        assert!(
            r.final_accuracy > reference - 0.15,
            "{:?}: got {} vs reference {reference}",
            attack.name(),
            r.final_accuracy
        );
    }
}

#[test]
fn configs_and_summaries_serialize_round_trip() {
    // The experiment-grid harness persists resolved configs and RunSummary
    // values as JSON; both must survive a write → read cycle losslessly.
    let mut cfg = small(4);
    cfg.attack = AttackSpec::Adaptive { ttbb: 0.5, inner: Box::new(AttackSpec::LabelFlip) };
    cfg.defense = DefenseKind::Robust { rule: AggregatorKind::Krum { f: 4 } };
    let json = serde_json::to_string(&cfg).expect("config serializes");
    let back: SimulationConfig = serde_json::from_str(&json).expect("config parses");
    assert_eq!(serde_json::to_string(&back).unwrap(), json, "canonical serialization");
    assert_eq!(back.attack, cfg.attack);
    assert_eq!(back.defense, cfg.defense);

    cfg.defense = DefenseKind::NoDefense;
    cfg.attack = AttackSpec::None;
    cfg.per_worker = 64;
    cfg.test_count = 64;
    cfg.epochs = 1.0;
    cfg.epsilon = None;
    let result = dpbfl::simulation::run(&cfg);
    let summary = result.summary();
    let line = serde_json::to_string(&summary).expect("summary serializes");
    let parsed: RunSummary = serde_json::from_str(&line).expect("summary parses");
    assert_eq!(parsed.final_accuracy.to_bits(), result.final_accuracy.to_bits());
    assert_eq!(parsed.history.len(), result.history.len());
    assert_eq!(parsed.iterations, result.iterations);
}

#[test]
fn prepared_runs_match_standalone_runs() {
    // run() is run_prepared_telemetry(prepare()): sharing one preparation across
    // configs with equal cache keys must be bit-invisible in the results.
    let mut defended = small(4);
    defended.attack = AttackSpec::Gaussian;
    defended.defense = DefenseKind::TwoStage;
    defended.defense_cfg.gamma = 0.5;
    let mut undefended = defended.clone();
    undefended.defense = DefenseKind::NoDefense;
    assert_eq!(PreparedRun::cache_key(&defended), PreparedRun::cache_key(&undefended));
    let prep = dpbfl::simulation::prepare(&defended);
    for cfg in [&defended, &undefended] {
        let shared = run_prepared_telemetry(cfg, &prep, &Telemetry::null());
        let standalone = dpbfl::simulation::run(cfg);
        assert_eq!(shared.final_accuracy.to_bits(), standalone.final_accuracy.to_bits());
        assert_eq!(
            shared.defense_stats.byzantine_selected,
            standalone.defense_stats.byzantine_selected
        );
    }
}

#[test]
fn runs_are_deterministic_across_thread_schedules() {
    let mut cfg = small(4);
    cfg.attack = AttackSpec::Gaussian;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.6;
    let a = dpbfl::simulation::run(&cfg);
    let b = dpbfl::simulation::run(&cfg);
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.defense_stats.byzantine_selected, b.defense_stats.byzantine_selected);
    let epochs_a: Vec<_> = a.history.iter().map(|p| p.accuracy.to_bits()).collect();
    let epochs_b: Vec<_> = b.history.iter().map(|p| p.accuracy.to_bits()).collect();
    assert_eq!(epochs_a, epochs_b, "full trajectories must match bit-for-bit");
}

#[test]
fn non_iid_training_still_works() {
    let mut cfg = small(8);
    cfg.iid = false;
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.5;
    let r = dpbfl::simulation::run(&cfg);
    assert!(r.final_accuracy > 0.6, "non-iid defended accuracy {}", r.final_accuracy);
}

#[test]
fn adaptive_attacker_gains_nothing() {
    let reference = dpbfl::simulation::run(&small(0)).final_accuracy;
    for ttbb in [0.2, 0.6] {
        let mut cfg = small(12);
        cfg.attack = AttackSpec::Adaptive { ttbb, inner: Box::new(AttackSpec::LabelFlip) };
        cfg.defense = DefenseKind::TwoStage;
        cfg.defense_cfg.gamma = 0.4;
        let r = dpbfl::simulation::run(&cfg);
        assert!(
            r.final_accuracy > reference - 0.15,
            "TTBB={ttbb}: got {} vs reference {reference}",
            r.final_accuracy
        );
    }
}

#[test]
fn ood_auxiliary_data_breaks_the_defense() {
    // Supp. Table 17: auxiliary data from a different data space misleads
    // the second stage under label-flip.
    let mut cfg = small(12);
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.4;
    cfg.ood_auxiliary = true;
    let ood = dpbfl::simulation::run(&cfg);
    cfg.ood_auxiliary = false;
    let good = dpbfl::simulation::run(&cfg);
    assert!(
        ood.final_accuracy < good.final_accuracy - 0.2,
        "OOD aux should collapse the defense: ood={} good={}",
        ood.final_accuracy,
        good.final_accuracy
    );
}
