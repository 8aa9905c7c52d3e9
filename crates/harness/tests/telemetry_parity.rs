//! The telemetry "never perturb the run" contract, end to end.
//!
//! 1. A run's `RunSummary` serializes byte-identically with telemetry
//!    enabled (any sink) and with the null handle — recording is pure
//!    observation.
//! 2. The deterministic section of a grid's metrics ledgers (the
//!    `"kind":"round"` lines) is byte-identical at any thread count,
//!    exactly like the results sink itself. Timing spans/events are
//!    wall-clock and excluded.
//! 3. The counters themselves are coherent: stage-1 verdicts partition the
//!    cohort, and a round reports the same metrics whether its uploads were
//!    folded as they arrived or after the attacker crafted.
//! 4. Recording a JSONL ledger costs at most 5 % wall clock over the null
//!    handle, on both fold timings.
//!
//! The paper-scale cells and the wall-clock gate are `#[ignore]`d here and
//! run by CI's release pass: `cargo test --release -p dpbfl-harness --test
//! telemetry_parity -- --ignored`.

use dpbfl::prelude::*;
use dpbfl_harness::registry;
use dpbfl_harness::runner::{ledger_name, run_grid, RunOptions};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn temp_out(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dpbfl-telemetry-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn summary_json(result: &RunResult) -> String {
    serde_json::to_string(&result.summary()).expect("summary serializes")
}

/// Runs `cfg` twice — null telemetry vs a shared `MemorySink` — asserts the
/// summaries are byte-identical, and returns the recorded rounds.
fn assert_recording_is_invisible(cfg: &SimulationConfig) -> Vec<RoundMetrics> {
    let prep = dpbfl::simulation::prepare(cfg);
    let baseline = summary_json(&run_prepared_telemetry(cfg, &prep, &Telemetry::null()));

    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let tel = Telemetry::new(Box::new(Arc::clone(&sink)));
    let observed = summary_json(&run_prepared_telemetry(cfg, &prep, &tel));
    assert_eq!(observed, baseline, "telemetry perturbed the run");

    let rounds = sink.lock().unwrap().rounds.clone();
    assert_eq!(rounds.len(), cfg.iterations(), "one metrics record per round");
    for (t, m) in rounds.iter().enumerate() {
        assert_eq!(m.round, t as u64, "rounds recorded in order");
        assert_eq!(
            m.accepted + m.rejected(),
            m.cohort,
            "round {t}: stage-1 verdicts must partition the cohort"
        );
        // Stage 2 selects by cumulative score over the whole cohort, so a
        // member rejected this round (zero upload) can still be selected.
        assert!(m.selected <= m.cohort, "round {t}: selection within the cohort");
    }
    rounds
}

#[test]
fn smoke_cells_record_without_perturbing_the_summary() {
    let spec = registry::get("smoke/tiny").expect("registered scenario");
    for cell in spec.cells() {
        let rounds = assert_recording_is_invisible(&cell.config);
        if cell.config.defense == DefenseKind::TwoStage {
            // The two-stage defense scores the full cohort every round.
            assert!(rounds.iter().all(|m| m.scores.count == m.cohort), "{:?}", cell.axes);
        } else {
            // Without the two-stage path every upload is taken as-is.
            assert!(rounds.iter().all(|m| m.accepted == m.cohort), "{:?}", cell.axes);
        }
    }
}

#[test]
fn private_runs_report_a_growing_epsilon() {
    let mut cfg =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
    cfg.per_worker = 96;
    cfg.test_count = 128;
    cfg.n_honest = 4;
    cfg.n_byzantine = 2;
    cfg.epochs = 1.0;
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 1.0;
    cfg.attack = AttackSpec::LabelFlip;
    cfg.defense = DefenseKind::TwoStage;
    let rounds = assert_recording_is_invisible(&cfg);
    let eps: Vec<f64> = rounds
        .iter()
        .map(|m| m.achieved_epsilon.expect("private run reports ε every round"))
        .collect();
    for pair in eps.windows(2) {
        assert!(pair[1] > pair[0], "cumulative ε must grow: {eps:?}");
    }
}

#[test]
fn both_fold_timings_report_identical_metrics() {
    // When the fold runs must be invisible in the metrics exactly as it is
    // in the summary. smoke/tiny cell 0 (Gaussian × two-stage) folds at
    // arrival; the same Gaussian uploads mounted through an oscillator that
    // never rests are folded after crafting. Every counter must agree
    // (`attack_scale` included: neither attack carries one).
    let spec = registry::get("smoke/tiny").expect("registered scenario");
    let cell = &spec.cells()[0];
    assert_eq!(cell.config.attack, AttackSpec::Gaussian);
    let collect = |attack: AttackSpec| {
        let mut cfg = cell.config.clone();
        cfg.attack = attack;
        let prep = dpbfl::simulation::prepare(&cfg);
        let sink = Arc::new(Mutex::new(MemorySink::default()));
        let tel = Telemetry::new(Box::new(Arc::clone(&sink)));
        run_prepared_telemetry(&cfg, &prep, &tel);
        let rounds = sink.lock().unwrap().rounds.clone();
        rounds
    };
    let never_resting =
        AttackSpec::Oscillating { period: 1, duty: 1, inner: Box::new(AttackSpec::Gaussian) };
    assert!(never_resting.reads_cohort() && !AttackSpec::Gaussian.reads_cohort());
    assert_eq!(
        collect(AttackSpec::Gaussian),
        collect(never_resting),
        "fold timings disagree on metrics"
    );
}

/// Runs a grid with a metrics dir on `threads` threads and returns, per
/// cell, the ledger's deterministic section (its `"kind":"round"` lines).
fn grid_round_sections(spec_name: &str, tag: &str, threads: usize) -> Vec<(usize, String)> {
    let spec = registry::get(spec_name).expect("registered scenario");
    let out = temp_out(&format!("{tag}-t{threads}"));
    let metrics = out.join("metrics");
    let opts = RunOptions {
        threads: Some(threads),
        out_dir: out.clone(),
        resume: false,
        quiet: true,
        metrics_dir: Some(metrics.clone()),
    };
    let outcome = run_grid(&spec, &opts).expect("grid run");
    assert_eq!(outcome.cell_metrics.len(), spec.n_cells(), "every cell digested");
    let sections = spec
        .cells()
        .iter()
        .map(|cell| {
            let text = std::fs::read_to_string(metrics.join(ledger_name(cell.index)))
                .expect("ledger written");
            let rounds: String = text
                .lines()
                .filter(|l| l.contains("\"kind\":\"round\""))
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(!rounds.is_empty(), "cell {} ledger has no round lines", cell.index);
            (cell.index, rounds)
        })
        .collect();
    std::fs::remove_dir_all(&out).ok();
    sections
}

fn assert_ledgers_thread_invariant(spec_name: &str, tag: &str) {
    let single = grid_round_sections(spec_name, tag, 1);
    let multi = grid_round_sections(spec_name, tag, 4);
    for ((cell, a), (_, b)) in single.iter().zip(&multi) {
        assert_eq!(a, b, "{spec_name} cell {cell}: deterministic section depends on threads");
    }
}

#[test]
fn smoke_grid_ledgers_are_byte_identical_across_thread_counts() {
    assert_ledgers_thread_invariant("smoke/tiny", "smoke");
}

#[test]
fn report_gains_metrics_columns_only_with_a_metrics_dir() {
    let spec = registry::get("smoke/tiny").expect("registered scenario");
    let plain_out = temp_out("report-plain");
    let plain = run_grid(
        &spec,
        &RunOptions {
            threads: Some(1),
            out_dir: plain_out.clone(),
            resume: false,
            quiet: true,
            metrics_dir: None,
        },
    )
    .expect("plain grid");
    assert!(plain.cell_metrics.is_empty());
    let md = std::fs::read_to_string(plain.scenario_dir.join("report.md")).unwrap();
    let csv = std::fs::read_to_string(plain.scenario_dir.join("report.csv")).unwrap();
    assert!(!md.contains("mean accept"), "{md}");
    assert!(!csv.contains("mean_acceptance_rate"), "{csv}");

    let metered_out = temp_out("report-metered");
    let metered = run_grid(
        &spec,
        &RunOptions {
            threads: Some(1),
            out_dir: metered_out.clone(),
            resume: false,
            quiet: true,
            metrics_dir: Some(metered_out.join("metrics")),
        },
    )
    .expect("metered grid");
    assert_eq!(metered.cell_metrics.len(), 4);
    let md = std::fs::read_to_string(metered.scenario_dir.join("report.md")).unwrap();
    let csv = std::fs::read_to_string(metered.scenario_dir.join("report.csv")).unwrap();
    assert!(md.contains("mean accept"), "{md}");
    assert!(md.contains("ledger ε"), "{md}");
    assert!(csv.contains("mean_acceptance_rate,ledger_final_epsilon"), "{csv}");
    // The results sink itself is identical with and without recording.
    assert_eq!(
        std::fs::read(&plain.jsonl_path).unwrap(),
        std::fs::read(&metered.jsonl_path).unwrap(),
        "metrics recording must not change results.jsonl"
    );

    std::fs::remove_dir_all(&plain_out).ok();
    std::fs::remove_dir_all(&metered_out).ok();
}

#[test]
#[ignore = "reduced paper scale; run with --release -- --ignored (CI does)"]
fn quickstart_headline_cell_records_without_perturbing_the_summary() {
    // paper/quickstart cell 0 is the pinned 1.000 headline cell; telemetry
    // must not move a single bit of it.
    let spec = registry::get("paper/quickstart").expect("registered scenario");
    assert_recording_is_invisible(&spec.cells()[0].config);
}

#[test]
#[ignore = "reduced paper scale; run with --release -- --ignored (CI does)"]
fn quickstart_grid_ledgers_are_byte_identical_across_thread_counts() {
    assert_ledgers_thread_invariant("paper/quickstart", "quickstart");
}

/// Asserts the JSONL ledger costs ≤ 5 % wall clock over null telemetry (plus
/// 10 ms absolute slack for scheduler noise) on a defended cell under
/// `attack`: 10 honest + 15 Byzantine workers, two-stage defense, 6
/// iterations — long enough that the one-time cumulative-ε schedule build
/// amortizes the way it does in real runs, so the gate measures the
/// *per-round* cost. Best of 7 reps each; the reps interleave the two paths
/// so machine-load drift across the measurement window biases both minima
/// equally instead of whichever batch ran second.
fn assert_jsonl_ledger_within_budget(attack: AttackSpec) {
    let mut cfg = SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::Mlp784);
    cfg.per_worker = 128;
    cfg.test_count = 16;
    cfg.n_honest = 10;
    cfg.n_byzantine = 15;
    cfg.epochs = 16.0 / 128.0 * 6.0; // exactly 6 iterations
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.79;
    cfg.attack = attack;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.4;
    let prep = dpbfl::simulation::prepare(&cfg);
    let path = std::env::temp_dir().join(format!(
        "dpbfl-telemetry-gate-{}-{}.jsonl",
        cfg.attack.name(),
        std::process::id()
    ));
    let timed = |tel: &Telemetry| {
        let started = Instant::now();
        std::hint::black_box(run_prepared_telemetry(&cfg, &prep, tel));
        tel.flush().expect("ledger flush");
        started.elapsed()
    };

    let mut null_best = Duration::MAX;
    let mut jsonl_best = Duration::MAX;
    for _ in 0..7 {
        null_best = null_best.min(timed(&Telemetry::null()));
        jsonl_best = jsonl_best.min(timed(&Telemetry::new(Box::new(JsonlSink::new(path.clone())))));
    }
    std::fs::remove_file(&path).ok();
    let budget = null_best.mul_f64(1.05) + Duration::from_millis(10);
    println!(
        "telemetry overhead under {}: null {:.1} ms, jsonl {:.1} ms (budget {:.1} ms)",
        cfg.attack.name(),
        null_best.as_secs_f64() * 1e3,
        jsonl_best.as_secs_f64() * 1e3,
        budget.as_secs_f64() * 1e3,
    );
    assert!(
        jsonl_best <= budget,
        "JSONL telemetry overhead over budget under {}: {jsonl_best:?} vs null {null_best:?}",
        cfg.attack.name()
    );
}

#[test]
#[ignore = "wall-clock gate; run with --release -- --ignored (CI does)"]
fn jsonl_ledger_costs_at_most_five_percent_on_both_fold_timings() {
    // OptLMP reads the cohort (fold after crafting); Gaussian folds at
    // arrival.
    assert!(AttackSpec::OptLmp.reads_cohort() && !AttackSpec::Gaussian.reads_cohort());
    assert_jsonl_ledger_within_budget(AttackSpec::OptLmp);
    assert_jsonl_ledger_within_budget(AttackSpec::Gaussian);
}
