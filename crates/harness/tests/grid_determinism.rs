//! The grid-level determinism contract and resume semantics.
//!
//! 1. A grid run is **bit-identical at any thread count** (the JSONL sinks
//!    are compared byte for byte), extending the PR-1 per-run contract.
//! 2. Every grid cell is bit-identical to a standalone `simulation::run` of
//!    the same config — data-preparation sharing is invisible to results.
//! 3. A killed-then-resumed grid completes without recomputing finished
//!    cells, and resuming a complete grid re-executes nothing.

use dpbfl::prelude::*;
use dpbfl_harness::runner::{run_grid, RunOptions};
use dpbfl_harness::{registry, sink};
use std::path::{Path, PathBuf};

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpbfl-harness-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn opts(out: &Path, threads: usize, resume: bool) -> RunOptions {
    RunOptions {
        threads: Some(threads),
        out_dir: out.to_path_buf(),
        resume,
        quiet: true,
        metrics_dir: None,
    }
}

#[test]
fn two_by_two_grid_is_bit_identical_across_thread_counts_and_to_standalone_runs() {
    let spec = registry::get("smoke/tiny").expect("built-in 2×2 grid");
    assert_eq!(spec.n_cells(), 4, "the contract test wants a 2×2 grid");

    let out1 = temp_out("threads1");
    let out4 = temp_out("threads4");
    let single = run_grid(&spec, &opts(&out1, 1, false)).expect("1-thread grid");
    let multi = run_grid(&spec, &opts(&out4, 4, false)).expect("4-thread grid");
    assert_eq!(single.ran, 4);
    assert_eq!(multi.ran, 4);

    // Byte-identical JSONL sinks.
    let bytes1 = std::fs::read(&single.jsonl_path).expect("sink written");
    let bytes4 = std::fs::read(&multi.jsonl_path).expect("sink written");
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes4, "JSONL must not depend on the thread count");

    // Reports and the bench summary exist.
    for name in ["report.md", "report.csv", "BENCH_harness.json"] {
        assert!(single.scenario_dir.join(name).exists(), "{name} missing");
    }

    // Every cell equals a standalone `simulation::run` of its config: the
    // shared data preparation must be invisible in the results.
    let cells = spec.cells();
    // The 2×2 smoke grid shares preparations within each attack (the two
    // defenses of one attack differ only server-side)…
    assert_eq!(PreparedRun::cache_key(&cells[0].config), PreparedRun::cache_key(&cells[1].config));
    assert_eq!(PreparedRun::cache_key(&cells[2].config), PreparedRun::cache_key(&cells[3].config));
    // …but not across attacks (label-flip adds poisoned data workers).
    assert_ne!(PreparedRun::cache_key(&cells[0].config), PreparedRun::cache_key(&cells[2].config));
    for (cell, record) in cells.iter().zip(&single.records) {
        assert_eq!(cell.key, record.key);
        let standalone = dpbfl::simulation::run(&cell.config);
        assert_eq!(
            standalone.final_accuracy.to_bits(),
            record.summary.final_accuracy.to_bits(),
            "cell {} diverged from a standalone run",
            cell.index
        );
        assert_eq!(standalone.history.len(), record.summary.history.len());
        for (a, b) in standalone.history.iter().zip(&record.summary.history) {
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "cell {}", cell.index);
        }
        let stats = &record.summary.defense_stats;
        assert_eq!(standalone.defense_stats.byzantine_selected, stats.byzantine_selected);
        assert_eq!(standalone.defense_stats.total_selected, stats.total_selected);
        assert_eq!(
            standalone.defense_stats.first_stage_rejected_byzantine,
            stats.first_stage_rejected_byzantine
        );
    }

    std::fs::remove_dir_all(&out1).ok();
    std::fs::remove_dir_all(&out4).ok();
}

#[test]
fn killed_grid_resumes_without_recomputing_finished_cells() {
    let spec = registry::get("smoke/tiny").expect("built-in 2×2 grid");
    let out = temp_out("resume");

    // Full run, then truncate the sink to two lines — in *reverse* order,
    // because a killed run's journal holds lines in completion order, which
    // is thread-dependent. Resume must not care.
    let full = run_grid(&spec, &opts(&out, 1, false)).expect("full grid");
    assert_eq!(full.ran, 4);
    let complete = std::fs::read_to_string(&full.jsonl_path).unwrap();
    let first_two: Vec<&str> = complete.lines().take(2).collect();
    let partial: String = first_two.iter().rev().map(|l| format!("{l}\n")).collect();
    std::fs::write(&full.jsonl_path, &partial).unwrap();

    // Resume: exactly the two missing cells run; the surviving lines are
    // preserved byte-for-byte and the sink ends up complete again.
    let resumed = run_grid(&spec, &opts(&out, 1, true)).expect("resumed grid");
    assert_eq!(resumed.ran, 2);
    assert_eq!(resumed.skipped, 2);
    let after = std::fs::read_to_string(&resumed.jsonl_path).unwrap();
    assert_eq!(after, complete, "resume must reproduce the full sink");
    let records = sink::load_records(&resumed.jsonl_path).unwrap();
    assert_eq!(records.len(), 4);

    // Resuming a complete grid executes nothing.
    let idle = run_grid(&spec, &opts(&out, 1, true)).expect("idle resume");
    assert_eq!(idle.ran, 0);
    assert_eq!(idle.skipped, 4);
    assert_eq!(std::fs::read_to_string(&idle.jsonl_path).unwrap(), complete);
    // The outcome still reports every record, in cell order.
    assert_eq!(idle.records.len(), 4);
    for (i, record) in idle.records.iter().enumerate() {
        assert_eq!(record.cell, i);
    }

    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn protocol_axis_grid_is_bit_identical_across_threads_and_to_standalone_runs() {
    // The protocol axis crossed with two attacks (2×2), plus a sign-DP
    // include row (validate() requires it undefended, and its silent
    // Byzantine members cast no vote). All three runnable substrates are
    // covered; the grid must stay byte-identical at any thread count and
    // every cell must equal a standalone `simulation::run` of its config.
    let mut base =
        SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::SmallMlp { hidden: 8 });
    base.per_worker = 96;
    base.test_count = 128;
    base.n_honest = 3;
    base.n_byzantine = 2;
    base.epochs = 1.0;
    base.epsilon = None;
    base.dp.noise_multiplier = 0.5;
    let spec = dpbfl_harness::ScenarioSpec {
        name: "test/protocol_axis".into(),
        title: "protocol-axis determinism".into(),
        notes: String::new(),
        seed: dpbfl_harness::SeedPolicy::Fixed { seed: 5 },
        base,
        grid: dpbfl_harness::GridSpec {
            attacks: Some(vec![AttackSpec::Gaussian, AttackSpec::LabelFlip]),
            protocols: Some(vec![WorkerProtocol::PaperDp, WorkerProtocol::ClippedDp { clip: 0.8 }]),
            include: Some(vec![dpbfl_harness::IncludeRow {
                label: "sign-dp".into(),
                protocol: Some(WorkerProtocol::SignDp { lr: 0.002, flip_prob: 0.25 }),
                attack: Some(AttackSpec::None),
                ..dpbfl_harness::IncludeRow::default()
            }]),
            ..dpbfl_harness::GridSpec::default()
        },
    };
    assert_eq!(spec.n_cells(), 5);
    assert!(spec.validate().is_empty(), "{:?}", spec.validate());

    let out1 = temp_out("protocol-threads1");
    let out4 = temp_out("protocol-threads4");
    let single = run_grid(&spec, &opts(&out1, 1, false)).expect("1-thread grid");
    let multi = run_grid(&spec, &opts(&out4, 4, false)).expect("4-thread grid");
    let bytes1 = std::fs::read(&single.jsonl_path).expect("sink written");
    let bytes4 = std::fs::read(&multi.jsonl_path).expect("sink written");
    assert!(!bytes1.is_empty());
    assert_eq!(bytes1, bytes4, "JSONL must not depend on the thread count");

    for (cell, record) in spec.cells().iter().zip(&single.records) {
        let standalone = dpbfl::simulation::run(&cell.config);
        assert_eq!(
            standalone.final_accuracy.to_bits(),
            record.summary.final_accuracy.to_bits(),
            "cell {} ({:?}) diverged from a standalone run",
            cell.index,
            cell.axes,
        );
        assert_eq!(standalone.history.len(), record.summary.history.len());
        for (a, b) in standalone.history.iter().zip(&record.summary.history) {
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits(), "cell {}", cell.index);
        }
    }
    // The protocols genuinely differ: the paper substrate and the clipped
    // substrate see the same data but produce different uploads.
    let acc = |i: usize| single.records[i].summary.final_accuracy;
    assert_ne!(acc(0), acc(1), "PaperDp and ClippedDp must not coincide");

    std::fs::remove_dir_all(&out1).ok();
    std::fs::remove_dir_all(&out4).ok();
}

#[test]
fn per_cell_seed_policy_gives_cells_independent_data() {
    // Same grid, PerCell seeds: cells no longer share preparations, and the
    // runner must still match standalone runs.
    let mut spec = registry::get("smoke/tiny").unwrap();
    spec.seed = dpbfl_harness::SeedPolicy::PerCell { master: 11 };
    let cells = spec.cells();
    assert_ne!(cells[0].config.seed, cells[1].config.seed);
    assert_ne!(PreparedRun::cache_key(&cells[0].config), PreparedRun::cache_key(&cells[1].config));
    let results = dpbfl_harness::run_scenario_in_memory(&spec);
    for (cell, result) in &results {
        let standalone = dpbfl::simulation::run(&cell.config);
        assert_eq!(standalone.final_accuracy.to_bits(), result.final_accuracy.to_bits());
    }
}
