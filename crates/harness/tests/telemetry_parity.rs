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
//!    handle, on both fold timings, in the median of alternating pairs —
//!    and the same gate fails a sink that costs 10 %.
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

/// Alternating null/ledger pairs behind one reading of the 5 % gate.
const GATE_PAIRS: usize = 15;

/// The 5 % gate's predicate: the median, over the pairs, of the ledger
/// run's wall clock over its pair's null run.
fn within_five_percent(median_ratio: f64) -> bool {
    median_ratio <= 1.05
}

/// The gate's cell under `attack`: 10 honest + 15 Byzantine workers,
/// two-stage defense, 24 iterations — long enough that the one-time
/// cumulative-ε schedule build (≈ 2.5 ms, as much as a 6-round cell's
/// whole budget) amortizes the way it does in real runs, so the gate
/// measures the *per-round* cost.
fn gate_cfg(attack: AttackSpec) -> SimulationConfig {
    let mut cfg = SimulationConfig::quick(SyntheticSpec::mnist_like(), ModelKind::Mlp784);
    cfg.per_worker = 128;
    cfg.test_count = 16;
    cfg.n_honest = 10;
    cfg.n_byzantine = 15;
    cfg.epochs = 16.0 / 128.0 * 24.0; // exactly 24 iterations
    cfg.epsilon = None;
    cfg.dp.noise_multiplier = 0.79;
    cfg.attack = attack;
    cfg.defense = DefenseKind::TwoStage;
    cfg.defense_cfg.gamma = 0.4;
    cfg
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Wall clock of one run of `cfg` recording into `tel`, ledger flush
/// included. The run is confined to one thread: recording adds work, not
/// parallelism, and a spare core keeps the host's own scheduling noise out
/// of the reading.
fn timed_run(cfg: &SimulationConfig, prep: &PreparedRun, tel: &Telemetry) -> Duration {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("local pool");
    let started = Instant::now();
    std::hint::black_box(pool.install(|| run_prepared_telemetry(cfg, prep, tel)));
    tel.flush().expect("ledger flush");
    started.elapsed()
}

/// The median ledger/null wall-clock ratio of `cfg` over [`GATE_PAIRS`]
/// pairs, each a null run and a run recording into a fresh `sink()`. Which
/// of the two runs first alternates from pair to pair, and each pair is
/// compared only with itself, so host drift across the measurement window
/// cancels instead of biasing whichever path ran second.
fn median_overhead(cfg: &SimulationConfig, sink: impl Fn() -> Box<dyn TelemetrySink>) -> f64 {
    let prep = dpbfl::simulation::prepare(cfg);
    let ratios = (0..GATE_PAIRS)
        .map(|pair| {
            let null = || timed_run(cfg, &prep, &Telemetry::null());
            let ledger = || timed_run(cfg, &prep, &Telemetry::new(sink()));
            let (null, ledger) = if pair % 2 == 0 {
                (null(), ledger())
            } else {
                let ledger = ledger();
                (null(), ledger)
            };
            ledger.as_secs_f64() / null.as_secs_f64()
        })
        .collect::<Vec<_>>();
    let readings: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    println!("{}: ledger/null ratios [{}]", cfg.attack.name(), readings.join(", "));
    median(ratios)
}

fn gate_ledger(cfg: &SimulationConfig) -> PathBuf {
    let name = format!("dpbfl-telemetry-gate-{}-{}.jsonl", cfg.attack.name(), std::process::id());
    std::env::temp_dir().join(name)
}

#[test]
#[ignore = "wall-clock gate; run with --release -- --ignored (CI does)"]
fn jsonl_ledger_costs_at_most_five_percent_on_both_fold_timings() {
    // OptLMP reads the cohort (fold after crafting); Gaussian folds at
    // arrival.
    assert!(AttackSpec::OptLmp.reads_cohort() && !AttackSpec::Gaussian.reads_cohort());
    for attack in [AttackSpec::OptLmp, AttackSpec::Gaussian] {
        let cfg = gate_cfg(attack);
        let path = gate_ledger(&cfg);
        let ratio = median_overhead(&cfg, || Box::new(JsonlSink::new(path.clone())));
        std::fs::remove_file(&path).ok();
        println!("{}: median ledger/null {ratio:.3}", cfg.attack.name());
        assert!(
            within_five_percent(ratio),
            "JSONL telemetry overhead over budget under {}: median ratio {ratio:.3}",
            cfg.attack.name()
        );
    }
}

/// A JSONL ledger that also spins for `per_round` on every round record: a
/// sink with a known cost, for checking that the 5 % gate can fail.
struct StallingSink {
    inner: JsonlSink,
    per_round: Duration,
}

impl TelemetrySink for StallingSink {
    fn record_round(&mut self, metrics: RoundMetrics) {
        let until = Instant::now() + self.per_round;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
        self.inner.record_round(metrics);
    }
    fn record_span(&mut self, span: dpbfl_telemetry::Span) {
        self.inner.record_span(span);
    }
    fn record_event(&mut self, event: dpbfl_telemetry::Event) {
        self.inner.record_event(event);
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[test]
#[ignore = "wall-clock gate; run with --release -- --ignored (CI does)"]
fn five_percent_gate_fails_a_sink_that_costs_ten_percent() {
    // A gate that has never failed is no evidence: a ledger whose rounds
    // stall for 10 % of a null run in total must read over budget.
    let cfg = gate_cfg(AttackSpec::Gaussian);
    let prep = dpbfl::simulation::prepare(&cfg);
    let null = (0..GATE_PAIRS).map(|_| timed_run(&cfg, &prep, &Telemetry::null()).as_secs_f64());
    let per_round =
        Duration::from_secs_f64(0.10 * median(null.collect()) / cfg.iterations() as f64);
    let path = gate_ledger(&cfg);
    let ratio = median_overhead(&cfg, || {
        Box::new(StallingSink { inner: JsonlSink::new(path.clone()), per_round })
    });
    std::fs::remove_file(&path).ok();
    println!("stalling sink ({per_round:?} per round): median ledger/null {ratio:.3}");
    assert!(!within_five_percent(ratio), "the gate passed a 10 % sink: median ratio {ratio:.3}");
}
