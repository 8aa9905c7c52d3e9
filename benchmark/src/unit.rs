//! One unit of measured work: a complete run of a workload's configuration
//! (set-up, every round, summary), timed from outside.

use crate::procfs::cpu_seconds;
use crate::stats::{median, percentile};
use crate::timed::TimedTransport;
use crate::workloads::{resolved_dp, uploads_per_run};
use dpbfl::prelude::*;
use dpbfl::simulation::DefenseStats;
use dpbfl_telemetry::Span;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one unit measured.
pub struct Unit {
    /// The run's `RunSummary` as JSON: the output every check compares.
    pub summary_json: String,
    /// Final test accuracy of the run.
    pub final_accuracy: f64,
    /// The run's defense bookkeeping (stage-1 rejections, selections).
    pub defense: DefenseStats,
    /// Wall seconds of the whole unit.
    pub wall_s: f64,
    /// Wall seconds before round 0.
    pub setup_s: f64,
    /// Wall seconds from round 0 to the end of the last round.
    pub window_s: f64,
    /// Process CPU seconds (user + system, all threads) over the unit.
    pub cpu_s: f64,
    /// Uploads the run folded.
    pub uploads: u64,
    /// Uploads that were dropped or missed their deadline.
    pub failed_uploads: u64,
    /// Rounds driven.
    pub rounds: usize,
    /// Median round period in milliseconds.
    pub round_ms_p50: f64,
    /// Layer observations; traced units only.
    pub trace: Option<UnitTrace>,
    /// The serving report; TCP units only.
    pub serving: Option<ServingReport>,
}

/// What a traced unit observed about the layers. Spans stay in memory until
/// the run ends.
pub struct UnitTrace {
    /// Telemetry spans the program recorded (`collect`, `stage1`, …).
    pub spans: Vec<Span>,
    /// The deterministic per-round ledger records.
    pub rounds: Vec<RoundMetrics>,
    /// Round periods (in-process) or serving round latencies (TCP), ms.
    pub round_ms: Vec<f64>,
    /// Wall seconds inside `round_trip`, summed over rounds (in-process).
    pub round_trip_s: f64,
    /// Thread-seconds inside the fold closure (in-process).
    pub fold_s: f64,
    /// Fold calls (in-process).
    pub folds: u64,
    /// Median microseconds a thread spent producing one upload between two
    /// folds (in-process).
    pub client_us: f64,
}

fn summary_json(result: &RunResult) -> String {
    serde_json::to_string(&result.summary()).expect("summary serializes")
}

fn memory_telemetry(traced: bool) -> (Telemetry, Arc<Mutex<MemorySink>>) {
    let sink = Arc::new(Mutex::new(MemorySink::default()));
    let tel = if traced { Telemetry::new(Box::new(Arc::clone(&sink))) } else { Telemetry::null() };
    (tel, sink)
}

fn take_sink(sink: &Mutex<MemorySink>) -> MemorySink {
    std::mem::take(&mut *sink.lock().expect("telemetry sink lock"))
}

/// Runs `cfg` once through a [`TimedTransport`] over the in-process
/// transport.
pub fn run_in_process(cfg: &SimulationConfig, traced: bool) -> Unit {
    let (tel, sink) = memory_telemetry(traced);
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let prep = prepare(cfg);
    let dp = resolved_dp(cfg);
    let mut transport = TimedTransport::new(InProcessTransport::new(cfg, &prep, &dp), traced);
    let result = run_with_transport_telemetry(cfg, &prep, &mut transport, &tel);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;

    let entries = &transport.entries;
    let first = *entries.first().expect("a run has at least one round");
    let last_exit = *transport.exits.last().expect("a run has at least one round");
    let mut round_ms: Vec<f64> =
        entries.windows(2).map(|w| (w[1] - w[0]).as_secs_f64() * 1e3).collect();
    if round_ms.is_empty() {
        round_ms.push((last_exit - first).as_secs_f64() * 1e3);
    }
    let round_trip_s: f64 =
        entries.iter().zip(&transport.exits).map(|(a, b)| (*b - *a).as_secs_f64()).sum();
    let round_ms_p50 = percentile(&round_ms, 50.0);
    let trace = transport.trace.as_ref().map(|fold| {
        let sink = take_sink(&sink);
        let gaps = fold.client_gaps_ns.lock().expect("gap list lock");
        let gaps_us: Vec<f64> = gaps.iter().map(|&ns| ns as f64 * 1e-3).collect();
        UnitTrace {
            spans: sink.spans,
            rounds: sink.rounds,
            round_ms,
            round_trip_s,
            fold_s: fold.fold_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            folds: fold.folds.load(Ordering::Relaxed),
            client_us: median(&gaps_us),
        }
    });
    Unit {
        summary_json: summary_json(&result),
        final_accuracy: result.final_accuracy,
        defense: result.defense_stats,
        wall_s,
        setup_s: (first - start).as_secs_f64(),
        window_s: (last_exit - first).as_secs_f64(),
        cpu_s,
        uploads: uploads_per_run(cfg),
        failed_uploads: 0,
        rounds: entries.len(),
        round_ms_p50,
        trace,
        serving: None,
    }
}

/// Runs `cfg` once over TCP loopback: one `BoundServer` on an ephemeral
/// port, `clients` `run_client` threads splitting the workers evenly.
///
/// The server's transport cannot be wrapped from outside, so the unit's
/// timings come from the [`ServingReport`]: set-up is the `serve()` wall
/// minus `rounds / rounds_per_sec`, the round period is `p50_round_ms`.
pub fn run_tcp(cfg: &SimulationConfig, clients: usize, traced: bool) -> Result<Unit, String> {
    let (tel, sink) = memory_telemetry(traced);
    let workers: Vec<usize> = data_member_indices(cfg).into_iter().map(|w| w as usize).collect();
    let share = workers.len().div_ceil(clients.max(1));
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let server = BoundServer::bind("tcp://127.0.0.1:0")?;
    let addr = server.local_addr().to_string();
    let (served, client_summaries) = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .chunks(share)
            .map(|claim| {
                let addr = &addr;
                scope.spawn(move || run_client(addr, claim, &ClientOptions::default()))
            })
            .collect();
        let served = server.serve_telemetry(cfg, &RoundPolicy::default(), &tel);
        let summaries: Vec<Result<String, String>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect();
        (served, summaries)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let (result, report) = served?;
    let summary_json = summary_json(&result);
    for client in client_summaries {
        if client? != summary_json {
            return Err("a client received a different summary than the server computed".into());
        }
    }
    if report.rounds_per_sec <= 0.0 {
        return Err("serving report has no round throughput".into());
    }
    let window_s = report.rounds as f64 / report.rounds_per_sec;
    let trace = traced.then(|| {
        let sink = take_sink(&sink);
        let round_ms = sink
            .spans
            .iter()
            .filter(|s| s.name == "serving_round")
            .map(|s| s.micros as f64 * 1e-3)
            .collect();
        UnitTrace {
            spans: sink.spans,
            rounds: sink.rounds,
            round_ms,
            round_trip_s: 0.0,
            fold_s: 0.0,
            folds: 0,
            client_us: 0.0,
        }
    });
    Ok(Unit {
        summary_json,
        final_accuracy: result.final_accuracy,
        defense: result.defense_stats,
        wall_s,
        setup_s: wall_s - window_s,
        window_s,
        cpu_s,
        uploads: uploads_per_run(cfg),
        failed_uploads: report.dropped_uploads,
        rounds: report.rounds,
        round_ms_p50: report.p50_round_ms,
        trace,
        serving: Some(report),
    })
}
