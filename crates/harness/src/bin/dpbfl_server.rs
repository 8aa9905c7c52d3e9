//! `dpbfl-server` — serve one training run over TCP or Unix-domain sockets.
//!
//! ```text
//! dpbfl-server <scenario|file.json> [--listen ADDR] [--deadline-ms N]
//!              [--cell N] [--summary-out FILE] [--bench-out FILE]
//!              [--metrics-out FILE] [--in-process]
//! ```
//!
//! The scenario argument resolves exactly like `dpbfl-exp run` (built-in
//! registry first, then a spec file path). One server drives one run, so
//! a multi-cell scenario (e.g. the `serving/churn_sweep` fault grid) needs
//! `--cell N` to pick the cell to serve. The server
//! binds `--listen` (default `tcp://127.0.0.1:0`, an ephemeral port),
//! prints the bound address and the worker indices clients must claim,
//! blocks until connected clients cover the full data-worker set, drives
//! the round loop over the wire, and prints the final accuracy.
//!
//! The determinism contract holds over the wire: for the same scenario and
//! seed, the `RunSummary` written by `--summary-out` is byte-identical to
//! an in-process `dpbfl::simulation::run` — CI's serving-smoke job diffs
//! the two, using `--in-process` to produce the reference file without
//! opening a socket. `--bench-out` writes the [`ServingReport`]
//! round-latency metrics as `BENCH_serving.json`; `--metrics-out` records
//! a full telemetry ledger (per-round defense metrics, `serving_round`
//! latency spans, admission/drop events) renderable with
//! `dpbfl-exp metrics`.

use dpbfl::prelude::*;
use dpbfl_harness::cli::{self, Args, CliResult};
use dpbfl_harness::registry;

const USAGE: &str = "dpbfl-server — serve one dpbfl training run to remote workers

USAGE:
    dpbfl-server <scenario|file.json> [--listen ADDR] [--deadline-ms N]
                 [--cell N] [--summary-out FILE] [--bench-out FILE]
                 [--metrics-out FILE] [--in-process]

OPTIONS:
    --listen ADDR       tcp://HOST:PORT or unix://PATH (default tcp://127.0.0.1:0)
    --deadline-ms N     per-round upload deadline in milliseconds (default 30000;
                        a config-level serving.deadline_ms overrides this; 0 means
                        collect only already-queued uploads)
    --cell N            serve cell N of a multi-cell scenario (default: the
                        scenario must expand to exactly one cell)
    --summary-out FILE  write the final RunSummary JSON here
    --bench-out FILE    write the ServingReport JSON (BENCH_serving.json) here
    --metrics-out FILE  record the telemetry ledger (metrics.jsonl) here
    --in-process        skip the network: run the cell through the in-process
                        transport and write the same outputs (the reference
                        side of the serving determinism diff)

One server serves one cell, so a multi-cell scenario needs --cell N. Point
one or more dpbfl-client processes at the printed address; together they
must claim every printed worker index before training starts.";

fn main() {
    cli::main(USAGE, serve)
}

fn serve(mut args: Args) -> CliResult {
    let scenario = args.positional("scenario")?;
    let listen = args.value("--listen")?.unwrap_or_else(|| "tcp://127.0.0.1:0".into());
    let mut policy = RoundPolicy::default();
    policy.deadline_ms = args.parsed("--deadline-ms", "an integer")?.unwrap_or(policy.deadline_ms);
    let cell = args.parsed("--cell", "a cell index")?;
    let summary_out = args.value("--summary-out")?;
    let bench_out = args.value("--bench-out")?;
    let metrics_out = args.value("--metrics-out")?;
    let in_process = args.switch("--in-process");
    args.finish()?;

    let cfg = resolve_cell(&scenario, cell)?;
    let workers = data_member_indices(&cfg);

    let tel = match &metrics_out {
        Some(path) => Telemetry::new(Box::new(JsonlSink::new(path.into()))),
        None => Telemetry::null(),
    };
    let (result, report) = if in_process {
        println!("running in-process (no socket)");
        let prep = dpbfl::simulation::prepare(&cfg);
        (dpbfl::simulation::run_prepared_telemetry(&cfg, &prep, &tel), None)
    } else {
        let server = BoundServer::bind(&listen)?;
        println!("listening on {}", server.local_addr());
        println!(
            "waiting for clients to claim workers 0..{} (e.g. dpbfl-client --connect {} --workers 0-{})",
            workers.len(),
            server.local_addr(),
            workers.len().saturating_sub(1),
        );
        let (result, report) = server.serve_telemetry(&cfg, &policy, &tel)?;
        (result, Some(report))
    };
    if let Some(path) = &metrics_out {
        tel.flush().map_err(|e| format!("writing {path}: {e}"))?;
        println!("telemetry ledger written to {path}");
    }
    match &report {
        Some(report) => println!(
            "run complete: final accuracy {:.3} over {} rounds ({} clients, {} reconnects, p50 {:.1} ms, p99 {:.1} ms, {:.2} rounds/s, {} dropped uploads)",
            result.final_accuracy,
            report.rounds,
            report.clients,
            report.reconnects,
            report.p50_round_ms,
            report.p99_round_ms,
            report.rounds_per_sec,
            report.dropped_uploads,
        ),
        None => println!("run complete: final accuracy {:.3}", result.final_accuracy),
    }
    // The summary stays compact and the serving report pretty-printed: CI
    // compares the summary byte for byte against the in-process one.
    if let Some(path) = summary_out {
        write_json(&path, "summary", serde_json::to_string(&result))?;
    }
    if let (Some(path), Some(report)) = (bench_out, &report) {
        write_json(&path, "serving report", serde_json::to_string_pretty(report))?;
    }
    Ok(())
}

/// Writes one serialized output file and says so.
fn write_json(path: &str, what: &str, json: Result<String, serde_json::Error>) -> CliResult {
    let json = json.map_err(|e| format!("serializing {what}: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("{what} written to {path}");
    Ok(())
}

/// Resolves the scenario argument exactly like `dpbfl-exp` and picks one
/// cell: the only one when the grid is trivial, else the `--cell` index
/// (one server serves one run, not a sweep).
fn resolve_cell(arg: &str, cell: Option<usize>) -> Result<SimulationConfig, String> {
    let spec = registry::resolve(arg)?;
    spec.check()?;
    let mut cells = spec.cells();
    let index = match cell {
        Some(index) if index < cells.len() => index,
        Some(index) => {
            return Err(format!(
                "`{}` has cells 0..{}; --cell {index} is out of range",
                spec.name,
                cells.len()
            ));
        }
        None if cells.len() == 1 => 0,
        None => {
            return Err(format!(
                "`{}` expands to {} cells; dpbfl-server serves exactly one (pass --cell N, \
                 or pick a 1-cell scenario such as serving/loopback_smoke)",
                spec.name,
                cells.len()
            ));
        }
    };
    Ok(cells.swap_remove(index).config)
}
