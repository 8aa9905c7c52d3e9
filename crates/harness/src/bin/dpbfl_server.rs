//! `dpbfl-server` — serve one training run over TCP or Unix-domain sockets.
//!
//! ```text
//! dpbfl-server <scenario|file.json> [--listen ADDR] [--deadline-ms N]
//!              [--cell N] [--summary-out FILE] [--bench-out FILE]
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

The scenario must expand to exactly one cell. Point one or more
dpbfl-client processes at the printed address; together they must claim
every printed worker index before training starts.";

fn main() {
    std::process::exit(real_main());
}

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{USAGE}");
        return if args.is_empty() { 2 } else { 0 };
    }
    let scenario = &args[0];
    let mut listen = "tcp://127.0.0.1:0".to_string();
    let mut policy = RoundPolicy::default();
    let mut summary_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut cell: Option<usize> = None;
    let mut in_process = false;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--in-process" {
            in_process = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            eprintln!("error: {flag} needs a value\n\n{USAGE}");
            return 2;
        };
        match flag {
            "--listen" => listen = value.clone(),
            "--deadline-ms" => match value.parse() {
                Ok(ms) => policy.deadline_ms = ms,
                Err(_) => {
                    eprintln!("error: --deadline-ms wants an integer, got `{value}`");
                    return 2;
                }
            },
            "--cell" => match value.parse() {
                Ok(n) => cell = Some(n),
                Err(_) => {
                    eprintln!("error: --cell wants a cell index, got `{value}`");
                    return 2;
                }
            },
            "--summary-out" => summary_out = Some(value.clone()),
            "--bench-out" => bench_out = Some(value.clone()),
            "--metrics-out" => metrics_out = Some(value.clone()),
            other => {
                eprintln!("error: unknown flag `{other}`\n\n{USAGE}");
                return 2;
            }
        }
        i += 2;
    }

    let cfg = match resolve_cell(scenario, cell) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
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
        let server = match BoundServer::bind(&listen) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        println!("listening on {}", server.local_addr());
        println!(
            "waiting for clients to claim workers 0..{} (e.g. dpbfl-client --connect {} --workers 0-{})",
            workers.len(),
            server.local_addr(),
            workers.len().saturating_sub(1),
        );
        match server.serve_telemetry(&cfg, &policy, &tel) {
            Ok((result, report)) => (result, Some(report)),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    };
    if let Some(path) = &metrics_out {
        match tel.flush() {
            Ok(()) => println!("telemetry ledger written to {path}"),
            Err(e) => {
                eprintln!("error: writing {path}: {e}");
                return 1;
            }
        }
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

    if let Some(path) = summary_out {
        let json = match serde_json::to_string(&result) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: serializing summary: {e}");
                return 1;
            }
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
        println!("summary written to {path}");
    }
    if let (Some(path), Some(report)) = (bench_out, &report) {
        let json = match serde_json::to_string_pretty(report) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("error: serializing report: {e}");
                return 1;
            }
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: writing {path}: {e}");
            return 1;
        }
        println!("serving report written to {path}");
    }
    0
}

/// Resolves the scenario argument exactly like `dpbfl-exp` and picks one
/// cell: the only one when the grid is trivial, else the `--cell` index
/// (one server serves one run, not a sweep).
fn resolve_cell(arg: &str, cell: Option<usize>) -> Result<SimulationConfig, String> {
    let spec = registry::resolve(arg)?;
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
