//! `dpbfl-exp` — the experiment-grid CLI.
//!
//! ```text
//! dpbfl-exp list
//! dpbfl-exp show <scenario|file.json>
//! dpbfl-exp validate <file.json>
//! dpbfl-exp run <scenario|file.json> [--threads N|auto] [--out DIR] [--resume] [--quiet]
//!               [--metrics-dir DIR]
//! dpbfl-exp report <scenario|file.json> [--out DIR]
//! dpbfl-exp metrics <ledger.jsonl>
//! dpbfl-exp docs [--out FILE] [--check]
//! dpbfl-exp perf record --workload W --seed S [--trace 1] [--repo DIR]
//! ```
//!
//! A scenario argument is first resolved against the built-in registry
//! (`dpbfl-exp list`), then as a JSON spec file path.

use dpbfl_harness::runner::{self, RunOptions};
use dpbfl_harness::{docs, registry, report, sink, ScenarioSpec};
use std::path::{Path, PathBuf};

fn main() {
    std::process::exit(real_main());
}

const USAGE: &str = "dpbfl-exp — dpbfl experiment grids

USAGE:
    dpbfl-exp list
    dpbfl-exp show <scenario|file.json>
    dpbfl-exp validate <file.json>
    dpbfl-exp run <scenario|file.json> [--threads N|auto] [--out DIR] [--resume] [--quiet]
                  [--metrics-dir DIR]
    dpbfl-exp report <scenario|file.json> [--out DIR]
    dpbfl-exp metrics <ledger.jsonl>
    dpbfl-exp docs [--out FILE] [--check]
    dpbfl-exp perf record --workload W --seed S [--trace 1] [--repo DIR]

A scenario grid expands into cells (cartesian product of the spec's sweep
axes, plus any labeled `include` rows); `run` executes them in parallel —
bit-identical at any thread count — and writes results.jsonl, report.md,
report.csv and BENCH_harness.json under OUT/<scenario>/ (OUT defaults to
target/harness). With --resume, cells whose content key already sits in
results.jsonl are skipped.

With --metrics-dir, every executed cell additionally records a telemetry
ledger DIR/cell_<index>.jsonl (deterministic per-round metrics first, then
wall-clock spans/events) and the reports gain mean-acceptance and ledger-ε
columns; results are byte-identical with or without it. `metrics` renders
one such ledger as a per-round table plus span totals.

`docs` renders the built-in registry into the scenario catalog
(docs/SCENARIOS.md by default); --check exits non-zero instead of writing
when the file on disk is stale.

`perf record` runs the repository benchmark (the `command` of
BENCHMARK.json, at its `run_seconds`) for one workload and appends one row
{git, host, workload, seed, seconds, attempted, failed, metrics} to
BENCH_e2e.json (with --trace 1: the per-layer metrics, to BENCH_layers.json)
in the current directory. --repo names the checkout whose BENCHMARK.json is
read and whose benchmark is built and run (default: the current directory):
point it at a checkout of the parent commit to record the other side of a
parent/change pair into the same files.";

fn real_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return 2;
    };
    match command {
        "list" => list(),
        "show" => with_scenario(&args, |spec| match serde_json::to_string_pretty(&spec) {
            Ok(json) => {
                println!("{json}");
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        }),
        "validate" => validate(&args),
        "run" => run(&args),
        "report" => regenerate_report(&args),
        "metrics" => render_metrics(&args),
        "docs" => write_docs(&args),
        "perf" => perf(&args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            0
        }
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            2
        }
    }
}

fn list() -> i32 {
    println!("{:<24} {:>6}  title", "scenario", "cells");
    for name in registry::names() {
        let spec = registry::get(name).expect("registered");
        println!("{name:<24} {:>6}  {}", spec.n_cells(), spec.title);
    }
    println!("\nrun one with: dpbfl-exp run <scenario>");
    0
}

/// Resolves a scenario argument: registry name first, then spec file path.
fn resolve(arg: &str) -> Result<ScenarioSpec, String> {
    if let Some(spec) = registry::get(arg) {
        return Ok(spec);
    }
    let path = Path::new(arg);
    if path.exists() {
        return ScenarioSpec::load(path);
    }
    Err(unknown_scenario_message(arg))
}

/// The error for an argument that is neither a registered scenario nor a
/// file: the full catalog grouped by prefix, plus a nearest-match guess
/// when the argument looks like a typo of a registered name.
fn unknown_scenario_message(arg: &str) -> String {
    let mut msg =
        format!("`{arg}` is neither a built-in scenario nor a spec file.\n\nbuilt-in scenarios:");
    for (prefix, members) in registry::grouped_names() {
        msg.push_str(&format!("\n  {prefix}/"));
        for name in members {
            msg.push_str(&format!("\n    {name}"));
        }
    }
    if let Some(close) = registry::suggest(arg) {
        msg.push_str(&format!("\n\ndid you mean `{close}`?"));
    }
    msg
}

fn with_scenario(args: &[String], f: impl FnOnce(ScenarioSpec) -> i32) -> i32 {
    let Some(arg) = args.get(1) else {
        eprintln!("error: missing <scenario> argument\n\n{USAGE}");
        return 2;
    };
    match resolve(arg) {
        Ok(spec) => f(spec),
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn validate(args: &[String]) -> i32 {
    let Some(arg) = args.get(1) else {
        eprintln!("error: missing <file.json> argument\n\n{USAGE}");
        return 2;
    };
    let spec = match ScenarioSpec::load(Path::new(arg)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let problems = spec.validate();
    if !problems.is_empty() {
        eprintln!("error: `{}` has {} problem(s):", spec.name, problems.len());
        for problem in &problems {
            eprintln!("  - {problem}");
        }
        return 1;
    }
    println!("ok: `{}` expands to {} cells", spec.name, spec.n_cells());
    0
}

/// Parses the flags shared by `run` and `report`.
struct Flags {
    threads: Option<usize>,
    out_dir: PathBuf,
    resume: bool,
    quiet: bool,
    metrics_dir: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        threads: None,
        out_dir: PathBuf::from("target/harness"),
        resume: false,
        quiet: false,
        metrics_dir: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let value = args.get(i + 1).ok_or_else(|| "--threads needs a value".to_string())?;
                flags.threads = runner::parse_threads(value)?;
                i += 2;
            }
            "--out" => {
                let value = args.get(i + 1).ok_or_else(|| "--out needs a value".to_string())?;
                flags.out_dir = PathBuf::from(value);
                i += 2;
            }
            "--metrics-dir" => {
                let value =
                    args.get(i + 1).ok_or_else(|| "--metrics-dir needs a value".to_string())?;
                flags.metrics_dir = Some(PathBuf::from(value));
                i += 2;
            }
            "--resume" => {
                flags.resume = true;
                i += 1;
            }
            "--quiet" => {
                flags.quiet = true;
                i += 1;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

fn run(args: &[String]) -> i32 {
    let flags = match parse_flags(args.get(2..).unwrap_or(&[])) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    with_scenario(args, |spec| {
        let opts = RunOptions {
            threads: flags.threads,
            out_dir: flags.out_dir,
            resume: flags.resume,
            quiet: flags.quiet,
            metrics_dir: flags.metrics_dir.clone(),
        };
        match runner::run_grid(&spec, &opts) {
            Ok(outcome) => {
                if !flags.quiet {
                    println!(
                        "{}",
                        report::markdown_with_metrics(
                            &spec,
                            &outcome.records,
                            &outcome.cell_metrics
                        )
                    );
                }
                println!(
                    "ran {} cells, skipped {} (resume), {} ms",
                    outcome.ran, outcome.skipped, outcome.wall_ms
                );
                println!("results: {}", outcome.jsonl_path.display());
                println!("reports: {}", outcome.scenario_dir.join("report.md").display());
                if let Some(dir) = &flags.metrics_dir {
                    println!(
                        "metrics: {} ({} cell ledger(s))",
                        dir.display(),
                        outcome.cell_metrics.len()
                    );
                }
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        }
    })
}

/// `docs`: render the registry catalog to `docs/SCENARIOS.md` (or `--out`),
/// or verify freshness with `--check`.
fn write_docs(args: &[String]) -> i32 {
    let mut out = PathBuf::from("docs/SCENARIOS.md");
    let mut check = false;
    let rest = args.get(1..).unwrap_or(&[]);
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--out" => {
                let Some(value) = rest.get(i + 1) else {
                    eprintln!("error: --out needs a value\n\n{USAGE}");
                    return 2;
                };
                out = PathBuf::from(value);
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            other => {
                eprintln!("error: unknown flag `{other}`\n\n{USAGE}");
                return 2;
            }
        }
    }
    let rendered = docs::scenarios_markdown();
    if check {
        return match std::fs::read_to_string(&out) {
            Ok(current) if current == rendered => {
                println!("ok: {} is up to date", out.display());
                0
            }
            Ok(_) => {
                eprintln!(
                    "error: {} is stale — regenerate it with `dpbfl-exp docs`",
                    out.display()
                );
                1
            }
            Err(e) => {
                eprintln!("error: {}: {e}", out.display());
                1
            }
        };
    }
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: {}: {e}", parent.display());
                return 1;
            }
        }
    }
    if let Err(e) = std::fs::write(&out, &rendered) {
        eprintln!("error: {}: {e}", out.display());
        return 1;
    }
    println!(
        "wrote {} ({} scenarios, {} lines)",
        out.display(),
        registry::names().count(),
        rendered.lines().count()
    );
    0
}

/// `metrics <ledger.jsonl>`: render one cell's telemetry ledger as a
/// per-round table (the deterministic section), followed by wall-clock
/// span totals and any events.
fn render_metrics(args: &[String]) -> i32 {
    let Some(arg) = args.get(1) else {
        eprintln!("error: missing <ledger.jsonl> argument\n\n{USAGE}");
        return 2;
    };
    let text = match std::fs::read_to_string(arg) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: {arg}: {e}");
            return 1;
        }
    };
    let records = match dpbfl_telemetry::parse_ledger(&text) {
        Ok(records) => records,
        Err(e) => {
            eprintln!("error: {arg}: {e}");
            return 1;
        }
    };

    println!(
        "| round | cohort | accept | rej nf/norm/ks/drop | ks fast/exact | selected | \
         score mean [min, max] | retained B | ε |"
    );
    println!("{}|", "|---".repeat(9));
    for m in records.iter().filter_map(|r| r.round.as_ref()) {
        println!(
            "| {} | {} | {} | {}/{}/{}/{} | {}/{} | {} | {:.4} [{:.4}, {:.4}] | {} | {} |",
            m.round,
            m.cohort,
            m.accepted,
            m.rejected_non_finite,
            m.rejected_norm,
            m.rejected_ks,
            m.rejected_dropped,
            m.ks_fast_path,
            m.ks_exact_fallback,
            m.selected,
            m.scores.mean,
            m.scores.min,
            m.scores.max,
            m.retained_exact_bytes + m.retained_quantized_bytes,
            m.achieved_epsilon.map_or("∞".into(), |e| format!("{e:.3}")),
        );
    }

    // Span totals, in first-appearance order.
    let mut totals: Vec<(String, u64, u64)> = Vec::new();
    for s in records.iter().filter_map(|r| r.span.as_ref()) {
        match totals.iter_mut().find(|(name, _, _)| *name == s.name) {
            Some((_, count, micros)) => {
                *count += 1;
                *micros += s.micros;
            }
            None => totals.push((s.name.clone(), 1, s.micros)),
        }
    }
    if !totals.is_empty() {
        println!("\nspan totals (wall clock — excluded from determinism parity):");
        for (name, count, micros) in &totals {
            println!("  {name:<14} {count:>5}× {:>10.1} ms total", *micros as f64 / 1e3);
        }
    }
    let events: Vec<_> = records.iter().filter_map(|r| r.event.as_ref()).collect();
    if !events.is_empty() {
        println!("\nevents:");
        for e in events {
            let round = e.round.map_or(String::new(), |r| format!(" [round {r}]"));
            println!("  {}{round}: {}", e.name, e.detail);
        }
    }
    0
}

fn regenerate_report(args: &[String]) -> i32 {
    let flags = match parse_flags(args.get(2..).unwrap_or(&[])) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    with_scenario(args, |spec| {
        let scenario_dir = flags.out_dir.join(runner::slug(&spec.name));
        let jsonl_path = scenario_dir.join("results.jsonl");
        let records = match sink::load_records(&jsonl_path) {
            Ok(records) => records,
            Err(e) => {
                eprintln!("error: {e} (run the scenario first?)");
                return 1;
            }
        };
        // Keep only records belonging to the current grid, in cell order,
        // re-deriving provenance (index, axes, config) from the *current*
        // expansion — stored indices may predate a spec edit (the content
        // key guarantees the config itself is unchanged).
        let cells = spec.cells();
        let by_key: std::collections::HashMap<&str, &dpbfl_harness::CellRecord> =
            records.iter().map(|r| (r.key.as_str(), r)).collect();
        let mut current = Vec::new();
        for cell in &cells {
            match by_key.get(cell.key.as_str()) {
                Some(record) => current.push(dpbfl_harness::CellRecord {
                    scenario: spec.name.clone(),
                    cell: cell.index,
                    key: cell.key.clone(),
                    axes: cell.axes.clone(),
                    config: cell.config.clone(),
                    summary: record.summary.clone(),
                }),
                None => {
                    eprintln!(
                        "error: cell {} ({}) missing from {} — run with --resume to fill it",
                        cell.index,
                        cell.key,
                        jsonl_path.display()
                    );
                    return 1;
                }
            }
        }
        let md = report::markdown(&spec, &current);
        let md_path = scenario_dir.join("report.md");
        if let Err(e) = std::fs::write(&md_path, &md) {
            eprintln!("error: {}: {e}", md_path.display());
            return 1;
        }
        let csv_path = scenario_dir.join("report.csv");
        if let Err(e) = std::fs::write(&csv_path, report::csv(&current)) {
            eprintln!("error: {}: {e}", csv_path.display());
            return 1;
        }
        println!("{md}");
        println!("reports regenerated under {}", scenario_dir.display());
        0
    })
}

/// `perf record`: one benchmark run → one row of `BENCH_e2e.json` or
/// `BENCH_layers.json`.
fn perf(args: &[String]) -> i32 {
    if args.get(1).map(String::as_str) != Some("record") {
        eprintln!("error: `perf` has one subcommand, `record`\n\n{USAGE}");
        return 2;
    }
    let (mut workload, mut seed, mut trace, mut repo) = (None, None, false, PathBuf::from("."));
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            eprintln!("error: {flag} needs a value\n\n{USAGE}");
            return 2;
        };
        match (flag.as_str(), value.as_str()) {
            ("--workload", name) => workload = Some(name),
            ("--seed", n) => seed = n.parse::<u64>().ok(),
            ("--trace", "0") => trace = false,
            ("--trace", "1") => trace = true,
            ("--repo", dir) => repo = PathBuf::from(dir),
            _ => {
                eprintln!("error: bad argument `{flag} {value}`\n\n{USAGE}");
                return 2;
            }
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        eprintln!("error: perf record needs --workload and a numeric --seed\n\n{USAGE}");
        return 2;
    };
    match perf_record(&repo, workload, seed, trace) {
        Ok(file) => {
            println!("appended one {workload} row (seed {seed}) to {file}");
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn perf_record(
    repo: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<&'static str, String> {
    use serde::Value;
    let contract_path = repo.join("BENCHMARK.json");
    let contract = std::fs::read_to_string(&contract_path)
        .map_err(|e| format!("{}: {e}", contract_path.display()))
        .and_then(|text| serde_json::parse_value(&text).map_err(|e| e.to_string()))?;
    let command: Vec<&str> = match contract.get("command") {
        Some(Value::Arr(words)) => words
            .iter()
            .filter_map(|w| if let Value::Str(w) = w { Some(w.as_str()) } else { None })
            .collect(),
        _ => Vec::new(),
    };
    let Some((program, fixed_args)) = command.split_first() else {
        return Err("BENCHMARK.json: `command` must be a non-empty array of strings".to_owned());
    };
    let seconds = contract
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json: `run_seconds` must be a number")?;

    let output = std::process::Command::new(program)
        .args(fixed_args)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .current_dir(repo)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {program}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let run = parse_benchmark_output(&stdout)?;
    if !(output.status.success() && run.correct) {
        return Err(format!("the {workload} run failed its checks; nothing recorded\n{stdout}"));
    }

    let row = Value::Obj(vec![
        ("git".to_owned(), Value::Str(run.git)),
        ("host".to_owned(), Value::Str(run.host)),
        ("workload".to_owned(), Value::Str(workload.to_owned())),
        ("seed".to_owned(), Value::UInt(seed)),
        ("seconds".to_owned(), Value::Float(seconds)),
        ("attempted".to_owned(), run.attempted),
        ("failed".to_owned(), run.failed),
        ("metrics".to_owned(), Value::Obj(run.metrics)),
    ]);
    let file = if trace { "BENCH_layers.json" } else { "BENCH_e2e.json" };
    append_row(Path::new(file), row)?;
    Ok(file)
}

/// What `perf record` keeps of one benchmark run's standard output.
struct BenchmarkRun {
    /// The benchmark's own fingerprint of machine and build (its `host: `
    /// line), split at the commit it ends with: the `HEAD` of the checkout
    /// the benchmark was built in. Record from a committed tree.
    host: String,
    git: String,
    correct: bool,
    attempted: serde::Value,
    failed: serde::Value,
    /// `name → value`; the units live in `BENCHMARK.json`.
    metrics: Vec<(String, serde::Value)>,
}

/// Parses the benchmark's output contract: the last line is one JSON object
/// `{correct, attempted, failed, metrics: {name: {value, unit}}}`.
fn parse_benchmark_output(stdout: &str) -> Result<BenchmarkRun, String> {
    use serde::Value;
    let last = stdout.lines().last().unwrap_or("");
    let doc = serde_json::parse_value(last)
        .map_err(|e| format!("the benchmark's last output line is no result object ({e})"))?;
    let field = |key: &str| doc.get(key).ok_or(format!("result line has no `{key}`"));
    let Value::Obj(metrics) = field("metrics")? else {
        return Err("result line: `metrics` is not an object".to_owned());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            value.map(|v| (name.clone(), Value::Float(v))).ok_or(format!("{name}: no value"))
        })
        .collect::<Result<_, _>>()?;
    let fingerprint = stdout.lines().find_map(|l| l.strip_prefix("host: ")).unwrap_or("unknown");
    let (host, git) = fingerprint.rsplit_once(", git ").unwrap_or((fingerprint, "unknown"));
    Ok(BenchmarkRun {
        host: host.to_owned(),
        git: git.to_owned(),
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: field("attempted")?.clone(),
        failed: field("failed")?.clone(),
        metrics,
    })
}

/// Appends `row` to the JSON array in `path` (created when missing), one
/// row per line so a commit's diff shows exactly the rows it added.
fn append_row(path: &Path, row: serde::Value) -> Result<(), String> {
    let mut rows = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::parse_value(&text) {
            Ok(serde::Value::Arr(rows)) => rows,
            _ => return Err(format!("{}: not a JSON array of rows", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    rows.push(row);
    let lines: Vec<String> = rows
        .iter()
        .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_record_parses_the_benchmark_result_line() {
        let stdout = "host: nproc 2, load threads 2, linux x86_64, rustc 1.0, git abc1234\n\
            workload headline_inproc (seed 7): why\n  unit  0: wall 1.0 s\n\
            {\"correct\": true, \"attempted\": 6250, \"failed\": 0, \"metrics\": \
            {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
            \"peak_rss_mib\": {\"value\": 101, \"unit\": \"MiB\"}}}\n";
        let run = parse_benchmark_output(stdout).expect("fixture parses");
        assert!(run.correct);
        assert_eq!(run.host, "nproc 2, load threads 2, linux x86_64, rustc 1.0");
        assert_eq!(run.git, "abc1234");
        assert_eq!(run.attempted.as_f64(), Some(6250.0));
        assert_eq!(run.failed.as_f64(), Some(0.0));
        let metrics: Vec<(&str, f64)> =
            run.metrics.iter().map(|(n, v)| (n.as_str(), v.as_f64().unwrap())).collect();
        assert_eq!(metrics, [("setup_s", 0.25), ("peak_rss_mib", 101.0)]);

        let failed = stdout.replace("\"correct\": true", "\"correct\": false");
        assert!(!parse_benchmark_output(&failed).expect("still a result line").correct);
        assert!(parse_benchmark_output("host: x\nno result here\n").is_err());
    }
}
