//! `dpbfl-exp` — the experiment-grid CLI.
//!
//! ```text
//! dpbfl-exp list
//! dpbfl-exp show <scenario|file.json>
//! dpbfl-exp validate <file.json>
//! dpbfl-exp run <scenario|file.json> [--threads N|auto] [--out DIR] [--resume] [--quiet]
//!               [--metrics-dir DIR]
//! dpbfl-exp report <scenario|file.json> [--out DIR] [--metrics-dir DIR]
//! dpbfl-exp metrics <ledger.jsonl>
//! dpbfl-exp docs [--out FILE] [--check]
//! dpbfl-exp perf record --workload W --seed S [--trace 1] [--repo DIR]
//! dpbfl-exp perf compare --base GIT --head GIT [--workload W]
//! ```
//!
//! A scenario argument is first resolved against the built-in registry
//! (`dpbfl-exp list`), then as a JSON spec file path.

use dpbfl_harness::cli::{self, Args, CliError, CliResult};
use dpbfl_harness::runner::{self, RunOptions};
use dpbfl_harness::{docs, perf, registry, report, sink, ScenarioSpec};
use std::path::{Path, PathBuf};

fn main() {
    cli::main(USAGE, |mut args| match args.positional("command")?.as_str() {
        "list" => list(args),
        "show" => show(args),
        "validate" => validate(args),
        "run" => run(args),
        "report" => regenerate_report(args),
        "metrics" => render_metrics(args),
        "docs" => write_docs(args),
        "perf" => perf(args),
        "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    })
}

const USAGE: &str = "dpbfl-exp — dpbfl experiment grids

USAGE:
    dpbfl-exp list
    dpbfl-exp show <scenario|file.json>
    dpbfl-exp validate <file.json>
    dpbfl-exp run <scenario|file.json> [--threads N|auto] [--out DIR] [--resume] [--quiet]
                  [--metrics-dir DIR]
    dpbfl-exp report <scenario|file.json> [--out DIR] [--metrics-dir DIR]
    dpbfl-exp metrics <ledger.jsonl>
    dpbfl-exp docs [--out FILE] [--check]
    dpbfl-exp perf record --workload W --seed S [--trace 1] [--repo DIR]
    dpbfl-exp perf compare --base GIT --head GIT [--workload W]

A scenario grid expands into cells (cartesian product of the spec's sweep
axes, plus any labeled `include` rows); `run` executes them in parallel —
bit-identical at any thread count — and writes results.jsonl, report.md,
report.csv and BENCH_harness.json under OUT/<scenario>/ (OUT defaults to
target/harness). With --resume, cells whose content key already sits in
results.jsonl are skipped.

With --metrics-dir, every executed cell additionally records a telemetry
ledger DIR/cell_<index>.jsonl (deterministic per-round metrics first, then
wall-clock spans/events) and the reports gain mean-acceptance and ledger-ε
columns; results are byte-identical with or without it. `report` rewrites
report.md and report.csv from results.jsonl (and, with --metrics-dir, from
the ledgers a run left there). `metrics` renders one ledger as a per-round
table plus span totals.

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
parent/change pair into the same files.

`perf compare` reads the BENCH_e2e.json rows in the current directory whose
`git` is the base (parent) or the head (change) commit, pairs alternation
partners only (a parent row and a change row next to each other in the
workload's rows, of any commit, in file order, with the same seed and host),
and prints one table per workload: for every
end-to-end metric of BENCHMARK.json, q1 / median / q3 of each side (linear
interpolation between closest ranks), the median change, the change's wins,
the bound and a verdict. `unmeasurable`: the parent's own spread (q3 − q1
over its median) exceeds the bound. `outside`: the change's median is worse
than the parent's by more than the bound (the exit status is then 1).
`within`: neither. The `gain` column reads `yes` when the change won at least
9 in 10 of the pairs and its median beats the parent's by more than the
parent's q3 − q1: the rule a claimed improvement must meet.";

fn list(args: Args) -> CliResult {
    args.finish()?;
    println!("{:<24} {:>6}  title", "scenario", "cells");
    for name in registry::names() {
        let spec = registry::get(name).expect("registered");
        println!("{name:<24} {:>6}  {}", spec.n_cells(), spec.title);
    }
    println!("\nrun one with: dpbfl-exp run <scenario>");
    Ok(())
}

fn show(mut args: Args) -> CliResult {
    let arg = args.positional("scenario")?;
    args.finish()?;
    let spec = registry::resolve(&arg)?;
    println!("{}", serde_json::to_string_pretty(&spec).map_err(|e| e.to_string())?);
    Ok(())
}

fn validate(mut args: Args) -> CliResult {
    let path = args.positional("file.json")?;
    args.finish()?;
    let spec = ScenarioSpec::load(Path::new(&path))?;
    spec.check()?;
    println!("ok: `{}` expands to {} cells", spec.name, spec.n_cells());
    Ok(())
}

/// `--out DIR` and `--metrics-dir DIR`, the flags `run` and `report` share.
fn output_options(args: &mut Args) -> Result<RunOptions, CliError> {
    let mut opts = RunOptions::default();
    if let Some(dir) = args.value("--out")? {
        opts.out_dir = dir.into();
    }
    opts.metrics_dir = args.value("--metrics-dir")?.map(PathBuf::from);
    Ok(opts)
}

fn run(mut args: Args) -> CliResult {
    let arg = args.positional("scenario")?;
    let mut opts = output_options(&mut args)?;
    let threads = args.value("--threads")?;
    opts.threads =
        threads.map_or(Ok(None), |t| runner::parse_threads(&t)).map_err(CliError::Usage)?;
    opts.resume = args.switch("--resume");
    opts.quiet = args.switch("--quiet");
    args.finish()?;
    let spec = registry::resolve(&arg)?;
    let outcome = runner::run_grid(&spec, &opts)?;
    if !opts.quiet {
        println!("{}", report::markdown(&spec, &outcome.records, &outcome.cell_metrics));
    }
    println!(
        "ran {} cells, skipped {} (resume), {} ms",
        outcome.ran, outcome.skipped, outcome.wall_ms
    );
    println!("results: {}", outcome.jsonl_path.display());
    println!("reports: {}", outcome.scenario_dir.join("report.md").display());
    if let Some(dir) = &opts.metrics_dir {
        let n = outcome.cell_metrics.len();
        println!("metrics: {} ({n} cell ledger(s))", dir.display());
    }
    Ok(())
}

/// `docs`: render the registry catalog to `docs/SCENARIOS.md` (or `--out`),
/// or verify freshness with `--check`.
fn write_docs(mut args: Args) -> CliResult {
    let out = PathBuf::from(args.value("--out")?.unwrap_or_else(|| "docs/SCENARIOS.md".into()));
    let check = args.switch("--check");
    args.finish()?;
    let rendered = docs::scenarios_markdown();
    if check {
        if std::fs::read_to_string(&out).map_err(at(&out))? != rendered {
            let stale = format!("{} is stale — regenerate it with `dpbfl-exp docs`", out.display());
            return Err(stale.into());
        }
        println!("ok: {} is up to date", out.display());
        return Ok(());
    }
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(at(parent))?;
    }
    std::fs::write(&out, &rendered).map_err(at(&out))?;
    println!(
        "wrote {} ({} scenarios, {} lines)",
        out.display(),
        registry::names().count(),
        rendered.lines().count()
    );
    Ok(())
}

/// Prefixes an error with the path it happened at.
fn at<E: std::fmt::Display>(path: &Path) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// `metrics <ledger.jsonl>`: render one cell's telemetry ledger as a
/// per-round table (the deterministic section), followed by wall-clock
/// span totals and any events.
fn render_metrics(mut args: Args) -> CliResult {
    let path = PathBuf::from(args.positional("ledger.jsonl")?);
    args.finish()?;
    let text = std::fs::read_to_string(&path).map_err(at(&path))?;
    let records = dpbfl_telemetry::parse_ledger(&text).map_err(at(&path))?;
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
    Ok(())
}

fn regenerate_report(mut args: Args) -> CliResult {
    let arg = args.positional("scenario")?;
    let opts = output_options(&mut args)?;
    args.finish()?;
    let spec = registry::resolve(&arg)?;
    let scenario_dir = opts.out_dir.join(runner::slug(&spec.name));
    let jsonl_path = scenario_dir.join("results.jsonl");
    let records =
        sink::load_records(&jsonl_path).map_err(|e| format!("{e} (run the scenario first?)"))?;
    // Keep only records belonging to the current grid, in cell order,
    // re-deriving provenance (index, axes, config) from the *current*
    // expansion — stored indices may predate a spec edit (the content
    // key guarantees the config itself is unchanged).
    let by_key: std::collections::HashMap<&str, &dpbfl_harness::CellRecord> =
        records.iter().map(|r| (r.key.as_str(), r)).collect();
    let current = spec
        .cells()
        .iter()
        .map(|cell| match by_key.get(cell.key.as_str()) {
            Some(record) => Ok(runner::record_for(&spec, cell, record.summary.clone())),
            None => Err(format!(
                "cell {} ({}) missing from {} — run with --resume to fill it",
                cell.index,
                cell.key,
                jsonl_path.display()
            )),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = opts
        .metrics_dir
        .as_deref()
        .map_or_else(Default::default, |dir| report::digest_ledgers(dir, &current));
    let md = report::write_tables(&spec, &scenario_dir, &current, &metrics)?;
    println!("{md}");
    println!("reports regenerated under {}", scenario_dir.display());
    Ok(())
}

/// `perf record` or `perf compare`.
fn perf(mut args: Args) -> CliResult {
    match args.positional("subcommand").ok().as_deref() {
        Some("record") => perf_record_command(args),
        Some("compare") => perf_compare_command(args),
        _ => Err(CliError::Usage("`perf` has two subcommands, `record` and `compare`".into())),
    }
}

/// `perf record`: one benchmark run → one row of `BENCH_e2e.json` or
/// `BENCH_layers.json`.
fn perf_record_command(mut args: Args) -> CliResult {
    let workload = args.value("--workload")?;
    let seed = args.value("--seed")?.and_then(|s| s.parse::<u64>().ok());
    let trace = match args.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(CliError::Usage(format!("bad argument `--trace {other}`"))),
    };
    let repo = PathBuf::from(args.value("--repo")?.unwrap_or_else(|| ".".into()));
    args.finish()?;
    let (Some(workload), Some(seed)) = (workload, seed) else {
        let message = "perf record needs --workload and a numeric --seed";
        return Err(CliError::Usage(message.into()));
    };
    let file = perf::record(&repo, &workload, seed, trace)?;
    println!("appended one {workload} row (seed {seed}) to {file}");
    Ok(())
}

/// `perf compare`: the committed parent/change pairs of two commits, one
/// table per workload.
fn perf_compare_command(mut args: Args) -> CliResult {
    let (base, head) = (args.value("--base")?, args.value("--head")?);
    let workload = args.value("--workload")?;
    args.finish()?;
    let (Some(base), Some(head)) = (base, head) else {
        return Err(CliError::Usage("perf compare needs --base and --head".into()));
    };
    let (text, outside) = perf::compare(&base, &head, workload.as_deref())?;
    print!("{text}");
    if outside {
        return Err("a metric is outside its bound".to_owned().into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl_harness::perf::{compare_rows, parse_benchmark_output};

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

    /// `BENCHMARK.json` and `BENCH_e2e.json` as committed at the repo root.
    fn committed(file: &str) -> serde::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(file);
        let text = std::fs::read_to_string(&path).expect("committed file");
        serde_json::parse_value(&text).expect("valid JSON")
    }

    #[test]
    #[rustfmt::skip]
    fn perf_compare_reproduces_the_hand_computed_pair_tables() {
        // The tables CHANGES.md holds for the pooled-shard preparation
        // (parent cd4d385, change 5a6c87f), computed by hand from the same
        // rows: heading, then metric / parent / change / Δ / wins per row.
        let expected = [
            ("omniscient_inproc (16 pairs, seed 1)", [
                "| `setup_s` | 0.06486 / 0.06743 / 0.07119 | 0.06699 / 0.07072 / 0.07834 | +4.9 % | 4/16 |",
                "| `uploads_per_s` | 4604 / 4913 / 5144 | 3986 / 4757 / 5197 | -3.2 % | 5/16 |",
                "| `round_ms_p50` | 13.79 / 14.31 / 16.71 | 13.72 / 15.51 / 19.56 | +8.4 % | 4/16 |",
                "| `cpu_ms_per_upload` | 0.3495 / 0.3617 / 0.3926 | 0.3472 / 0.3693 / 0.439 | +2.1 % | 6/16 |",
                "| `peak_rss_mib` | 39.26 / 39.3 / 39.36 | 31.53 / 31.61 / 31.68 | -19.6 % | 16/16 |",
            ]),
            ("headline_inproc (5 pairs, seed 1)", [
                "| `setup_s` | 0.1842 / 0.2002 / 0.2117 | 0.144 / 0.1564 / 0.1656 | -21.9 % | 5/5 |",
                "| `uploads_per_s` | 801.1 / 820.7 / 887.5 | 930 / 958.5 / 970.2 | +16.8 % | 5/5 |",
                "| `round_ms_p50` | 27.69 / 29.28 / 30.19 | 25.85 / 26.48 / 26.98 | -9.6 % | 5/5 |",
                "| `cpu_ms_per_upload` | 2.027 / 2.266 / 2.298 | 1.853 / 1.901 / 1.952 | -16.1 % | 4/5 |",
                "| `peak_rss_mib` | 101 / 101 / 101.1 | 63.63 / 63.71 / 63.74 | -36.9 % | 5/5 |",
            ]),
            ("scale_ondemand (5 pairs, seed 1)", [
                "| `setup_s` | 0.008612 / 0.008636 / 0.009141 | 0.008606 / 0.009012 / 0.01053 | +4.4 % | 2/5 |",
                "| `uploads_per_s` | 1609 / 1698 / 1709 | 1676 / 1691 / 1772 | -0.4 % | 4/5 |",
                "| `round_ms_p50` | 302.7 / 307.2 / 321.9 | 292.5 / 305.6 / 320.3 | -0.5 % | 4/5 |",
                "| `cpu_ms_per_upload` | 1.01 / 1.022 / 1.112 | 0.9969 / 1.04 / 1.047 | +1.8 % | 3/5 |",
                "| `peak_rss_mib` | 35.97 / 36.02 / 36.18 | 36.1 / 36.12 / 36.13 | +0.3 % | 2/5 |",
            ]),
            ("ingest_tcp (11 pairs, seed 1)", [
                "| `setup_s` | 0.0622 / 0.06352 / 0.06678 | 0.01386 / 0.01511 / 0.01739 | -76.2 % | 11/11 |",
                "| `uploads_per_s` | 1692 / 1824 / 1851 | 1683 / 1722 / 1828 | -5.6 % | 6/11 |",
                "| `round_ms_p50` | 16.11 / 16.36 / 17.61 | 16.3 / 17.06 / 17.53 | +4.3 % | 6/11 |",
                "| `cpu_ms_per_upload` | 0.8826 / 0.8906 / 0.9812 | 0.8948 / 0.9673 / 0.991 | +8.6 % | 6/11 |",
                "| `peak_rss_mib` | 140.5 / 140.6 / 140.6 | 101.9 / 102 / 102.1 | -27.5 % | 11/11 |",
            ]),
        ];
        let serde::Value::Arr(rows) = committed("BENCH_e2e.json") else { panic!("rows") };
        let (tables, outside) =
            compare_rows(&committed("BENCHMARK.json"), &rows, "cd4d385", "5a6c87f", None)
                .expect("the pair has rows");
        assert!(!outside, "{tables}");
        for (heading, table) in expected {
            let section = tables
                .split("### ")
                .find(|s| s.starts_with(heading))
                .unwrap_or_else(|| panic!("no `{heading}` table in\n{tables}"));
            for row in table {
                let line = section.lines().find(|l| l.starts_with(&row[..row.len() - 1]));
                let line = line.unwrap_or_else(|| panic!("no row `{row}` in\n{section}"));
                assert!(line.starts_with(row), "`{line}` does not start with `{row}`");
                assert!(line.contains("| within |"), "{line}");
            }
        }
        assert!(tables.contains(
            "| 926.7→1146, 887.5→970.2, 820.7→930, 801.1→958.5, 787.7→796.5 |"
        ));
        let one = compare_rows(&committed("BENCHMARK.json"), &rows, "cd4d385", "5a6c87f", Some("ingest_tcp"));
        assert_eq!(one.expect("ingest rows").0.matches("### ").count(), 1);
        assert!(compare_rows(&committed("BENCHMARK.json"), &rows, "cd4d385", "nosuchgit", None).is_err());
    }

    #[test]
    #[rustfmt::skip]
    fn perf_compare_pairs_only_alternation_partners_in_the_committed_rows() {
        // The tables CHANGES.md holds for the one-round-loop change (parent
        // 819e537, change c76fffd) were rendered from a hand-filtered copy of
        // the file: the parent's earlier batch, recorded against 53d29ec,
        // must pair with nothing.
        let serde::Value::Arr(rows) = committed("BENCH_e2e.json") else { panic!("rows") };
        let contract = committed("BENCHMARK.json");
        let (tables, outside) =
            compare_rows(&contract, &rows, "819e537", "c76fffd", None).expect("the pair has rows");
        assert!(!outside, "{tables}");
        for row in [
            "### headline_inproc (10 pairs, seed 1)",
            "| `setup_s` | 0.1471 / 0.1804 / 0.1979 | 0.1581 / 0.1897 / 0.1985 | +5.2 % | 3/10 | 25 % | unmeasurable | no | 0.1459→0.1487, 0.1445→0.15, 0.185→0.1927, 0.1431→0.1822, 0.1824→0.1376, 0.2043→0.2091, 0.1507→0.2004, 0.2034→0.1867, 0.2022→0.1989, 0.1783→0.1974 |",
            "| `peak_rss_mib` | 63.48 / 63.54 / 63.64 | 62.55 / 62.62 / 62.7 | -1.4 % | 10/10 | 10 % | within | yes |",
            "### omniscient_inproc (5 pairs, seed 1)",
            "| `uploads_per_s` | 3743 / 3807 / 3975 | 4020 / 4042 / 4072 | +6.2 % | 3/5 | 25 % | within | no |",
            "### ingest_tcp (5 pairs, seed 1)",
            "| `peak_rss_mib` | 101.9 / 101.9 / 102 | 101.4 / 101.4 / 101.7 | -0.5 % | 5/5 | 10 % | within | yes |",
            "`failed`: parent 0 of 184320, change 0 of 204800 attempted operations",
        ] {
            assert!(tables.lines().any(|l| l.starts_with(row)), "no `{row}` in\n{tables}");
        }
        // A batch recorded under seed 7 sits before the seed-13 pairs of
        // 0cff7da and 8410466: only the seed-13 rows pair.
        let (tables, _) =
            compare_rows(&contract, &rows, "0cff7da", "8410466", Some("ingest_tcp")).expect("rows");
        assert!(tables.starts_with("### ingest_tcp (10 pairs, seed 13)\n"), "{tables}");
    }

    #[test]
    fn perf_compare_pairs_neighbours_of_one_seed_and_host() {
        let contract = serde_json::parse_value(
            r#"{"workloads": [{"name": "w"}], "end_to_end": [{"name": "rate", "bound": 0.25}]}"#,
        )
        .expect("contract");
        let row = |git: &str, seed: u64, host: &str, rate: f64| {
            serde_json::parse_value(&format!(
                r#"{{"git": "{git}", "host": "{host}", "workload": "w", "seed": {seed},
                    "attempted": 10, "failed": 0, "metrics": {{"rate": {rate}}}}}"#
            ))
            .expect("row")
        };
        let pairs = |rows: &[serde::Value]| -> Vec<String> {
            let Ok((text, _)) = compare_rows(&contract, rows, "p", "c", None) else {
                return Vec::new();
            };
            let line = text.lines().find(|l| l.starts_with("| `rate`")).expect("row");
            line.trim_end_matches(" |")
                .rsplit(" | ")
                .next()
                .unwrap()
                .split(", ")
                .map(String::from)
                .collect()
        };
        // Either side may go first; a pair is never reused.
        let alternating = [
            row("p", 1, "h", 1.0),
            row("c", 1, "h", 2.0),
            row("c", 1, "h", 3.0),
            row("p", 1, "h", 4.0),
        ];
        assert_eq!(pairs(&alternating), ["1→2", "4→3"]);
        // Another seed, another host or another commit in between: no pair.
        assert!(pairs(&[row("p", 1, "h", 1.0), row("c", 2, "h", 2.0)]).is_empty());
        assert!(pairs(&[row("p", 1, "h", 1.0), row("c", 1, "g", 2.0)]).is_empty());
        assert!(pairs(&[row("p", 1, "h", 1.0), row("x", 1, "h", 0.0), row("c", 1, "h", 2.0)])
            .is_empty());
        // An unpaired row is skipped and the next neighbours still pair.
        let stray = [row("p", 7, "h", 9.0), row("p", 1, "h", 1.0), row("c", 1, "h", 2.0)];
        assert_eq!(pairs(&stray), ["1→2"]);
    }

    #[test]
    fn perf_compare_verdicts_follow_the_bound_and_the_parent_spread() {
        let contract = serde_json::parse_value(
            r#"{"workloads": [{"name": "w"}], "end_to_end": [
                {"name": "rate", "better": "higher", "bound": 0.25},
                {"name": "rss", "better": "lower", "bound": 0.10}]}"#,
        )
        .expect("contract");
        let row = |git: &str, rate: f64, rss: f64| {
            serde_json::parse_value(&format!(
                r#"{{"git": "{git}", "workload": "w", "seed": 1, "attempted": 10, "failed": 0,
                    "metrics": {{"rate": {rate}, "rss": {rss}}}}}"#
            ))
            .expect("row")
        };
        let verdicts = |rows: &[serde::Value]| {
            let (text, outside) = compare_rows(&contract, rows, "p", "c", None).expect("pairs");
            let verdict = |metric: &str| {
                let line = text.lines().find(|l| l.starts_with(&format!("| `{metric}`")));
                line.expect("row").split(" | ").nth(6).expect("verdict column").to_owned()
            };
            (verdict("rate"), verdict("rss"), outside)
        };
        // Rate falls 10 % (within 25 %); rss grows 20 % (outside 10 %).
        let steady = [row("p", 100.0, 50.0), row("c", 90.0, 60.0), row("p", 100.0, 50.0)];
        let steady = [&steady[..], &[row("c", 90.0, 60.0)]].concat();
        assert_eq!(verdicts(&steady), ("within".into(), "outside".into(), true));
        // A parent whose rate quartiles sit 30 % apart cannot be judged at 25 %.
        let mut noisy = Vec::new();
        for (p, c) in [(40.0, 100.0), (100.0, 100.0), (160.0, 100.0), (100.0, 100.0)] {
            noisy.extend([row("p", p, 50.0), row("c", c, 50.0)]);
        }
        assert_eq!(verdicts(&noisy), ("unmeasurable".into(), "within".into(), false));

        // `gain`: ≥ 9/10 pairs won and a median gap beyond the parent's IQR.
        let gain = |pairs: &[(f64, f64)]| {
            let rows: Vec<_> =
                pairs.iter().flat_map(|&(p, c)| [row("p", p, 50.0), row("c", c, 50.0)]).collect();
            let (text, _) = compare_rows(&contract, &rows, "p", "c", None).expect("pairs");
            let line = text.lines().find(|l| l.starts_with("| `rate`")).expect("row");
            line.split(" | ").nth(7).expect("gain column").to_owned()
        };
        let parent = [96.0, 98.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 102.0, 104.0];
        let with = |change: &dyn Fn(usize, f64) -> f64| -> Vec<(f64, f64)> {
            parent.iter().enumerate().map(|(i, &p)| (p, change(i, p))).collect()
        };
        // 9/10 won, median 100 → 110 against a parent IQR of 1.5.
        assert_eq!(gain(&with(&|i, p| if i == 0 { 95.0 } else { p + 10.0 })), "yes");
        // Only 8/10 won, however large the median gap.
        assert_eq!(gain(&with(&|i, p| if i < 2 { p - 1.0 } else { p + 10.0 })), "no");
        // 10/10 won, but the median moves 1.0, inside the parent IQR of 1.5.
        assert_eq!(gain(&with(&|_, p| p + 1.0)), "no");
    }

    #[test]
    fn perf_compare_names_the_workloads_when_one_is_unknown() {
        let serde::Value::Arr(rows) = committed("BENCH_e2e.json") else { panic!("rows") };
        let err = compare_rows(
            &committed("BENCHMARK.json"),
            &rows,
            "cd4d385",
            "5a6c87f",
            Some("headline"),
        )
        .expect_err("no such workload");
        assert!(err.contains("no workload `headline`"), "{err}");
        for known in ["headline_inproc", "omniscient_inproc", "scale_ondemand", "ingest_tcp"] {
            assert!(err.contains(known), "{err}");
        }
    }
}
