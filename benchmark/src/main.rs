//! The repository benchmark. See `README.md` beside this crate.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures one
//! workload in this process and prints one JSON object as the last line of
//! standard output. Without `--workload` the program re-executes itself
//! once per workload (an untraced and a traced run each) and prints every
//! metric; `--aa` does that twice and compares the two sets against the
//! bounds; `--smoke` is a seconds-long check of the plumbing.

mod layers;
mod metrics;
mod probes;
mod procfs;
mod stats;
mod timed;
mod unit;
mod workloads;

use dpbfl::prelude::SimulationConfig;
use layers::{LayerRow, Reference};
use metrics::END_TO_END;
use procfs::peak_rss_mib;
use stats::{max, median, min};
use std::process::{Command, ExitCode};
use std::time::Instant;
use unit::Unit;
use workloads::{Delivery, Workload};

/// Round-count divisor of `--smoke` and of the warm-up run.
const SHORT_RUN_DIVISOR: f64 = 8.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    smoke: bool,
    /// Internal: run the workload's configuration once in process and print
    /// what a served run of it is compared with.
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        aa: false,
        smoke: false,
        reference: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--reference" => args.reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, got {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: dpbfl-benchmark [--workload NAME] [--seed N] [--seconds S] \
                 [--trace 0|1] [--aa] [--smoke]\nworkloads: {}",
                workloads::ALL.map(|w| w.name).join(", ")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(name) => match workloads::by_name(name) {
            Some(workload) if args.reference => Ok(print_reference(workload, &args)),
            Some(workload) => measure(workload, &args),
            None => Err(format!("unknown workload {name}")),
        },
        None => drive(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load-generating threads: rayon threads in process, client connections
/// when served.
fn load_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(4)
}

fn fingerprint(threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    // Asked at run time: a commit does not rebuild the benchmark. A checkout
    // that is not a repository has no commit to name.
    let commit = Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |text| text.trim().to_owned());
    format!(
        "nproc {nproc}, load threads {threads}, {} {}, {}, profile {}, git {}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        env!("DPBFL_BENCH_RUSTC"),
        if cfg!(debug_assertions) { "debug" } else { "release (lto = thin)" },
        commit,
    )
}

fn run_unit(
    workload: &Workload,
    cfg: &SimulationConfig,
    threads: usize,
    traced: bool,
) -> Result<Unit, String> {
    match workload.delivery {
        Delivery::InProcess => Ok(unit::run_in_process(cfg, traced)),
        Delivery::TcpLoopback => unit::run_tcp(cfg, threads, traced),
    }
}

/// The workload's configuration for this invocation.
fn config(workload: &Workload, args: &Args) -> SimulationConfig {
    let full = (workload.config)(args.seed);
    if args.smoke {
        workloads::scaled_down(&full, SHORT_RUN_DIVISOR)
    } else {
        full
    }
}

fn pin_threads() -> usize {
    let threads = load_threads();
    rayon::ThreadPoolBuilder::new().num_threads(threads).build_global().expect("infallible");
    threads
}

/// `--reference`: one in-process run; prints its round window, this
/// process's peak RSS and, as the last line, the `RunSummary` bytes.
fn print_reference(workload: &Workload, args: &Args) -> bool {
    pin_threads();
    let unit = unit::run_in_process(&config(workload, args), false);
    println!("window_s={}", unit.window_s);
    println!("peak_rss_mib={}", peak_rss_mib());
    println!("{}", unit.summary_json);
    true
}

/// Runs the `--reference` mode in a child process and parses its output.
fn run_reference_child(workload: &str, args: &Args) -> Result<Reference, String> {
    let mut command = child_command(workload, args)?;
    let output = command.arg("--reference").output().map_err(|e| format!("reference run: {e}"))?;
    if !output.status.success() {
        return Err(format!("reference run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let number = |key: &str| -> Result<f64, String> {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
            .ok_or(format!("reference run printed no {key}"))
    };
    Ok(Reference {
        summary_json: stdout.lines().last().unwrap_or("").to_owned(),
        window_s: number("window_s")?,
        peak_rss_mib: number("peak_rss_mib")?,
    })
}

/// This program again, for `workload`, with this invocation's seed and
/// scale.
fn child_command(workload: &str, args: &Args) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload]).args(["--seed", &args.seed.to_string()]);
    if args.smoke {
        command.arg("--smoke");
    }
    command.stderr(std::process::Stdio::inherit());
    Ok(command)
}

/// A reported metric: name, unit, value.
type Reported = (&'static str, &'static str, f64);

/// Measures one workload in this process. `Ok(false)` when a check failed.
fn measure(workload: &Workload, args: &Args) -> Result<bool, String> {
    let threads = pin_threads();
    let host = fingerprint(threads);
    println!("host: {host}");
    let cfg = config(workload, args);
    println!(
        "workload {} (seed {}): {}\n  {} rounds, {} uploads per run; closed loop, {}",
        workload.name,
        args.seed,
        workload.why,
        cfg.iterations(),
        workloads::uploads_per_run(&cfg),
        match workload.delivery {
            Delivery::InProcess => format!("in process on {threads} rayon threads"),
            Delivery::TcpLoopback => format!("TCP loopback, {threads} client connections"),
        }
    );

    // A served workload is compared with an in-process run of the same
    // configuration. That run happens in a process of its own, so neither
    // run's peak RSS holds what the allocator kept from the other.
    let reference = match workload.delivery {
        Delivery::TcpLoopback => Some(run_reference_child(workload.name, args)?),
        Delivery::InProcess => None,
    };
    let (units, peak_rss) = run_units(workload, &cfg, threads, args)?;
    let (mut failures, failed_uploads) =
        check_outputs(workload, args, &units, reference.as_ref(), peak_rss);
    let attempted: u64 = units.iter().map(|u| u.uploads).sum();
    let end_to_end = end_to_end(&units, peak_rss);

    let reported: Vec<Reported> = if args.trace {
        let probes = probes::run(&cfg, threads);
        // Not an output check: it says what `first_stage.check_reject_us` timed.
        println!("reject probe: the crafted upload was {:?}", probes.crafted_verdict);
        let rows = layers::table(&cfg, &units, &probes, reference.as_ref(), peak_rss);
        println!("per layer (traced units; probes are medians of >= 200 calls):");
        for row in &rows {
            println!("  {:<36} {:>14.4} {}", row.name, row.value, row.unit);
        }
        let reported = rows.iter().map(|r| (r.name, r.unit, r.value)).collect();
        write_layers_file(LayersFile {
            workload: workload.name,
            seed: args.seed,
            host,
            layers: rows,
        })?;
        reported
    } else {
        end_to_end
    };

    if let Some((name, _, value)) = reported.iter().find(|(_, _, v)| !v.is_finite()) {
        failures.push(format!("metric {name} is not a finite number: {value}"));
    }
    for failure in &failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = failures.is_empty();
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed_uploads}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(correct)
}

/// Warms up, then repeats units until the window closes. Returns the units
/// and the process's peak RSS after the first of them.
fn run_units(
    workload: &Workload,
    cfg: &SimulationConfig,
    threads: usize,
    args: &Args,
) -> Result<(Vec<Unit>, f64), String> {
    // The first run in a process is slower than later ones, so a short run
    // happens before the window opens.
    if !args.smoke {
        run_unit(workload, &workloads::scaled_down(cfg, SHORT_RUN_DIVISOR), threads, false)?;
    }
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let window = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    let mut peak_rss = 0.0;
    // A traced run alternates traced and untraced units, so the tracing
    // overhead compares units measured under the same conditions.
    while units.is_empty()
        || window.elapsed().as_secs_f64() < seconds
        || (args.trace && units.len() < 2)
    {
        let traced = args.trace && units.len().is_multiple_of(2);
        let unit = run_unit(workload, cfg, threads, traced)?;
        if units.is_empty() {
            // One run's peak: later units in the same process only add
            // what the allocator kept from earlier ones.
            peak_rss = peak_rss_mib();
        }
        println!(
            "  unit {:>2}{}: wall {:.3} s, setup {:.4} s, {:.1} uploads/s, round p50 {:.3} ms, \
             cpu {:.4} ms/upload",
            units.len(),
            if traced { " (traced)" } else { "" },
            unit.wall_s,
            unit.setup_s,
            unit.uploads as f64 / unit.window_s,
            unit.round_ms_p50,
            unit.cpu_s * 1e3 / unit.uploads as f64,
        );
        units.push(unit);
    }
    Ok((units, peak_rss))
}

/// Checks the outputs of a run. Returns what failed, and how many uploads
/// count as failed.
fn check_outputs(
    workload: &Workload,
    args: &Args,
    units: &[Unit],
    reference: Option<&Reference>,
    peak_rss: f64,
) -> (Vec<String>, u64) {
    let mut failures: Vec<String> = Vec::new();
    let expected = reference.map_or(&units[0].summary_json, |r| &r.summary_json);
    let mut failed_uploads = 0u64;
    for (i, unit) in units.iter().enumerate() {
        if unit.summary_json != *expected {
            failures.push(format!("unit {i}: RunSummary differs from the reference run's"));
            failed_uploads += unit.uploads;
        } else {
            failed_uploads += unit.failed_uploads;
        }
        if unit.failed_uploads > 0 {
            failures.push(format!("unit {i}: {} uploads dropped", unit.failed_uploads));
        }
    }
    let accuracy = units[0].final_accuracy;
    let defense = &units[0].defense;
    println!(
        "outputs: final accuracy {accuracy:.4}; stage 1 rejected {} honest and {} Byzantine uploads; \
         {} of {} selections were Byzantine",
        defense.first_stage_rejected_honest,
        defense.first_stage_rejected_byzantine,
        defense.byzantine_selected,
        defense.total_selected
    );
    // Semantic floors; a `--smoke` run is too short to train, so it skips them.
    let byzantine_share = defense.byzantine_selected as f64 / defense.total_selected.max(1) as f64;
    if !args.smoke {
        if accuracy.is_nan() || accuracy < workload.min_accuracy {
            failures.push(format!(
                "final accuracy {accuracy:.4} below the floor {}",
                workload.min_accuracy
            ));
        }
        if byzantine_share > workload.max_byzantine_selected_share {
            failures.push(format!(
                "{byzantine_share:.4} of the selections were Byzantine, above the ceiling {}",
                workload.max_byzantine_selected_share
            ));
        }
    }
    if peak_rss >= workload.max_peak_rss_mib {
        failures.push(format!(
            "peak RSS {peak_rss:.1} MiB breaks the {} MiB bound",
            workload.max_peak_rss_mib
        ));
    }
    (failures, failed_uploads)
}

/// Prints and returns the end-to-end metrics: medians over the untraced
/// units (in a traced run only those are end-to-end samples).
fn end_to_end(units: &[Unit], peak_rss: f64) -> Vec<Reported> {
    let per_unit = |f: fn(&Unit) -> f64| -> Vec<f64> {
        units.iter().filter(|u| u.trace.is_none()).map(f).collect()
    };
    let samples: [Vec<f64>; 5] = [
        per_unit(|u| u.setup_s),
        per_unit(|u| u.uploads as f64 / u.window_s),
        per_unit(|u| u.round_ms_p50),
        per_unit(|u| u.cpu_s * 1e3 / u.uploads as f64),
        vec![peak_rss],
    ];
    println!(
        "end to end (median of {} untraced units; {} round periods each):",
        samples[0].len(),
        units[0].rounds.saturating_sub(1).max(1)
    );
    let mut reported = Vec::new();
    for (metric, samples) in END_TO_END.iter().zip(&samples) {
        let value = median(samples);
        println!(
            "  {:<20} {:>12.4} {:<4} (min {:.4}, max {:.4}, n = {}; {} is better)",
            metric.name,
            value,
            metric.unit,
            min(samples),
            max(samples),
            samples.len(),
            metric.better
        );
        reported.push((metric.name, metric.unit, value));
    }
    println!(
        "  rounds_per_s         {:>12.4} 1/s  (derived)",
        median(&per_unit(|u| u.rounds as f64 / u.window_s))
    );
    reported
}

#[derive(serde::Serialize)]
struct LayersFile {
    workload: &'static str,
    seed: u64,
    host: String,
    layers: Vec<LayerRow>,
}

/// Writes `results/layers_<workload>.json` beside this crate's manifest.
fn write_layers_file(file: LayersFile) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(format!("layers_{}.json", file.workload));
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text + "\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("layer table written to {}", path.display());
    Ok(())
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Re-executes this program for one workload and returns its result line.
/// The child's output passes through, so the parent prints every metric.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let output = child_command(workload, args)?
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("");
    let doc = serde_json::parse_value(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let correct = matches!(doc.get("correct"), Some(serde::Value::Bool(true)));
    let metrics = match doc.get("metrics") {
        Some(serde::Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload}: result line has no metrics")),
    };
    Ok(ChildResult { correct: correct && output.status.success(), metrics })
}

/// Runs every workload, one child process each. `Ok(false)` when a child's
/// check failed or an A/A pair broke a bound.
fn drive(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for set in 0..if args.aa { 2 } else { 1 } {
        let mut results = Vec::new();
        for workload in &workloads::ALL {
            println!("==== {} (set {}) ====", workload.name, set + 1);
            let result = run_child(workload.name, args, false)?;
            ok &= result.correct;
            // The traced run gives the layer table; an A/A comparison has
            // no use for a second one.
            if set == 0 {
                ok &= run_child(workload.name, args, true)?.correct;
            }
            results.push(result);
        }
        sets.push(results);
    }
    if let [a, b] = sets.as_slice() {
        println!("==== A/A: two sets of runs of the same code ====");
        for ((workload, a), b) in workloads::ALL.iter().zip(a).zip(b) {
            for metric in &END_TO_END {
                let value = |r: &ChildResult| {
                    r.metrics.iter().find(|(n, _)| n == metric.name).map(|&(_, v)| v)
                };
                let (Some(va), Some(vb)) = (value(a), value(b)) else {
                    return Err(format!("{}: {} missing", workload.name, metric.name));
                };
                let gap = (vb - va).abs() / va.abs();
                let pass = gap <= metric.bound;
                ok &= pass;
                println!(
                    "  {:<18} {:<18} A {:>12.4} B {:>12.4} gap {:>6.2} % bound {:>4.0} % {}",
                    workload.name,
                    metric.name,
                    va,
                    vb,
                    gap * 100.0,
                    metric.bound * 100.0,
                    if pass { "PASS" } else { "FAIL" }
                );
            }
        }
    }
    println!("{}", if ok { "all checks passed" } else { "SOME CHECKS FAILED" });
    Ok(ok)
}
