//! `dpbfl-exp perf`: benchmark rows and the parent/change verdicts drawn
//! from them.
//!
//! [`record`] runs the repository benchmark (the `command` of
//! `BENCHMARK.json`) for one workload and appends its result line as one row
//! `{git, host, workload, seed, seconds, attempted, failed, metrics}` to
//! `BENCH_e2e.json`, or with the per-layer trace to `BENCH_layers.json`.
//! [`compare`] pairs the committed rows of a parent and a change commit —
//! alternation partners only: a parent row and a change row next to each
//! other in a workload's rows, with the same seed and host — and renders one
//! table per workload with q1 / median / q3 of each side, the median change,
//! the change's wins, the bound and the verdicts `within`, `outside`,
//! `unmeasurable` and `gain` (see [`compare_rows`]).

use serde::Value;
use std::path::Path;

/// Runs the benchmark of the checkout `repo` (the `command` of its
/// `BENCHMARK.json`, at its `run_seconds`) for one workload and seed, and
/// appends the result as one row to `BENCH_e2e.json` — with `trace`, the
/// per-layer metrics to `BENCH_layers.json` — in the current directory.
/// Returns the file name. A run whose checks fail is not recorded.
pub fn record(repo: &Path, workload: &str, seed: u64, trace: bool) -> Result<&'static str, String> {
    let contract_path = repo.join("BENCHMARK.json");
    let contract = std::fs::read_to_string(&contract_path)
        .map_err(at(&contract_path))
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

/// [`compare_rows`] over `BENCHMARK.json` and the rows of `BENCH_e2e.json`
/// in the current directory.
pub fn compare(base: &str, head: &str, only: Option<&str>) -> Result<(String, bool), String> {
    let read = |path: &str| {
        let path = Path::new(path);
        let text = std::fs::read_to_string(path).map_err(at(path))?;
        serde_json::parse_value(&text).map_err(at(path))
    };
    let contract = read("BENCHMARK.json")?;
    let Value::Arr(rows) = read("BENCH_e2e.json")? else {
        return Err("BENCH_e2e.json: not a JSON array of rows".to_owned());
    };
    compare_rows(&contract, &rows, base, head, only)
}

/// Renders the `base`/`head` comparison of `rows` against the end-to-end
/// metrics and bounds of the benchmark `contract`; the flag is set when any
/// metric is `outside` its bound.
pub fn compare_rows(
    contract: &Value,
    rows: &[Value],
    base: &str,
    head: &str,
    only: Option<&str>,
) -> Result<(String, bool), String> {
    let text = |v: &Value, key: &str| match v.get(key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    };
    let list = |key: &str| match contract.get(key) {
        Some(Value::Arr(items)) => Ok(items.as_slice()),
        _ => Err(format!("BENCHMARK.json: `{key}` must be an array")),
    };
    let mut metrics = Vec::new();
    for m in list("end_to_end")? {
        let (Some(name), Some(bound)) = (text(m, "name"), m.get("bound").and_then(Value::as_f64))
        else {
            return Err("BENCHMARK.json: an end-to-end metric lacks `name` or `bound`".to_owned());
        };
        metrics.push((name, text(m, "better").as_deref() == Some("higher"), bound));
    }
    let workloads: Vec<String> =
        list("workloads")?.iter().filter_map(|w| text(w, "name")).collect();
    if let Some(only) = only.filter(|o| !workloads.iter().any(|w| w == o)) {
        return Err(format!(
            "BENCHMARK.json has no workload `{only}`; its workloads are {}",
            workloads.join(", ")
        ));
    }
    let (mut out, mut outside) = (String::new(), false);
    for workload in workloads.iter().filter(|w| only.is_none_or(|o| o == *w)) {
        // Alternation partners only: rows recorded against another commit
        // in between, or under another seed or host, pair with nothing.
        let ours: Vec<&Value> =
            rows.iter().filter(|r| text(r, "workload").as_deref() == Some(workload)).collect();
        let (mut parent, mut change) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i + 1 < ours.len() {
            let (a, b) = (ours[i], ours[i + 1]);
            let partners = ["seed", "host"].iter().all(|key| a.get(key) == b.get(key));
            match (text(a, "git"), text(b, "git")) {
                (Some(x), Some(y)) if partners && x == base && y == head => {
                    parent.push(a);
                    change.push(b);
                    i += 2;
                }
                (Some(x), Some(y)) if partners && x == head && y == base => {
                    parent.push(b);
                    change.push(a);
                    i += 2;
                }
                _ => i += 1,
            }
        }
        let n = parent.len();
        if n == 0 {
            continue;
        }
        let mut seeds: Vec<String> =
            parent.iter().filter_map(|r| r.get("seed")?.as_f64()).map(|s| s.to_string()).collect();
        seeds.sort();
        seeds.dedup();
        out.push_str(&format!("### {workload} ({n} pairs, seed {})\n", seeds.join(", ")));
        out.push_str(
            "| metric | parent q1 / median / q3 | change q1 / median / q3 | median Δ \
             | change wins | bound | verdict | gain | per-pair parent → change |\n\
             |---|---|---|---|---|---|---|---|---|\n",
        );
        for (name, higher, bound) in &metrics {
            let value = |r: &Value| r.get("metrics")?.get(name)?.as_f64();
            let pairs: Vec<(f64, f64)> = parent
                .iter()
                .zip(&change)
                .filter_map(|(p, c)| Some((value(p)?, value(c)?)))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let [p1, pm, p3] = quartiles(pairs.iter().map(|p| p.0).collect());
            let [c1, cm, c3] = quartiles(pairs.iter().map(|p| p.1).collect());
            let delta = (cm - pm) / pm;
            let better = |p: f64, c: f64| if *higher { c > p } else { c < p };
            let wins = pairs.iter().filter(|&&(p, c)| better(p, c)).count();
            // The claim rule: ≥ 9/10 of the pairs won, and the median gain
            // larger than the parent's interquartile range.
            let median_gain = if *higher { cm - pm } else { pm - cm };
            let gain =
                if wins * 10 >= pairs.len() * 9 && median_gain > p3 - p1 { "yes" } else { "no" };
            let verdict = if (p3 - p1) / pm.abs() > *bound {
                "unmeasurable"
            } else if (if *higher { -delta } else { delta }) > *bound {
                outside = true;
                "outside"
            } else {
                "within"
            };
            let per_pair: Vec<String> =
                pairs.iter().map(|&(p, c)| format!("{}→{}", sig4(p), sig4(c))).collect();
            out.push_str(&format!(
                "| `{name}` | {} / {} / {} | {} / {} / {} | {:+.1} % | {wins}/{} | {} % | {verdict} | {gain} | {} |\n",
                sig4(p1),
                sig4(pm),
                sig4(p3),
                sig4(c1),
                sig4(cm),
                sig4(c3),
                delta * 100.0,
                pairs.len(),
                sig4(bound * 100.0),
                per_pair.join(", "),
            ));
        }
        let failed = |side: &[&Value]| {
            let sum = |key: &str| side.iter().filter_map(|r| r.get(key)?.as_f64()).sum::<f64>();
            format!("{} of {}", sum("failed"), sum("attempted"))
        };
        out.push_str(&format!(
            "\n`failed`: parent {}, change {} attempted operations\n\n",
            failed(&parent),
            failed(&change)
        ));
    }
    if out.is_empty() {
        return Err(format!("BENCH_e2e.json has no {base}/{head} pair for any selected workload"));
    }
    Ok((out, outside))
}

/// q1, median and q3 of `values` by linear interpolation between closest
/// ranks.
fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let last = values.len() - 1;
    [0.25, 0.5, 0.75].map(|p| {
        let pos = last as f64 * p;
        let lo = pos.floor() as usize;
        values[lo] + (values[(lo + 1).min(last)] - values[lo]) * (pos - lo as f64)
    })
}

/// `x` to four significant digits, trailing zeros dropped.
fn sig4(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return x.to_string();
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    let s = format!("{x:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    } else {
        s
    }
}

/// What `perf record` keeps of one benchmark run's standard output.
pub struct BenchmarkRun {
    /// The benchmark's own fingerprint of machine and build (its `host: `
    /// line), split at the commit it ends with: the `HEAD` of the checkout
    /// the benchmark was built in. Record from a committed tree.
    pub host: String,
    /// The commit the fingerprint ends with.
    pub git: String,
    /// Whether the run passed the benchmark's own checks.
    pub correct: bool,
    /// Operations the run attempted.
    pub attempted: Value,
    /// Operations that failed.
    pub failed: Value,
    /// `name → value`; the units live in `BENCHMARK.json`.
    pub metrics: Vec<(String, Value)>,
}

/// Parses the benchmark's output contract: the last line is one JSON object
/// `{correct, attempted, failed, metrics: {name: {value, unit}}}`.
pub fn parse_benchmark_output(stdout: &str) -> Result<BenchmarkRun, String> {
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
fn append_row(path: &Path, row: Value) -> Result<(), String> {
    let mut rows = match std::fs::read_to_string(path) {
        Ok(text) => match serde_json::parse_value(&text) {
            Ok(Value::Arr(rows)) => rows,
            _ => return Err(format!("{}: not a JSON array of rows", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(at(path)(e)),
    };
    rows.push(row);
    let lines: Vec<String> = rows
        .iter()
        .map(|r| serde_json::to_string(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n"))).map_err(at(path))
}

/// Prefixes an error with the path it happened at.
fn at<E: std::fmt::Display>(path: &Path) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}
