//! Report generation: paper-style markdown tables, flat CSV, and the
//! machine-readable `BENCH_harness.json` summary.

use crate::runner::GridOutcome;
use crate::sink::CellRecord;
use crate::spec::ScenarioSpec;
use dpbfl_telemetry::parse_ledger;
use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;

/// What a cell's telemetry ledger boils down to for the reports: the
/// deterministic per-round counters reduced to two headline figures.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDigest {
    /// Rounds recorded in the ledger.
    pub rounds: u64,
    /// Mean per-round stage-1 acceptance rate (`accepted / cohort`).
    pub mean_acceptance: f64,
    /// The last round's cumulative achieved ε from the ledger; `None` for
    /// non-private runs.
    pub final_epsilon: Option<f64>,
}

/// Reduces a ledger file's `"round"` lines to a [`MetricsDigest`]. Errors
/// on unparseable lines or a ledger with no round records.
pub fn digest_ledger(text: &str) -> Result<MetricsDigest, String> {
    let records = parse_ledger(text)?;
    let rounds: Vec<_> = records.iter().filter_map(|r| r.round.as_ref()).collect();
    if rounds.is_empty() {
        return Err("ledger has no round records".into());
    }
    let mean_acceptance =
        rounds.iter().map(|m| m.acceptance_rate()).sum::<f64>() / rounds.len() as f64;
    Ok(MetricsDigest {
        rounds: rounds.len() as u64,
        mean_acceptance,
        final_epsilon: rounds.last().and_then(|m| m.achieved_epsilon),
    })
}

/// Digests each record's ledger (`dir/cell_<index>.jsonl`, as a run with
/// `--metrics-dir` writes them) into report columns. Unreadable or missing
/// ledgers (e.g. resumed cells) simply have no digest.
pub fn digest_ledgers(dir: &Path, records: &[CellRecord]) -> HashMap<usize, MetricsDigest> {
    let mut digests = HashMap::new();
    for record in records {
        let path = dir.join(crate::runner::ledger_name(record.cell));
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        match digest_ledger(&text) {
            Ok(digest) => {
                digests.insert(record.cell, digest);
            }
            Err(e) => eprintln!("warning: {}: {e}", path.display()),
        }
    }
    digests
}

/// The flat per-cell markdown table plus, when the grid sweeps exactly two
/// axes, a paper-style rows × columns accuracy pivot. With per-cell ledger
/// digests in `metrics` the flat table gains `mean accept` and `ledger ε`
/// columns; an empty map (a run without `--metrics-dir`) leaves them out.
pub fn markdown(
    spec: &ScenarioSpec,
    records: &[CellRecord],
    metrics: &HashMap<usize, MetricsDigest>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n\n", spec.title));
    if !spec.notes.is_empty() {
        out.push_str(&format!("{}\n\n", spec.notes));
    }
    out.push_str(&format!(
        "Scenario `{}` — {} cells, seed policy `{:?}`.\n\n",
        spec.name,
        records.len(),
        spec.seed
    ));

    let axes = axis_names(records);
    if let Some((rows, cols)) = pivot_axes(records) {
        out.push_str(&pivot_table(records, &rows, &cols));
        out.push('\n');
    }
    if let Some(groups) = repeat_groups(records) {
        out.push_str(&repeats_table(&groups));
        out.push('\n');
    }

    // Flat table: one row per cell. Ledger columns appear only when the
    // run recorded metrics.
    let with_metrics = !metrics.is_empty();
    out.push_str("| cell |");
    for axis in &axes {
        out.push_str(&format!(" {axis} |"));
    }
    out.push_str(" accuracy | σ | lr | achieved ε | byz selected | 1st-stage rejects (H/B) |");
    if with_metrics {
        out.push_str(" mean accept | ledger ε |");
    }
    out.push('\n');
    out.push_str(&"|---".repeat(axes.len() + 7 + if with_metrics { 2 } else { 0 }));
    out.push_str("|\n");
    for record in records {
        let s = &record.summary;
        out.push_str(&format!("| {} |", record.cell));
        let labels: HashMap<&str, &str> =
            record.axes.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        for axis in &axes {
            out.push_str(&format!(" {} |", labels.get(axis.as_str()).unwrap_or(&"—")));
        }
        out.push_str(&format!(
            " {:.3} | {:.3} | {:.3} | {} | {}/{} | {}/{} |",
            s.final_accuracy,
            s.sigma,
            s.lr,
            achieved_epsilon_label(record),
            s.defense_stats.byzantine_selected,
            s.defense_stats.total_selected,
            s.defense_stats.first_stage_rejected_honest,
            s.defense_stats.first_stage_rejected_byzantine,
        ));
        if with_metrics {
            match metrics.get(&record.cell) {
                Some(d) => out.push_str(&format!(
                    " {:.3} | {} |",
                    d.mean_acceptance,
                    d.final_epsilon.map_or("∞".into(), |e| format!("{e:.3}")),
                )),
                None => out.push_str(" — | — |"),
            }
        }
        out.push('\n');
    }
    out
}

/// RFC-4180 field escaping: quote when the value contains a comma, quote
/// or newline (the built-in adaptive attack label contains a comma).
fn csv_field(value: &str) -> String {
    if value.contains([',', '"', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// Flat CSV, one row per cell (axis columns are empty when a cell does not
/// carry that axis). Under a repeat axis, every row additionally carries the
/// mean and sample standard deviation of its repeat group's final accuracy
/// (`repeat_mean_accuracy`/`repeat_std_accuracy`; empty without repeats).
/// A non-empty `metrics` map appends `mean_acceptance_rate` and
/// `ledger_final_epsilon` columns (cells without a digest leave them empty).
pub fn csv(records: &[CellRecord], metrics: &HashMap<usize, MetricsDigest>) -> String {
    let axes = axis_names(records);
    let groups = repeat_groups(records);
    let with_metrics = !metrics.is_empty();
    let mut out = String::from("cell,key,seed");
    for axis in &axes {
        out.push_str(&format!(",{axis}"));
    }
    out.push_str(
        ",final_accuracy,sigma,lr,iterations,delta,achieved_epsilon,\
         byzantine_selected,total_selected,first_stage_rejected_honest,\
         first_stage_rejected_byzantine,repeat_mean_accuracy,repeat_std_accuracy",
    );
    if with_metrics {
        out.push_str(",mean_acceptance_rate,ledger_final_epsilon");
    }
    out.push('\n');
    for record in records {
        let s = &record.summary;
        out.push_str(&format!("{},{},{}", record.cell, record.key, record.config.seed));
        let labels: HashMap<&str, &str> =
            record.axes.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        for axis in &axes {
            out.push_str(&format!(",{}", csv_field(labels.get(axis.as_str()).unwrap_or(&""))));
        }
        let eps = achieved_epsilon(record);
        let repeat_cols = groups
            .as_ref()
            .and_then(|groups| {
                let key = non_repeat_axes(record);
                groups.iter().find(|(k, _)| *k == key)
            })
            .map(|(_, accs)| {
                let (mean, std) = mean_std(accs);
                format!("{mean},{std}")
            })
            .unwrap_or_else(|| ",".into());
        out.push_str(&format!(
            ",{},{},{},{},{},{},{},{},{},{},{repeat_cols}",
            s.final_accuracy,
            s.sigma,
            s.lr,
            s.iterations,
            s.delta,
            if eps.is_finite() { eps.to_string() } else { String::new() },
            s.defense_stats.byzantine_selected,
            s.defense_stats.total_selected,
            s.defense_stats.first_stage_rejected_honest,
            s.defense_stats.first_stage_rejected_byzantine,
        ));
        if with_metrics {
            match metrics.get(&record.cell) {
                Some(d) => out.push_str(&format!(
                    ",{},{}",
                    d.mean_acceptance,
                    d.final_epsilon.map_or(String::new(), |e| e.to_string()),
                )),
                None => out.push_str(",,"),
            }
        }
        out.push('\n');
    }
    out
}

/// True for the synthetic repeat-style axes: `repeat` (from
/// `SeedPolicy::Repeats`) and `seed` (from `SeedPolicy::List`).
fn is_repeat_axis(axis: &str) -> bool {
    axis == "repeat" || axis == "seed"
}

/// A record's axis labels with the synthetic repeat-style axis stripped —
/// the identity of its repeat group.
fn non_repeat_axes(record: &CellRecord) -> Vec<(String, String)> {
    record.axes.iter().filter(|(axis, _)| !is_repeat_axis(axis)).cloned().collect()
}

/// One repeat group: the non-repeat axis labels identifying it, plus the
/// final accuracies of its repeats in cell order.
type RepeatGroup = (Vec<(String, String)>, Vec<f64>);

/// `Some(groups)` when the records carry a repeat-style axis (`repeat` or
/// `seed`) with at least two repeats: final accuracies grouped by the
/// non-repeat axis labels, in first-appearance order. A single repeat has
/// nothing to aggregate, so it yields `None`.
fn repeat_groups(records: &[CellRecord]) -> Option<Vec<RepeatGroup>> {
    if !records.iter().any(|r| r.axes.iter().any(|(axis, _)| is_repeat_axis(axis))) {
        return None;
    }
    let mut groups: Vec<RepeatGroup> = Vec::new();
    for record in records {
        let key = non_repeat_axes(record);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, accs)) => accs.push(record.summary.final_accuracy),
            None => groups.push((key, vec![record.summary.final_accuracy])),
        }
    }
    if groups.iter().all(|(_, accs)| accs.len() < 2) {
        return None;
    }
    Some(groups)
}

/// Mean and sample standard deviation (`n − 1` denominator; 0 for a single
/// value — the paper reports exactly this "mean ± std over seeds" shape).
fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = if values.len() < 2 {
        0.0
    } else {
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
    };
    (mean, var.sqrt())
}

/// The repeats aggregation table: one row per non-repeat axis combination,
/// `mean ± std` of final accuracy over its repeats.
fn repeats_table(groups: &[RepeatGroup]) -> String {
    let repeats = groups.first().map(|(_, accs)| accs.len()).unwrap_or(0);
    let mut out = format!("Final accuracy across {repeats} repeats (mean ± sample std):\n\n");
    let axes: Vec<&str> = groups
        .first()
        .map(|(key, _)| key.iter().map(|(axis, _)| axis.as_str()).collect())
        .unwrap_or_default();
    out.push('|');
    for axis in &axes {
        out.push_str(&format!(" {axis} |"));
    }
    out.push_str(" accuracy |\n");
    out.push_str(&"|---".repeat(axes.len() + 1));
    out.push_str("|\n");
    for (key, accs) in groups {
        let (mean, std) = mean_std(accs);
        out.push('|');
        for (_, label) in key {
            out.push_str(&format!(" {label} |"));
        }
        out.push_str(&format!(" {mean:.3} ± {std:.3} |\n"));
    }
    out
}

/// One cell's headline result in the bench summary: the axis labels that
/// identify the cell plus its robust accuracy.
#[derive(Debug, Serialize)]
pub struct BenchRow {
    /// Cell index within the grid.
    pub cell: usize,
    /// The cell's `(axis, label)` pairs, e.g. `("attack", "collusion(0.8)")`.
    pub axes: Vec<(String, String)>,
    /// Final (robust) accuracy of the cell's run.
    pub final_accuracy: f64,
}

/// The machine-readable run summary (`BENCH_harness.json`, plus a
/// scenario-named copy `BENCH_<scenario>.json`).
#[derive(Debug, Serialize)]
pub struct BenchSummary {
    /// Scenario name.
    pub scenario: String,
    /// Total cells in the grid.
    pub cells: usize,
    /// Cells executed by this invocation.
    pub ran: usize,
    /// Cells skipped via `--resume`.
    pub skipped: usize,
    /// Wall time of this invocation (ms).
    pub wall_ms: u64,
    /// Mean final accuracy over the grid.
    pub mean_final_accuracy: f64,
    /// Minimum final accuracy over the grid.
    pub min_final_accuracy: f64,
    /// Maximum final accuracy over the grid.
    pub max_final_accuracy: f64,
    /// Per executed cell wall time: `(cell index, ms)`.
    pub cell_wall_ms: Vec<(usize, u64)>,
    /// Per-cell robust-accuracy rows, in cell order.
    pub rows: Vec<BenchRow>,
}

/// Builds the bench summary for an outcome.
pub fn bench_summary(spec: &ScenarioSpec, outcome: &GridOutcome) -> BenchSummary {
    let accs: Vec<f64> = outcome.records.iter().map(|r| r.summary.final_accuracy).collect();
    let mean = if accs.is_empty() { 0.0 } else { accs.iter().sum::<f64>() / accs.len() as f64 };
    BenchSummary {
        scenario: spec.name.clone(),
        cells: outcome.records.len(),
        ran: outcome.ran,
        skipped: outcome.skipped,
        wall_ms: outcome.wall_ms,
        mean_final_accuracy: mean,
        min_final_accuracy: accs.iter().copied().fold(f64::INFINITY, f64::min),
        max_final_accuracy: accs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        cell_wall_ms: outcome.cell_wall_ms.clone(),
        rows: outcome
            .records
            .iter()
            .map(|r| BenchRow {
                cell: r.cell,
                axes: r.axes.clone(),
                final_accuracy: r.summary.final_accuracy,
            })
            .collect(),
    }
}

/// Writes `report.md`, `report.csv` and `BENCH_harness.json` into the
/// outcome's scenario directory, plus a scenario-named copy of the bench
/// summary (`BENCH_adversary_zoo.json` for `scenarios/adversary_zoo`) so
/// downstream tooling can collect per-scenario benches by filename.
pub fn write_reports(spec: &ScenarioSpec, outcome: &GridOutcome) -> Result<(), String> {
    let dir = &outcome.scenario_dir;
    let write = |name: &str, content: String| -> Result<(), String> {
        let path = dir.join(name);
        std::fs::write(&path, content).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("report.md", markdown(spec, &outcome.records, &outcome.cell_metrics))?;
    write("report.csv", csv(&outcome.records, &outcome.cell_metrics))?;
    let bench = bench_summary(spec, outcome);
    let json = serde_json::to_string_pretty(&bench).expect("bench summary serializes");
    let component = crate::runner::slug(spec.name.rsplit('/').next().unwrap_or(&spec.name));
    if component != "harness" {
        write(&format!("BENCH_{component}.json"), json.clone())?;
    }
    write("BENCH_harness.json", json)
}

/// ε actually bought by a cell's (q, T, σ, δ), via the RDP accountant;
/// infinite for non-private runs. Client subsampling compounds with the
/// batch rate (amplification by subsampling): a cell run at `sampling < 1`
/// reports the correspondingly tighter ε.
pub fn achieved_epsilon(record: &CellRecord) -> f64 {
    let cfg = &record.config;
    let s = &record.summary;
    if s.delta <= 0.0 || s.sigma <= 0.0 {
        return f64::INFINITY;
    }
    let q_batch = cfg.dp.batch_size as f64 / cfg.per_worker as f64;
    dpbfl_dp::amplified_epsilon(cfg.sampling, q_batch, s.iterations as u64, s.sigma, s.delta)
}

fn achieved_epsilon_label(record: &CellRecord) -> String {
    let eps = achieved_epsilon(record);
    if eps.is_finite() {
        format!("{eps:.3} (δ={:.1e})", record.summary.delta)
    } else {
        "∞ (non-private)".into()
    }
}

/// Axis names across the records, in first-appearance order.
fn axis_names(records: &[CellRecord]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for record in records {
        for (axis, _) in &record.axes {
            if !names.contains(axis) {
                names.push(axis.clone());
            }
        }
    }
    names
}

/// Distinct labels of one axis, in first-appearance order.
fn axis_labels(records: &[CellRecord], axis: &str) -> Vec<String> {
    let mut labels: Vec<String> = Vec::new();
    for record in records {
        for (name, label) in &record.axes {
            if name == axis && !labels.contains(label) {
                labels.push(label.clone());
            }
        }
    }
    labels
}

/// `Some((row_axis, col_axis))` when exactly two *swept* axes have ≥ 2
/// values — the shape a paper-style pivot renders faithfully. The
/// synthetic repeat-style axes (`repeat`, `seed`) do not count: repeats of
/// one row/column pair collapse into the pivot's mean instead.
fn pivot_axes(records: &[CellRecord]) -> Option<(String, String)> {
    let swept: Vec<String> = axis_names(records)
        .into_iter()
        .filter(|axis| !is_repeat_axis(axis) && axis_labels(records, axis).len() >= 2)
        .collect();
    match swept.as_slice() {
        [rows, cols] => Some((rows.clone(), cols.clone())),
        _ => None,
    }
}

/// Rows × columns final-accuracy pivot (mean when several cells share a
/// row/column pair, e.g. under repeats).
fn pivot_table(records: &[CellRecord], row_axis: &str, col_axis: &str) -> String {
    let rows = axis_labels(records, row_axis);
    let cols = axis_labels(records, col_axis);
    let mut out = format!("Final accuracy, {row_axis} × {col_axis}:\n\n");
    out.push_str(&format!("| {row_axis} \\ {col_axis} |"));
    for col in &cols {
        out.push_str(&format!(" {col} |"));
    }
    out.push('\n');
    out.push_str(&"|---".repeat(cols.len() + 1));
    out.push_str("|\n");
    for row in &rows {
        out.push_str(&format!("| {row} |"));
        for col in &cols {
            let matches: Vec<f64> = records
                .iter()
                .filter(|r| {
                    let has = |axis: &str, label: &str| {
                        r.axes.iter().any(|(a, l)| a == axis && l == label)
                    };
                    has(row_axis, row) && has(col_axis, col)
                })
                .map(|r| r.summary.final_accuracy)
                .collect();
            if matches.is_empty() {
                out.push_str(" — |");
            } else {
                let mean = matches.iter().sum::<f64>() / matches.len() as f64;
                out.push_str(&format!(" {mean:.3} |"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl::prelude::*;

    fn fake_records() -> (ScenarioSpec, Vec<CellRecord>) {
        let spec = crate::registry::get("smoke/tiny").unwrap();
        let records = spec
            .cells()
            .into_iter()
            .map(|c| CellRecord {
                scenario: spec.name.clone(),
                cell: c.index,
                key: c.key.clone(),
                axes: c.axes.clone(),
                config: c.config.clone(),
                summary: RunSummary {
                    final_accuracy: 0.25 * (c.index + 1) as f64,
                    sigma: 0.5,
                    lr: 0.2,
                    iterations: 6,
                    delta: 0.0,
                    defense_stats: Default::default(),
                    history: vec![],
                },
            })
            .collect();
        (spec, records)
    }

    #[test]
    fn markdown_contains_pivot_and_flat_rows() {
        let (spec, records) = fake_records();
        let md = markdown(&spec, &records, &HashMap::new());
        // 2×2 grid → the pivot renders attack × defense.
        assert!(md.contains("attack \\ defense"), "{md}");
        assert!(md.contains("label-flip"), "{md}");
        assert!(md.contains("two-stage"), "{md}");
        // Non-private smoke cells report ∞.
        assert!(md.contains("∞ (non-private)"), "{md}");
        // Flat table has one row per cell.
        assert_eq!(md.matches("\n| 0 |").count(), 1, "{md}");
        assert_eq!(md.matches("\n| 3 |").count(), 1, "{md}");
    }

    #[test]
    fn csv_has_header_plus_one_row_per_cell() {
        let (_, records) = fake_records();
        let text = csv(&records, &HashMap::new());
        assert_eq!(text.lines().count(), 1 + records.len());
        assert!(text.starts_with("cell,key,seed,attack,defense,"));
        assert!(text.contains("gaussian"), "{text}");
    }

    #[test]
    fn pivot_averages_repeats_instead_of_disappearing() {
        // Under SeedPolicy::Repeats the synthetic `repeat` axis must not
        // count as swept: the pivot still renders attack × defense and
        // averages the repeats of each pair.
        let mut spec = crate::registry::get("smoke/tiny").unwrap();
        spec.seed = crate::spec::SeedPolicy::Repeats { master: 7, repeats: 2 };
        let records: Vec<CellRecord> = spec
            .cells()
            .into_iter()
            .map(|c| CellRecord {
                scenario: spec.name.clone(),
                cell: c.index,
                key: c.key.clone(),
                axes: c.axes.clone(),
                config: c.config.clone(),
                summary: RunSummary {
                    // Repeat 0 cells score 0.0, repeat 1 cells 1.0 → every
                    // pivot entry is the 0.5 mean.
                    final_accuracy: (c.index / 4) as f64,
                    sigma: 0.25,
                    lr: 0.2,
                    iterations: 6,
                    delta: 0.0,
                    defense_stats: Default::default(),
                    history: vec![],
                },
            })
            .collect();
        let md = markdown(&spec, &records, &HashMap::new());
        assert!(md.contains("attack \\ defense"), "pivot missing: {md}");
        assert!(!md.contains("repeat \\"), "{md}");
        assert_eq!(md.matches(" 0.500 |").count(), 4, "{md}");
    }

    #[test]
    fn repeats_mean_std_match_hand_calculation() {
        let mut spec = crate::registry::get("smoke/tiny").unwrap();
        spec.seed = crate::spec::SeedPolicy::Repeats { master: 7, repeats: 2 };
        // 8 cells, repeat outermost: cells 0–3 are repeat 0, 4–7 repeat 1.
        // Group g (attack × defense pair) gets accuracies
        // {0.1·(g+1), 0.1·(g+1) + 0.2}: mean 0.1·(g+1) + 0.1, sample std
        // √((0.1² + 0.1²)/1) = 0.2/√2 ≈ 0.1414.
        let records: Vec<CellRecord> = spec
            .cells()
            .into_iter()
            .map(|c| CellRecord {
                scenario: spec.name.clone(),
                cell: c.index,
                key: c.key.clone(),
                axes: c.axes.clone(),
                config: c.config.clone(),
                summary: RunSummary {
                    final_accuracy: 0.1 * ((c.index % 4) + 1) as f64
                        + if c.index < 4 { 0.0 } else { 0.2 },
                    sigma: 0.5,
                    lr: 0.2,
                    iterations: 6,
                    delta: 0.0,
                    defense_stats: Default::default(),
                    history: vec![],
                },
            })
            .collect();
        let md = markdown(&spec, &records, &HashMap::new());
        assert!(md.contains("across 2 repeats (mean ± sample std)"), "{md}");
        // Group 0 holds {0.1, 0.3}, group 3 holds {0.4, 0.6}.
        assert!(md.contains(" 0.200 ± 0.141 |"), "{md}");
        assert!(md.contains(" 0.500 ± 0.141 |"), "{md}");

        let text = csv(&records, &HashMap::new());
        let header = text.lines().next().unwrap();
        assert!(header.ends_with(",repeat_mean_accuracy,repeat_std_accuracy"), "{header}");
        let expected_std = 0.2 / 2f64.sqrt();
        for (line, group) in [(1usize, 0usize), (8, 3)] {
            let row: Vec<&str> = text.lines().nth(line).unwrap().split(',').collect();
            let mean: f64 = row[row.len() - 2].parse().unwrap();
            let std: f64 = row[row.len() - 1].parse().unwrap();
            let expected_mean = 0.1 * (group + 1) as f64 + 0.1;
            assert!((mean - expected_mean).abs() < 1e-12, "line {line}: mean {mean}");
            assert!((std - expected_std).abs() < 1e-12, "line {line}: std {std}");
        }
    }

    #[test]
    fn seed_list_axis_aggregates_like_repeats() {
        // SeedPolicy::List gives cells a `seed` axis; it must behave like
        // the `repeat` axis: excluded from the pivot, aggregated in the
        // mean ± std table and the CSV repeat columns.
        let mut spec = crate::registry::get("smoke/tiny").unwrap();
        spec.seed = crate::spec::SeedPolicy::List { seeds: vec![1, 2] };
        let records: Vec<CellRecord> = spec
            .cells()
            .into_iter()
            .map(|c| CellRecord {
                scenario: spec.name.clone(),
                cell: c.index,
                key: c.key.clone(),
                axes: c.axes.clone(),
                config: c.config.clone(),
                summary: RunSummary {
                    // Seed-1 cells score 0.0, seed-2 cells 1.0.
                    final_accuracy: (c.index / 4) as f64,
                    sigma: 0.25,
                    lr: 0.2,
                    iterations: 6,
                    delta: 0.0,
                    defense_stats: Default::default(),
                    history: vec![],
                },
            })
            .collect();
        let md = markdown(&spec, &records, &HashMap::new());
        assert!(md.contains("attack \\ defense"), "pivot missing: {md}");
        assert!(!md.contains("seed \\"), "{md}");
        assert!(md.contains("across 2 repeats (mean ± sample std)"), "{md}");
        assert_eq!(md.matches(" 0.500 |").count(), 4, "{md}");
        let text = csv(&records, &HashMap::new());
        assert!(text.lines().nth(1).unwrap().contains(",0.5,"), "{text}");
    }

    #[test]
    fn single_seed_list_skips_the_aggregation_table() {
        let mut spec = crate::registry::get("smoke/tiny").unwrap();
        spec.seed = crate::spec::SeedPolicy::List { seeds: vec![7] };
        let records: Vec<CellRecord> = spec
            .cells()
            .into_iter()
            .map(|c| CellRecord {
                scenario: spec.name.clone(),
                cell: c.index,
                key: c.key.clone(),
                axes: c.axes.clone(),
                config: c.config.clone(),
                summary: RunSummary {
                    final_accuracy: 0.5,
                    sigma: 0.25,
                    lr: 0.2,
                    iterations: 6,
                    delta: 0.0,
                    defense_stats: Default::default(),
                    history: vec![],
                },
            })
            .collect();
        let md = markdown(&spec, &records, &HashMap::new());
        assert!(!md.contains("mean ± sample std"), "nothing to aggregate: {md}");
    }

    #[test]
    fn csv_without_repeats_leaves_the_aggregate_columns_empty() {
        let (_, records) = fake_records();
        let text = csv(&records, &HashMap::new());
        assert!(text
            .lines()
            .next()
            .unwrap()
            .ends_with(",repeat_mean_accuracy,repeat_std_accuracy"));
        for row in text.lines().skip(1) {
            assert!(row.ends_with(",,"), "{row}");
        }
    }

    #[test]
    fn sampled_cells_report_the_amplified_epsilon() {
        let (_, mut records) = fake_records();
        records[0].summary.delta = 1e-5;
        records[0].summary.sigma = 4.0;
        let full = achieved_epsilon(&records[0]);
        records[0].config.sampling = 0.25;
        let amplified = achieved_epsilon(&records[0]);
        assert!(full.is_finite() && amplified.is_finite());
        assert!(amplified < full, "subsampling must tighten ε: {amplified} vs {full}");
    }

    #[test]
    fn csv_quotes_labels_containing_commas() {
        // The adaptive attack's label is `adaptive(0.4,label-flip)` — the
        // comma must not produce an extra CSV column.
        let (_, mut records) = fake_records();
        let columns = csv(&records, &HashMap::new()).lines().next().unwrap().matches(',').count();
        records[0].axes[0].1 = "adaptive(0.4,label-flip)".into();
        let text = csv(&records, &HashMap::new());
        let row = text.lines().nth(1).unwrap();
        assert!(row.contains("\"adaptive(0.4,label-flip)\""), "{row}");
        // Commas inside quotes excluded, the column count is unchanged.
        let quoted: String = {
            let mut inside = false;
            row.chars()
                .filter(|&c| {
                    if c == '"' {
                        inside = !inside;
                    }
                    !(inside && c == ',')
                })
                .collect()
        };
        assert_eq!(quoted.matches(',').count(), columns, "{row}");
    }
}
