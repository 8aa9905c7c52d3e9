//! The deterministic parallel grid runner.
//!
//! Cells fan out under rayon; because every cell's result is a pure
//! function of its resolved config (the PR-1 determinism contract, extended
//! to the grid by the spec's seed policy) and the vendored `collect` is
//! order-stable, the JSONL sink is **byte-identical at any thread count**.
//!
//! Cells sharing a data signature ([`PreparedRun::cache_key`]) share one
//! preparation — the dealt partition, the test set and the auxiliary
//! pool: the runner builds each unique preparation once and every cell
//! resumes the master RNG stream from it, so sharing is bit-identical to
//! standalone `simulation::run` calls by construction. Each cell builds its
//! own workers' training shards from the shared partition.

use crate::report::{self, MetricsDigest};
use crate::sink::{self, CellRecord};
use crate::spec::{axes_label, Cell, ScenarioSpec};
use dpbfl::prelude::*;
use dpbfl::simulation::{prepare, run_prepared_telemetry};
use rayon::prelude::*;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Runner options (the CLI's `run` flags).
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Thread count for the cell fan-out; `None` = auto.
    pub threads: Option<usize>,
    /// Root output directory (each scenario gets a subdirectory).
    pub out_dir: PathBuf,
    /// Skip cells whose content key already sits in the sink.
    pub resume: bool,
    /// Suppress per-cell progress lines.
    pub quiet: bool,
    /// When set, each executed cell records a telemetry ledger
    /// (`cell_<index>.jsonl`) into this directory and the reports gain
    /// metrics columns. `None` (the default) runs with null telemetry —
    /// byte-identical results either way.
    pub metrics_dir: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: None,
            out_dir: PathBuf::from("target/harness"),
            resume: false,
            quiet: true,
            metrics_dir: None,
        }
    }
}

/// What a grid run produced.
#[derive(Debug)]
pub struct GridOutcome {
    /// All current cells' records, in cell order (freshly run or resumed).
    pub records: Vec<CellRecord>,
    /// Cells executed this invocation.
    pub ran: usize,
    /// Cells skipped because the sink already had them.
    pub skipped: usize,
    /// Wall time of this invocation in milliseconds.
    pub wall_ms: u64,
    /// Per executed cell: `(cell index, wall ms)`.
    pub cell_wall_ms: Vec<(usize, u64)>,
    /// The scenario's output directory.
    pub scenario_dir: PathBuf,
    /// The JSONL sink path.
    pub jsonl_path: PathBuf,
    /// Per-cell ledger digests (cell index → digest), populated only when
    /// the run recorded metrics (`RunOptions::metrics_dir`); resumed cells
    /// contribute one only if their ledger file already exists.
    pub cell_metrics: HashMap<usize, MetricsDigest>,
}

/// Filesystem-safe directory name for a scenario (`paper/quickstart` →
/// `paper_quickstart`).
pub fn slug(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect()
}

/// Runs `cells` under the ambient rayon width, sharing data preparation
/// between cells with equal [`PreparedRun::cache_key`]s; returns each
/// cell's result and wall time, in input order at any thread count.
/// `on_done` fires on the worker thread the moment a cell completes
/// (completion order is thread-dependent — use it for progress and
/// crash-resilient journaling, never for result ordering).
fn run_cells_timed<F>(
    cells: &[Cell],
    metrics_dir: Option<&Path>,
    on_done: F,
) -> Vec<(RunResult, u64)>
where
    F: Fn(&Cell, &RunResult, u64) + Sync,
{
    // Unique preparation keys in first-seen order, each built once (in
    // parallel — `prepare` draws only from its own seeded streams).
    let cell_keys: Vec<String> = cells.iter().map(|c| PreparedRun::cache_key(&c.config)).collect();
    let mut unique: Vec<(String, usize)> = Vec::new();
    for (i, key) in cell_keys.iter().enumerate() {
        if !unique.iter().any(|(k, _)| k == key) {
            unique.push((key.clone(), i));
        }
    }
    let preps: Vec<PreparedRun> =
        unique.par_iter().map(|(_, first)| prepare(&cells[*first].config)).collect();
    let prep_of: HashMap<&str, &PreparedRun> =
        unique.iter().zip(&preps).map(|((key, _), prep)| (key.as_str(), prep)).collect();

    let indices: Vec<usize> = (0..cells.len()).collect();
    indices
        .par_iter()
        .map(|&i| {
            let started = Instant::now();
            let prep = prep_of[cell_keys[i].as_str()];
            // Telemetry only *observes* the run (see dpbfl-telemetry's
            // crate docs), so the RunResult is the same with or without a
            // ledger.
            let ledger = metrics_dir.map(|dir| dir.join(ledger_name(cells[i].index)));
            let tel = ledger.as_ref().map_or_else(Telemetry::null, |path| {
                Telemetry::new(Box::new(JsonlSink::new(path.clone())))
            });
            let result = run_prepared_telemetry(&cells[i].config, prep, &tel);
            if let (Some(path), Err(e)) = (&ledger, tel.flush()) {
                eprintln!("warning: metrics ledger {}: {e}", path.display());
            }
            let ms = started.elapsed().as_millis() as u64;
            on_done(&cells[i], &result, ms);
            (result, ms)
        })
        .collect()
}

/// The ledger file name of cell `index` inside a metrics directory.
pub fn ledger_name(index: usize) -> String {
    format!("cell_{index}.jsonl")
}

/// Runs `cells` (all of them, results in input order), sharing data
/// preparation between cells with equal data signatures.
pub fn run_cells(cells: &[Cell]) -> Vec<RunResult> {
    run_cells_timed(cells, None, |_, _, _| {}).into_iter().map(|(result, _)| result).collect()
}

/// Convenience for examples: expand a scenario and run every cell
/// in-memory (no sink, no reports), returning `(cell, result)` pairs.
pub fn run_scenario_in_memory(spec: &ScenarioSpec) -> Vec<(Cell, RunResult)> {
    let cells = spec.cells();
    let results = run_cells(&cells);
    cells.into_iter().zip(results).collect()
}

/// Runs a scenario's grid end to end: expand, (optionally) resume from the
/// sink, execute the remaining cells in parallel, persist JSONL + reports.
pub fn run_grid(spec: &ScenarioSpec, opts: &RunOptions) -> Result<GridOutcome, String> {
    let problems = spec.validate();
    if !problems.is_empty() {
        return Err(format!("invalid scenario `{}`:\n  {}", spec.name, problems.join("\n  ")));
    }
    let cells = spec.cells();
    let scenario_dir = opts.out_dir.join(slug(&spec.name));
    std::fs::create_dir_all(&scenario_dir)
        .map_err(|e| format!("{}: {e}", scenario_dir.display()))?;
    let jsonl_path = scenario_dir.join("results.jsonl");
    if let Some(dir) = &opts.metrics_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }

    // Resume: completed cells are matched by content key, so spec edits
    // that add cells only run the new ones. (Under `PerCell` seeding a
    // cell's key includes its index-derived seed, so edits that shift
    // indices reseed — and therefore recompute — the shifted cells.)
    let mut done: HashMap<String, CellRecord> = HashMap::new();
    let mut stale: Vec<CellRecord> = Vec::new();
    if opts.resume && jsonl_path.exists() {
        let current_keys: std::collections::HashSet<&str> =
            cells.iter().map(|c| c.key.as_str()).collect();
        for record in sink::load_records(&jsonl_path)? {
            if current_keys.contains(record.key.as_str()) {
                done.insert(record.key.clone(), record);
            } else {
                // Results from an older version of the spec: kept (at the
                // end of the rewritten sink), never silently discarded.
                stale.push(record);
            }
        }
    }
    let todo: Vec<Cell> = cells.iter().filter(|c| !done.contains_key(&c.key)).cloned().collect();
    let skipped = cells.len() - todo.len();
    if !opts.quiet {
        eprintln!(
            "scenario `{}`: {} cells ({skipped} already in sink), threads = {}",
            spec.name,
            cells.len(),
            opts.threads.map_or("auto".into(), |t| t.to_string()),
        );
    }

    // Execute. Each finished cell is journaled into the sink immediately
    // (under a lock, in completion order), so a killed run keeps every
    // finished cell for `--resume`; progress lines stream the same way.
    // The canonical rewrite below restores cell order, making the final
    // file byte-identical at any thread count.
    let journal = Mutex::new(
        std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(opts.resume)
            .truncate(!opts.resume)
            .open(&jsonl_path)
            .map_err(|e| format!("{}: {e}", jsonl_path.display()))?,
    );
    let started = Instant::now();
    let timed = with_threads(opts.threads, || {
        run_cells_timed(&todo, opts.metrics_dir.as_deref(), |cell, result, ms| {
            let record = record_for(spec, cell, result.clone());
            let mut line = sink::to_line(&record);
            line.push('\n');
            // Best-effort: the canonical rewrite below is the one that
            // reports I/O errors.
            let _ = journal.lock().expect("sink journal lock").write_all(line.as_bytes());
            if !opts.quiet {
                eprintln!(
                    "  cell {:>3} [{}]: accuracy {:.3} ({ms} ms)",
                    cell.index,
                    axes_label(cell),
                    result.final_accuracy,
                );
            }
        })
    });
    drop(journal);
    let wall_ms = started.elapsed().as_millis() as u64;
    let cell_wall_ms: Vec<(usize, u64)> =
        todo.iter().zip(&timed).map(|(cell, (_, ms))| (cell.index, *ms)).collect();

    // All current cells' records, in cell order. Provenance (index, axes,
    // config) is re-derived from the *current* expansion even for resumed
    // cells — the content key guarantees the config is unchanged, but the
    // index may have moved if the spec grew.
    let mut summary_of: HashMap<&str, RunSummary> =
        done.values().map(|r| (r.key.as_str(), r.summary.clone())).collect();
    for (cell, (result, _)) in todo.iter().zip(timed) {
        summary_of.insert(cell.key.as_str(), result);
    }
    let records: Vec<CellRecord> =
        cells.iter().map(|c| record_for(spec, c, summary_of[c.key.as_str()].clone())).collect();

    // Canonical rewrite: current cells in cell order, then any stale
    // records from older spec versions.
    let mut all_lines = records.clone();
    all_lines.extend(stale);
    sink::write_records(&jsonl_path, &all_lines, true)?;

    let cell_metrics = opts
        .metrics_dir
        .as_deref()
        .map_or_else(HashMap::new, |dir| report::digest_ledgers(dir, &records));

    let outcome = GridOutcome {
        ran: todo.len(),
        skipped,
        wall_ms,
        cell_wall_ms,
        scenario_dir,
        jsonl_path,
        records,
        cell_metrics,
    };
    report::write_reports(spec, &outcome)?;
    Ok(outcome)
}

/// Builds the persisted record of one cell: provenance (index, axes,
/// config) from the current expansion, plus its summary.
pub fn record_for(spec: &ScenarioSpec, cell: &Cell, summary: RunSummary) -> CellRecord {
    CellRecord {
        scenario: spec.name.clone(),
        cell: cell.index,
        key: cell.key.clone(),
        axes: cell.axes.clone(),
        config: cell.config.clone(),
        summary,
    }
}

/// Runs `f` under a pinned-thread-count rayon pool (`Some`) or the ambient
/// pool (`None` = auto).
pub fn with_threads<R>(threads: Option<usize>, f: impl FnOnce() -> R) -> R {
    match threads {
        Some(n) => {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("local pool");
            pool.install(f)
        }
        None => f(),
    }
}

/// Reads a `--threads` value (`auto` or a positive integer).
pub fn parse_threads(value: &str) -> Result<Option<usize>, String> {
    if value == "auto" {
        return Ok(None);
    }
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!("--threads expects `auto` or a positive integer, got `{value}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(slug("paper/attack_showdown"), "paper_attack_showdown");
        assert_eq!(slug("smoke/tiny"), "smoke_tiny");
        assert_eq!(slug("a b.c"), "a_b_c");
    }

    #[test]
    fn parse_threads_accepts_auto_and_integers() {
        assert_eq!(parse_threads("auto").unwrap(), None);
        assert_eq!(parse_threads("4").unwrap(), Some(4));
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("lots").is_err());
    }
}
