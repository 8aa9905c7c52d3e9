//! JSONL result sink: one self-describing line per completed grid cell.
//!
//! Each line is a [`CellRecord`] — the cell's content key, provenance
//! (scenario, index, axis labels), the *fully resolved* config and the
//! stable [`RunSummary`] — so a results file is reproducible and readable
//! without the spec that produced it. The content key is what `--resume`
//! matches on: finished cells are never recomputed, even if the spec grew
//! new cells around them.

use dpbfl::prelude::*;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One completed cell, as persisted in the JSONL sink.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// Scenario name the cell belongs to.
    pub scenario: String,
    /// Cell index in the grid expansion.
    pub cell: usize,
    /// Content-hashed key of the resolved config (the resume key).
    pub key: String,
    /// `(axis, value label)` pairs for the swept axes.
    pub axes: Vec<(String, String)>,
    /// The fully resolved configuration that ran.
    pub config: SimulationConfig,
    /// The run's stable result summary.
    pub summary: RunSummary,
}

/// Serializes one record as a JSONL line (no trailing newline).
pub fn to_line(record: &CellRecord) -> String {
    serde_json::to_string(record).expect("record serializes")
}

/// Loads every record from a JSONL file. Errors name the offending line.
pub fn load_records(path: &Path) -> Result<Vec<CellRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: CellRecord = serde_json::from_str(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), i + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Writes `records` to the sink, one line each, in the order given. The
/// file is **atomically** rewritten from scratch (temp file + rename), so a
/// kill mid-rewrite can never destroy the journaled results the sink exists
/// to protect.
pub fn write_records(path: &Path, records: &[CellRecord]) -> Result<(), String> {
    let mut buf = String::new();
    for record in records {
        buf.push_str(&to_line(record));
        buf.push('\n');
    }
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, buf.as_bytes()).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_jsonl() {
        let spec = crate::registry::get("smoke/tiny").unwrap();
        let cells = spec.cells();
        let records: Vec<CellRecord> = cells
            .iter()
            .map(|c| CellRecord {
                scenario: spec.name.clone(),
                cell: c.index,
                key: c.key.clone(),
                axes: c.axes.clone(),
                config: c.config.clone(),
                summary: RunSummary {
                    final_accuracy: 0.5,
                    sigma: 0.5,
                    lr: 0.2,
                    iterations: 6,
                    delta: 0.0,
                    defense_stats: Default::default(),
                    history: vec![],
                },
            })
            .collect();
        let dir = std::env::temp_dir().join("dpbfl-harness-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        write_records(&path, &records).unwrap();
        let back = load_records(&path).unwrap();
        assert_eq!(back.len(), records.len());
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.axes, b.axes);
            assert_eq!(to_line(a), to_line(b), "serialization is canonical");
        }
        std::fs::remove_file(&path).ok();
    }
}
