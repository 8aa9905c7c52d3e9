//! Paper Table 1 from the registry: the privacy / >50 %-resilience matrix.
//!
//! Every row — the four non-private robust rules, clipping DP-SGD + Krum,
//! the sign-compression DP baseline (a first-class `WorkerProtocol`
//! substrate), the two-stage protocol and the Reference-Accuracy ceiling —
//! is an `include` row of the `paper/table1_matrix` scenario; this example
//! shows the raw registry surface.
//!
//! ```text
//! cargo run --release -p dpbfl-harness --example paper_table1
//! ```

use dpbfl_harness::{registry, run_scenario_in_memory};

fn main() {
    let spec = registry::get("paper/table1_matrix").expect("built-in scenario");
    println!("{}\n{}\n", spec.title, spec.notes);
    let results = run_scenario_in_memory(&spec);

    let reference = results
        .iter()
        .find(|(cell, _)| cell.axis("row") == Some("reference"))
        .expect("reference row present")
        .1
        .final_accuracy;
    println!("{:<16} {:>10} {:>12}", "method", "accuracy", "≥80% of ref");
    for (cell, result) in &results {
        let label = cell.axis("row").expect("table-1 cells are include rows");
        if label == "reference" {
            continue;
        }
        println!(
            "{label:<16} {:>10.3} {:>12}",
            result.final_accuracy,
            if result.final_accuracy >= 0.8 * reference { "yes" } else { "no" },
        );
    }
    println!("\nReference Accuracy (no attack, no defense): {reference:.3}");
    println!("Run the same grid with reports: dpbfl-exp run paper/table1_matrix");
}
