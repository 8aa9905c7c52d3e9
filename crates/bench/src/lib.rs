//! # dpbfl-bench
//!
//! The workspace's criterion suites (`benches/`, 12 of them; run with
//! `cargo bench -p dpbfl-bench`, smoke-run in CI with `-- --test`). This
//! library is empty: cargo requires a lib or bin target, and the paper's
//! tables and figures are `dpbfl-harness` registry scenarios
//! (`dpbfl-exp run paper/...`), not code in this crate.
