//! # dpbfl-harness — declarative experiment grids for `dpbfl`
//!
//! The paper's evidence is not one run but *grids* — attack × defense ×
//! Byzantine-fraction × ε sweeps (§6, Tables 2–4). This crate turns the
//! simulation core into an experiment platform:
//!
//! * [`spec`] — the serde-backed [`spec::ScenarioSpec`]/[`spec::GridSpec`]
//!   JSON format: any `SimulationConfig` plus sweep axes, cartesian-expanded
//!   into content-keyed cells.
//! * [`registry`] — named built-in scenarios reproducing every table and
//!   figure of the paper (`dpbfl-exp run paper/attack_showdown` works out
//!   of the box).
//! * [`runner`] — the deterministic parallel grid runner: per-cell seeds
//!   derived `worker_seed`-style from the master seed, results
//!   bit-identical at any thread count and to standalone
//!   `simulation::run` calls; unique data preparations are built once and
//!   shared across cells.
//! * [`sink`] — the JSONL result sink whose content-hashed cell keys back
//!   `--resume` (finished cells are never recomputed).
//! * [`report`] — markdown + CSV paper-style tables and the
//!   machine-readable `BENCH_harness.json` summary; with `--metrics-dir`
//!   the tables gain per-cell telemetry-ledger columns (mean stage-1
//!   acceptance rate, ledger ε).
//! * [`cli`] — the command-line plumbing of the three binaries: one
//!   argument reader, one error type whose variant is the exit status
//!   (2 for a wrong command line, 1 for a failed command), and one `main`
//!   that prints `error: …` and exits.
//! * [`docs`] — the generated scenario catalog (`dpbfl-exp docs` renders
//!   the registry into `docs/SCENARIOS.md`; CI keeps it fresh).
//! * [`perf`] — `dpbfl-exp perf`: benchmark runs recorded as
//!   `BENCH_*.json` rows, and the parent/change tables and verdicts drawn
//!   from alternating pairs of them.
//!
//! The `dpbfl-exp` binary is the CLI over all of it (`dpbfl-server` and
//! `dpbfl-client` put single cells on real sockets); the repo's
//! `examples/` are thin pretty-printing wrappers over [`registry`], which
//! holds every paper table and figure — there is no second experiment
//! harness. `docs/ARCHITECTURE.md` (repo root) places this crate in the
//! workspace's 9-crate dependency chain and spells out the determinism
//! contract the runner extends to grid level.

pub mod cli;
pub mod docs;
pub mod perf;
pub mod registry;
pub mod report;
pub mod runner;
pub mod sink;
pub mod spec;

pub use runner::{run_grid, run_scenario_in_memory, GridOutcome, RunOptions};
pub use sink::CellRecord;
pub use spec::{Cell, GridSpec, IncludeRow, ScenarioSpec, SeedPolicy};
