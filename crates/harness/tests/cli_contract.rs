//! The command-line contract of the three binaries: for each malformed or
//! failing invocation, the exit status (2 for a wrong command line, 1 for a
//! command that ran and failed) and the first line written to stderr, and
//! what a closed stdout does to a command that succeeds. No case here
//! trains or binds a socket, and none writes a file other than the input it
//! hands a command: each fails before it would.

use dpbfl::prelude::{AttackSpec, DefenseKind};
use dpbfl_harness::{GridSpec, ScenarioSpec};
use std::process::{Command, Output};

/// The scenario the server cases name: one cell, so only the flags decide.
const X: &str = "serving/loopback_smoke";

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

/// Asserts that `bin args` exits `code` with `first` as its first stderr
/// line.
fn case(bin: &str, args: &[&str], code: i32, first: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().next().unwrap_or(""), first, "{args:?}");
}

const EXP: &str = env!("CARGO_BIN_EXE_dpbfl-exp");
const SERVER: &str = env!("CARGO_BIN_EXE_dpbfl-server");
const CLIENT: &str = env!("CARGO_BIN_EXE_dpbfl-client");

#[test]
fn dpbfl_exp_exit_codes_and_messages() {
    let cases: &[(&[&str], i32, &str)] = &[
        (&["bogus"], 2, "error: unknown command `bogus`"),
        (&["show"], 2, "error: missing <scenario> argument"),
        (&["validate"], 2, "error: missing <file.json> argument"),
        (
            &["validate", "/nonexistent.json"],
            1,
            "error: /nonexistent.json: No such file or directory (os error 2)",
        ),
        (&["run", "smoke/tiny", "--out"], 2, "error: --out needs a value"),
        (
            &["run", "smoke/tiny", "--threads", "0"],
            2,
            "error: --threads expects `auto` or a positive integer, got `0`",
        ),
        (&["run", "smoke/tiny", "--bogus"], 2, "error: unknown flag `--bogus`"),
        (
            &["run", "nosuch/scenario"],
            1,
            "error: `nosuch/scenario` is neither a built-in scenario nor a spec file.",
        ),
        (&["metrics"], 2, "error: missing <ledger.jsonl> argument"),
        (
            &["metrics", "/nonexistent"],
            1,
            "error: /nonexistent: No such file or directory (os error 2)",
        ),
        (&["docs", "--bogus"], 2, "error: unknown flag `--bogus`"),
        (
            &["docs", "--check", "--out", "/nonexistent.md"],
            1,
            "error: /nonexistent.md: No such file or directory (os error 2)",
        ),
        (&["perf"], 2, "error: `perf` has two subcommands, `record` and `compare`"),
        (&["perf", "record", "--workload"], 2, "error: --workload needs a value"),
        (
            &["perf", "record", "--workload", "w", "--seed", "x"],
            2,
            "error: perf record needs --workload and a numeric --seed",
        ),
        (&["perf", "compare", "--base", "a"], 2, "error: perf compare needs --base and --head"),
    ];
    for (args, code, first) in cases {
        case(EXP, args, *code, first);
    }
}

#[test]
fn dpbfl_server_exit_codes_and_messages() {
    let cases: &[(&[&str], i32, &str)] = &[
        (&[X, "--cell", "x"], 2, "error: --cell wants a cell index, got `x`"),
        (&[X, "--listen"], 2, "error: --listen needs a value"),
        (&[X, "--bogus", "1"], 2, "error: unknown flag `--bogus`"),
        (&[X, "--deadline-ms", "x"], 2, "error: --deadline-ms wants an integer, got `x`"),
        (
            &["paper/quickstart", "--in-process"],
            1,
            "error: `paper/quickstart` expands to 2 cells; dpbfl-server serves exactly one \
             (pass --cell N, or pick a 1-cell scenario such as serving/loopback_smoke)",
        ),
        (
            &[X, "--cell", "9", "--in-process"],
            1,
            "error: `serving/loopback_smoke` has cells 0..1; --cell 9 is out of range",
        ),
        (
            &[X, "--listen", "bogus://x"],
            1,
            "error: unrecognized address \"bogus://x\" (want tcp://HOST:PORT or unix://PATH)",
        ),
    ];
    for (args, code, first) in cases {
        case(SERVER, args, *code, first);
    }
}

#[test]
fn dpbfl_client_exit_codes_and_messages() {
    let cases: &[(&[&str], i32, &str)] = &[
        (&[], 2, "error: --connect and --workers are both required"),
        (&["--connect"], 2, "error: --connect needs a value"),
        (&["--workers", "2-0"], 2, "error: --workers 2-0: range `2-0` runs backwards"),
        (&["--flaky-pct", "200"], 2, "error: --connect and --workers are both required"),
        (&["--max-retries", "x"], 2, "error: --max-retries wants an attempt count, got `x`"),
    ];
    for (args, code, first) in cases {
        case(CLIENT, args, *code, first);
    }
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_zero() {
    for (bin, name) in [(EXP, "dpbfl-exp"), (SERVER, "dpbfl-server"), (CLIENT, "dpbfl-client")] {
        let out = run(bin, &["--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert!(stdout.starts_with(&format!("{name} — ")), "{name}: {stdout}");
        assert!(stdout.contains("\nUSAGE:\n"), "{name}: {stdout}");
        assert!(out.stderr.is_empty(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

// Stray arguments: every command refuses what it does not read, and a
// missing leading argument is named as missing rather than misread.

#[test]
fn list_refuses_a_flag() {
    case(EXP, &["list", "--bogus"], 2, "error: unknown flag `--bogus`");
}

#[test]
fn show_refuses_a_flag_after_the_scenario() {
    case(EXP, &["show", "paper/quickstart", "--out", "x"], 2, "error: unknown flag `--out`");
}

#[test]
fn metrics_refuses_a_flag_after_the_ledger() {
    let ledger =
        std::env::temp_dir().join(format!("dpbfl-cli-ledger-{}.jsonl", std::process::id()));
    std::fs::write(&ledger, "").expect("empty ledger");
    let path = ledger.to_str().expect("utf-8 path");
    case(EXP, &["metrics", path, "--out", "x"], 2, "error: unknown flag `--out`");
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn run_refuses_a_trimmed_mean_that_trims_the_whole_cohort() {
    // smoke/tiny's five workers under a trimmed mean that drops three
    // uploads from each end: such a cell once validated and then panicked
    // the run (exit 101).
    use dpbfl::prelude::{AggregatorKind, DefenseKind};
    let mut spec = dpbfl_harness::registry::get("smoke/tiny").expect("built-in scenario");
    spec.base.defense = DefenseKind::Robust { rule: AggregatorKind::TrimmedMean { trim: 3 } };
    spec.grid.defenses = None;
    let dir = std::env::temp_dir();
    let file = dir.join(format!("dpbfl-cli-trim-{}.json", std::process::id()));
    std::fs::write(&file, serde_json::to_string(&spec).expect("spec serializes")).expect("spec");
    let out_dir = dir.join(format!("dpbfl-cli-trim-out-{}", std::process::id()));
    let args =
        ["run", file.to_str().expect("utf-8 path"), "--out", out_dir.to_str().expect("utf-8")];
    let out = run(EXP, &args);
    let _ = std::fs::remove_file(&file);
    let _ = std::fs::remove_dir_all(&out_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(1 | 2)), "{:?}: {stderr}", out.status);
    assert!(stderr.contains("a cohort of 5; it needs 2·trim < 5"), "{stderr}");
}

/// `smoke/tiny` with its grid cleared to one cell of LabelFlip against the
/// two stages, `edit`ed and written to a spec file named after `tag`.
fn tiny_cell_file(tag: &str, edit: impl FnOnce(&mut ScenarioSpec)) -> std::path::PathBuf {
    let mut spec = dpbfl_harness::registry::get("smoke/tiny").expect("built-in scenario");
    spec.grid = GridSpec::default();
    spec.base.attack = AttackSpec::LabelFlip;
    spec.base.defense = DefenseKind::TwoStage;
    edit(&mut spec);
    let file = std::env::temp_dir().join(format!("dpbfl-cli-{tag}-{}.json", std::process::id()));
    std::fs::write(&file, serde_json::to_string(&spec).expect("spec serializes")).expect("spec");
    file
}

#[test]
fn validate_refuses_each_cell_that_once_validated_and_then_panicked_the_run() {
    use dpbfl::prelude::{ModelKind, SyntheticSpec, WorkerProtocol};
    type Edit = fn(&mut ScenarioSpec);
    let cases: &[(&str, Edit, &str)] = &[
        ("per-worker", |s| s.base.per_worker = 1, "per_worker"),
        ("batch", |s| s.base.dp.batch_size = 97, "dp.batch_size"),
        (
            "clipped-batch",
            |s| {
                s.base.protocol = WorkerProtocol::ClippedDp { clip: 1.0 };
                s.base.dp.batch_size = 200;
                s.base.epsilon = None;
            },
            "dp.batch_size",
        ),
        ("aux", |s| s.base.defense_cfg.aux_per_class = 0, "defense_cfg.aux_per_class"),
        ("clip", |s| s.base.protocol = WorkerProtocol::ClippedDp { clip: 0.0 }, "protocol"),
        ("hidden", |s| s.base.model = ModelKind::SmallMlp { hidden: 0 }, "model"),
        ("classes", |s| s.base.dataset.num_classes = 0, "dataset.num_classes"),
        ("grid", |s| s.base.dataset.proto_grid = 0, "dataset.proto_grid"),
        ("height", |s| s.base.dataset.height = 0, "dataset.height"),
        ("width", |s| s.base.dataset.width = 0, "dataset.width"),
        ("channels", |s| s.base.dataset.channels = 0, "dataset.channels"),
        (
            "shape",
            |s| {
                s.base.model = ModelKind::Mlp784;
                s.grid.datasets = Some(vec![SyntheticSpec::colorectal_like().name]);
            },
            "model",
        ),
    ];
    for (tag, edit, field) in cases {
        let file = tiny_cell_file(tag, edit);
        let out = run(EXP, &["validate", file.to_str().expect("utf-8 path")]);
        let _ = std::fs::remove_file(&file);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.contains(&format!("): {field}")), "{tag}: {stderr}");
    }
}

#[test]
fn server_refuses_a_cell_that_validate_refuses_before_it_binds() {
    use dpbfl::prelude::{AggregatorKind, WorkerProtocol};
    let plain: fn(&mut ScenarioSpec) = |s| s.base.protocol = WorkerProtocol::Plain;
    let trim: fn(&mut ScenarioSpec) =
        |s| s.base.defense = DefenseKind::Robust { rule: AggregatorKind::TrimmedMean { trim: 3 } };
    for (tag, edit, why) in [
        ("server-plain", plain, "two-stage defense requires DP noise"),
        ("server-trim", trim, "a cohort of 5; it needs 2·trim < 5"),
    ] {
        let file = tiny_cell_file(tag, edit);
        let out = run(SERVER, &[file.to_str().expect("utf-8 path"), "--in-process"]);
        let _ = std::fs::remove_file(&file);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert_eq!(stderr.lines().next(), Some("error: `smoke/tiny` has 1 problem(s):"), "{tag}");
        assert!(stderr.contains(why), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}: ran before refusing");
    }
}

#[test]
fn server_refuses_a_sign_dp_cell_it_cannot_serve_before_it_binds() {
    use dpbfl::prelude::WorkerProtocol;
    let file = tiny_cell_file("server-sign-dp", |s| {
        s.base.protocol = WorkerProtocol::SignDp { lr: 0.002, flip_prob: 0.25 };
        (s.base.attack, s.base.defense) = (AttackSpec::None, DefenseKind::NoDefense);
    });
    let path = file.to_str().expect("utf-8 path");
    let first = "error: protocol: sign-DP runs its own loop (baseline::run_sign_dp) and cannot be \
                 served over a transport";
    case(SERVER, &[path], 1, first);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn client_refuses_a_stray_word() {
    case(CLIENT, &["extra"], 2, "error: unexpected argument `extra`");
}

#[test]
fn run_names_the_missing_scenario_before_a_flag() {
    case(EXP, &["run", "--threads", "4"], 2, "error: missing <scenario> argument");
}

#[test]
fn server_names_the_missing_scenario_before_a_flag() {
    case(SERVER, &["--listen", "tcp://127.0.0.1:0", X], 2, "error: missing <scenario> argument");
}

/// No arguments at all: `error: missing <…> argument`, then the usage, both
/// on stderr, and exit 2.
fn no_arguments(bin: &str, name: &str, first: &str) {
    let out = run(bin, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert_eq!(stderr.lines().next(), Some(first), "{name}");
    assert!(stderr.contains(&format!("\n\n{name} — ")), "{name}: no usage in {stderr}");
    assert!(out.stdout.is_empty(), "{name}: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn exp_without_arguments_is_an_error() {
    no_arguments(EXP, "dpbfl-exp", "error: missing <command> argument");
}

#[test]
fn server_without_arguments_is_an_error() {
    no_arguments(SERVER, "dpbfl-server", "error: missing <scenario> argument");
}

#[test]
fn a_closed_stdout_ends_output_quietly() {
    // The read end of stdout's pipe is closed before the command prints its
    // first line (a ledger of no records still prints the table header).
    for args in [&["list"][..], &["metrics", "/dev/null"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(EXP).args(args).stdout(writer).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
