//! `dpbfl-exp report` through the real binary: regenerating the reports of
//! a run recorded with `--metrics-dir` must reproduce them byte for byte,
//! metrics columns included.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpbfl-report-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn dpbfl_exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dpbfl-exp")).args(args).output().expect("dpbfl-exp runs")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

#[test]
fn report_with_metrics_dir_reproduces_the_run_reports() {
    let dir = scratch_dir("metrics");
    let (metrics, out) = (dir.join("m"), dir.join("o"));
    let run = dpbfl_exp(&[
        "run",
        "smoke/tiny",
        "--metrics-dir",
        path(&metrics),
        "--out",
        path(&out),
        "--quiet",
    ]);
    assert!(run.status.success(), "run failed: {}", String::from_utf8_lossy(&run.stderr));
    let scenario_dir = out.join("smoke_tiny");
    let read = |name: &str| std::fs::read(scenario_dir.join(name)).expect("report written");
    let (md, csv) = (read("report.md"), read("report.csv"));
    assert!(String::from_utf8_lossy(&md).contains("mean accept"), "run reports lack metrics");

    let report =
        dpbfl_exp(&["report", "smoke/tiny", "--out", path(&out), "--metrics-dir", path(&metrics)]);
    assert!(report.status.success(), "report failed: {}", String::from_utf8_lossy(&report.stderr));
    assert!(read("report.md") == md, "report.md changed on regeneration");
    assert!(read("report.csv") == csv, "report.csv changed on regeneration");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_rejects_the_run_only_flags() {
    for flag in [&["--threads", "2"][..], &["--resume"], &["--quiet"]] {
        let mut args = vec!["report", "smoke/tiny"];
        args.extend_from_slice(flag);
        let output = dpbfl_exp(&args);
        assert_eq!(output.status.code(), Some(2), "{flag:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(&format!("unknown flag `{}`", flag[0])), "{stderr}");
    }
}
