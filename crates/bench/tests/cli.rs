//! `bench_spider` rejects any argument it does not know, and a flag given
//! twice, before it generates any data: a misspelt `--check` must not turn
//! into a full run that overwrites `BENCH_spider.json` in the working
//! directory.

use ind_testkit::TempDir;
use std::process::Command;

/// Runs `bench_spider args` in an empty directory and asserts it fails,
/// names `culprit` and leaves no `BENCH_spider.json` behind.
fn rejects(args: &[&str], culprit: &str) {
    let cwd = TempDir::new("bench-spider-cli");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_spider"))
        .args(args)
        .current_dir(cwd.path())
        .output()
        .expect("bench_spider runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} succeeded");
    assert!(
        stderr.contains(culprit),
        "{args:?}: stderr does not name {culprit}: {stderr}"
    );
    assert!(
        !cwd.join("BENCH_spider.json").exists(),
        "{args:?} wrote a baseline"
    );
}

#[test]
fn unknown_arguments_fail_before_anything_runs() {
    rejects(&["--chek"], "--chek");
    rejects(&["--scal", "12"], "--scal");
    rejects(&["--check", "12"], "\"12\"");
}

#[test]
fn a_flag_given_twice_fails() {
    rejects(&["--scale", "12", "--scale", "12"], "--scale given twice");
    rejects(&["--check", "--check"], "--check given twice");
}

#[test]
fn a_value_flag_needs_its_value() {
    rejects(&["--scale"], "--scale requires a value");
    rejects(&["--out", "--check"], "--out requires a value");
    rejects(&["--scale", "twelve"], "--scale:");
}
