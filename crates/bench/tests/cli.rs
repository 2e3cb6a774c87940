//! Shells the real `nn-bench` binary: the suite index, unknown suite
//! names, and a `--check` baseline that cannot be loaded. Every case
//! here must finish before any suite runs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nn_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nn-bench"))
        .args(args)
        .output()
        .expect("nn-bench binary runs")
}

fn scratch_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nn-bench-cli-{tag}-{}.json", std::process::id()))
}

#[test]
fn list_names_every_suite() {
    let out = nn_bench(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), nn_bench::suites::SUITES.len());
    for (name, _, _) in nn_bench::suites::SUITES {
        assert!(stdout.lines().any(|l| l.starts_with(name)), "{name}");
    }
}

#[test]
fn unknown_suite_exits_2() {
    let out = nn_bench(&["--suites", "no_such_suite"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown suite"), "{stderr}");
}

/// A baseline that cannot be loaded exits 1 with the path on stderr,
/// and no suite has run by then.
fn assert_refused_before_any_suite(path: &str, reason: &str) {
    let out = nn_bench(&["--suites", "raw_crypto", "--check", path]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(path), "{stderr}");
    assert!(stderr.contains(reason), "{stderr}");
    assert!(
        !stdout.contains("== raw_crypto =="),
        "a suite ran: {stdout}"
    );
}

#[test]
fn missing_check_baseline_exits_1_before_any_suite() {
    let path = scratch_file("missing");
    let _ = std::fs::remove_file(&path);
    assert_refused_before_any_suite(path.to_str().unwrap(), "cannot read");
}

#[test]
fn non_json_check_baseline_exits_1_before_any_suite() {
    let path = scratch_file("not-json");
    std::fs::write(&path, "raw_crypto aes128_encrypt_block 62.9\n").unwrap();
    let result = std::panic::catch_unwind(|| {
        assert_refused_before_any_suite(path.to_str().unwrap(), "not JSON")
    });
    std::fs::remove_file(&path).unwrap();
    result.unwrap();
}
