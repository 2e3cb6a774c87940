//! Shells the real `nn-lab` binary: argument hardening (bad invocations
//! exit non-zero with a usage message, never a silent default) and the
//! full worker → merge → finalize protocol producing byte-identical
//! artifacts to the single-process run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn nn_lab(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nn-lab"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("nn-lab binary runs")
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nn-lab-cli-{tag}-{}", std::process::id()));
    // A leftover from a crashed earlier run would make byte-comparisons
    // read stale files.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let dir = tmpdir("badargs");
    // Every one of these must be refused at the parser: exit code 2 and
    // the usage text on stderr, before any cell runs.
    let cases: &[&[&str]] = &[
        &["--nope"],
        &["extra-positional"],
        &["--threads"],          // missing value
        &["--threads", "0"],     // zero is not a pool
        &["--threads", "three"], // not a number
        &["--shards", "0"],
        &["--shards", "-2"],
        &["--shard", "3/2", "--worker"], // index out of range
        &["--shard", "2/2", "--worker"], // index == count
        &["--shard", "x/y", "--worker"], // not numbers
        &["--shard", "1", "--worker"],   // missing /N
        &["--shard", "0/0", "--worker"], // zero shards
        &["--worker"],                   // --worker without --shard
        &["--shard", "0/2"],             // --shard without --worker
        &["--merge"],                    // no files
        &["--worker", "--shard", "0/2", "--shards", "2"], // exclusive modes
        &["--merge", "a.json", "--shards", "2"], // exclusive modes
        // Flags a mode cannot honor are refused, not silently dropped.
        &["--worker", "--shard", "0/2", "--csv", "w.csv"],
        &["--merge", "a.json", "--matrix", "smoke"],
        &["--merge", "a.json", "--threads", "2"],
        &["--merge", "a.json", "--progress"], // nothing runs, no heartbeat
    ];
    for args in cases {
        let out = nn_lab(args, &dir);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must exit 2, got {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage:"),
            "{args:?} must print usage: {stderr}"
        );
    }
    // Runtime failures (well-formed invocation, impossible request) exit
    // 1 with a diagnostic instead.
    let out = nn_lab(&["--matrix", "nope"], &dir);
    assert_eq!(
        out.status.code(),
        Some(1),
        "unknown matrix is a runtime error"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown matrix"));
    let out = nn_lab(&["--merge", "does-not-exist.json"], &dir);
    assert_eq!(
        out.status.code(),
        Some(1),
        "missing shard file is a runtime error"
    );
}

/// Hostile shard input: 200 000 unclosed `[` must be refused by the
/// bounded-depth parser with exit 1 and a diagnostic, not abort the
/// process with a stack overflow.
#[test]
fn merge_of_deeply_nested_json_exits_1() {
    let dir = tmpdir("nested");
    std::fs::write(dir.join("deep.json"), "[".repeat(200_000)).expect("write input");
    let out = nn_lab(&["--merge", "deep.json"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nesting deeper than"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

/// The acceptance criterion, end to end through the real binary: the
/// smoke matrix run as 3 worker processes plus `--merge`, and as the
/// `--shards 3` orchestrator, produces JSON and CSV byte-identical to
/// the single-process run (which the golden tests pin in turn).
#[test]
fn worker_merge_and_shards_match_single_process_byte_for_byte() {
    let dir = tmpdir("shards");
    let ok = |out: &Output, what: &str| {
        assert!(
            out.status.success(),
            "{what} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    };

    let single = nn_lab(
        &[
            "--matrix",
            "smoke",
            "--out",
            "single.json",
            "--csv",
            "single.csv",
            "--threads",
            "2",
        ],
        &dir,
    );
    ok(&single, "single-process run");

    // Three workers, two writing files, one emitting on stdout — both
    // transports must carry the identical shard report.
    for shard in ["0/3", "1/3"] {
        let name = format!("shard{}.json", &shard[..1]);
        let worker = nn_lab(
            &[
                "--worker",
                "--shard",
                shard,
                "--matrix",
                "smoke",
                "--out",
                &name,
                "--threads",
                "2",
            ],
            &dir,
        );
        ok(&worker, &format!("worker {shard}"));
        assert!(
            worker.stdout.is_empty(),
            "with --out, worker stdout stays clean for piping"
        );
    }
    let worker = nn_lab(
        &[
            "--worker",
            "--shard",
            "2/3",
            "--matrix",
            "smoke",
            "--threads",
            "2",
        ],
        &dir,
    );
    ok(&worker, "worker 2/3 (stdout)");
    std::fs::write(
        dir.join("shard2.json"),
        String::from_utf8(worker.stdout)
            .expect("worker emits UTF-8 JSON")
            .trim_end(),
    )
    .expect("write shard2");

    let merge = nn_lab(
        &[
            "--merge",
            "shard0.json",
            "shard1.json",
            "shard2.json",
            "--out",
            "merged.json",
            "--csv",
            "merged.csv",
        ],
        &dir,
    );
    ok(&merge, "merge");
    assert_eq!(
        read(&dir, "merged.json"),
        read(&dir, "single.json"),
        "merged JSON drifted"
    );
    assert_eq!(
        read(&dir, "merged.csv"),
        read(&dir, "single.csv"),
        "merged CSV drifted"
    );

    // The --shards orchestrator (spawning this same binary) agrees too.
    let sharded = nn_lab(
        &[
            "--matrix",
            "smoke",
            "--shards",
            "3",
            "--threads",
            "2",
            "--out",
            "sharded.json",
            "--csv",
            "sharded.csv",
        ],
        &dir,
    );
    ok(&sharded, "--shards 3 run");
    assert_eq!(
        read(&dir, "sharded.json"),
        read(&dir, "single.json"),
        "sharded JSON drifted"
    );
    assert_eq!(
        read(&dir, "sharded.csv"),
        read(&dir, "single.csv"),
        "sharded CSV drifted"
    );

    // An incomplete shard set must refuse to merge, loudly.
    run_incomplete_merge_checks(&dir);

    // --progress emits a per-cell heartbeat on stderr and nothing else
    // changes: the artifacts stay byte-identical to the quiet run.
    let progress = nn_lab(
        &[
            "--matrix",
            "smoke",
            "--progress",
            "--out",
            "progress.json",
            "--csv",
            "progress.csv",
            "--threads",
            "2",
        ],
        &dir,
    );
    ok(&progress, "--progress run");
    let stderr = String::from_utf8_lossy(&progress.stderr);
    assert!(
        stderr.contains("worker") && stderr.contains("cells"),
        "heartbeat lines must show per-worker cell counts: {stderr}"
    );
    assert_eq!(
        read(&dir, "progress.json"),
        read(&dir, "single.json"),
        "--progress must not change the JSON artifact"
    );
    assert_eq!(
        read(&dir, "progress.csv"),
        read(&dir, "single.csv"),
        "--progress must not change the CSV artifact"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn run_incomplete_merge_checks(dir: &Path) {
    // An incomplete shard set must refuse to merge, loudly.
    let partial = nn_lab(
        &["--merge", "shard0.json", "shard2.json", "--out", "bad.json"],
        dir,
    );
    assert_eq!(partial.status.code(), Some(1), "incomplete set must fail");
    assert!(
        String::from_utf8_lossy(&partial.stderr).contains("shard 1 is missing"),
        "merge failure names the missing shard"
    );
    // And a duplicated shard position as well.
    let dup = nn_lab(
        &[
            "--merge",
            "shard0.json",
            "shard0.json",
            "shard1.json",
            "shard2.json",
        ],
        dir,
    );
    assert_eq!(dup.status.code(), Some(1), "overlapping set must fail");
    assert!(
        String::from_utf8_lossy(&dup.stderr).contains("shard 0 appears more than once"),
        "merge failure names the duplicate shard"
    );
}

/// The dynamic-event acceptance gate through the real binary: the
/// `flaky` matrix (multihomed failover mid-partition) run single-process,
/// as `--shards 3` worker children, and through an explicit
/// worker → `--merge` round, all byte-identical — and equal to the
/// committed golden, so a CLI run on any machine reproduces the pinned
/// trace exactly.
#[test]
fn flaky_matrix_is_deterministic_across_process_topologies() {
    let dir = tmpdir("flaky");
    let ok = |out: &Output, what: &str| {
        assert!(
            out.status.success(),
            "{what} failed: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    };

    let single = nn_lab(
        &[
            "--matrix",
            "flaky",
            "--out",
            "single.json",
            "--csv",
            "single.csv",
            "--threads",
            "2",
        ],
        &dir,
    );
    ok(&single, "single-process flaky run");

    let sharded = nn_lab(
        &[
            "--matrix",
            "flaky",
            "--shards",
            "3",
            "--threads",
            "1",
            "--out",
            "sharded.json",
            "--csv",
            "sharded.csv",
        ],
        &dir,
    );
    ok(&sharded, "--shards 3 flaky run");
    assert_eq!(
        read(&dir, "sharded.json"),
        read(&dir, "single.json"),
        "sharded flaky JSON drifted"
    );
    assert_eq!(
        read(&dir, "sharded.csv"),
        read(&dir, "single.csv"),
        "sharded flaky CSV drifted"
    );

    // Explicit worker files merged back — the cross-host path.
    for shard in ["0/3", "1/3", "2/3"] {
        let name = format!("fshard{}.json", &shard[..1]);
        let worker = nn_lab(
            &[
                "--worker",
                "--shard",
                shard,
                "--matrix",
                "flaky",
                "--out",
                &name,
                "--threads",
                "2",
            ],
            &dir,
        );
        ok(&worker, &format!("flaky worker {shard}"));
    }
    let merge = nn_lab(
        &[
            "--merge",
            "fshard0.json",
            "fshard1.json",
            "fshard2.json",
            "--out",
            "merged.json",
            "--csv",
            "merged.csv",
        ],
        &dir,
    );
    ok(&merge, "flaky merge");
    assert_eq!(
        read(&dir, "merged.json"),
        read(&dir, "single.json"),
        "merged flaky JSON drifted"
    );
    assert_eq!(
        read(&dir, "merged.csv"),
        read(&dir, "single.csv"),
        "merged flaky CSV drifted"
    );

    // And the binary agrees with the committed golden, so the whole
    // process pipeline is pinned to the same trace the library tests pin.
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens");
    let golden_json =
        std::fs::read_to_string(golden_dir.join("flaky_matrix.json")).expect("committed golden");
    let golden_csv =
        std::fs::read_to_string(golden_dir.join("flaky_matrix.csv")).expect("committed golden");
    assert_eq!(
        read(&dir, "single.json"),
        golden_json,
        "CLI flaky JSON drifted from the committed golden"
    );
    assert_eq!(
        read(&dir, "single.csv"),
        golden_csv,
        "CLI flaky CSV drifted from the committed golden"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
