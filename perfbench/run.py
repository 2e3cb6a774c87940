#!/usr/bin/env python3
"""Builds and runs the lab benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --make-reference

A run builds the `perfbench` package (release, into $CARGO_TARGET_DIR,
default `.bench_build`), runs it, and measures `peak_rss_mb`: the peak
resident memory of the largest process in its tree, from the rusage that
wait4 returns. The last stdout line is the result object.

`--make-reference` rebuilds `perfbench/reference.tsv`, after checking that
the library route it uses writes what `nn-lab --matrix full` writes; it
builds `nn-lab` for that.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_build(manifest, *extra):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build output goes to stderr: stdout carries only the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail(f"building {manifest} failed")


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def run_measured(cmd):
    """Runs cmd, returning (exit code, stdout, peak RSS of its tree in MB)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 reports the child's rusage including the children it reaped;
    # ru_maxrss is then the largest single process of the tree (in KiB).
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "lab", "Cargo.toml")):
        fail(f"no lab sources under {ROOT}: run from a source checkout")
    cargo_build(os.path.join(HERE, "Cargo.toml"))
    exe = os.path.join(target_dir(), "release", "perfbench")

    if args.make_reference:
        cargo_build(os.path.join(ROOT, "Cargo.toml"), "-p", "nn-lab", "--bin", "nn-lab")
        nn_lab = os.path.join(target_dir(), "release", "nn-lab")
        out = os.path.join(HERE, "reference.tsv")
        sys.exit(subprocess.run([exe, "--make-reference", out, "--nn-lab", nn_lab],
                                cwd=ROOT).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seed < 0:
        ap.error("--workload, --seed (>= 0), --seconds and --trace are required")
    code, out, rss_mb = run_measured([
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(code or 1)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print(f"  {'peak_rss_mb':<32} {rss_mb:>16.6f} MB")
    want = declared("per_layer" if args.trace else "end_to_end")
    if sorted(result["metrics"]) != sorted(want):
        fail(f"printed metrics {sorted(result['metrics'])} are not the declared {sorted(want)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
