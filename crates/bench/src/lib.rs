//! # nn-bench — a tiny custom benchmark harness
//!
//! The workspace builds offline (no criterion), so the `benches/`
//! targets use this harness: warm up, run a measured loop around
//! [`std::hint::black_box`], report nanoseconds per iteration. Results
//! are indicative, not statistically rigorous — good enough to compare
//! the paper's cost model (§4) against this implementation and to catch
//! order-of-magnitude regressions.
//!
//! Every bench honors `NN_BENCH_ITERS` to scale the measured loop, so CI
//! can run them as smoke tests while local runs measure properly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations measured.
    pub iters: u64,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
}

impl BenchResult {
    /// Iterations per second implied by the measurement.
    pub fn ops_per_sec(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1e9 / self.ns_per_iter
        } else {
            f64::INFINITY
        }
    }
}

/// Iteration count for a bench. `NN_BENCH_ITERS` is an **absolute
/// override** replacing every suite's per-bench default — useful for
/// uniformly tiny smoke runs (CI uses 5), hazardous for scaling *up*
/// (it would also apply to the expensive keygen benches). A
/// set-but-unparsable override aborts instead of silently running the
/// full default (which could be 10^4 times more work than intended).
pub fn iters(default: u64) -> u64 {
    match std::env::var("NN_BENCH_ITERS") {
        Ok(v) => v
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("NN_BENCH_ITERS is set but not a u64: {v:?}"))
            .max(1),
        Err(_) => default.max(1),
    }
}

/// The shared result sink [`bench`] and [`report_result`] feed, so a
/// driver (the `nn-bench` binary's `--json` mode) can collect every
/// measurement of a suite run without threading a collector through all
/// the suite functions.
fn registry() -> &'static Mutex<Vec<BenchResult>> {
    static REGISTRY: OnceLock<Mutex<Vec<BenchResult>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drains every result recorded since the last call (or process start).
/// The `nn-bench` binary calls this after each suite to attribute
/// results to it.
pub fn take_results() -> Vec<BenchResult> {
    std::mem::take(&mut *registry().lock().expect("bench registry"))
}

/// Times `f` over `iters` iterations (after `iters/10 + 1` warm-up runs)
/// and prints one result line.
pub fn bench<F: FnMut()>(name: &str, iters: u64, mut f: F) -> BenchResult {
    let iters = iters.max(1);
    for _ in 0..(iters / 10 + 1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    let result = BenchResult {
        name: name.to_string(),
        iters,
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
    };
    print_result(&result);
    registry()
        .lock()
        .expect("bench registry")
        .push(result.clone());
    result
}

/// Prints one aligned result line and records it in the registry — for
/// suites that time a loop by hand instead of going through [`bench()`].
pub fn report_result(r: &BenchResult) {
    print_result(r);
    registry().lock().expect("bench registry").push(r.clone());
}

/// Prints one aligned result line.
pub fn print_result(r: &BenchResult) {
    println!(
        "{:<40} {:>12.1} ns/iter {:>14.0} ops/s ({} iters)",
        r.name,
        r.ns_per_iter,
        r.ops_per_sec(),
        r.iters
    );
}

/// Prints a bench-group header.
pub fn header(group: &str) {
    println!("== {group} ==");
}

pub mod suites;

#[cfg(test)]
mod tests {
    use super::*;
    use nn_lab::json::Json;

    #[test]
    fn bench_measures_and_counts() {
        let mut calls = 0u64;
        let r = bench("noop", 100, || calls += 1);
        assert_eq!(r.iters, 100);
        assert!(calls >= 100, "measured loop ran (plus warmup): {calls}");
        assert!(r.ns_per_iter >= 0.0);
    }

    #[test]
    fn suite_table_is_well_formed() {
        let names: std::collections::HashSet<&str> =
            crate::suites::SUITES.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names.len(), crate::suites::SUITES.len(), "names unique");
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    /// The SUITES table, the `[[bench]]` manifest entries and the
    /// `benches/*.rs` shell files must stay in sync — a drifted trio
    /// compiles fine but breaks `cargo bench --bench <name>` at runtime.
    #[test]
    fn suite_table_matches_bench_targets() {
        let manifest = include_str!("../Cargo.toml");
        let bench_entries = manifest.matches("[[bench]]").count();
        assert_eq!(
            bench_entries,
            crate::suites::SUITES.len(),
            "one [[bench]] entry per suite"
        );
        let bench_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
        for (name, _, _) in crate::suites::SUITES {
            assert!(
                manifest.contains(&format!("name = \"{name}\"")),
                "suite {name} missing from Cargo.toml [[bench]] targets"
            );
            assert!(
                bench_dir.join(format!("{name}.rs")).exists(),
                "suite {name} missing its benches/{name}.rs shell"
            );
        }
    }

    /// Every suite the committed baseline names must still exist, so a
    /// deleted suite cannot leave stale entries behind unnoticed.
    #[test]
    fn committed_baseline_names_only_live_suites() {
        let baseline =
            Json::parse(include_str!("../../../BENCH_perf.json")).expect("baseline JSON");
        let suites = baseline
            .get("suites")
            .and_then(Json::as_arr)
            .expect("baseline has a suites array");
        assert!(!suites.is_empty());
        for entry in suites {
            let name = entry
                .get("suite")
                .and_then(Json::as_str)
                .expect("every baseline entry names its suite");
            assert!(
                crate::suites::SUITES.iter().any(|(n, _, _)| *n == name),
                "BENCH_perf.json names suite {name:?}, which SUITES does not have"
            );
        }
    }

    #[test]
    fn iters_default_applies() {
        // Only meaningful when the override is absent from the
        // environment; a developer with NN_BENCH_ITERS exported must not
        // get a spurious failure.
        if std::env::var_os("NN_BENCH_ITERS").is_none() {
            assert_eq!(iters(123), 123);
        }
    }
}
