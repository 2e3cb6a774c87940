//! Workspace-level end-to-end assertions over the paper's A/B/C
//! comparison, the `paper` named matrix: the neutralizer must recover
//! goodput under DPI throttling on every seed, and the matrix must be
//! exactly reproducible.

use net_neutrality::lab::{
    named_matrix, run_matrix_with_threads, CellReport, CellTuning, MatrixReport,
};
use std::sync::OnceLock;

/// Runs the `paper` matrix at test scale (the paper-scale 2 s schedule
/// with 512-bit keys is too slow for a debug build).
fn run_paper(threads: usize) -> MatrixReport {
    let mut spec = named_matrix("paper").expect("paper matrix exists");
    spec.tuning = CellTuning::fast();
    run_matrix_with_threads(&spec, threads)
}

/// One shared run for the assertions that only read it.
fn paper() -> &'static MatrixReport {
    static REPORT: OnceLock<MatrixReport> = OnceLock::new();
    REPORT.get_or_init(|| run_paper(2))
}

/// The A/B/C cells of one seed-axis value: baseline, DPI-throttled plain
/// and DPI-throttled neutralized.
fn abc(seed_axis: u64) -> [&'static CellReport; 3] {
    let cell = |adversary: &str, stack: &str| {
        &paper()
            .cells
            .iter()
            .find(|c| c.seed_axis == seed_axis && c.adversary == adversary && c.stack == stack)
            .unwrap_or_else(|| panic!("cell ({adversary}, {stack}, seed {seed_axis}) exists"))
            .report
    };
    [
        cell("none", "plain"),
        cell("content-dpi", "plain"),
        cell("content-dpi", "neutralized"),
    ]
}

fn counter(report: &CellReport, name: &str) -> u64 {
    report
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

/// The headline result: content DPI throttles the plain flow hard, and
/// the neutralized flow under the same policy is back near baseline.
fn assert_headline(seed_axis: u64) {
    let [baseline, throttled, neutralized] = abc(seed_axis);

    // The adversary bites: content DPI throttles the plain flow hard.
    assert!(throttled.policy_drops > 0, "DPI rule never matched");
    assert!(
        throttled.goodput_bps() < 0.5 * baseline.goodput_bps(),
        "throttle too weak: baseline {:.0} bps vs throttled {:.0} bps",
        baseline.goodput_bps(),
        throttled.goodput_bps()
    );

    // The neutralizer defeats it: same policy, goodput back near baseline.
    assert!(
        neutralized.goodput_bps() > 2.0 * throttled.goodput_bps(),
        "neutralized flow must multiply the throttled one's goodput"
    );
    assert!(
        neutralized.goodput_bps() > 0.9 * baseline.goodput_bps(),
        "neutralized goodput should approach baseline: {:.0} vs {:.0} bps",
        neutralized.goodput_bps(),
        baseline.goodput_bps()
    );
    assert_eq!(
        neutralized.policy_drops, 0,
        "encrypted payloads give content DPI nothing to match"
    );
}

#[test]
fn neutralizer_recovers_goodput_under_dpi_throttling() {
    assert_headline(1);
    let [baseline, _, neutralized] = abc(1);

    // The neutral network delivers the whole CBR schedule and echoes it.
    let f = &baseline.flows[0];
    assert!(f.tx_packets >= 100, "CBR schedule ran: {}", f.tx_packets);
    assert!(f.delivery_ratio > 0.99, "neutral network delivers: {f:?}");
    assert_eq!(baseline.policy_drops, 0);
    assert!(baseline.replies > 0, "echo path works");

    // The full protocol actually ran: one key setup, data forwarded,
    // returns anonymized and verified back at the source.
    assert_eq!(counter(neutralized, "neutralizer.setup_served"), 1);
    assert!(counter(neutralized, "neutralizer.data_forwarded") > 0);
    assert!(counter(neutralized, "neutralizer.return_anonymized") > 0);
    assert!(neutralized.verified_return_blocks > 0);

    // The matrix runs without the probe plane.
    assert!(paper().cells.iter().all(|c| c.report.probe.is_none()));
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let again = run_paper(1);
    assert_eq!(
        again.to_json(),
        paper().to_json(),
        "the paper matrix must reproduce exactly at any thread count"
    );
    assert_eq!(again.to_csv(), paper().to_csv());
}

#[test]
fn different_seeds_still_reach_the_same_conclusion() {
    // The headline result is not a lucky seed: check every seed-axis
    // value the matrix replicates.
    let seeds = named_matrix("paper").unwrap().seeds;
    assert!(seeds.len() >= 2);
    for seed_axis in seeds {
        assert_headline(seed_axis);
    }
}
