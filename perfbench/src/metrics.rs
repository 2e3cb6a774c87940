//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's contract with
//! `BENCHMARK.json`; a test keeps them identical to its `end_to_end` and
//! `per_layer` entries.

use std::collections::BTreeMap;

/// End-to-end metrics of an untraced run: (name, unit).
/// `peak_rss_mb` is measured by `run.py` around this process tree.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("report_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cell_ok_ratio", "ratio"),
];

/// The end-to-end metric this binary does not measure itself.
pub const MEASURED_BY_WRAPPER: &str = "peak_rss_mb";

/// Per-layer metrics of a traced run: (name, unit).
pub const PER_LAYER: [(&str, &str); 34] = [
    ("plan.s", "s"),
    ("executor.wall_s", "s"),
    ("executor.busy_s", "s"),
    ("executor.idle_s", "s"),
    ("executor.parallel_eff", "ratio"),
    ("executor.spawn_s", "s"),
    ("cell.ms.p50", "ms"),
    ("cell.ms.p99", "ms"),
    ("cell.ms.max", "ms"),
    ("cell.plain.ms.p50", "ms"),
    ("cell.neutralized.ms.p50", "ms"),
    ("cell.ns_per_event", "ns"),
    ("cell.events", "count"),
    ("stack.neutralized_extra_ms.p50", "ms"),
    ("crypto.keygen_ms.p50", "ms"),
    ("crypto.keygens", "count"),
    ("crypto.keygen_share", "ratio"),
    ("netsim.pool_allocs", "count"),
    ("netsim.pool_recycle_ratio", "ratio"),
    ("shard.to_json_s", "s"),
    ("shard.from_json_s", "s"),
    ("shard.wire_bytes", "bytes"),
    ("shard.merge_s", "s"),
    ("matrix.verify_s", "s"),
    ("finalize.s", "s"),
    ("matrix.to_json_s", "s"),
    ("matrix.to_csv_s", "s"),
    ("report.json_bytes", "bytes"),
    ("json.parse_s", "s"),
    ("json.parse_ns_per_byte", "ns"),
    ("io.write_s", "s"),
    ("io.reread_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Median of `xs` (mean of the middle two for even lengths); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `0..=100`; `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median per metric over several traced iterations.
pub fn median_per_metric(runs: &[Values]) -> Values {
    let mut out = Values::new();
    if let Some(first) = runs.first() {
        for name in first.keys() {
            let xs: Vec<f64> = runs.iter().map(|r| r[name]).collect();
            out.insert(name, median(&xs));
        }
    }
    out
}

/// The result line: exactly the metrics of `declared`, except
/// [`MEASURED_BY_WRAPPER`], each with its unit.
///
/// # Panics
///
/// Panics if `values` holds a name that is not declared or lacks one
/// that is: the printed set must be exactly the declared one.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    values: &Values,
) -> String {
    let wanted: Vec<(&str, &str)> = declared
        .iter()
        .copied()
        .filter(|(n, _)| *n != MEASURED_BY_WRAPPER)
        .collect();
    for name in values.keys() {
        assert!(valid_name(name), "metric name {name:?} is malformed");
        assert!(
            wanted.iter().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// A finite number with all its digits; non-finite values become
/// `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_lab::json::Json;

    /// (name, unit) pairs of one list in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).unwrap();
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_are_declared_and_well_formed() {
        assert_eq!(owned(&END_TO_END), declared("end_to_end"));
        assert_eq!(owned(&PER_LAYER), declared("per_layer"));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
        // What the result line prints is exactly the declared list.
        let values: Values = PER_LAYER.iter().map(|(n, _)| (*n, 1.5)).collect();
        let line = result_line(true, 3, 0, &PER_LAYER, &values);
        let doc = Json::parse(&line).unwrap();
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(printed, want);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn result_line_refuses_undeclared_names() {
        let mut values: Values = END_TO_END.iter().map(|(n, _)| (*n, 1.0)).collect();
        values.insert("bogus", 2.0);
        result_line(true, 1, 0, &END_TO_END, &values);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert!(median(&[]).is_nan());
    }
}
