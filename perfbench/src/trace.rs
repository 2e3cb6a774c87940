//! The span recorder: spans are kept in memory while a traced run goes
//! and written out when it ends.
//!
//! A span's self time is its duration minus the part of its interval its
//! children cover. Children of one span may overlap (cells on parallel
//! threads), so the covered part is the length of the union of their
//! intervals, clipped to the parent.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Seconds since the recorder's origin.
    pub start: f64,
    /// Seconds since the recorder's origin (`NaN` while open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The traced run the span belongs to.
    pub run: u32,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    origin: Instant,
    run: u32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder for traced run `run`, timing from now.
    pub fn new(run: u32) -> Recorder {
        Recorder {
            origin: Instant::now(),
            run,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span starting now; close it with [`Recorder::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.push(name, parent, start, f64::NAN)
    }

    /// Ends span `id` now.
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans.lock().expect("span list lock")[id].end = end;
    }

    /// Records a finished span.
    pub fn push(&self, name: &'static str, parent: Option<usize>, start: f64, end: f64) -> usize {
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start,
            end,
            parent,
            run: self.run,
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.push(name, Some(parent), start, self.now());
        out
    }

    /// The recorded spans, in the order they were opened or pushed.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock")
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-layer totals over a span list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans of this name.
    pub count: usize,
    /// Summed durations.
    pub total: f64,
    /// Summed self times.
    pub self_time: f64,
}

/// Groups spans by name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total += s.duration();
        l.self_time += own;
    }
    out
}

/// The spans as tab-separated lines with a header.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\trun\tname\tparent\tstart_s\tend_s\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        out.push_str(&format!(
            "{i}\t{}\t{}\t{parent}\t{:.9}\t{:.9}\n",
            s.run, s.name, s.start, s.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // run [0,10]: plan [0,1], executor [1,7], merge [7,8]; executor
        // has three overlapping cells on two threads covering [1.5,6.5]
        // (union 5.0 of a summed 6.5); a grandchild never counts against
        // the root.
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("plan", 0.0, 1.0, Some(0)),
            span("executor", 1.0, 7.0, Some(0)),
            span("cell", 1.5, 4.0, Some(2)),
            span("cell", 2.0, 5.0, Some(2)),
            span("cell", 5.0, 6.5, Some(2)),
            span("merge", 7.0, 8.0, Some(0)),
        ];
        let own = self_times(&spans);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(
            close(own[0], 2.0),
            "run self = 10 - (1 + 6 + 1): {}",
            own[0]
        );
        assert!(close(own[1], 1.0));
        assert!(close(own[2], 1.0), "executor self = 6 - 5: {}", own[2]);
        assert!(close(own[3], 2.5) && close(own[4], 3.0) && close(own[5], 1.5));
        assert!(close(own[6], 1.0));
        let by_layer = layers(&spans);
        assert_eq!(by_layer["cell"].count, 3);
        assert!(close(by_layer["cell"].total, 7.0));
        // Σ self time of the top-level subtrees plus the root's own
        // time is the root's duration.
        let tops: f64 = ["plan", "executor", "merge"]
            .iter()
            .map(|n| by_layer[n].total)
            .sum();
        assert!(close(tops + own[0], 10.0));
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("a", 1.0, 2.0, None), span("b", 0.5, 1.5, Some(0))];
        let own = self_times(&spans);
        assert!((own[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_writes() {
        let rec = Recorder::new(4);
        let root = rec.open("run", None);
        let x = rec.time("plan", root, || 41 + 1);
        rec.close(root);
        assert_eq!(x, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].end >= spans[1].end && spans[1].start >= spans[0].start);
        assert_eq!(spans[1].parent, Some(0));
        let tsv = to_tsv(&spans);
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.lines().nth(2).unwrap().starts_with("1\t4\tplan\t0\t"));
    }
}
