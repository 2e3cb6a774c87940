//! Hostile-input properties of everything that crosses a file or process
//! boundary as text or bytes: the JSON reader, the shard wire format it
//! carries, and NNH1 histogram encodings.
//!
//! The property is the same in every case: the decoder answers with a
//! typed `Err` or with a correct round trip — it never panics.

use nn_lab::json::Json;
use nn_lab::{
    run_shard, AdversarySpec, CellAssignment, CellTuning, EventTimelineSpec, ExperimentSpec,
    LinkProfileSpec, ShardReport, StackKind, TopologySpec, WorkloadSpec,
};
use nn_netsim::Histogram;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// Characters that stress the string reader: both delimiters, the
/// control bytes the writer must escape, DEL, and multi-byte scalars of
/// two and four bytes.
const NASTY: [char; 12] = [
    '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀', 'a',
];

fn nasty_string(rng: &mut TestRng) -> String {
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| NASTY[rng.below(NASTY.len() as u64) as usize])
        .collect()
}

/// Strategy for arbitrary [`Json`] trees, at most `depth` levels deep.
/// Numbers stay finite: the writer degrades NaN and infinities to
/// `null`, which is deliberately not a round trip.
struct JsonTree {
    depth: u32,
}

impl JsonTree {
    fn gen(&self, rng: &mut TestRng, depth: u32) -> Json {
        let leaf = depth == 0 || rng.below(3) == 0;
        match rng.below(if leaf { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 1),
            2 => Json::UInt(rng.next_u64() >> rng.below(64)),
            3 => {
                let n = f64::from_bits(rng.next_u64());
                Json::Num(if n.is_finite() { n } else { -0.5 })
            }
            4 => Json::Str(nasty_string(rng)),
            5 => Json::Arr(
                (0..rng.below(4))
                    .map(|_| self.gen(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(4))
                    .map(|_| (nasty_string(rng), self.gen(rng, depth - 1)))
                    .collect(),
            ),
        }
    }
}

impl Strategy for JsonTree {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        self.gen(rng, self.depth)
    }
}

/// A real two-cell shard report with probe evidence, so the wire format
/// under attack carries every kind of field a worker emits.
fn shard_report() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let spec = ExperimentSpec {
            name: "json-prop".to_string(),
            topologies: vec![TopologySpec::chain()],
            links: vec![LinkProfileSpec::Clean],
            workloads: vec![WorkloadSpec::voip_default()],
            adversaries: vec![AdversarySpec::None, AdversarySpec::content_dpi_default()],
            stacks: vec![StackKind::Plain],
            events: vec![EventTimelineSpec::Static],
            seeds: vec![1],
            probes: true,
            tuning: CellTuning {
                duration: Duration::from_millis(150),
                ..CellTuning::fast()
            },
        };
        let assignment = CellAssignment::new(0, 1).expect("one shard");
        run_shard(&spec, &assignment, 1).to_json()
    })
}

/// Feeds `text` through both readers. Either may refuse it; a shard
/// report the decoder accepts must survive its own wire format
/// unchanged (it was parsed as JSON on the way in).
fn both_readers(text: &str) {
    let parsed = Json::parse(text);
    if let Ok(report) = ShardReport::from_json(text) {
        assert!(parsed.is_ok(), "a decoded shard report is JSON");
        let wire = report.to_json();
        let again = ShardReport::from_json(&wire).expect("re-decodes");
        assert_eq!(again.to_json(), wire);
    }
}

#[test]
fn real_shard_report_round_trips() {
    let text = shard_report();
    let report = ShardReport::from_json(text).expect("a worker's own output decodes");
    assert_eq!(report.cells.len(), 2);
    assert!(report.cells.iter().all(|c| c.report.probe.is_some()));
    assert_eq!(report.to_json(), text);
}

#[test]
fn every_truncation_of_a_shard_report_is_an_error() {
    let text = shard_report();
    for end in 0..text.len() {
        // Cutting inside a multi-byte scalar is a read error before the
        // reader ever sees the text.
        let Some(prefix) = text.get(..end) else {
            continue;
        };
        assert!(Json::parse(prefix).is_err(), "prefix of {end} bytes parsed");
        assert!(ShardReport::from_json(prefix).is_err());
    }
}

#[test]
fn every_single_byte_flip_of_a_shard_report_is_handled() {
    let text = shard_report().as_bytes();
    let mut rng = TestRng::deterministic("single_byte_flips");
    let mut bytes = text.to_vec();
    for i in 0..bytes.len() {
        // One nonzero XOR mask per position: every bit pattern is
        // reachable across positions, and every position is flipped.
        let mask = 1 + rng.below(255) as u8;
        bytes[i] ^= mask;
        match std::str::from_utf8(&bytes) {
            Ok(flipped) => both_readers(flipped),
            // Not UTF-8: the file read refuses it; its lossy repair is
            // still hostile text worth parsing.
            Err(_) => both_readers(&String::from_utf8_lossy(&bytes)),
        }
        bytes[i] = text[i];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// render → parse is the identity on trees whose strings mix quotes,
    /// backslashes, control characters and multi-byte scalars.
    #[test]
    fn render_parse_round_trips(tree in JsonTree { depth: 4 }) {
        let text = tree.render();
        prop_assert_eq!(Json::parse(&text), Ok(tree));
    }

    /// Arbitrary bytes, and arbitrary bytes spliced into a real report,
    /// never make either reader panic.
    #[test]
    fn arbitrary_text_never_panics(
        noise in collection::vec(any::<u8>(), 0..64),
        at in 0usize..4096,
    ) {
        both_readers(&String::from_utf8_lossy(&noise));
        let report = shard_report().as_bytes();
        let at = at % report.len();
        let mut spliced = report[..at].to_vec();
        spliced.extend_from_slice(&noise);
        spliced.extend_from_slice(&report[at..]);
        both_readers(&String::from_utf8_lossy(&spliced));
    }

    /// NNH1 decoding of arbitrary bytes: `Err` or a histogram that
    /// re-encodes to itself.
    #[test]
    fn histogram_decode_of_arbitrary_bytes(bytes in collection::vec(any::<u8>(), 0..96)) {
        if let Ok(h) = Histogram::decode(&bytes) {
            prop_assert_eq!(Histogram::decode(&h.encode()), Ok(h));
        }
    }

    /// The same behind a well-formed frame (magic, a total, a bucket
    /// count matching the body), so the index and total checks are
    /// reached: out-of-range indices, repeated indices, counts that
    /// overflow and totals that lie.
    #[test]
    fn histogram_decode_of_framed_buckets(
        buckets in collection::vec((0u16..300, any::<u64>(), 0u8..8), 0..6),
        claimed in any::<u64>(),
        honest in any::<bool>(),
    ) {
        // Extreme counts often enough that two of them overflow a sum.
        let count = |c: u64, kind: u8| match kind {
            0 => u64::MAX,
            1 => 1 << 63,
            2 => 0,
            _ => c >> (c % 64),
        };
        let counts: Vec<(u16, u64)> = buckets.iter().map(|&(i, c, k)| (i, count(c, k))).collect();
        let sum = counts.iter().fold(0u64, |a, &(_, c)| a.wrapping_add(c));
        let mut bytes = b"NNH1".to_vec();
        bytes.extend_from_slice(&(if honest { sum } else { claimed }).to_le_bytes());
        bytes.extend_from_slice(&(counts.len() as u32).to_le_bytes());
        for (idx, count) in &counts {
            bytes.extend_from_slice(&idx.to_le_bytes());
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        match Histogram::decode(&bytes) {
            Ok(h) => {
                prop_assert!(counts.iter().all(|&(i, _)| i < 256));
                prop_assert_eq!(h.total(), sum);
                prop_assert_eq!(Histogram::decode(&h.encode()), Ok(h));
            }
            Err(e) => prop_assert!(!e.is_empty()),
        }
    }

    /// Every strict prefix of a valid encoding is an error; the whole
    /// encoding decodes to the histogram that wrote it.
    #[test]
    fn histogram_decode_of_truncations(samples in collection::vec(any::<u64>(), 0..40)) {
        let mut h = Histogram::new();
        for s in &samples {
            h.record(s >> (s % 64));
        }
        let bytes = h.encode();
        for end in 0..bytes.len() {
            prop_assert!(Histogram::decode(&bytes[..end]).is_err(), "prefix {end}");
        }
        prop_assert_eq!(Histogram::decode(&bytes), Ok(h));
    }
}
