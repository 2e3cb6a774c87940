//! Measurement collection.
//!
//! Experiments read everything they report from here: named counters
//! and per-flow accounting. Receive accounting lives in [`RxStats`],
//! which host flows and population cohorts share. Nodes write through
//! [`crate::sim::Context::stats`].

use crate::histogram::Histogram;
use crate::time::SimTime;
use nn_packet::{ecn, Ipv4Packet};
use std::collections::HashMap;

/// Identifies an application flow for accounting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(pub String);

impl FlowKey {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>) -> Self {
        FlowKey(name.into())
    }
}

/// Lets the per-packet accounting paths look flows up by `&str` without
/// allocating a key (`HashMap::get` via `Borrow`). The owned key is only
/// built on a flow's *first* packet.
impl std::borrow::Borrow<str> for FlowKey {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// One sender's receive chain: the state the next delivery's jitter,
/// reorder and CE-gap samples are measured against. A host flow has
/// one; a population cohort keeps one per endpoint stripe.
#[derive(Debug, Clone, Copy, Default)]
pub struct RxTrack {
    /// One-way delay of the previous delivery, seconds.
    last_delay: Option<f64>,
    /// Newest send timestamp among delivered packets.
    max_sent: Option<SimTime>,
    /// Deliveries on this chain so far.
    rx_packets: u64,
    /// `rx_packets` as of the previous CE mark.
    last_ce_rx: Option<u64>,
}

/// Receive-side accounting shared by host flows ([`FlowStats`]) and
/// population cohorts ([`crate::population::CohortAggregate`]): counts,
/// the four delivery histograms, and running delay/jitter sums.
#[derive(Debug, Clone, Default)]
pub struct RxStats {
    /// Packets delivered (a fluid batch credits every represented
    /// packet).
    pub rx_packets: u64,
    /// Bytes delivered.
    pub rx_bytes: u64,
    /// Delivered packets that arrived carrying an ECN CE mark — the
    /// congestion signal an ECN-capable AQM wrote on the path.
    pub ce_marks: u64,
    /// One-way delay distribution, nanoseconds.
    pub delay_hist: Histogram,
    /// Distribution of |delay(n) − delay(n−1)| between consecutive
    /// deliveries on one chain, nanoseconds.
    pub jitter_hist: Histogram,
    /// Send-order regression gaps, nanoseconds: for each delivery whose
    /// send time precedes an already-delivered packet's, how far behind
    /// the newest seen send time it arrived. Empty on in-order paths.
    pub reorder_hist: Histogram,
    /// Distribution of delivered-packet gaps between CE marks (how many
    /// deliveries separated consecutive congestion signals).
    pub ce_gap_hist: Histogram,
    /// Time of first delivery.
    pub first_rx: Option<SimTime>,
    /// Time of last delivery.
    pub last_rx: Option<SimTime>,
    delay_sum: f64,
    jitter_sum: f64,
    jitter_count: u64,
}

impl RxStats {
    /// Credits one delivery representing `rep` packets of `bytes` each,
    /// sent at `sent`, delivered at `now` on `track`'s chain, CE-marked
    /// when `ce`; returns its one-way delay in seconds.
    ///
    /// Jitter is measured against the chain's previous delay, reorder
    /// against its newest send time, CE gaps against its receive count
    /// after this delivery. A batch (`rep > 1`) shares one delay
    /// sample: its members beyond the first add zero-jitter samples,
    /// and when CE-marked they are marked back to back (gap 1 each).
    pub fn record(
        &mut self,
        track: &mut RxTrack,
        rep: u64,
        bytes: u64,
        sent: SimTime,
        now: SimTime,
        ce: bool,
    ) -> f64 {
        self.rx_packets += rep;
        self.rx_bytes += rep * bytes;
        let delay = (now - sent).as_secs_f64();
        if let Some(prev) = track.last_delay {
            let dv = (delay - prev).abs();
            self.jitter_hist.record_secs(dv);
            self.jitter_sum += dv;
            self.jitter_count += 1;
        }
        if rep > 1 {
            self.jitter_hist.record_n(0, rep - 1);
            self.jitter_count += rep - 1;
        }
        track.last_delay = Some(delay);
        self.delay_hist.record_secs_n(delay, rep);
        self.delay_sum += delay * rep as f64;
        match track.max_sent {
            // Sent before an already-delivered packet: the path (or a
            // policy detour) reordered it. Record how far behind.
            Some(max) if sent < max => self
                .reorder_hist
                .record_secs_n((max - sent).as_secs_f64(), rep),
            _ => track.max_sent = Some(sent),
        }
        track.rx_packets += rep;
        if self.first_rx.is_none() {
            self.first_rx = Some(now);
        }
        self.last_rx = Some(now);
        if ce {
            self.ce_marks += rep;
            // Distance (in deliveries) from the previous mark: a burst
            // of marks records small gaps, sparse marking large ones.
            let gap = track.rx_packets - track.last_ce_rx.unwrap_or(0);
            self.ce_gap_hist.record(gap);
            if rep > 1 {
                self.ce_gap_hist.record_n(1, rep - 1);
            }
            track.last_ce_rx = Some(track.rx_packets);
        }
        delay
    }

    /// Delivery ratio against `tx_packets` sent, in [0, 1]; 1.0 when
    /// nothing was sent.
    pub fn delivery_ratio(&self, tx_packets: u64) -> f64 {
        if tx_packets == 0 {
            1.0
        } else {
            self.rx_packets as f64 / tx_packets as f64
        }
    }

    /// Mean one-way delay in seconds (0 when nothing was delivered).
    pub fn mean_delay(&self) -> f64 {
        if self.rx_packets == 0 {
            0.0
        } else {
            self.delay_sum / self.rx_packets as f64
        }
    }

    /// Mean absolute delay variation in seconds (0 with fewer than two
    /// deliveries on every chain).
    pub fn jitter(&self) -> f64 {
        if self.jitter_count == 0 {
            0.0
        } else {
            self.jitter_sum / self.jitter_count as f64
        }
    }

    /// Receive goodput in bits/sec over the first..last delivery window
    /// (0 until the window has positive width).
    pub fn goodput_bps(&self) -> f64 {
        match (self.first_rx, self.last_rx) {
            (Some(a), Some(b)) if b > a => (self.rx_bytes as f64 * 8.0) / (b - a).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// True when an IPv4 `frame` arrived CE-marked — the `ce` input of
/// [`RxStats::record`]. Receivers measure the mark rather than react
/// to it: the transports here have no congestion response.
pub fn is_ce(frame: &[u8]) -> bool {
    Ipv4Packet::new_checked(frame).is_ok_and(|ip| ip.ecn() == ecn::CE)
}

/// Per-flow accounting record.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Packets sent by the flow's source.
    pub tx_packets: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Receive-side accounting.
    pub rx: RxStats,
    /// The flow's single receive chain.
    track: RxTrack,
    /// One-way delays of delivered packets, in seconds, in arrival
    /// order — kept only for the exact nearest-rank percentiles.
    delays: Vec<f64>,
}

impl FlowStats {
    /// Exact delay percentiles (each `p` in 0..=100), ranked from one
    /// sorted copy of the samples; 0 when empty. `p = 0` is the
    /// minimum, `p = 100` the maximum, and intermediate values use
    /// nearest-rank interpolation over the sorted samples.
    pub fn delay_percentiles<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        if self.delays.is_empty() {
            return [0.0; N];
        }
        let mut sorted = self.delays.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let last = sorted.len() - 1;
        ps.map(|p| sorted[(((p / 100.0) * last as f64).round() as usize).min(last)])
    }
}

/// Simulation-wide statistics sink.
#[derive(Debug, Default)]
pub struct Stats {
    counters: HashMap<String, u64>,
    flows: HashMap<FlowKey, FlowStats>,
}

impl Stats {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments a named counter.
    pub fn count(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds to a named counter.
    pub fn add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Mutable access to a flow record, creating it on first touch. The
    /// lookup is by `&str`; an owned key is only allocated the first
    /// time a flow appears — per-packet accounting stays allocation-free.
    fn flow_mut(&mut self, name: &str) -> &mut FlowStats {
        if !self.flows.contains_key(name) {
            self.flows.insert(FlowKey::new(name), FlowStats::default());
        }
        self.flows.get_mut(name).expect("just ensured present")
    }

    /// Reads a flow record.
    pub fn flow(&self, name: &str) -> Option<&FlowStats> {
        self.flows.get(name)
    }

    /// All flows, for report tables.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowKey, &FlowStats)> {
        self.flows.iter()
    }

    /// Records a packet transmission on a flow.
    pub fn flow_tx(&mut self, name: &str, bytes: usize) {
        let f = self.flow_mut(name);
        f.tx_packets += 1;
        f.tx_bytes += bytes as u64;
    }

    /// Records a packet delivery on a flow, CE-marked when `ce`.
    pub fn flow_rx(&mut self, name: &str, bytes: usize, sent_at: SimTime, now: SimTime, ce: bool) {
        let f = self.flow_mut(name);
        let delay = f.rx.record(&mut f.track, 1, bytes as u64, sent_at, now, ce);
        f.delays.push(delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.count("drops");
        s.add("drops", 4);
        assert_eq!(s.counter("drops"), 5);
        assert_eq!(s.counter("never"), 0);
    }

    #[test]
    fn flow_accounting() {
        let mut s = Stats::new();
        let k = "voip:ann->ben";
        s.flow_tx(k, 100);
        s.flow_tx(k, 100);
        s.flow_rx(k, 100, SimTime::ZERO, SimTime::from_millis(30), true);
        let f = s.flow(k).unwrap();
        assert_eq!(f.tx_packets, 2);
        assert_eq!(f.rx.rx_packets, 1);
        assert_eq!(f.rx.ce_marks, 1);
        assert!((f.rx.delivery_ratio(f.tx_packets) - 0.5).abs() < 1e-12);
        assert!((f.rx.mean_delay() - 0.030).abs() < 1e-9);
    }

    #[test]
    fn empty_flow_defaults() {
        let f = FlowStats::default();
        assert_eq!(f.rx.delivery_ratio(f.tx_packets), 1.0);
        assert_eq!(f.rx.mean_delay(), 0.0);
        assert_eq!(f.rx.jitter(), 0.0);
        assert_eq!(f.rx.goodput_bps(), 0.0);
        assert_eq!(f.delay_percentiles([99.0]), [0.0]);
    }

    #[test]
    fn percentiles_and_jitter() {
        let mut s = Stats::new();
        for ms in [10, 20, 30, 40, 100] {
            s.flow_rx("f", 10, SimTime::ZERO, SimTime::from_millis(ms), false);
        }
        let f = s.flow("f").unwrap();
        let [min, p50, max] = f.delay_percentiles([0.0, 50.0, 100.0]);
        assert!((min - 0.010).abs() < 1e-12);
        assert!((max - 0.100).abs() < 1e-12);
        assert!((0.020..=0.040).contains(&p50));
        // |0.01|+|0.01|+|0.01|+|0.06| / 4 = 0.0225
        assert!((f.rx.jitter() - 0.0225).abs() < 1e-12);
    }

    /// Pins percentile semantics at the boundaries: p=0 is the minimum,
    /// p=100 the maximum (never out of bounds), and a single sample
    /// answers every percentile.
    #[test]
    fn percentile_boundary_semantics() {
        let f = FlowStats {
            delays: vec![0.050, 0.010, 0.030], // deliberately unsorted
            ..FlowStats::default()
        };
        assert_eq!(f.delay_percentiles([0.0, 100.0]), [0.010, 0.050]);
        // Out-of-range p never panics; it clamps to the extremes.
        assert_eq!(f.delay_percentiles([1000.0]), [0.050]);

        let single = FlowStats {
            delays: vec![0.42],
            ..FlowStats::default()
        };
        assert_eq!(
            single.delay_percentiles([0.0, 37.0, 50.0, 99.0, 100.0]),
            [0.42; 5]
        );
    }

    /// Percentiles are ranked from the samples at query time, so a
    /// delivery after one query shows up in the next.
    #[test]
    fn percentiles_track_new_deliveries() {
        let mut s = Stats::new();
        let k = "f";
        s.flow_rx(k, 10, SimTime::ZERO, SimTime::from_millis(10), false);
        assert_eq!(s.flow(k).unwrap().delay_percentiles([100.0]), [0.010]);
        s.flow_rx(k, 10, SimTime::ZERO, SimTime::from_millis(90), false);
        let f = s.flow(k).unwrap();
        assert_eq!(f.delay_percentiles([100.0, 0.0]), [0.090, 0.010]);
        // Repeated queries on an unchanged flow agree.
        assert_eq!(f.delay_percentiles([100.0]), [0.090]);
    }

    /// Arrival batch after batch, with p50/p95/p99 queried between
    /// batches: every reported percentile must reflect all samples
    /// delivered so far.
    #[test]
    fn percentiles_reflect_every_arrival_batch() {
        let mut s = Stats::new();
        let k = "f";
        let p = [50.0, 95.0, 99.0];
        // Batch 1: 10 samples, 10..100 ms.
        for i in 1..=10u64 {
            s.flow_rx(k, 10, SimTime::ZERO, SimTime::from_millis(10 * i), false);
        }
        // Nearest rank over 10 samples: round(0.5·9) = 5 → 60 ms.
        assert_eq!(
            s.flow(k).unwrap().delay_percentiles(p),
            [0.060, 0.100, 0.100]
        );
        // Batch 2: one outlier far above the old maximum — the tail
        // percentiles must move.
        s.flow_rx(k, 10, SimTime::ZERO, SimTime::from_millis(900), false);
        assert_eq!(
            s.flow(k).unwrap().delay_percentiles(p),
            [0.060, 0.900, 0.900]
        );
        // Batch 3: a burst of fast deliveries drags the median down.
        for _ in 0..20 {
            s.flow_rx(k, 10, SimTime::ZERO, SimTime::from_millis(1), false);
        }
        let f = s.flow(k).unwrap();
        let [p50, _, p99] = f.delay_percentiles(p);
        assert_eq!((p50, p99), (0.001, 0.900));
        // The histogram's p99 upper bound brackets the exact percentile.
        let (lo, hi) = f.rx.delay_hist.quantile_bounds(0.99);
        let exact_ns = (p99 * 1e9).round() as u64;
        assert!(lo <= exact_ns && exact_ns <= hi);
    }

    /// The running sums behind `mean_delay` and `jitter` reproduce the
    /// exact-sample formulas bit for bit: `f64` `Sum` is a left fold, so
    /// summing as deliveries arrive adds the same terms in the same
    /// order as summing the recorded delays afterwards.
    #[test]
    fn running_sums_match_exact_sample_formulas_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut s = Stats::new();
        let mut sent_ns = 0u64;
        for _ in 0..2_000 {
            sent_ns += 100_000 + rng.gen::<u64>() % 900_000;
            // One in eight deliveries was sent before its predecessors.
            let sent = if rng.gen::<u64>() % 8 == 0 {
                sent_ns.saturating_sub(2_500_000)
            } else {
                sent_ns
            };
            let delay_ns = 1_000_000 + rng.gen::<u64>() % 40_000_000;
            let ce = rng.gen::<u64>() % 5 == 0;
            s.flow_rx("f", 100, SimTime(sent), SimTime(sent + delay_ns), ce);
        }
        let f = s.flow("f").unwrap();
        let d = &f.delays;
        assert!(!f.rx.reorder_hist.is_empty() && f.rx.ce_marks > 0);
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let jitter = d.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (d.len() - 1) as f64;
        assert_eq!(f.rx.mean_delay().to_bits(), mean.to_bits());
        assert_eq!(f.rx.jitter().to_bits(), jitter.to_bits());
    }

    /// The per-flow histograms fold in delay, jitter, reorder-gap and
    /// CE-gap distributions as deliveries arrive.
    #[test]
    fn flow_histograms_track_deliveries() {
        let mut s = Stats::new();
        let k = "f";
        // Two in-order deliveries 10ms apart in delay.
        s.flow_rx(k, 10, SimTime::ZERO, SimTime::from_millis(20), false);
        s.flow_rx(
            k,
            10,
            SimTime::from_millis(5),
            SimTime::from_millis(35),
            false,
        );
        // A reordered, CE-marked delivery: sent before the previous packet.
        s.flow_rx(
            k,
            10,
            SimTime::from_millis(1),
            SimTime::from_millis(40),
            true,
        );
        s.flow_rx(
            k,
            10,
            SimTime::from_millis(6),
            SimTime::from_millis(50),
            true,
        );
        let f = &s.flow(k).unwrap().rx;
        assert_eq!(f.delay_hist.total(), 4);
        assert_eq!(f.jitter_hist.total(), 3);
        // One send-order regression of 4 ms (sent 1ms vs max seen 5ms).
        assert_eq!(f.reorder_hist.total(), 1);
        let (lo, hi) = f.reorder_hist.quantile_bounds(1.0);
        assert!(lo <= 4_000_000 && 4_000_000 <= hi);
        // CE gaps: first mark after 3 deliveries, second 1 delivery later.
        assert_eq!(f.ce_gap_hist.total(), 2);
        assert_eq!(f.ce_marks, 2);
    }

    #[test]
    fn goodput_over_window() {
        let mut s = Stats::new();
        let k = "bulk";
        s.flow_tx(k, 1000);
        s.flow_rx(k, 1000, SimTime::ZERO, SimTime::from_secs(1), false);
        s.flow_tx(k, 1000);
        s.flow_rx(k, 1000, SimTime::ZERO, SimTime::from_secs(2), false);
        // 2000 bytes over 1 second window = 16 kbps.
        assert!((s.flow(k).unwrap().rx.goodput_bps() - 16_000.0).abs() < 1e-6);
    }
}
