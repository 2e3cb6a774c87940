//! Property tests for the dynamic-event control plane.
//!
//! A timeline must never break the engine's two core guarantees:
//!
//! * **Frame conservation** — every frame a node offers is accounted
//!   for exactly once: delivered, queue-dropped, fault-dropped, or
//!   down-dropped. Link flaps at arbitrary times must not leak or
//!   double-count a single frame.
//! * **Determinism** — a run with a timeline is as byte-identical per
//!   seed as one without: events ride the same wheel as traffic, so
//!   repeating a (seed, timeline) pair reproduces the exact delivered
//!   frame sequence, counters and stats.
//!
//! Plus the events' own semantics: frames offered strictly inside a
//! down window are never delivered, and frames delivered to a paused
//! node vanish into `events.pause_drops`.

use nn_netsim::{
    Context, EventTimeline, FrameBuf, IfaceId, LinkCounters, LinkProfile, NetEvent, Node, SimTime,
    Simulator,
};
use nn_packet::{build_udp, Ipv4Addr};
use proptest::prelude::*;
use std::time::Duration;

const SRC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);
const DST: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 99);

/// Sends one sequence-numbered frame per millisecond tick, starting at
/// t = 1ms, recording each frame's sequence number as it goes.
struct Ticker {
    n: u64,
    sent: u64,
}

impl Ticker {
    fn frame(seq: u64) -> Vec<u8> {
        build_udp(SRC, DST, 0, 7, 7, &seq.to_be_bytes()).expect("frame builds")
    }
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(Duration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context, _token: u64) {
        ctx.send(0, Self::frame(self.sent));
        self.sent += 1;
        if self.sent < self.n {
            ctx.set_timer(Duration::from_millis(1), 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
        ctx.recycle(frame);
    }
}

/// Records the sequence number of every delivered frame, in order.
#[derive(Default)]
struct Recorder {
    seqs: Vec<u64>,
}

impl Node for Recorder {
    fn on_packet(&mut self, ctx: &mut Context, _: IfaceId, frame: FrameBuf) {
        let payload = &frame.as_slice()[frame.len() - 8..];
        self.seqs
            .push(u64::from_be_bytes(payload.try_into().expect("8-byte seq")));
        ctx.recycle(frame);
    }
}

/// A fast clean link: a 60-byte frame serializes in ~5µs and crosses in
/// 100µs, so a frame sent at tick `k` ms is fully delivered well before
/// `k + 0.5` ms — window edges at half-ticks are unambiguous.
fn fast_link() -> LinkProfile {
    LinkProfile::new(100_000_000, Duration::from_micros(100))
}

/// Runs `n` 1ms-spaced frames over a link that is down during
/// `[down_at, up_at)` (both at half-tick offsets), returning the
/// delivered sequence numbers, the forward counters, the sender's count
/// and the `events.applied` stat.
fn run_flap(seed: u64, n: u64, down_ms: u64, up_ms: u64) -> (Vec<u64>, LinkCounters, u64, u64) {
    let mut sim = Simulator::new(seed);
    let tx = sim.add_node("tx", Box::new(Ticker { n, sent: 0 }));
    let rx = sim.add_node("rx", Box::new(Recorder::default()));
    sim.connect_sym(tx, rx, fast_link());
    let half = 500_000; // 0.5ms in ns
    sim.install_timeline(
        EventTimeline::new()
            .at(
                SimTime(down_ms * 1_000_000 + half),
                NetEvent::LinkDown { node: tx, iface: 0 },
            )
            .at(
                SimTime(up_ms * 1_000_000 + half),
                NetEvent::LinkUp { node: tx, iface: 0 },
            ),
    );
    sim.run_until(SimTime::from_millis(n + 50));
    let counters = sim.link_counters(tx, 0);
    let applied = sim.stats().counter("events.applied");
    let sent = sim.node_ref::<Ticker>(tx).expect("ticker").sent;
    let seqs = sim.node_ref::<Recorder>(rx).expect("recorder").seqs.clone();
    (seqs, counters, sent, applied)
}

proptest! {
    /// For arbitrary down windows, every offered frame is accounted for
    /// exactly once (conservation), frames offered strictly inside the
    /// window never arrive, and frames outside it always do.
    #[test]
    fn flapped_link_conserves_frames_and_drops_only_the_window(
        seed in any::<u64>(),
        down in 0u64..40,
        len in 1u64..40,
    ) {
        let n = 80u64;
        let up = down + len;
        let (seqs, c, sent, applied) = run_flap(seed, n, down, up);
        prop_assert_eq!(sent, n, "ticker finished its schedule");
        prop_assert_eq!(applied, 2, "both timeline entries applied");
        // Conservation: offered == delivered + dropped, each exactly once.
        prop_assert_eq!(
            sent,
            c.delivered + c.queue_drops + c.fault_drops + c.down_drops,
            "a frame leaked or double-counted: {c:?}"
        );
        prop_assert_eq!(c.fault_drops, 0, "clean link never fault-drops");
        // Seq k is sent at (k+1)ms; the window covers sends in
        // [down + 0.5, up + 0.5) ms, i.e. seqs in [down, up).
        let expected: Vec<u64> = (0..n)
            .filter(|&k| {
                let tick = k + 1;
                !(tick * 2 > down * 2 + 1 && tick * 2 < up * 2 + 1)
            })
            .collect();
        prop_assert_eq!(&seqs, &expected, "delivered set must be exactly the up-window sends");
        prop_assert_eq!(c.down_drops, n - expected.len() as u64);
    }

    /// Repeating a (seed, timeline) pair reproduces the run exactly:
    /// same delivered sequence, same counters, same stat totals.
    #[test]
    fn event_runs_are_byte_identical_per_seed(
        seed in any::<u64>(),
        down in 0u64..40,
        len in 1u64..40,
    ) {
        let a = run_flap(seed, 80, down, down + len);
        let b = run_flap(seed, 80, down, down + len);
        prop_assert_eq!(a.0, b.0, "delivered sequences diverged");
        prop_assert_eq!(a.1, b.1, "link counters diverged");
        prop_assert_eq!((a.2, a.3), (b.2, b.3), "sender/stat totals diverged");
    }

    /// A paused receiver loses exactly the frames that arrive during the
    /// pause window: the link still delivers them (they crossed the
    /// wire), but the node never sees them and `events.pause_drops`
    /// counts each one.
    #[test]
    fn paused_node_drops_exactly_the_window_arrivals(
        seed in any::<u64>(),
        pause in 0u64..40,
        len in 1u64..40,
    ) {
        let n = 80u64;
        let resume = pause + len;
        let mut sim = Simulator::new(seed);
        let tx = sim.add_node("tx", Box::new(Ticker { n, sent: 0 }));
        let rx = sim.add_node("rx", Box::new(Recorder::default()));
        sim.connect_sym(tx, rx, fast_link());
        let half = 500_000;
        sim.install_timeline(
            EventTimeline::new()
                .at(
                    SimTime(pause * 1_000_000 + half),
                    NetEvent::NodePause { node: rx },
                )
                .at(
                    SimTime(resume * 1_000_000 + half),
                    NetEvent::NodeResume { node: rx },
                ),
        );
        sim.run_until(SimTime::from_millis(n + 50));
        let c = sim.link_counters(tx, 0);
        prop_assert_eq!(c.delivered, n, "the wire is unaffected by a node pause");
        // Seq k arrives just after (k+1)ms; lost iff (k+1) in [pause+0.5, resume+0.5).
        let expected: Vec<u64> = (0..n)
            .filter(|&k| {
                let tick = k + 1;
                !(tick * 2 > pause * 2 + 1 && tick * 2 < resume * 2 + 1)
            })
            .collect();
        let seqs = &sim.node_ref::<Recorder>(rx).expect("recorder").seqs;
        prop_assert_eq!(seqs, &expected, "received set must be exactly the awake-window arrivals");
        prop_assert_eq!(
            sim.stats().counter("events.pause_drops"),
            n - expected.len() as u64
        );
    }
}
