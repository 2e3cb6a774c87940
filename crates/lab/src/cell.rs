//! One cell of the experiment matrix: a single deterministic simulation
//! of (topology × workload × adversary × host stack) under one seed.
//!
//! The paper's A/B/C comparison is three such cells of the `paper`
//! matrix: the baseline is `(chain, voip, none, plain)`, the throttled
//! run `(chain, voip, content-dpi, plain)`, and the neutralized run
//! swaps the stack.

use crate::adversary::AdversarySpec;
use crate::events::EventTimelineSpec;
use crate::hosts::{
    Bootstrap, NeutralizedServerNode, NeutralizedSourceNode, PlainServerNode, PlainSourceNode,
};
use crate::json::Json;
use crate::link::LinkProfileSpec;
use crate::probe::{ProbeNode, ProbeResponderNode, ProbeSummary};
use crate::topology::{
    secondary_dyn_pool, BuiltTopology, ProbePlane, SecondaryProvider, TopologySpec, ANYCAST_ADDR,
    DST_ADDR, PROBER_ADDR, PROBE_SINK_ADDR, SECONDARY_ANYCAST, SRC_ADDR,
};
use crate::workload::WorkloadSpec;
use nn_core::app::ScriptedApp;
use nn_core::neutralizer::{NeutralizerConfig, NeutralizerNode};
use nn_dns::{rtype, DnsCache, DnsName, Lookup, NeutInfo, Record, RecordData, ZoneStore};
use nn_netsim::{Node, RouterNode, RxStats, SimTime, Simulator};
use nn_packet::Ipv4Cidr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The destination's DNS name, whose `NEUT` record carries the bootstrap
/// triple of §3.1.
pub const DST_NAME: &str = "shop.neutral.example";

/// Which host stack carries the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// Ordinary UDP; payload and destination visible to the ISP.
    Plain,
    /// The paper's §3.2 neutralized pipeline.
    Neutralized,
}

impl StackKind {
    /// Stable axis name (report column).
    pub fn name(self) -> &'static str {
        match self {
            StackKind::Plain => "plain",
            StackKind::Neutralized => "neutralized",
        }
    }
}

/// One cell: the six experiment axes plus the simulator seed.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Network shape.
    pub topology: TopologySpec,
    /// Bottleneck impairment profile.
    pub link: LinkProfileSpec,
    /// Traffic generator.
    pub workload: WorkloadSpec,
    /// Discrimination policy at the topology's discriminator.
    pub adversary: AdversarySpec,
    /// Host stack.
    pub stack: StackKind,
    /// Dynamic-event timeline the network suffers mid-run.
    pub events: EventTimelineSpec,
    /// Whether the edge measurement plane runs alongside the workload
    /// (active probe trains plus a far-side responder; see
    /// [`crate::probe`]).
    pub probes: bool,
    /// Simulator seed; every random choice flows from it.
    pub seed: u64,
}

/// Tuning shared by every cell of a matrix: the knobs that are not axes.
#[derive(Debug, Clone)]
pub struct CellTuning {
    /// Length of the send schedule.
    pub duration: Duration,
    /// One-time RSA modulus bits for key setup (the paper uses 512).
    pub onetime_rsa_bits: usize,
    /// End-to-end RSA modulus bits for the destination's published key.
    pub e2e_rsa_bits: usize,
    /// Whether the destination echoes frames back (exercises the
    /// anonymized return path).
    pub echo: bool,
}

impl Default for CellTuning {
    fn default() -> Self {
        CellTuning {
            duration: Duration::from_secs(2),
            onetime_rsa_bits: 512,
            e2e_rsa_bits: 512,
            echo: true,
        }
    }
}

impl CellTuning {
    /// Sized for fast test and matrix runs: shorter schedule and smaller
    /// (still paper-plausible) RSA keys.
    pub fn fast() -> Self {
        CellTuning {
            duration: Duration::from_millis(800),
            onetime_rsa_bits: 320,
            e2e_rsa_bits: 320,
            ..CellTuning::default()
        }
    }
}

/// Per-flow results extracted from [`nn_netsim::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellFlow {
    /// Flow name (the workload's axis name).
    pub flow: String,
    /// Packets sent by the application.
    pub tx_packets: u64,
    /// Packets delivered to the destination app.
    pub rx_packets: u64,
    /// rx/tx ratio.
    pub delivery_ratio: f64,
    /// Application-byte goodput over the delivery window, bits/sec.
    pub goodput_bps: f64,
    /// Mean one-way delay, milliseconds.
    pub mean_delay_ms: f64,
    /// Median one-way delay, milliseconds.
    pub p50_delay_ms: f64,
    /// 95th-percentile one-way delay, milliseconds.
    pub p95_delay_ms: f64,
    /// 99th-percentile one-way delay, milliseconds.
    pub p99_delay_ms: f64,
    /// 99th-percentile delay from the flow's log-scale histogram
    /// (bucket upper bound, ≤ 25 % relative width) — the mergeable,
    /// shard-invariant estimate beside the exact `p99_delay_ms`.
    pub hist_p99_delay_ms: f64,
    /// Mean absolute delay variation, milliseconds.
    pub jitter_ms: f64,
    /// Delivered packets that arrived ECN CE-marked.
    pub ce_marks: u64,
}

impl CellFlow {
    /// One flow row from its receive accounting, the `tx_packets` its
    /// source sent, and its p50/p95/p99 delays in milliseconds.
    pub fn new(flow: &str, tx_packets: u64, rx: &RxStats, [p50, p95, p99]: [f64; 3]) -> CellFlow {
        CellFlow {
            flow: flow.to_string(),
            tx_packets,
            rx_packets: rx.rx_packets,
            delivery_ratio: rx.delivery_ratio(tx_packets),
            goodput_bps: rx.goodput_bps(),
            mean_delay_ms: rx.mean_delay() * 1_000.0,
            p50_delay_ms: p50,
            p95_delay_ms: p95,
            p99_delay_ms: p99,
            hist_p99_delay_ms: hist_delay_ms(rx, 0.99),
            jitter_ms: rx.jitter() * 1_000.0,
            ce_marks: rx.ce_marks,
        }
    }

    /// The canonical JSON object for one flow — shared by the matrix
    /// and scenario reports so the schema cannot drift between them.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("flow", Json::Str(self.flow.clone())),
            ("tx_packets", Json::UInt(self.tx_packets)),
            ("rx_packets", Json::UInt(self.rx_packets)),
            ("delivery_ratio", Json::Num(self.delivery_ratio)),
            ("goodput_bps", Json::Num(self.goodput_bps)),
            ("mean_delay_ms", Json::Num(self.mean_delay_ms)),
            ("p50_delay_ms", Json::Num(self.p50_delay_ms)),
            ("p95_delay_ms", Json::Num(self.p95_delay_ms)),
            ("p99_delay_ms", Json::Num(self.p99_delay_ms)),
            ("hist_p99_delay_ms", Json::Num(self.hist_p99_delay_ms)),
            ("jitter_ms", Json::Num(self.jitter_ms)),
            ("ce_marks", Json::UInt(self.ce_marks)),
        ])
    }

    /// Parses one flow back from its JSON object (the shard wire
    /// format). `null` metrics — the writer's rendering of non-finite
    /// floats — come back as NaN, so render(parse(x)) reproduces the
    /// original bytes.
    pub fn from_json(v: &Json) -> Result<CellFlow, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("flow missing {k:?}"));
        let num = |k: &str| {
            let j = field(k)?;
            match j {
                Json::Null => Ok(f64::NAN),
                _ => j
                    .as_f64()
                    .ok_or_else(|| format!("flow field {k:?} is not a number")),
            }
        };
        let uint = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("flow field {k:?} malformed"))
        };
        Ok(CellFlow {
            flow: field("flow")?
                .as_str()
                .ok_or("flow field \"flow\" is not a string")?
                .to_string(),
            tx_packets: uint("tx_packets")?,
            rx_packets: uint("rx_packets")?,
            delivery_ratio: num("delivery_ratio")?,
            goodput_bps: num("goodput_bps")?,
            mean_delay_ms: num("mean_delay_ms")?,
            p50_delay_ms: num("p50_delay_ms")?,
            p95_delay_ms: num("p95_delay_ms")?,
            p99_delay_ms: num("p99_delay_ms")?,
            hist_p99_delay_ms: num("hist_p99_delay_ms")?,
            jitter_ms: num("jitter_ms")?,
            ce_marks: uint("ce_marks")?,
        })
    }
}

/// Upper bound of the delay histogram's `q` quantile bucket in
/// milliseconds (0 when nothing was delivered).
fn hist_delay_ms(rx: &RxStats, q: f64) -> f64 {
    if rx.delay_hist.is_empty() {
        0.0
    } else {
        rx.delay_hist.quantile_upper(q) as f64 / 1e6
    }
}

/// The canonical JSON array for named counters (`[{name, value}, …]`).
pub fn counters_to_json(counters: &[(String, u64)]) -> Json {
    Json::Arr(
        counters
            .iter()
            .map(|(name, v)| {
                Json::obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("value", Json::UInt(*v)),
                ])
            })
            .collect(),
    )
}

/// Parses a counters array back from [`counters_to_json`]'s format.
pub fn counters_from_json(v: &Json) -> Result<Vec<(String, u64)>, String> {
    v.as_arr()
        .ok_or("counters are not an array")?
        .iter()
        .map(|c| {
            let name = c
                .get("name")
                .and_then(Json::as_str)
                .ok_or("counter missing name")?;
            let value = c
                .get("value")
                .and_then(Json::as_u64)
                .ok_or("counter missing value")?;
            Ok((name.to_string(), value))
        })
        .collect()
}

/// The outcome of one cell run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Seed the run used.
    pub seed: u64,
    /// Per-flow accounting: the workload flow first, then one row per
    /// population cohort (sorted by cohort flow name) when the
    /// topology carries a population plane.
    pub flows: Vec<CellFlow>,
    /// Echo replies that made it back to the source.
    pub replies: u64,
    /// Anonymized return blocks that opened to the true destination
    /// (neutralized cells only).
    pub verified_return_blocks: u64,
    /// Frames the adversary's drop rules discarded.
    pub policy_drops: u64,
    /// Selected named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Total simulator events processed.
    pub events: u64,
    /// The measurement plane's evidence (probe-enabled cells only).
    pub probe: Option<ProbeSummary>,
}

impl CellReport {
    /// The forward flow's goodput (the headline number).
    pub fn goodput_bps(&self) -> f64 {
        self.flows.first().map(|f| f.goodput_bps).unwrap_or(0.0)
    }

    /// The forward flow's mean delay in milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        self.flows.first().map(|f| f.mean_delay_ms).unwrap_or(0.0)
    }

    /// The forward flow's jitter in milliseconds.
    pub fn jitter_ms(&self) -> f64 {
        self.flows.first().map(|f| f.jitter_ms).unwrap_or(0.0)
    }
}

/// Resolves the destination's bootstrap triple from its DNS records,
/// going through the TTL cache the way a real stub resolver would.
fn resolve_bootstrap(zone: &ZoneStore, cache: &mut DnsCache, now: SimTime) -> Bootstrap {
    let name = DnsName::new(DST_NAME).expect("valid name");
    if cache.get(now, &name, rtype::NEUT).is_none() {
        match zone.query(&name, rtype::NEUT) {
            Lookup::Found(records) => cache.insert(now, name.clone(), rtype::NEUT, records),
            other => panic!("NEUT bootstrap record missing: {other:?}"),
        }
    }
    // Serve from the cache so the hit path actually runs; repeat
    // resolutions within the TTL never touch the zone again.
    let records = cache
        .get(now, &name, rtype::NEUT)
        .expect("just-inserted NEUT record is cached");
    assert!(cache.hits >= 1, "bootstrap must come from the cache");
    let RecordData::Neut(info) = &records[0].data else {
        panic!("NEUT query returned non-NEUT data");
    };
    let (pubkey, _) =
        nn_crypto::RsaPublicKey::from_wire(&info.pubkey_wire).expect("published key parses");
    let dest = match zone.query(&name, rtype::A) {
        Lookup::Found(recs) => match recs[0].data {
            RecordData::A(addr) => addr,
            _ => unreachable!("A query returned non-A data"),
        },
        other => panic!("A record missing: {other:?}"),
    };
    Bootstrap {
        dest,
        neutralizers: info.neutralizers.clone(),
        dest_pubkey: pubkey,
    }
}

/// Deepest TTL the hop train sweeps — covers every built shape's router
/// count; probes whose TTL outlives the path just echo from the far end.
const PROBE_MAX_TTL: u8 = 8;

/// Derives 16 deterministic master-key bytes from the cell seed.
fn derive_master_key(seed: u64) -> [u8; 16] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d4b_u64);
    rng.gen()
}

/// Runs one cell to completion and extracts its report.
pub fn run_cell(spec: &CellSpec, tuning: &CellTuning) -> CellReport {
    let mut pool = nn_netsim::FramePool::new();
    run_cell_with_pool(spec, tuning, &mut pool)
}

/// [`run_cell`] with a caller-held frame pool: a matrix worker thread
/// passes the same pool to every cell it runs, so cell N+1's traffic
/// reuses the buffers cell N recycled instead of re-growing a freelist
/// per simulation. Results are identical either way — the pool is an
/// allocator, not state.
pub fn run_cell_with_pool(
    spec: &CellSpec,
    tuning: &CellTuning,
    pool: &mut nn_netsim::FramePool,
) -> CellReport {
    let flow = spec.workload.name();
    // §3.1 bootstrap — only neutralized cells mint the destination's
    // end-to-end keypair and resolve its NEUT record; plain transports
    // need neither, and RSA keygen is the expensive part of setup.
    // Setup-time randomness comes from its own stream so it is
    // independent of in-simulation draws.
    let bootstrap_and_keys = (spec.stack == StackKind::Neutralized).then(|| {
        let mut setup_rng = StdRng::seed_from_u64(spec.seed ^ 0x5e7u64);
        let dest_keypair = nn_crypto::generate_keypair(&mut setup_rng, tuning.e2e_rsa_bits);
        let mut zone = ZoneStore::new();
        let name = DnsName::new(DST_NAME).expect("valid name");
        zone.add(Record::new(name.clone(), 300, RecordData::A(DST_ADDR)));
        zone.add(Record::new(
            name,
            300,
            RecordData::Neut(NeutInfo {
                // A multihomed destination lists one service address per
                // provider, primary first (§3.5).
                neutralizers: spec.topology.neut_addrs(),
                pubkey_wire: dest_keypair.public.to_wire(),
            }),
        ));
        let mut cache = DnsCache::new();
        (
            resolve_bootstrap(&zone, &mut cache, SimTime::ZERO),
            dest_keypair,
        )
    });

    let mut sim = Simulator::new(spec.seed);
    sim.install_pool(std::mem::take(pool));
    let schedule = spec.workload.schedule(tuning.duration);
    let app = Box::new(ScriptedApp::new(DST_NAME, schedule));

    let src_node: Box<dyn Node> = if let Some((bootstrap, _)) = &bootstrap_and_keys {
        Box::new(NeutralizedSourceNode::new(
            SRC_ADDR,
            bootstrap.clone(),
            0,
            tuning.onetime_rsa_bits,
            flow,
            app,
        ))
    } else {
        Box::new(PlainSourceNode::new(SRC_ADDR, DST_ADDR, 0, flow, app))
    };
    let master_key = derive_master_key(spec.seed);
    let neut_config = NeutralizerConfig::new(ANYCAST_ADDR, vec![Ipv4Cidr::new(DST_ADDR, 16)]);
    // Route the neutralizer's dynamic QoS pool (§3.4) wherever the config
    // puts it, rather than duplicating the literal here.
    let dyn_pool = neut_config.dyn_pool;
    let neut_node: Box<dyn Node> = Box::new(NeutralizerNode::new(neut_config, master_key));
    // The multihomed shape gets a second provider sharing the master key
    // (the neutralizers are stateless, §3: either can serve any session,
    // which is exactly what makes mid-run failover free).
    let secondary = matches!(spec.topology, TopologySpec::Multihomed).then(|| {
        let mut config_b =
            NeutralizerConfig::new(SECONDARY_ANYCAST, vec![Ipv4Cidr::new(DST_ADDR, 16)]);
        config_b.dyn_pool = secondary_dyn_pool();
        config_b.stats_name = "neutralizer-b".to_string();
        SecondaryProvider {
            dyn_pool: config_b.dyn_pool,
            node: Box::new(NeutralizerNode::new(config_b, master_key)),
        }
    });
    let dst_node: Box<dyn Node> = if let Some((_, dest_keypair)) = bootstrap_and_keys {
        Box::new(NeutralizedServerNode::new(
            DST_ADDR,
            ANYCAST_ADDR,
            dest_keypair,
            tuning.echo,
        ))
    } else {
        Box::new(PlainServerNode::new(DST_ADDR, tuning.echo))
    };

    // The measurement plane rides beside the workload when the cell asks
    // for it: an edge prober dressed in this workload's DPI marker and a
    // far-side responder, crossing the same discriminator.
    let probe_plane = spec.probes.then(|| ProbePlane {
        prober: Box::new(ProbeNode::new(
            PROBER_ADDR,
            PROBE_SINK_ADDR,
            spec.workload.marker().to_vec(),
            tuning.duration,
            PROBE_MAX_TTL,
        )) as Box<dyn Node>,
        responder: Box::new(ProbeResponderNode::new(PROBE_SINK_ADDR)) as Box<dyn Node>,
    });

    let built: BuiltTopology = spec.topology.build(
        &mut sim,
        src_node,
        neut_node,
        secondary,
        dst_node,
        dyn_pool,
        &spec.link,
        probe_plane,
    );

    // The discriminatory policy goes on the topology's designated
    // discriminator. The same rules are installed for plain and
    // neutralized cells; whether they can still *match* is exactly what
    // the neutralizer changes.
    let policy = spec.adversary.build(&spec.workload);
    if !policy.is_empty() {
        sim.node_mut::<RouterNode>(built.discriminator)
            .expect("discriminator is a router")
            .set_policy(policy);
    }

    // The events axis: lower the preset against the built shape and
    // schedule it on the wheel, where it interleaves deterministically
    // with traffic.
    let timeline = spec.events.lower(&built, tuning.duration);
    if !timeline.is_empty() {
        sim.install_timeline(timeline);
    }

    // Run: schedule length plus grace for handshake and queue drain.
    sim.run_until(SimTime::ZERO + tuning.duration + Duration::from_millis(500));

    // Harvest.
    let policy_drops = spec
        .adversary
        .drop_rule_names(&spec.workload)
        .iter()
        .map(|rule| {
            sim.stats()
                .counter(&format!("{}.policy_drop.{}", built.disc_name, rule))
        })
        .sum();
    let (replies, verified_return_blocks) = if spec.stack == StackKind::Neutralized {
        let node = sim
            .node_ref::<NeutralizedSourceNode>(built.src)
            .expect("neutralized source");
        (node.replies, node.verified_return_blocks)
    } else {
        let node = sim
            .node_ref::<PlainSourceNode>(built.src)
            .expect("plain source");
        (node.replies, 0)
    };
    let mut counters: Vec<(String, u64)> = [
        "neutralizer.setup_served",
        "neutralizer.data_forwarded",
        "neutralizer.return_anonymized",
        "neutralizer.transit",
        "neutralizer-b.setup_served",
        "neutralizer-b.data_forwarded",
        "neutralizer-b.return_anonymized",
        "source.established",
        "source.failovers",
        // Keygen work per cell: a count only, like key_cache_hit/_miss
        // kept out of the golden-sensitive flow rows.
        "source.keygens",
        "events.applied",
        "events.pause_drops",
        "probe.pairs_tx",
        "probe.plain_rx",
        "probe.neut_rx",
        "probe.hops_tx",
        "probe.hop_rx",
        "probe.size_rx",
        "probe.reorder_rx",
        "probe.responder_echoed",
    ]
    .into_iter()
    .map(|name| (name.to_string(), sim.stats().counter(name)))
    .filter(|(_, v)| *v > 0)
    .collect();
    // The bottleneck direction's per-stage pipeline outcomes, so the
    // link axis is observable in every report.
    let bneck = sim.link_counters(built.bottleneck.0, built.bottleneck.1);
    for (name, v) in [
        ("bottleneck.tx_frames", bneck.tx_frames),
        ("bottleneck.queue_drops", bneck.queue_drops),
        ("bottleneck.ce_marks", bneck.ce_marks),
        ("bottleneck.loss_drops", bneck.fault_drops),
        ("bottleneck.burst_episodes", bneck.burst_episodes),
        ("bottleneck.reordered", bneck.reordered),
        ("bottleneck.corrupted", bneck.corrupted),
    ] {
        if v > 0 {
            counters.push((name.to_string(), v));
        }
    }
    // The population plane's frame economy, when the cell carries one:
    // wire frames emitted and terminated (fluid cohorts batch many
    // modeled frames per wire frame) plus the modeled endpoint count.
    if let Some((pop_node, pop_sink)) = built.population {
        let pop = sim
            .node_ref::<nn_netsim::PopulationNode>(pop_node)
            .expect("population node");
        let sink = sim
            .node_ref::<nn_netsim::PopulationSinkNode>(pop_sink)
            .expect("population sink");
        for (name, v) in [
            ("population.wire_tx", pop.wire_frames()),
            (
                "population.wire_rx",
                sink.cohorts().iter().map(|c| c.wire_frames).sum(),
            ),
            (
                "population.endpoints",
                pop.tx_stats().iter().map(|t| t.endpoints).sum(),
            ),
            ("population.parse_errors", sink.parse_errors),
        ] {
            if v > 0 {
                counters.push((name.to_string(), v));
            }
        }
    }
    counters.sort();

    let mut flows = match sim.stats().flow(flow) {
        Some(fs) => {
            let p = fs
                .delay_percentiles([50.0, 95.0, 99.0])
                .map(|s| s * 1_000.0);
            vec![CellFlow::new(flow, fs.tx_packets, &fs.rx, p)]
        }
        None => Vec::new(),
    };

    // Per-cohort aggregate rows ride after the workload flow (which
    // stays first: CSV summaries key off the first row). Aggregates
    // keep no per-packet delay list, so every percentile column here is
    // the histogram upper bound at that quantile.
    if let Some((pop_node, pop_sink)) = built.population {
        let pop = sim
            .node_ref::<nn_netsim::PopulationNode>(pop_node)
            .expect("population node");
        let sink = sim
            .node_ref::<nn_netsim::PopulationSinkNode>(pop_sink)
            .expect("population sink");
        let never_received = RxStats::default();
        let mut cohort_flows: Vec<CellFlow> = pop
            .tx_stats()
            .iter()
            .map(|tx| {
                let rx = sink.cohort(&tx.name).map_or(&never_received, |a| &a.rx);
                let p = [0.50, 0.95, 0.99].map(|q| hist_delay_ms(rx, q));
                CellFlow::new(&tx.name, tx.tx_packets, rx, p)
            })
            .collect();
        cohort_flows.sort_by(|a, b| a.flow.cmp(&b.flow));
        flows.extend(cohort_flows);
    }

    // Probe evidence comes off the prober node itself — never out of
    // flow stats, which the measurement plane leaves untouched.
    let probe = built
        .prober
        .map(|p| sim.node_ref::<ProbeNode>(p).expect("probe node").summary());

    let events = sim.events_processed();
    *pool = sim.take_pool();

    CellReport {
        seed: spec.seed,
        flows,
        replies,
        verified_return_blocks,
        policy_drops,
        counters,
        events,
        probe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(adversary: AdversarySpec, stack: StackKind) -> CellSpec {
        CellSpec {
            topology: TopologySpec::chain(),
            link: LinkProfileSpec::Clean,
            workload: WorkloadSpec::voip_default(),
            adversary,
            stack,
            events: EventTimelineSpec::Static,
            probes: false,
            seed: 7,
        }
    }

    #[test]
    fn baseline_cell_delivers_nearly_everything() {
        let report = run_cell(
            &cell(AdversarySpec::None, StackKind::Plain),
            &CellTuning::fast(),
        );
        let f = &report.flows[0];
        assert!(f.tx_packets >= 100, "CBR schedule ran: {}", f.tx_packets);
        assert!(f.delivery_ratio > 0.99, "neutral network delivers");
        assert_eq!(report.policy_drops, 0);
        assert!(report.replies > 0, "echo path works");
    }

    #[test]
    fn dpi_collapses_plain_and_neutralization_recovers() {
        let tuning = CellTuning::fast();
        let baseline = run_cell(&cell(AdversarySpec::None, StackKind::Plain), &tuning);
        let throttled = run_cell(
            &cell(AdversarySpec::content_dpi_default(), StackKind::Plain),
            &tuning,
        );
        let neutralized = run_cell(
            &cell(AdversarySpec::content_dpi_default(), StackKind::Neutralized),
            &tuning,
        );
        assert!(throttled.policy_drops > 0, "DPI matched and dropped");
        assert!(throttled.goodput_bps() < baseline.goodput_bps() * 0.6);
        assert_eq!(neutralized.policy_drops, 0, "nothing left to match");
        assert!(neutralized.goodput_bps() > baseline.goodput_bps() * 0.9);
        assert!(neutralized.verified_return_blocks > 0);
    }

    #[test]
    fn address_drop_defeated_by_hidden_destination() {
        let tuning = CellTuning::fast();
        let plain = run_cell(
            &cell(AdversarySpec::address_drop_default(), StackKind::Plain),
            &tuning,
        );
        let neutralized = run_cell(
            &cell(
                AdversarySpec::address_drop_default(),
                StackKind::Neutralized,
            ),
            &tuning,
        );
        // Plain: every forward packet names the destination — all dropped.
        assert_eq!(plain.flows[0].rx_packets, 0, "censorship is total");
        // Neutralized: the destination address never appears on the wire.
        assert!(neutralized.flows[0].delivery_ratio > 0.9);
        assert_eq!(neutralized.policy_drops, 0);
    }

    #[test]
    fn same_seed_cells_are_byte_identical() {
        let tuning = CellTuning::fast();
        let spec = cell(AdversarySpec::content_dpi_default(), StackKind::Neutralized);
        let a = run_cell(&spec, &tuning);
        let b = run_cell(&spec, &tuning);
        assert_eq!(a, b, "one seed must reproduce exactly");
    }

    /// The link axis is live end-to-end: a bursty bottleneck degrades
    /// delivery below the clean wire and its stage counters surface in
    /// the report; an ECN-RED bottleneck under cross-traffic CE-marks
    /// frames the destination actually observes.
    #[test]
    fn link_axis_degrades_and_is_observable() {
        let tuning = CellTuning::fast();
        let mk = |link| CellSpec {
            link,
            ..cell(AdversarySpec::None, StackKind::Plain)
        };
        let clean = run_cell(&mk(LinkProfileSpec::Clean), &tuning);
        let lossy = run_cell(
            &mk(LinkProfileSpec::LossyBurst {
                p_enter_bad: 0.05,
                p_exit_bad: 0.15,
                loss_bad: 0.9,
            }),
            &tuning,
        );
        assert!(clean.flows[0].delivery_ratio > 0.99);
        assert!(
            lossy.flows[0].delivery_ratio < 0.95,
            "burst loss must bite: {}",
            lossy.flows[0].delivery_ratio
        );
        let get = |r: &CellReport, name: &str| {
            r.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0)
        };
        assert!(get(&lossy, "bottleneck.loss_drops") > 0);
        assert!(get(&lossy, "bottleneck.burst_episodes") > 0);
        assert_eq!(get(&clean, "bottleneck.loss_drops"), 0);

        let ecn = CellSpec {
            topology: TopologySpec::dumbbell_crossed(),
            link: LinkProfileSpec::ecn_red_default(),
            ..cell(AdversarySpec::None, StackKind::Plain)
        };
        let report = run_cell(&ecn, &tuning);
        assert!(
            get(&report, "bottleneck.ce_marks") > 0,
            "congested RED must mark: {:?}",
            report.counters
        );
        assert!(
            report.flows[0].ce_marks > 0,
            "the destination sees CE-marked deliveries"
        );
    }

    #[test]
    fn star_topology_runs_the_same_comparison() {
        let tuning = CellTuning::fast();
        let mk = |adversary, stack| CellSpec {
            topology: TopologySpec::star_default(),
            link: LinkProfileSpec::Clean,
            workload: WorkloadSpec::voip_default(),
            adversary,
            stack,
            events: EventTimelineSpec::Static,
            probes: false,
            seed: 5,
        };
        let baseline = run_cell(&mk(AdversarySpec::None, StackKind::Plain), &tuning);
        let throttled = run_cell(
            &mk(AdversarySpec::content_dpi_default(), StackKind::Plain),
            &tuning,
        );
        assert!(baseline.flows[0].delivery_ratio > 0.99);
        assert!(throttled.goodput_bps() < baseline.goodput_bps() * 0.6);
    }

    /// The probe plane rides alongside the application without touching
    /// its accounting: a probes-on cell reports the same flow metrics as
    /// the probes-off cell, plus differential evidence that catches the
    /// content-DPI discriminator red-handed.
    #[test]
    fn probe_plane_observes_dpi_without_perturbing_the_flow() {
        let tuning = CellTuning::fast();
        let quiet = cell(AdversarySpec::content_dpi_default(), StackKind::Plain);
        let probed = CellSpec {
            probes: true,
            ..quiet.clone()
        };
        let without = run_cell(&quiet, &tuning);
        let with = run_cell(&probed, &tuning);
        assert!(without.probe.is_none());
        let probe = with.probe.as_ref().expect("probes knob yields a summary");

        // Goodput accounting is untouched by probe traffic: the only
        // flow is still the application's, with the same send schedule.
        // (Delivery may shift by a packet or two — plain probes share
        // the discriminator's token bucket, which is physical contention
        // on the path, not accounting contamination.)
        assert_eq!(with.flows.len(), 1);
        assert_eq!(with.flows[0].flow, "voip");
        assert_eq!(without.flows[0].tx_packets, with.flows[0].tx_packets);
        assert!(
            (without.flows[0].delivery_ratio - with.flows[0].delivery_ratio).abs() < 0.05,
            "probe load must stay a light perturbation: {} vs {}",
            without.flows[0].delivery_ratio,
            with.flows[0].delivery_ratio
        );

        // Differential evidence: the application-lookalike half starves
        // under the DPI throttle while its unclassifiable twin sails.
        assert!(probe.plain_tx >= 10 && probe.plain_tx == probe.neut_tx);
        assert!(probe.neut_delivery() > 0.9, "neut twin unaffected");
        assert!(
            probe.plain_delivery() < probe.neut_delivery() * 0.65,
            "plain {} vs neut {}",
            probe.plain_delivery(),
            probe.neut_delivery()
        );

        // The hop train names the path's routers.
        assert!(!probe.hops.is_empty(), "TTL sweep heard replies");
    }

    #[test]
    fn probe_summary_percentiles_populate_cell_flows() {
        let report = run_cell(
            &cell(AdversarySpec::None, StackKind::Plain),
            &CellTuning::fast(),
        );
        let f = &report.flows[0];
        assert!(f.p50_delay_ms > 0.0 && f.p50_delay_ms <= f.p95_delay_ms);
        assert!(f.p95_delay_ms <= f.p99_delay_ms);
        assert!(
            f.hist_p99_delay_ms >= f.p99_delay_ms * 0.75,
            "histogram p99 upper bound {} brackets exact p99 {}",
            f.hist_p99_delay_ms,
            f.p99_delay_ms
        );
    }
}
