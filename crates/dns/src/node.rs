//! The in-simulator DNS server node.
//!
//! §3.1: a discriminatory ISP "may eavesdrop on its customer's DNS queries
//! and discriminate DNS queries based on the query destination", so
//! clients must be able to "encrypt DNS queries and send the queries to
//! DNS resolvers that are not controlled by the discriminatory ISP". This
//! node therefore serves two ports:
//!
//! * port 53 — plain DNS (observable and discriminable);
//! * port 853 — queries wrapped in an [`nn_crypto::e2e`] envelope under
//!   the resolver's public key, responses sealed with the recovered
//!   session key. The ISP sees only that *some* encrypted exchange with a
//!   resolver happened.

use crate::wire::{DnsMessage, Rcode};
use crate::zone::{Lookup, ZoneStore};
use nn_crypto::e2e;
use nn_crypto::{E2eEnvelope, E2eSession, RsaKeypair};
use nn_netsim::{Context, FrameBuf, IfaceId, Node};
#[cfg(test)]
use nn_packet::build_udp;
use nn_packet::{build_udp_into, parse_udp, Ipv4Addr};

/// Well-known plain DNS port.
pub const DNS_PORT: u16 = 53;
/// Encrypted-resolver port.
pub const ENCRYPTED_DNS_PORT: u16 = 853;

/// An authoritative resolver node.
pub struct DnsServerNode {
    /// The server's own address (used as response source).
    pub addr: Ipv4Addr,
    zone: ZoneStore,
    keypair: Option<RsaKeypair>,
    stats_name: String,
}

impl DnsServerNode {
    /// A plain resolver (no encrypted service).
    pub fn new(stats_name: impl Into<String>, addr: Ipv4Addr, zone: ZoneStore) -> Self {
        DnsServerNode {
            addr,
            zone,
            keypair: None,
            stats_name: stats_name.into(),
        }
    }

    /// Enables the encrypted-query service with the given keypair. The
    /// matching public key must be pre-configured at clients (§3.1).
    pub fn with_keypair(mut self, keypair: RsaKeypair) -> Self {
        self.keypair = Some(keypair);
        self
    }

    /// The public key clients need for port 853, RSA wire format.
    pub fn public_key_wire(&self) -> Option<Vec<u8>> {
        self.keypair.as_ref().map(|kp| kp.public.to_wire())
    }

    fn answer(&self, query: &DnsMessage) -> DnsMessage {
        match self.zone.query(&query.question.name, query.question.qtype) {
            Lookup::Found(records) => query.response(Rcode::NoError, records),
            Lookup::NoData => query.response(Rcode::NoError, vec![]),
            Lookup::NxDomain => query.response(Rcode::NxDomain, vec![]),
        }
    }

    /// Serves one port-853 query: open the envelope, answer, seal the
    /// response with the recovered session key. Returns the reply frame.
    fn answer_encrypted(
        &mut self,
        ctx: &mut Context,
        udp: &nn_packet::ParsedUdp<'_>,
    ) -> Option<FrameBuf> {
        let Some(keypair) = &self.keypair else {
            ctx.stats
                .count(&format!("{}.encrypted_unsupported", self.stats_name));
            return None;
        };
        let Ok(envelope) = E2eEnvelope::from_bytes(udp.payload) else {
            ctx.stats
                .count(&format!("{}.bad_envelope", self.stats_name));
            return None;
        };
        let Ok((inner, session_key)) = e2e::open(&keypair.private, &envelope) else {
            ctx.stats
                .count(&format!("{}.envelope_auth_fail", self.stats_name));
            return None;
        };
        let Ok(query) = DnsMessage::decode(&inner) else {
            ctx.stats.count(&format!("{}.bad_query", self.stats_name));
            return None;
        };
        ctx.stats
            .count(&format!("{}.encrypted_query", self.stats_name));
        let resp = self.answer(&query);
        let mut session = E2eSession::new(&session_key, false);
        let record = session.seal_record(&resp.encode());
        ctx.alloc_built(|buf| {
            build_udp_into(
                buf,
                self.addr,
                udp.ip.src,
                udp.ip.dscp,
                ENCRYPTED_DNS_PORT,
                udp.src_port,
                &record.to_bytes(),
            )
        })
    }
}

impl Node for DnsServerNode {
    fn on_packet(&mut self, ctx: &mut Context, iface: IfaceId, frame: FrameBuf) {
        let mut reply: Option<FrameBuf> = None;
        match parse_udp(&frame) {
            Err(_) => {
                ctx.stats.count(&format!("{}.bad_frame", self.stats_name));
            }
            Ok(udp) => match udp.dst_port {
                DNS_PORT => {
                    if let Ok(query) = DnsMessage::decode(udp.payload) {
                        ctx.stats.count(&format!("{}.plain_query", self.stats_name));
                        let resp = self.answer(&query);
                        reply = ctx.alloc_built(|buf| {
                            build_udp_into(
                                buf,
                                self.addr,
                                udp.ip.src,
                                udp.ip.dscp,
                                DNS_PORT,
                                udp.src_port,
                                &resp.encode(),
                            )
                        });
                    } else {
                        ctx.stats.count(&format!("{}.bad_query", self.stats_name));
                    }
                }
                ENCRYPTED_DNS_PORT => {
                    reply = self.answer_encrypted(ctx, &udp);
                }
                _ => {
                    ctx.stats.count(&format!("{}.wrong_port", self.stats_name));
                }
            },
        }
        // The query frame terminates here either way; its buffer feeds
        // the next reply.
        ctx.recycle(frame);
        if let Some(out) = reply {
            ctx.send(iface, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DnsName;
    use crate::records::{rtype, NeutInfo, Record, RecordData};
    use nn_crypto::E2eRecord;
    use nn_netsim::{LinkProfile, SimTime, Simulator, SinkNode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn zone() -> ZoneStore {
        let mut z = ZoneStore::new();
        z.add(Record::new(
            DnsName::new("google.com").unwrap(),
            300,
            RecordData::A(Ipv4Addr::new(172, 16, 2, 1)),
        ));
        z.add(Record::new(
            DnsName::new("google.com").unwrap(),
            300,
            RecordData::Neut(NeutInfo {
                neutralizers: vec![Ipv4Addr::new(198, 18, 0, 1)],
                pubkey_wire: vec![0, 2, 0xab, 0xcd],
            }),
        ));
        z
    }

    /// Builds client(sink) -- server and returns (sim, client_id, server_id).
    fn setup(keypair: Option<RsaKeypair>) -> (Simulator, usize, usize) {
        let mut sim = Simulator::new(3);
        let client = sim.add_node("client", Box::new(SinkNode::new()));
        let mut server_node = DnsServerNode::new("dns", SERVER, zone());
        if let Some(kp) = keypair {
            server_node = server_node.with_keypair(kp);
        }
        let server = sim.add_node("dns", Box::new(server_node));
        sim.connect_sym(
            client,
            server,
            LinkProfile::new(100_000_000, Duration::from_millis(2)),
        );
        (sim, client, server)
    }

    fn last_payload(sink: &SinkNode) -> u64 {
        sink.rx_frames
    }

    #[test]
    fn plain_query_answered() {
        let (mut sim, client, server) = setup(None);
        let q = DnsMessage::query(77, DnsName::new("google.com").unwrap(), rtype::NEUT);
        let frame = build_udp(CLIENT, SERVER, 0, 5353, DNS_PORT, &q.encode()).unwrap();
        sim.inject(SimTime::ZERO, server, 0, frame);
        sim.run(100);
        assert_eq!(sim.stats().counter("dns.plain_query"), 1);
        let sink = sim.node_ref::<SinkNode>(client).unwrap();
        assert_eq!(last_payload(sink), 1, "client got a response frame");
    }

    #[test]
    fn nxdomain_for_unknown_name() {
        let (mut sim, _client, server) = setup(None);
        let q = DnsMessage::query(1, DnsName::new("unknown.example").unwrap(), rtype::A);
        let frame = build_udp(CLIENT, SERVER, 0, 5353, DNS_PORT, &q.encode()).unwrap();
        sim.inject(SimTime::ZERO, server, 0, frame);
        sim.run(100);
        // The response still flows; semantics checked in resolver tests.
        assert_eq!(sim.stats().counter("dns.plain_query"), 1);
    }

    #[test]
    fn garbage_counted_not_crashed() {
        let (mut sim, _client, server) = setup(None);
        let frame = build_udp(CLIENT, SERVER, 0, 5353, DNS_PORT, b"not dns").unwrap();
        sim.inject(SimTime::ZERO, server, 0, frame);
        sim.inject(SimTime::ZERO, server, 0, vec![0u8; 5]);
        sim.run(100);
        assert_eq!(sim.stats().counter("dns.bad_query"), 1);
        assert_eq!(sim.stats().counter("dns.bad_frame"), 1);
    }

    #[test]
    fn encrypted_query_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        let kp = nn_crypto::generate_keypair(&mut rng, 512);
        let (mut sim, client, server) = setup(Some(kp.clone()));

        let q = DnsMessage::query(9, DnsName::new("google.com").unwrap(), rtype::NEUT);
        let envelope = e2e::seal(&mut rng, &kp.public, &q.encode()).unwrap();
        let frame = build_udp(
            CLIENT,
            SERVER,
            0,
            40000,
            ENCRYPTED_DNS_PORT,
            &envelope.to_bytes(),
        )
        .unwrap();
        sim.inject(SimTime::ZERO, server, 0, frame);
        sim.run(100);
        assert_eq!(sim.stats().counter("dns.encrypted_query"), 1);
        assert_eq!(
            sim.node_ref::<SinkNode>(client).unwrap().rx_frames,
            1,
            "sealed response delivered"
        );
    }

    #[test]
    fn encrypted_response_decrypts_and_carries_answers() {
        // Full client-side verification outside the simulator loop.
        let mut rng = StdRng::seed_from_u64(43);
        let kp = nn_crypto::generate_keypair(&mut rng, 512);
        let mut server = DnsServerNode::new("dns", SERVER, zone()).with_keypair(kp.clone());

        let q = DnsMessage::query(5, DnsName::new("google.com").unwrap(), rtype::NEUT);
        let envelope = e2e::seal(&mut rng, &kp.public, &q.encode()).unwrap();
        // Recover what the server would compute by invoking its handler
        // through a tiny simulation.
        let mut sim = Simulator::new(1);
        let catcher = sim.add_node("c", Box::new(SinkNode::new()));
        let _ = catcher;
        let sid = sim.add_node("s", {
            // Move the zone/keypair server in.
            let s = std::mem::replace(
                &mut server,
                DnsServerNode::new("x", SERVER, ZoneStore::new()),
            );
            Box::new(s)
        });
        sim.connect_sym(
            catcher,
            sid,
            LinkProfile::new(1_000_000_000, Duration::from_micros(1)),
        );
        let frame = build_udp(
            CLIENT,
            SERVER,
            0,
            40000,
            ENCRYPTED_DNS_PORT,
            &envelope.to_bytes(),
        )
        .unwrap();
        sim.inject(SimTime::ZERO, sid, 0, frame);
        sim.run(100);

        // The catcher holds one frame: unwrap and decode it as the client.
        // (We cannot read the frame out of SinkNode byte-wise here, so
        // validate via the session-key path in e2e tests; this test
        // asserts delivery and the stats counter.)
        assert_eq!(sim.stats().counter("dns.encrypted_query"), 1);
        // Client-side decrypt logic is exercised end-to-end in the
        // resolver integration test in tests/.
        let (_plain, session_key) = e2e::open(&kp.private, &envelope).unwrap();
        let mut s = E2eSession::new(&session_key, false);
        let rec = s.seal_record(b"check");
        assert_eq!(
            E2eSession::new(&session_key, true)
                .open_record(&E2eRecord::from_bytes(&rec.to_bytes()).unwrap())
                .unwrap(),
            b"check"
        );
    }

    #[test]
    fn encrypted_port_without_keypair_rejected() {
        let (mut sim, _client, server) = setup(None);
        let frame = build_udp(CLIENT, SERVER, 0, 40000, ENCRYPTED_DNS_PORT, b"junk").unwrap();
        sim.inject(SimTime::ZERO, server, 0, frame);
        sim.run(100);
        assert_eq!(sim.stats().counter("dns.encrypted_unsupported"), 1);
    }
}
