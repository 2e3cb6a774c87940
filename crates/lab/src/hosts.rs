//! Host stacks: the endpoints of every scenario.
//!
//! The same application workload (an [`AppSource`]) runs unchanged over
//! two transports, so A/B experiments compare *network treatment* only:
//!
//! * [`PlainSourceNode`] / [`PlainServerNode`] — ordinary UDP. The
//!   payload is in the clear, so a discriminatory ISP's DPI can classify
//!   and degrade it (§1 of the paper).
//! * [`NeutralizedSourceNode`] / [`NeutralizedServerNode`] — the paper's
//!   §3.2 pipeline: one-time-RSA key setup against the neutralizer,
//!   sealed destination addresses in the shim header, end-to-end
//!   encrypted payloads, and anonymized return traffic.
//!
//! Every application payload travels inside an *app frame* that carries
//! the flow name and the send timestamp, so the receiving side can do
//! per-flow goodput/delay accounting in [`nn_netsim::stats`] without any
//! out-of-band channel.

use nn_core::app::AppSource;
use nn_core::multihome::{NeutralizerSelector, SelectPolicy};
use nn_core::wire::{InnerPayload, TransportMsg};
use nn_crypto::e2e;
use nn_crypto::sealed::AddrSealer;
use nn_crypto::{Cmac, E2eSession, RsaKeypair};
use nn_netsim::stats::is_ce;
use nn_netsim::{Context, FrameBuf, IfaceId, Node, SimTime};
use nn_packet::{
    build_shim_into, build_udp_into, ecn, parse_shim, parse_udp, Ipv4Addr, Ipv4Packet, ShimRepr,
    ShimType,
};
use rand::Rng;
use std::collections::HashMap;

/// Timer token for application wake-ups.
const TOKEN_APP_WAKE: u64 = 0xA1;
/// Timer token for key-setup retransmission.
const TOKEN_SETUP_RETRY: u64 = 0xA2;
/// Timer token for the multihome liveness check (§3.5).
const TOKEN_LIVENESS: u64 = 0xA3;

/// How long a neutralized source waits for a `KeyReply` before
/// retransmitting its `KeySetup` (covers one lost packet per RTO).
const SETUP_RETRY_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// How often a multihomed source checks that the provider it is using
/// still answers. Only armed when the `NEUT` record listed more than one
/// neutralizer, so single-homed cells schedule no extra timers.
const LIVENESS_INTERVAL: std::time::Duration = std::time::Duration::from_millis(50);

/// A liveness window is only meaningful when the source actually offered
/// traffic: at least this many data packets with zero authenticated
/// replies counts as a silent provider.
const LIVENESS_MIN_TX: u64 = 2;

/// How many consecutive `KeySetup` retransmissions against one provider
/// the source tolerates before trying the next address in the list.
const SETUP_RETRIES_PER_PROVIDER: u32 = 2;

/// UDP port both ends of the plain transport use (an RTP-like workload).
pub const APP_PORT: u16 = 16384;

/// Marks an outgoing frame ECT(0): both host stacks model ECN-capable
/// transports, so an ECN-enabled AQM on the path can CE-mark their
/// packets instead of dropping them. The DSCP is untouched (§3.4).
fn stamp_ect(frame: &mut FrameBuf) {
    Ipv4Packet::new_unchecked(frame.as_mut_slice()).set_ecn(ecn::ECT0);
}

/// Builds `IP(UDP(payload))` into a pooled buffer, ECT(0)-stamped.
/// `None` (plus a counter) when the payload cannot fit a frame.
fn pooled_udp(
    ctx: &mut Context,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    payload: &[u8],
) -> Option<FrameBuf> {
    let mut pkt =
        ctx.alloc_built(|buf| build_udp_into(buf, src, dst, dscp, APP_PORT, APP_PORT, payload))?;
    stamp_ect(&mut pkt);
    Some(pkt)
}

/// Builds `IP(SHIM(payload))` into a pooled buffer, ECT(0)-stamped.
fn pooled_shim(
    ctx: &mut Context,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    shim: &ShimRepr,
    payload: &[u8],
) -> Option<FrameBuf> {
    let mut pkt = ctx.alloc_built(|buf| build_shim_into(buf, src, dst, dscp, shim, payload))?;
    stamp_ect(&mut pkt);
    Some(pkt)
}

/// Derives the record-channel key from the envelope session key.
///
/// Domain separation: envelopes are sealed under the raw session key
/// while records run under this derived key, so an on-path adversary
/// cannot re-wrap a captured envelope body as an authenticated record
/// (both formats MAC `nonce ‖ ciphertext`). Replay of an *unmodified*
/// packet is deliberately out of scope — the discriminatory-ISP model
/// here degrades traffic rather than injecting it, and the goodput
/// accounting would need receiver-side nonce windows to de-duplicate.
fn record_channel_key(session_key: &[u8; 16]) -> [u8; 16] {
    Cmac::new(session_key).tag(b"nn-record-channel")
}

/// Encodes `flow ‖ send-time ‖ data` for in-band flow accounting.
///
/// Layout: `flow_len(1) ‖ flow ‖ sent_ns(8) ‖ data`.
pub fn encode_app_frame(flow: &str, now: SimTime, data: &[u8]) -> Vec<u8> {
    assert!(flow.len() <= 255, "flow names are one length byte");
    let mut out = Vec::with_capacity(1 + flow.len() + 8 + data.len());
    out.push(flow.len() as u8);
    out.extend_from_slice(flow.as_bytes());
    out.extend_from_slice(&now.as_nanos().to_be_bytes());
    out.extend_from_slice(data);
    out
}

/// Decodes an app frame; `None` on malformed input.
pub fn decode_app_frame(frame: &[u8]) -> Option<(&str, SimTime, &[u8])> {
    let (&flow_len, rest) = frame.split_first()?;
    let flow_len = flow_len as usize;
    if rest.len() < flow_len + 8 {
        return None;
    }
    let flow = core::str::from_utf8(&rest[..flow_len]).ok()?;
    let sent = SimTime(u64::from_be_bytes(
        rest[flow_len..flow_len + 8].try_into().unwrap(),
    ));
    Some((flow, sent, &rest[flow_len + 8..]))
}

/// Drives an [`AppSource`]'s schedule through timer wake-ups; shared by
/// both source stacks.
struct AppDriver {
    app: Box<dyn AppSource>,
    flow: String,
}

impl AppDriver {
    /// Polls the app and returns encoded app frames ready for transport.
    fn poll(&mut self, ctx: &mut Context) -> Vec<Vec<u8>> {
        let cmds = self.app.poll(ctx.now, ctx.rng);
        let mut frames = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            ctx.stats.flow_tx(self.flow.as_str(), cmd.data.len());
            frames.push(encode_app_frame(&self.flow, ctx.now, &cmd.data));
        }
        if let Some(next) = self.app.next_wake(ctx.now) {
            if next > ctx.now {
                ctx.set_timer(next - ctx.now, TOKEN_APP_WAKE);
            }
        }
        frames
    }

    /// Hands a received echo reply to the app and returns its reaction
    /// commands as encoded frames ready for transport (`None` for
    /// malformed replies).
    fn on_reply(&mut self, ctx: &mut Context, frame: &[u8]) -> Option<Vec<Vec<u8>>> {
        let (_, _, data) = decode_app_frame(frame)?;
        let cmds = self.app.on_receive(ctx.now, "peer", data);
        let mut frames = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            ctx.stats.flow_tx(self.flow.as_str(), cmd.data.len());
            frames.push(encode_app_frame(&self.flow, ctx.now, &cmd.data));
        }
        Some(frames)
    }
}

/// A source host speaking plain UDP — the baseline the discriminatory
/// ISP can classify.
pub struct PlainSourceNode {
    addr: Ipv4Addr,
    dst: Ipv4Addr,
    dscp: u8,
    driver: AppDriver,
    /// Echo replies received back from the server.
    pub replies: u64,
}

impl PlainSourceNode {
    /// Builds a plain source sending `app`'s traffic to `dst`.
    pub fn new(
        addr: Ipv4Addr,
        dst: Ipv4Addr,
        dscp: u8,
        flow: impl Into<String>,
        app: Box<dyn AppSource>,
    ) -> Self {
        PlainSourceNode {
            addr,
            dst,
            dscp,
            driver: AppDriver {
                app,
                flow: flow.into(),
            },
            replies: 0,
        }
    }

    fn flush(&mut self, ctx: &mut Context) {
        for frame in self.driver.poll(ctx) {
            match pooled_udp(ctx, self.addr, self.dst, self.dscp, &frame) {
                Some(pkt) => ctx.send(0, pkt),
                // flow_tx already counted this packet: record that it
                // never left, so 0% delivery is not misread as loss.
                None => ctx.stats.count("source.build_fail"),
            }
        }
    }
}

impl Node for PlainSourceNode {
    fn on_start(&mut self, ctx: &mut Context) {
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        if token == TOKEN_APP_WAKE {
            self.flush(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        let reactions = parse_udp(&frame)
            .ok()
            .and_then(|parsed| self.driver.on_reply(ctx, parsed.payload));
        ctx.recycle(frame);
        let Some(reactions) = reactions else {
            return;
        };
        self.replies += 1;
        for frame in reactions {
            match pooled_udp(ctx, self.addr, self.dst, self.dscp, &frame) {
                Some(pkt) => ctx.send(0, pkt),
                None => ctx.stats.count("source.build_fail"),
            }
        }
    }
}

/// A plain UDP server: accounts every delivery per flow and echoes the
/// app frame back to the sender.
pub struct PlainServerNode {
    addr: Ipv4Addr,
    echo: bool,
    /// App frames delivered.
    pub rx_frames: u64,
}

impl PlainServerNode {
    /// Builds a server at `addr`; `echo` controls replies.
    pub fn new(addr: Ipv4Addr, echo: bool) -> Self {
        PlainServerNode {
            addr,
            echo,
            rx_frames: 0,
        }
    }
}

impl Node for PlainServerNode {
    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        let mut reply: Option<FrameBuf> = None;
        {
            let Ok(parsed) = parse_udp(&frame) else {
                ctx.recycle(frame);
                return;
            };
            let Some((flow, sent, data)) = decode_app_frame(parsed.payload) else {
                ctx.recycle(frame);
                return;
            };
            self.rx_frames += 1;
            ctx.stats
                .flow_rx(flow, data.len(), sent, ctx.now, is_ce(&frame));
            if self.echo {
                reply = pooled_udp(
                    ctx,
                    self.addr,
                    parsed.ip.src,
                    parsed.ip.dscp,
                    parsed.payload,
                );
            }
        }
        ctx.recycle(frame);
        if let Some(pkt) = reply {
            ctx.send(0, pkt);
        }
    }
}

/// Bootstrap information a source needs before neutralized communication
/// (§3.1): in deployment this triple comes out of the destination's DNS
/// `NEUT` record; the scenario harness resolves it from a zone through
/// the TTL cache at setup time.
#[derive(Debug, Clone)]
pub struct Bootstrap {
    /// The destination's real address (stays hidden inside sealed blocks).
    pub dest: Ipv4Addr,
    /// Every neutralizer service address the `NEUT` record listed, in
    /// record order. A multihomed destination lists one per provider
    /// (§3.5); the source steers between them with a
    /// [`NeutralizerSelector`].
    pub neutralizers: Vec<Ipv4Addr>,
    /// The destination's end-to-end RSA public key.
    pub dest_pubkey: nn_crypto::RsaPublicKey,
}

/// Established session state on the neutralized source.
struct EstablishedSession {
    nonce: u64,
    /// Destination sealed under `Ks` and bound to the nonce; reusable on
    /// every packet because the neutralizer is stateless.
    sealed_dst: [u8; 16],
    /// Sealer for verifying anonymized return blocks.
    sealer: AddrSealer,
    /// End-to-end record channel (initiator direction).
    session: E2eSession,
    /// True once an authenticated reply proves the destination holds the
    /// session key. Until then every packet carries a full envelope, so a
    /// lost first packet cannot deadlock the record channel.
    confirmed: bool,
    e2e_key: [u8; 16],
}

/// A source host speaking the neutralized protocol of §3.2.
pub struct NeutralizedSourceNode {
    addr: Ipv4Addr,
    bootstrap: Bootstrap,
    dscp: u8,
    onetime_rsa_bits: usize,
    driver: AppDriver,
    keypair: Option<RsaKeypair>,
    established: Option<EstablishedSession>,
    /// App frames generated before key setup completed, with their
    /// original send timestamps already encoded.
    pending: Vec<Vec<u8>>,
    /// Picks which listed neutralizer to send through (§3.5). `Probe`
    /// draws no RNG, so single-homed cells keep byte-identical streams.
    selector: NeutralizerSelector,
    /// The provider currently in use (the selector's latest choice).
    current: Ipv4Addr,
    /// Data packets sent since the last liveness check.
    liveness_tx: u64,
    /// Authenticated replies received since the last liveness check.
    liveness_rx: u64,
    /// Whether any reply ever came back through `current`. A silent
    /// window only indicts a provider that was previously alive — before
    /// the first reply the window may simply be shorter than the RTT
    /// (a dead-from-start provider is caught by the setup-retry path).
    path_alive: bool,
    /// Consecutive `KeySetup` retransmissions against `current`.
    setup_retries: u32,
    /// Times the source switched providers (also the `source.failovers`
    /// stat).
    pub failovers: u64,
    /// Echo replies received and authenticated.
    pub replies: u64,
    /// Replies whose sealed return block opened to the real destination.
    pub verified_return_blocks: u64,
}

impl NeutralizedSourceNode {
    /// Builds a neutralized source from bootstrap info.
    pub fn new(
        addr: Ipv4Addr,
        bootstrap: Bootstrap,
        dscp: u8,
        onetime_rsa_bits: usize,
        flow: impl Into<String>,
        app: Box<dyn AppSource>,
    ) -> Self {
        let selector =
            NeutralizerSelector::new(bootstrap.neutralizers.clone(), SelectPolicy::Probe);
        let current = bootstrap.neutralizers[0];
        NeutralizedSourceNode {
            addr,
            bootstrap,
            dscp,
            onetime_rsa_bits,
            driver: AppDriver {
                app,
                flow: flow.into(),
            },
            keypair: None,
            established: None,
            pending: Vec::new(),
            selector,
            current,
            liveness_tx: 0,
            liveness_rx: 0,
            path_alive: false,
            setup_retries: 0,
            failovers: 0,
            replies: 0,
            verified_return_blocks: 0,
        }
    }

    /// True when the `NEUT` record listed a fallback provider, i.e. when
    /// failover machinery (liveness timer, selector feedback) is active.
    fn multihomed(&self) -> bool {
        self.bootstrap.neutralizers.len() > 1
    }

    /// Reports `current` dead to the selector and switches to its next
    /// choice. The neutralizers are stateless (§3: `Ks` is re-derivable
    /// from the master key on any provider), so an established session
    /// keeps working across the switch — only the service address the
    /// packets travel to changes.
    fn fail_over(&mut self, ctx: &mut Context) {
        self.selector.report_failure(self.current);
        let next = self.selector.choose(ctx.rng);
        if next != self.current {
            self.current = next;
            self.failovers += 1;
            ctx.stats.count("source.failovers");
            // The replacement starts unproven: its first silent window
            // must not immediately indict it too.
            self.path_alive = false;
        }
        self.setup_retries = 0;
    }

    /// Sends one app frame as a neutralized data packet.
    fn send_data(&mut self, ctx: &mut Context, app_frame: &[u8]) {
        let est = self.established.as_mut().expect("established");
        let inner = InnerPayload::data(app_frame.to_vec());
        let msg = if est.confirmed {
            TransportMsg::Record(est.session.seal_record(&inner.to_bytes()))
        } else {
            // Until an authenticated reply confirms the destination holds
            // the session key, every packet is a public-key envelope
            // transporting it (§3.1's end-to-end black box): losing any
            // one of them loses that packet only, never the channel.
            let Ok(env) = e2e::seal_keyed(
                ctx.rng,
                &self.bootstrap.dest_pubkey,
                &inner.to_bytes(),
                &est.e2e_key,
            ) else {
                ctx.stats.count("source.envelope_fail");
                return;
            };
            TransportMsg::Envelope(env)
        };
        let shim = ShimRepr {
            shim_type: ShimType::Data,
            flags: 0,
            nonce: est.nonce,
            addr_block: est.sealed_dst,
            stamp: None,
        };
        match pooled_shim(
            ctx,
            self.addr,
            self.current,
            self.dscp,
            &shim,
            &msg.to_bytes(),
        ) {
            Some(pkt) => {
                ctx.send(0, pkt);
                self.liveness_tx += 1;
            }
            // flow_tx already counted this packet: record that it never
            // left, so 0% delivery is not misread as loss.
            None => ctx.stats.count("source.build_fail"),
        }
    }

    fn flush(&mut self, ctx: &mut Context) {
        let frames = self.driver.poll(ctx);
        if self.established.is_some() {
            for frame in frames {
                self.send_data(ctx, &frame);
            }
        } else {
            self.pending.extend(frames);
        }
    }

    /// (Re)sends the `KeySetup` packet carrying the one-time public key.
    fn send_key_setup(&mut self, ctx: &mut Context) {
        let Some(kp) = &self.keypair else { return };
        let shim = ShimRepr {
            shim_type: ShimType::KeySetup,
            flags: 0,
            nonce: 0,
            addr_block: ShimRepr::EMPTY_BLOCK,
            stamp: None,
        };
        let wire = kp.public.to_wire();
        if let Some(pkt) = pooled_shim(ctx, self.addr, self.current, self.dscp, &shim, &wire) {
            ctx.send(0, pkt);
        }
        ctx.set_timer(SETUP_RETRY_INTERVAL, TOKEN_SETUP_RETRY);
    }

    fn handle_key_reply(&mut self, ctx: &mut Context, payload: &[u8]) {
        let Some(kp) = &self.keypair else { return };
        let Ok(plain) = kp.private.decrypt(payload) else {
            ctx.stats.count("source.key_reply_bad");
            return;
        };
        if plain.len() != 24 || self.established.is_some() {
            return;
        }
        let nonce = u64::from_be_bytes(plain[..8].try_into().unwrap());
        let ks: [u8; 16] = plain[8..24].try_into().unwrap();
        let sealer = AddrSealer::new(&ks);
        let e2e_key: [u8; 16] = ctx.rng.gen();
        self.established = Some(EstablishedSession {
            nonce,
            sealed_dst: sealer.seal(nonce, self.bootstrap.dest.to_u32()),
            sealer,
            session: E2eSession::new(&record_channel_key(&e2e_key), true),
            confirmed: false,
            e2e_key,
        });
        ctx.stats.count("source.established");
        self.setup_retries = 0;
        let pending = std::mem::take(&mut self.pending);
        for frame in pending {
            self.send_data(ctx, &frame);
        }
    }

    fn handle_return(&mut self, ctx: &mut Context, shim: &ShimRepr, payload: &[u8]) {
        let (verified, opened) = {
            let Some(est) = &self.established else { return };
            if shim.nonce != est.nonce {
                return;
            }
            // The neutralizer sealed the true responder address into the
            // return block; opening it proves which customer answered.
            let verified =
                est.sealer.open(shim.nonce, &shim.addr_block) == Ok(self.bootstrap.dest.to_u32());
            let opened = match TransportMsg::from_bytes(payload) {
                Ok(TransportMsg::Record(rec)) => est.session.open_record(&rec).ok(),
                _ => None,
            };
            (verified, opened)
        };
        if verified {
            self.verified_return_blocks += 1;
        }
        let Some(plain) = opened else {
            ctx.stats.count("source.return_bad");
            return;
        };
        // An authenticated reply proves the destination has the session
        // key: switch from envelopes to the cheaper record channel.
        if let Some(est) = self.established.as_mut() {
            est.confirmed = true;
        }
        let Ok(inner) = InnerPayload::from_bytes(&plain) else {
            return;
        };
        // An authenticated reply is proof of provider liveness: feed the
        // selector's srtt estimate and clear the silent-window counters.
        self.liveness_rx += 1;
        self.path_alive = true;
        if let Some((_, sent, _)) = decode_app_frame(&inner.app) {
            self.selector
                .report_success(self.current, (ctx.now - sent).as_secs_f64());
        }
        let Some(reactions) = self.driver.on_reply(ctx, &inner.app) else {
            return;
        };
        self.replies += 1;
        // handle_return only runs while established, so reactions can go
        // straight to the data path.
        for frame in reactions {
            self.send_data(ctx, &frame);
        }
    }
}

impl Node for NeutralizedSourceNode {
    fn on_start(&mut self, ctx: &mut Context) {
        // §3.2 step 1: mint a one-time RSA key and ask the neutralizer
        // for a session key bound to our address. Keygen draws from a
        // sub-RNG forked with a single `ctx.rng` draw, so the host stream
        // advances a fixed amount no matter how many candidates prime
        // search rejects — goldens stay invariant to keygen internals.
        let mut krng = nn_crypto::keygen_rng(ctx.rng);
        self.keypair = Some(nn_crypto::generate_keypair(
            &mut krng,
            self.onetime_rsa_bits,
        ));
        ctx.stats.count("source.keygens");
        self.send_key_setup(ctx);
        // Failover machinery only runs for multihomed destinations, so
        // single-homed cells schedule no extra timers (byte-identical
        // event streams with or without this feature compiled in).
        if self.multihomed() {
            ctx.set_timer(LIVENESS_INTERVAL, TOKEN_LIVENESS);
        }
        self.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context, token: u64) {
        match token {
            TOKEN_APP_WAKE => self.flush(ctx),
            // A lost KeySetup/KeyReply must not stall the session for the
            // whole run: retransmit until a reply establishes it. With a
            // fallback provider, a few consecutive silent retries are
            // §3.5's "trial-and-error": try the next address instead.
            TOKEN_SETUP_RETRY if self.established.is_none() => {
                ctx.stats.count("source.setup_retry");
                self.setup_retries += 1;
                if self.multihomed() && self.setup_retries >= SETUP_RETRIES_PER_PROVIDER {
                    self.fail_over(ctx);
                }
                self.send_key_setup(ctx);
            }
            TOKEN_LIVENESS => {
                // A window with real offered traffic and zero
                // authenticated replies means the provider went dark
                // under us: report it and steer to the fallback.
                if self.path_alive && self.liveness_tx >= LIVENESS_MIN_TX && self.liveness_rx == 0 {
                    self.fail_over(ctx);
                }
                self.liveness_tx = 0;
                self.liveness_rx = 0;
                ctx.set_timer(LIVENESS_INTERVAL, TOKEN_LIVENESS);
            }
            _ => {}
        }
    }

    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        {
            let Ok(parsed) = parse_shim(&frame) else {
                ctx.recycle(frame);
                return;
            };
            match parsed.shim.shim_type {
                ShimType::KeyReply => self.handle_key_reply(ctx, parsed.payload),
                ShimType::Return => self.handle_return(ctx, &parsed.shim, parsed.payload),
                _ => {}
            }
        }
        ctx.recycle(frame);
    }
}

/// Per-session state on the neutralized destination.
struct ServerSession {
    /// Record channel (responder direction).
    session: E2eSession,
    /// The neutralizer that forwarded this session's latest data packet
    /// (stamped into the shim's address block, §3.5): return traffic goes
    /// back through the provider that is demonstrably alive, so replies
    /// follow the initiator's failover without any extra signalling.
    return_via: Ipv4Addr,
}

/// The neutralized destination: a customer inside the neutral domain
/// holding the end-to-end private key published in its `NEUT` record.
pub struct NeutralizedServerNode {
    addr: Ipv4Addr,
    /// Default entry point for return traffic (the primary anycast
    /// address), used until a data packet stamps a serving provider.
    neutralizer: Ipv4Addr,
    keypair: RsaKeypair,
    echo: bool,
    /// Record channels per (initiator, nonce): responder direction.
    sessions: HashMap<(u32, u64), ServerSession>,
    /// App frames delivered.
    pub rx_frames: u64,
}

impl NeutralizedServerNode {
    /// Builds the destination stack.
    pub fn new(addr: Ipv4Addr, neutralizer: Ipv4Addr, keypair: RsaKeypair, echo: bool) -> Self {
        NeutralizedServerNode {
            addr,
            neutralizer,
            keypair,
            echo,
            sessions: HashMap::new(),
            rx_frames: 0,
        }
    }

    fn echo_reply(&mut self, ctx: &mut Context, initiator: Ipv4Addr, nonce: u64, app_frame: &[u8]) {
        let entry = self
            .sessions
            .get_mut(&(initiator.to_u32(), nonce))
            .expect("session exists for delivered frame");
        let inner = InnerPayload::data(app_frame.to_vec());
        let msg = TransportMsg::Record(entry.session.seal_record(&inner.to_bytes()));
        let return_via = entry.return_via;
        // §3.2 return path: the pre-anonymization packet carries the
        // initiator in plaintext; the neutralizer seals our address and
        // hides us behind the anycast.
        let shim = ShimRepr {
            shim_type: ShimType::Return,
            flags: 0,
            nonce,
            addr_block: ShimRepr::plain_addr_block(initiator),
            stamp: None,
        };
        if let Some(pkt) = pooled_shim(ctx, self.addr, return_via, 0, &shim, &msg.to_bytes()) {
            ctx.send(0, pkt);
        }
    }
}

impl Node for NeutralizedServerNode {
    fn on_packet(&mut self, ctx: &mut Context, _iface: IfaceId, frame: FrameBuf) {
        self.receive(ctx, &frame);
        ctx.recycle(frame);
    }
}

impl NeutralizedServerNode {
    fn receive(&mut self, ctx: &mut Context, frame: &FrameBuf) {
        let Ok(parsed) = parse_shim(frame) else {
            return;
        };
        if parsed.shim.shim_type != ShimType::Data {
            return;
        }
        let initiator = parsed.ip.src;
        let nonce = parsed.shim.nonce;
        // The forwarding neutralizer stamped its own service address into
        // the data shim's address block; an all-zero block (older or
        // hand-built frames) falls back to the configured primary.
        let stamped = ShimRepr::addr_from_plain_block(&parsed.shim.addr_block);
        let return_via = if stamped.to_u32() == 0 {
            self.neutralizer
        } else {
            stamped
        };
        let plain = match TransportMsg::from_bytes(parsed.payload) {
            Ok(TransportMsg::Envelope(env)) => {
                let Ok((plain, session_key)) = e2e::open(&self.keypair.private, &env) else {
                    ctx.stats.count("server.envelope_bad");
                    return;
                };
                // The source repeats envelopes until a reply confirms the
                // channel; keep the existing session so the responder's
                // record nonces never restart (CTR nonce reuse).
                let entry = self
                    .sessions
                    .entry((initiator.to_u32(), nonce))
                    .or_insert_with(|| ServerSession {
                        session: E2eSession::new(&record_channel_key(&session_key), false),
                        return_via,
                    });
                entry.return_via = return_via;
                plain
            }
            Ok(TransportMsg::Record(rec)) => {
                let Some(entry) = self.sessions.get_mut(&(initiator.to_u32(), nonce)) else {
                    ctx.stats.count("server.record_no_session");
                    return;
                };
                let Ok(plain) = entry.session.open_record(&rec) else {
                    ctx.stats.count("server.record_auth_fail");
                    return;
                };
                // Replies chase the provider that forwarded the latest
                // authenticated packet — the §3.5 failover contract.
                entry.return_via = return_via;
                plain
            }
            Err(_) => {
                ctx.stats.count("server.transport_bad");
                return;
            }
        };
        let Ok(inner) = InnerPayload::from_bytes(&plain) else {
            return;
        };
        let Some((flow, sent, data)) = decode_app_frame(&inner.app) else {
            return;
        };
        self.rx_frames += 1;
        ctx.stats
            .flow_rx(flow, data.len(), sent, ctx.now, is_ce(frame));
        if self.echo {
            self.echo_reply(ctx, initiator, nonce, &inner.app);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn_core::app::NullApp;
    use nn_netsim::{LinkProfile, Simulator, SinkNode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    /// A lost KeySetup/KeyReply must not stall the source forever: with
    /// a peer that never answers, the setup packet is retransmitted on a
    /// timer until a reply arrives.
    #[test]
    fn key_setup_is_retransmitted_until_established() {
        let mut rng = StdRng::seed_from_u64(5);
        let kp = nn_crypto::generate_keypair(&mut rng, 320);
        let mut sim = Simulator::new(9);
        let src = sim.add_node(
            "src",
            Box::new(NeutralizedSourceNode::new(
                Ipv4Addr::new(203, 0, 113, 10),
                Bootstrap {
                    dest: Ipv4Addr::new(10, 7, 0, 99),
                    neutralizers: vec![Ipv4Addr::new(198, 18, 0, 1)],
                    dest_pubkey: kp.public,
                },
                0,
                320,
                "flow",
                Box::new(NullApp),
            )),
        );
        // The peer swallows everything: no KeyReply ever comes back.
        let sink = sim.add_node("blackhole", Box::new(SinkNode::new()));
        sim.connect_sym(
            src,
            sink,
            LinkProfile::new(10_000_000, Duration::from_millis(2)),
        );
        sim.run_until(nn_netsim::SimTime::from_secs(1));
        let rx = sim.node_ref::<SinkNode>(sink).unwrap().rx_frames;
        assert!(rx >= 3, "initial setup plus retries expected, got {rx}");
        assert!(sim.stats().counter("source.setup_retry") >= 2);
    }

    #[test]
    fn app_frame_roundtrip() {
        let frame = encode_app_frame("voip", SimTime::from_millis(250), b"rtp payload");
        let (flow, sent, data) = decode_app_frame(&frame).unwrap();
        assert_eq!(flow, "voip");
        assert_eq!(sent, SimTime::from_millis(250));
        assert_eq!(data, b"rtp payload");
    }

    #[test]
    fn app_frame_malformed_rejected() {
        assert!(decode_app_frame(&[]).is_none());
        assert!(decode_app_frame(&[10, b'a', b'b']).is_none());
        // Non-UTF8 flow name.
        let mut frame = encode_app_frame("ab", SimTime::ZERO, b"");
        frame[1] = 0xff;
        assert!(decode_app_frame(&frame).is_none());
    }
}
