//! The live workloads: real `Node`/`Hub` runtimes on loopback UDP, driven
//! open loop by one generator/collector thread.
//!
//! Every live workload is two phases on two freshly built fleets:
//!
//! - `lat`: low rate under the emulated RTT with the wiretap listed as a
//!   peer → latency in RTT units, frames and bytes per ADU;
//! - `cpu`: high rate, no wiretap, no registry → CPU per ADU of the
//!   untraced program.
//!
//! The generator publishes on a fixed tick schedule that never looks at
//! how the system is doing, and every ADU's latency counts from the tick it
//! was *due*, so a stall shows up as latency rather than as a lighter load.

use crate::cpu::OwnThreads;
use crate::payload::{check_hub_payload, check_node_payload, hub_text, node_payload};
use crate::spec::{LiveSpec, Phase, Shape, DRAIN_MS, HUB_SEND_COUNT, ONE_WAY_MS, RTT_MS};
use crate::stats::{median, median_ratio_of_deltas, quantile, Windows};
use crate::tap::{Kind, Sighting, Tap, TapSnapshot};
use crate::trace::Span;
use crate::{Clock, Outcome};
use bytes::Bytes;
use netsim::{GroupId, SimDuration, SimTime};
use obs::MetricsRegistry;
use srm::agent::Delivery;
use srm::{PageId, SourceId, SrmAgent, SrmConfig};
use srm_transport::{
    ChaosPlan, GroupSpec, Hub, HubHandle, HubOptions, HubStats, Mode, Node, NodeHandle,
    NodeOptions, TransportStats,
};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

const RTT_NS: f64 = (RTT_MS * 1_000_000) as f64;
const WINDOW_NS: u64 = 1_000_000_000;

/// Latency of one delivery in RTT units, from the time the ADU was *due*
/// (not from when the generator got round to publishing it).
pub fn latency_rtt(due_ns: u64, delivered_ns: u64) -> f64 {
    delivered_ns.saturating_sub(due_ns) as f64 / RTT_NS
}

/// How many ADUs a publisher owes in tick `k`: the schedule is
/// `floor(k·x + φ)` ADUs due by the start of tick `k`, with `x` ADUs per
/// tick and `φ ∈ [0, 1)` staggering publishers so they do not all fire on
/// the same tick.
pub fn due_in_tick(k: u64, per_tick: f64, stagger: f64) -> u32 {
    let upto = |k: u64| (k as f64 * per_tick + stagger).floor();
    (upto(k + 1) - upto(k)) as u32
}

#[derive(Clone, Copy)]
enum PubKind {
    /// Publishes through `NodeHandle::exec` on this member.
    Node(usize),
    /// Publishes through `HubHandle::send`.
    Hub,
}

/// One publisher's ledger: every ADU it was asked to publish, by sequence
/// number, and which receivers have delivered it.
struct Publisher {
    kind: PubKind,
    group: usize,
    source: u64,
    stagger: f64,
    /// Hub only: ADUs owed but not yet a full `send` batch.
    carry: u32,
    /// Receivers that must deliver each ADU, as member bits.
    want: u8,
    due: Vec<u64>,
    seen: Vec<u8>,
}

struct Member {
    handle: NodeHandle,
    group: usize,
    bit: u8,
    source: u64,
    /// Destinations per multicast (peers incl. the tap).
    fanout: u64,
    /// Does any other publisher in its group feed it?
    expects: bool,
    reg: Option<MetricsRegistry>,
    last_poll_ns: u64,
}

struct Group {
    id: u32,
    page: PageId,
    pubs: Vec<usize>,
    /// ADUs node members published here (what the hub must deliver).
    node_published: u64,
}

/// What the collectors count besides the ledger.
#[derive(Default)]
struct Tally {
    published: u64,
    refused: u64,
    duplicates: u64,
    corrupt: u64,
    stray: u64,
    /// Receiver bits still owed across all ADUs.
    outstanding: u64,
    deliveries: u64,
    via_repair: u64,
}

/// Per-ADU observations kept only in a traced lat phase.
#[derive(Default)]
struct PathLog {
    /// (publisher, first seq, count, exec start, exec end)
    publishes: Vec<(usize, u64, u32, u64, u64)>,
    /// (publisher, seq, member, time, via repair)
    delivers: Vec<(usize, u64, usize, u64, bool)>,
}

/// A running system under test plus its ledger.
struct Fleet {
    members: Vec<Member>,
    groups: Vec<Group>,
    pubs: Vec<Publisher>,
    hub: Option<HubHandle>,
    hub_fanout: u64,
    payload: usize,
    seed: u64,
    /// When construction began; node clocks (and so loss windows) start
    /// within a millisecond of it.
    spawned_ns: u64,
    tally: Tally,
    path: Option<PathLog>,
    hub_send_us: Vec<f64>,
}

/// What is left of a fleet after shutdown.
struct FleetFinal {
    /// Multicasts that reached a fan-out (what a tap peer must have seen).
    multicasts: u64,
    /// Multicasts the agents counted beyond that: sent in the instant
    /// between the last look at the counters and the stop (a tap peer may
    /// have seen them) or never released from the delay queue.
    late: u64,
    accounted: bool,
    notes: Vec<String>,
    stats: Vec<TransportStats>,
    hub_stats: Option<HubStats>,
    regs: Vec<MetricsRegistry>,
    tally: Tally,
    path: PathLog,
    hub_send_us: Vec<f64>,
    /// `(group id, source)` of every publisher, in ledger order.
    pub_names: Vec<(u32, u64)>,
    /// Members per group, the hub's included.
    group_size: f64,
    has_hub: bool,
}

fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How long after a fleet is spawned its phase starts: room for set-up and
/// the first ADUs, which therefore never meet the seeded loss.
const PHASE_STARTS_AFTER_NS: u64 = 300_000_000;

/// The chaos every sending node runs: the emulated path delay throughout,
/// and the seeded loss as a burst covering exactly the phase. Loss ends
/// with the phase so that the drain that follows terminates: Bernoulli loss
/// hits requests and repairs too, each failed recovery round quadruples the
/// next request timer, and under never-ending loss some recovery is always
/// more than any fixed deadline away.
fn chaos_plan(phase: &Phase, phase_secs: f64) -> Option<ChaosPlan> {
    let mut plan = ChaosPlan::new();
    if phase.delay {
        plan = plan.reorder(1.0, SimDuration::from_millis(ONE_WAY_MS));
    }
    if phase.loss > 0.0 {
        let start = SimTime::from_nanos(PHASE_STARTS_AFTER_NS);
        let end = SimTime::from_nanos(PHASE_STARTS_AFTER_NS + (phase_secs * 1e9) as u64);
        plan = plan.loss_burst(phase.loss, start, end);
    }
    (!plan.is_noop()).then_some(plan)
}

fn bind() -> io::Result<(UdpSocket, SocketAddr)> {
    let s = UdpSocket::bind("127.0.0.1:0")?;
    let a = s.local_addr()?;
    Ok((s, a))
}

/// How to build a fleet.
struct Build<'a> {
    /// Whose configuration (delay, loss) the runtimes get.
    phase: &'a Phase,
    /// How long the phase will run (the seeded loss lasts exactly that).
    secs: f64,
    seed: u64,
    /// Appended to every peer list.
    tap: Option<SocketAddr>,
    /// Attach a registry per node and one for the hub.
    metrics: bool,
    /// Keep per-ADU observations.
    path: bool,
}

impl Fleet {
    /// Construct every runtime of `spec`.
    fn build(spec: &LiveSpec, b: Build<'_>, clock: &Clock) -> io::Result<Fleet> {
        let Build {
            phase,
            secs,
            seed,
            tap,
            metrics,
            path,
        } = b;
        let mut f = Fleet {
            members: Vec::new(),
            groups: Vec::new(),
            pubs: Vec::new(),
            hub: None,
            hub_fanout: 0,
            payload: spec.payload,
            seed,
            spawned_ns: clock.now_ns(),
            tally: Tally::default(),
            path: path.then(PathLog::default),
            hub_send_us: Vec::new(),
        };
        let chaos = chaos_plan(phase, secs);
        let one_way = SimDuration::from_millis(ONE_WAY_MS);
        // (group index, member id, socket, peers) for every node to spawn.
        let mut plan: Vec<(usize, u64, UdpSocket, Vec<SocketAddr>, usize)> = Vec::new();
        match spec.shape {
            Shape::Mesh { n, publishers } => {
                let socks: Vec<_> = (0..n).map(|_| bind()).collect::<io::Result<_>>()?;
                let page = PageId::new(SourceId(1), 0);
                f.groups.push(Group {
                    id: 1,
                    page,
                    pubs: Vec::new(),
                    node_published: 0,
                });
                let addrs: Vec<SocketAddr> = socks.iter().map(|s| s.1).collect();
                for (i, (sock, addr)) in socks.into_iter().enumerate() {
                    let peers = addrs
                        .iter()
                        .copied()
                        .filter(|a| *a != addr)
                        .chain(tap)
                        .collect();
                    plan.push((0, i as u64 + 1, sock, peers, n));
                }
                for p in 0..publishers {
                    f.groups[0].pubs.push(f.pubs.len());
                    f.pubs.push(Publisher::new(
                        PubKind::Node(p),
                        0,
                        p as u64 + 1,
                        p,
                        publishers,
                    ));
                }
            }
            Shape::HubGroups { groups, shards } => {
                let (hub_sock, hub_addr) = bind()?;
                let reg = metrics.then(MetricsRegistry::new);
                let hub = Hub::spawn_on(
                    hub_sock,
                    HubOptions {
                        shards,
                        seed: mix(seed, 0x4855),
                        metrics: reg,
                        ..HubOptions::default()
                    },
                )?;
                f.hub_fanout = 2 + u64::from(tap.is_some());
                for g in 0..groups {
                    let gi = g as usize;
                    let (a_sock, a_addr) = bind()?;
                    let (b_sock, b_addr) = bind()?;
                    hub.create(
                        GroupSpec {
                            group: g + 1,
                            peers: [a_addr, b_addr].into_iter().chain(tap).collect(),
                            id: 1,
                            members: 3,
                            rate: None,
                            burst: None,
                            // No seeded distances, here or on the nodes: see below.
                            dist_ms: None,
                        },
                        false,
                    )
                    .map_err(io::Error::other)?;
                    let page = PageId::new(SourceId(1), 0);
                    f.groups.push(Group {
                        id: g + 1,
                        page,
                        pubs: Vec::new(),
                        node_published: 0,
                    });
                    plan.push((
                        gi,
                        2,
                        a_sock,
                        [hub_addr, b_addr].into_iter().chain(tap).collect(),
                        3,
                    ));
                    plan.push((
                        gi,
                        3,
                        b_sock,
                        [hub_addr, a_addr].into_iter().chain(tap).collect(),
                        3,
                    ));
                    let first_member = plan.len() - 2;
                    let slots = 3 * groups as usize;
                    for (k, kind) in [
                        PubKind::Hub,
                        PubKind::Node(first_member),
                        PubKind::Node(first_member + 1),
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        f.groups[gi].pubs.push(f.pubs.len());
                        f.pubs
                            .push(Publisher::new(kind, gi, k as u64 + 1, 3 * gi + k, slots));
                    }
                }
                f.hub = Some(hub);
            }
        }
        for (group, id, sock, peers, size) in plan {
            let g = &f.groups[group];
            // Distances start at `default_distance` = the emulated one-way
            // delay and are then learned from session messages. They are
            // *not* seeded through `initial_distances`: a seeded peer is
            // echoed in session messages before it has been heard from, with
            // a zero timestamp, and the receiver's estimate then comes out as
            // the difference of the two members' uptimes — zero for whoever
            // started later, and a request timer drawn from a zero distance
            // re-fires forever inside the reactor's timer loop.
            // The default also stands in for an agent's distance to itself:
            // after repairing its *own* ADU it holds down for 3 x this, which
            // at the 1 s default means ignoring re-requests for 3 s.
            let cfg = SrmConfig {
                default_distance: one_way,
                ..SrmConfig::fixed(size)
            };
            let mut opts = NodeOptions::new(SourceId(id), GroupId(g.id), cfg);
            opts.seed = mix(seed, (u64::from(g.id) << 32) | id);
            opts.chaos = chaos.clone();
            let reg = metrics.then(MetricsRegistry::new);
            opts.metrics = reg.clone();
            let fanout = peers.len() as u64;
            let handle = Node::spawn_on(sock, Mode::Mesh { peers }, opts)?;
            let page = g.page;
            handle.exec(move |a, _| a.set_current_page(page));
            let in_group = f.members.iter().filter(|m| m.group == group).count();
            f.members.push(Member {
                handle,
                group,
                bit: 1 << in_group,
                source: id,
                fanout,
                expects: false,
                reg,
                last_poll_ns: 0,
            });
        }
        // Who must deliver whose ADUs: every node member of the publisher's
        // group except the publisher itself.
        for p in 0..f.pubs.len() {
            let (group, source) = (f.pubs[p].group, f.pubs[p].source);
            for m in f
                .members
                .iter_mut()
                .filter(|m| m.group == group && m.source != source)
            {
                f.pubs[p].want |= m.bit;
                m.expects = true;
            }
        }
        Ok(f)
    }

    /// Publish `n` ADUs from publisher `p`, all due at `due_ns`.
    fn publish(&mut self, p: usize, n: u32, due_ns: u64, clock: &Clock) {
        let pubr = &self.pubs[p];
        let first = pubr.due.len() as u64;
        let group = &self.groups[pubr.group];
        let t0 = clock.now_ns();
        let ok = match pubr.kind {
            PubKind::Node(m) => {
                let (len, source, seed, page) = (self.payload, pubr.source, self.seed, group.page);
                let payloads: Vec<Bytes> = (0..u64::from(n))
                    .map(|i| node_payload(len, due_ns, first + i, source, seed))
                    .collect();
                let last = self.members[m]
                    .handle
                    .exec(move |a, d| payloads.into_iter().map(|p| a.send_data(d, page, p)).last());
                // The agent numbers ADUs itself; the ledger relies on it
                // agreeing with the order they were handed over.
                last.is_some_and(|name| name.seq.0 == first + u64::from(n) - 1)
            }
            PubKind::Hub => {
                let text = hub_text(self.payload, due_ns, group.id);
                let hub = self.hub.as_ref().expect("hub publisher has a hub");
                let sent = hub.send(group.id, &text, n).is_ok();
                self.hub_send_us
                    .push(clock.now_ns().saturating_sub(t0) as f64 / 1e3);
                sent
            }
        };
        if !ok {
            self.tally.refused += u64::from(n);
            return;
        }
        if let Some(log) = self.path.as_mut() {
            log.publishes.push((p, first, n, t0, clock.now_ns()));
        }
        let pubr = &mut self.pubs[p];
        for _ in 0..n {
            pubr.due.push(due_ns);
            pubr.seen.push(0);
        }
        self.tally.published += u64::from(n);
        self.tally.outstanding += u64::from(n) * u64::from(pubr.want.count_ones());
        if matches!(pubr.kind, PubKind::Node(_)) {
            self.groups[pubr.group].node_published += u64::from(n);
        }
    }

    /// Drain member `m`'s deliveries into the ledger; node-published ones
    /// are handed to `on_latency(due_ns, delivered_ns)`.
    fn poll(&mut self, m: usize, clock: &Clock, on_latency: &mut dyn FnMut(u64, u64)) {
        let delivered: Vec<Delivery> = self.members[m].handle.take_delivered();
        let t = clock.now_ns();
        self.members[m].last_poll_ns = t;
        let (group, bit) = (self.members[m].group, self.members[m].bit);
        for d in delivered {
            let g = &self.groups[group];
            let Some(&p) = g
                .pubs
                .iter()
                .find(|&&p| self.pubs[p].source == d.name.source.0)
            else {
                self.tally.stray += 1;
                continue;
            };
            let pubr = &mut self.pubs[p];
            let seq = d.name.seq.0 as usize;
            let carried = match pubr.kind {
                PubKind::Node(_) => check_node_payload(&d.payload, pubr.source)
                    .filter(|&(_, s)| s == d.name.seq.0)
                    .map(|(due, _)| due),
                PubKind::Hub => check_hub_payload(&d.payload, g.id),
            };
            if d.name.page != g.page || seq >= pubr.due.len() {
                self.tally.stray += 1;
                continue;
            }
            if carried != Some(pubr.due[seq]) {
                self.tally.corrupt += 1;
                continue;
            }
            if pubr.seen[seq] & bit != 0 {
                self.tally.duplicates += 1;
                continue;
            }
            pubr.seen[seq] |= bit;
            self.tally.outstanding -= 1;
            self.tally.deliveries += 1;
            self.tally.via_repair += u64::from(d.via_repair);
            if matches!(pubr.kind, PubKind::Node(_)) {
                on_latency(pubr.due[seq], t);
            }
            if let Some(log) = self.path.as_mut() {
                log.delivers.push((p, d.name.seq.0, m, t, d.via_repair));
            }
        }
    }

    /// Node-published ADUs the hub has not delivered yet, over all groups.
    fn hub_shortfall(&self) -> u64 {
        let Some(hub) = &self.hub else { return 0 };
        let stats = hub.stats();
        self.groups
            .iter()
            .map(|g| {
                let got = stats
                    .groups
                    .iter()
                    .find(|s| s.group == g.id)
                    .map_or(0, |s| s.delivered);
                g.node_published.saturating_sub(got)
            })
            .sum()
    }

    /// Poll until nothing is owed (or `deadline_ns`), nudging every node
    /// publisher to announce its state each 100 ms so that a lost *last*
    /// ADU is noticed without waiting out a session interval.
    fn drain(
        &mut self,
        clock: &Clock,
        deadline_ns: u64,
        on_latency: &mut dyn FnMut(u64, u64),
    ) -> bool {
        let mut next_nudge = clock.now_ns();
        loop {
            for m in 0..self.members.len() {
                if self.members[m].expects {
                    self.poll(m, clock, on_latency);
                }
            }
            if self.tally.outstanding == 0 && self.hub_shortfall() == 0 {
                return true;
            }
            let now = clock.now_ns();
            if now >= deadline_ns {
                return false;
            }
            if now >= next_nudge {
                next_nudge = now + 100_000_000;
                for p in &self.pubs {
                    if let PubKind::Node(m) = p.kind {
                        self.members[m].handle.exec(|a, d| a.send_session_now(d));
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// One ADU from every publisher, delivered everywhere: the end of
    /// set-up, and the warm-up before a phase.
    fn first_adus(&mut self, clock: &Clock) -> bool {
        let now = clock.now_ns();
        for p in 0..self.pubs.len() {
            self.publish(p, 1, now, clock);
        }
        self.drain(clock, now + 5_000_000_000, &mut |_, _| {})
    }

    /// ADUs that some receiver (or the hub) still owes.
    fn missing(&self) -> u64 {
        let adus: u64 = self
            .pubs
            .iter()
            .map(|p| p.seen.iter().filter(|&&s| s != p.want).count() as u64)
            .sum();
        adus + self.hub_shortfall()
    }

    /// Who still owes what, one line per publisher and per short hub group:
    /// what a failed run prints so that the failure can be told apart
    /// (one receiver or all, the tail of a stream or its middle).
    fn missing_report(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for p in &self.pubs {
            let owed: Vec<(usize, u8)> = (p.seen.iter().enumerate())
                .filter(|(_, &s)| s != p.want)
                .map(|(seq, &s)| (seq, p.want & !s))
                .collect();
            if let (Some(first), Some(last)) = (owed.first(), owed.last()) {
                lines.push(format!(
                    "group {} source {} ({} published): {} ADUs owed, seq {}..={}, receiver bits {:#b}",
                    self.groups[p.group].id,
                    p.source,
                    p.seen.len(),
                    owed.len(),
                    first.0,
                    last.0,
                    owed.iter().fold(0, |acc, o| acc | o.1),
                ));
            }
        }
        if let Some(hub) = &self.hub {
            let stats = hub.stats();
            for g in &self.groups {
                let got =
                    (stats.groups.iter().find(|s| s.group == g.id)).map_or(0, |s| s.delivered);
                if got < g.node_published {
                    lines.push(format!(
                        "group {}: hub delivered {got} of {} node-published ADUs (hub inbound overflow {})",
                        g.id, g.node_published, stats.inbound_overflow
                    ));
                }
            }
        }
        let overflow: u64 = (self.members.iter())
            .map(|m| m.handle.stats().inbound_overflow)
            .sum();
        if !lines.is_empty() {
            lines.push(format!("nodes' inbound overflow {overflow}"));
        }
        lines
    }

    /// Stop everything (nodes in parallel: each waits out a recv poll) and
    /// check the accounting identities that only hold at rest.
    fn shutdown(self) -> FleetFinal {
        let mut notes = Vec::new();
        let mut accounted = true;
        let mut multicasts = 0u64;
        // Let held-back frames leave the delay queues before counters are
        // read: a frame still queued was counted by its agent, not by the
        // transport.
        std::thread::sleep(Duration::from_millis(2 * ONE_WAY_MS));
        let hub_stats = self.hub.as_ref().map(|hub| {
            let mid = hub.stats();
            for g in &self.groups {
                if let Err(e) = hub.drain(g.id) {
                    accounted = false;
                    notes.push(format!("hub drain of group {}: {e}", g.id));
                }
            }
            let end = hub.stats();
            if end.frames_attempted != end.frames_sent + end.send_errors || end.send_errors != 0 {
                accounted = false;
                notes.push(format!("hub frames not accounted: {end:?}"));
            }
            multicasts += end.frames_attempted / self.hub_fanout.max(1);
            hub.shutdown();
            HubStats {
                groups: mid.groups,
                ..end
            }
        });
        let pub_names = self
            .pubs
            .iter()
            .map(|p| (self.groups[p.group].id, p.source))
            .collect();
        let has_hub = self.hub.is_some();
        let group_size = (self.members.len() / self.groups.len()) as f64 + f64::from(has_hub);
        let fanouts: Vec<u64> = self.members.iter().map(|m| m.fanout).collect();
        let regs: Vec<MetricsRegistry> =
            self.members.iter().filter_map(|m| m.reg.clone()).collect();
        // Each node's counters are read right before it stops, so that next
        // to nothing is sent in between.
        let (stats, agents): (Vec<TransportStats>, Vec<SrmAgent>) = std::thread::scope(|s| {
            let joins: Vec<_> = self
                .members
                .into_iter()
                .map(|m| s.spawn(move || (settled(&m.handle), m.handle.shutdown())))
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("node shuts down cleanly"))
                .unzip()
        });
        let mut late = 0u64;
        for ((st, fanout), agent) in stats.iter().zip(&fanouts).zip(&agents) {
            let reached = st.frames_attempted / fanout;
            multicasts += reached;
            let m = &agent.metrics;
            let sent = m.data_sent + m.requests_sent + m.repairs_sent + m.session_sent;
            // Every multicast an agent counted either died in chaos,
            // reached the fan-out, or (a handful at most) left after the
            // counters were read or was still held back when the reactor
            // stopped.
            let explained = reached + st.chaos_dropped;
            late += sent.saturating_sub(explained);
            if !st.frames_accounted()
                || st.send_errors != 0
                || explained > sent
                || sent - explained > 8
            {
                accounted = false;
                notes.push(format!(
                    "member {} frames not accounted: agent sent {sent}, reached fan-out {reached}, {st:?}",
                    agent.id.0
                ));
            }
        }
        FleetFinal {
            multicasts,
            late,
            accounted,
            notes,
            stats,
            hub_stats,
            regs,
            tally: self.tally,
            path: self.path.unwrap_or_default(),
            hub_send_us: self.hub_send_us,
            pub_names,
            group_size,
            has_hub,
        }
    }
}

/// A node's counters once no fan-out is half done: a snapshot taken while
/// the reactor is between `attempted` and `sent` for a frame (a session
/// message, a late repair) does not add up, one taken a moment later does.
fn settled(handle: &NodeHandle) -> TransportStats {
    let mut st = handle.stats();
    for _ in 0..500 {
        if st.frames_accounted() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        st = handle.stats();
    }
    st
}

impl Publisher {
    fn new(kind: PubKind, group: usize, source: u64, slot: usize, slots: usize) -> Publisher {
        Publisher {
            kind,
            group,
            source,
            stagger: slot as f64 / slots as f64,
            carry: 0,
            want: 0,
            due: Vec::new(),
            seen: Vec::new(),
        }
    }
}

/// What one phase measured.
struct PhaseOut {
    published: u64,
    /// Latency (RTT units) of node-published ADUs, windowed by due time.
    lat: Windows,
    /// `(system CPU ns, ADUs published)` at each window boundary.
    cpu: Vec<(f64, f64)>,
    send_lag_us: Vec<f64>,
    poll_gap_us: Vec<f64>,
    drained: bool,
    /// How long after the last tick the last owed ADU arrived.
    drain_ms: f64,
}

impl PhaseOut {
    fn cpu_us_per_adu(&self) -> f64 {
        median_ratio_of_deltas(&self.cpu).unwrap_or(f64::NAN) / 1e3
    }

    fn lag_p99_us(&self) -> f64 {
        quantile(&self.send_lag_us, 0.99).unwrap_or(0.0)
    }
}

/// Run one open-loop phase of `secs` seconds on `fleet`.
fn run_phase(
    fleet: &mut Fleet,
    phase: &Phase,
    secs: f64,
    clock: &Clock,
    own: &OwnThreads,
) -> PhaseOut {
    let tick_ns = phase.tick_us * 1_000;
    let ticks = ((secs * 1e9) as u64 / tick_ns).max(1);
    let per_tick = f64::from(phase.rate) * tick_ns as f64 / 1e9;
    let poll_every = (phase.poll_us / phase.tick_us).max(1);
    let windows = ((ticks * tick_ns) / WINDOW_NS).max(1);
    let ticks_per_window = ticks / windows;
    // Where the nodes' loss windows open (see `chaos_plan`).
    let t0 = (fleet.spawned_ns + PHASE_STARTS_AFTER_NS).max(clock.now_ns() + 2_000_000);
    let mut lat = Windows::new(t0, ticks_per_window * tick_ns, windows as usize);
    let (mut cpu, mut send_lag_us, mut poll_gap_us) = (Vec::new(), Vec::new(), Vec::new());
    let before = fleet.tally.published;
    let cpu_point = |published: u64| (own.sample().system_ns() as f64, published as f64);
    for k in 0..ticks {
        let due = t0 + k * tick_ns;
        clock.sleep_until(due);
        send_lag_us.push(clock.now_ns().saturating_sub(due) as f64 / 1e3);
        if k % ticks_per_window == 0 && k / ticks_per_window < windows {
            cpu.push(cpu_point(fleet.tally.published - before));
        }
        for p in 0..fleet.pubs.len() {
            let owed = due_in_tick(k, per_tick, fleet.pubs[p].stagger);
            let n = match fleet.pubs[p].kind {
                PubKind::Node(_) => owed,
                // The hub publishes in fixed `send` batches.
                PubKind::Hub => {
                    fleet.pubs[p].carry += owed;
                    if fleet.pubs[p].carry >= HUB_SEND_COUNT {
                        fleet.pubs[p].carry -= HUB_SEND_COUNT;
                        HUB_SEND_COUNT
                    } else {
                        0
                    }
                }
            };
            if n > 0 {
                fleet.publish(p, n, due, clock);
            }
        }
        for m in 0..fleet.members.len() {
            if fleet.members[m].expects && k % poll_every == m as u64 % poll_every {
                let last = fleet.members[m].last_poll_ns;
                fleet.poll(m, clock, &mut |due, t| lat.push(due, latency_rtt(due, t)));
                if last >= t0 {
                    poll_gap_us.push((fleet.members[m].last_poll_ns - last) as f64 / 1e3);
                }
            }
        }
    }
    cpu.push(cpu_point(fleet.tally.published - before));
    // The allowance counts from when the generator really stopped: after a
    // stall it publishes late, and those ADUs get the same time as any other.
    let ticked_ns = clock.now_ns();
    let end = ticked_ns.max(t0 + ticks * tick_ns);
    let drained = fleet.drain(clock, end + DRAIN_MS * 1_000_000, &mut |due, t| {
        lat.push(due, latency_rtt(due, t))
    });
    PhaseOut {
        published: fleet.tally.published - before,
        lat,
        cpu,
        send_lag_us,
        poll_gap_us,
        drained,
        drain_ms: clock.now_ns().saturating_sub(ticked_ns) as f64 / 1e6,
    }
}

/// The frame mix a traced cpu phase put on the wire, per published ADU.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameMix {
    /// Frames per ADU by [`Kind`].
    pub per_adu: [f64; 5],
    /// Receivers of each multicast (the tap excluded).
    pub receivers: f64,
    /// Share of receptions that happen behind the hub's demux.
    pub hub_share: f64,
    /// Mean datagram size, for the batch replay.
    pub frame_bytes: usize,
}

/// Knobs the smoke run shortens.
#[derive(Clone, Copy)]
pub struct LiveKnobs {
    /// Seconds of measurement (half per phase).
    pub seconds: f64,
    /// Timed set-ups.
    pub setups: usize,
}

/// One phase run to completion on its own fleet.
struct Measured {
    out: PhaseOut,
    /// What the wiretap counted between phase start and the end of the
    /// drain (zero without a tap).
    wire: TapSnapshot,
    fin: FleetFinal,
}

/// Build a fleet and bring it up; returns it with the set-up time.
fn bring_up(
    o: &mut Outcome,
    what: &str,
    spec: &LiveSpec,
    b: Build<'_>,
    clock: &Clock,
) -> io::Result<(Fleet, f64)> {
    let t = clock.now_ns();
    let mut fleet = Fleet::build(spec, b, clock)?;
    if !fleet.first_adus(clock) {
        o.correct = false;
        o.notes.push(format!("{what}: first ADUs never arrived"));
    }
    Ok((fleet, clock.now_ns().saturating_sub(t) as f64 / 1e9))
}

/// What a phase runs against besides its fleet.
struct Rig<'a> {
    clock: &'a Clock,
    own: &'a OwnThreads,
    /// Counts this phase's frames when the fleet lists it as a peer.
    tap: Option<&'a Tap>,
}

/// Run `phase` on `fleet`, book its failures, and shut it down.
fn measure(
    o: &mut Outcome,
    what: &str,
    mut fleet: Fleet,
    phase: &Phase,
    secs: f64,
    rig: Rig<'_>,
) -> Measured {
    let snap = || rig.tap.map(Tap::snapshot).unwrap_or_default();
    let before = snap();
    let out = run_phase(&mut fleet, phase, secs, rig.clock, rig.own);
    let wire = snap().since(&before);
    let missing = fleet.missing();
    let report = fleet.missing_report();
    let fin = fleet.shutdown();
    let t = &fin.tally;
    o.attempted += t.published + t.refused;
    o.failed += missing + t.refused + t.duplicates + t.corrupt + t.stray;
    if t.duplicates + t.corrupt + t.stray > 0 {
        o.correct = false;
        o.notes.push(format!(
            "{what}: {} duplicate, {} corrupt, {} stray deliveries",
            t.duplicates, t.corrupt, t.stray
        ));
    }
    if missing > 0 || t.refused > 0 || !out.drained {
        o.notes.push(format!(
            "{what}: {missing} ADUs missing {DRAIN_MS} ms after the phase, {} refused",
            t.refused
        ));
        o.notes
            .extend(report.iter().map(|n| format!("{what}: {n}")));
    }
    o.notes.push(format!(
        "{what}: drained {:.0} ms after the last tick",
        out.drain_ms
    ));
    o.correct &= fin.accounted;
    o.notes
        .extend(fin.notes.iter().map(|n| format!("{what}: {n}")));
    Measured { out, wire, fin }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(
    spec: &LiveSpec,
    seed: u64,
    knobs: LiveKnobs,
    clock: Clock,
) -> io::Result<Outcome> {
    let own = Arc::new(OwnThreads::default());
    own.register_current();
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let half = knobs.seconds / 2.0;

    // lat: repeated set-ups under the lat configuration; the last is kept.
    let tap = Tap::start(clock, Arc::clone(&own))?;
    let build = |seed| Build {
        phase: &spec.lat,
        secs: half,
        seed,
        tap: Some(tap.addr()),
        metrics: false,
        path: false,
    };
    let mut setups = Vec::new();
    let (mut expected_at_tap, mut late) = (0u64, 0u64);
    for i in 1..knobs.setups.max(1) {
        let (fleet, secs) = bring_up(&mut o, "set-up", spec, build(mix(seed, i as u64)), &clock)?;
        setups.push(secs);
        let fin = fleet.shutdown();
        expected_at_tap += fin.multicasts;
        late += fin.late;
        o.correct &= fin.accounted;
        o.notes
            .extend(fin.notes.iter().map(|n| format!("set-up: {n}")));
    }
    let (fleet, secs) = bring_up(&mut o, "lat", spec, build(mix(seed, 0)), &clock)?;
    setups.push(secs);
    let lat = measure(
        &mut o,
        "lat",
        fleet,
        &spec.lat,
        half,
        Rig {
            clock: &clock,
            own: &own,
            tap: Some(&tap),
        },
    );
    expected_at_tap += lat.fin.multicasts;
    late += lat.fin.late;
    // Everything is on the wire by now; give the tap thread time to read it.
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        if tap.snapshot().total_frames() >= expected_at_tap {
            break;
        }
    }
    let seen = tap.snapshot();
    drop(tap);
    let frames = seen.total_frames();
    if frames < expected_at_tap || frames - expected_at_tap > late || seen.undecodable != 0 {
        o.correct = false;
        o.notes.push(format!(
            "wiretap saw {} frames ({} undecodable), senders' counters say {expected_at_tap} and {late} more at most",
            seen.total_frames(),
            seen.undecodable
        ));
    }
    let windows = &lat.out.lat;
    let adus = lat.out.published.max(1) as f64;
    o.metrics
        .insert("setup_s", median(&setups).unwrap_or(f64::NAN));
    o.metrics.insert(
        "adu_p50_rtt",
        windows.median_of_quantile(0.50).unwrap_or(f64::NAN),
    );
    o.metrics.insert(
        "adu_p99_rtt",
        windows.median_of_quantile(0.99).unwrap_or(f64::NAN),
    );
    o.metrics
        .insert("frames_per_adu", lat.wire.total_frames() as f64 / adus);
    o.metrics
        .insert("wire_bytes_per_adu", lat.wire.total_bytes() as f64 / adus);

    // cpu: no wiretap, no registry, no recorder — the untraced program.
    let plain = Build {
        phase: &spec.cpu,
        secs: half,
        seed: mix(seed, 0xC9),
        tap: None,
        metrics: false,
        path: false,
    };
    let (fleet, _) = bring_up(&mut o, "cpu", spec, plain, &clock)?;
    let cpu = measure(
        &mut o,
        "cpu",
        fleet,
        &spec.cpu,
        half,
        Rig {
            clock: &clock,
            own: &own,
            tap: None,
        },
    );
    o.metrics.insert("cpu_us_per_adu", cpu.out.cpu_us_per_adu());
    let fmt = |v: Vec<f64>, scale: f64| {
        v.iter()
            .map(|x| format!("{:.2}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    o.notes.push(format!(
        "per 1-s window: p50 rtt [{}]",
        fmt(windows.quantiles(0.5), 1.0)
    ));
    o.notes.push(format!(
        "per 1-s window: p99 rtt [{}]",
        fmt(windows.quantiles(0.99), 1.0)
    ));
    o.notes.push(format!(
        "per 1-s window: cpu us/adu [{}]",
        fmt(crate::stats::ratios_of_deltas(&cpu.out.cpu), 1e-3)
    ));
    o.notes
        .push(format!("per set-up: ms [{}]", fmt(setups.clone(), 1e3)));
    o.notes.push(format!(
        "loadgen: lat send lag p99 {:.0} us, cpu send lag p99 {:.0} us, lat poll gap p99 {:.0} us; {} latency samples",
        lat.out.lag_p99_us(),
        cpu.out.lag_p99_us(),
        quantile(&lat.out.poll_gap_us, 0.99).unwrap_or(0.0),
        windows.len(),
    ));
    Ok(o)
}

/// One histogram merged over every node's registry snapshot.
fn merged(snaps: &[obs::MetricsSnapshot], name: &str) -> obs::LogHistogram {
    let mut h = obs::LogHistogram::new();
    for one in snaps.iter().filter_map(|s| s.hists.get(name)) {
        h.merge(one);
    }
    h
}

/// Turn the traced lat phase's observations into path spans and the
/// `recovery.*` metrics.
fn path_spans(
    fin: &FleetFinal,
    sightings: &[Sighting],
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Vec<Span> {
    // (group id, source, seq) -> first sighting per kind.
    let mut first: BTreeMap<(u32, u64, u64), [Option<u64>; 3]> = BTreeMap::new();
    let mut counts = [0u64; 3];
    for s in sightings {
        let slot = match s.kind {
            Kind::Data => 0,
            Kind::Request => 1,
            Kind::Repair => 2,
            _ => continue,
        };
        counts[slot] += 1;
        let e = first
            .entry((s.group, s.name.source.0, s.name.seq.0))
            .or_default();
        e[slot].get_or_insert(s.t_ns);
    }
    let key = |p: usize, seq: u64| {
        let (group, source) = fin.pub_names[p];
        (group, source, seq)
    };
    let adu = |p: usize, seq: u64| {
        let (g, s, q) = key(p, seq);
        format!("g{g}/s{s}/{q}")
    };
    let span = |name: &str, id: String, parent: Option<String>, a: u64, b: u64| Span {
        layer: "path".into(),
        name: name.into(),
        id,
        parent,
        start_ns: a,
        end_ns: b.max(a),
        calls: 1,
    };
    let mut spans = Vec::new();
    // When each ADU's `exec` started and returned.
    let mut published: BTreeMap<(u32, u64, u64), (u64, u64)> = BTreeMap::new();
    for &(p, first_seq, n, t0, t1) in &fin.path.publishes {
        for seq in first_seq..first_seq + u64::from(n) {
            let a = adu(p, seq);
            published.insert(key(p, seq), (t0, t1));
            spans.push(span("publish", format!("{a}/publish"), None, t0, t1));
            let seen = first.get(&key(p, seq)).copied().unwrap_or_default();
            let mut cause = (format!("{a}/publish"), t1);
            for (slot, name) in ["wire", "request", "repair"].into_iter().enumerate() {
                if let Some(t) = seen[slot] {
                    spans.push(span(
                        name,
                        format!("{a}/{name}"),
                        Some(cause.0.clone()),
                        cause.1,
                        t,
                    ));
                    cause = (format!("{a}/{name}"), t);
                }
            }
        }
    }
    let mut recovery = Vec::new();
    for &(p, seq, m, t, via_repair) in &fin.path.delivers {
        let a = adu(p, seq);
        let seen = first.get(&key(p, seq)).copied().unwrap_or_default();
        let (started, returned) = published.get(&key(p, seq)).copied().unwrap_or((t, t));
        let (cause, from) = match (via_repair, seen[2], seen[0]) {
            (true, Some(t_rep), _) => ("repair", t_rep),
            (_, _, Some(t_wire)) => ("wire", t_wire),
            _ => ("publish", returned),
        };
        spans.push(span(
            "deliver",
            format!("{a}/deliver/{m}"),
            Some(format!("{a}/{cause}")),
            from,
            t,
        ));
        if via_repair {
            // What the loss cost this receiver: its latency beyond the one
            // path delay the original would have taken.
            recovery.push(latency_rtt(started, t) - 0.5);
        }
    }
    // A loss episode is an ADU somebody had to ask for or resend.
    let losses = first
        .values()
        .filter(|s| s[1].is_some() || s[2].is_some())
        .count() as f64;
    // From when the data should have arrived (publish + one path delay) to
    // when the first request left its sender (its sighting − one delay).
    let request_delay: Vec<f64> = first
        .iter()
        .filter_map(|(k, s)| Some(latency_rtt(published.get(k)?.0, s[1]?) - 1.0))
        .collect();
    let per_loss = |n: u64| if losses > 0.0 { n as f64 / losses } else { 0.0 };
    metrics.insert("recovery.losses", losses);
    metrics.insert("recovery.p50_rtt", quantile(&recovery, 0.5).unwrap_or(0.0));
    metrics.insert("recovery.p90_rtt", quantile(&recovery, 0.9).unwrap_or(0.0));
    metrics.insert(
        "recovery.request_delay_p50_rtt",
        quantile(&request_delay, 0.5).unwrap_or(0.0),
    );
    metrics.insert("recovery.requests_per_loss", per_loss(counts[1]));
    metrics.insert("recovery.repairs_per_loss", per_loss(counts[2]));
    spans
}

/// The traced run: the same workload with the wiretap on in both phases
/// and a registry on every runtime; the cpu half is split into a traced and
/// an untraced stretch so that the tracing overhead is measured in-run.
pub fn run_traced(
    spec: &LiveSpec,
    seed: u64,
    knobs: LiveKnobs,
    clock: Clock,
) -> io::Result<Outcome> {
    let own = Arc::new(OwnThreads::default());
    own.register_current();
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let half = knobs.seconds / 2.0;
    let tap = Tap::start(clock, Arc::clone(&own))?;

    // lat, with per-ADU path records.
    tap.set_recording(true);
    let b = Build {
        phase: &spec.lat,
        secs: half,
        seed: mix(seed, 0),
        tap: Some(tap.addr()),
        metrics: true,
        path: true,
    };
    let (fleet, _) = bring_up(&mut o, "lat", spec, b, &clock)?;
    let lat = measure(
        &mut o,
        "lat",
        fleet,
        &spec.lat,
        half,
        Rig {
            clock: &clock,
            own: &own,
            tap: Some(&tap),
        },
    );
    tap.set_recording(false);
    std::thread::sleep(Duration::from_millis(20));
    let adus = lat.out.published.max(1) as f64;
    let per_adu = |w: &TapSnapshot, k: Kind, n: f64| w.frames[k as usize] as f64 / n;
    let m = &mut o.metrics;
    m.insert(
        "tap.frames_missed",
        lat.fin
            .multicasts
            .saturating_sub(tap.snapshot().total_frames()) as f64,
    );
    m.insert(
        "traffic.data_frames_per_adu",
        per_adu(&lat.wire, Kind::Data, adus),
    );
    m.insert(
        "traffic.session_frames_per_adu",
        per_adu(&lat.wire, Kind::Session, adus),
    );
    m.insert(
        "traffic.request_frames_per_adu",
        per_adu(&lat.wire, Kind::Request, adus),
    );
    m.insert(
        "traffic.repair_frames_per_adu",
        per_adu(&lat.wire, Kind::Repair, adus),
    );
    m.insert(
        "traffic.session_bytes_share",
        lat.wire.bytes[Kind::Session as usize] as f64 / lat.wire.total_bytes().max(1) as f64,
    );
    let t = &lat.fin.tally;
    m.insert(
        "recovery.via_repair_share",
        t.via_repair as f64 / t.deliveries.max(1) as f64,
    );
    m.insert("loadgen.send_lag_p99_us", lat.out.lag_p99_us());
    m.insert(
        "loadgen.poll_gap_p99_us",
        quantile(&lat.out.poll_gap_us, 0.99).unwrap_or(0.0),
    );
    if let Some(us) = median(&lat.fin.hub_send_us) {
        m.insert("hub.send_roundtrip_us", us);
    }

    // cpu, traced: wiretap peer + registries.
    let quarter = half / 2.0;
    let b = Build {
        phase: &spec.cpu,
        secs: quarter,
        seed: mix(seed, 0xC9),
        tap: Some(tap.addr()),
        metrics: true,
        path: false,
    };
    let (fleet, _) = bring_up(&mut o, "cpu (traced)", spec, b, &clock)?;
    let traced = measure(
        &mut o,
        "cpu (traced)",
        fleet,
        &spec.cpu,
        quarter,
        Rig {
            clock: &clock,
            own: &own,
            tap: Some(&tap),
        },
    );
    let sightings = tap.finish();
    let fin = &traced.fin;
    let cpu_adus = traced.out.published.max(1) as f64;
    o.mix = Some(FrameMix {
        per_adu: traced.wire.frames.map(|f| f as f64 / cpu_adus),
        // Every multicast reaches the rest of its group; with a hub member,
        // one reception in `group_size` happens behind the hub's demux.
        receivers: fin.group_size - 1.0,
        hub_share: if fin.has_hub {
            1.0 / fin.group_size
        } else {
            0.0
        },
        frame_bytes: (traced.wire.total_bytes() / traced.wire.total_frames().max(1)) as usize,
    });
    let m = &mut o.metrics;
    let snaps: Vec<obs::MetricsSnapshot> = fin.regs.iter().map(|r| r.snapshot()).collect();
    let us = |h: &obs::LogHistogram, q: f64| h.quantile(q).unwrap_or(0.0) * 1e6;
    let queue = merged(&snaps, "stage.queue_s");
    m.insert("runtime.queue_p50_us", us(&queue, 0.5));
    m.insert("runtime.queue_p99_us", us(&queue, 0.99));
    for (name, hist) in [
        ("runtime.decode_mean_us", "stage.decode_s"),
        ("runtime.handle_mean_us", "stage.handle_s"),
        ("runtime.send_mean_us", "stage.send_s"),
    ] {
        m.insert(name, merged(&snaps, hist).mean().unwrap_or(0.0) * 1e6);
    }
    m.insert(
        "runtime.recv_batch_mean",
        merged(&snaps, "batch.recv_frames").mean().unwrap_or(0.0),
    );
    m.insert(
        "runtime.send_batch_mean",
        merged(&snaps, "batch.send_frames").mean().unwrap_or(0.0),
    );
    let total = |f: fn(&TransportStats) -> u64| fin.stats.iter().map(f).sum::<u64>() as f64;
    let peak = |f: fn(&TransportStats) -> u64| fin.stats.iter().map(f).max().unwrap_or(0) as f64;
    let pool_misses: u64 = snaps
        .iter()
        .filter_map(|s| s.counters.get("pool.misses"))
        .sum();
    m.insert("runtime.inbound_overflow", total(|s| s.inbound_overflow));
    m.insert("runtime.pool_misses", pool_misses as f64);
    // Slabs are taken once per multicast sent and once per datagram read.
    let takes = fin.multicasts as f64 + total(|s| s.frames_received);
    m.insert("pool.miss_share", pool_misses as f64 / takes.max(1.0));
    m.insert("runtime.wheel_high_water", peak(|s| s.max_wheel_len));
    m.insert("runtime.delayq_high_water", peak(|s| s.max_delayq_len));
    let hs = fin.hub_stats.clone().unwrap_or_default();
    m.insert("hub.demux_splits", hs.demux_splits as f64);
    m.insert("hub.inbound_overflow", hs.inbound_overflow as f64);
    m.insert("hub.rx_unjoined_group", hs.rx_unjoined_group as f64);
    m.insert(
        "hub.quota_overflow",
        hs.groups.iter().map(|g| g.quota_overflow).sum::<u64>() as f64,
    );

    // cpu, untraced, same length: the reference for the overhead share.
    let b = Build {
        phase: &spec.cpu,
        secs: quarter,
        seed: mix(seed, 0xC9),
        tap: None,
        metrics: false,
        path: false,
    };
    let (fleet, _) = bring_up(&mut o, "cpu (untraced)", spec, b, &clock)?;
    let plain = measure(
        &mut o,
        "cpu (untraced)",
        fleet,
        &spec.cpu,
        quarter,
        Rig {
            clock: &clock,
            own: &own,
            tap: None,
        },
    );
    let plain_cpu = plain.out.cpu_us_per_adu();
    o.metrics.insert(
        "trace.overhead_share",
        traced.out.cpu_us_per_adu() / plain_cpu - 1.0,
    );
    o.metrics.insert("cpu_us_per_adu", plain_cpu);

    o.spans = path_spans(&lat.fin, &sightings, &mut o.metrics);
    Ok(o)
}

/// Results of the bare-loopback pair probe (`runtime.*` outside timing).
pub struct PairProbe {
    /// Median no-op `exec` round trip.
    pub exec_roundtrip_us: f64,
    /// Publish → delivered, one ADU at a time, median.
    pub handoff_p50_us: f64,
    /// Same, 99th percentile.
    pub handoff_p99_us: f64,
    /// Closed loop, best 1-s window.
    pub sat_goodput_adus_per_s: f64,
}

/// Bare loopback, no chaos, no tap: the wall-clock hand-off numbers that
/// are printed and never gated (they measure thread wake-ups).
pub fn pair_probe(seed: u64, goodput_secs: f64, clock: Clock) -> io::Result<PairProbe> {
    let spec = LiveSpec {
        shape: Shape::Mesh {
            n: 2,
            publishers: 1,
        },
        payload: 64,
        lat: Phase {
            rate: 0,
            tick_us: 250,
            poll_us: 1000,
            delay: false,
            loss: 0.0,
        },
        cpu: Phase {
            rate: 0,
            tick_us: 250,
            poll_us: 1000,
            delay: false,
            loss: 0.0,
        },
    };
    let b = Build {
        phase: &spec.lat,
        secs: 0.0,
        seed,
        tap: None,
        metrics: false,
        path: false,
    };
    let mut fleet = Fleet::build(&spec, b, &clock)?;
    fleet.first_adus(&clock);
    let mut exec = Vec::new();
    for _ in 0..2000 {
        let t = clock.now_ns();
        fleet.members[0].handle.exec(|_, _| ());
        exec.push(clock.now_ns().saturating_sub(t) as f64 / 1e3);
    }
    let mut handoff = Vec::new();
    for _ in 0..1000 {
        let t = clock.now_ns();
        fleet.publish(0, 1, t, &clock);
        while fleet.tally.outstanding > 0 && clock.now_ns() < t + 1_000_000_000 {
            fleet.poll(1, &clock, &mut |due, at| {
                handoff.push(at.saturating_sub(due) as f64 / 1e3)
            });
        }
    }
    // Closed loop: the next chunk goes out when the last one has arrived.
    let start = clock.now_ns();
    let end = start + (goodput_secs * 1e9) as u64;
    let mut per_window: BTreeMap<u64, u64> = BTreeMap::new();
    while clock.now_ns() < end {
        fleet.publish(0, 256, clock.now_ns(), &clock);
        let stall = clock.now_ns() + 1_000_000_000;
        while fleet.tally.outstanding > 0 && clock.now_ns() < stall {
            fleet.poll(1, &clock, &mut |_, at| {
                *per_window.entry((at - start) / WINDOW_NS).or_default() += 1;
            });
        }
    }
    let whole = (goodput_secs.floor() as u64).max(1);
    let best = per_window
        .iter()
        .filter(|(w, _)| **w < whole)
        .map(|(_, n)| *n)
        .max()
        .unwrap_or(0);
    fleet.shutdown();
    Ok(PairProbe {
        exec_roundtrip_us: median(&exec).unwrap_or(0.0),
        handoff_p50_us: quantile(&handoff, 0.5).unwrap_or(0.0),
        handoff_p99_us: quantile(&handoff, 0.99).unwrap_or(0.0),
        sat_goodput_adus_per_s: best as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_schedule_owes_exactly_rate_times_time_whatever_the_tick() {
        // 5 kADU/s on 250 µs ticks is 1.25 ADUs per tick.
        for (per_tick, stagger) in [(1.25, 0.0), (0.125, 0.75), (500.0, 0.0), (0.1, 0.999)] {
            let ticks = 4000u64;
            let total: u64 = (0..ticks)
                .map(|k| u64::from(due_in_tick(k, per_tick, stagger)))
                .sum();
            let want = (ticks as f64 * per_tick + stagger).floor() - stagger.floor();
            assert_eq!(total as f64, want, "x={per_tick} φ={stagger}");
        }
        // Staggered publishers at 1/8 ADU per tick never share a tick.
        let fires = |slot: usize| -> Vec<u64> {
            (0..64)
                .filter(|&k| due_in_tick(k, 0.125, slot as f64 / 4.0) > 0)
                .collect()
        };
        for a in 0..4 {
            for b in a + 1..4 {
                assert!(fires(a).iter().all(|k| !fires(b).contains(k)));
            }
        }
    }

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_reported_apart() {
        // An ADU due at t=100 ms that the generator only published 3 ms
        // late and that arrived 5 ms after that: the user waited 8 ms.
        let due = 100_000_000u64;
        let published = due + 3_000_000;
        let delivered = published + 5_000_000;
        assert!((latency_rtt(due, delivered) - 0.8).abs() < 1e-12);
        // ...and the generator's own lateness is its own number.
        let lag_us = (published - due) as f64 / 1e3;
        assert_eq!(lag_us, 3000.0);
        // A delivery stamped before its due time (clock granularity) is 0,
        // never negative.
        assert_eq!(latency_rtt(due, due - 1), 0.0);
    }
}
