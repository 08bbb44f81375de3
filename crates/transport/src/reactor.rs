//! The one reactor: a thread hosting a map of SRM groups over one send half.
//!
//! Both runtimes are this module. `srm-node` is one reactor with one group
//! hosted before the loop starts and a socket of its own
//! ([`crate::Node::spawn_on`]); `srm-hub` is N reactors sharing a socket,
//! with groups hosted on demand ([`crate::Hub::spawn_on`]).
//!
//! ```text
//!           ┌─────────────────────── one host (node or hub) ──────────────────────┐
//!  UDP ─▶ reactor 0: ppoll(socket, bell) ─▶ recvmmsg ─▶ walk ─▶ GroupHost g1, g5, …
//!  socket   │ N reactors: precheck + shard_of(group)
//!    ▲      └─ inbox + bell ─▶ reactor 1: ppoll(bell) ─▶ walk ─▶ GroupHost g2, g6, …
//!    │                          …
//!    └──────────────── every reactor sends on a clone of the socket
//! ```
//!
//! Architecture (no async runtime — the workspace builds offline):
//!
//! - each **reactor thread** owns its [`GroupHost`]s, one send half, an
//!   inbox (a bounded channel) and a bell (an eventfd). It sleeps in one
//!   `ppoll` on the bell and, on reactor 0, the socket, with a
//!   nanosecond timeout at the earliest timer deadline or chaos release
//!   among its groups, so timers fire on time — the select loop a
//!   simulator event queue collapses into. Per wakeup it fires what was
//!   due on entry, flushes the send queue as batched syscalls, reads a
//!   window of frames off the socket and drains a window of its inbox;
//! - **reactor 0 reads the socket itself**: `recvmmsg` on the
//!   non-blocking socket into pooled slabs, walked in place. With one
//!   reactor every frame is its own; with N it reads only the envelope
//!   prefix ([`Envelope::precheck`]), walks its own groups' frames and
//!   forwards the rest to `shard_of(group)`'s inbox, ringing that shard's
//!   bell. Read errors go through a [`Supervisor`]: transient ones pause
//!   the socket for a bounded exponential backoff, fatal ones and panics
//!   rebuild it (re-clone, or rebind) against a bounded budget, and when
//!   the budget is spent the reactor stops reading but keeps firing
//!   timers and answering `exec`. Every decision is counted and recorded
//!   as a typed transport event on every reactor;
//! - a [`GroupHost`] is the paper's light-weight session (§I) made
//!   literal: an agent, a [`TimerWheel`], a seeded RNG, a peer list, and
//!   the optional extras (chaos state, token bucket, liveness,
//!   recorders, durable store). Every agent entry point goes through
//!   `HostDriver`, the one wall-clock implementation of the [`srm::Driver`]
//!   seam, so the protocol code that runs here is byte-for-byte the code
//!   the simulator runs. A [`ChaosPlan`](crate::ChaosPlan) acts in one
//!   place, the group's send: its seeded verdict per logical multicast,
//!   its blackholes and forced drops per destination of the fan-out.
//!
//! Control — `NodeHandle::exec`, every hub RPC — is one event: a closure
//! run on the reactor thread ([`submit`]), whose sends are flushed before
//! it is answered.

use crate::batch::{self, make_backend, BatchOptions, BatchSocket, Bell, RecvFrame, SendFrame};
use crate::chaos::{corrupt_payload, ChaosState, Cut, DelayQueue, Fanout};
use crate::clock::WallClock;
use crate::envelope::{Envelope, HEADER_LEN};
use crate::hub::{shard_of, GroupStats};
use crate::pool::{BufferPool, PoolBuf};
use crate::runtime::{Counters, Mode, NodeOptions, TransportStats, TRACE_RING};
use crate::supervise::{classify, ErrorClass, SupervisePolicy, Supervisor, Verdict};
use crate::wheel::TimerWheel;
use bytes::Bytes;
use netsim::{GroupId, NodeId, Packet, PacketBody, PacketId, SendOptions, SimDuration, SimTime, TimerId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srm::rate::TokenBucket;
use srm::{AgentMetrics, Clock, Driver, RateLimit, SrmAgent, Transport};
use std::collections::BTreeMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Receive-slab size: one max-size UDP datagram, so batching can never
/// truncate a frame.
pub(crate) const MAX_DATAGRAM: usize = 64 * 1024;

/// Initial size of the send-side encode slabs. SRM control traffic and
/// framed data fit comfortably; a larger encode grows its slab once and
/// the grown slab recycles at the new size.
const TX_SLAB_BYTES: usize = 2048;

/// Salt mixed into a group's seed to derive its chaos RNG, keeping the
/// chaos draw stream independent of the protocol's timer draws.
const CHAOS_SEED_SALT: u64 = 0xC4A0_5EED_0BAD_CA5E;

/// How long a reactor sleeps when nothing is due. Purely a responsiveness
/// bound — the socket and the bell wake it immediately.
const IDLE_WAIT: Duration = Duration::from_millis(250);

/// Bound on a reactor's inbox: commands, supervision events and, on a
/// hub, the frames shard 0 forwards. A forwarded frame that does not fit
/// is shed and counted as `inbound_overflow`; a command waits for room.
const INBOUND_CAPACITY: usize = 4096;
/// Max frames a reactor reads off its socket, and max inbox events it
/// handles, per wakeup before it revisits timers and flushes sends — the
/// coalescing window. A flood cannot starve the timers, nor a zero-delay
/// re-arm the socket.
const INBOUND_DRAIN: usize = 256;

/// Flow-kind labels indexed by [`flow_slot`]; the last slot collects flows
/// outside the four the protocol defines.
const FLOW_KINDS: [&str; 5] = ["data", "request", "repair", "session", "other"];

/// Map a wire flow label to a `FLOW_KINDS` slot.
fn flow_slot(flow: u32) -> usize {
    (flow as usize).min(FLOW_KINDS.len() - 1)
}

/// A registry mirror: the name it is published under and how to read its
/// current value out of `T`.
type Mirror<T> = (&'static str, fn(&T) -> u64);

/// Which entry point built the host: decides what its threads, log lines
/// and registry entries are called, and nothing else.
#[derive(Clone, Copy)]
pub(crate) enum HostKind {
    /// `Node::spawn_on`, for this member id.
    Node(u64),
    /// `Hub::spawn_on`.
    Hub,
}

impl HostKind {
    /// Log-line prefix of reactor `index`.
    fn label(self, index: usize) -> String {
        match self {
            HostKind::Node(id) => format!("srm-node[{id}]"),
            HostKind::Hub => format!("srm-hub[shard {index}]"),
        }
    }
}

/// Reactor-side cached registry handles: resolved once at spawn so the hot
/// path is one relaxed atomic op per update, no name lookups. Histograms
/// and the by-kind frame counters are shared by every reactor of a host;
/// the sampled gauges carry the reactor's prefix (none on a node,
/// `hub.shard{i}.` on a hub).
struct RegHandles {
    /// Frames accepted from the socket, by flow kind.
    rx: [obs::Counter; 5],
    /// Logical multicasts by flow kind (pre fan-out; the per-destination
    /// totals live in `frames.*`).
    tx: [obs::Counter; 5],
    /// `recvmmsg` return → walk (plus the forward hop on a hub shard).
    stage_queue: obs::Histo,
    /// Walk → envelope decoded.
    stage_decode: obs::Histo,
    /// Agent handling time per inbound packet (`drive_packet`).
    stage_handle: obs::Histo,
    /// Encode + fan-out time per logical multicast.
    stage_send: obs::Histo,
    /// Frames per send syscall at flush time.
    batch_send: obs::Histo,
    /// Frames read plus inbox events handled per reactor wakeup (the
    /// coalescing window).
    batch_drain: obs::Histo,
    /// Frames per receive syscall; reactor 0 only.
    batch_recv: obs::Histo,
    /// Buffer-pool occupancy (slabs in flight) sampled per wakeup: this
    /// reactor's encode pool, plus the host's receive pool on reactor 0.
    pool_in_use: obs::Gauge,
    pool_capacity: obs::Gauge,
    /// Pool-dry fallbacks to exact-size heap buffers (both directions).
    pool_misses: obs::Counter,
    groups: obs::Gauge,
    wheel_depth: obs::Gauge,
    delayq_depth: obs::Gauge,
}

impl RegHandles {
    fn new(reg: &obs::MetricsRegistry, index: usize, kind: HostKind) -> Self {
        let p = match kind {
            HostKind::Node(_) => String::new(),
            HostKind::Hub => format!("hub.shard{index}."),
        };
        RegHandles {
            rx: FLOW_KINDS.map(|k| reg.counter(&format!("rx.frames.{k}"))),
            tx: FLOW_KINDS.map(|k| reg.counter(&format!("tx.frames.{k}"))),
            stage_queue: reg.histogram("stage.queue_s"),
            stage_decode: reg.histogram("stage.decode_s"),
            stage_handle: reg.histogram("stage.handle_s"),
            stage_send: reg.histogram("stage.send_s"),
            batch_send: reg.histogram("batch.send_frames"),
            batch_drain: reg.histogram("batch.inbound_drain"),
            batch_recv: reg.histogram("batch.recv_frames"),
            pool_in_use: reg.gauge(&format!("{p}pool.in_use")),
            pool_capacity: reg.gauge(&format!("{p}pool.capacity")),
            pool_misses: reg.counter(&format!("{p}pool.misses")),
            groups: reg.gauge(&format!("{p}groups")),
            wheel_depth: reg.gauge(&format!("{p}wheel.depth")),
            delayq_depth: reg.gauge(&format!("{p}delayq.depth")),
        }
    }
}

/// A hosted group's registry mirrors, by name under the group's prefix
/// (none on a node, `hub.g{G}.` on a hub): cumulative counters first, then
/// sampled gauges. The agent's own counters follow the counters as
/// `agent.<name>`, one per [`srm::AgentMetrics::counters`] entry. The store
/// mirrors stay zero unless a store is attached (its latency histograms are
/// recorded at the operation site via StoreProbes).
const GROUP_COUNTERS: [Mirror<GroupHost>; 15] = [
    ("rx_frames", |h| h.rx_frames),
    ("tx_frames", |h| h.io.tx_frames),
    ("delivered", |h| h.agent.deliveries()),
    ("quota_overflow", |h| h.io.quota_overflow),
    ("liveness.suspected", |h| h.agent.liveness.suspected_total),
    ("liveness.died", |h| h.agent.liveness.died_total),
    ("liveness.revived", |h| h.agent.liveness.revived_total),
    ("store.wal_appends", |h| h.wal().appends),
    ("store.wal_bytes", |h| h.wal().bytes_appended),
    ("store.fsyncs", |h| h.wal().fsyncs),
    ("store.snapshots", |h| h.wal().snapshots),
    ("store.reads", |h| h.wal().reads),
    ("store.io_errors", |h| h.wal().io_errors),
    ("store.evictions", |h| h.agent.store().evictions()),
    ("store.disk_repairs", |h| h.agent.store().disk_fetches()),
];
const GROUP_GAUGES: [Mirror<GroupHost>; 5] = [
    ("peers.alive", |h| h.agent.liveness.counts().0),
    ("peers.suspect", |h| h.agent.liveness.counts().1),
    ("peers.dead", |h| h.agent.liveness.counts().2),
    ("store.segments", |h| h.wal().segments),
    ("store.live_records", |h| h.wal().live_records),
];

/// One encoded frame queued for the next flush.
struct PendingFrame {
    dest: SocketAddr,
    /// `Some(ttl)` in multicast mode: the flush sets the socket's
    /// multicast TTL per run of equal values, preserving per-send
    /// `set_multicast_ttl_v4` semantics. `None` on a mesh.
    ttl: Option<u8>,
    /// The encoded envelope, shared (not copied) across the mesh fan-out.
    data: Arc<PoolBuf>,
}

/// What the groups of one reactor share: its side of the socket (the send
/// half), the inbound routing table, and the log-line prefix.
///
/// Sends are *queued*: every logical multicast encodes once into a pooled
/// slab and fans out per destination at enqueue time (where forced drops,
/// blackholes, and the accounting all run). The queue goes to the socket
/// as one batched syscall as soon as it holds [`batch::SEND_BATCH`] frames
/// — so it, and the slabs in flight, never exceed one batch however long a
/// burst the agent produces in one call — and whatever is left goes out at
/// the end of the wakeup.
struct Wire {
    /// Log-line prefix: `srm-node[7]`, `srm-hub[shard 2]`.
    label: String,
    /// Inbound routing: wire group id → key of the hosting [`GroupHost`].
    /// A host's agent adds a route with every group it joins.
    routes: BTreeMap<u32, u32>,
    /// Kept alongside the batched backend for socket options
    /// (`set_multicast_ttl_v4`, `join_multicast_v4`).
    socket: UdpSocket,
    batch: Box<dyn BatchSocket>,
    counters: Arc<Counters>,
    /// Events that belong to no one group: send/socket errors, decode
    /// failures, the read path's supervision events. Enabled
    /// once a traced group is hosted here, and read through that group's
    /// stream ([`GroupHost::sync_logs`]).
    log: obs::TransportLog,
    /// Recycled encode slabs: the envelope is serialized into a pooled
    /// buffer per logical send, so steady-state sending allocates nothing
    /// per datagram (drops at flush return the slabs).
    tx_pool: BufferPool,
    /// Frames awaiting the next flush; at most `SEND_BATCH` of them.
    queue: Vec<PendingFrame>,
    /// Reused per-flush scratch: the queue as the backend wants it (always
    /// empty between flushes, kept for its allocation), and the results.
    frames: Vec<SendFrame<'static>>,
    results: Vec<io::Result<()>>,
    /// Live-registry handles; `None` costs one branch per site.
    reg: Option<RegHandles>,
}

impl Wire {
    /// Push every queued frame to the socket in batched syscalls,
    /// settling `frames_sent`/`send_errors` per destination. Runs of
    /// equal multicast TTL share one `set_multicast_ttl_v4` call.
    fn flush(&mut self, now: SimTime) {
        if self.queue.is_empty() {
            return;
        }
        self.counters.max_sendq_len.raise(self.queue.len() as u64);
        // The fan-out queues a burst destination by destination for each
        // multicast in turn; grouped by destination instead (stably, so
        // each receiver's order stands), equal-size frames to one peer
        // form the runs the backend sends as one GSO super-datagram, and
        // the peer reads them as one GRO buffer.
        self.queue.sort_by_key(|p| p.dest);
        // The scratch's element type says `'static` only because it is
        // stored empty; here it borrows the queue (a `Vec` is covariant).
        let mut frames: Vec<SendFrame<'_>> = std::mem::take(&mut self.frames);
        let mut i = 0;
        while i < self.queue.len() {
            let ttl = self.queue[i].ttl;
            let mut j = i + 1;
            while j < self.queue.len() && self.queue[j].ttl == ttl {
                j += 1;
            }
            if let Some(t) = ttl {
                let _ = self.socket.set_multicast_ttl_v4(u32::from(t));
            }
            for chunk in self.queue[i..j].chunks(batch::SEND_BATCH) {
                frames.clear();
                frames.extend(chunk.iter().map(|p| SendFrame { dest: p.dest, data: &p.data }));
                self.results.clear();
                self.batch.send_batch(&frames, &mut self.results);
                if let Some(m) = &self.reg {
                    m.batch_send.record(frames.len() as f64);
                }
                for (p, r) in chunk.iter().zip(self.results.iter()) {
                    match r {
                        Ok(()) => {
                            self.counters.frames_sent.inc();
                        }
                        Err(e) => {
                            self.counters.send_errors.inc();
                            self.log.record(
                                now,
                                obs::TransportEventKind::SocketError {
                                    detail: format!("send_to {}: {e}", p.dest),
                                    transient: classify(e.kind()) == ErrorClass::Transient,
                                },
                            );
                        }
                    }
                }
            }
            i = j;
        }
        // Emptied, the scratch borrows nothing: collecting an empty `Vec`
        // back into one of the same layout keeps its allocation, and
        // states the longer lifetime without `unsafe`.
        frames.clear();
        self.frames = frames.into_iter().map(|f| SendFrame { dest: f.dest, data: &[] }).collect();
        // Dropping the contents returns the encode slabs to the pool.
        self.queue.clear();
    }
}

/// What differs between the two entry points. Set by the constructor that
/// was called (`Node::spawn_on` or `HubHandle::create`), never a user
/// option.
pub(crate) struct Hosting {
    /// The member id as envelopes carry it ([`envelope_src`]).
    pub src: u32,
    /// A node keeps deliveries queued on the agent for `take_delivered`;
    /// a hub group discards them. Both count them
    /// ([`GroupStats::delivered`]).
    pub keep_deliveries: bool,
    /// A hub group may carry a token bucket (§III-E).
    pub quota: Option<RateLimit>,
    /// Configured group size, reported in [`GroupStats`].
    pub members: usize,
    /// Registry-name prefix of the group's mirrors.
    pub reg_prefix: String,
}

/// The part of a hosted group the [`Driver`] borrows: everything a send,
/// a join or a timer call touches, apart from the agent itself.
struct GroupIo {
    /// The member id the agent runs as, as it appears in envelopes.
    src: u32,
    /// The reactor's clock.
    clock: WallClock,
    wheel: TimerWheel,
    rng: StdRng,
    mode: Mode,
    /// The chaos plan's seeded actions, drawn once per logical send.
    chaos: Option<ChaosState>,
    /// Frames the chaos plan holds back, released by `fire_due`.
    delayq: DelayQueue,
    /// The chaos plan's blackholes and forced drops, applied RNG-free per
    /// destination.
    fanout: Fanout,
    quota: Option<TokenBucket>,
    quota_overflow: u64,
    /// Logical multicasts issued (post quota, pre fan-out).
    tx_frames: u64,
    /// This group's send and join events (chaos actions, blackholes, join
    /// failures).
    log: obs::TransportLog,
}

/// One hosted group: an agent plus the session-local state around it.
pub(crate) struct GroupHost {
    /// The session group id: the key in the reactor's map.
    key: u32,
    agent: SrmAgent,
    io: GroupIo,
    keep_deliveries: bool,
    members: usize,
    /// Frames routed to this group's agent (post filtering).
    rx_frames: u64,
    /// Handles for `GROUP_COUNTERS` and `GROUP_GAUGES`, resolved once here.
    reg: Option<(Vec<obs::Counter>, Vec<obs::Gauge>)>,
}

impl GroupHost {
    /// Build the group's state from the same options either entry point
    /// yields: seed the RNGs, wire the recorders, open and rehydrate the
    /// durable store. `label` prefixes log lines.
    fn new(clock: &WallClock, label: &str, mode: Mode, opts: NodeOptions, hosting: Hosting) -> Self {
        let key = opts.group.0;
        let mut agent = SrmAgent::new(opts.id, opts.group, opts.cfg);
        agent.session_enabled = opts.session_enabled;
        let mut log = obs::TransportLog::new();
        if opts.trace {
            agent.obs.enable_bounded(TRACE_RING);
            agent.transport_obs.enable_bounded(TRACE_RING);
            log.enable_bounded(TRACE_RING);
        }
        if let Some(lv) = opts.liveness {
            agent.liveness.enable(lv);
        }
        for (peer, d) in opts.initial_distances {
            agent.distances_mut().set_distance(peer, d);
        }
        if let Some(sto) = opts.store {
            match srm_store::DirBackend::open(&sto.dir) {
                Ok(backend) => {
                    let mut ds = srm_store::DurableStore::new(Box::new(backend), sto.config);
                    if let Some(r) = opts.metrics.as_ref() {
                        ds.set_probes(srm_store::StoreProbes::from_registry(r));
                    }
                    // The single rehydrate path: a restart after kill -9 replays
                    // the log here, so the member rejoins repair-capable.
                    let summary = agent.attach_durable_store(Box::new(ds), sto.cache_per_stream);
                    agent.transport_obs.record(
                        clock.now(),
                        obs::TransportEventKind::StoreRehydrate {
                            adus: summary.names.len() as u64,
                            segments: summary.segments,
                            truncated_bytes: summary.truncated_bytes,
                        },
                    );
                    if !summary.names.is_empty() || summary.truncated_bytes > 0 {
                        eprintln!(
                            "{label}: group {key} rehydrated {} ADUs from {} ({} segments, {} torn bytes dropped)",
                            summary.names.len(),
                            sto.dir.display(),
                            summary.segments,
                            summary.truncated_bytes,
                        );
                    }
                }
                Err(e) => eprintln!(
                    "{label}: group {key} could not open store {}: {e} (running without durability)",
                    sto.dir.display()
                ),
            }
        }
        GroupHost {
            key,
            agent,
            io: GroupIo {
                src: hosting.src,
                clock: clock.clone(),
                wheel: TimerWheel::new(),
                rng: StdRng::seed_from_u64(opts.seed),
                mode,
                fanout: Fanout::new(opts.chaos.as_ref()),
                chaos: opts.chaos.map(|plan| ChaosState::new(plan, opts.seed ^ CHAOS_SEED_SALT)),
                delayq: DelayQueue::new(),
                quota: hosting.quota.map(TokenBucket::new),
                quota_overflow: 0,
                tx_frames: 0,
                log,
            },
            keep_deliveries: hosting.keep_deliveries,
            members: hosting.members,
            rx_frames: 0,
            reg: opts.metrics.as_ref().map(|r| {
                let p = &hosting.reg_prefix;
                let agent = AgentMetrics::default().counters().map(|(name, _)| format!("{p}agent.{name}"));
                (
                    (GROUP_COUNTERS.iter().map(|(name, _)| format!("{p}{name}")).chain(agent))
                        .map(|name| r.counter(&name))
                        .collect(),
                    GROUP_GAUGES.iter().map(|(name, _)| r.gauge(&format!("{p}{name}"))).collect(),
                )
            }),
        }
    }

    /// Move this group's reactor-side events into the agent's transport
    /// stream, so one per-member sequence is what `exec` and harvesting see.
    /// A traced group also takes what its reactor logged on no group's
    /// behalf (`wire_log`): on a node that is the member's own host; on a
    /// hub the first traced group to be read gets them.
    fn sync_logs(&mut self, wire_log: &mut obs::TransportLog) {
        self.agent.transport_obs.absorb(self.io.log.take_events());
        if self.agent.transport_obs.is_enabled() {
            self.agent.transport_obs.absorb(wire_log.take_events());
        }
    }

    /// Refresh the group's registry mirrors.
    fn publish(&self) {
        let Some((counters, gauges)) = &self.reg else { return };
        let agent = self.agent.metrics.counters().map(|(_, v)| v);
        for (v, c) in GROUP_COUNTERS.iter().map(|(_, read)| read(self)).chain(agent).zip(counters) {
            c.set_total(v);
        }
        for ((_, read), g) in GROUP_GAUGES.iter().zip(gauges) {
            g.set(read(self));
        }
    }

    /// The durable store's counters; all zero when no store is attached.
    fn wal(&self) -> srm::PersistenceStats {
        self.agent.store().persistence_stats().unwrap_or_default()
    }

    fn stats(&self, shard: usize) -> GroupStats {
        GroupStats {
            group: self.key,
            shard,
            members: self.members,
            rx_frames: self.rx_frames,
            tx_frames: self.io.tx_frames,
            delivered: self.agent.deliveries(),
            agent: self.agent.metrics.counters(),
            quota_overflow: self.io.quota_overflow,
        }
    }
}

/// One logical multicast from a hosted group — the single place every
/// outgoing frame's fate is decided and counted. The chaos plan, if it
/// applies to `group`, draws its verdict first and drops, corrupts, holds
/// back or duplicates the frame; each copy it lets through goes to
/// [`emit`] now, or from the hold-back queue when due. `now` is the
/// caller's clock reading, the one its handler sees.
fn send(wire: &mut Wire, io: &mut GroupIo, now: SimTime, group: GroupId, payload: Bytes, opts: SendOptions) {
    // A group-scoped plan passes other groups' frames before the verdict
    // draws, so scoping does not shift the stream the scoped group sees.
    let Some(chaos) = io.chaos.as_mut().filter(|c| c.plan.applies_to(group)) else {
        return emit(wire, io, now, group, payload, opts);
    };
    let v = chaos.verdict(now);
    let flow = opts.flow;
    if !v.deliver {
        wire.counters.chaos_dropped.inc();
        io.log.record(now, obs::TransportEventKind::ChaosDrop { flow });
        return;
    }
    let payload = if v.corrupt {
        wire.counters.chaos_corrupted.inc();
        io.log.record(now, obs::TransportEventKind::ChaosCorrupt { flow });
        corrupt_payload(&payload)
    } else {
        payload
    };
    if let Some(by) = v.delay {
        wire.counters.chaos_delayed.inc();
        io.log.record(now, obs::TransportEventKind::ChaosDelay { flow, by });
    }
    let put = |wire: &mut Wire, io: &mut GroupIo, payload: Bytes, opts: SendOptions| match v.delay {
        Some(by) => io.delayq.push(now + by, group, payload, opts),
        None => emit(wire, io, now, group, payload, opts),
    };
    if v.duplicate {
        put(wire, io, payload.clone(), opts.clone());
        wire.counters.chaos_duplicated.inc();
        io.log.record(now, obs::TransportEventKind::ChaosDuplicate { flow });
    }
    put(wire, io, payload, opts);
}

/// A frame past the chaos verdict: quota gate, one encode into a pooled
/// slab, then the per-destination fan-out. Surviving frames go on the
/// flush queue; `frames_sent`/`send_errors` are settled when the batch
/// reaches the socket.
fn emit(wire: &mut Wire, io: &mut GroupIo, now: SimTime, group: GroupId, payload: Bytes, opts: SendOptions) {
    if opts.ttl == 0 {
        // A zero-TTL datagram never leaves the host.
        return;
    }
    // The send stage is timed from its own reading, taken only when a
    // registry is attached.
    let t0 = wire.reg.as_ref().map(|_| io.clock.now());
    // Quota gate, charged at wire size (§III-E: the sender's token bucket
    // enforces the session's advertised peak rate). A refusal drops the
    // frame *before* the fan-out, so `frames_attempted` never sees it —
    // same accounting slot as a chaos drop.
    if let Some(tb) = io.quota.as_mut() {
        if !tb.try_consume(now, (HEADER_LEN + payload.len()) as f64) {
            io.quota_overflow += 1;
            return;
        }
    }
    io.tx_frames += 1;
    let mut buf = wire.tx_pool.try_take().unwrap_or_else(|| {
        wire.tx_pool.note_miss();
        PoolBuf::with_capacity(wire.tx_pool.slab_bytes())
    });
    Envelope {
        src: io.src,
        group: group.0,
        ttl: opts.ttl,
        initial_ttl: opts.ttl,
        admin_scoped: opts.admin_scoped,
        flow: opts.flow,
        payload,
    }
    .encode_into(&mut buf);
    let frame = Arc::new(buf);
    let GroupIo { mode, fanout, log, .. } = io;
    // `policy_dest` is what drop rules and blackholes match on: the peer on
    // a mesh, nothing under true multicast.
    let mut enqueue = |dest: SocketAddr, policy_dest: Option<SocketAddr>, ttl: Option<u8>| {
        wire.counters.frames_attempted.inc();
        match fanout.cut(now, opts.flow, policy_dest) {
            Some(Cut::Blackholed) => {
                wire.counters.blackholed.inc();
                log.record(now, obs::TransportEventKind::Blackholed { flow: opts.flow });
            }
            Some(Cut::Dropped) => wire.counters.frames_dropped.inc(),
            None => {
                wire.queue.push(PendingFrame { dest, ttl, data: Arc::clone(&frame) });
                // A full batch goes out now: the receivers start on it while
                // the rest of the burst is still being produced, and the
                // slabs it held are back in the pool before the next encode.
                if wire.queue.len() >= batch::SEND_BATCH {
                    wire.flush(now);
                }
            }
        }
    };
    match mode {
        Mode::Mesh { peers } => {
            for &p in peers.iter() {
                enqueue(p, Some(p), None);
            }
        }
        Mode::Multicast { base } => {
            let dest = SocketAddr::V4(Mode::group_addr(*base, group));
            enqueue(dest, None, Some(opts.ttl));
        }
    }
    if let (Some(m), Some(t0)) = (&wire.reg, t0) {
        m.tx[flow_slot(opts.flow)].inc();
        m.stage_send.record(io.clock.now().since(t0).as_secs_f64());
    }
}

/// Wall-clock implementation of the agent's [`Driver`] seam: the borrowed
/// view of one group's state and its reactor's wire, handed to every agent
/// entry point.
struct HostDriver<'a> {
    wire: &'a mut Wire,
    io: &'a mut GroupIo,
    key: u32,
    /// The one clock reading of this handler, as `Ctx::now` is one event
    /// time in `netsim`: taken when the driver is built, on the reactor's
    /// own thread, so successive handlers there never see time go back.
    now: SimTime,
}

impl Clock for HostDriver<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    /// A live member stamps its messages with the clock it runs on; a
    /// skewed local reading is a `netsim` fault.
    fn local_now(&self) -> SimTime {
        self.now
    }
}

impl Transport for HostDriver<'_> {
    fn multicast(&mut self, group: GroupId, payload: Bytes, opts: SendOptions) {
        send(self.wire, self.io, self.now, group, payload, opts);
    }

    fn join(&mut self, group: GroupId) {
        if self.wire.routes.contains_key(&group.0) {
            return;
        }
        self.wire.routes.insert(group.0, self.key);
        // On a mesh the fan-out list already reaches every member; the
        // route is all a join needs.
        let Mode::Multicast { base } = self.io.mode else { return };
        let addr = Mode::group_addr(base, group);
        let Err(e) = self.wire.socket.join_multicast_v4(addr.ip(), &Ipv4Addr::UNSPECIFIED) else {
            return;
        };
        // Log and stay in multicast mode: other joins may still succeed.
        self.io.log.record(
            self.now,
            obs::TransportEventKind::SocketError {
                detail: format!("join group {}: {e}", group.0),
                transient: false,
            },
        );
        eprintln!("{}: multicast join for group {} failed ({e})", self.wire.label, group.0);
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.io.wheel.arm(self.now + delay, token)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.io.wheel.cancel(id);
    }

    fn rng(&mut self) -> &mut StdRng {
        &mut self.io.rng
    }
}

/// Run `f` against one group's agent behind a freshly borrowed driver.
/// Built per entry point because the driver borrows the wire and half the
/// group's state; the clock is read once, here. A hub group's deliveries
/// are counted by the agent and not kept.
fn drive<R>(
    wire: &mut Wire,
    host: &mut GroupHost,
    f: impl FnOnce(&mut SrmAgent, &mut dyn Driver) -> R,
) -> R {
    let GroupHost { key, agent, io, .. } = host;
    let now = io.clock.now();
    let r = f(agent, &mut HostDriver { wire, io, key: *key, now });
    if !host.keep_deliveries {
        host.agent.discard_delivered();
    }
    r
}

/// A closure run on the reactor thread — the one control event.
type ExecFn = Box<dyn FnOnce(&mut Reactor) + Send>;

/// What arrives in a reactor's inbox.
pub(crate) enum Event {
    /// A buffer shard 0 read off the hub's socket for a group this shard
    /// hosts, stamped with the time `recvmmsg` returned so the queueing
    /// stage includes the hop. The buffer is a pooled slab travelling by
    /// ownership; dropping it after the walk recycles it to the receive
    /// pool. The `u32` is the GRO segment size ([`RecvFrame::seg_size`]).
    Forward(SimTime, u32, PoolBuf),
    /// A typed transport event from shard 0's read-path supervisor.
    Transport(SimTime, obs::TransportEventKind),
    /// Run a closure against the reactor: `NodeHandle::exec`,
    /// `HubHandle::exec` and every hub control RPC.
    Exec(ExecFn),
    /// Stop the loop; the thread's owner decides what happens to the groups.
    Shutdown,
}

/// The way into a reactor: its inbox, and the bell that wakes it.
#[derive(Clone)]
pub(crate) struct Mailbox {
    tx: mpsc::SyncSender<Event>,
    bell: Arc<Bell>,
}

impl Mailbox {
    /// Queue `ev`, waiting while the inbox is full, and wake the reactor;
    /// `false` if the reactor is gone.
    pub(crate) fn post(&self, ev: Event) -> bool {
        let sent = self.tx.send(ev).is_ok();
        self.bell.ring();
        sent
    }

    /// [`Mailbox::post`] that never waits: on a full inbox, `ev` is lost.
    pub(crate) fn try_post(&self, ev: Event) {
        let _ = self.tx.try_send(ev);
        self.bell.ring();
    }
}

/// Queue `f` for the reactor behind `mb` and return where its result will
/// arrive; `None` if the reactor is gone. The send queue is flushed and
/// the registry mirrors refreshed before the reply goes out, so whatever
/// `f` did is settled when the caller resumes: a `stats()` (or a registry
/// snapshot) issued right after a `send()` reads `attempted == sent +
/// dropped + blackholed + send_errors`, not a frame in between.
pub(crate) fn submit<R: Send + 'static>(
    mb: &Mailbox,
    f: impl FnOnce(&mut Reactor) -> R + Send + 'static,
) -> Option<mpsc::Receiver<R>> {
    let (rtx, rrx) = mpsc::sync_channel(1);
    let run: ExecFn = Box::new(move |r| {
        let out = f(r);
        r.wire.flush(r.clock.now());
        r.publish();
        let _ = rtx.send(out);
    });
    mb.post(Event::Exec(run)).then_some(rrx)
}

/// The read path of the one reactor that owns the socket (reactor 0).
/// Dropped when the supervisor gives up on it.
struct Rx {
    /// The socket the backend reads a clone of, and the one polled.
    master: UdpSocket,
    opts: BatchOptions,
    /// How a backend is built around a socket: [`make_backend`], except
    /// in the test that injects failures.
    make: fn(UdpSocket, &BatchOptions) -> Box<dyn BatchSocket>,
    backend: Box<dyn BatchSocket>,
    /// Receive slabs; a hub's forwarded frames return theirs from the
    /// shard that walked them.
    pool: BufferPool,
    /// Reused per-read scratch, always empty between reads.
    bufs: Vec<RecvFrame>,
    /// On a hub with more than one shard, every shard's mailbox by index
    /// (reactor 0's own included, never used); empty otherwise, and then
    /// every frame is walked here.
    shards: Vec<Mailbox>,
    /// Shards forwarded to since their bell last rang.
    unrung: Vec<bool>,
    supervisor: Supervisor,
    /// While the supervisor keeps the socket unpolled: until when, and the
    /// respawn attempt to rebuild it for then, if any.
    paused: Option<(SimTime, Option<u32>)>,
    /// The backend's cumulative kernel drop count, as last added to
    /// `inbound_overflow`.
    drops_seen: u64,
}

impl Rx {
    /// A fresh backend on a fresh clone of the socket or, if the
    /// descriptor itself is the problem, on a fresh bind of its address.
    fn rebuild(&mut self) -> io::Result<()> {
        let sock = match self.master.try_clone() {
            Ok(sock) => sock,
            Err(_) => {
                self.master = UdpSocket::bind(self.master.local_addr()?)?;
                self.master.set_nonblocking(true)?;
                self.drops_seen = 0;
                self.master.try_clone()?
            }
        };
        self.backend = (self.make)(sock, &self.opts);
        Ok(())
    }
}

/// One reactor thread's state: a map of hosted groups over one [`Wire`].
pub(crate) struct Reactor {
    /// Shard index (0 on a node).
    index: usize,
    clock: WallClock,
    wire: Wire,
    groups: BTreeMap<u32, GroupHost>,
    inbox: mpsc::Receiver<Event>,
    bell: Arc<Bell>,
    /// The read path, on the reactor that owns the socket.
    rx: Option<Rx>,
}

impl Reactor {
    /// Host a group: build its state, then let the agent start (join its
    /// session group, arm its session timer).
    pub(crate) fn host(&mut self, mode: Mode, opts: NodeOptions, hosting: Hosting) {
        if opts.trace && !self.wire.log.is_enabled() {
            self.wire.log.enable_bounded(TRACE_RING);
        }
        let mut host = GroupHost::new(&self.clock, &self.wire.label, mode, opts, hosting);
        drive(&mut self.wire, &mut host, |a, d| a.drive_start(d));
        self.groups.insert(host.key, host);
    }

    /// Is `group` hosted here?
    pub(crate) fn hosts(&self, group: u32) -> bool {
        self.groups.contains_key(&group)
    }

    /// Run `f` against `group`'s live agent; `None` if it is not hosted here.
    pub(crate) fn with_group<R>(
        &mut self,
        group: u32,
        f: impl FnOnce(&mut SrmAgent, &mut dyn Driver) -> R,
    ) -> Option<R> {
        let host = self.groups.get_mut(&group)?;
        host.sync_logs(&mut self.wire.log);
        Some(drive(&mut self.wire, host, f))
    }

    /// Stop hosting `group`: with `farewell`, a final session message (so
    /// peers learn our last state before the silence); then flush what is
    /// queued, force the WAL tail onto stable storage so an orderly exit
    /// loses nothing regardless of the fsync policy, and refresh every
    /// mirror one last time. The store directory survives for the next
    /// host of the same group.
    pub(crate) fn detach(&mut self, group: u32, farewell: bool) -> Option<GroupHost> {
        let host = self.groups.get_mut(&group)?;
        if farewell {
            drive(&mut self.wire, host, |a, d| a.send_session_now(d));
        }
        self.wire.flush(self.clock.now());
        host.agent.flush_store();
        self.publish();
        let mut host = self.groups.remove(&group)?;
        self.wire.routes.retain(|_, key| *key != group);
        // Pin the queue peaks into the offline event stream (no-op when
        // the log is disabled).
        host.io.log.record(
            self.clock.now(),
            obs::TransportEventKind::QueueHighWater {
                wheel: self.wire.counters.max_wheel_len.get(),
                delayq: self.wire.counters.max_delayq_len.get(),
            },
        );
        host.sync_logs(&mut self.wire.log);
        Some(host)
    }

    /// [`Reactor::detach`] with a farewell; the group's final row.
    pub(crate) fn drain(&mut self, group: u32) -> Option<GroupStats> {
        let host = self.detach(group, true)?;
        Some(host.stats(self.index))
    }

    /// Drain every hosted group (the reactor keeps running); their final
    /// rows.
    pub(crate) fn drain_all(&mut self) -> Vec<GroupStats> {
        let keys: Vec<u32> = self.groups.keys().copied().collect();
        keys.into_iter().filter_map(|g| self.drain(g)).collect()
    }

    /// A node's shutdown: detach its one group without a farewell and
    /// hand back the agent, the reactor-side logs merged into its
    /// transport stream.
    pub(crate) fn into_agent(mut self, group: u32) -> SrmAgent {
        self.detach(group, false)
            .expect("a node's reactor hosts its one group from spawn to shutdown")
            .agent
    }

    /// Per-group counters for the host's rollup ([`stats`]).
    pub(crate) fn group_stats(&self) -> Vec<GroupStats> {
        self.groups.values().map(|h| h.stats(self.index)).collect()
    }

    /// The reactor loop: fire due timers, release held-back chaos frames,
    /// flush the send queue as batched syscalls, then sleep in one `ppoll`
    /// until the socket is readable, the bell rings or the next deadline,
    /// and handle a window of frames and a window of inbox events per
    /// wakeup (datagrams, commands, deadlines coalesced). Returns on
    /// `Shutdown` or when every sender is gone.
    pub(crate) fn run(mut self) -> Reactor {
        batch::enter_batch_scheduling();
        // The last inbox drain stopped at the window, so more may be
        // waiting behind a bell already consumed: do not sleep.
        let mut backlog = false;
        loop {
            self.fire_due();
            // Everything the last wakeup produced goes out in batched syscalls.
            self.wire.flush(self.clock.now());
            self.publish();
            self.resume_rx();
            let now = self.clock.now();
            let timeout = if backlog { Duration::ZERO } else { wait_timeout(now, self.next_deadline()) };
            let sock = self.rx.as_ref().filter(|rx| rx.paused.is_none()).map(|rx| &rx.master);
            let readable = batch::wait(sock, &self.bell, timeout);
            let frames = if readable { self.read_socket() } else { 0 };
            let Some(events) = self.drain_inbox() else { break };
            backlog = events == INBOUND_DRAIN;
            if let (Some(m), 1..) = (&self.wire.reg, frames + events) {
                m.batch_drain.record((frames + events) as f64);
            }
        }
        // Anything the final events produced still goes out before shutdown.
        self.wire.flush(self.clock.now());
        self
    }

    /// The earliest thing this reactor has to do unprompted: a timer, a
    /// held-back chaos frame, or the end of a read-path pause.
    fn next_deadline(&mut self) -> Option<SimTime> {
        let paused = self.rx.as_ref().and_then(|rx| rx.paused).map(|(until, _)| until);
        self.groups
            .values_mut()
            .flat_map(|h| [h.io.wheel.next_deadline(), h.io.delayq.next_due()])
            .chain([paused])
            .flatten()
            .min()
    }

    /// Handle up to `INBOUND_DRAIN` inbox events; how many, or `None` on
    /// `Shutdown` or once every sender is gone.
    fn drain_inbox(&mut self) -> Option<usize> {
        for n in 0..INBOUND_DRAIN {
            match self.inbox.try_recv() {
                Ok(Event::Forward(at, seg, buf)) => self.walk(at, seg, &buf),
                Ok(Event::Transport(at, kind)) => self.wire.log.record(at, kind),
                Ok(Event::Exec(f)) => f(self),
                Ok(Event::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => return None,
                Err(mpsc::TryRecvError::Empty) => return Some(n),
            }
        }
        Some(INBOUND_DRAIN)
    }

    /// Read up to `INBOUND_DRAIN` frames off the socket and walk them, or
    /// forward them to the shards that host their groups; how many.
    /// Failures go to the supervisor.
    fn read_socket(&mut self) -> usize {
        let Some(mut rx) = self.rx.take() else { return 0 };
        let mut bufs = std::mem::take(&mut rx.bufs);
        let (mut frames, mut alive) = (0, true);
        while frames < INBOUND_DRAIN {
            // A panicking backend is a fatal error like any other.
            let read = catch_unwind(AssertUnwindSafe(|| rx.backend.recv_batch(&rx.pool, batch::RECV_BATCH, &mut bufs)))
                .unwrap_or_else(|_| Err(io::Error::other("recv step panicked")));
            let got = match read {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    alive = self.rx_failed(&mut rx, classify(e.kind()), &e);
                    break;
                }
            };
            rx.supervisor.succeeded();
            let drops = rx.backend.kernel_drops();
            if drops > rx.drops_seen {
                self.wire.counters.inbound_overflow.add(drops - rx.drops_seen);
                rx.drops_seen = drops;
            }
            // One stamp per batch: one syscall drained these datagrams, so
            // they share an arrival time as far as the queue stage can tell.
            let at = self.clock.now();
            let batch: usize = bufs.iter().map(RecvFrame::frame_count).sum();
            if let Some(m) = &self.wire.reg {
                m.batch_recv.record(batch as f64);
            }
            frames += batch;
            for f in bufs.drain(..) {
                self.route(&mut rx, at, f);
            }
            for (mb, unrung) in rx.shards.iter().zip(rx.unrung.iter_mut()) {
                if std::mem::take(unrung) {
                    mb.bell.ring();
                }
            }
            // A short batch emptied the socket.
            if got < batch::RECV_BATCH {
                break;
            }
        }
        rx.bufs = bufs;
        self.rx = alive.then_some(rx);
        frames
    }

    /// Walk one received buffer here, or hand it to the shard hosting its
    /// group. With one reactor there is nothing to decide and the full
    /// decode judges every frame. With several, only the envelope prefix is
    /// read: when every segment prechecks to the same shard (always true
    /// for plain datagrams) the whole pooled buffer is walked here or moves
    /// on zero-copy; a GRO buffer straddling shards is split per segment,
    /// with copies for the other shards, and counted in `demux_splits`.
    fn route(&mut self, rx: &mut Rx, at: SimTime, f: RecvFrame) {
        let n = rx.shards.len();
        if n == 0 {
            return self.walk(at, f.seg_size, &f.buf);
        }
        let data: &[u8] = &f.buf;
        let stride = match f.seg_size as usize {
            0 => data.len().max(1),
            s => s,
        };
        // First pass over the segment prefixes only: where does each go?
        let mut target: Option<usize> = None;
        let mut uniform = true;
        for chunk in data.chunks(stride) {
            match Envelope::precheck(chunk) {
                Ok(group) => {
                    let s = shard_of(group, n);
                    uniform &= *target.get_or_insert(s) == s;
                }
                // A bad segment inside an otherwise-routable buffer forces
                // the split path, so the good segments survive and the bad
                // one is counted exactly once, there.
                Err(_) => uniform = false,
            }
        }
        let Some(shard) = target else {
            // Nothing prechecks: count each segment and drop the lot.
            let (frames, why) = (f.frame_count() as u64, &"envelope precheck failed");
            return count_undecodable(&self.wire.counters, frames, &self.wire.label, why);
        };
        if uniform {
            return match shard {
                0 => self.walk(at, f.seg_size, &f.buf),
                _ => forward(rx, &self.wire.counters, shard, at, f),
            };
        }
        self.wire.counters.demux_splits.inc();
        for chunk in data.chunks(stride) {
            match Envelope::precheck(chunk) {
                Ok(group) => match shard_of(group, n) {
                    0 => self.walk(at, 0, chunk),
                    s => {
                        let f = RecvFrame { buf: PoolBuf::copied_from(chunk), seg_size: 0 };
                        forward(rx, &self.wire.counters, s, at, f);
                    }
                },
                Err(e) => count_undecodable(&self.wire.counters, 1, &self.wire.label, &e),
            }
        }
    }

    /// Once the supervisor's pause is over, read again — on a rebuilt
    /// socket when the verdict was a respawn.
    fn resume_rx(&mut self) {
        let now = self.clock.now();
        let due = |rx: &mut Rx| rx.paused.is_some_and(|(until, _)| until <= now);
        let Some(mut rx) = self.rx.take_if(due) else { return };
        if let Some((_, Some(attempt))) = rx.paused.take() {
            self.wire.counters.recv_respawns.inc();
            eprintln!("{}: read path respawned (attempt {attempt})", self.wire.label);
            self.note(&rx, obs::TransportEventKind::RecvRespawn { attempt });
            if let Err(e) = rx.rebuild() {
                if !self.rx_failed(&mut rx, ErrorClass::Fatal, &e) {
                    return;
                }
            }
        }
        self.rx = Some(rx);
    }

    /// Count a read failure, record it, and pause the read path for as
    /// long as the supervisor says; `false` once the budget is spent and
    /// the path is to be dropped.
    fn rx_failed(&mut self, rx: &mut Rx, class: ErrorClass, e: &io::Error) -> bool {
        let transient = class == ErrorClass::Transient;
        if transient {
            self.wire.counters.recv_transient_errors.inc();
        } else {
            eprintln!("{}: fatal recv error: {e}", self.wire.label);
        }
        self.note(rx, obs::TransportEventKind::SocketError { detail: e.to_string(), transient });
        let (after, respawn) = match rx.supervisor.failed(class) {
            Verdict::Retry(after) => (after, None),
            Verdict::Respawn { attempt, after } => (after, Some(attempt)),
            Verdict::GiveUp => {
                self.wire.counters.recv_deaths.inc();
                let reason = format!("respawn budget exhausted: {e}");
                eprintln!("{}: {reason}", self.wire.label);
                self.note(rx, obs::TransportEventKind::RecvExit { reason });
                return false;
            }
        };
        let until = self.clock.now().as_nanos() + after.as_nanos() as u64;
        rx.paused = Some((SimTime::from_nanos(until), respawn));
        true
    }

    /// Record a read-path event here and on every other shard, so it lands
    /// in the stream of whichever traced member is read, on whichever
    /// reactor. Supervision events are rare; waiting for inbox room is fine.
    fn note(&mut self, rx: &Rx, kind: obs::TransportEventKind) {
        let at = self.clock.now();
        // The read path lives on reactor 0.
        for mb in rx.shards.iter().skip(1) {
            mb.post(Event::Transport(at, kind.clone()));
        }
        self.wire.log.record(at, kind);
    }

    /// Fire the timers that were due at one clock reading taken on entry,
    /// at most as many per group as its wheel held then, and release due
    /// held-back frames. Bounded on purpose: a handler that re-arms itself
    /// at zero delay (distance 0 ⇒ request interval `[0,0]`) gets its next
    /// turn on the next wakeup, after the flush and the inbound window —
    /// draining "until nothing is expired" would never reach either.
    fn fire_due(&mut self) {
        let now = self.clock.now();
        for host in self.groups.values_mut() {
            for _ in 0..host.io.wheel.len() {
                let Some(token) = host.io.wheel.pop_expired(now) else { break };
                drive(&mut self.wire, host, |a, d| a.drive_timer(d, token));
            }
            // The chaos verdict already ran when these were queued, so a
            // frame is acted on at most once. It goes out at a reading taken
            // after the timers above ran, so the quota's clock never steps
            // back.
            while let Some(held) = host.io.delayq.pop_due(now) {
                let at = host.io.clock.now();
                emit(&mut self.wire, &mut host.io, at, held.group, held.payload, held.opts);
            }
        }
    }

    /// Walk one received buffer into the agents. A plain datagram is one
    /// frame; a GRO-coalesced buffer is walked at its segment stride (the
    /// envelope length field re-validates every chunk, so a mis-sliced
    /// boundary surfaces as a decode error, never a bad frame). Headers
    /// are read out of the pooled slab in place; the first frame that gets
    /// past the filters copies the whole buffer into one shared allocation,
    /// and every frame's payload is a slice of it — one allocation per
    /// buffer, of up to 64 frames, not one per frame. Returning recycles
    /// the slab to the receive pool.
    fn walk(&mut self, recv_at: SimTime, seg: u32, data: &[u8]) {
        let stride = match seg as usize {
            0 => data.len().max(1),
            s => s,
        };
        let mut shared: Option<Bytes> = None;
        // An empty datagram is still one (undecodable) frame.
        let chunks = data.chunks(stride).chain(data.is_empty().then_some(data));
        for (chunk, at) in chunks.zip((0..).step_by(stride)) {
            // Stage clocks: one extra clock read per stage, only when a
            // registry is attached.
            let dequeued = self.wire.reg.as_ref().map(|m| {
                let now = self.clock.now();
                m.stage_queue.record(now.since(recv_at).as_secs_f64());
                now
            });
            // Zero-copy decode: every field reads straight out of the
            // pooled slab.
            let env = match Envelope::decode_view(chunk) {
                Ok(env) => env,
                Err(e) => {
                    self.wire.log.record(
                        self.clock.now(),
                        obs::TransportEventKind::DecodeError { reason: e.label().to_string() },
                    );
                    count_undecodable(&self.wire.counters, 1, &self.wire.label, &e);
                    continue;
                }
            };
            if let (Some(m), Some(t0)) = (&self.wire.reg, dequeued) {
                m.stage_decode.record(self.clock.now().since(t0).as_secs_f64());
            }
            // Self-delivery (multicast loopback echo) and traffic for
            // groups nobody here joined are the network's job to withhold
            // in the simulator; filter them here — before the buffer copy.
            let host = self.wire.routes.get(&env.group).and_then(|key| self.groups.get_mut(key));
            let Some(host) = host else {
                // Not silent: a well-formed frame for a group nobody here
                // joined almost always means a misconfigured peer or a hub
                // group that was never created — count it and sample a
                // log line so the mismatch is visible.
                let unjoined = &self.wire.counters.rx_unjoined_group;
                unjoined.inc();
                let n = unjoined.get();
                if n <= 5 || n.is_multiple_of(1024) {
                    eprintln!(
                        "{}: dropping frame from {} for unjoined group {} ({n} total) — \
                         sender misconfigured, or group not created here",
                        self.wire.label, env.src, env.group
                    );
                }
                continue;
            };
            if env.src == host.io.src || env.ttl == 0 {
                continue;
            }
            self.wire.counters.frames_received.inc();
            if let Some(m) = &self.wire.reg {
                m.rx[flow_slot(env.flow)].inc();
            }
            host.rx_frames += 1;
            let pkt = Packet::new(
                // One observable hop on a mesh; real multicast hop counts
                // would need the received IP TTL, which std sockets cannot
                // read.
                env.ttl.saturating_sub(1),
                PacketBody {
                    id: PacketId(host.rx_frames),
                    src: NodeId(env.src),
                    group: GroupId(env.group),
                    dest: None,
                    initial_ttl: env.initial_ttl,
                    admin_scoped: env.admin_scoped,
                    flow: env.flow,
                    size: chunk.len() as u32,
                    payload: shared
                        .get_or_insert_with(|| Bytes::copy_from_slice(data))
                        .slice(at + HEADER_LEN..at + chunk.len()),
                },
            );
            let handle_t0 = self.wire.reg.as_ref().map(|_| self.clock.now());
            drive(&mut self.wire, host, |a, d| a.drive_packet(d, &pkt));
            if let (Some(m), Some(t0)) = (&self.wire.reg, handle_t0) {
                m.stage_handle.record(self.clock.now().since(t0).as_secs_f64());
            }
        }
    }

    /// Raise the queue peaks, and refresh the per-group and per-reactor
    /// registry entries when a registry is attached.
    fn publish(&self) {
        let counters = &self.wire.counters;
        let (mut wheel_len, mut delayq_len) = (0u64, 0u64);
        for host in self.groups.values() {
            host.publish();
            wheel_len += host.io.wheel.len() as u64;
            delayq_len += host.io.delayq.len() as u64;
        }
        counters.max_wheel_len.raise(wheel_len);
        counters.max_delayq_len.raise(delayq_len);
        let Some(m) = &self.wire.reg else { return };
        let ((rx_used, rx_cap), rx_misses) =
            self.rx.as_ref().map_or(((0, 0), 0), |rx| (rx.pool.occupancy(), rx.pool.stats().1));
        let (tx_used, tx_cap) = self.wire.tx_pool.occupancy();
        m.pool_in_use.set(rx_used + tx_used);
        m.pool_capacity.set(rx_cap + tx_cap);
        m.pool_misses.set_total(rx_misses + self.wire.tx_pool.stats().1);
        m.groups.set(self.groups.len() as u64);
        m.wheel_depth.set(wheel_len);
        m.delayq_depth.set(delayq_len);
    }
}

/// Count `n` undecodable frames and sample a log line: the first few in
/// full, then one per 256, so a corruption storm cannot flood stderr.
fn count_undecodable(counters: &Counters, n: u64, label: &str, why: &dyn std::fmt::Display) {
    counters.decode_errors.add(n);
    let total = counters.decode_errors.get();
    if total <= 5 || total / 256 != (total - n) / 256 {
        eprintln!("{label}: rejected undecodable datagram ({why}); {total} total");
    }
}

/// Hand one buffer to `shard`'s inbox without waiting; its bell rings once
/// the read batch is routed. A full inbox sheds the buffer and counts every
/// frame it carried as `inbound_overflow`: SRM repairs the gap exactly as
/// it would wire loss. A shard that is gone takes nothing.
fn forward(rx: &mut Rx, counters: &Counters, shard: usize, at: SimTime, f: RecvFrame) {
    let frames = f.frame_count() as u64;
    match rx.shards[shard].tx.try_send(Event::Forward(at, f.seg_size, f.buf)) {
        Ok(()) => rx.unrung[shard] = true,
        Err(mpsc::TrySendError::Full(_)) => {
            counters.inbound_overflow.add(frames);
        }
        Err(mpsc::TrySendError::Disconnected(_)) => {}
    }
}

/// How long a reactor may sleep at `now` when `deadline` is the earliest
/// thing it must do: to the nanosecond and never rounded up — a 300-µs
/// chaos release or timer must not slip to the next millisecond — at most
/// `IDLE_WAIT`, and zero once the deadline has passed.
fn wait_timeout(now: SimTime, deadline: Option<SimTime>) -> Duration {
    match deadline {
        Some(at) if at > now => Duration::from_nanos(at.since(now).as_nanos()).min(IDLE_WAIT),
        Some(_) => Duration::ZERO,
        None => IDLE_WAIT,
    }
}

/// How long a handle waits for a reactor's reply before declaring it
/// wedged.
pub(crate) const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// One host's snapshot, the same rollup on a node and on a hub: every
/// reactor's group rows that come back within [`RPC_TIMEOUT`], sorted by
/// group id, then the shared counters.
pub(crate) fn stats(mailboxes: &[Mailbox], counters: &Counters) -> TransportStats {
    let mut groups = Vec::new();
    for mb in mailboxes {
        let reply = submit(mb, |r| r.group_stats()).map(|rx| rx.recv_timeout(RPC_TIMEOUT));
        if let Some(Ok(mut rows)) = reply {
            groups.append(&mut rows);
        }
    }
    groups.sort_by_key(|g| g.group);
    counters.read(groups)
}

/// The member id `id` as the envelope's 32-bit source field carries it:
/// an id that does not fit is refused, since two members whose ids were
/// cut to one value would drop each other's frames as their own echo.
pub(crate) fn envelope_src(id: srm::SourceId) -> Result<u32, String> {
    u32::try_from(id.0)
        .map_err(|_| format!("member id {} does not fit the envelope's 32-bit source field", id.0))
}

/// Everything [`build`] sets up for a host: the reactors, ready to be
/// moved onto threads of the caller's making, and the way into each.
pub(crate) struct Plant {
    /// One per reactor, index-aligned with `reactors`.
    pub mailboxes: Vec<Mailbox>,
    pub reactors: Vec<Reactor>,
    pub counters: Arc<Counters>,
}

/// Build a host around `socket`: `n` reactors, each sending on its own
/// clones of the socket (cloned here, so a failure is the caller's
/// `io::Error`), and reactor 0 reading it.
pub(crate) fn build(
    socket: UdpSocket,
    n: usize,
    kind: HostKind,
    batch: BatchOptions,
    metrics: Option<obs::MetricsRegistry>,
) -> io::Result<Plant> {
    // One call covers every clone: dup'd descriptors share the socket,
    // and the batched senders can burst whole flushes into this buffer.
    batch::configure_socket_buffers(&socket, batch.socket_bufs);
    // So does the file status: every clone is non-blocking, and a send
    // that finds the send buffer full is a counted `send_errors`, not a
    // stalled reactor.
    socket.set_nonblocking(true)?;
    // Without a caller's registry the counters live in a private one.
    let counters = Arc::new(Counters::register(&metrics.clone().unwrap_or_default()));
    let clock = WallClock::new();
    let mut mailboxes = Vec::with_capacity(n);
    let mut reactors = Vec::with_capacity(n);
    for index in 0..n {
        // Bounded: a hub shard whose inbox is full sheds forwarded frames
        // (counted as `inbound_overflow`) instead of growing without
        // limit; commands and supervision events wait for room.
        let (tx, inbox) = mpsc::sync_channel::<Event>(INBOUND_CAPACITY);
        let bell = Arc::new(Bell::new()?);
        mailboxes.push(Mailbox { tx, bell: Arc::clone(&bell) });
        let wire = Wire {
            label: kind.label(index),
            routes: BTreeMap::new(),
            // The backend owns its own descriptor clone; this one stays
            // for multicast socket options.
            socket: socket.try_clone()?,
            batch: make_backend(socket.try_clone()?, &batch),
            counters: Arc::clone(&counters),
            log: obs::TransportLog::new(),
            tx_pool: BufferPool::new(batch::POOL_SLABS, TX_SLAB_BYTES),
            queue: Vec::new(),
            frames: Vec::new(),
            results: Vec::new(),
            reg: metrics.as_ref().map(|r| RegHandles::new(r, index, kind)),
        };
        reactors.push(Reactor {
            index,
            clock: clock.clone(),
            wire,
            groups: BTreeMap::new(),
            inbox,
            bell,
            rx: None,
        });
    }
    let shards = if n > 1 { mailboxes.clone() } else { Vec::new() };
    reactors[0].rx = Some(Rx {
        backend: make_backend(socket.try_clone()?, &batch),
        master: socket,
        opts: batch,
        make: make_backend,
        // `POOL_SLABS` bounds the receive-side memory at `POOL_SLABS *
        // MAX_DATAGRAM`, with exact-size heap copies (counted misses)
        // covering the overflow.
        pool: BufferPool::new(batch::POOL_SLABS, MAX_DATAGRAM),
        bufs: Vec::with_capacity(batch::RECV_BATCH),
        unrung: vec![false; shards.len()],
        shards,
        supervisor: Supervisor::new(SupervisePolicy::default()),
        paused: None,
        drops_seen: 0,
    });
    Ok(Plant { mailboxes, reactors, counters })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srm::{SourceId, SrmConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    #[test]
    fn wait_timeout_keeps_nanoseconds_clamps_and_never_goes_negative() {
        let now = SimTime::from_nanos(5_000_000_123);
        let after = |ns: u64| Some(SimTime::from_nanos(now.as_nanos() + ns));
        assert_eq!(wait_timeout(now, after(300_001)), Duration::from_nanos(300_001));
        assert_eq!(wait_timeout(now, after(1)), Duration::from_nanos(1), "not rounded up");
        assert_eq!(wait_timeout(now, after(0)), Duration::ZERO);
        assert_eq!(wait_timeout(now, Some(SimTime::from_nanos(7))), Duration::ZERO, "in the past");
        let just_under = IDLE_WAIT - Duration::from_nanos(1);
        assert_eq!(wait_timeout(now, after(just_under.as_nanos() as u64)), just_under);
        assert_eq!(wait_timeout(now, after(60_000_000_000)), IDLE_WAIT, "clamped");
        assert_eq!(wait_timeout(now, None), IDLE_WAIT);
    }

    /// Reads made on any [`Failing`] backend, across rebuilds.
    static FAILING_READS: AtomicUsize = AtomicUsize::new(0);

    /// A backend whose reads fail by script — transient, fatal, a panic,
    /// then fatal for good — and whose sends all succeed.
    struct Failing;

    impl BatchSocket for Failing {
        fn recv_batch(&mut self, _: &BufferPool, _: usize, _: &mut Vec<RecvFrame>) -> io::Result<usize> {
            match FAILING_READS.fetch_add(1, Ordering::SeqCst) {
                0 => Err(io::Error::new(io::ErrorKind::ConnectionReset, "scripted reset")),
                2 => panic!("scripted recv panic"),
                _ => Err(io::Error::new(io::ErrorKind::PermissionDenied, "scripted fatal")),
            }
        }

        fn send_batch(&mut self, frames: &[SendFrame<'_>], results: &mut Vec<io::Result<()>>) {
            results.extend(frames.iter().map(|_| Ok(())));
        }

        fn backend_name(&self) -> &'static str {
            "failing"
        }
    }

    fn failing(_: UdpSocket, _: &BatchOptions) -> Box<dyn BatchSocket> {
        Box::new(Failing)
    }

    /// The read path's supervision, end to end on a reactor thread: the
    /// default policy's one transient retry, five respawns and one death
    /// are counted and logged, and a reactor that has stopped reading
    /// still answers `exec` and fires the timer it had armed before.
    #[test]
    fn a_failing_socket_is_supervised_and_the_reactor_outlives_it() {
        const GROUP: u32 = 3;
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = socket.local_addr().unwrap();
        let plant = build(socket, 1, HostKind::Node(1), BatchOptions::default(), None).unwrap();
        let Plant { mailboxes, mut reactors, counters } = plant;
        let mut reactor = reactors.remove(0);
        let rx = reactor.rx.as_mut().unwrap();
        rx.make = failing;
        rx.backend = failing(rx.master.try_clone().unwrap(), &rx.opts);
        let mut opts = NodeOptions::new(SourceId(1), GroupId(GROUP), SrmConfig::fixed(2));
        opts.session_enabled = false;
        opts.trace = true;
        let hosting = Hosting {
            src: 1,
            keep_deliveries: true,
            quota: None,
            members: 2,
            reg_prefix: String::new(),
        };
        reactor.host(Mode::Mesh { peers: vec![] }, opts, hosting);
        // Armed before anything fails, due well after the ~0.31 s of
        // backoffs the supervisor takes to give up.
        reactor.with_group(GROUP, |_, d| d.set_timer(SimDuration::from_secs(3), u64::MAX));
        let thread = std::thread::spawn(move || reactor.run());
        let mb = &mailboxes[0];
        let armed = || submit(mb, |r| r.groups[&GROUP].io.wheel.len()).unwrap().recv().unwrap();

        // The failing backend never consumes, so one datagram keeps the
        // socket readable for every read the script needs.
        UdpSocket::bind("127.0.0.1:0").unwrap().send_to(b"x", addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while counters.recv_deaths.get() == 0 {
            assert!(Instant::now() < deadline, "the budget never ran out");
            std::thread::sleep(Duration::from_millis(10));
        }
        let s = counters.read(Vec::new());
        assert_eq!((s.recv_transient_errors, s.recv_respawns, s.recv_deaths), (1, 5, 1));
        assert_eq!(armed(), 1, "the timer fired early");
        let deadline = Instant::now() + Duration::from_secs(10);
        while armed() > 0 {
            assert!(Instant::now() < deadline, "a timer armed before the failure never fired");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(FAILING_READS.load(Ordering::SeqCst), 7, "a dead socket is not read again");

        let log = |r: &mut Reactor| {
            r.with_group(GROUP, |a, _| a.transport_obs.events().map(|e| e.kind.clone()).collect())
        };
        let events: Vec<obs::TransportEventKind> = submit(mb, log).unwrap().recv().unwrap().unwrap();
        use obs::TransportEventKind::{RecvExit, RecvRespawn, SocketError};
        let errors = |t: bool| {
            events.iter().filter(|k| matches!(k, SocketError { transient, .. } if *transient == t)).count()
        };
        assert_eq!((errors(true), errors(false)), (1, 6), "{events:?}");
        let respawns: Vec<u32> = events
            .iter()
            .filter_map(|k| match k {
                RecvRespawn { attempt } => Some(*attempt),
                _ => None,
            })
            .collect();
        assert_eq!(respawns, [1, 2, 3, 4, 5]);
        let exits: Vec<&String> = events
            .iter()
            .filter_map(|k| match k {
                RecvExit { reason } => Some(reason),
                _ => None,
            })
            .collect();
        assert!(matches!(exits[..], [r] if r.contains("respawn budget exhausted")), "{exits:?}");
        assert!(events.iter().any(|k| matches!(k, SocketError { detail, .. } if detail.contains("panicked"))));

        mb.post(Event::Shutdown);
        thread.join().unwrap();
    }
}
