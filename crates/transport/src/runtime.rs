//! The wall-clock node runtime: one [`SrmAgent`] over one live UDP socket.
//!
//! A node is the one-group case of the reactor in `reactor.rs`: one
//! thread, one group hosted before the loop starts, and a socket of its
//! own that the reactor reads itself. [`Node::spawn_on`] builds exactly
//! that and hands back a [`NodeHandle`]; everything that happens on the
//! thread — the supervised socket reads, the timer/flush/drain loop, the
//! [`srm::Driver`] seam, the chaos decorator — is the code `srm-hub` runs
//! for each of its groups.
//! What a node adds is that deliveries stay queued on the agent for
//! [`NodeHandle::take_delivered`], and that shutdown returns the agent.
//!
//! Two [`Mode`]s cover deployment and CI:
//!
//! - [`Mode::Multicast`]: real IP multicast via `join_multicast_v4`; group
//!   ids map onto a contiguous block of group addresses. A failed join (no
//!   multicast route on the interface) is recorded as a `socket_error`
//!   event and logged to stderr; the node stays in multicast mode.
//! - [`Mode::Mesh`]: a unicast fan-out to an explicit peer list. Multicast
//!   on a loopback interface needs `SO_REUSEADDR`/`SO_REUSEPORT` to share
//!   one port between processes, which `std::net` cannot set, so CI runs a
//!   127.0.0.1 mesh instead: every send is replicated to every peer, which
//!   is exactly the group-delivery model with a one-hop star topology.
//!
//! A [`ChaosPlan`]'s drop rules ([`ChaosPlan::drop_nth`], per flow,
//! optionally per destination) give tests a deterministic way to force
//! the losses SRM exists to repair. They and the plan's blackhole windows
//! are applied on the per-destination fan-out, RNG-free, so they never
//! perturb the seeded chaos draw sequence.
//!
//! ## Frame accounting
//!
//! Every per-destination send attempt is counted exactly once:
//!
//! ```text
//! frames_attempted == frames_sent + frames_dropped + blackholed + send_errors
//! ```
//!
//! (chaos drop/delay decisions and quota refusals act *before* the fan-out
//! and are tallied separately). The soak harness asserts this invariant,
//! which is what "zero unexplained drops" means operationally.

use crate::batch::BatchOptions;
use crate::chaos::ChaosPlan;
use crate::hub::GroupStats;
use crate::reactor::{self, Event, HostKind, Hosting, Mailbox, Plant};
use bytes::Bytes;
use netsim::{GroupId, SimDuration};
use srm::agent::Delivery;
use srm::{AduName, Driver, PageId, SourceId, SrmAgent, SrmConfig};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How the runtime reaches the rest of the group.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Unicast fan-out: every multicast is sent once to each peer address.
    /// The loopback deployment for CI and single-host demos.
    Mesh {
        /// The other members' socket addresses.
        peers: Vec<SocketAddr>,
    },
    /// Real IP multicast. [`GroupId`] `g` maps to the group address
    /// `base.ip() + g` (same port), so the session group and any
    /// local-recovery groups the agent allocates land on distinct
    /// addresses; pick a base with headroom inside 239.0.0.0/8.
    Multicast {
        /// Base group address and port.
        base: SocketAddrV4,
    },
}

impl Mode {
    /// Members this fan-out reaches, self included (unknowable under true
    /// multicast, where it is just us).
    pub(crate) fn group_size(&self) -> usize {
        match self {
            Mode::Mesh { peers } => peers.len() + 1,
            Mode::Multicast { .. } => 1,
        }
    }

    pub(crate) fn group_addr(base: SocketAddrV4, group: GroupId) -> SocketAddrV4 {
        let ip = Ipv4Addr::from(u32::from(*base.ip()).wrapping_add(group.0));
        SocketAddrV4::new(ip, base.port())
    }
}

/// Events a live trace keeps per recorder: each is a ring of the most
/// recent `TRACE_RING` events, and what it evicts is counted
/// (`dropped_events`). Minutes of traffic for `srm-node`, which drains its
/// rings about once a second; the simulator's recorders stay unbounded.
pub const TRACE_RING: usize = 65_536;

/// Per-member configuration: what [`Node::spawn`] takes, and what
/// [`HubHandle::create_with`](crate::HubHandle::create_with) hosts on a hub
/// (where the per-socket field, `batch`, does not apply: the hub's socket
/// runs the defaults).
#[derive(Debug)]
pub struct NodeOptions {
    /// This member's persistent Source-ID (also the envelope's node id).
    pub id: SourceId,
    /// The session's multicast group.
    pub group: GroupId,
    /// Protocol configuration, shared with the simulator.
    pub cfg: SrmConfig,
    /// Seed for this node's timer RNG. The simulator draws every node's
    /// timers from one simulation-global seeded RNG; on a real network each
    /// host has its own, which is the deployment the paper describes. The
    /// chaos RNG is derived from this seed (salted), so one seed replays
    /// both the protocol's timers and the chaos schedule.
    pub seed: u64,
    /// Run periodic session messages (on for any real deployment; tests of
    /// a single recovery round may disable them and seed distances).
    pub session_enabled: bool,
    /// Enable the obs event recorders (recovery + transport) from the
    /// start, each a ring of [`TRACE_RING`] events.
    pub trace: bool,
    /// Live metrics registry.  When set, the node's transport counters are
    /// registered in it (`frames_sent`, `chaos_dropped`, …: the cells
    /// [`NodeHandle::stats`] reads, so one registry serves one host), and
    /// the reactor updates hot-path counters/gauges/histograms (frames by
    /// kind, stage latencies, queue depths, per-group liveness and store
    /// mirrors) that a [`StatsSink`](crate::StatsSink) can snapshot concurrently.  `None`
    /// (the default, and always in simulator runs) costs one branch per
    /// instrumented site.
    pub metrics: Option<obs::MetricsRegistry>,
    /// Pre-seeded distance estimates (assumed-converged state, as the
    /// figure experiments use). Live session messages refine them.
    pub initial_distances: Vec<(SourceId, SimDuration)>,
    /// Scripted chaos applied to every outgoing frame, forced drops
    /// included.
    pub chaos: Option<ChaosPlan>,
    /// Track peer liveness from session-message silence.
    pub liveness: Option<srm::LivenessConfig>,
    /// Durable ADU store (`srm-node --store DIR`). When set, the reactor
    /// opens the write-ahead log before the agent starts, rehydrates any
    /// existing contents (restart-after-crash), reads repairs through the
    /// bounded cache, and flushes on clean shutdown. `None` (the default)
    /// keeps the agent purely in-memory.
    pub store: Option<StoreOptions>,
    /// Socket buffer size and the portable-backend override.
    pub batch: BatchOptions,
}

/// Durable-store configuration for one node.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory holding the WAL segments (created if missing).
    pub dir: PathBuf,
    /// WAL tuning: fsync policy, segment size, snapshot cadence.
    pub config: srm_store::StoreConfig,
    /// Keep at most this many payloads per stream in RAM; older ones are
    /// served from the log. `None` keeps everything resident (still
    /// logged).
    pub cache_per_stream: Option<usize>,
}

impl StoreOptions {
    /// Defaults for `dir`: default WAL tuning, unbounded cache.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreOptions {
            dir: dir.into(),
            config: srm_store::StoreConfig::default(),
            cache_per_stream: None,
        }
    }
}

impl NodeOptions {
    /// Defaults: sessions on, no trace, no chaos, no liveness
    /// tracking, seed derived from the member id.
    pub fn new(id: SourceId, group: GroupId, cfg: SrmConfig) -> Self {
        NodeOptions {
            id,
            group,
            cfg,
            seed: 0x5EED_0000 ^ id.0,
            session_enabled: true,
            trace: false,
            metrics: None,
            initial_distances: Vec::new(),
            chaos: None,
            liveness: None,
            store: None,
            batch: BatchOptions::default(),
        }
    }
}
/// Declares the host's transport counters once. Each entry becomes a
/// [`TransportStats`] field, the registry cell behind it in `Counters`
/// (an `obs::Counter`, or under `peaks` an `obs::Gauge` that only
/// rises), and a row of [`TransportStats::counters`] named by the field.
macro_rules! host_counters {
    (
        counters { $($(#[$cdoc:meta])+ $count:ident,)+ }
        peaks { $($(#[$pdoc:meta])+ $peak:ident,)+ }
    ) => {
        /// Counters shared by one host's reactors and its handle (a node
        /// has one group behind them, a hub all of its groups). Each is the
        /// registry handle itself, registered once by `reactor::build`, so
        /// a registry snapshot and a [`TransportStats`] read the same cells.
        #[derive(Debug)]
        pub(crate) struct Counters {
            $(pub(crate) $count: obs::Counter,)+
            $(pub(crate) $peak: obs::Gauge,)+
        }

        impl Counters {
            /// Register every host counter in `reg` under its field's name,
            /// unprefixed, on a node and on a hub alike.
            pub(crate) fn register(reg: &obs::MetricsRegistry) -> Counters {
                Counters {
                    $($count: reg.counter(stringify!($count)),)+
                    $($peak: reg.gauge(stringify!($peak)),)+
                }
            }

            /// Read every cell into a snapshot carrying `groups`.
            pub(crate) fn read(&self, groups: Vec<GroupStats>) -> TransportStats {
                TransportStats {
                    groups,
                    $($count: self.$count.get(),)+
                    $($peak: self.$peak.get(),)+
                }
            }
        }

        /// A point-in-time snapshot of one host: its hosted groups' rows and
        /// its transport counters, the same on a node and on a hub.
        ///
        /// Satisfies the frame-accounting invariant
        /// `frames_attempted == frames_sent + frames_dropped + blackholed +
        /// send_errors` whenever the reactors are quiescent (the soak
        /// harness checks it after shutdown).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct TransportStats {
            /// Every hosted group, sorted by group id (stable across shard
            /// assignment); a node has its one group here.
            pub groups: Vec<GroupStats>,
            $($(#[$cdoc])+ pub $count: u64,)+
            $($(#[$pdoc])+ pub $peak: u64,)+
        }

        /// A host's transport counters by field name: [`TransportStats::counters`].
        pub type HostRow = [(&'static str, u64); [$(stringify!($count),)+ $(stringify!($peak),)+].len()];

        impl TransportStats {
            /// Every transport counter, named by its field: the one list a
            /// node's and a hub's registry, the hub's `stats` reply and
            /// `srm-hub`'s exit line all print.
            pub fn counters(&self) -> HostRow {
                [$((stringify!($count), self.$count),)+ $((stringify!($peak), self.$peak),)+]
            }
        }
    };
}

host_counters! {
    counters {
        /// Per-destination send attempts reaching the socket layer.
        frames_attempted,
        /// Frames put on the wire (per peer in mesh mode).
        frames_sent,
        /// Frames suppressed by the chaos plan's drop rules.
        frames_dropped,
        /// Frames accepted from the socket (post filtering).
        frames_received,
        /// Per-destination frames swallowed by chaos blackhole windows.
        blackholed,
        /// `send_to` calls that returned an error.
        send_errors,
        /// Frames dropped by the chaos plan before the fan-out.
        chaos_dropped,
        /// Extra frame copies injected by the chaos plan.
        chaos_duplicated,
        /// Frames held back on the chaos delay queue.
        chaos_delayed,
        /// Frames damaged by the chaos plan.
        chaos_corrupted,
        /// Inbound datagrams (or GRO segments) that failed the envelope
        /// precheck or decode.
        decode_errors,
        /// Transient recv errors retried in place by the supervisor.
        recv_transient_errors,
        /// Socket rebuilds after fatal recv errors or panics.
        recv_respawns,
        /// Read paths that exhausted the respawn budget and stopped for good.
        recv_deaths,
        /// Inbound datagrams lost because the host fell behind: dropped by
        /// the kernel from a full socket receive buffer (`SO_RXQ_OVFL`, where
        /// the backend reads it), or shed from a full hub shard inbox. SRM's
        /// recovery machinery repairs the gaps, exactly as for wire loss.
        inbound_overflow,
        /// Well-formed frames addressed to a group this host does not
        /// host, dropped by the cheap filter before any payload copy. A
        /// nonzero count usually means a peer is misconfigured — sending
        /// here with the wrong `--group`, or to a hub group that was never
        /// `create`d.
        rx_unjoined_group,
        /// GRO buffers whose segments straddled reactors and had to be split
        /// with per-segment copies; always zero with one reactor (a node).
        demux_splits,
    }
    peaks {
        /// High-water mark of one reactor's timer wheels (including
        /// lazy-cancelled slots).
        max_wheel_len,
        /// High-water mark of one reactor's chaos delay queues.
        max_delayq_len,
        /// High-water mark of a reactor's send queue, in frames: at most
        /// [`SEND_BATCH`](crate::batch::SEND_BATCH), since a full batch is
        /// flushed at once.
        max_sendq_len,
    }
}

impl TransportStats {
    /// Does this snapshot satisfy the per-destination frame accounting
    /// invariant? (Only meaningful once the reactors have stopped.)
    pub fn frames_accounted(&self) -> bool {
        self.frames_attempted
            == self.frames_sent + self.frames_dropped + self.blackholed + self.send_errors
    }
}
/// Spawner for node runtimes.
pub struct Node;

impl Node {
    /// Bind `bind` and start a runtime there.
    pub fn spawn(bind: SocketAddr, mode: Mode, opts: NodeOptions) -> io::Result<NodeHandle> {
        Node::spawn_on(UdpSocket::bind(bind)?, mode, opts)
    }

    /// Start a runtime on an already-bound socket (the harness binds all
    /// sockets first so every node can list the others as peers): one
    /// reactor, this one group hosted before the loop starts.
    pub fn spawn_on(socket: UdpSocket, mode: Mode, opts: NodeOptions) -> io::Result<NodeHandle> {
        let src = reactor::envelope_src(opts.id).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let addr = socket.local_addr()?;
        let (id, group) = (opts.id, opts.group.0);
        let Plant { mut mailboxes, mut reactors, counters } = reactor::build(
            socket,
            1,
            HostKind::Node(id.0),
            opts.batch,
            opts.metrics.clone(),
        )?;
        // `build(.., 1, ..)` returns exactly one reactor and its mailbox.
        let mut reactor = reactors.remove(0);
        let hosting = Hosting {
            src,
            keep_deliveries: true,
            quota: None,
            members: mode.group_size(),
            reg_prefix: String::new(),
        };
        let thread = thread::Builder::new().name(format!("srm-node-{}", id.0)).spawn(move || {
            reactor.host(mode, opts, hosting);
            reactor.run().into_agent(group)
        })?;
        Ok(NodeHandle { mb: mailboxes.remove(0), thread: Some(thread), addr, id, group, counters })
    }
}

/// Client handle to a running node; drop (or [`NodeHandle::shutdown`])
/// stops it.
pub struct NodeHandle {
    mb: Mailbox,
    thread: Option<thread::JoinHandle<SrmAgent>>,
    addr: SocketAddr,
    id: SourceId,
    group: u32,
    counters: Arc<Counters>,
}

impl NodeHandle {
    /// The socket address this node receives on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The member id this node runs as.
    pub fn id(&self) -> SourceId {
        self.id
    }

    /// Run `f` against the live agent on the reactor thread and return its
    /// result — the wall-clock `Simulator::exec`.
    ///
    /// # Panics
    /// Panics if the runtime has already stopped.
    pub fn exec<R, F>(&self, f: F) -> R
    where
        F: FnOnce(&mut SrmAgent, &mut dyn Driver) -> R + Send + 'static,
        R: Send + 'static,
    {
        let group = self.group;
        reactor::submit(&self.mb, move |r| r.with_group(group, f))
            .expect("node runtime is running")
            .recv()
            .expect("node runtime answered")
            .expect("a node hosts its group until shutdown")
    }

    /// Liveness probe for the reactor itself: round-trip a no-op exec
    /// within `timeout`. `false` means the reactor is deadlocked, wedged
    /// behind a long callback, or gone.
    pub fn ping(&self, timeout: Duration) -> bool {
        reactor::submit(&self.mb, |_| ()).is_some_and(|rx| rx.recv_timeout(timeout).is_ok())
    }

    /// Multicast a new ADU on `page`; returns its name.
    pub fn send_data(&self, page: PageId, payload: Bytes) -> AduName {
        self.exec(move |a, d| a.send_data(d, page, payload))
    }

    /// Drain ADUs delivered to the application since the last call.
    pub fn take_delivered(&self) -> Vec<Delivery> {
        self.exec(|a, _| a.take_delivered())
    }

    /// Frames put on the wire (per peer in mesh mode).
    pub fn frames_sent(&self) -> u64 {
        self.counters.frames_sent.get()
    }

    /// Frames suppressed by the chaos plan's drop rules.
    pub fn frames_dropped(&self) -> u64 {
        self.counters.frames_dropped.get()
    }

    /// Frames accepted from the socket (post filtering).
    pub fn frames_received(&self) -> u64 {
        self.counters.frames_received.get()
    }

    /// Snapshot the node: its group's row (none if the reactor does not
    /// answer in time), then every transport counter — the rollup a hub's
    /// [`HubHandle::stats`](crate::HubHandle::stats) runs.
    pub fn stats(&self) -> TransportStats {
        reactor::stats(std::slice::from_ref(&self.mb), &self.counters)
    }

    /// Stop the runtime and take the final agent (metrics, recorders, and
    /// store intact) for harvesting.
    pub fn shutdown(mut self) -> SrmAgent {
        self.mb.post(Event::Shutdown);
        // A reactor that panicked (an `exec` closure, the agent) panics its
        // owner here rather than handing back nothing.
        self.thread
            .take()
            .expect("shutdown consumes the handle, so the thread is still here")
            .join()
            .expect("node runtime exited cleanly")
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        if let Some(t) = self.thread.take() {
            self.mb.post(Event::Shutdown);
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_addresses_are_contiguous_from_base() {
        let base: SocketAddrV4 = "239.66.66.0:7400".parse().unwrap();
        assert_eq!(
            Mode::group_addr(base, GroupId(1)),
            "239.66.66.1:7400".parse().unwrap()
        );
        assert_eq!(
            Mode::group_addr(base, GroupId(300)),
            "239.66.67.44:7400".parse().unwrap()
        );
    }

    #[test]
    fn a_member_id_past_32_bits_is_refused_before_the_node_starts() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let opts = NodeOptions::new(SourceId(1 << 32), GroupId(1), SrmConfig::fixed(2));
        let err = Node::spawn_on(socket, Mode::Mesh { peers: vec![] }, opts).err().expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("4294967296"), "{err}");
    }

    #[test]
    fn stats_frame_accounting_starts_balanced() {
        let s = TransportStats::default();
        assert!(s.frames_accounted());
    }
}