//! Typed transport-layer events: chaos actions, socket errors, reactor
//! supervision, and peer-liveness transitions.
//!
//! The recovery [`Recorder`](crate::Recorder) stream is ADU-keyed and pinned
//! by golden-trace files, so transport-level happenings (a frame eaten by the
//! chaos plan, a rebuilt socket, a peer declared dead) get their own
//! event vocabulary and their own log, a [`TransportLog`](crate::TransportLog):
//! the same [`EventLog`](crate::log::EventLog) as the recovery recorder, so
//! disabled by default, a single branch when off, and never touching
//! protocol RNG or timers.
//!
//! [`Timeline`](crate::Timeline) merges transport records into the same
//! deterministic JSONL stream (transport lines sort just after same-instant
//! recovery events of the same member). The log is the timeline's source,
//! not a tally: the live transport counts each event once, in its
//! registry-backed counters.

use std::fmt::Write as _;

use netsim::{SimDuration, SimTime};

use crate::event::fmt_time;

/// One transport-layer happening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEventKind {
    /// The chaos plan dropped an outgoing frame (Bernoulli or burst loss).
    ChaosDrop {
        /// Flow label of the dropped frame (data/request/repair/session...).
        flow: u32,
    },
    /// The chaos plan sent an extra copy of an outgoing frame.
    ChaosDuplicate {
        /// Flow label of the duplicated frame.
        flow: u32,
    },
    /// The chaos plan held an outgoing frame back in the delay queue.
    ChaosDelay {
        /// Flow label of the delayed frame.
        flow: u32,
        /// How long the frame was held before release.
        by: SimDuration,
    },
    /// The chaos plan flipped bits in an outgoing frame's header.
    ChaosCorrupt {
        /// Flow label of the corrupted frame.
        flow: u32,
    },
    /// A frame towards one destination was swallowed by an active
    /// blackhole/partition window.
    Blackholed {
        /// Flow label of the swallowed frame.
        flow: u32,
    },
    /// A socket call failed: a read on the reactor's supervised read path,
    /// a send, or a multicast join.
    SocketError {
        /// `io::ErrorKind`-style label, e.g. `"connection reset"`.
        detail: String,
        /// Whether the supervisor classified it transient (retried) or fatal.
        transient: bool,
    },
    /// The read path's supervisor rebuilt the socket (a fresh clone, or a
    /// fresh bind) after a panic or fatal read error.
    RecvRespawn {
        /// 1-based respawn attempt number.
        attempt: u32,
    },
    /// The read path's supervisor gave up: the reactor stops reading the
    /// socket but keeps firing timers; `reason` explains why.
    RecvExit {
        /// Exit reason, e.g. `"shutdown"` or `"respawn budget exhausted"`.
        reason: String,
    },
    /// An inbound datagram failed envelope/wire decoding.
    DecodeError {
        /// Decode failure class, e.g. `"truncated"` or `"length_mismatch"`.
        reason: String,
    },
    /// High-water marks of the reactor's queues, recorded once at reactor
    /// shutdown (live depths are registry gauges; this pins the peaks into
    /// the offline stream).
    QueueHighWater {
        /// Peak timer-wheel length over the reactor's lifetime.
        wheel: u64,
        /// Peak chaos DelayQueue length over the reactor's lifetime.
        delayq: u64,
    },
    /// A peer previously suspect/dead was heard from again.
    PeerAlive {
        /// The peer's member id.
        peer: u64,
    },
    /// A peer missed enough session intervals to be suspect.
    PeerSuspect {
        /// The peer's member id.
        peer: u64,
    },
    /// A peer missed enough session intervals to be declared dead.
    PeerDead {
        /// The peer's member id.
        peer: u64,
    },
    /// The durable ADU store was replayed after a restart: the member
    /// rejoined with its page catalog rebuilt from the write-ahead log.
    StoreRehydrate {
        /// ADU records recovered from the log.
        adus: u64,
        /// Log segments replayed.
        segments: u64,
        /// Bytes dropped from the log tail (torn or corrupt final record).
        truncated_bytes: u64,
    },
    /// A repair was served by reading the payload back from the durable
    /// store — the ADU had been evicted from (or never re-entered) RAM.
    StoreDiskRepair,
}

impl TransportEventKind {
    /// Stable snake_case name used in JSONL output and filters.
    pub fn name(&self) -> &'static str {
        match self {
            TransportEventKind::ChaosDrop { .. } => "chaos_drop",
            TransportEventKind::ChaosDuplicate { .. } => "chaos_duplicate",
            TransportEventKind::ChaosDelay { .. } => "chaos_delay",
            TransportEventKind::ChaosCorrupt { .. } => "chaos_corrupt",
            TransportEventKind::Blackholed { .. } => "blackholed",
            TransportEventKind::SocketError { .. } => "socket_error",
            TransportEventKind::RecvRespawn { .. } => "recv_respawn",
            TransportEventKind::RecvExit { .. } => "recv_exit",
            TransportEventKind::DecodeError { .. } => "decode_error",
            TransportEventKind::QueueHighWater { .. } => "queue_high_water",
            TransportEventKind::PeerAlive { .. } => "peer_alive",
            TransportEventKind::PeerSuspect { .. } => "peer_suspect",
            TransportEventKind::PeerDead { .. } => "peer_dead",
            TransportEventKind::StoreRehydrate { .. } => "store_rehydrate",
            TransportEventKind::StoreDiskRepair => "store_disk_repair",
        }
    }

    /// Append this kind's detail fields as `,"k":v` JSON fragments.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        match self {
            TransportEventKind::ChaosDrop { flow }
            | TransportEventKind::ChaosDuplicate { flow }
            | TransportEventKind::ChaosCorrupt { flow }
            | TransportEventKind::Blackholed { flow } => {
                let _ = write!(out, ",\"flow\":{flow}");
            }
            TransportEventKind::ChaosDelay { flow, by } => {
                let _ = write!(out, ",\"flow\":{},\"by\":{}", flow, fmt_time(SimTime::ZERO + *by));
            }
            TransportEventKind::SocketError { detail, transient } => {
                let _ = write!(
                    out,
                    ",\"detail\":\"{}\",\"transient\":{}",
                    crate::json_escape(detail),
                    transient
                );
            }
            TransportEventKind::RecvRespawn { attempt } => {
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            TransportEventKind::RecvExit { reason } => {
                let _ = write!(out, ",\"reason\":\"{}\"", crate::json_escape(reason));
            }
            TransportEventKind::DecodeError { reason } => {
                let _ = write!(out, ",\"reason\":\"{}\"", crate::json_escape(reason));
            }
            TransportEventKind::QueueHighWater { wheel, delayq } => {
                let _ = write!(out, ",\"wheel\":{wheel},\"delayq\":{delayq}");
            }
            TransportEventKind::PeerAlive { peer }
            | TransportEventKind::PeerSuspect { peer }
            | TransportEventKind::PeerDead { peer } => {
                let _ = write!(out, ",\"peer\":{peer}");
            }
            TransportEventKind::StoreRehydrate { adus, segments, truncated_bytes } => {
                let _ = write!(
                    out,
                    ",\"adus\":{adus},\"segments\":{segments},\"truncated_bytes\":{truncated_bytes}"
                );
            }
            TransportEventKind::StoreDiskRepair => {}
        }
    }
}

/// A captured transport event: timestamp + kind + log-local sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportRecord {
    /// Time on the node's clock axis the event occurred.
    pub at: SimTime,
    /// What happened.
    pub kind: TransportEventKind,
    /// Log-local sequence number (monotone per log).
    pub seq: u64,
}
