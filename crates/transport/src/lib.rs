//! # srm-transport — SRM over live UDP sockets
//!
//! The bridge from reproduction to system: a wall-clock runtime that hosts
//! the *unmodified* [`SrmAgent`](srm::SrmAgent) — the exact protocol engine
//! every simulated figure runs — on real `std::net::UdpSocket`s, through
//! the [`srm::Driver`] seam.
//!
//! Pieces:
//!
//! - [`WallClock`]: monotonic elapsed time on the simulator's
//!   [`SimTime`](netsim::SimTime) axis.
//! - [`TimerWheel`]: one-shot timers on the simulator's own deadline queue
//!   ([`netsim::DeadlineQueue`]), cancelled by the simulator's own rule: a
//!   popped timer fires only if it is still in the map of live timers.
//! - [`Envelope`]: the datagram frame carrying the simulator packet
//!   metadata (source, TTL, scope, flow) around the untouched
//!   [`srm::wire`] message encoding.
//! - [`Node`] / [`NodeHandle`] and [`Hub`] / [`HubHandle`]: the two ways
//!   to start the one reactor — a loop that sleeps in one `ppoll` on its
//!   socket and its doorbell, reads datagrams itself and interleaves them
//!   with [`TimerWheel`] deadlines for every group it hosts. A node is one
//!   reactor hosting one group on its own socket; a hub is N reactors
//!   hosting groups on demand behind one, which reactor 0 reads.
//! - [`Mode`]: real IP multicast (`join_multicast_v4`) or a unicast
//!   loopback mesh (the CI-friendly stand-in for group delivery).
//! - [`ChaosPlan`]: scripted faults on the send path, including the
//!   deterministic forced drops recovery tests use; reordered frames wait
//!   on a [`DelayQueue`], the same deadline queue again.
//! - [`Harness`]: in-process multi-node loopback sessions.
//!
//! The `srm-node` binary wraps all of this in a CLI (`join` / `send`,
//! `--trace FILE` for obs JSONL timelines).
//!
//! ## Example: two members on loopback
//!
//! ```no_run
//! use srm_transport::Harness;
//! use srm::{SrmConfig, SourceId, PageId};
//! use netsim::GroupId;
//! use bytes::Bytes;
//!
//! let cfg = SrmConfig::fixed(2);
//! let h = Harness::loopback(2, GroupId(1), &cfg, |_, _, _| {}).unwrap();
//! let page = PageId::new(SourceId(1), 0);
//! h.nodes[0].send_data(page, Bytes::from_static(b"over real sockets"));
//! std::thread::sleep(std::time::Duration::from_millis(200));
//! assert_eq!(h.nodes[1].take_delivered().len(), 1);
//! ```

// `deny`, not `forbid`: the one FFI module (`batch::ffi`, the
// recvmmsg/sendmmsg/eventfd/ppoll declarations) carries a scoped allow;
// everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod chaos;
pub mod clock;
pub mod control;
pub mod envelope;
pub mod harness;
pub mod hub;
pub mod monitor;
pub mod pool;
mod reactor;
pub mod runtime;
pub mod sink;
pub mod soak;
pub mod supervise;
pub mod wheel;

pub use batch::{
    configure_socket_buffers, enter_batch_scheduling, make_backend, BatchOptions, BatchSocket,
    PortableSocket, RecvFrame, SendFrame,
};
pub use chaos::{parse_spec, ChaosPlan, ChaosState, DelayQueue};
pub use clock::WallClock;
pub use control::{handle_line, parse_command, Command, GroupSpec};
pub use envelope::{Envelope, EnvelopeError, EnvelopeView};
pub use harness::Harness;
pub use hub::{
    group_seed, shard_of, CreateOutcome, GroupStats, Hub, HubHandle, HubOptions,
    HubStats,
};
pub use monitor::{GroupMonitor, MemberHealth};
pub use pool::{BufferPool, PoolBuf};
pub use runtime::{HostRow, Mode, Node, NodeHandle, NodeOptions, StoreOptions, TransportStats};
pub use sink::StatsSink;
pub use soak::{SoakOptions, SoakReport};
pub use supervise::{classify, ErrorClass, SupervisePolicy, Supervisor, Verdict};
pub use wheel::TimerWheel;
