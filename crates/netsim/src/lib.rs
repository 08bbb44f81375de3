//! # netsim — a deterministic multicast network simulator
//!
//! This crate is the substrate for the SRM reproduction: a discrete-event
//! simulator of an IP-multicast-capable internetwork, in the style of the
//! (non-public) LBNL simulator the paper used and of its successor ns-2.
//!
//! Highlights:
//!
//! - **Deterministic**: integer-nanosecond clock, insertion-stable event
//!   queue, one seeded RNG — a run is a pure function of its inputs.
//! - **Group delivery model** (Deering): senders multicast to a group
//!   address with no knowledge of membership; receivers join and leave
//!   independently; forwarding follows per-source shortest-path trees,
//!   pruned to member subtrees.
//! - **Hop-by-hop semantics**: per-link delays, loss models, Mbone-style
//!   TTL thresholds, and administrative scope boundaries all apply at each
//!   hop, which the SRM local-recovery machinery depends on.
//! - **Topology generators** for every family in the paper's evaluation:
//!   chains, stars, bounded-degree trees, uniformly random labeled trees
//!   (Prüfer), dense random graphs, and router+Ethernet clusters.
//!
//! ## Quick example
//!
//! ```
//! use netsim::{Simulator, Application, Ctx, Packet, GroupId, NodeId, SendOptions};
//! use netsim::generators::star;
//! use netsim::time::SimTime;
//! use bytes::Bytes;
//!
//! struct Counter(u32);
//! impl Application for Counter {
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: &Packet) { self.0 += 1; }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
//! }
//!
//! let mut sim = Simulator::new(star(3), 42);
//! let g = GroupId(0);
//! for i in 1..=3 {
//!     sim.install(NodeId(i), Counter(0));
//!     sim.join(NodeId(i), g);
//! }
//! sim.send_from(NodeId(1), g, Bytes::from_static(b"hi"), SendOptions::default());
//! sim.run_until_idle(SimTime::from_secs(10));
//! assert_eq!(sim.app(NodeId(2)).unwrap().0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod effects;
pub mod event;
pub mod faults;
pub mod generators;
pub mod log;
pub mod loss;
pub mod packet;
pub mod routing;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

pub use effects::{ChannelEffects, Ideal, RandomEffects};
pub use event::{DeadlineQueue, TimerId, TimerMap};
pub use faults::{partition_cut, FaultEvent, FaultPlan, NodeClock};
pub use packet::{flow, GroupId, Packet, PacketBody, PacketId, SendOptions, TTL_GLOBAL};
pub use routing::SpTree;
pub use sim::{Application, Ctx, Simulator};
pub use log::EventLog;
pub use stats::{Stats, TraceEvent};
pub use time::{SimDuration, SimTime};
pub use topology::{Link, LinkId, NodeId, Topology, TopologyBuilder};
