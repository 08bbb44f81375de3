//! # srm — Scalable Reliable Multicast
//!
//! A Rust implementation of the SRM framework from *"A Reliable Multicast
//! Framework for Light-Weight Sessions and Application Level Framing"*
//! (Floyd, Jacobson, Liu, McCanne, Zhang — ACM SIGCOMM '95 / IEEE/ACM ToN
//! Dec 1997).
//!
//! SRM provides the *minimal* definition of reliable multicast — eventual
//! delivery of all data to all group members, with no ordering guarantees —
//! on top of the IP multicast group-delivery model, following the
//! Application Level Framing (ALF) principle: data is named in application
//! data units (`Source-ID : page : sequence`), names are unique and
//! persistent, and *any* member holding a copy can answer a retransmission
//! request.
//!
//! ## The framework
//!
//! - **Session messages** ([`session`], [`clock`]): low-rate periodic state
//!   reports that detect tail losses and carry timestamp echoes for
//!   NTP-style one-way distance estimation.
//! - **Loss recovery** ([`recovery`], [`timers`]): receiver-driven,
//!   multicast requests and repairs with distance-scaled random timers,
//!   duplicate suppression, exponential backoff, and a repair hold-down.
//! - **Adaptive timers** ([`adaptive`]): per-member adjustment of the
//!   `C1,C2,D1,D2` constants from observed duplicates and delay.
//! - **Local recovery** ([`local`]): TTL- and admin-scoped requests with
//!   one- and two-step repairs, and loss-neighborhood estimation from
//!   session-message loss fingerprints.
//! - **Rate control** ([`rate`], [`sendq`]): a token-bucket send limit with
//!   the paper's send priorities (current-page recovery > new data >
//!   old-page recovery).
//! - **Observability** ([`observe`]): bridge to the workspace `obs` layer —
//!   causal recovery-episode spans recorded per agent, run-level
//!   counter/histogram summaries, deterministic JSONL timelines.
//!
//! [`SrmAgent`] assembles all of it behind a small application API
//! (`send_data` / `take_delivered`) and runs over the deterministic
//! [`netsim`] simulator or, through the [`Driver`] seam, a live transport.
//! Its code in [`agent`] is split the same way as this list: the send path
//! under the rate limit (§III-E), the request side and the repair side of
//! loss recovery (§III-B), session messages (§III-A), local recovery
//! (§VII-B) and the crash/restart lifecycle each have a file of their own.
//!
//! ## Quick example
//!
//! ```
//! use srm::{SrmAgent, SrmConfig, SourceId, PageId};
//! use netsim::{Simulator, NodeId, GroupId, SimTime};
//! use netsim::generators::star;
//! use bytes::Bytes;
//!
//! let group = GroupId(1);
//! let mut sim = Simulator::new(star(3), 7);
//! for i in 1..=3u32 {
//!     let agent = SrmAgent::new(SourceId(i as u64), group, SrmConfig::fixed(3));
//!     sim.install(NodeId(i), agent);
//!     sim.join(NodeId(i), group);
//! }
//! let page = PageId::new(SourceId(1), 0);
//! sim.exec(NodeId(1), |a, ctx| {
//!     a.send_data(ctx, page, Bytes::from_static(b"draw a blue line"));
//! });
//! sim.run_until(SimTime::from_secs(5));
//! let got = sim.app_mut(NodeId(2)).unwrap().take_delivered();
//! assert_eq!(got.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod agent;
pub mod bandwidth;
pub mod clock;
pub mod config;
pub mod driver;
pub mod fec;
pub mod hierarchy;
pub mod liveness;
pub mod local;
pub mod metrics;
pub mod name;
pub mod observe;
pub mod rate;
pub mod recovery;
pub mod sendq;
pub mod session;
pub mod store;
pub mod timers;
pub mod wire;

pub use adaptive::AdaptiveTimers;
pub use agent::{Delivery, SrmAgent};
pub use clock::DistanceEstimator;
pub use driver::{Clock, Driver, Transport};
pub use fec::{FecConfig, Parity};
pub use hierarchy::{HierarchyConfig, HierarchyState, SessionScope};
pub use liveness::{LivenessConfig, PeerLiveness, PeerState};
pub use config::{RateLimit, RecoveryScope, SrmConfig, TimerParams};
pub use metrics::{AgentMetrics, CounterRow, FaultEpisode, RecoveryRecord, RepairRecord};
pub use name::{AduName, PageId, SeqNo, SourceId};
pub use observe::{enable_tracing, harvest_summary, harvest_timeline, RunSummary};
pub use store::{AduStore, Persistence, PersistenceStats, Rehydrated};
pub use wire::{Body, DataBody, Header, Message, RequestBody, SessionBody, WireError};
