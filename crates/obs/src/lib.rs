//! # obs — unified tracing & metrics for the SRM reproduction
//!
//! This crate is the observability substrate for the workspace.  It turns the
//! simulator from "prints CSVs" into an inspectable system by recording
//! **causal recovery-episode spans**: every ADU loss opens a span keyed by
//! `(member, AduKey)` that accumulates typed events — gap detected, request
//! timer set/backed-off/suppressed, request sent/heard, repair timer
//! set/cancelled, repair sent/heard, hold-down entered, recovered/gave-up —
//! each stamped with the deterministic simulation clock.
//!
//! Layering: `obs` depends only on [`netsim`] (for [`SimTime`]) so that the
//! protocol crate (`srm`), the experiment harness and the CLI can all depend
//! on it without cycles.  The protocol layer holds a [`Recorder`] per agent;
//! recorders are **disabled by default** and the record path is a single
//! branch when off, so instrumentation is zero-cost for every existing figure
//! run (their CSVs stay byte-identical).
//!
//! On top of the raw event stream:
//! * [`Timeline`] merges per-member event streams with [`FaultSpan`]s into a
//!   deterministic, stably-ordered sequence and exports JSONL;
//! * [`LogHistogram`] gives low-overhead log-scale histograms (recovery
//!   delay/RTT, duplicate requests/repairs, session-bandwidth share);
//! * [`MetricsRegistry`] is the live hosts' registry of named counters,
//!   gauges and histograms;
//! * [`stats`] holds the exact sample statistics (quartiles via linear
//!   interpolation) that the experiment figures have always used — moved
//!   here so figures and reports share one implementation;
//! * [`json`] is the workspace's one JSON reader and escaper — the JSONL
//!   exports here, the hub's control plane and the `srm-sim` scenario
//!   files all go through it;
//! * [`flags`] is the workspace's one command-line parser: a flag table per
//!   subcommand, typed reads, and the usage generated from the table.
//!
//! `obs` names no SRM counter. A member's counters and their one list of
//! names are the protocol crate's (`srm::AgentMetrics::counters`), and so
//! is the `report` table built from them (`srm::RunSummary`); a live host
//! mirrors that list into a [`MetricsRegistry`] under the names it gives.
//!
//! [`SimTime`]: netsim::SimTime

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flags;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod stats;
pub mod timeline;
pub mod transport;

pub use event::{AduKey, EventKind, FaultSpan, RecordedEvent, RecoveryVia};
pub use hist::LogHistogram;
pub use json::json_escape;
pub use metrics::{Counter, Gauge, Histo, MetricsRegistry, MetricsSnapshot};
pub use log::{EventLog, Recorder, TransportLog};
pub use stats::{summarize, Summary};
pub use timeline::{Chain, MemberEvent, Timeline};
pub use transport::{TransportEventKind, TransportRecord};
