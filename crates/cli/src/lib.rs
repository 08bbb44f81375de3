//! # srm-sim — scenario-driven SRM simulation
//!
//! Describe a topology, session, loss process, and workload in a JSON file
//! (see `scenarios/` at the repository root) and run it:
//!
//! ```text
//! srm-sim scenarios/lossy_tree.json
//! srm-sim --json scenarios/fec_stream.json   # machine-readable report
//! srm-sim --trace out.jsonl scenarios/lossy_tree.json  # episode timeline
//! ```
//!
//! A file's session is a [`scenario::ScenarioSpec`], the one scenario type
//! the figure harness builds its sessions from too; the schema lives in
//! [`spec`], the executor and report in [`run()`](run());
//! `--trace` additionally records every member's recovery-episode events
//! (via [`run_with_trace`]) and writes them as JSONL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod run;
pub mod scenario;
pub mod spec;

pub use run::{execute, run, run_with_trace, Report};
pub use scenario::RunError;
pub use spec::Scenario;
