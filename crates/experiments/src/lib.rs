//! # srm-experiments — the figure-regeneration harness
//!
//! One module per reproduced figure of the SRM paper's evaluation
//! (Sections V–VII), plus the analytic validation checks of Section IV.
//! Each module exposes `run(&RunOpts) -> Vec<Table>`; the `srm-experiments`
//! binary prints the tables and writes CSVs.
//!
//! | module | paper figure | claim it reproduces |
//! |--------|--------------|---------------------|
//! | [`fig3`]  | Fig 3  | dense random trees: ~1 request, ~1 repair, delay < 2 RTT |
//! | [`fig4`]  | Fig 4  | sparse sessions: duplicate repairs grow |
//! | [`fig5`]  | Fig 5  | star: delay/duplicates tradeoff + analysis overlay |
//! | [`fig6`]  | Fig 6  | chain: C2 = 0 optimal |
//! | [`fig7`]  | Fig 7  | dense trees: small C2 good on both axes |
//! | [`fig8`]  | Fig 8  | sparse trees: C2 buys fewer requests for more delay |
//! | [`fig12`] | Fig 12/13 | non-adaptive vs adaptive over 100 rounds |
//! | [`fig14`] | Fig 14 | adaptive at round 40 across the Fig 4 sweep |
//! | [`fig15`] | Fig 15 | two-step TTL local recovery coverage (+ mixed-threshold variant) |
//! | [`checks`] | §IV   | chain/star closed forms vs simulation |
//! | [`baseline_compare`] | §II-A / §VI \[29\] | ACK implosion; unicast vs multicast NACK bandwidth |
//! | [`robustness`] | §V-B / §VII-A | topology-variation sweep |
//! | [`faults`] | §I / §III robustness claim | partition/crash/flaky-link recovery |
//! | [`repair_sweep`] | §VI | duplicate repairs vs delay as D2 varies |
//! | [`adaptive_trace`] | §VII-A | timer-parameter trajectories |
//!
//! Besides the figures, the binary exposes two observability subcommands
//! backed by [`trace_cmd`]: `trace` dumps JSONL recovery-episode timelines
//! and `report` prints counter/histogram summaries (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive_trace;
pub mod baseline_compare;
pub mod checks;
pub mod faults;
pub mod fig12;
pub mod fig14;
pub mod fig15;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod monitor_cmd;
pub mod par;
pub mod quartiles;
pub mod repair_sweep;
pub mod robustness;
pub mod round;
pub mod table;
pub mod trace_cmd;

pub use round::{run_round, RoundResult};
/// The scenario vocabulary and its builder live in `srm-sim`, which reads
/// the same type from JSON; every figure builds its sessions with it.
pub use srm_sim::scenario;
pub use srm_sim::scenario::{DropSpec, ScenarioSpec, Session, TopoSpec};
pub use table::Table;

/// Global options for every figure driver.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Reduced sizes/replicates for CI and benches.
    pub quick: bool,
    /// Worker threads for independent simulations.
    pub threads: usize,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            quick: false,
            threads: par::default_threads(),
        }
    }
}

/// Every figure id the harness knows, in presentation order.
pub const FIGURES: &[&str] = &[
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig12", "fig13", "fig14", "fig15",
    "chain-check", "star-check", "baseline-compare", "robustness", "repair-sweep",
    "adaptive-trace", "faults",
];

/// Dispatch a figure by name.
pub fn run_figure(name: &str, opts: &RunOpts) -> Option<Vec<Table>> {
    Some(match name {
        "fig3" => fig3::run(opts),
        "fig4" => fig4::run(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" => fig7::run(opts),
        "fig8" => fig8::run(opts),
        "fig12" => fig12::run_fig12(opts),
        "fig13" => fig12::run_fig13(opts),
        "fig14" => fig14::run(opts),
        "fig15" => fig15::run(opts),
        "chain-check" => vec![checks::chain_check(opts)],
        "star-check" => vec![checks::star_check(opts)],
        "baseline-compare" => baseline_compare::run(opts),
        "robustness" => robustness::run(opts),
        "repair-sweep" => repair_sweep::run(opts),
        "adaptive-trace" => adaptive_trace::run(opts),
        "faults" => faults::run(opts),
        _ => return None,
    })
}
