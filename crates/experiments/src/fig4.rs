//! Fig 4: sparse sessions in a large bounded-degree tree (1000 nodes,
//! interior degree 4), fixed timer parameters, random congested link.
//!
//! Paper shape: "the average number of repairs for each loss is somewhat
//! high" — duplicate repairs grow well above 1 because the members near the
//! congested link may be far apart, weakening deterministic suppression.

use crate::fig3::{tables, Sample};
use crate::par::parallel_map;
use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::Table;
use crate::RunOpts;
use srm::SrmConfig;

/// Underlying network size (paper: 1000 nodes, degree 4).
pub const NET_NODES: usize = 1000;
/// Interior node degree.
pub const NET_DEGREE: usize = 4;

/// Session sizes exercised.
pub fn sizes(opts: &RunOpts) -> Vec<usize> {
    if opts.quick {
        vec![10, 20, 50]
    } else {
        vec![10, 20, 50, 100, 150, 200]
    }
}

/// The scenario for (session size, replicate) — shared with Fig 14.
pub fn spec(size: usize, rep: u64, cfg: SrmConfig) -> ScenarioSpec {
    ScenarioSpec::round(
        TopoSpec::BoundedTree {
            n: NET_NODES,
            degree: NET_DEGREE,
        },
        MembersSpec::Random(size),
        DropSpec::RandomTreeLink,
        cfg,
        0x0400_0000 ^ ((size as u64) << 20) ^ rep,
    )
}

/// Run all simulations for the figure.
pub fn samples(opts: &RunOpts) -> Vec<Sample> {
    let sims = if opts.quick { 5 } else { 20 };
    let mut inputs = Vec::new();
    for size in sizes(opts) {
        for rep in 0..sims {
            inputs.push((size, rep as u64));
        }
    }
    parallel_map(inputs, opts.threads, |(size, rep)| {
        let mut s = spec(size, rep, SrmConfig::fixed(size)).build();
        let r = run_round(&mut s, 100_000.0);
        assert!(r.all_recovered, "fig4 round failed to recover");
        Sample {
            size,
            requests: r.requests,
            repairs: r.repairs,
            delay_over_rtt: r.last_member_delay_over_rtt(&s).unwrap_or(0.0),
        }
    })
}

/// Produce the figure's panels.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let all = samples(opts);
    tables(
        "fig4",
        "1000-node degree-4 tree, sparse sessions, fixed timers",
        &all,
        &sizes(opts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Fig. 4 session's build and its warm round compute each root's
    /// shortest-path tree exactly once: the builder's source tree and the
    /// member-distance trees are the simulator's forwarding trees.
    #[test]
    fn a_session_computes_each_roots_tree_once() {
        for rep in 0..3 {
            let mut s = spec(50, rep, SrmConfig::fixed(50)).build();
            let members = s.members.len() as u64;
            assert_eq!(s.sim.routes_computed(), members, "rep {rep}: after the build");
            let forwarding = s.sim.route(s.source);
            assert!(std::rc::Rc::ptr_eq(s.source_tree(), &forwarding), "rep {rep}");
            let r = run_round(&mut s, 100_000.0);
            assert!(r.all_recovered && r.requests + r.repairs > 0, "rep {rep}");
            assert_eq!(s.sim.routes_computed(), members, "rep {rep}: after the warm round");
        }
    }

    #[test]
    fn sparse_sessions_recover_with_more_duplicates_than_dense() {
        let opts = RunOpts {
            quick: true,
            threads: 4,
        };
        let sparse = samples(&opts);
        assert!(!sparse.is_empty());
        // Everything recovered (asserted inside), and there is at least one
        // scenario with duplicate repairs or requests — sparse sessions are
        // where fixed timers struggle (that is the figure's point).
        let max_total = sparse
            .iter()
            .map(|s| s.requests + s.repairs)
            .max()
            .unwrap();
        assert!(
            max_total >= 3,
            "expected some duplicate-heavy sparse round, max requests+repairs = {max_total}"
        );
    }
}
