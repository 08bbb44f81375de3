//! Robustness sweep over the topology variations of Sections V-B and
//! VII-A: "These include topologies where each of the nodes in the
//! underlying network is a router with an adjacent Ethernet with 5
//! workstations, point-to-point topologies where the edges have a range of
//! propagation delays, and topologies where the underlying network is more
//! dense than a tree. None of these variations that we have explored have
//! significantly affected the performance of the loss recovery algorithms"
//! — plus the §VII-A list: 5000-node trees, degree-10 trees, and 1000-node
//! 1500-edge graphs.
//!
//! Expected shape: requests stay ~1 and repairs stay in the same small
//! band across every variation.

use crate::par::parallel_map;
use crate::quartiles::summarize;
use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use srm::SrmConfig;

/// The variations (label, topology).
pub fn variants(opts: &RunOpts) -> Vec<(&'static str, TopoSpec)> {
    if opts.quick {
        vec![
            ("tree-500-deg4", TopoSpec::BoundedTree { n: 500, degree: 4 }),
            ("graph-300-450e", TopoSpec::RandomGraph { n: 300, m: 450 }),
            (
                "ethernets-60x5",
                TopoSpec::EthernetClusters {
                    routers: 60,
                    hosts: 5,
                },
            ),
            ("delay-tree-300", TopoSpec::RandomDelayTree { n: 300 }),
        ]
    } else {
        vec![
            ("tree-1000-deg4", TopoSpec::BoundedTree { n: 1000, degree: 4 }),
            ("tree-5000-deg4", TopoSpec::BoundedTree { n: 5000, degree: 4 }),
            (
                "tree-1000-deg10",
                TopoSpec::BoundedTree {
                    n: 1000,
                    degree: 10,
                },
            ),
            ("graph-1000-1500e", TopoSpec::RandomGraph { n: 1000, m: 1500 }),
            (
                "ethernets-200x5",
                TopoSpec::EthernetClusters {
                    routers: 200,
                    hosts: 5,
                },
            ),
            ("delay-tree-1000", TopoSpec::RandomDelayTree { n: 1000 }),
        ]
    }
}

/// Run the sweep: adaptive timers, G = 50 members, random congested link,
/// measured at round 10 (post-convergence snapshot keeps the table small).
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let sims = if opts.quick { 4 } else { 15 };
    let rounds = if opts.quick { 5 } else { 10 };
    let g = 50usize;
    let inputs: Vec<(&'static str, TopoSpec, u64)> = variants(opts)
        .into_iter()
        .flat_map(|(label, topo)| (0..sims).map(move |rep| (label, topo, rep)))
        .collect();
    // A round that fails to recover becomes a failure row, not a panic: an
    // assert here would kill a worker thread and poison the whole sweep
    // (the other topologies' results would be lost with it).
    let results = parallel_map(inputs, opts.threads, move |(label, topo, rep)| {
        let mut spec = ScenarioSpec::round(
            topo,
            MembersSpec::Random(g),
            DropSpec::RandomTreeLink,
            SrmConfig::adaptive(g),
            0x0b00_0000 ^ ((rep + 1) << 4),
        );
        spec.timer_seed = Some(rep * 31 + 7);
        let mut s = spec.build();
        let mut last = (0u64, 0u64, 0.0f64);
        for round in 0..rounds {
            let r = run_round(&mut s, 1_000_000.0);
            if !r.all_recovered {
                return (label, Err(format!("round {round} did not recover")));
            }
            last = (
                r.requests,
                r.repairs,
                r.last_member_delay_over_rtt(&s).unwrap_or(0.0),
            );
        }
        (label, Ok(last))
    });

    let mut t = Table::new(
        format!("robustness: adaptive SRM, G={g}, round-{rounds} snapshot across topology variations"),
        &[
            "topology",
            "requests_med",
            "requests_max",
            "repairs_med",
            "repairs_max",
            "delay/RTT_med",
            "failures",
        ],
    );
    for (label, _) in variants(opts) {
        let sel: Vec<&Result<(u64, u64, f64), String>> = results
            .iter()
            .filter(|(l, _)| *l == label)
            .map(|(_, v)| v)
            .collect();
        let failures = sel.iter().filter(|r| r.is_err()).count();
        let ok: Vec<&(u64, u64, f64)> = sel.iter().filter_map(|r| r.as_ref().ok()).collect();
        let req: Vec<f64> = ok.iter().map(|v| v.0 as f64).collect();
        let rep: Vec<f64> = ok.iter().map(|v| v.1 as f64).collect();
        let del: Vec<f64> = ok.iter().map(|v| v.2).collect();
        match (summarize(&req), summarize(&rep), summarize(&del)) {
            (Some(sq), Some(sp), Some(sd)) => t.row(vec![
                label.to_string(),
                f(sq.median),
                f(sq.max),
                f(sp.median),
                f(sp.max),
                f(sd.median),
                failures.to_string(),
            ]),
            _ => t.row(vec![
                label.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                failures.to_string(),
            ]),
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_variation_breaks_the_algorithms() {
        let opts = RunOpts {
            quick: true,
            threads: 8,
        };
        let tables = run(&opts);
        assert_eq!(tables[0].rows.len(), variants(&opts).len());
        for row in &tables[0].rows {
            let failures: usize = row[6].parse().unwrap();
            assert_eq!(failures, 0, "{}: every round recovers", row[0]);
            let med_req: f64 = row[1].parse().unwrap();
            let med_rep: f64 = row[3].parse().unwrap();
            assert!(
                med_req <= 4.0,
                "{}: median requests {med_req} stays small",
                row[0]
            );
            assert!(
                med_rep <= 5.0,
                "{}: median repairs {med_rep} stays small",
                row[0]
            );
        }
    }
}
