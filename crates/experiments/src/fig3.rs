//! Fig 3: loss recovery on random labeled trees where *all* nodes are
//! session members (density 1), fixed timer parameters `C1 = D1 = 2`,
//! `C2 = D2 = √G`, a single random packet drop per simulation.
//!
//! Paper shape: median ≈ 1 request and ≈ 1 repair at every session size;
//! the last member's recovery delay is under ≈ 2 RTT.

use crate::par::parallel_map;
use crate::quartiles::summarize;
use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use srm::SrmConfig;

/// One simulation's harvest.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Session size.
    pub size: usize,
    /// Requests sent in the round.
    pub requests: u64,
    /// Repairs sent in the round.
    pub repairs: u64,
    /// Last member's recovery delay over its RTT to the source.
    pub delay_over_rtt: f64,
}

/// Session sizes exercised.
pub fn sizes(opts: &RunOpts) -> Vec<usize> {
    if opts.quick {
        vec![10, 20, 40]
    } else {
        vec![10, 20, 30, 40, 60, 80, 100]
    }
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
        let spec = ScenarioSpec::round(
            TopoSpec::RandomTree { n: size },
            MembersSpec::All, // density 1
            DropSpec::RandomTreeLink,
            SrmConfig::fixed(size),
            0x0300_0000 ^ ((size as u64) << 20) ^ rep,
        );
        let mut s = spec.build();
        let r = run_round(&mut s, 100_000.0);
        assert!(r.all_recovered, "fig3 round failed to recover");
        Sample {
            size,
            requests: r.requests,
            repairs: r.repairs,
            delay_over_rtt: r.last_member_delay_over_rtt(&s).unwrap_or(0.0),
        }
    })
}

/// Produce the three panels of the figure as tables.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let all = samples(opts);
    tables("fig3", "random trees, density 1", &all, &sizes(opts))
}

/// Shared table builder for Fig 3/4/14-style panels.
pub fn tables(tag: &str, desc: &str, all: &[Sample], sizes: &[usize]) -> Vec<Table> {
    let mut t_req = Table::new(
        format!("{tag} (a): requests per loss — {desc}"),
        &["session_size", "median", "q1", "q3", "mean", "max"],
    );
    let mut t_rep = Table::new(
        format!("{tag} (b): repairs per loss — {desc}"),
        &["session_size", "median", "q1", "q3", "mean", "max"],
    );
    let mut t_del = Table::new(
        format!("{tag} (c): last-member recovery delay / RTT — {desc}"),
        &["session_size", "median", "q1", "q3", "mean", "max"],
    );
    for &size in sizes {
        let of = |sel: &dyn Fn(&Sample) -> f64| -> Vec<f64> {
            all.iter().filter(|s| s.size == size).map(sel).collect()
        };
        for (t, vals) in [
            (&mut t_req, of(&|s| s.requests as f64)),
            (&mut t_rep, of(&|s| s.repairs as f64)),
            (&mut t_del, of(&|s| s.delay_over_rtt)),
        ] {
            if let Some(s) = summarize(&vals) {
                t.row(vec![
                    size.to_string(),
                    f(s.median),
                    f(s.q1),
                    f(s.q3),
                    f(s.mean),
                    f(s.max),
                ]);
            }
        }
    }
    vec![t_req, t_rep, t_del]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_matches_paper_shape() {
        let opts = RunOpts {
            quick: true,
            threads: 4,
        };
        let all = samples(&opts);
        assert!(!all.is_empty());
        // Dense random trees: requests and repairs stay near 1.
        let reqs: Vec<f64> = all.iter().map(|s| s.requests as f64).collect();
        let m = crate::quartiles::summarize(&reqs).unwrap();
        assert!(m.median <= 2.0, "median requests {} should be ~1", m.median);
        let reps: Vec<f64> = all.iter().map(|s| s.repairs as f64).collect();
        let m = crate::quartiles::summarize(&reps).unwrap();
        assert!(m.median <= 2.0, "median repairs {} should be ~1", m.median);
    }

    #[test]
    fn tables_have_all_sizes() {
        let opts = RunOpts {
            quick: true,
            threads: 4,
        };
        let tables = run(&opts);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.rows.len(), sizes(&opts).len());
        }
    }
}
