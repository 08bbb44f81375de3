//! Fig 5: the delay-vs-duplicates tradeoff in a star as the request
//! interval width `C2` sweeps 0..100, with the analysis of Section IV-B
//! overlaid.
//!
//! Setup: a 100-member star (non-member hub), the congested link adjacent
//! to the source, `C1 = 2`. Increasing `C2` raises the expected request
//! delay slightly (`+C2·d/G`) while cutting the expected number of requests
//! roughly as `1 + (G−2)/C2`.
//!
//! Repair timers use `D1 = D2 = 1` so the single repairer (only the source
//! holds the data) answers promptly; the paper leaves the D-parameters of
//! this section unspecified (see DESIGN.md §6).

use crate::par::parallel_map;
use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use srm::{SrmConfig, TimerParams};
use srm_analysis::star;

/// Star size (paper: 100).
pub fn group_size(opts: &RunOpts) -> usize {
    if opts.quick {
        30
    } else {
        100
    }
}

/// The C2 sweep.
pub fn c2_values(opts: &RunOpts) -> Vec<f64> {
    if opts.quick {
        vec![0.0, 2.0, 5.0, 10.0, 30.0, 100.0]
    } else {
        let mut v: Vec<f64> = (0..=20).map(|i| i as f64).collect();
        v.extend((5..=20).map(|i| (i * 5) as f64));
        v.dedup();
        v
    }
}

/// One sweep point's aggregate.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Interval width parameter.
    pub c2: f64,
    /// Mean request delay over RTT (closest affected member).
    pub sim_delay: f64,
    /// Mean number of requests.
    pub sim_requests: f64,
    /// Analytic delay (Section IV-B).
    pub ana_delay: f64,
    /// Analytic request count.
    pub ana_requests: f64,
}

/// Run the sweep.
pub fn points(opts: &RunOpts) -> Vec<Point> {
    let g = group_size(opts);
    let sims = if opts.quick { 5 } else { 20 };
    let inputs: Vec<f64> = c2_values(opts);
    parallel_map(inputs, opts.threads, |c2| {
        let mut delays = Vec::new();
        let mut requests = Vec::new();
        for rep in 0..sims {
            let spec = ScenarioSpec::round(
                TopoSpec::Star { leaves: g },
                MembersSpec::All,
                DropSpec::AdjacentToSource,
                SrmConfig {
                    timers: TimerParams {
                        c1: 2.0,
                        c2,
                        d1: 1.0,
                        d2: 1.0,
                    },
                    ..SrmConfig::default()
                },
                0x0500_0000 ^ ((c2 as u64) << 16) ^ rep,
            );
            let mut s = spec.build();
            let r = run_round(&mut s, 100_000.0);
            assert!(r.all_recovered);
            requests.push(r.requests as f64);
            if let Some(d) = r.closest_member_request_delay(&s) {
                delays.push(d);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (ana_delay, ana_requests) = star::fig5_point(g, 2.0, c2);
        Point {
            c2,
            sim_delay: mean(&delays),
            sim_requests: mean(&requests),
            ana_delay,
            ana_requests,
        }
    })
}

/// The figure as a table: simulation next to analysis.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let g = group_size(opts);
    let mut t = Table::new(
        format!("fig5: star of {g} members — delay vs duplicate requests as C2 varies (C1=2)"),
        &[
            "C2",
            "sim_delay/RTT",
            "sim_requests",
            "analysis_delay/RTT",
            "analysis_requests",
        ],
    );
    for p in points(opts) {
        t.row(vec![
            f(p.c2),
            f(p.sim_delay),
            f(p.sim_requests),
            f(p.ana_delay),
            f(p.ana_requests),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tradeoff_shape_holds() {
        let opts = RunOpts {
            quick: true,
            threads: 4,
        };
        let pts = points(&opts);
        let first = pts.first().unwrap(); // C2 = 0
        let last = pts.last().unwrap(); // C2 = 100
        // Many requests at C2=0 (everyone fires), few at C2=100.
        assert!(
            first.sim_requests > last.sim_requests * 3.0,
            "requests must fall sharply: {} -> {}",
            first.sim_requests,
            last.sim_requests
        );
        // Delay rises with C2.
        assert!(last.sim_delay > first.sim_delay);
        // Simulation tracks analysis on the request count within ~2x.
        for p in &pts {
            if p.ana_requests > 2.0 {
                let ratio = p.sim_requests / p.ana_requests;
                assert!(
                    (0.4..=2.5).contains(&ratio),
                    "c2={} sim={} ana={}",
                    p.c2,
                    p.sim_requests,
                    p.ana_requests
                );
            }
        }
    }
}
