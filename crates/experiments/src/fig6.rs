//! Fig 6: the delay-vs-duplicates tradeoff in a chain, with the failed edge
//! 1, 2, 5, or 10 hops from the source.
//!
//! Paper shape: "with a chain topology, setting C2 to zero gives the
//! optimal behavior both in terms of delay and in the number of duplicates
//! … While increasing C2 can increase the number of duplicates, the
//! magnitude of the increase is quite small."

use crate::par::parallel_map;
use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use srm::{SrmConfig, TimerParams};

/// Chain length (all nodes are members).
pub fn chain_len(opts: &RunOpts) -> usize {
    if opts.quick {
        30
    } else {
        100
    }
}

/// Hops from the source to the failed edge — the figure's four lines.
pub const HOPS: [u32; 4] = [1, 2, 5, 10];

/// The C2 sweep: "C2 ranges from 0 to 10 in increments of 1, and then from
/// 10 to 100 in increments of 10".
pub fn c2_values(opts: &RunOpts) -> Vec<f64> {
    if opts.quick {
        vec![0.0, 1.0, 5.0, 20.0, 100.0]
    } else {
        let mut v: Vec<f64> = (0..=10).map(|i| i as f64).collect();
        v.extend((2..=10).map(|i| (i * 10) as f64));
        v
    }
}

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Failed-edge distance from the source.
    pub hops: u32,
    /// Interval width parameter.
    pub c2: f64,
    /// Mean request delay over RTT of the closest affected member.
    pub delay: f64,
    /// Mean number of requests.
    pub requests: f64,
}

/// Run the sweep.
pub fn points(opts: &RunOpts) -> Vec<Point> {
    let n = chain_len(opts);
    let sims = if opts.quick { 4 } else { 20 };
    let mut inputs = Vec::new();
    for &hops in &HOPS {
        for c2 in c2_values(opts) {
            inputs.push((hops, c2));
        }
    }
    parallel_map(inputs, opts.threads, |(hops, c2)| {
        let mut delays = Vec::new();
        let mut requests = Vec::new();
        for rep in 0..sims {
            let spec = ScenarioSpec::round(
                TopoSpec::Chain { n },
                MembersSpec::All,
                DropSpec::HopsFromSource(hops),
                SrmConfig {
                    timers: TimerParams {
                        c1: 2.0,
                        c2,
                        d1: 1.0,
                        d2: 1.0,
                    },
                    ..SrmConfig::default()
                },
                0x0600_0000 ^ ((hops as u64) << 24) ^ ((c2 as u64) << 8) ^ rep,
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
        Point {
            hops,
            c2,
            delay: mean(&delays),
            requests: mean(&requests),
        }
    })
}

/// The figure as one table per failed-edge distance.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let pts = points(opts);
    HOPS.iter()
        .map(|&h| {
            let mut t = Table::new(
                format!("fig6: chain, failed edge {h} hop(s) from source (C1=2)"),
                &["C2", "delay/RTT", "requests"],
            );
            for p in pts.iter().filter(|p| p.hops == h) {
                t.row(vec![f(p.c2), f(p.delay), f(p.requests)]);
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2_zero_is_optimal_on_a_chain() {
        let opts = RunOpts {
            quick: true,
            threads: 4,
        };
        let pts = points(&opts);
        for &h in &HOPS {
            let line: Vec<&Point> = pts.iter().filter(|p| p.hops == h).collect();
            let at0 = line.iter().find(|p| p.c2 == 0.0).unwrap();
            // Exactly one request with deterministic timers.
            assert!(
                (at0.requests - 1.0).abs() < 1e-9,
                "hops={h}: C2=0 gives one request, got {}",
                at0.requests
            );
            // Duplicate growth with C2 is small (the paper: "quite small").
            let worst = line.iter().map(|p| p.requests).fold(0.0, f64::max);
            assert!(worst <= 4.0, "hops={h}: worst requests {worst} stays small");
            // Delay at C2=0 is minimal for the line.
            let min_delay = line.iter().map(|p| p.delay).fold(f64::MAX, f64::min);
            assert!(at0.delay <= min_delay + 1e-9);
        }
    }
}
