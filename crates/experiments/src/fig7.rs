//! Fig 7: the delay-vs-duplicates tradeoff for *dense* sessions in tree
//! topologies as `C2` varies, one line per failed-edge distance (1–4 hops
//! from the source).
//!
//! Paper shape: "For a dense session in a tree topology, a small value for
//! C2 gives good performance in terms of both delay and duplicates", and
//! for the near-source drop lines the duplicate count peaks at an
//! *intermediate* C2.

use crate::par::parallel_map;
use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use srm::{SrmConfig, TimerParams};

/// Failed-edge distances, as in the paper's four lines.
pub const HOPS: [u32; 4] = [1, 2, 3, 4];

/// The C2 sweep 0..100.
pub fn c2_values(opts: &RunOpts) -> Vec<f64> {
    if opts.quick {
        vec![0.0, 1.0, 3.0, 10.0, 40.0, 100.0]
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

/// Run the sweep on the given topology spec with the given density.
pub fn points(opts: &RunOpts, topo: TopoSpec, group_size: Option<usize>, tag: u64) -> Vec<Point> {
    let sims = if opts.quick { 4 } else { 20 };
    let mut inputs = Vec::new();
    for &hops in &HOPS {
        for c2 in c2_values(opts) {
            inputs.push((hops, c2));
        }
    }
    parallel_map(inputs, opts.threads, move |(hops, c2)| {
        let mut delays = Vec::new();
        let mut requests = Vec::new();
        for rep in 0..sims {
            let g = group_size.unwrap_or(match topo {
                TopoSpec::RandomTree { n } | TopoSpec::BoundedTree { n, .. } => n,
                _ => 100,
            });
            let spec = ScenarioSpec::round(
                topo,
                group_size.map_or(MembersSpec::All, MembersSpec::Random),
                DropSpec::HopsFromSource(hops),
                SrmConfig {
                    timers: TimerParams {
                        c1: 2.0,
                        c2,
                        d1: 1.0,
                        d2: (g as f64).sqrt(),
                    },
                    ..SrmConfig::default()
                },
                tag ^ ((hops as u64) << 24) ^ ((c2 as u64) << 8) ^ rep,
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

/// Render the sweep as one table per failed-edge distance.
pub fn render(title: &str, pts: &[Point]) -> Vec<Table> {
    HOPS.iter()
        .map(|&h| {
            let mut t = Table::new(
                format!("{title}, failed edge {h} hop(s) from source"),
                &["C2", "delay/RTT", "requests"],
            );
            for p in pts.iter().filter(|p| p.hops == h) {
                t.row(vec![f(p.c2), f(p.delay), f(p.requests)]);
            }
            t
        })
        .collect()
}

/// The figure: dense sessions on a density-1 random tree (top panel) and a
/// half-density bounded-degree tree (bottom panel).
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let n = if opts.quick { 50 } else { 100 };
    let top = points(opts, TopoSpec::RandomTree { n }, None, 0x0700_0000);
    let bn = if opts.quick { 100 } else { 200 };
    let bottom = points(
        opts,
        TopoSpec::BoundedTree { n: bn, degree: 4 },
        Some(bn / 2),
        0x0701_0000,
    );
    let mut out = render("fig7 (top): random tree, density 1", &top);
    out.extend(render(
        "fig7 (bottom): degree-4 tree, density 0.5",
        &bottom,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_trees_do_well_with_small_c2() {
        let opts = RunOpts {
            quick: true,
            threads: 4,
        };
        let pts = points(&opts, TopoSpec::RandomTree { n: 50 }, None, 0x0700_0000);
        // At small C2 the request count is modest in a dense tree (distance
        // diversity provides deterministic suppression).
        let small: Vec<&Point> = pts.iter().filter(|p| p.c2 <= 1.0).collect();
        let worst = small.iter().map(|p| p.requests).fold(0.0, f64::max);
        assert!(
            worst <= 8.0,
            "dense tree at small C2 should not implode: {worst}"
        );
        // Delay grows with C2 on every line.
        for &h in &HOPS {
            let line: Vec<&Point> = pts.iter().filter(|p| p.hops == h).collect();
            let d0 = line.iter().find(|p| p.c2 == 0.0).unwrap().delay;
            let d100 = line.iter().find(|p| p.c2 == 100.0).unwrap().delay;
            assert!(d100 > d0, "hops={h}: delay rises with C2");
        }
    }
}
