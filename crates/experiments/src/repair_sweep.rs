//! The repair-side counterpart of Section VI's parameter exploration:
//! "Similar remarks apply to the functions of D1 and D2 in the repair
//! timer algorithm."
//!
//! Fixing the request parameters, we sweep the repair interval width `D2`
//! on a sparse tree scenario where several members hold the data near the
//! congested link (the duplicate-repair regime of Fig 4) and measure the
//! number of repairs and the repair delay — the same tradeoff the request
//! sweep shows, on the other timer.

use crate::par::parallel_map;
use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use srm::{SrmConfig, TimerParams};

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Repair interval width.
    pub d2: f64,
    /// Mean repairs per loss.
    pub repairs: f64,
    /// Mean last-member recovery delay over RTT (includes the repair wait).
    pub delay: f64,
}

/// The D2 sweep values.
pub fn d2_values(opts: &RunOpts) -> Vec<f64> {
    if opts.quick {
        vec![0.0, 2.0, 10.0, 40.0]
    } else {
        vec![0.0, 1.0, 2.0, 4.0, 7.0, 10.0, 15.0, 20.0, 40.0, 70.0, 100.0]
    }
}

/// Run the sweep.
pub fn points(opts: &RunOpts) -> Vec<Point> {
    let sims = if opts.quick { 5 } else { 20 };
    let (n, g) = if opts.quick { (300, 30) } else { (1000, 100) };
    parallel_map(d2_values(opts), opts.threads, move |d2| {
        let mut repairs = 0.0;
        let mut delays = Vec::new();
        for rep in 0..sims {
            let spec = ScenarioSpec::round(
                TopoSpec::BoundedTree { n, degree: 4 },
                MembersSpec::Random(g),
                DropSpec::RandomTreeLink,
                SrmConfig {
                    timers: TimerParams {
                        c1: 2.0,
                        c2: (g as f64).sqrt(),
                        d1: 1.0,
                        d2,
                    },
                    ..SrmConfig::default()
                },
                0x0d20_0000 ^ ((d2 as u64) << 8) ^ rep,
            );
            let mut s = spec.build();
            let r = run_round(&mut s, 200_000.0);
            assert!(r.all_recovered);
            repairs += r.repairs as f64;
            if let Some(d) = r.last_member_delay_over_rtt(&s) {
                delays.push(d);
            }
        }
        Point {
            d2,
            repairs: repairs / sims as f64,
            delay: delays.iter().sum::<f64>() / delays.len().max(1) as f64,
        }
    })
}

/// The table.
pub fn run(opts: &RunOpts) -> Vec<Table> {
    let mut t = Table::new(
        "repair-sweep: duplicate repairs vs delay as D2 varies (sparse tree, D1=1)",
        &["D2", "repairs", "last_delay/RTT"],
    );
    for p in points(opts) {
        t.row(vec![f(p.d2), f(p.repairs), f(p.delay)]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wider_repair_interval_cuts_duplicate_repairs() {
        let opts = RunOpts {
            quick: true,
            threads: 4,
        };
        let pts = points(&opts);
        let narrow = pts.iter().find(|p| p.d2 == 0.0).unwrap();
        let wide = pts.iter().find(|p| p.d2 == 40.0).unwrap();
        assert!(
            wide.repairs < narrow.repairs,
            "suppression works on the repair side too: {} -> {}",
            narrow.repairs,
            wide.repairs
        );
        assert!(
            wide.delay > narrow.delay,
            "and costs delay: {} -> {}",
            narrow.delay,
            wide.delay
        );
    }
}
