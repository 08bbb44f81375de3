//! Analytic-vs-simulation validation tables for Section IV ("the tools
//! that we used to verify that our simulator is correctly implementing the
//! loss recovery algorithms").

use crate::round::run_round;
use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use crate::table::{f, Table};
use crate::RunOpts;
use srm::{SrmConfig, TimerParams};
use srm_analysis::{chain, star};

/// Chain check: deterministic timers (`C1 = D1 = 1`, `C2 = D2 = 0`) must
/// produce exactly one request and one repair, with recovery delays
/// matching the closed form of Section IV-A.
pub fn chain_check(_opts: &RunOpts) -> Table {
    let mut t = Table::new(
        "chain-check: deterministic recovery vs closed form (C1=D1=1, C2=D2=0)",
        &[
            "src_hops",
            "sim_requests",
            "sim_repairs",
            "sim_last_delay/RTT",
            "analysis_delay/RTT",
        ],
    );
    for hops in [1u32, 2, 5, 10] {
        let spec = ScenarioSpec::round(
            TopoSpec::Chain { n: 40 },
            MembersSpec::All,
            DropSpec::HopsFromSource(hops),
            SrmConfig {
                timers: TimerParams {
                    c1: 1.0,
                    c2: 0.0,
                    d1: 1.0,
                    d2: 0.0,
                },
                // Section IV-A's walkthrough assumes the requestor's
                // retransmit timer never races the repair; with tiny
                // deterministic timers and a failure adjacent to the
                // source, backoff ×2 *does* race (the very problem
                // Section VII-A cites when switching to ×3). Back off far
                // enough to isolate deterministic suppression.
                backoff: 4.0,
                ..SrmConfig::default()
            },
            0xc4a1 ^ hops as u64,
        );
        let mut s = spec.build();
        // Identify the deepest downstream member for the analytic column.
        let deepest = s
            .downstream_members
            .iter()
            .map(|&m| s.dist_from_source[m.index()])
            .fold(0.0f64, f64::max);
        let r = run_round(&mut s, 100_000.0);
        let i = (deepest - hops as f64) as u32; // hops below the failure
        let ana = chain::recovery_delay_over_rtt(1.0, 1.0, hops - 1, i);
        t.row(vec![
            hops.to_string(),
            r.requests.to_string(),
            r.repairs.to_string(),
            f(r.recovery_over_rtt
                .iter()
                .map(|&(n, d)| (s.rtt_to_source(n), d))
                .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .map(|(_, d)| d)
                .unwrap_or(0.0)),
            f(ana),
        ]);
    }
    t
}

/// Star check: simulated request counts vs the `1 + (G−2)/C2` model.
pub fn star_check(opts: &RunOpts) -> Table {
    let g = if opts.quick { 30 } else { 100 };
    let sims = if opts.quick { 5 } else { 20 };
    let mut t = Table::new(
        format!("star-check: {g}-member star, E[#requests] vs 1+(G-2)/C2"),
        &["C2", "sim_mean_requests", "analysis"],
    );
    for c2 in [1.0, 2.0, 5.0, 10.0, 20.0, 50.0] {
        let mut total = 0u64;
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
                0x57a2 ^ ((c2 as u64) << 8) ^ rep,
            );
            let mut s = spec.build();
            total += run_round(&mut s, 100_000.0).requests;
        }
        t.row(vec![
            f(c2),
            f(total as f64 / sims as f64),
            f(star::expected_requests(g, c2)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_check_is_exact() {
        let t = chain_check(&RunOpts {
            quick: true,
            threads: 2,
        });
        for row in &t.rows {
            assert_eq!(row[1], "1", "one request");
            assert_eq!(row[2], "1", "one repair");
        }
    }

    #[test]
    fn star_check_tracks_model() {
        let t = star_check(&RunOpts {
            quick: true,
            threads: 4,
        });
        for row in &t.rows {
            let sim: f64 = row[1].parse().unwrap();
            let ana: f64 = row[2].parse().unwrap();
            // Within a factor of ~2 plus slack for second-iteration
            // requests from backed-off timers.
            assert!(
                sim <= ana * 2.5 + 2.0 && sim >= ana * 0.3 - 1.0,
                "C2={} sim={sim} ana={ana}",
                row[0]
            );
        }
    }
}
