//! Figs 12 & 13: repeated loss-recovery rounds on one duplicate-prone
//! scenario — non-adaptive (Fig 12) versus adaptive (Fig 13) timers.
//!
//! "From the simulation set in Fig. 4, we chose a network topology, session
//! membership, and drop scenario that resulted in a large number of
//! duplicate requests with the nonadaptive algorithm. The network topology
//! is a bounded-degree tree of 1000 nodes with degree 4 … 50 members. Each
//! of the two figures shows ten runs of the simulation, with 100 loss
//! recovery rounds in each run. The same topology and loss scenario is used
//! for each of the ten runs, but each run uses a new seed for the
//! pseudo-random number generator."
//!
//! Paper shape: "the adaptive algorithms quickly reduce the average number
//! of repairs, reaching steady state after about forty iterations … also …
//! a small reduction in delay."

use crate::fig4;
use crate::par::parallel_map;
use crate::quartiles::summarize;
use crate::round::run_round;
use crate::table::{f, Table};
use crate::RunOpts;
use srm::SrmConfig;

/// Session size of the chosen scenario.
pub const GROUP: usize = 50;

/// Per-round medians across runs.
#[derive(Clone, Debug)]
pub struct RoundSeries {
    /// Round index (1-based).
    pub round: usize,
    /// Requests per round: median, q1, q3 across runs.
    pub requests: (f64, f64, f64),
    /// Repairs per round: median, q1, q3 across runs.
    pub repairs: (f64, f64, f64),
    /// Last-member delay/RTT: median, q1, q3 across runs.
    pub delay: (f64, f64, f64),
}

/// Pick the duplicate-prone scenario: scan Fig 4 seeds at G = 50 and keep
/// the one with the most requests + repairs in a single non-adaptive round.
pub fn pick_bad_seed(opts: &RunOpts) -> u64 {
    let candidates: Vec<u64> = (0..if opts.quick { 6 } else { 20 }).collect();
    let scored = parallel_map(candidates, opts.threads, |rep| {
        let mut s = fig4::spec(GROUP, rep, SrmConfig::fixed(GROUP)).build();
        let r = run_round(&mut s, 100_000.0);
        (rep, r.requests + r.repairs)
    });
    scored
        .into_iter()
        .max_by_key(|&(_, dups)| dups)
        .map(|(rep, _)| rep)
        .unwrap()
}

/// Run `runs` independent runs of `rounds` rounds each with the given
/// config on the chosen scenario, and summarize per round.
pub fn series(opts: &RunOpts, cfg: SrmConfig, bad_rep: u64) -> Vec<RoundSeries> {
    let runs: Vec<u64> = (0..if opts.quick { 4 } else { 10 }).collect();
    let rounds = if opts.quick { 20 } else { 100 };
    // Each run: same scenario seed, fresh timer seed.
    let per_run: Vec<Vec<(u64, u64, f64)>> = parallel_map(runs, opts.threads, |run| {
        let mut spec = fig4::spec(GROUP, bad_rep, cfg.clone());
        spec.timer_seed = Some(0x12_0000 + run * 7919);
        let mut s = spec.build();
        (0..rounds)
            .map(|_| {
                let r = run_round(&mut s, 100_000.0);
                assert!(r.all_recovered);
                (
                    r.requests,
                    r.repairs,
                    r.last_member_delay_over_rtt(&s).unwrap_or(0.0),
                )
            })
            .collect()
    });
    (0..rounds)
        .map(|i| {
            let req: Vec<f64> = per_run.iter().map(|r| r[i].0 as f64).collect();
            let rep: Vec<f64> = per_run.iter().map(|r| r[i].1 as f64).collect();
            let del: Vec<f64> = per_run.iter().map(|r| r[i].2).collect();
            let s3 = |v: &[f64]| {
                let s = summarize(v).unwrap();
                (s.median, s.q1, s.q3)
            };
            RoundSeries {
                round: i + 1,
                requests: s3(&req),
                repairs: s3(&rep),
                delay: s3(&del),
            }
        })
        .collect()
}

fn render(tag: &str, desc: &str, rows: &[RoundSeries]) -> Table {
    let mut t = Table::new(
        format!("{tag}: {desc} — per-round medians [q1,q3] over runs"),
        &[
            "round",
            "requests_med",
            "requests_q1",
            "requests_q3",
            "repairs_med",
            "delay_med",
            "delay_q1",
            "delay_q3",
        ],
    );
    for r in rows {
        t.row(vec![
            r.round.to_string(),
            f(r.requests.0),
            f(r.requests.1),
            f(r.requests.2),
            f(r.repairs.0),
            f(r.delay.0),
            f(r.delay.1),
            f(r.delay.2),
        ]);
    }
    t
}

/// Fig 12: the non-adaptive algorithm.
pub fn run_fig12(opts: &RunOpts) -> Vec<Table> {
    let bad = pick_bad_seed(opts);
    let rows = series(opts, SrmConfig::fixed(GROUP), bad);
    vec![render(
        "fig12",
        "non-adaptive (C1=D1=2, C2=D2=sqrt(G))",
        &rows,
    )]
}

/// Fig 13: the adaptive algorithm on the same scenario.
pub fn run_fig13(opts: &RunOpts) -> Vec<Table> {
    let bad = pick_bad_seed(opts);
    let rows = series(opts, SrmConfig::adaptive(GROUP), bad);
    vec![render("fig13", "adaptive timer algorithm", &rows)]
}

/// Mean requests+repairs over the last `k` rounds of a series (for the
/// comparison tests and EXPERIMENTS.md).
pub fn tail_mean_dups(rows: &[RoundSeries], k: usize) -> f64 {
    let tail = &rows[rows.len().saturating_sub(k)..];
    tail.iter()
        .map(|r| r.requests.0 + r.repairs.0)
        .sum::<f64>()
        / tail.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_nonadaptive_on_duplicates() {
        let opts = RunOpts {
            quick: true,
            threads: 8,
        };
        let bad = pick_bad_seed(&opts);
        let fixed = series(&opts, SrmConfig::fixed(GROUP), bad);
        let adapt = series(&opts, SrmConfig::adaptive(GROUP), bad);
        let fixed_tail = tail_mean_dups(&fixed, 5);
        let adapt_tail = tail_mean_dups(&adapt, 5);
        // The adaptive algorithm must end with no more (and typically
        // fewer) duplicates than the fixed one started with.
        let fixed_head = tail_mean_dups(&fixed[..5.min(fixed.len())], 5);
        assert!(
            adapt_tail <= fixed_head + 0.5,
            "adaptive tail {adapt_tail} vs fixed head {fixed_head}"
        );
        // And it should not blow up relative to the fixed steady state.
        assert!(
            adapt_tail <= fixed_tail * 1.5 + 1.0,
            "adaptive {adapt_tail} vs fixed {fixed_tail}"
        );
    }
}
