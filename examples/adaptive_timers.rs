//! The adaptive timer algorithm at work (Section VII-A, Figs 12/13).
//!
//! Runs the same duplicate-prone sparse-session scenario twice — once with
//! fixed timer parameters and once with the adaptive algorithm — and prints
//! requests per loss-recovery round side by side, showing the adaptive run
//! converging toward one request per loss.
//!
//! Run with: `cargo run --release --example adaptive_timers`

use srm_experiments::round::run_round;
use srm_experiments::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use srm::SrmConfig;

fn main() {
    const G: usize = 50;
    const ROUNDS: usize = 60;

    let spec = |cfg: SrmConfig| ScenarioSpec {
        timer_seed: Some(1234),
        ..ScenarioSpec::round(
            TopoSpec::BoundedTree { n: 1000, degree: 4 },
            MembersSpec::Random(G),
            DropSpec::RandomTreeLink,
            cfg,
            0x0400_0000 ^ ((G as u64) << 20) ^ 3, // a dup-prone Fig 4 draw
        )
    };

    let mut fixed = spec(SrmConfig::fixed(G)).build();
    let mut adaptive = spec(SrmConfig::adaptive(G)).build();
    println!(
        "{} members scattered in a 1000-node degree-4 tree; same congested link each round\n",
        G
    );
    println!("round  fixed_requests  adaptive_requests  adaptive_C2(median member)");
    let mut fixed_total = 0u64;
    let mut adaptive_total = 0u64;
    for round in 1..=ROUNDS {
        let rf = run_round(&mut fixed, 100_000.0);
        let ra = run_round(&mut adaptive, 100_000.0);
        fixed_total += rf.requests;
        adaptive_total += ra.requests;
        // Median C2 across the downstream members, which do the adapting.
        let mut c2s: Vec<f64> = adaptive
            .downstream_members
            .iter()
            .map(|&m| adaptive.sim.app(m).unwrap().params().c2)
            .collect();
        c2s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med_c2 = c2s.get(c2s.len() / 2).copied().unwrap_or(0.0);
        if round <= 10 || round % 5 == 0 {
            println!(
                "{round:>5}  {:>14}  {:>17}  {med_c2:>10.2}",
                rf.requests, ra.requests
            );
        }
    }
    println!(
        "\ntotals over {ROUNDS} rounds: fixed {fixed_total} requests, adaptive {adaptive_total} requests"
    );
    let ratio = fixed_total as f64 / adaptive_total.max(1) as f64;
    println!("fixed timers sent {ratio:.1}x the requests of the adaptive algorithm");
}
