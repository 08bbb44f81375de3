//! Determinism: a simulation is a pure function of its inputs and seeds.
//! The paper's methodology (20 seeded simulations per plotted point,
//! medians and quartiles) is only meaningful if reruns are bit-identical.

use srm_experiments::round::run_round;
use srm_experiments::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use srm::SrmConfig;

fn spec(seed: u64, timer_seed: Option<u64>) -> ScenarioSpec {
    ScenarioSpec {
        timer_seed,
        ..ScenarioSpec::round(
            TopoSpec::RandomTree { n: 60 },
            MembersSpec::Random(25),
            DropSpec::RandomTreeLink,
            SrmConfig::adaptive(25),
            seed,
        )
    }
}

/// Fingerprint several rounds of a session.
fn fingerprint(seed: u64, timer_seed: Option<u64>, rounds: usize) -> Vec<(u64, u64, String)> {
    let mut s = spec(seed, timer_seed).build();
    (0..rounds)
        .map(|_| {
            let r = run_round(&mut s, 100_000.0);
            let delay = r
                .last_member_delay_over_rtt(&s)
                .map(|d| format!("{d:.12}"))
                .unwrap_or_default();
            (r.requests, r.repairs, delay)
        })
        .collect()
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = fingerprint(42, None, 8);
    let b = fingerprint(42, None, 8);
    assert_eq!(a, b);
}

#[test]
fn different_master_seeds_differ() {
    let a = fingerprint(1, None, 8);
    let b = fingerprint(2, None, 8);
    assert_ne!(a, b, "distinct scenarios should not coincide on 8 rounds");
}

#[test]
fn timer_seed_varies_only_the_randomness() {
    // Same scenario, different timer draws: the affected member set (and
    // hence per-round episode count) is fixed, but timing details differ.
    let mut s1 = spec(7, Some(100)).build();
    let mut s2 = spec(7, Some(200)).build();
    assert_eq!(s1.members, s2.members);
    assert_eq!(s1.source, s2.source);
    assert_eq!(s1.congested_link, s2.congested_link);
    let r1 = run_round(&mut s1, 100_000.0);
    let r2 = run_round(&mut s2, 100_000.0);
    assert_eq!(r1.affected, r2.affected, "same downstream membership");
    // With overwhelming probability the continuous delays differ.
    let d1 = r1.last_member_delay_over_rtt(&s1);
    let d2 = r2.last_member_delay_over_rtt(&s2);
    assert_ne!(d1, d2, "timer seeds drive the draws");
}

#[test]
fn trace_replays_identically() {
    // Beyond aggregates: the full event trace matches across reruns.
    let run = || {
        let mut s = spec(11, Some(5)).build();
        s.sim.trace.enable();
        run_round(&mut s, 100_000.0);
        format!("{:?}", s.sim.trace.events().collect::<Vec<_>>())
    };
    assert_eq!(run(), run());
}
