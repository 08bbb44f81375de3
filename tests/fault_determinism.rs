//! Fault injection is deterministic: a scenario plus a [`FaultPlan`] is a
//! pure function of its seeds. Reruns must be byte-identical — in the full
//! event trace *and* in every member's metrics — or the fault scenarios
//! cannot serve as regression oracles.

use netsim::{FaultPlan, SimDuration, SimTime};
use srm::SrmConfig;
use srm_experiments::round::run_round;
use srm_experiments::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};

fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        timer_seed: Some(5),
        ..ScenarioSpec::round(
            TopoSpec::RandomTree { n: 60 },
            MembersSpec::Random(25),
            DropSpec::RandomTreeLink,
            SrmConfig::adaptive(25),
            seed,
        )
    }
}

/// Build the scenario, optionally script every fault family on top of it,
/// run three recovery rounds, and render the full trace + per-member
/// metrics as one comparable string.
fn fingerprint(seed: u64, with_faults: bool) -> String {
    let mut s = spec(seed).build();
    s.sim.trace.enable();
    if with_faults {
        let l = s.congested_link.expect("a congested link");
        let victim = s
            .members
            .iter()
            .copied()
            .find(|&m| m != s.source)
            .expect("more than one member");
        s.sim.set_fault_plan(
            FaultPlan::new()
                .clock_skew(SimTime::from_secs(1), victim, 0.25)
                .loss_burst(
                    SimTime::from_secs(2),
                    None,
                    0.1,
                    SimDuration::from_secs(3),
                )
                .link_down(SimTime::from_secs(4), l)
                .link_up(SimTime::from_secs(9), l)
                .crash(SimTime::from_secs(12), victim)
                .restart(SimTime::from_secs(20), victim),
        );
    }
    for _ in 0..3 {
        run_round(&mut s, 100_000.0);
    }
    let metrics: Vec<String> = s
        .members
        .iter()
        .map(|&m| {
            let a = s.sim.app(m).expect("member installed");
            format!(
                "{m:?}: data={} req={} rep={} sess={} crashes={} recoveries={:?} repairs={:?}",
                a.metrics.data_sent,
                a.metrics.requests_sent,
                a.metrics.repairs_sent,
                a.metrics.session_sent,
                a.metrics.crashes,
                a.metrics.recoveries,
                a.metrics.repairs,
            )
        })
        .collect();
    format!(
        "{:?}\n{}",
        s.sim.trace.events().collect::<Vec<_>>(),
        metrics.join("\n")
    )
}

#[test]
fn faulted_runs_are_bit_identical() {
    let a = fingerprint(42, true);
    let b = fingerprint(42, true);
    assert_eq!(a, b, "same spec + same FaultPlan + same seeds → same bytes");
}

#[test]
fn faults_actually_perturb_the_run() {
    // The guard is only meaningful if the plan changes behaviour: the
    // faulted trace must differ from the unfaulted one beyond the Fault
    // markers themselves.
    let clean = fingerprint(42, false);
    let faulted = fingerprint(42, true);
    assert_ne!(clean, faulted);
}

#[test]
fn different_seeds_give_different_faulted_runs() {
    let a = fingerprint(1, true);
    let b = fingerprint(2, true);
    assert_ne!(a, b);
}
