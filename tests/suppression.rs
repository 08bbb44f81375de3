//! End-to-end checks of the request/repair timer theory (Section IV):
//! deterministic suppression on chains, probabilistic suppression on stars,
//! and the level-suppression bound on trees — cross-validated against the
//! closed forms in `srm-analysis`.

use srm_analysis::{chain as chain_model, star as star_model, tree as tree_model};
use srm_experiments::round::run_round;
use srm_experiments::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
use srm::{SrmConfig, TimerParams};

fn params(c1: f64, c2: f64, d1: f64, d2: f64) -> SrmConfig {
    SrmConfig {
        timers: TimerParams { c1, c2, d1, d2 },
        backoff: 4.0, // avoid the retransmit race; see checks.rs
        ..SrmConfig::default()
    }
}

#[test]
fn chain_request_and_repair_are_unique_and_timely() {
    // Deterministic timers over a range of failure positions.
    for hops in 1..=8u32 {
        let mut s = ScenarioSpec::round(
            TopoSpec::Chain { n: 30 },
            MembersSpec::All,
            DropSpec::HopsFromSource(hops),
            params(1.0, 0.0, 1.0, 0.0),
            100 + hops as u64,
        )
        .build();
        let r = run_round(&mut s, 100_000.0);
        assert!(r.all_recovered);
        assert_eq!(r.requests, 1, "hops={hops}: deterministic suppression");
        assert_eq!(r.repairs, 1, "hops={hops}");
    }
}

#[test]
fn chain_far_nodes_beat_unicast_rtt() {
    // "the furthest node receives the repair sooner than it would if it had
    // to rely on its own unicast communication with the original source."
    let mut s = ScenarioSpec::round(
        TopoSpec::Chain { n: 60 },
        MembersSpec::All,
        DropSpec::HopsFromSource(2),
        params(1.0, 0.0, 1.0, 0.0),
        7,
    )
    .build();
    let r = run_round(&mut s, 100_000.0);
    // Find the deepest affected member's delay ratio.
    let deepest = r
        .recovery_over_rtt
        .iter()
        .max_by(|a, b| {
            s.dist_from_source[a.0.index()]
                .partial_cmp(&s.dist_from_source[b.0.index()])
                .unwrap()
        })
        .copied()
        .unwrap();
    assert!(
        deepest.1 < 1.0,
        "deepest member recovers in under its own RTT: {}",
        deepest.1
    );
    // And the closed form predicts the same regime.
    let ana = chain_model::recovery_delay_over_rtt(1.0, 1.0, 1, 40);
    assert!(ana < 1.0);
}

#[test]
fn star_requests_track_probabilistic_model() {
    // Average over sims at two C2 values and compare to 1 + (G-2)/C2.
    let g = 40;
    for c2 in [4.0, 12.0] {
        let mut total = 0u64;
        let sims = 12;
        for rep in 0..sims {
            let mut s = ScenarioSpec::round(
                TopoSpec::Star { leaves: g },
                MembersSpec::All,
                DropSpec::AdjacentToSource,
                params(2.0, c2, 1.0, 1.0),
                9000 + (c2 as u64) * 100 + rep,
            )
            .build();
            let r = run_round(&mut s, 100_000.0);
            assert!(r.all_recovered);
            total += r.requests;
        }
        let mean = total as f64 / sims as f64;
        let ana = star_model::expected_requests(g, c2);
        assert!(
            mean <= ana * 2.0 + 1.5 && mean >= ana * 0.4 - 0.5,
            "c2={c2}: sim {mean} vs analysis {ana}"
        );
    }
}

#[test]
fn star_delay_grows_with_c2_as_predicted() {
    let g = 40;
    let measure = |c2: f64| {
        let mut acc = 0.0;
        let sims = 12;
        for rep in 0..sims {
            let mut s = ScenarioSpec::round(
                TopoSpec::Star { leaves: g },
                MembersSpec::All,
                DropSpec::AdjacentToSource,
                params(2.0, c2, 1.0, 1.0),
                17_000 + (c2 as u64) * 100 + rep,
            )
            .build();
            let r = run_round(&mut s, 100_000.0);
            acc += r.closest_member_request_delay(&s).unwrap();
        }
        acc / sims as f64
    };
    let d_small = measure(2.0);
    let d_large = measure(60.0);
    let a_small = star_model::expected_request_delay_over_rtt(g, 2.0, 2.0);
    let a_large = star_model::expected_request_delay_over_rtt(g, 2.0, 60.0);
    assert!(d_large > d_small);
    assert!((d_small - a_small).abs() < 0.3, "{d_small} vs {a_small}");
    assert!((d_large - a_large).abs() < 0.5, "{d_large} vs {a_large}");
}

#[test]
fn tree_duplicates_shrink_when_failure_is_near_source() {
    // Section IV-C: duplicates are fewer when the congested link is close
    // to the source. Compare request counts for near vs far failures on a
    // dense bounded tree, averaged over replicates.
    let run_at = |hops: u32| -> f64 {
        let sims = 10;
        let mut total = 0;
        for rep in 0..sims {
            let mut s = ScenarioSpec::round(
                TopoSpec::BoundedTree { n: 85, degree: 4 },
                MembersSpec::All,
                DropSpec::HopsFromSource(hops),
                SrmConfig {
                    timers: TimerParams {
                        c1: 2.0,
                        c2: 4.0,
                        d1: 1.0,
                        d2: 4.0,
                    },
                    ..SrmConfig::default()
                },
                31_000 + hops as u64 * 100 + rep,
            )
            .build();
            total += run_round(&mut s, 100_000.0).requests;
        }
        total as f64 / sims as f64
    };
    let near = run_at(1);
    let far = run_at(3);
    // The level-suppression bound says near-source failures expose fewer
    // levels to duplicates; allow slack for randomness but require the
    // trend not to invert badly.
    assert!(
        near <= far + 1.0,
        "near-source failures should not produce more duplicates: near={near} far={far}"
    );
    // Closed-form sanity: the exposed-level bound is monotone in dS.
    assert!(
        tree_model::duplicate_exposed_levels(2.0, 4.0, 1.0, 10)
            <= tree_model::duplicate_exposed_levels(2.0, 4.0, 3.0, 10)
    );
}
