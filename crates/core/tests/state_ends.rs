//! Recovery state ends.
//!
//! The paper gives per-name recovery state an end: a request state dies
//! with the repair, and a member "ignores requests for data for 3·d_S,B
//! seconds after sending or receiving a repair for that data" (§III-B) —
//! for that long, not for ever. So what a member remembers must follow the
//! losses of the last few hold-downs, not the losses of the session: after
//! any number of loss rounds the episode table is as small as after the
//! first, and once the last hold-down is over it is empty.

use bytes::Bytes;
use netsim::generators::chain;
use netsim::loss::OneShotLinkDrop;
use netsim::{flow, GroupId, NodeId, SimDuration, Simulator};
use srm::{PageId, RecoveryScope, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(7);
const NODES: usize = 6;
const ROUNDS: usize = 500;

fn page() -> PageId {
    PageId::new(SourceId(0), 0)
}

/// A chain of agents, sessions off, distances warmed to the true values.
fn chain_session(cfg: &SrmConfig) -> Simulator<SrmAgent> {
    let mut sim = Simulator::new(chain(NODES), 99);
    for i in 0..NODES {
        let mut a = SrmAgent::new(SourceId(i as u64), GROUP, cfg.clone());
        a.session_enabled = false;
        a.set_current_page(page());
        for j in 0..NODES {
            if i != j {
                a.distances_mut()
                    .set_distance(SourceId(j as u64), SimDuration::from_secs(i.abs_diff(j) as u64));
            }
        }
        sim.install(NodeId(i as u32), a);
        sim.join(NodeId(i as u32), GROUP);
    }
    sim
}

fn members() -> impl Iterator<Item = NodeId> {
    (0..NODES as u32).map(NodeId)
}

fn most_live_episodes(sim: &Simulator<SrmAgent>) -> usize {
    members()
        .map(|m| sim.app(m).unwrap().live_episodes())
        .max()
        .unwrap()
}

/// 500 rounds of "one ADU dropped on the middle link, the next one exposes
/// the gap, recover, harvest"; returns the most episodes any member held at
/// the end of each round.
fn run_rounds(sim: &mut Simulator<SrmAgent>) -> Vec<usize> {
    let link = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    let send = |sim: &mut Simulator<SrmAgent>| {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(), Bytes::from_static(b"adu"));
        });
    };
    let mut per_round = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(link, NodeId(0), flow::DATA)));
        send(sim);
        sim.run_until(sim.now() + SimDuration::from_millis(10));
        send(sim);
        assert!(sim.run_until_idle(sim.now() + SimDuration::from_secs(100_000)));
        per_round.push(most_live_episodes(sim));
        for m in members() {
            let a = sim.app_mut(m).unwrap();
            assert!(a.metrics.all_recovered(), "round {round}, {m:?}");
            assert_eq!(a.store().len(), 2 * (round + 1), "round {round}, {m:?}");
            a.metrics.clear_episodes();
            a.take_delivered();
        }
    }
    per_round
}

fn state_ends(cfg: SrmConfig) {
    let mut sim = chain_session(&cfg);
    let per_round = run_rounds(&mut sim);
    // A member holds this round's episode and at most what the previous
    // round's hold-down has not yet released: a handful, and the same
    // handful in round 500 as in round 5.
    let (early, late) = (&per_round[..100], &per_round[ROUNDS - 100..]);
    assert!(late.iter().max() <= early.iter().max(), "{early:?} .. {late:?}");
    assert!(*per_round.iter().max().unwrap() <= 2, "{per_round:?}");
    assert!(per_round.iter().all(|&n| n >= 1), "a round leaves its hold-down behind");
    // Past the longest hold-down (3 x 5 s), the first packet a member
    // handles empties its table. Both ends speak so that everyone hears.
    sim.run_until(sim.now() + SimDuration::from_secs(60));
    assert!(most_live_episodes(&sim) >= 1, "nothing retires without a handler call");
    for speaker in [0, NODES as u32 - 1] {
        sim.exec(NodeId(speaker), |a, ctx| a.send_session_now(ctx));
    }
    assert!(sim.run_until_idle(sim.now() + SimDuration::from_secs(1000)));
    for m in members() {
        assert_eq!(sim.app(m).unwrap().live_episodes(), 0, "{m:?}");
    }
}

#[test]
fn fixed_timers_global_scope() {
    state_ends(SrmConfig::fixed(NODES));
}

#[test]
fn fixed_timers_ttl_scope() {
    state_ends(SrmConfig {
        scope: RecoveryScope::Ttl(2),
        ..SrmConfig::fixed(NODES)
    });
}

#[test]
fn adaptive_timers_global_scope() {
    state_ends(SrmConfig::adaptive(NODES));
}

#[test]
fn adaptive_timers_ttl_scope() {
    state_ends(SrmConfig {
        scope: RecoveryScope::Ttl(2),
        ..SrmConfig::adaptive(NODES)
    });
}
