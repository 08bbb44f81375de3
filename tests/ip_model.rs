//! Section I: SRM "requires only the basic IP delivery model — best-effort
//! with possible duplication and reordering of packets". These tests
//! subject whole sessions to duplication, heavy jitter (reordering), and
//! loss at once, and check that the ADU model absorbs it: exactly-once
//! delivery to the application, convergence, and no spurious recovery
//! storms from out-of-order arrivals.

use bytes::Bytes;
use netsim::effects::RandomEffects;
use netsim::generators::bounded_degree_tree;
use netsim::loss::BernoulliLoss;
use netsim::{GroupId, NodeId, SimDuration, SimTime, Simulator};
use srm::{PageId, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(4);

fn build(seed: u64, members: &[NodeId]) -> (Simulator<SrmAgent>, PageId) {
    let topo = bounded_degree_tree(60, 3);
    let mut sim = Simulator::new(topo, seed);
    let source = members[0];
    let page = PageId::new(SourceId(source.0 as u64), 0);
    for &m in members {
        let mut a = SrmAgent::new(SourceId(m.0 as u64), GROUP, SrmConfig::fixed(members.len()));
        a.session_enabled = false; // tests re-enable where needed
        a.set_current_page(page);
        a.distances_mut().set_exact_distances(&mut sim, m, members);
        sim.install(m, a);
        sim.join(m, GROUP);
    }
    (sim, page)
}

#[test]
fn duplication_never_double_delivers() {
    let members = [NodeId(1), NodeId(10), NodeId(25), NodeId(40)];
    let (mut sim, page) = build(3, &members);
    // Every hop duplicates 30% of the time.
    sim.set_channel_effects(Box::new(RandomEffects::new(
        0.3,
        SimDuration::ZERO,
        99,
    )));
    for k in 0..10u8 {
        sim.exec(members[0], |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(10));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(2_000));
    for &m in &members[1..] {
        let a = sim.app_mut(m).unwrap();
        assert_eq!(a.store().len(), 10, "member {m:?} holds each ADU once");
        let delivered = a.take_delivered();
        assert_eq!(
            delivered.len(),
            10,
            "member {m:?}: exactly-once application delivery despite duplication"
        );
    }
}

#[test]
fn reordering_does_not_trigger_request_storms() {
    let members = [NodeId(1), NodeId(10), NodeId(25), NodeId(40)];
    let (mut sim, page) = build(5, &members);
    // Jitter up to 1.5 s per hop: heavy reordering but no loss. With
    // C1 = 2 the request timers leave room for late packets ("the only
    // benefits in setting C1 greater than 0 are to avoid unnecessary
    // requests from out-of-order packets…", Section IV-B).
    sim.set_channel_effects(Box::new(RandomEffects::new(
        0.0,
        SimDuration::from_secs_f64(1.5),
        44,
    )));
    for k in 0..20u8 {
        sim.exec(members[0], |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs_f64(0.3));
    }
    assert!(sim.run_until_idle(SimTime::from_secs(100_000)));
    let mut total_requests = 0;
    for &m in &members {
        let a = sim.app(m).unwrap();
        if m != members[0] {
            assert_eq!(a.store().len(), 20, "member {m:?} complete");
        }
        total_requests += a.metrics.requests_sent;
    }
    // Nothing was lost; late arrivals should rarely beat a C1·d timer.
    assert!(
        total_requests <= 4,
        "reordering alone caused {total_requests} requests"
    );
}

#[test]
fn all_three_impairments_together_still_converge() {
    let members = [NodeId(1), NodeId(10), NodeId(25), NodeId(40), NodeId(55)];
    let (mut sim, page) = build(7, &members);
    sim.set_channel_effects(Box::new(RandomEffects::new(
        0.1,
        SimDuration::from_secs_f64(0.8),
        77,
    )));
    sim.set_loss_model(Box::new(BernoulliLoss::everywhere(0.03, 88)));
    // Periodic session messages cover tail losses.
    for &m in &members {
        sim.app_mut(m).unwrap().session_enabled = true;
    }
    for k in 0..15u8 {
        sim.exec(members[0], |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(15));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(20_000));
    for &m in &members[1..] {
        let a = sim.app(m).unwrap();
        assert_eq!(
            a.store().len(),
            15,
            "member {m:?} converged under loss + dup + reorder"
        );
    }
}
