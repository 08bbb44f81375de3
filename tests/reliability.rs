//! The headline invariant: *eventual delivery of all data to all group
//! members* (Section III), checked end-to-end across netsim + srm under
//! randomized topologies, memberships, drop locations, and loss processes.

use bytes::Bytes;
use netsim::generators::{bounded_degree_tree, random_labeled_tree, random_members};
use netsim::loss::{BernoulliLoss, OneShotLinkDrop, ScriptedDrop};
use netsim::{flow, GroupId, NodeId, SimDuration, SimTime, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srm::{PageId, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(1);

/// Install agents with exact pre-warmed distances on the given members.
fn install_members(
    sim: &mut Simulator<SrmAgent>,
    members: &[NodeId],
    source: NodeId,
    cfg: &SrmConfig,
    sessions: bool,
) -> PageId {
    let page = PageId::new(SourceId(source.0 as u64), 0);
    for &m in members {
        let mut a = SrmAgent::new(SourceId(m.0 as u64), GROUP, cfg.clone());
        a.session_enabled = sessions;
        a.set_current_page(page);
        a.distances_mut().set_exact_distances(sim, m, members);
        sim.install(m, a);
        sim.join(m, GROUP);
    }
    page
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single data-packet drop on any link of any random tree is
    /// recovered by every member.
    #[test]
    fn single_drop_on_random_tree_always_recovers(
        n in 4usize..40,
        seed in 0u64..1_000_000,
        link_pick in 0usize..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_labeled_tree(n, &mut rng);
        let links = topo.num_links();
        let link = netsim::LinkId((link_pick % links) as u32);
        let members: Vec<NodeId> = topo.nodes().collect();
        let source = NodeId((seed % n as u64) as u32);
        let mut sim = Simulator::new(topo, seed ^ 0xabcd);
        let page = install_members(&mut sim, &members, source, &SrmConfig::fixed(n), false);
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(link, source, flow::DATA)));
        sim.exec(source, |a, ctx| { a.send_data(ctx, page, Bytes::from_static(b"p0")); });
        sim.run_until(sim.now() + SimDuration::from_secs_f64(0.01));
        sim.exec(source, |a, ctx| { a.send_data(ctx, page, Bytes::from_static(b"p1")); });
        prop_assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)), "must quiesce");
        for &m in &members {
            if m == source { continue; }
            let a = sim.app(m).unwrap();
            prop_assert_eq!(a.store().len(), 2, "member {:?} holds both ADUs", m);
            prop_assert!(a.metrics.all_recovered());
        }
    }

    /// Scripted multi-drop patterns (several packets dropped on several
    /// links, including requests/repairs being droppable) still converge,
    /// thanks to retransmit timers and session-message tail-loss detection.
    #[test]
    fn scripted_multi_drop_converges(
        seed in 0u64..100_000,
        drops in prop::collection::vec((0u32..20, 1u64..6), 1..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_labeled_tree(12, &mut rng);
        let links = topo.num_links() as u32;
        let members: Vec<NodeId> = topo.nodes().collect();
        let source = NodeId(0);
        let mut sim = Simulator::new(topo, seed);
        let cfg = SrmConfig::fixed(12);
        let page = install_members(&mut sim, &members, source, &cfg, true);
        let script: Vec<(netsim::LinkId, u64)> = drops
            .into_iter()
            .map(|(l, o)| (netsim::LinkId(l % links), o))
            .collect();
        sim.set_loss_model(Box::new(ScriptedDrop::new(script)));
        for k in 0..4 {
            sim.exec(source, |a, ctx| {
                a.send_data(ctx, page, Bytes::from(vec![k as u8]));
            });
            sim.run_until(sim.now() + SimDuration::from_secs(5));
        }
        // Session messages run; give the session time to self-heal.
        sim.run_until(sim.now() + SimDuration::from_secs(2000));
        for &m in &members {
            if m == source { continue; }
            let a = sim.app(m).unwrap();
            prop_assert_eq!(a.store().len(), 4, "member {:?}", m);
        }
    }
}

/// Persistent 5% Bernoulli loss on every link — data, requests, repairs,
/// and session messages all lossy — and the session still converges.
#[test]
fn bernoulli_loss_everywhere_converges() {
    let topo = bounded_degree_tree(120, 4);
    let mut rng = StdRng::seed_from_u64(55);
    let members = random_members(&topo, 15, &mut rng);
    let source = members[0];
    let mut sim = Simulator::new(topo, 55);
    let page = install_members(&mut sim, &members, source, &SrmConfig::fixed(15), true);
    sim.set_loss_model(Box::new(BernoulliLoss::everywhere(0.05, 1234)));
    for k in 0..20u8 {
        sim.exec(source, |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(30));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(20_000));
    for &m in &members {
        if m == source {
            continue;
        }
        let a = sim.app(m).unwrap();
        assert_eq!(a.store().len(), 20, "member {m:?} converged");
    }
}

/// "Reliable data delivery is ensured as long as each data item is
/// available from at least one member": the original source leaves, and a
/// late joiner still recovers everything from the remaining members.
#[test]
fn recovery_survives_source_departure() {
    let topo = bounded_degree_tree(40, 4);
    let members: Vec<NodeId> = vec![NodeId(1), NodeId(7), NodeId(20), NodeId(33)];
    let source = NodeId(1);
    let mut sim = Simulator::new(topo, 9);
    let page = install_members(&mut sim, &members, source, &SrmConfig::fixed(4), true);
    for k in 0..5u8 {
        sim.exec(source, |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(2));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(100));
    // The source departs (IP multicast: members leave independently).
    sim.leave(source, GROUP);

    // A newcomer joins and asks for the page.
    let newbie = NodeId(38);
    let mut a = SrmAgent::new(SourceId(38), GROUP, SrmConfig::fixed(5));
    a.set_current_page(page);
    sim.install(newbie, a);
    sim.join(newbie, GROUP);
    sim.exec(newbie, |a, ctx| a.request_page_state(ctx, page));
    sim.run_until(sim.now() + SimDuration::from_secs(5_000));
    let a = sim.app(newbie).unwrap();
    assert_eq!(a.store().len(), 5, "history recovered without the source");
}

/// Network partition and heal (Section II-D): members keep sending during
/// the partition; after it heals, session messages spread the missing state
/// both ways and all members converge.
#[test]
fn partition_heals_and_state_merges() {
    // A chain 0-1-2-3; partition the middle link by dropping everything on
    // it for a while (scripted ordinals 1..=N), then let it heal.
    let topo = netsim::generators::chain(4);
    let members: Vec<NodeId> = topo.nodes().collect();
    let mut sim = Simulator::new(topo, 31);
    let l12 = sim.topology().link_between(NodeId(1), NodeId(2)).unwrap();
    let page_a = install_members(&mut sim, &members, NodeId(0), &SrmConfig::fixed(4), true);
    // Partition: drop the next 200 packets crossing the middle link.
    sim.set_loss_model(Box::new(ScriptedDrop::new(
        (1..=200).map(|o| (l12, o)).collect(),
    )));
    // Both sides originate data during the partition.
    let page_b = PageId::new(SourceId(3), 0);
    for k in 0..3u8 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page_a, Bytes::from(vec![k]));
        });
        sim.exec(NodeId(3), |a, ctx| {
            a.send_data(ctx, page_b, Bytes::from(vec![0x80 | k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(10));
    }
    // Heal and wait: all members view both pages so session reports flow.
    for &m in &members {
        sim.app_mut(m).unwrap().set_current_page(page_a);
    }
    sim.set_loss_model(Box::new(netsim::loss::NoLoss));
    sim.run_until(sim.now() + SimDuration::from_secs(3_000));
    // Page B is only discovered by viewers of page B's session reports; ask
    // for it explicitly from one side (late-browsing model).
    sim.exec(NodeId(0), |a, ctx| a.request_page_state(ctx, page_b));
    sim.exec(NodeId(3), |a, ctx| a.request_page_state(ctx, page_a));
    sim.run_until(sim.now() + SimDuration::from_secs(5_000));
    for &m in &members {
        let a = sim.app(m).unwrap();
        assert_eq!(
            a.store().len(),
            6,
            "member {m:?} holds both sides' partition-era data"
        );
    }
}
