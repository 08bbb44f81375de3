//! End-to-end local recovery (Section VII-B): TTL scoping with one- and
//! two-step repairs, administrative scoping, scope widening on unanswered
//! requests, and loss-neighborhood discovery from session messages.

use bytes::Bytes;
use netsim::generators::{bounded_degree_tree, chain};
use netsim::loss::ScriptedDrop;
use netsim::{flow, GroupId, NodeId, SimDuration, SimTime, Simulator};
use srm::{PageId, RecoveryScope, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(1);

fn install(
    sim: &mut Simulator<SrmAgent>,
    members: &[NodeId],
    source: NodeId,
    cfg: &SrmConfig,
) -> PageId {
    let page = PageId::new(SourceId(source.0 as u64), 0);
    for &m in members {
        let mut a = SrmAgent::new(SourceId(m.0 as u64), GROUP, cfg.clone());
        a.session_enabled = false;
        a.set_current_page(page);
        a.distances_mut().set_exact_distances(sim, m, members);
        sim.install(m, a);
        sim.join(m, GROUP);
    }
    page
}

fn drop_then_reveal(sim: &mut Simulator<SrmAgent>, source: NodeId, page: PageId) {
    sim.exec(source, |a, ctx| {
        a.send_data(ctx, page, Bytes::from_static(b"k"));
    });
    sim.run_until(sim.now() + SimDuration::from_secs_f64(0.01));
    sim.exec(source, |a, ctx| {
        a.send_data(ctx, page, Bytes::from_static(b"k+1"));
    });
}

/// TTL-scoped recovery on a chain: the request (TTL 4) stays local, the
/// two-step repair covers exactly the request's reach, and the far end of
/// the chain never sees recovery traffic.
#[test]
fn ttl_scoped_two_step_repairs_stay_local() {
    let topo = chain(20);
    let mut sim = Simulator::new(topo, 3);
    let members: Vec<NodeId> = (0..20u32).map(NodeId).collect();
    let cfg = SrmConfig {
        scope: RecoveryScope::Ttl(4),
        ..SrmConfig::fixed(20)
    };
    let page = install(&mut sim, &members, NodeId(0), &cfg);
    // Drop on link (9,10): loss neighborhood = nodes 10..19.
    let l = sim.topology().link_between(NodeId(9), NodeId(10)).unwrap();
    sim.set_loss_model(Box::new(netsim::loss::OneShotLinkDrop::new(
        l,
        NodeId(0),
        flow::DATA,
    )));
    sim.trace.enable();
    drop_then_reveal(&mut sim, NodeId(0), page);
    assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
    // Everyone recovered…
    for i in 10..20u32 {
        assert!(
            sim.app(NodeId(i)).unwrap().metrics.all_recovered(),
            "node {i}"
        );
    }
    // …and recovery traffic never reached the head of the chain.
    let l01 = sim.topology().link_between(NodeId(0), NodeId(1)).unwrap();
    let recovery_on_l01 = sim
        .trace
        .events()
        .filter(|e| match e {
            netsim::TraceEvent::Forward { link, .. } => *link == l01,
            _ => false,
        })
        .count();
    // Only the two data packets cross the first link; requests/repairs are
    // TTL-limited well short of it.
    assert_eq!(recovery_on_l01, 2, "no recovery traffic near the source");
    // A two-step relay happened (requestor re-multicast the repair)
    // whenever the repair named a requestor; at minimum repairs flowed.
    let total_relays: u64 = (0..20u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.two_step_relays)
        .sum();
    assert!(total_relays >= 1, "two-step second leg fired");
}

/// Scope widening: with a tiny initial TTL no repairer is in reach; the
/// backed-off re-request widens until someone answers (Section VII-B:
/// "If no repair is received before a backed-off request timer expires,
/// then the next request can be sent with a wider scope").
#[test]
fn unanswered_local_request_widens_scope() {
    let topo = chain(12);
    let mut sim = Simulator::new(topo, 5);
    let members: Vec<NodeId> = (0..12u32).map(NodeId).collect();
    let cfg = SrmConfig {
        scope: RecoveryScope::Ttl(1), // far too small to reach a holder
        ..SrmConfig::fixed(12)
    };
    let page = install(&mut sim, &members, NodeId(0), &cfg);
    // Drop on (2,3); the only holders are 0,1,2 — three or more hops from
    // deep downstream members.
    let l = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    sim.set_loss_model(Box::new(netsim::loss::OneShotLinkDrop::new(
        l,
        NodeId(0),
        flow::DATA,
    )));
    drop_then_reveal(&mut sim, NodeId(0), page);
    assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
    for i in 3..12u32 {
        assert!(
            sim.app(NodeId(i)).unwrap().metrics.all_recovered(),
            "node {i} recovered after widening"
        );
    }
    // The responder saw multiple request rounds from the widening.
    let requests: u64 = (0..12u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
        .sum();
    assert!(requests >= 2, "widening needed at least two rounds");
}

/// Administrative scoping: requests flagged admin-scoped stop at zone
/// boundaries; recovery succeeds inside the zone without leaking out, and
/// falls back to global scope when the zone has no holder.
#[test]
fn admin_scoped_recovery_and_fallback() {
    // Zones: nodes 0..5 zone 0, nodes 5..10 zone 1 on a chain of 10.
    let mut topo = chain(10);
    for i in 5..10u32 {
        topo.set_zone(NodeId(i), 1);
    }
    let mut sim = Simulator::new(topo, 8);
    let members: Vec<NodeId> = (0..10u32).map(NodeId).collect();
    let cfg = SrmConfig {
        scope: RecoveryScope::Admin,
        ..SrmConfig::fixed(10)
    };
    let page = install(&mut sim, &members, NodeId(0), &cfg);
    // Case 1: drop inside zone 1, holder available inside zone 1 (nodes 5+
    // got the data; drop on (7,8) → holders 5,6,7 share zone 1).
    let l78 = sim.topology().link_between(NodeId(7), NodeId(8)).unwrap();
    sim.set_loss_model(Box::new(netsim::loss::OneShotLinkDrop::new(
        l78,
        NodeId(0),
        flow::DATA,
    )));
    sim.trace.enable();
    drop_then_reveal(&mut sim, NodeId(0), page);
    assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
    for i in 8..10u32 {
        assert!(sim.app(NodeId(i)).unwrap().metrics.all_recovered());
    }
    // No request crossed the zone boundary (4,5).
    let l45 = sim.topology().link_between(NodeId(4), NodeId(5)).unwrap();
    let crossings = sim
        .trace
        .events()
        .filter(|e| matches!(e, netsim::TraceEvent::Forward { link, .. } if *link == l45))
        .count();
    assert_eq!(crossings, 2, "only the two data packets crossed zones");

    // Case 2: drop ON the zone boundary: the whole of zone 1 misses it; no
    // holder inside the zone, so the first (scoped) request goes
    // unanswered and the widened re-request recovers globally.
    let l45b = l45;
    sim.set_loss_model(Box::new(ScriptedDrop::new(vec![(l45b, 1)])));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page, Bytes::from_static(b"k2"));
    });
    sim.run_until(sim.now() + SimDuration::from_secs_f64(0.01));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page, Bytes::from_static(b"k3"));
    });
    assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
    for i in 5..10u32 {
        let a = sim.app(NodeId(i)).unwrap();
        assert!(a.metrics.all_recovered(), "node {i} recovered via fallback");
        assert_eq!(a.store().len(), 4);
    }
}

/// Separate-multicast-group local recovery (Section VII-B2): persistent
/// losses make the suffering member allocate a recovery group and invite
/// its neighborhood; later requests and their repairs travel on that group
/// and stay off the rest of the session's links.
#[test]
fn recovery_group_confines_later_rounds() {
    let topo = chain(16);
    let mut sim = Simulator::new(topo, 12);
    let members: Vec<NodeId> = (0..16u32).map(NodeId).collect();
    let cfg = SrmConfig {
        recovery_groups: Some(srm::config::RecoveryGroupConfig { invite_ttl: 3 }),
        ..SrmConfig::fixed(16)
    };
    let page = install(&mut sim, &members, NodeId(0), &cfg);
    // Persistent congestion on link (11,12): the tail {12..15} keeps losing
    // packets 1,2,3 (ordinals on that link).
    let l = sim.topology().link_between(NodeId(11), NodeId(12)).unwrap();
    sim.set_loss_model(Box::new(ScriptedDrop::new(vec![(l, 1), (l, 2), (l, 3)])));
    sim.trace.enable();
    for k in 0..4u8 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(120));
    }
    assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
    // Everyone converged.
    for i in 12..16u32 {
        assert_eq!(sim.app(NodeId(i)).unwrap().store().len(), 4, "node {i}");
    }
    // Someone in the tail created a recovery group, and neighbors joined.
    let creators: Vec<u32> = (0..16u32)
        .filter(|&i| sim.app(NodeId(i)).unwrap().created_recovery_group)
        .collect();
    assert!(!creators.is_empty(), "a recovery group was created");
    assert!(
        creators.iter().all(|&i| i >= 10),
        "creators are in the lossy tail: {creators:?}"
    );
    // Later recovery traffic stayed local: the head links saw only the 4
    // data packets, never requests or repairs for the later losses.
    let l01 = sim.topology().link_between(NodeId(0), NodeId(1)).unwrap();
    let head_crossings = sim
        .trace
        .events()
        .filter(|e| matches!(e, netsim::TraceEvent::Forward { link, .. } if *link == l01))
        .count();
    // 4 data packets, plus the first two losses' global rounds (the group
    // forms after RECOVERY_GROUP_MIN_LOSSES = 2) — but NOT the third
    // loss's round.
    assert!(
        head_crossings <= 12,
        "head of the chain saw little recovery traffic: {head_crossings}"
    );
    // The recovery group actually has a neighborhood in it.
    let creator = creators[0];
    let rg = netsim::GroupId(0x4000_0000 + creator);
    assert!(
        sim.members(rg).len() >= 2,
        "invitees joined the recovery group"
    );
}

/// Loss-neighborhood discovery: members sharing a lossy subtree see each
/// other's fingerprints in session messages and identify the loss as local.
#[test]
fn loss_fingerprints_identify_neighborhoods() {
    let topo = bounded_degree_tree(40, 3);
    let mut sim = Simulator::new(topo, 4);
    let members: Vec<NodeId> = vec![
        NodeId(0),
        NodeId(5),
        NodeId(6), // near each other
        NodeId(30),
        NodeId(35), // elsewhere
    ];
    let cfg = SrmConfig::fixed(5);
    let page = install(&mut sim, &members, NodeId(0), &cfg);
    // Re-enable sessions for fingerprint exchange.
    for &m in &members {
        sim.app_mut(m).unwrap().session_enabled = true;
    }
    // Persistently drop the first three data packets on the link into the
    // subtree holding nodes 5 and 6 but not the others: find the link from
    // the SPT of node 0 toward node 5's parent region. Use the first link
    // of node 5's path from 0 that node 30 does not share.
    let spt = sim.route(NodeId(0));
    let path5 = spt.path_links(NodeId(5));
    let path30 = spt.path_links(NodeId(30));
    let link = *path5
        .iter()
        .find(|l| !path30.contains(l))
        .expect("divergent path");
    sim.set_loss_model(Box::new(ScriptedDrop::new(
        (1..=3).map(|o| (link, o)).collect(),
    )));
    for k in 0..4u8 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![k]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(20));
    }
    sim.run_until(sim.now() + SimDuration::from_secs(2_000));
    // Nodes 5 and 6 (if both behind the lossy link) saw losses; node 30 did
    // not. Check 30's view: peers reporting losses exist, but 30 itself has
    // an empty fingerprint → its loss is not local to it.
    let a30 = sim.app(NodeId(30)).unwrap();
    assert_eq!(a30.loss_rate(), 0.0);
    let a5 = sim.app(NodeId(5)).unwrap();
    assert!(a5.loss_rate() > 0.0, "node 5 experienced losses");
    assert!(a5.metrics.all_recovered());
}
