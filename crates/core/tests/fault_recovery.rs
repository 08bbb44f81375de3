//! SRM recovery under injected host faults.
//!
//! The paper claims the framework "is robust to host failures and network
//! partition" because recovery is receiver-initiated and any member holding
//! the data can answer a repair request. These integration tests inject
//! crashes through netsim's scripted [`FaultPlan`] and check both halves of
//! that claim:
//!
//! - a **non-source** member answers outstanding repairs after the source
//!   crashes (requests name the data, not the sender), and
//! - a crashed-and-restarted source recovers its *own* pre-crash stream from
//!   the group as a late joiner (§III-A page catalog + page state).

use bytes::Bytes;
use netsim::generators::chain;
use netsim::loss::OneShotLinkDrop;
use netsim::{flow, FaultPlan, GroupId, NodeId, SimDuration, SimTime, Simulator};
use srm::{PageId, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(7);

fn page(src: u64) -> PageId {
    PageId::new(SourceId(src), 0)
}

/// A chain of SRM agents with sessions disabled and distances pre-warmed to
/// the true values (the standard clean-room recovery harness).
fn chain_session(n: usize, cfg: &SrmConfig) -> Simulator<SrmAgent> {
    let topo = chain(n);
    let mut sim = Simulator::new(topo, 99);
    for i in 0..n {
        let mut a = SrmAgent::new(SourceId(i as u64), GROUP, cfg.clone());
        a.session_enabled = false;
        a.set_current_page(page(0));
        for j in 0..n {
            if i != j {
                a.distances_mut().set_distance(
                    SourceId(j as u64),
                    SimDuration::from_secs((i as i64 - j as i64).unsigned_abs()),
                );
            }
        }
        sim.install(NodeId(i as u32), a);
        sim.join(NodeId(i as u32), GROUP);
    }
    sim
}

/// The source crashes while a downstream member still has an outstanding
/// loss. A non-source member that holds the data must answer the repair —
/// the source is not needed for recovery.
#[test]
fn non_source_member_answers_repair_after_source_crash() {
    let mut sim = chain_session(4, &SrmConfig::fixed(4));
    let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l23, NodeId(0), flow::DATA)));
    // Packet 0 is dropped on (2,3) — nodes 1 and 2 hold it, node 3 does not.
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
    });
    sim.run_until(SimTime::from_secs(1));
    // Packet 1 exposes the gap at node 3 (detection at ~t=4s; its request
    // timer draws from [2d, 4d] with d=3, so the first request fires well
    // after the crash below).
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
    });
    // Crash the source before any request can fire.
    sim.set_fault_plan(FaultPlan::new().crash(SimTime::from_secs(5), NodeId(0)));
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    assert!(!sim.node_is_up(NodeId(0)));
    assert_eq!(sim.app(NodeId(0)).unwrap().metrics.crashes, 1);

    // Node 3 recovered without the source.
    let a3 = sim.app(NodeId(3)).unwrap();
    assert!(a3.metrics.all_recovered(), "node 3 must recover");
    assert_eq!(a3.store().len(), 2, "node 3 holds both ADUs");
    // The repair came from a non-source member (1 or 2), not from node 0.
    let peer_repairs: u64 = [1u32, 2]
        .iter()
        .map(|&i| sim.app(NodeId(i)).unwrap().metrics.repairs_sent)
        .sum();
    assert!(peer_repairs >= 1, "a non-source member sent the repair");
}

/// A crashed member loses all state; on restart it must request the page
/// catalog, chase page state, and recover even its own pre-crash stream
/// from its peers (late-joiner machinery, §III-A).
#[test]
fn restarted_source_recovers_own_stream_from_peers() {
    let mut sim = chain_session(4, &SrmConfig::fixed(4));
    // The source publishes three ADUs that everyone receives.
    for (i, payload) in [&b"a0"[..], b"a1", b"a2"].iter().enumerate() {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::copy_from_slice(payload));
        });
        sim.run_until(SimTime::from_secs(1 + i as u64));
    }
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(sim.app(NodeId(0)).unwrap().store().len(), 3);

    // Crash, then restart. The restart fires SrmAgent::on_restart, which
    // requests the page catalog and then per-page state.
    sim.set_fault_plan(
        FaultPlan::new()
            .crash(SimTime::from_secs(25), NodeId(0))
            .restart(SimTime::from_secs(30), NodeId(0)),
    );
    sim.run_until(SimTime::from_secs(26));
    assert_eq!(
        sim.app(NodeId(0)).unwrap().store().len(),
        0,
        "crash wipes the store"
    );
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));

    let a0 = sim.app(NodeId(0)).unwrap();
    assert_eq!(a0.metrics.crashes, 1);
    assert_eq!(
        a0.store().len(),
        3,
        "restarted source recovered its own pre-crash ADUs"
    );
    assert!(a0.metrics.all_recovered());

    // New data from the restarted source must not collide with recovered
    // sequence numbers: peers (which never crashed) see it as fresh.
    let before = sim.app(NodeId(3)).unwrap().store().len();
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"post-restart"));
    });
    assert!(sim.run_until_idle(SimTime::from_secs(2000)));
    let a3 = sim.app(NodeId(3)).unwrap();
    assert_eq!(
        a3.store().len(),
        before + 1,
        "post-restart ADU got a fresh sequence number"
    );
}

/// A member without a store that recovered a loss, crashed and restarted
/// detects the same ADU missing again. That is a new loss: its record must
/// be open (so `all_recovered` is false) until the ADU comes back, and it
/// must date from after the restart, not carry the pre-crash detection
/// time (which would put the downtime into the recovery delay).
#[test]
fn a_loss_detected_again_after_a_restart_gets_a_fresh_record() {
    let mut sim = chain_session(4, &SrmConfig::fixed(4));
    let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l23, NodeId(0), flow::DATA)));
    // p0 never reaches node 3; node 2's session message reveals it, and
    // node 3 recovers it by request and repair.
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
    });
    sim.run_until(SimTime::from_secs(5));
    sim.exec(NodeId(2), |a, ctx| a.send_session_now(ctx));
    sim.run_until(SimTime::from_secs(100));
    let name = {
        let a3 = sim.app(NodeId(3)).unwrap();
        assert_eq!(a3.store().len(), 1);
        assert!(a3.metrics.all_recovered());
        let rec = a3.metrics.completed_recoveries().next().expect("p0 was recovered");
        assert!(rec.detected_at < SimTime::from_secs(100));
        rec.name
    };

    // Crash node 3 (no store: everything volatile goes) and restart it.
    let restart_at = SimTime::from_secs(150);
    sim.set_fault_plan(
        FaultPlan::new()
            .crash(SimTime::from_secs(120), NodeId(3))
            .restart(restart_at, NodeId(3)),
    );
    sim.run_until(restart_at);
    assert_eq!(sim.app(NodeId(3)).unwrap().store().len(), 0, "crash wipes the store");

    // The rejoin re-detects p0. While it is missing, nothing is recovered.
    let mut open_seen = false;
    while sim.app(NodeId(3)).unwrap().store().is_empty() {
        assert!(sim.now() < SimTime::from_secs(1000), "p0 never came back");
        sim.run_until(sim.now() + SimDuration::from_millis(100));
        let a3 = sim.app(NodeId(3)).unwrap();
        if a3.has_pending_recovery() {
            open_seen = true;
            assert!(!a3.metrics.all_recovered(), "an open loss reads as recovered");
        }
    }
    assert!(open_seen, "the restarted member re-requested p0");

    assert!(sim.run_until_idle(SimTime::from_secs(2000)));
    let rec = &sim.app(NodeId(3)).unwrap().metrics.recoveries[&name];
    assert!(
        rec.detected_at >= restart_at,
        "detected at {:?}, restarted at {restart_at:?}",
        rec.detected_at
    );
    let recovered_at = rec.recovered_at.expect("p0 recovered again");
    assert!(recovered_at > rec.detected_at);
}

/// Clock skew on one member distorts its one-way delay readings but must
/// not break recovery: timers stretch, the algorithm still converges.
#[test]
fn recovery_survives_clock_skew_on_requestor() {
    let mut sim = chain_session(4, &SrmConfig::fixed(4));
    let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l23, NodeId(0), flow::DATA)));
    // Node 3's clock runs 2 s ahead of true time for the whole run.
    sim.set_fault_plan(FaultPlan::new().clock_skew(SimTime::ZERO, NodeId(3), 2.0));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
    });
    sim.run_until(SimTime::from_secs(1));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
    });
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    let a3 = sim.app(NodeId(3)).unwrap();
    assert!(a3.metrics.all_recovered(), "skewed node still recovers");
    assert_eq!(a3.store().len(), 2);
}

/// A clock stepped backwards leaves a member's last receive times in its
/// own future. Its next session message must echo them with a zero delay
/// rather than trip `SimTime::since` (a debug-build panic).
#[test]
fn a_clock_stepped_backwards_keeps_sessions_running() {
    let mut sim = Simulator::new(chain(3), 99);
    for i in 0..3u32 {
        sim.install(
            NodeId(i),
            SrmAgent::new(SourceId(i as u64), GROUP, SrmConfig::fixed(3)),
        );
        sim.join(NodeId(i), GROUP);
    }
    sim.set_fault_plan(FaultPlan::new().clock_skew(SimTime::from_secs(30), NodeId(1), -20.0));
    sim.run_until(SimTime::from_secs(200));
    let a1 = sim.app(NodeId(1)).unwrap();
    assert!(
        a1.metrics.session_sent > 0,
        "the stepped member kept sending sessions"
    );
    assert_eq!(
        a1.distances().peer_count(),
        2,
        "and kept hearing both peers"
    );
}
