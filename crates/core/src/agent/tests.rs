//! The agent end to end on small simulated chains.

use super::*;
use crate::wire::RequestBody;
use netsim::generators::chain;
use netsim::loss::OneShotLinkDrop;
use netsim::{NodeId, Simulator};

const GROUP: GroupId = GroupId(7);

fn page(src: u64) -> PageId {
    PageId::new(SourceId(src), 0)
}

/// Build a chain of SRM agents with sessions disabled and distances
/// pre-warmed to the true values.
fn chain_session(n: usize, cfg: &SrmConfig) -> Simulator<SrmAgent> {
    let topo = chain(n);
    let mut sim = Simulator::new(topo, 99);
    for i in 0..n {
        let mut a = SrmAgent::new(SourceId(i as u64), GROUP, cfg.clone());
        a.session_enabled = false;
        // Everyone views node 0's page, like a wb session looking at
        // the presenter's slide.
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

#[test]
fn agent_size_is_reported() {
    // The simulator keeps a thousand agents side by side; `scripts/ci.sh`
    // prints this line next to the code-line count. The bound is today's
    // size on a 64-bit target: an agent must not grow.
    let size = std::mem::size_of::<SrmAgent>();
    println!("size_of::<SrmAgent>() = {size}");
    assert!(size <= 1800, "an agent grew to {size} bytes");
}

#[test]
fn data_flows_end_to_end() {
    let mut sim = chain_session(4, &SrmConfig::fixed(4));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"hello"));
    });
    sim.run_until_idle(SimTime::from_secs(100));
    for i in 1..4u32 {
        let got = sim.app_mut(NodeId(i)).unwrap().take_delivered();
        assert_eq!(got.len(), 1, "node {i}");
        assert_eq!(got[0].payload, Bytes::from_static(b"hello"));
        assert!(!got[0].via_repair);
    }
}

#[test]
fn single_drop_is_recovered() {
    let mut sim = chain_session(5, &SrmConfig::fixed(5));
    let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(
        l23,
        NodeId(0),
        flow::DATA,
    )));
    // Packet 0 is dropped on (2,3); packet 1 exposes the gap.
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
    });
    sim.run_until(SimTime::from_secs(1));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
    });
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    for i in 3..5u32 {
        let a = sim.app(NodeId(i)).unwrap();
        assert!(a.metrics.all_recovered(), "node {i}");
        assert_eq!(a.store().len(), 2, "node {i} has both ADUs");
    }
    // Exactly one loss episode was logged downstream.
    let recs = &sim.app(NodeId(4)).unwrap().metrics.recoveries;
    assert_eq!(recs.len(), 1);
    assert!(recs.values().next().unwrap().recovered_at.is_some());
}

#[test]
fn chain_recovery_is_deterministic_with_c2_zero() {
    // Section IV-A: C1 = D1 = 1, C2 = D2 = 0 gives deterministic
    // suppression: one request, one repair.
    let cfg = SrmConfig {
        timers: TimerParams {
            c1: 1.0,
            c2: 0.0,
            d1: 1.0,
            d2: 0.0,
        },
        ..SrmConfig::default()
    };
    let n = 8;
    let mut sim = chain_session(n, &cfg);
    let l = sim.topology().link_between(NodeId(3), NodeId(4)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l, NodeId(0), flow::DATA)));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
    });
    sim.run_until(SimTime::from_secs(1));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
    });
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    let total_requests: u64 = (0..n as u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
        .sum();
    let total_repairs: u64 = (0..n as u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.repairs_sent)
        .sum();
    assert_eq!(total_requests, 1, "deterministic suppression: one request");
    assert_eq!(total_repairs, 1, "one repair");
    // The request comes from node 4 (just downstream of the failure).
    assert_eq!(sim.app(NodeId(4)).unwrap().metrics.requests_sent, 1);
    assert_eq!(sim.app(NodeId(3)).unwrap().metrics.repairs_sent, 1);
}

#[test]
fn session_messages_teach_distances() {
    let mut sim = chain_session(3, &SrmConfig::fixed(3));
    // Erase the warm-started distances to exercise real estimation.
    for i in 0..3u32 {
        let a = sim.app_mut(NodeId(i)).unwrap();
        *a.distances_mut() = DistanceEstimator::new(SimDuration::from_secs(1));
    }
    // Two full session rounds: learn timestamps, then echoes.
    for _round in 0..2 {
        for i in 0..3u32 {
            sim.exec(NodeId(i), |a, ctx| a.send_session_now(ctx));
        }
        sim.run_until(sim.now() + SimDuration::from_secs(10));
    }
    let a0 = sim.app(NodeId(0)).unwrap();
    assert_eq!(
        a0.distances().distance_to(SourceId(2)),
        SimDuration::from_secs(2)
    );
    let a2 = sim.app(NodeId(2)).unwrap();
    assert_eq!(
        a2.distances().distance_to(SourceId(1)),
        SimDuration::from_secs(1)
    );
}

#[test]
fn session_message_detects_tail_loss() {
    let mut sim = chain_session(3, &SrmConfig::fixed(3));
    let l12 = sim.topology().link_between(NodeId(1), NodeId(2)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(
        l12,
        NodeId(0),
        flow::DATA,
    )));
    // The last (only) packet is dropped toward node 2: no later packet
    // will expose the gap; only a session message can.
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"tail"));
    });
    sim.run_until_idle(SimTime::from_secs(50));
    assert_eq!(sim.app(NodeId(2)).unwrap().store().len(), 0);
    // Node 1 (which has the data) announces its state.
    sim.exec(NodeId(1), |a, ctx| a.send_session_now(ctx));
    assert!(sim.run_until_idle(SimTime::from_secs(500)));
    let a2 = sim.app(NodeId(2)).unwrap();
    assert_eq!(a2.store().len(), 1);
    assert!(a2.metrics.all_recovered());
}

#[test]
fn repair_can_come_from_non_source_member() {
    let mut sim = chain_session(4, &SrmConfig::fixed(4));
    // Drop on the last link: nodes 1,2 have the data, node 3 does not.
    let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(
        l23,
        NodeId(0),
        flow::DATA,
    )));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
    });
    sim.run_until(SimTime::from_secs(1));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
    });
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    // With C1=2 scaling by distance, node 2 (distance 1 from node 3)
    // answers before the source can: the repair came from a non-source.
    let repairs_by_2 = sim.app(NodeId(2)).unwrap().metrics.repairs_sent;
    let repairs_by_0 = sim.app(NodeId(0)).unwrap().metrics.repairs_sent;
    assert_eq!(repairs_by_2 + repairs_by_0, 1);
    assert_eq!(repairs_by_2, 1, "nearest holder repairs");
    let d = sim.app_mut(NodeId(3)).unwrap().take_delivered();
    assert!(d.iter().any(|x| x.via_repair));
}

#[test]
fn hold_down_ignores_late_duplicate_requests() {
    let mut sim = chain_session(2, &SrmConfig::fixed(2));
    // Node 0 has data; node 1 will request it twice in quick succession
    // (simulated by feeding two raw request packets).
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"x"));
    });
    sim.run_until_idle(SimTime::from_secs(10));
    // Build a raw request from node 1.
    let name = AduName::new(SourceId(0), page(0), SeqNo(0));
    for _ in 0..2 {
        sim.exec(NodeId(1), |a, ctx| {
            let body = Body::Request(RequestBody {
                name,
                dist_to_source: 1.0,
            });
            a.transmit(
                ctx,
                body,
                SendClass::CurrentPageRecovery,
                SendOptions::for_flow(flow::REQUEST),
            );
        });
    }
    assert!(sim.run_until_idle(SimTime::from_secs(500)));
    let a0 = sim.app(NodeId(0)).unwrap();
    // One repair, and at least one request ignored (pending-repair or
    // hold-down suppression).
    assert_eq!(a0.metrics.repairs_sent, 1);
    // Now a much later request hits the hold-down window only if within
    // 3·d; past it, a new repair goes out. Let the window (3 s at the
    // default 1 s distance) lapse first.
    sim.run_until(sim.now() + SimDuration::from_secs(20));
    sim.exec(NodeId(1), |a, ctx| {
        let body = Body::Request(RequestBody {
            name,
            dist_to_source: 1.0,
        });
        a.transmit(
            ctx,
            body,
            SendClass::CurrentPageRecovery,
            SendOptions::for_flow(flow::REQUEST),
        );
    });
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    let a0 = sim.app(NodeId(0)).unwrap();
    assert_eq!(a0.metrics.repairs_sent, 2);
}

#[test]
fn suppressed_holder_answers_a_later_request() {
    // Chain 0 — 1 — 2: nodes 0 and 1 hold the ADU, node 2 asks for it
    // (raw requests, as above).
    let mut sim = chain_session(3, &SrmConfig::fixed(3));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"x"));
    });
    sim.run_until_idle(SimTime::from_secs(10));
    let name = AduName::new(SourceId(0), page(0), SeqNo(0));
    let request = |sim: &mut Simulator<SrmAgent>| {
        sim.exec(NodeId(2), |a, ctx| {
            let body = Body::Request(RequestBody {
                name,
                dist_to_source: 2.0,
            });
            a.transmit(
                ctx,
                body,
                SendClass::CurrentPageRecovery,
                SendOptions::for_flow(flow::REQUEST),
            );
        });
    };
    let believe = |sim: &mut Simulator<SrmAgent>, secs: u64| {
        sim.app_mut(NodeId(1))
            .unwrap()
            .distances_mut()
            .set_distance(SourceId(2), SimDuration::from_secs(secs));
    };
    let repairs = |sim: &Simulator<SrmAgent>| {
        [0, 1].map(|i| sim.app(NodeId(i)).unwrap().metrics.repairs_sent)
    };
    // Round one: node 1 believes the requester far away, so node 0's
    // timer fires first; its repair cancels node 1's timer on the way
    // past and is lost on the last link, at the requester.
    believe(&mut sim, 100);
    let l12 = sim.topology().link_between(NodeId(1), NodeId(2)).unwrap();
    sim.set_loss_model(Box::new(OneShotLinkDrop::new(l12, NodeId(0), flow::REPAIR)));
    request(&mut sim);
    assert!(sim.run_until_idle(SimTime::from_secs(500)));
    assert_eq!(repairs(&sim), [1, 0]);
    // Round two, past every hold-down: node 1, nearest again, must
    // answer. Its state from round one is `sent: false, timer: None`,
    // which used to read as "pending" forever.
    believe(&mut sim, 1);
    sim.run_until(sim.now() + SimDuration::from_secs(20));
    request(&mut sim);
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    assert_eq!(repairs(&sim), [1, 1], "a holder suppressed once answers the next request");
}

#[test]
fn request_informs_unaware_member() {
    // Node 2 never saw packet 0 or packet 1 (both dropped to it), but
    // hears node 1's request — wait, simpler: craft a request from node
    // 0 for data neither holds; node 1 learns the data exists and joins
    // the recovery (suppressed), eventually recovering when a repair
    // appears. Here we just check the request state is created
    // suppressed (no immediate extra request storm).
    let mut sim = chain_session(3, &SrmConfig::fixed(3));
    let name = AduName::new(SourceId(9), PageId::new(SourceId(9), 0), SeqNo(0));
    sim.exec(NodeId(0), |a, ctx| {
        let body = Body::Request(RequestBody {
            name,
            dist_to_source: 1.0,
        });
        a.transmit(
            ctx,
            body,
            SendClass::CurrentPageRecovery,
            SendOptions::for_flow(flow::REQUEST),
        );
    });
    sim.run_until(SimTime::from_secs(5));
    let a1 = sim.app(NodeId(1)).unwrap();
    assert!(a1.has_pending_recovery());
    let st = a1.episodes[&name].request.as_ref().unwrap();
    assert!(st.backoff_count >= 1, "created already suppressed");
}

#[test]
fn give_up_after_max_rounds() {
    let mut cfg = SrmConfig::fixed(2);
    cfg.max_request_rounds = Some(2);
    let mut sim = chain_session(2, &cfg);
    // Request data that no one has: recovery can never complete.
    let name = AduName::new(SourceId(9), PageId::new(SourceId(9), 0), SeqNo(0));
    sim.exec(NodeId(1), |a, ctx| {
        let missing = a.store.note_exists(name.source, name.page, name.seq);
        a.start_requests(ctx, missing);
    });
    assert!(
        sim.run_until_idle(SimTime::from_secs(10_000)),
        "gave up and went quiet"
    );
    let a1 = sim.app(NodeId(1)).unwrap();
    assert_eq!(a1.metrics.requests_sent, 2);
    let rec = a1.metrics.recoveries.get(&name).unwrap();
    assert!(rec.gave_up);
    assert!(rec.recovered_at.is_none());
}

#[test]
fn periodic_session_messages_flow() {
    let topo = chain(3);
    let mut sim: Simulator<SrmAgent> = Simulator::new(topo, 5);
    for i in 0..3u64 {
        let a = SrmAgent::new(SourceId(i), GROUP, SrmConfig::fixed(3));
        sim.install(NodeId(i as u32), a);
        sim.join(NodeId(i as u32), GROUP);
    }
    sim.run_until(SimTime::from_secs(60));
    for i in 0..3u32 {
        let a = sim.app(NodeId(i)).unwrap();
        assert!(a.metrics.session_sent >= 2, "node {i} sent sessions");
        assert!(a.metrics.session_received >= 2, "node {i} heard sessions");
    }
    // And distances were learned along the way.
    let a0 = sim.app(NodeId(0)).unwrap();
    assert!(a0.distances().has_estimate(SourceId(2)));
}

#[test]
fn the_session_tick_keeps_the_episode_logs_at_their_cap() {
    use crate::metrics::{RecoveryRecord, EPISODE_LOG_CAP};
    let mut sim: Simulator<SrmAgent> = Simulator::new(chain(2), 5);
    for i in 0..2u64 {
        sim.install(NodeId(i as u32), SrmAgent::new(SourceId(i), GROUP, SrmConfig::fixed(2)));
        sim.join(NodeId(i as u32), GROUP);
    }
    // A live node's log, which nobody harvests: 76 records over the cap,
    // all completed.
    let a = sim.app_mut(NodeId(0)).unwrap();
    for seq in 0..(EPISODE_LOG_CAP as u64 + 76) {
        let name = AduName::new(SourceId(1), page(1), SeqNo(seq));
        a.metrics.recoveries.insert(
            name,
            RecoveryRecord {
                name,
                detected_at: SimTime::ZERO,
                recovered_at: Some(SimTime::ZERO),
                request_delay: None,
                requests_sent: 0,
                requests_observed: 0,
                rtt_to_source: SimDuration::from_secs(2),
                gave_up: false,
            },
        );
    }
    sim.run_until(SimTime::from_secs(60));
    let a = sim.app(NodeId(0)).unwrap();
    assert!(a.metrics.session_sent >= 1);
    assert_eq!(a.metrics.recoveries.len(), EPISODE_LOG_CAP);
    assert_eq!(a.metrics.episodes_dropped, 76);
}

#[test]
fn page_request_elicits_state_reply() {
    let mut sim = chain_session(3, &SrmConfig::fixed(3));
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"x"));
        a.send_data(ctx, page(0), Bytes::from_static(b"y"));
    });
    sim.run_until_idle(SimTime::from_secs(10));
    // Node 2 "forgets" and asks for the page state; the reply's state
    // report lets a blank node discover and recover the data. Here node
    // 2 already has it, so instead ask from a fresh member simulated by
    // clearing its store... simplest: node 2 asks, nodes 0/1 suppress
    // down to (at least) one session reply.
    sim.exec(NodeId(2), |a, ctx| {
        a.request_page_state(ctx, page(0));
    });
    assert!(sim.run_until_idle(SimTime::from_secs(200)));
    let replies: u64 = (0..2u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.session_sent)
        .sum();
    assert!(replies >= 1, "someone answered the page request");
}

/// Four members with FEC (k = 3); the 2nd data packet is dropped on the
/// last link, and the parity after the 3rd reconstructs it at node 3.
fn fec_single_loss() -> Simulator<SrmAgent> {
    let mut cfg = SrmConfig::fixed(4);
    cfg.fec = Some(crate::fec::FecConfig { k: 3 });
    let mut sim = chain_session(4, &cfg);
    let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    sim.set_loss_model(Box::new(netsim::loss::ScriptedDrop::new(vec![(l23, 2)])));
    for k in 0..3u8 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from(vec![k; 5]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(1));
    }
    assert!(sim.run_until_idle(SimTime::from_secs(1000)));
    sim
}

#[test]
fn fec_recovers_single_loss_without_any_request() {
    let sim = fec_single_loss();
    let a3 = sim.app(NodeId(3)).unwrap();
    assert_eq!(a3.store().len(), 3, "all three ADUs held");
    assert_eq!(a3.metrics.fec_recoveries, 1, "one local parity reconstruction");
    // No request was ever multicast by anyone: the loss never reached
    // the request/repair machinery.
    let requests: u64 = (0..4u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
        .sum();
    assert_eq!(requests, 0, "FEC preempted recovery");
    // Payload content is correct (ADU 1 = [1,1,1,1,1]).
    let name = AduName::new(SourceId(0), page(0), SeqNo(1));
    assert_eq!(a3.store().get(&name).unwrap(), Bytes::from(vec![1u8; 5]));
}

#[test]
fn a_crash_keeps_the_parity_reconstructions_and_relays_counted() {
    // Both are observer counters like every other in `AgentMetrics`: a
    // crash and restart of the member must not zero them.
    let mut sim = fec_single_loss();
    let a3 = sim.app_mut(NodeId(3)).unwrap();
    assert_eq!(a3.metrics.fec_recoveries, 1);
    a3.metrics.two_step_relays = 2;
    let t = sim.now();
    sim.set_fault_plan(
        netsim::FaultPlan::new()
            .crash(t + SimDuration::from_secs(1), NodeId(3))
            .restart(t + SimDuration::from_secs(2), NodeId(3)),
    );
    sim.run_until(t + SimDuration::from_secs(3));
    let m = &sim.app(NodeId(3)).unwrap().metrics;
    assert_eq!(m.crashes, 1);
    assert_eq!(m.fec_recoveries, 1, "the reconstruction survives the crash");
    assert_eq!(m.two_step_relays, 2, "the relays survive the crash");
}

#[test]
fn fec_double_loss_falls_back_to_requests() {
    let mut cfg = SrmConfig::fixed(4);
    cfg.fec = Some(crate::fec::FecConfig { k: 3 });
    let mut sim = chain_session(4, &cfg);
    let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
    // Drop packets 1 and 2 of the block toward node 3.
    sim.set_loss_model(Box::new(netsim::loss::ScriptedDrop::new(vec![
        (l23, 1),
        (l23, 2),
    ])));
    for k in 0..3u8 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from(vec![k; 5]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs(1));
    }
    assert!(sim.run_until_idle(SimTime::from_secs(10_000)));
    let a3 = sim.app(NodeId(3)).unwrap();
    assert_eq!(a3.store().len(), 3, "recovered via request/repair");
    assert!(a3.metrics.all_recovered());
    let requests: u64 = (0..4u32)
        .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
        .sum();
    assert!(requests >= 1, "XOR cannot fix two losses; requests needed");
    // At most one of the two can ever come from parity (after one
    // repair arrives, the block has a single hole and parity may close
    // it) — both paths must compose cleanly.
    assert!(a3.metrics.fec_recoveries <= 1);
}

#[test]
fn send_priorities_favor_current_page_recovery() {
    // Section III-E: with a constrained sender, a repair for the
    // current page leaves before queued new data.
    let mut cfg = SrmConfig::fixed(2);
    cfg.rate_limit = Some(crate::config::RateLimit {
        bytes_per_sec: 60.0, // about one message per second
        burst_bytes: 70.0,
    });
    let mut sim = chain_session(2, &cfg);
    // Node 0 holds an ADU node 1 will request.
    sim.exec(NodeId(0), |a, ctx| {
        a.send_data(ctx, page(0), Bytes::from_static(b"x"));
    });
    sim.run_until_idle(SimTime::from_secs(100));
    // Fill node 0's send queue with new data, then a request arrives.
    let name = AduName::new(SourceId(0), page(0), SeqNo(0));
    sim.exec(NodeId(0), |a, ctx| {
        for _ in 0..5 {
            a.send_data(ctx, page(0), Bytes::from(vec![7u8; 40]));
        }
    });
    sim.exec(NodeId(1), |a, ctx| {
        let body = Body::Request(RequestBody {
            name,
            dist_to_source: 1.0,
        });
        a.transmit(
            ctx,
            body,
            SendClass::CurrentPageRecovery,
            SendOptions::for_flow(flow::REQUEST),
        );
    });
    sim.trace.enable();
    assert!(sim.run_until_idle(SimTime::from_secs(10_000)));
    // The repair left node 0 before all the queued new data: find the
    // first REPAIR send and check at least one DATA send follows it.
    let sends: Vec<(u32, f64)> = sim
        .trace
        .events()
        .filter_map(|e| match e {
            netsim::TraceEvent::Send { at, node, flow, .. } if *node == NodeId(0) => {
                Some((*flow, at.as_secs_f64()))
            }
            _ => None,
        })
        .collect();
    let repair_at = sends
        .iter()
        .find(|(f, _)| *f == flow::REPAIR)
        .map(|&(_, t)| t)
        .expect("a repair was sent");
    let data_after = sends
        .iter()
        .filter(|(f, t)| *f == flow::DATA && *t > repair_at)
        .count();
    assert!(
        data_after >= 1,
        "the repair jumped ahead of queued new data (sends: {sends:?})"
    );
}

#[test]
fn measured_session_bandwidth_tracks_activity() {
    // §III-A "measured adaptively": an idle session sends session
    // messages at the max-interval floor; a busy one speeds up to keep
    // the 5% share of the measured data rate.
    let topo = chain(2);
    let mut sim: Simulator<SrmAgent> = Simulator::new(topo, 33);
    for i in 0..2u64 {
        let mut cfg = SrmConfig::fixed(2);
        cfg.measured_session_bandwidth = true;
        cfg.max_session_interval = SimDuration::from_secs(60);
        let mut a = SrmAgent::new(SourceId(i), GROUP, cfg);
        a.set_current_page(page(0));
        sim.install(NodeId(i as u32), a);
        sim.join(NodeId(i as u32), GROUP);
    }
    // Idle phase: 600 s with no data.
    sim.run_until(SimTime::from_secs(600));
    let idle_msgs = sim.app(NodeId(0)).unwrap().metrics.session_sent;
    assert!(
        idle_msgs <= 15,
        "idle member pinned near the 60s ceiling: {idle_msgs} messages"
    );
    // Busy phase: 300 s of steady 400-byte ADUs every 0.5 s from node 0
    // (~900 B/s on the wire).
    for k in 0..600u32 {
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from(vec![k as u8; 400]));
        });
        sim.run_until(sim.now() + SimDuration::from_secs_f64(0.5));
    }
    let busy_msgs = sim.app(NodeId(0)).unwrap().metrics.session_sent - idle_msgs;
    // Idle pace would give ~5 messages in 300 s; the busy session must
    // clearly outpace that.
    assert!(
        busy_msgs as f64 > 3.0 * (idle_msgs as f64 / 2.0),
        "busy period sends session messages faster: busy {busy_msgs}/300s vs idle {idle_msgs}/600s"
    );
    // And the measured bandwidth reads a sane value (~900 B/s data).
    let now = sim.now();
    let bw = sim.app_mut(NodeId(0)).unwrap().measured_data_bandwidth(now);
    assert!(bw > 300.0 && bw < 3000.0, "measured {bw} B/s");
}

#[test]
fn rate_limiter_paces_data() {
    let mut cfg = SrmConfig::fixed(2);
    cfg.rate_limit = Some(crate::config::RateLimit {
        bytes_per_sec: 100.0,
        burst_bytes: 120.0,
    });
    let mut sim = chain_session(2, &cfg);
    // Queue 5 ADUs of ~60 bytes each at t=0; they must not all leave
    // immediately.
    sim.exec(NodeId(0), |a, ctx| {
        for _ in 0..5 {
            a.send_data(ctx, page(0), Bytes::from_static(b"0123456789"));
        }
    });
    sim.trace.enable();
    assert!(sim.run_until_idle(SimTime::from_secs(60)));
    let a1 = sim.app(NodeId(1)).unwrap();
    assert_eq!(a1.store().len(), 5, "all data eventually delivered");
    // Deliveries are spread over time, not all at t=1.
    let times: Vec<f64> = sim
        .trace
        .events()
        .filter_map(|e| match e {
            netsim::TraceEvent::Deliver { at, .. } => Some(at.as_secs_f64()),
            _ => None,
        })
        .collect();
    let span = times.iter().cloned().fold(f64::MIN, f64::max)
        - times.iter().cloned().fold(f64::MAX, f64::min);
    assert!(span > 1.0, "sends were paced (span {span})");
}
