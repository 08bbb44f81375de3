//! End-to-end check of the observability tentpole: a passive
//! [`GroupMonitor`] watching a real loopback mesh must reconstruct
//! per-member lag that matches sender-side ground truth after a
//! drop-and-repair episode, and flip a stopped member to suspect/dead from
//! session silence alone — while the live [`obs::MetricsRegistry`] on one
//! node records the transport's side of the same story.

use bytes::Bytes;
use netsim::GroupId;
use srm_transport::{ChaosPlan, Envelope, GroupMonitor, Mode, Node, NodeHandle, WallClock};
use srm_transport::NodeOptions;
use srm::{LivenessConfig, PageId, PeerState, SeqNo, SourceId, SrmConfig};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Pump every datagram the monitor socket has received into the monitor,
/// then sweep.  Returns when `done` says so or after `budget`.
fn observe_until(
    socket: &UdpSocket,
    clock: &WallClock,
    mon: &mut GroupMonitor,
    budget: Duration,
    group: u32,
    mut done: impl FnMut(&GroupMonitor) -> bool,
) {
    let deadline = Instant::now() + budget;
    let mut buf = [0u8; 65_535];
    let mut last_sweep = Instant::now();
    while Instant::now() < deadline {
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => {
                if let Ok(env) = Envelope::decode(&buf[..n]) {
                    if env.group == group {
                        if let Ok(msg) = srm::Message::decode(env.payload.clone()) {
                            mon.observe(clock.now(), &msg);
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("monitor recv: {e}"),
        }
        if last_sweep.elapsed() >= Duration::from_millis(250) {
            last_sweep = Instant::now();
            mon.sweep(clock.now());
        }
        if done(mon) {
            return;
        }
    }
}

#[test]
fn passive_monitor_matches_sender_ground_truth_and_detects_death() {
    // Four pre-bound sockets: three members and the silent monitor.
    let socks: Vec<UdpSocket> =
        (0..4).map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind")).collect();
    let addrs: Vec<SocketAddr> = socks.iter().map(|s| s.local_addr().unwrap()).collect();
    let cfg = SrmConfig::fixed(3);
    let registry = obs::MetricsRegistry::new();

    let mut nodes: Vec<NodeHandle> = Vec::new();
    for (i, sock) in socks.iter().take(3).enumerate() {
        // Peer list: the other two members first, the monitor last — the
        // ordering matters for the drop rules below.
        let peers: Vec<SocketAddr> = (0..3)
            .filter(|&j| j != i)
            .map(|j| addrs[j])
            .chain(std::iter::once(addrs[3]))
            .collect();
        let mut opts = NodeOptions::new(SourceId(i as u64 + 1), GroupId(1), cfg.clone());
        opts.seed = 42 + i as u64;
        if i == 0 {
            // Drop the first ADU's DATA copies to both member peers (sends
            // replicate per peer in list order), forcing session-driven
            // loss detection and repair.  The monitor's copy is spared so
            // ground truth (seq 1 exists) reaches it either way.
            opts.chaos = Some(
                ChaosPlan::new()
                    .drop_nth(netsim::flow::DATA, 0)
                    .drop_nth(netsim::flow::DATA, 1),
            );
            opts.metrics = Some(registry.clone());
            opts.trace = true;
        }
        let sock = sock.try_clone().expect("clone");
        nodes.push(Node::spawn_on(sock, Mode::Mesh { peers }, opts).expect("spawn"));
    }

    // Member 1 publishes two ADUs; the first is dropped to members 2 and 3.
    // The whiteboard model: every member views the sender's page, so their
    // session messages report its state (that report is what the monitor
    // reads lag from — and what drives the members' own gap detection).
    let page = PageId::new(SourceId(1), 0);
    for node in &nodes[1..] {
        node.exec(move |a, _| a.set_current_page(page));
    }
    nodes[0].send_data(page, Bytes::from_static(b"first (dropped)"));
    nodes[0].send_data(page, Bytes::from_static(b"second"));

    let clock = WallClock::new();
    let mut mon = GroupMonitor::new(
        // Tight thresholds so the death phase fits a test budget; nominal
        // interval floors at 1s for this group size.
        LivenessConfig { suspect_after: 1.5, dead_after: 3.0 },
    );
    socks[3]
        .set_read_timeout(Some(Duration::from_millis(25)))
        .expect("read timeout");

    // Phase 1: everyone alive and fully repaired.  Ground truth: the flow
    // (page 1.0, source 1) tops out at seq 1, and after repair every
    // member's reported state reaches it — lag 0 across the group.
    let flow = (page, SourceId(1));
    observe_until(&socks[3], &clock, &mut mon, Duration::from_secs(20), 1, |m| {
        let h = m.health(clock.now());
        h.len() == 3
            && h.iter().all(|e| {
                e.state == PeerState::Alive
                    && e.lag.get(&flow) == Some(&0)
                    && e.sessions_heard >= 2
            })
    });
    let health = mon.health(clock.now());
    assert_eq!(health.len(), 3, "monitor heard all three members");
    for h in &health {
        assert_eq!(h.state, PeerState::Alive, "m{} alive", h.member.0);
        assert_eq!(
            h.lag.get(&flow),
            Some(&0),
            "m{} caught up after drop-and-repair",
            h.member.0
        );
    }
    // The monitor's reconstruction agrees with sender-side ground truth:
    // both ADUs reach every member.  Lag-by-highest-seq hits 0 as soon as
    // the second ADU lands, so the seq-0 repair may still be in flight —
    // give it its own budget.
    for node in &nodes[1..] {
        let mut delivered = Vec::new();
        let wait = Instant::now();
        while delivered.len() < 2 && wait.elapsed() < Duration::from_secs(20) {
            delivered.extend(node.take_delivered());
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(delivered.len(), 2, "both ADUs delivered");
        assert!(delivered.iter().any(|d| d.via_repair), "one arrived as a repair");
    }
    let truth: Vec<Option<SeqNo>> = nodes
        .iter()
        .map(|n| n.exec(move |a, _| a.store().page_state(page).into_iter().find(|s| s.0 == SourceId(1)).map(|s| s.1)))
        .collect();
    for (i, t) in truth.iter().enumerate() {
        assert_eq!(*t, Some(SeqNo(1)), "member {} store tops at seq 1", i + 1);
    }

    // The sender's live registry saw the same run: data out, sessions both
    // ways, and a timer wheel that did real work.
    let snap1 = registry.snapshot();
    assert!(snap1.counters["tx.frames.data"] >= 2, "two ADUs left member 1");
    assert!(snap1.counters["tx.frames.session"] >= 1);
    assert!(snap1.counters["rx.frames.session"] >= 1);
    assert_eq!(snap1.counters["decode_errors"], 0);
    assert!(snap1.gauges["max_wheel_len"] >= 1);
    assert!(snap1.hists["stage.handle_s"].count() >= 1);

    // Phase 2: member 3 leaves without a word; silence alone must flip it
    // suspect and then dead while the chatty members stay alive.
    nodes.pop().unwrap().shutdown();
    observe_until(&socks[3], &clock, &mut mon, Duration::from_secs(8), 1, |m| {
        m.state(SourceId(3)) == PeerState::Dead
    });
    assert_eq!(mon.state(SourceId(3)), PeerState::Dead, "silent member declared dead");
    assert_eq!(mon.state(SourceId(1)), PeerState::Alive);
    assert_eq!(mon.state(SourceId(2)), PeerState::Alive);
    let dead_row = mon
        .health(clock.now())
        .into_iter()
        .find(|h| h.member == SourceId(3))
        .expect("member 3 still reported");
    assert_eq!(dead_row.state, PeerState::Dead);

    // Every counter stays monotone across the two phases.
    let snap2 = registry.snapshot();
    for (name, &before) in &snap1.counters {
        assert!(snap2.counters[name] >= before, "{name} went backwards");
    }
    assert!(snap2.counters["frames_attempted"] >= snap1.counters["frames_attempted"]);

    for node in nodes {
        node.shutdown();
    }
}
