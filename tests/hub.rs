//! srm-hub end-to-end: demux partition, node equivalence, multi-group
//! fan-out, and the control-plane golden transcript.
//!
//! Four angles on the multi-session hub:
//!
//! 1. **Partition property** (proptest): `shard_of` is a total, stable
//!    partition of the group-id space, and the demux's cheap
//!    [`Envelope::precheck`] routes every well-formed frame to exactly the
//!    shard the full decode would — prechecking changes *where* a frame's
//!    fate is decided, never the fate.
//! 2. **Node equivalence**: a hub hosting one group delivers the same
//!    payload bytes to a peer that a standalone `srm-node` sender would,
//!    chaos drop rule, repair and recorder trace included — the hub is the
//!    same reactor hosting the same agent, not a different protocol.
//! 3. **Concurrent groups**: one hub hosts 8 groups on loopback, each
//!    with its own receiver node; every group's ADUs arrive, sessions
//!    stay isolated, and passive [`GroupMonitor`]s on two of the groups
//!    reconstruct member health from session messages alone (§III-A).
//! 4. **Control golden**: a scripted line-JSON session replays against
//!    `tests/golden/hub_control.jsonl` byte-for-byte, including malformed
//!    commands and duplicate-group errors.
//!
//! Plus the satellite checks that a standalone node counts (rather than
//! silently eats) well-formed frames for groups it never joined, that an
//! over-long, deeply nested or non-UTF-8 control line costs its sender one
//! error reply, not the hub its process or the sender its connection, and
//! that a hub's threads are its shards: shard 0 reads the socket, and no
//! demux thread sits in front of it.

use bytes::Bytes;
use netsim::{flow, GroupId, SimDuration};
use proptest::prelude::*;
use srm::{LivenessConfig, Message, PageId, SourceId, SrmAgent, SrmConfig};
use srm_transport::control::serve;
use srm_transport::hub::{Hub, HubOptions};
use obs::json::Json;
use srm_transport::{
    handle_line, shard_of, ChaosPlan, Envelope, GroupMonitor, GroupSpec, Harness,
    Mode, Node, NodeHandle, NodeOptions, WallClock,
};
use std::collections::BTreeSet;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

fn spec(group: u32, peers: Vec<SocketAddr>, id: u64, members: usize) -> GroupSpec {
    GroupSpec {
        group,
        peers,
        id,
        members,
        rate: None,
        burst: None,
        dist_ms: Some(5),
    }
}

fn spawn_receiver(id: u64, group: u32, members: usize, hub: SocketAddr) -> NodeHandle {
    let opts = NodeOptions::new(SourceId(id), GroupId(group), SrmConfig::fixed(members));
    Node::spawn(
        "127.0.0.1:0".parse().unwrap(),
        Mode::Mesh { peers: vec![hub] },
        opts,
    )
    .expect("receiver node binds")
}

/// Poll `node` until it has delivered `want` ADUs (or the deadline hits);
/// returns the payloads in delivery order.
fn collect_delivered(node: &NodeHandle, want: usize, deadline: Instant) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    while got.len() < want && Instant::now() < deadline {
        got.extend(node.take_delivered().into_iter().map(|d| d.payload.to_vec()));
        std::thread::sleep(Duration::from_millis(20));
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `shard_of` partitions the id space (total, in range, stable), and
    /// demux routing by precheck agrees with routing by full decode for
    /// every well-formed frame; a corrupted magic fails both the same way.
    #[test]
    fn demux_partition_is_total_stable_and_decode_equivalent(
        groups in proptest::collection::vec(0u32..1_000_000, 1..32),
        shards in 1usize..16,
        payload_len in 0usize..64,
    ) {
        for &g in &groups {
            let s = shard_of(g, shards);
            prop_assert!(s < shards, "shard out of range");
            prop_assert_eq!(s, shard_of(g, shards), "must be stable");

            let wire = Envelope {
                src: 7,
                group: g,
                ttl: 3,
                initial_ttl: 5,
                admin_scoped: false,
                flow: 2,
                payload: Bytes::from(vec![0xAB; payload_len]),
            }
            .encode();
            // The cheap routing read and the full decode agree on the key.
            prop_assert_eq!(Envelope::precheck(&wire).ok(), Some(g));
            let view = Envelope::decode_view(&wire).expect("well-formed frame decodes");
            prop_assert_eq!(shard_of(view.group, shards), s);

            // Corrupt magic: precheck refuses, and so does the decode the
            // shard would have attempted — no silent divergence.
            let mut bad = wire.to_vec();
            bad[0] ^= 0xFF;
            prop_assert!(Envelope::precheck(&bad).is_err());
            prop_assert!(Envelope::decode_view(&bad).is_err());
        }
    }
}

/// Options for member 1 of a 2-member group 1 that loses its first DATA
/// frame and records its side of the recovery — handed unchanged to a node
/// and to a hub.
fn lossy_traced_sender() -> NodeOptions {
    let mut opts = NodeOptions::new(SourceId(1), GroupId(1), SrmConfig::fixed(2));
    opts.trace = true;
    opts.chaos = Some(ChaosPlan::new().drop_nth(flow::DATA, 0));
    opts.initial_distances = vec![(SourceId(2), SimDuration::from_millis(20))];
    opts
}

/// The kinds of recovery event `agent` recorded, and how many events its
/// trace rings evicted.
fn recorder_kinds(agent: &SrmAgent) -> (BTreeSet<&'static str>, u64) {
    let evicted = agent.obs.dropped_events() + agent.transport_obs.dropped_events();
    (agent.obs.events().map(|e| e.kind.name()).collect(), evicted)
}

/// A hub-hosted group speaks the same bytes as a standalone node: the
/// same ADU texts sent (a) node→node via the single-session runtime and
/// (b) hub→node via a hub-hosted group arrive as identical payload sets —
/// here with the sender's first DATA frame dropped, so one of them arrives
/// by repair. Both senders run from the same traced [`NodeOptions`], and
/// the hub-hosted one's recorder, read through [`HubHandle::exec`], must
/// show every kind of recovery event the node's does. A frame that only
/// the reactor's full decode can reject is counted and lands in the traced
/// group's transport stream, as it would on a node.
#[test]
fn hub_group_is_payload_equivalent_to_a_single_group_node() {
    const N: u32 = 6;
    let texts: Vec<String> = (0..N).map(|i| format!("equiv #{i}")).collect();
    let near = |opts: &mut NodeOptions| {
        opts.initial_distances = vec![(SourceId(1), SimDuration::from_millis(20))];
    };

    // (a) Plain two-node session, member 1 sends.
    let cfg = SrmConfig::fixed(2);
    let h = Harness::loopback(2, GroupId(1), &cfg, |i, _, opts| match i {
        0 => *opts = lossy_traced_sender(),
        _ => near(opts),
    })
    .expect("harness binds");
    let page = PageId::new(SourceId(1), 0);
    for t in &texts {
        h.nodes[0].send_data(page, Bytes::from(t.clone().into_bytes()));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut via_node = collect_delivered(&h.nodes[1], N as usize, deadline);
    let (node_kinds, node_evicted) = h.nodes[0].exec(|a, _| recorder_kinds(a));
    assert_eq!(node_evicted, 0, "the node's trace rings kept every event");
    drop(h.shutdown());

    // (b) Hub hosts group 1 as member 1; a standalone node receives.
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), HubOptions::default()).unwrap();
    let mut receiver_opts = NodeOptions::new(SourceId(2), GroupId(1), cfg);
    near(&mut receiver_opts);
    let receiver = Node::spawn(
        "127.0.0.1:0".parse().unwrap(),
        Mode::Mesh { peers: vec![hub.local_addr()] },
        receiver_opts,
    )
    .expect("receiver node binds");
    let to_receiver = Mode::Mesh { peers: vec![receiver.local_addr()] };
    hub.create_with(to_receiver, lossy_traced_sender())
        .expect("create hosts the group");
    // `send` with count > 1 suffixes " #i" — the same strings as above.
    hub.send(1, "equiv", N).expect("hub publishes");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut via_hub = collect_delivered(&receiver, N as usize, deadline);
    let (hub_kinds, hub_evicted) = hub.exec(1, |a, _| recorder_kinds(a)).expect("group 1 is hosted");
    assert_eq!(hub_evicted, 0, "the hub group's trace rings kept every event");

    // One payload byte short of what the length field claims: the demux's
    // precheck passes it on, group 1's reactor refuses it.
    let cut = Envelope {
        src: 2,
        group: 1,
        ttl: 1,
        initial_ttl: 1,
        admin_scoped: false,
        flow: flow::DATA,
        payload: Bytes::from_static(b"cut short"),
    }
    .encode();
    let stranger = UdpSocket::bind("127.0.0.1:0").unwrap();
    stranger.send_to(&cut[..cut.len() - 1], hub.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while hub.stats().decode_errors == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let hub_transport: BTreeSet<&'static str> = hub
        .exec(1, |a, _| a.transport_obs.events().map(|e| e.kind.name()).collect())
        .expect("group 1 is hosted");

    let st = hub.stats();
    assert_eq!(st.decode_errors, 1, "the cut frame is counted: {st:?}");
    assert!(
        hub_transport.contains("decode_error"),
        "the reactor's decode error is read through its traced group: {hub_transport:?}"
    );
    assert_eq!(st.groups.len(), 1);
    assert_eq!(st.groups[0].agent_counter("data_sent"), u64::from(N));
    assert_eq!(st.frames_dropped, 1, "the chaos drop rule acts on a hub group: {st:?}");
    assert_eq!(
        st.frames_attempted,
        st.frames_sent + st.frames_dropped + st.blackholed + st.send_errors,
        "hub frame accounting: {st:?}"
    );
    drop(receiver.shutdown());
    hub.shutdown();

    via_node.sort();
    via_hub.sort();
    let mut expected: Vec<Vec<u8>> = texts.iter().map(|t| t.clone().into_bytes()).collect();
    expected.sort();
    assert_eq!(via_node, expected, "single-node session dropped payloads");
    assert_eq!(via_hub, expected, "hub-hosted session dropped payloads");
    assert_eq!(via_node, via_hub, "hub and node payload bytes diverge");
    assert!(node_kinds.contains("repair_sent"), "node sender never repaired: {node_kinds:?}");
    assert!(
        hub_kinds.is_superset(&node_kinds),
        "hub-hosted recorder misses kinds the node emits: hub {hub_kinds:?} vs node {node_kinds:?}"
    );
}

/// One hub, eight concurrent groups, one receiver node each; passive
/// monitors on two groups reconstruct the hub member's health purely from
/// what it multicasts. Sessions must not bleed into each other.
#[test]
fn eight_concurrent_groups_deliver_independently_under_one_hub() {
    const GROUPS: u32 = 8;
    const ADUS: u32 = 5;
    let registry = obs::MetricsRegistry::new();
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().unwrap(),
        HubOptions {
            shards: 4,
            metrics: Some(registry.clone()),
            ..HubOptions::default()
        },
    )
    .unwrap();

    // Two passive monitor sockets, listed as extra fan-out peers on their
    // groups (a unicast-mesh monitor must be in the sender's peer list).
    let monitored = [1u32, 2u32];
    let mon_socks: Vec<UdpSocket> = monitored
        .iter()
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0").unwrap();
            s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            s
        })
        .collect();

    let mut receivers = Vec::new();
    for g in 1..=GROUPS {
        let receiver = spawn_receiver(2, g, 2, hub.local_addr());
        let mut peers = vec![receiver.local_addr()];
        if let Some(i) = monitored.iter().position(|&m| m == g) {
            peers.push(mon_socks[i].local_addr().unwrap());
        }
        hub.create(spec(g, peers, 1, 2), false).expect("create group");
        receivers.push(receiver);
    }

    for g in 1..=GROUPS {
        hub.send(g, &format!("g{g}"), ADUS).expect("hub publishes");
    }

    // Every group's receiver gets exactly its own ADUs.
    let deadline = Instant::now() + Duration::from_secs(60);
    for (i, receiver) in receivers.iter().enumerate() {
        let g = i as u32 + 1;
        let mut got = collect_delivered(receiver, ADUS as usize, deadline);
        got.sort();
        let mut expected: Vec<Vec<u8>> = (0..ADUS)
            .map(|a| format!("g{g} #{a}").into_bytes())
            .collect();
        expected.sort();
        assert_eq!(got, expected, "group {g} delivered the wrong set");
    }

    let st = hub.stats();
    assert_eq!(st.groups.len(), GROUPS as usize, "stats must list all groups");
    for g in &st.groups {
        assert_eq!(g.agent_counter("data_sent"), u64::from(ADUS), "group {} data_sent", g.group);
    }

    // Receivers only talk back via periodic session messages (≥1 s apart),
    // so give every group time to hear its peer before draining.
    let rx_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = hub.stats();
        if st.groups.iter().all(|g| g.rx_frames > 0) {
            break;
        }
        if Instant::now() >= rx_deadline {
            panic!("some group never heard its receiver: {:?}", st.groups);
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Drain everything: each group's last act is a session message, which
    // is exactly what the monitors need to finish their picture.
    let drained = hub.drain_all();
    assert_eq!(drained.len(), GROUPS as usize, "every group drains");
    let data_sent: u64 = drained.iter().map(|g| g.agent_counter("data_sent")).sum();
    assert_eq!(data_sent, u64::from(GROUPS * ADUS));

    // Feed the monitors from their sockets until they run dry.
    let clock = WallClock::new();
    for (i, sock) in mon_socks.iter().enumerate() {
        let g = monitored[i];
        let mut mon = GroupMonitor::new(LivenessConfig::default());
        let mut buf = [0u8; 65_535];
        let until = Instant::now() + Duration::from_secs(2);
        while Instant::now() < until {
            match sock.recv_from(&mut buf) {
                Ok((n, _)) => {
                    if let Ok(env) = Envelope::decode(&buf[..n]) {
                        assert_eq!(env.group, g, "monitor got another group's frame");
                        if let Ok(msg) = Message::decode(env.payload.clone()) {
                            mon.observe(clock.now(), &msg);
                        }
                    }
                }
                Err(_) => break, // timed out: the drain already flushed
            }
        }
        let health = mon.health(clock.now());
        let hub_member = health
            .iter()
            .find(|m| m.member == SourceId(1))
            .unwrap_or_else(|| panic!("monitor on group {g} never heard the hub: {health:?}"));
        assert!(hub_member.frames_heard > 0);
        assert!(
            hub_member.sessions_heard >= 1,
            "drain must leave a final session message behind: {hub_member:?}"
        );
    }

    // Receivers stop first, so nothing more arrives while the totals are
    // compared.
    for r in receivers {
        drop(r.shutdown());
    }
    let st = hub.stats();
    assert_eq!(
        st.frames_attempted,
        st.frames_sent + st.frames_dropped + st.blackholed + st.send_errors,
        "hub-wide frame accounting after drain: {st:?}"
    );
    // Each group's mirrors sit under `hub.g{G}.` and each reactor's under
    // `hub.shard{i}.` (the host counters' own names are checked by
    // `a_node_and_a_hub_report_their_transport_counters_from_one_table`).
    let snap = registry.snapshot();
    // Each ADU is one multicast, and the farewell session message one more.
    let g1 = snap.counters.get("hub.g1.tx_frames").copied();
    assert!(g1 > Some(u64::from(ADUS)), "hub.g1.tx_frames: {g1:?}");
    for shard in 0..4 {
        assert!(snap.gauges.contains_key(&format!("hub.shard{shard}.groups")));
        assert_eq!(snap.counters.get(&format!("hub.shard{shard}.pool.misses")), Some(&0));
    }
    hub.shutdown();
}

/// The control plane's scripted replies, byte-for-byte against the golden
/// transcript — create/join/send/drain/stop plus malformed input and
/// duplicate-group errors. `stats` is checked by shape only (its counters
/// are live).
#[test]
fn control_plane_replies_match_the_golden_transcript() {
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().unwrap(),
        HubOptions {
            shards: 4,
            ..HubOptions::default()
        },
    )
    .unwrap();
    let script = [
        r#"{"cmd":"create","group":1}"#,
        r#"{"cmd":"create","group":1}"#,
        r#"{"cmd":"join","group":1}"#,
        r#"{"cmd":"join","group":2}"#,
        r#"{"cmd":"send","group":1,"text":"hi","count":2}"#,
        r#"{"cmd":"send","group":9,"text":"hi"}"#,
        r#"garbage"#,
        r#"{"cmd":"warp"}"#,
        r#"{"cmd":"create","group":-1}"#,
        r#"{"cmd":"send","group":1}"#,
        r#"{"cmd":"drain","group":1}"#,
        r#"{"cmd":"drain","group":1}"#,
        r#"{"cmd":"stop"}"#,
    ];
    let replies: Vec<String> = script.iter().map(|line| handle_line(&hub, line)).collect();

    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/hub_control.jsonl");
    let golden = std::fs::read_to_string(&golden_path).expect("golden transcript exists");
    let expected: Vec<&str> = golden.lines().collect();
    assert_eq!(
        replies.len(),
        expected.len(),
        "script and golden transcript must pair up"
    );
    for (i, (got, want)) in replies.iter().zip(expected.iter()).enumerate() {
        assert_eq!(
            got, want,
            "control reply {i} diverged from {}",
            golden_path.display()
        );
    }

    // `stats` is live, so pin only its shape: ok, cmd, a hub rollup, and
    // a (now empty) group list.
    let stats = handle_line(&hub, r#"{"cmd":"stats"}"#);
    assert!(stats.starts_with(r#"{"ok":true,"cmd":"stats","hub":{"#), "{stats}");
    assert!(stats.ends_with(r#""groups":[]}"#), "{stats}");
    hub.shutdown();
}

/// A hub group's chaos actions reach every view of the hub's counters: a
/// group hosted with a seeded loss plan drops frames, and the `stats`
/// reply, `HubStats` and the registry's `chaos_dropped` agree.
#[test]
fn hub_stats_carry_the_groups_chaos_counts() {
    let registry = obs::MetricsRegistry::new();
    let opts = HubOptions { shards: 2, metrics: Some(registry.clone()), ..HubOptions::default() };
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), opts).unwrap();
    let mut member = NodeOptions::new(SourceId(1), GroupId(3), SrmConfig::fixed(2));
    member.session_enabled = false;
    member.chaos = Some(ChaosPlan::new().loss(0.5));
    let discard: SocketAddr = "127.0.0.1:9".parse().unwrap();
    hub.create_with(Mode::Mesh { peers: vec![discard] }, member).unwrap();
    hub.send(3, "lossy", 40).unwrap();
    // Drained, the group sends nothing more: every view reads one total.
    hub.drain(3).unwrap();
    let st = hub.stats();
    let reply = Json::parse(&handle_line(&hub, r#"{"cmd":"stats"}"#)).unwrap();
    let in_reply = reply.get("hub").and_then(|h| h.get("chaos_dropped")).and_then(Json::as_u64);
    let in_registry = registry.snapshot().counters.get("chaos_dropped").copied();
    assert!(st.chaos_dropped > 0, "a 50 % loss plan dropped nothing: {st:?}");
    assert_eq!(in_reply, Some(st.chaos_dropped), "stats reply");
    assert_eq!(in_registry, Some(st.chaos_dropped), "registry");
    hub.shutdown();
}

/// A registry entry by name, counter or gauge.
fn registered(snap: &obs::MetricsSnapshot, name: &str) -> Option<u64> {
    snap.counters.get(name).or_else(|| snap.gauges.get(name)).copied()
}

/// A node and a 2-shard hub name, count and report their transport
/// counters from one table: for every `TransportStats::counters` entry the
/// host's registry, its `stats()` and (on the hub) the `stats` reply read
/// one value under one name, and `srm-experiments monitor` reads the hub's
/// stats file by those names. A node's group row counts the ADUs it
/// delivered, as a hub's does.
#[test]
fn a_node_and_a_hub_report_their_transport_counters_from_one_table() {
    let hub_reg = obs::MetricsRegistry::new();
    let opts = HubOptions { shards: 2, metrics: Some(hub_reg.clone()), ..HubOptions::default() };
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), opts).unwrap();
    let node_reg = obs::MetricsRegistry::new();
    // No session messages on either side: nothing moves once the ADUs land.
    let mut node_opts = NodeOptions::new(SourceId(2), GroupId(1), SrmConfig::fixed(2));
    node_opts.session_enabled = false;
    node_opts.metrics = Some(node_reg.clone());
    let to_hub = Mode::Mesh { peers: vec![hub.local_addr()] };
    let node = Node::spawn("127.0.0.1:0".parse().unwrap(), to_hub, node_opts).unwrap();
    let mut member = NodeOptions::new(SourceId(1), GroupId(1), SrmConfig::fixed(2));
    member.session_enabled = false;
    hub.create_with(Mode::Mesh { peers: vec![node.local_addr()] }, member).unwrap();
    let before = hub_reg.snapshot();
    hub.send(1, "one table", 5).unwrap();
    let got = collect_delivered(&node, 5, Instant::now() + Duration::from_secs(30));
    assert_eq!(got.len(), 5, "the ADUs never arrived");

    let st = node.stats();
    let snap = node_reg.snapshot();
    for (name, v) in st.counters() {
        assert_eq!(registered(&snap, name), Some(v), "node registry {name}");
    }
    assert_eq!(st.frames_received, 5, "{st:?}");
    assert_eq!((st.groups.len(), st.groups[0].group), (1, 1), "a node's stats carry its group's row");
    assert_eq!(st.groups[0].rx_frames, 5);
    assert_eq!(st.groups[0].delivered, 5, "a node counts the deliveries it keeps for take_delivered");

    let st = hub.stats();
    let snap = hub_reg.snapshot();
    let reply = Json::parse(&handle_line(&hub, r#"{"cmd":"stats"}"#)).unwrap();
    let in_reply = reply.get("hub").and_then(Json::as_obj).expect("hub object");
    assert_eq!(in_reply.len(), st.counters().len(), "the reply's hub object is the table");
    for (name, v) in st.counters() {
        assert_eq!(registered(&snap, name), Some(v), "hub registry {name}");
        assert_eq!(reply.get("hub").and_then(|h| h.get(name)).and_then(Json::as_u64), Some(v), "reply {name}");
    }
    assert!(st.frames_sent >= 5, "{st:?}");
    assert_eq!(st.groups[0].agent_counter("data_sent"), 5);

    // The hub's stats file, fed to the monitor, shows what the hub sent.
    let names: BTreeSet<&str> = st.counters().iter().map(|(n, _)| *n).collect();
    for row in srm_experiments::monitor_cmd::HEADLINE {
        assert!(names.contains(row) || row.contains(".frames."), "{row} is not a host counter name");
    }
    let file = format!("{}\n{}\n", before.to_json_line(), snap.to_json_line());
    let digest = srm_experiments::monitor_cmd::digest_stats(&file).expect("a valid stats file");
    let text = srm_experiments::monitor_cmd::render(None, &[("hub".to_string(), digest)]);
    let sent = (text.lines())
        .find_map(|l| l.trim().strip_prefix("frames_sent: "))
        .and_then(|v| v.split(' ').next()?.parse::<u64>().ok());
    assert_eq!(sent, Some(st.frames_sent), "{text}");
    assert!(sent > Some(0), "{text}");
    drop(node.shutdown());
    hub.shutdown();
}

/// After a one-loss round a hub group's agent counters read the same in
/// all three places the hub shows them: the registry's
/// `hub.g{G}.agent.<name>`, the group's [`GroupStats`] row and its entry
/// in the `stats` reply, under the names a node and a simulated run use.
#[test]
fn a_hub_group_shows_its_agents_counters_under_one_set_of_names() {
    let registry = obs::MetricsRegistry::new();
    let opts = HubOptions { shards: 2, metrics: Some(registry.clone()), ..HubOptions::default() };
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), opts).unwrap();
    // No session messages on either side: nothing moves after the repair.
    let mut receiver_opts = NodeOptions::new(SourceId(2), GroupId(1), SrmConfig::fixed(2));
    receiver_opts.session_enabled = false;
    receiver_opts.initial_distances = vec![(SourceId(1), SimDuration::from_millis(20))];
    let receiver = Node::spawn(
        "127.0.0.1:0".parse().unwrap(),
        Mode::Mesh { peers: vec![hub.local_addr()] },
        receiver_opts,
    )
    .expect("receiver node binds");
    let mut sender = lossy_traced_sender();
    sender.session_enabled = false;
    sender.metrics = Some(registry.clone());
    hub.create_with(Mode::Mesh { peers: vec![receiver.local_addr()] }, sender).unwrap();
    hub.send(1, "one loss", 2).unwrap();
    let got = collect_delivered(&receiver, 2, Instant::now() + Duration::from_secs(30));
    assert_eq!(got.len(), 2, "the dropped ADU was not repaired");

    let st = hub.stats();
    let snap = registry.snapshot();
    let reply = Json::parse(&handle_line(&hub, r#"{"cmd":"stats"}"#)).unwrap();
    let group = &reply.get("groups").and_then(Json::as_arr).expect("groups")[0];
    let row = &st.groups[0];
    assert_eq!((row.agent_counter("data_sent"), row.agent_counter("repairs_sent")), (2, 1), "{row:?}");
    assert_eq!(row.agent_counter("requests_received"), 1, "{row:?}");
    for (name, v) in row.agent {
        assert_eq!(snap.counters.get(&format!("hub.g1.agent.{name}")), Some(&v), "registry {name}");
        assert_eq!(group.get(name).and_then(Json::as_u64), Some(v), "stats reply {name}");
    }
    drop(receiver.shutdown());
    hub.shutdown();
}

/// The control port reads whatever a TCP peer sends, on a thread of the
/// default stack size, as `srm-hub` serves it: a line longer than the bound
/// is discarded up to its newline, a line that nests deeper than the
/// parser's cap is refused (it used to recurse until the stack ended, which
/// aborts the process and every hosted group with it), and a line that is
/// not UTF-8 is refused (it used to end the connection with no reply), each
/// with one reply line, and the connection goes on to serve the next
/// command.
#[test]
fn oversized_and_deeply_nested_control_lines_get_one_error_reply_each() {
    use std::io::{BufRead, BufReader, Write};
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), HubOptions::default()).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut conn = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let server = {
        let hub = hub.clone();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut replies = stream.try_clone().unwrap();
            let quit = std::sync::atomic::AtomicBool::new(false);
            serve(&hub, BufReader::new(stream), &mut replies, &quit, true);
        })
    };
    conn.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut script = format!("{}\n{}\n", "[".repeat(100_000), "[".repeat(20_000)).into_bytes();
    script.extend_from_slice(b"\xff\xfe\n{\"cmd\":\"stats\"}\n");
    conn.write_all(&script).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let replies: Vec<String> = BufReader::new(conn).lines().map(Result::unwrap).collect();
    server.join().expect("the serving thread survives every line");
    assert_eq!(replies.len(), 4, "one reply line per input line: {replies:?}");
    assert_eq!(replies[0], r#"{"ok":false,"error":"line too long"}"#);
    assert_eq!(replies[1], r#"{"ok":false,"error":"nesting deeper than 32 at byte 32"}"#);
    assert_eq!(replies[2], r#"{"ok":false,"error":"invalid utf-8"}"#);
    assert!(replies[3].starts_with(r#"{"ok":true,"cmd":"stats","hub":{"#), "{}", replies[3]);
    hub.shutdown();
}

/// Satellite check on the standalone node: a well-formed frame for a group
/// this node never joined is counted (`rx_unjoined_group`), not silently
/// dropped.
#[test]
fn node_counts_well_formed_frames_for_unjoined_groups() {
    let opts = NodeOptions::new(SourceId(1), GroupId(1), SrmConfig::fixed(2));
    let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
    let node = Node::spawn(
        "127.0.0.1:0".parse().unwrap(),
        Mode::Mesh { peers: vec![peer] },
        opts,
    )
    .expect("node binds");

    let stray = UdpSocket::bind("127.0.0.1:0").unwrap();
    let frame = Envelope {
        src: 9,
        group: 99, // never joined here
        ttl: 4,
        initial_ttl: 4,
        admin_scoped: false,
        flow: 0,
        payload: Bytes::from_static(b"lost tourist"),
    }
    .encode();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = 0;
    while seen == 0 && Instant::now() < deadline {
        stray.send_to(&frame, node.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        seen = node.stats().rx_unjoined_group;
    }
    assert!(seen >= 1, "unjoined-group frames must be counted");
    drop(node.shutdown());
}

/// A 2-shard hub is two threads, `srm-hub-shard0` and `srm-hub-shard1`:
/// shard 0 reads the shared socket itself and forwards what shard 1 hosts,
/// with no demux thread in front. A group on each shard hears its
/// receiver's session messages, so both paths — walked where read, and
/// forwarded — carry frames.
#[cfg(target_os = "linux")]
#[test]
fn a_two_shard_hub_runs_two_shard_threads_and_no_demux_thread() {
    let opts = HubOptions { shards: 2, ..HubOptions::default() };
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), opts).unwrap();
    let on = |shard| (1..).find(|&g| shard_of(g, 2) == shard).unwrap();
    let receivers: Vec<NodeHandle> = [on(0), on(1)]
        .into_iter()
        .map(|group| {
            let rx = spawn_receiver(2, group, 2, hub.local_addr());
            hub.create(spec(group, vec![rx.local_addr()], 1, 2), false).unwrap();
            rx
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    while hub.stats().groups.iter().any(|g| g.rx_frames == 0) {
        assert!(Instant::now() < deadline, "a shard never heard its group: {:?}", hub.stats());
        std::thread::sleep(Duration::from_millis(20));
    }

    let names: BTreeSet<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    assert!(names.contains("srm-hub-shard0") && names.contains("srm-hub-shard1"), "{names:?}");
    assert!(!names.iter().any(|n| n.contains("demux")), "{names:?}");
    hub.shutdown();
    drop(receivers);
}
