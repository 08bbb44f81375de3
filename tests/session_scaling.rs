//! Session-message machinery end-to-end: bandwidth stays within the
//! configured fraction as the group grows (the vat scaling of Section
//! III-A), distance estimates converge to the true values, and group-size
//! estimation tracks membership.

use netsim::generators::{bounded_degree_tree, random_members};
use netsim::routing::SpTree;
use netsim::{flow, GroupId, NodeId, SimDuration, SimTime, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use srm::{PageId, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(1);

fn session(n_net: usize, g: usize, seed: u64) -> (Simulator<SrmAgent>, Vec<NodeId>) {
    let topo = bounded_degree_tree(n_net, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let members = random_members(&topo, g, &mut rng);
    let mut sim = Simulator::new(topo, seed);
    let page = PageId::new(SourceId(members[0].0 as u64), 0);
    for &m in &members {
        let mut a = SrmAgent::new(SourceId(m.0 as u64), GROUP, SrmConfig::fixed(g));
        a.set_current_page(page);
        sim.install(m, a);
        sim.join(m, GROUP);
    }
    (sim, members)
}

/// The aggregate *origination* rate of session messages stays within the
/// configured fraction of the session bandwidth once group discovery
/// settles, for both small and large groups.
#[test]
fn session_rate_scales_with_group_size() {
    for &g in &[5usize, 25, 50] {
        let (mut sim, members) = session(200, g, 42);
        // Warm-up discovery phase.
        sim.run_until(SimTime::from_secs(200));
        let start_msgs: Vec<u64> = members
            .iter()
            .map(|&m| sim.app(m).unwrap().metrics.session_sent)
            .collect();
        let start_t = sim.now();
        sim.run_until(start_t + SimDuration::from_secs(1000));
        // Charge each member's messages at its measured on-wire size (the
        // scheduler tracks the last emitted message's encoded length).
        let bytes: f64 = members
            .iter()
            .zip(&start_msgs)
            .map(|(&m, &start)| {
                let a = sim.app(m).unwrap();
                (a.metrics.session_sent - start) as f64 * a.session_msg_bytes()
            })
            .sum();
        let bytes_per_sec = bytes / 1000.0;
        let cap = srm::config::SESSION_FRACTION * srm::config::SESSION_BANDWIDTH;
        assert!(
            bytes_per_sec <= cap * 1.6,
            "g={g}: session origination rate {bytes_per_sec} B/s exceeds cap {cap} (with jitter slack)"
        );
        // And it is not absurdly *under* the cap for large groups (the
        // scaling divides the budget, it should be used).
        if g >= 25 {
            assert!(
                bytes_per_sec >= cap * 0.4,
                "g={g}: rate {bytes_per_sec} too far under cap {cap}"
            );
        }
    }
}

/// The scheduler charges the *encoded on-wire* length of the session
/// message just sent, not the configured nominal estimate — so the 5% cap
/// holds for what actually crosses a socket.
#[test]
fn session_accounting_uses_encoded_wire_length() {
    use srm::wire::{Body, Header, Message, SessionBody};

    let (mut sim, members) = session(10, 3, 7);
    let m0 = members[0];
    let nominal = srm::config::SESSION_MSG_BYTES;
    assert_eq!(sim.app(m0).unwrap().session_msg_bytes(), nominal);

    sim.exec(m0, |a, ctx| a.send_session_now(ctx));
    let a = sim.app(m0).unwrap();
    // Rebuild the message this fresh member must have emitted (no data,
    // no peers heard, nothing lost) and compare encoded lengths; the
    // timestamp does not change the length (fixed-width field).
    let equivalent = Message {
        header: Header {
            sender: a.id,
            timestamp: SimTime::ZERO,
        },
        body: Body::Session(SessionBody {
            page: a.current_page(),
            state: a.store().page_state(a.current_page()),
            echoes: vec![],
            loss_rate: 0.0,
            loss_fingerprint: vec![],
        }),
    };
    let expected = equivalent.encode().len() as f64;
    assert_eq!(a.session_msg_bytes(), expected);
    assert_ne!(
        a.session_msg_bytes(),
        nominal,
        "measured size must replace the nominal estimate"
    );
}

/// After a few session-message rounds, every member's distance estimate to
/// every other member equals the true shortest-path delay (symmetric
/// unit-delay links make the NTP formula exact).
#[test]
fn distance_estimates_converge_to_truth() {
    let (mut sim, members) = session(100, 8, 7);
    sim.run_until(SimTime::from_secs(400));
    let trees: Vec<(NodeId, Rc<SpTree>)> = members.iter().map(|&m| (m, sim.route(m))).collect();
    for &m in &members {
        let a = sim.app(m).unwrap();
        for (o, tree) in &trees {
            if *o == m {
                continue;
            }
            let est = a.distances().distance_to(SourceId(o.0 as u64));
            let truth = tree.distance(m);
            assert!(
                a.distances().has_estimate(SourceId(o.0 as u64)),
                "{m:?} estimates {o:?}"
            );
            assert_eq!(est, truth, "{m:?} -> {o:?}");
        }
    }
}

/// Group-size estimates (distinct peers heard) reach G − 1 on all members.
#[test]
fn group_size_estimation_tracks_membership() {
    let (mut sim, members) = session(100, 12, 3);
    sim.run_until(SimTime::from_secs(600));
    for &m in &members {
        assert_eq!(
            sim.app(m).unwrap().distances().peer_count(),
            11,
            "member {m:?} heard everyone"
        );
    }
}

/// Hierarchical session messages (Section IX-A): on a long chain with
/// every node a member, representative election settles on a small
/// dominating set, every member has a representative within the local
/// scope, and aggregate session bandwidth drops well below the flat
/// scheme's.
#[test]
fn hierarchy_elects_sparse_representatives() {
    use srm::HierarchyConfig;
    const N: usize = 30;
    let build = |hier: bool| {
        let topo = netsim::generators::chain(N);
        let mut sim: Simulator<SrmAgent> = Simulator::new(topo, 88);
        let page = PageId::new(SourceId(0), 0);
        for i in 0..N as u32 {
            let mut cfg = SrmConfig::fixed(N);
            if hier {
                cfg.session_hierarchy = Some(HierarchyConfig { local_ttl: 3 });
            }
            let mut a = SrmAgent::new(SourceId(i as u64), GROUP, cfg);
            a.set_current_page(page);
            sim.install(NodeId(i), a);
            sim.join(NodeId(i), GROUP);
        }
        sim.run_until(SimTime::from_secs(600));
        sim
    };
    let flat = build(false);
    let hier = build(true);

    // Election settled on a proper subset.
    let reps: Vec<u32> = (0..N as u32)
        .filter(|&i| hier.app(NodeId(i)).unwrap().is_representative())
        .collect();
    assert!(!reps.is_empty(), "someone represents");
    assert!(
        reps.len() <= N / 2,
        "representatives are a minority: {reps:?}"
    );
    // Coverage: every member is within local_ttl hops of a representative.
    for i in 0..N as i32 {
        let covered = reps.iter().any(|&r| (r as i32 - i).abs() <= 3);
        assert!(covered, "member {i} has a rep within 3 hops of {reps:?}");
    }
    // Bandwidth: session link-crossings shrink substantially.
    let flat_hops = flat.stats.hops_for(flow::SESSION);
    let hier_hops = hier.stats.hops_for(flow::SESSION);
    assert!(
        (hier_hops as f64) < 0.6 * flat_hops as f64,
        "hierarchy saves session bandwidth: {hier_hops} vs {flat_hops}"
    );
}

/// Session traffic does not leak onto links with no members behind them
/// (pruned multicast forwarding).
#[test]
fn session_traffic_respects_pruning() {
    let (mut sim, members) = session(200, 6, 9);
    sim.run_until(SimTime::from_secs(300));
    // Find a leaf link with no member behind it; it must carry nothing.
    let topo = sim.topology();
    let mut quiet_leaf = None;
    for (l, link) in topo.links() {
        let leaf = if topo.degree(link.a) == 1 {
            Some(link.a)
        } else if topo.degree(link.b) == 1 {
            Some(link.b)
        } else {
            None
        };
        if let Some(n) = leaf {
            if !members.contains(&n) {
                quiet_leaf = Some(l);
                break;
            }
        }
    }
    let l = quiet_leaf.expect("a memberless leaf exists in a 200-node tree");
    assert_eq!(sim.stats.links[l.index()].packets, 0);
    // Sanity: session traffic did flow somewhere.
    assert!(sim.stats.hops_for(flow::SESSION) > 0);
}
