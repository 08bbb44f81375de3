//! Transport-resilience properties and live chaos integration tests.
//!
//! Three layers, matching the resilience design (DESIGN.md §9):
//!
//! 1. **Seeded determinism** — a [`ChaosState`]'s verdict stream, and a
//!    hosted member's chaos actions and counts, are pure functions of
//!    `(seed, plan, frame sequence)`. This is what makes a failing soak
//!    replayable from its seed.
//! 2. **Timer-wheel churn** — lazy cancellation plus compaction keeps both
//!    the tombstone set and the heap bounded under arbitrary
//!    arm/cancel/fire interleavings, checked against a brute-force model.
//! 3. **Live recovery** — a three-member loopback mesh where one member is
//!    blackholed mid-session: peers must notice the silence (liveness
//!    suspect/dead), the data sent into the blackhole must be recovered
//!    after the window heals, and every frame must be accounted for.
//!
//! The live cases take the [`Host`] as one more input: every member runs
//! either as a standalone node or as the same [`NodeOptions`] hosted on a
//! 1-shard hub — one reactor underneath, so a hub group must do whatever a
//! node does.
//!
//! Determinism note for the live tests: thread scheduling is real, so they
//! assert outcomes made robust by construction (windows longer than the
//! maximum sweep gap, generous settle budgets), never exact interleavings.

use bytes::Bytes;
use netsim::{GroupId, SimDuration, SimTime, TimerId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srm::{Driver, PageId, SourceId, SrmAgent, SrmConfig};
use srm_transport::{
    ChaosPlan, ChaosState, Hub, HubHandle, HubOptions, Mode, Node, NodeHandle, NodeOptions,
    SoakOptions, TimerWheel, TransportStats,
};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Poll `cond` every 20ms until it returns true or `secs` elapse.
fn wait_for(secs: u64, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// The two ways to host a member on the one reactor.
#[derive(Clone, Copy, Debug)]
enum Host {
    /// `Node::spawn_on`: one reactor, one group, its own socket.
    Node,
    /// `Hub::spawn_on` with one shard, the group hosted through
    /// `HubHandle::create_with` from the same options.
    Hub,
}

/// One live member, whichever way it is hosted.
enum Member {
    Node(NodeHandle),
    Hub(HubHandle, u32),
}

impl Member {
    fn spawn(host: Host, socket: UdpSocket, peers: Vec<SocketAddr>, opts: NodeOptions) -> Member {
        let mode = Mode::Mesh { peers };
        match host {
            Host::Node => Member::Node(Node::spawn_on(socket, mode, opts).unwrap()),
            Host::Hub => {
                let group = opts.group.0;
                let one_shard = HubOptions { shards: 1, ..HubOptions::default() };
                let hub = Hub::spawn_on(socket, one_shard).unwrap();
                hub.create_with(mode, opts).unwrap();
                Member::Hub(hub, group)
            }
        }
    }

    /// `n` members of `group` on a 127.0.0.1 mesh, sockets bound first so
    /// everyone can list everyone (what `Harness::loopback` does for nodes).
    fn mesh(
        host: Host,
        n: usize,
        group: GroupId,
        cfg: &SrmConfig,
        mut customize: impl FnMut(usize, &mut NodeOptions),
    ) -> Vec<Member> {
        let sockets: Vec<UdpSocket> =
            (0..n).map(|_| UdpSocket::bind("127.0.0.1:0").unwrap()).collect();
        let addrs: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
        let mut members = Vec::new();
        for (i, socket) in sockets.into_iter().enumerate() {
            let peers = addrs.iter().copied().filter(|a| *a != addrs[i]).collect();
            let mut opts = NodeOptions::new(SourceId(i as u64 + 1), group, cfg.clone());
            customize(i, &mut opts);
            members.push(Member::spawn(host, socket, peers, opts));
        }
        members
    }

    fn exec<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut SrmAgent, &mut dyn Driver) -> R + Send + 'static,
    ) -> R {
        match self {
            Member::Node(node) => node.exec(f),
            Member::Hub(hub, group) => hub.exec(*group, f).expect("group is hosted"),
        }
    }

    /// Has `name`, the `nth` ADU published to this member, reached its
    /// application? A node keeps deliveries for `take_delivered` (gathered
    /// in `seen` across calls); a hub group counts and discards them, so
    /// there the count is what can be asked.
    fn delivered(&self, name: srm::AduName, nth: u64, seen: &mut Vec<srm::AduName>) -> bool {
        match self {
            Member::Node(node) => {
                seen.extend(node.take_delivered().into_iter().map(|d| d.name));
                seen.contains(&name)
            }
            Member::Hub(hub, group) => {
                hub.stats().groups.iter().any(|g| g.group == *group && g.delivered >= nth)
            }
        }
    }

    /// The host's transport counters and its groups' rows.
    fn stats(&self) -> TransportStats {
        match self {
            Member::Node(node) => node.stats(),
            Member::Hub(hub, _) => hub.stats(),
        }
    }

    /// `(blackholed, every fan-out frame accounted, recv_deaths)`.
    fn accounting(&self) -> (u64, bool, u64) {
        let s = self.stats();
        (s.blackholed, s.frames_accounted(), s.recv_deaths)
    }

    /// Harvest this member's lane of the timeline, then stop it.
    fn stop(self, tl: &mut obs::Timeline) {
        let (id, evicted, events, transport) = self.exec(|a, _| {
            let evicted = a.obs.dropped_events() + a.transport_obs.dropped_events();
            (a.id.0, evicted, a.obs.take_events(), a.transport_obs.take_events())
        });
        assert_eq!(evicted, 0, "member {id}'s trace rings kept every event");
        tl.add_member(id, events);
        tl.add_transport(id, transport);
        match self {
            Member::Node(node) => drop(node.shutdown()),
            Member::Hub(hub, _) => hub.shutdown(),
        }
    }
}

// ---------------------------------------------------------------------------
// 1. Seeded chaos determinism
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two [`ChaosState`]s with the same seed and plan produce the
    /// identical verdict stream, and every verdict respects the plan's
    /// probability edges (p=0 never triggers, p=1 always does, hold-backs
    /// stay inside `[delay, delay + jitter]`).
    #[test]
    fn chaos_verdicts_replay_from_seed(
        seed in 0u64..1_000_000,
        loss in 0u32..=100,
        dup in 0u32..=100,
        corrupt in 0u32..=100,
        reorder in 0u32..=100,
        delay_ms in 1u64..200,
        jitter_ms in 0u64..100,
        frames in 1usize..200,
    ) {
        let plan = ChaosPlan::new()
            .loss(f64::from(loss) / 100.0)
            .duplication(f64::from(dup) / 100.0)
            .corruption(f64::from(corrupt) / 100.0)
            .reorder(f64::from(reorder) / 100.0, SimDuration::from_millis(delay_ms))
            .jitter(SimDuration::from_millis(jitter_ms));
        let mut a = ChaosState::new(plan.clone(), seed);
        let mut b = ChaosState::new(plan.clone(), seed);
        for i in 0..frames {
            let now = t(i as u64 * 13);
            let va = a.verdict(now);
            prop_assert_eq!(va, b.verdict(now), "frame {} diverged", i);
            if loss == 100 {
                prop_assert!(!va.deliver);
            }
            if loss == 0 {
                prop_assert!(va.deliver);
            }
            if dup == 0 {
                prop_assert!(!va.duplicate);
            }
            if reorder == 0 {
                prop_assert!(va.delay.is_none());
            }
            if let Some(d) = va.delay {
                prop_assert!(d >= plan.reorder_delay);
                prop_assert!(d <= plan.reorder_delay + plan.jitter);
            }
        }
    }
}

/// Everything a hosted member's chaos shows: the chaos actions its
/// transport log recorded, in order, and the host's
/// `[chaos_dropped, chaos_duplicated, chaos_delayed, chaos_corrupted]`.
type ChaosRun = (Vec<&'static str>, [u64; 4]);

/// Publish `frames` ADUs through a live member whose options carry the
/// plan and the seed. Once the hold-back has drained, the group has sent
/// every frame the plan let through, `tx_frames == frames - chaos_dropped +
/// chaos_duplicated`, and its log names each counted action once.
fn hosted_chaos_run(host: Host, plan: &ChaosPlan, seed: u64, frames: usize) -> ChaosRun {
    let cfg = SrmConfig::fixed(2);
    let members = Member::mesh(host, 1, GroupId(1), &cfg, |_, opts| {
        opts.seed = seed;
        opts.chaos = Some(plan.clone());
        opts.trace = true;
        // Only the frames published below reach the send path.
        opts.session_enabled = false;
    });
    let member = members.into_iter().next().unwrap();
    member.exec(move |a, d| {
        let page = PageId::new(a.id, 0);
        for i in 0..frames {
            a.send_data(d, page, Bytes::from(format!("frame {i} with room for a body tag")));
        }
    });
    let counts =
        |s: &TransportStats| [s.chaos_dropped, s.chaos_duplicated, s.chaos_delayed, s.chaos_corrupted];
    let conserved = |s: &TransportStats| {
        let [dropped, duplicated, ..] = counts(s);
        s.groups[0].tx_frames + dropped == frames as u64 + duplicated
    };
    let drained = wait_for(10, || conserved(&member.stats()));
    assert!(drained, "{host:?}: frames unaccounted: {:?}", member.stats());
    let (actions, evicted): (Vec<&'static str>, u64) = member.exec(|a, _| {
        let kinds = a.transport_obs.events().map(|e| e.kind.name());
        (kinds.filter(|k| k.starts_with("chaos_")).collect(), a.transport_obs.dropped_events())
    });
    assert_eq!(evicted, 0, "the transport ring kept every event");
    let counted = counts(&member.stats());
    let logged = ["chaos_drop", "chaos_duplicate", "chaos_delay", "chaos_corrupt"]
        .map(|kind| actions.iter().filter(|k| **k == kind).count() as u64);
    assert_eq!(logged, counted, "{host:?}: the log and the counters disagree");
    member.stop(&mut obs::Timeline::new());
    (actions, counted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Host-level determinism: a live member replays its chaos actions and
    /// counts from `NodeOptions::seed`, identically whether a node or a hub
    /// hosts it; an empty plan takes no action; and every frame is dropped,
    /// sent, or sent late, duplicates adding one copy each
    /// ([`hosted_chaos_run`]).
    #[test]
    fn chaos_transport_output_replays_from_seed(
        seed in 0u64..1_000_000,
        loss in 0u32..=60,
        dup in 0u32..=40,
        corrupt in 0u32..=40,
        reorder in 0u32..=60,
        frames in 1usize..120,
    ) {
        let plan = ChaosPlan::new()
            .loss(f64::from(loss) / 100.0)
            .duplication(f64::from(dup) / 100.0)
            .corruption(f64::from(corrupt) / 100.0)
            .reorder(f64::from(reorder) / 100.0, SimDuration::from_millis(25))
            .jitter(SimDuration::from_millis(10));
        let on_node = hosted_chaos_run(Host::Node, &plan, seed, frames);
        if loss + dup + corrupt + reorder == 0 {
            prop_assert!(on_node.0.is_empty(), "an empty plan acted: {:?}", on_node.0);
        }
        prop_assert_eq!(&on_node, &hosted_chaos_run(Host::Node, &plan, seed, frames));
        prop_assert_eq!(&on_node, &hosted_chaos_run(Host::Hub, &plan, seed, frames));
    }
}

// ---------------------------------------------------------------------------
// 2. Timer wheel under churn
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ModelTimer {
    id: TimerId,
    at: u64,
    token: u64,
    fired: bool,
    cancelled: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary arm/cancel/advance interleavings against a brute-force
    /// model: expired timers fire in (deadline, arm-order), cancelled ones
    /// never fire, cancel-after-fire is harmless, and the tombstone set
    /// obeys the compaction bound after every cancel.
    #[test]
    fn wheel_churn_matches_model_and_stays_bounded(
        seed in 0u64..1_000_000,
        steps in 1usize..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = TimerWheel::new();
        let mut model: Vec<ModelTimer> = Vec::new();
        let mut now = 0u64;
        let mut next_token = 0u64;
        for _ in 0..steps {
            for _ in 0..rng.random_range(0..8u32) {
                let at = now + rng.random_range(0..100u64);
                let id = w.arm(t(at), next_token);
                model.push(ModelTimer { id, at, token: next_token, fired: false, cancelled: false });
                next_token += 1;
            }
            for _ in 0..rng.random_range(0..8u32) {
                if model.is_empty() {
                    break;
                }
                let i = rng.random_range(0..model.len());
                if !model[i].cancelled {
                    w.cancel(model[i].id);
                    model[i].cancelled = true;
                    // The compaction contract: tombstones either stay under
                    // the small-wheel floor or under half the heap.
                    prop_assert!(
                        w.pending_cancels() <= 64 || w.pending_cancels() <= w.len() / 2,
                        "tombstones {} vs heap {}",
                        w.pending_cancels(),
                        w.len()
                    );
                }
            }
            now += rng.random_range(0..50u64);
            let mut expected: Vec<(u64, u64)> = model
                .iter()
                .filter(|m| !m.fired && !m.cancelled && m.at <= now)
                .map(|m| (m.at, m.token))
                .collect();
            expected.sort_unstable();
            let mut got = Vec::new();
            while let Some(token) = w.pop_expired(t(now)) {
                got.push(token);
            }
            let expected: Vec<u64> = expected.into_iter().map(|(_, tok)| tok).collect();
            prop_assert_eq!(got, expected);
            for m in model.iter_mut() {
                if !m.cancelled && m.at <= now {
                    m.fired = true;
                }
            }
        }
        // Drain the far future: only un-cancelled, un-fired timers remain.
        let live = model.iter().filter(|m| !m.fired && !m.cancelled).count();
        let mut rest = 0;
        while w.pop_expired(t(100_000_000)).is_some() {
            rest += 1;
        }
        prop_assert_eq!(rest, live);
        prop_assert!(w.is_empty());
    }
}

// ---------------------------------------------------------------------------
// 3. Blackhole-and-heal over live loopback UDP
// ---------------------------------------------------------------------------

/// One member of a three-node mesh goes silent behind a scripted
/// all-destination blackhole, publishes an ADU into the void, and heals:
///
/// - peers must notice the silence (liveness `peer_dead` on the timeline)
///   and the revival after heal (`peer_alive`),
/// - the ADU sent during the window must be recovered at every peer after
///   heal (the soak's eventual-delivery invariant, in miniature),
/// - the blackholed frames must be *accounted* — swallowed by the window,
///   not silently lost ([`srm_transport::TransportStats::frames_accounted`]).
///
/// The window `[1s, 5s)` is sized so the dead threshold (1.6 nominal
/// intervals = 1.6s of silence) is crossed with ≥ 2.4s to spare — longer
/// than the maximum session-sweep gap (1.5s) — so a sweep is guaranteed to
/// sample the dead state regardless of jitter draws.
#[test]
fn blackhole_heal_recovers_data_and_tracks_liveness() {
    // Both hostings at once: the case is mostly waiting.
    std::thread::scope(|s| {
        for host in [Host::Node, Host::Hub] {
            s.spawn(move || blackhole_heal_case(host));
        }
    });
}

fn blackhole_heal_case(host: Host) {
    let cfg = SrmConfig::fixed(3);
    let liveness = srm::LivenessConfig { suspect_after: 0.8, dead_after: 1.6 };
    let started = Instant::now();
    let members = Member::mesh(host, 3, GroupId(9), &cfg, |i, opts| {
        opts.trace = true;
        opts.liveness = Some(liveness);
        if i == 0 {
            opts.chaos = Some(ChaosPlan::new().blackhole_all(t(1_000), t(5_000)));
        }
    });
    let publish = |text: &'static [u8]| {
        members[0].exec(move |a, d| a.send_data(d, PageId::new(a.id, 0), Bytes::from_static(text)))
    };
    let mut seen = [Vec::new(), Vec::new()];
    let mut peers_got = |name: srm::AduName, nth: u64| {
        members[1..].iter().zip(&mut seen).all(|(m, seen)| m.delivered(name, nth, seen))
    };

    // Before the window: an ADU that flows normally, making sure every
    // peer has heard member 1 (liveness tracks only peers seen at least
    // once).
    let before = publish(b"before the partition");
    assert!(wait_for(10, || peers_got(before, 1)), "{host:?}: pre-window ADU did not arrive");

    // Into the window: wait until member 1's clock is inside [1s, 5s),
    // then publish. Every frame of this ADU is swallowed.
    while started.elapsed() < Duration::from_millis(1_600) {
        std::thread::sleep(Duration::from_millis(20));
    }
    let during = publish(b"sent into the void");

    // After heal: session messages resume, peers spot the gap, and SRM
    // recovery delivers the void ADU everywhere.
    assert!(
        wait_for(40, || peers_got(during, 2)),
        "{host:?}: blackholed ADU was not recovered after heal"
    );

    let (blackholed, ..) = members[0].accounting();
    assert!(
        blackholed >= 2,
        "{host:?}: the void ADU's fan-out (2 destinations) must be counted, got {blackholed}"
    );
    for (i, m) in members.iter().enumerate() {
        let (_, accounted, recv_deaths) = m.accounting();
        assert!(accounted, "{host:?}: member {} leaks frames", i + 1);
        assert_eq!(recv_deaths, 0, "{host:?}: member {} read path died", i + 1);
    }

    let mut tl = obs::Timeline::new();
    for m in members {
        m.stop(&mut tl);
    }
    let jsonl = tl.to_jsonl();
    assert!(jsonl.contains("\"ev\":\"blackholed\""), "{host:?}: blackhole events missing");
    assert!(jsonl.contains("\"ev\":\"peer_dead\""), "{host:?}: peers never declared member 1 dead");
    assert!(jsonl.contains("\"ev\":\"peer_alive\""), "{host:?}: member 1 never revived after heal");
}

/// Library-level soak smoke: a short bounded run under the default mixed
/// chaos spec must satisfy every soak invariant (eventual delivery, no
/// reactor deaths, bounded growth, full frame accounting). The CLI gate in
/// scripts/ci.sh runs the same check through `srm-node soak`.
#[test]
fn bounded_soak_run_passes_all_invariants() {
    let opts = SoakOptions {
        nodes: 3,
        duration: Duration::from_secs(2),
        adus_per_node: 2,
        chaos: "loss=0.08,dup=0.05,reorder=0.1:20ms,jitter=10ms,burst=0.85@500ms+1s".into(),
        seed: 11,
        settle: Duration::from_secs(25),
        trace: false,
        ..SoakOptions::default()
    };
    let report = srm_transport::soak::run(&opts).expect("soak harness failed to start");
    assert_eq!(
        report.violations(),
        Vec::<String>::new(),
        "soak violated invariants:\n{}",
        report.render()
    );
    assert_eq!(report.adus_sent, 6);
}
