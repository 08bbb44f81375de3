//! Adversarial input: an SRM agent fed arbitrary bytes, truncated frames,
//! and randomly mutated valid messages must never panic, never wedge the
//! simulation, and must account for every undecodable packet.

use bytes::Bytes;
use netsim::generators::chain;
use netsim::{GroupId, NodeId, SendOptions, SimDuration, SimTime, Simulator};
use proptest::prelude::*;
use srm::wire::{Body, Echo, Header, Message, RequestBody, SessionBody};
use srm::{AduName, PageId, SeqNo, SourceId, SrmAgent, SrmConfig};

const GROUP: GroupId = GroupId(2);

fn harness() -> Simulator<SrmAgent> {
    let mut sim = Simulator::new(chain(2), 77);
    let mut cfg = SrmConfig::fixed(2);
    // A production deployment bounds re-requests; without a bound, a forged
    // request for nonexistent data would retry forever.
    cfg.max_request_rounds = Some(2);
    let mut a = SrmAgent::new(SourceId(0), GROUP, cfg);
    a.session_enabled = false;
    sim.install(NodeId(0), a);
    sim.join(NodeId(0), GROUP);
    sim
}

/// Whatever the frames made the agent remember, it does not remember it for
/// ever: past the longest hold-down, the next packet it handles leaves it
/// with no recovery episode — unless it still waits for data nobody has.
fn recovery_state_ends(sim: &mut Simulator<SrmAgent>) -> Result<(), TestCaseError> {
    sim.run_until(sim.now() + SimDuration::from_secs(10_000_000));
    sim.send_from(NodeId(1), GROUP, Bytes::from_static(b"\xff"), SendOptions::default());
    let limit = sim.now() + SimDuration::from_secs(1_000_000);
    prop_assert!(sim.run_until_idle(limit));
    let a = sim.app(NodeId(0)).unwrap();
    prop_assert!(
        a.live_episodes() == 0 || a.has_pending_recovery(),
        "{} episodes left behind",
        a.live_episodes()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn garbage_packets_never_panic(frames in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..120), 1..12)) {
        let mut sim = harness();
        let n = frames.len() as u64;
        for f in frames {
            sim.send_from(NodeId(1), GROUP, Bytes::from(f), SendOptions::default());
        }
        prop_assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
        let a = sim.app(NodeId(0)).unwrap();
        // Exact accounting: every frame either decoded (rare but possible
        // with random bytes — e.g. a lucky tag byte) or was counted as an
        // error. Nothing vanishes silently.
        prop_assert_eq!(a.metrics.decode_errors + a.metrics.valid_messages, n);
        // And the agent is still functional afterwards.
        let page = PageId::new(SourceId(0), 0);
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page, Bytes::from_static(b"ok"));
        });
        prop_assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
        recovery_state_ends(&mut sim)?;
    }

    #[test]
    fn mutated_valid_messages_never_panic(
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..6),
        seq in 0u64..100,
    ) {
        // Start from a well-formed request and flip random bits.
        let m = Message {
            header: Header {
                sender: SourceId(9),
                timestamp: SimTime::from_secs(1),
            },
            body: Body::Request(RequestBody {
                name: AduName::new(SourceId(9), PageId::new(SourceId(9), 0), SeqNo(seq)),
                dist_to_source: 2.0,
            }),
        };
        let mut bytes = m.encode().to_vec();
        for (idx, bit) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= 1 << bit;
        }
        let mut sim = harness();
        sim.send_from(NodeId(1), GROUP, Bytes::from(bytes), SendOptions::default());
        prop_assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
        // Whatever happened (decode error, spurious request state, ignored
        // message), the agent is still functional: it can originate data.
        let page = PageId::new(SourceId(0), 0);
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page, Bytes::from_static(b"still alive"));
        });
        prop_assert!(sim.run_until_idle(SimTime::from_secs(1_000_000)));
        recovery_state_ends(&mut sim)?;
    }
}

/// A member restarted after kill -9 starts a fresh wall clock at zero, and
/// its peers echo the previous incarnation's (larger) timestamps until they
/// hear it again. Such an echo is not a distance sample: it must not panic
/// the agent (`SimTime::since` asserts in debug builds) nor zero the
/// estimate, which would collapse the timers toward that peer to `[0, 0]`.
#[test]
fn an_echo_of_a_future_timestamp_leaves_the_distance_estimate_alone() {
    let mut sim = harness();
    let peer = SourceId(9);
    let before = SimDuration::from_millis(30);
    sim.app_mut(NodeId(0))
        .unwrap()
        .distances_mut()
        .set_distance(peer, before);
    let session = Message {
        header: Header {
            sender: peer,
            timestamp: SimTime::from_secs(1),
        },
        body: Body::Session(SessionBody {
            page: PageId::new(peer, 0),
            state: Vec::new(),
            echoes: vec![Echo {
                peer: SourceId(0),
                their_ts: SimTime::from_secs(1_000_000),
                delay: SimDuration::from_millis(5),
            }],
            loss_rate: 0.0,
            loss_fingerprint: Vec::new(),
        }),
    };
    sim.send_from(NodeId(1), GROUP, session.encode(), SendOptions::default());
    assert!(sim.run_until_idle(SimTime::from_secs(100)));
    let a = sim.app(NodeId(0)).unwrap();
    assert_eq!(
        a.metrics.session_received, 1,
        "the session message was handled"
    );
    assert_eq!(a.distances().distance_to(peer), before);
}
