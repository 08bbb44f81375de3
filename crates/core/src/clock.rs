//! NTP-style one-way distance estimation from session-message timestamps
//! (Section III-A).
//!
//! Host A sends a session packet at `t1`; host B receives it at `t2`; at
//! `t3` B sends a session packet echoing `(t1, Δ)` with `Δ = t3 − t2`; A
//! receives it at `t4` and estimates the one-way latency to B as
//! `((t4 − t1) − Δ) / 2`.
//!
//! The estimate "does not assume synchronized clocks, but it does assume
//! that paths are roughly symmetric". Our simulated links are symmetric, so
//! after one full session-message exchange the estimates are exact.

use crate::name::SourceId;
use crate::wire::Echo;
use netsim::{Application, NodeId, SimDuration, SimTime, Simulator};
use std::collections::BTreeMap;

/// What we know about one peer's timing.
#[derive(Clone, Copy, Debug)]
struct PeerClock {
    /// The peer's send timestamp on its most recent session message.
    last_ts: SimTime,
    /// Our local receive time of that message.
    received_at: SimTime,
    /// Current distance estimate, if any exchange has completed.
    distance: Option<SimDuration>,
}

/// Tracks per-peer timestamps and produces/consumes echoes.
#[derive(Clone, Debug, Default)]
pub struct DistanceEstimator {
    peers: BTreeMap<SourceId, PeerClock>,
    /// Fallback distance for peers we have no estimate for yet.
    pub default_distance: SimDuration,
}

impl DistanceEstimator {
    /// New estimator with the given fallback distance.
    pub fn new(default_distance: SimDuration) -> Self {
        DistanceEstimator {
            peers: BTreeMap::new(),
            default_distance,
        }
    }

    /// Record the header timestamp of any packet received from `peer`
    /// ("All packets for that group, including session packets, include a
    /// Source-ID and a timestamp").
    pub fn note_timestamp(&mut self, peer: SourceId, their_ts: SimTime, now: SimTime) {
        let e = self.peers.entry(peer).or_insert(PeerClock {
            last_ts: their_ts,
            received_at: now,
            distance: None,
        });
        e.last_ts = their_ts;
        e.received_at = now;
    }

    /// Process an echo of *our own* timestamp arriving from `peer` at `now`:
    /// `d = ((t4 − t1) − Δ)/2`, which replaces the previous estimate (the
    /// paper's simulations assume converged, exact estimates). An echo of
    /// a time later than `now` is ignored: it stamps an earlier incarnation
    /// of us (a live member restarted after a crash starts its clock at
    /// zero again), and peers keep echoing it until they hear the new one.
    pub fn process_echo(&mut self, peer: SourceId, echo: &Echo, now: SimTime) {
        if echo.their_ts > now {
            return;
        }
        // t4 − t1:
        let rtt_plus_delay = now.since(echo.their_ts);
        let sample = rtt_plus_delay - echo.delay;
        let one_way = SimDuration::from_secs_f64(sample.as_secs_f64() / 2.0);
        let e = self.peers.entry(peer).or_insert(PeerClock {
            last_ts: SimTime::ZERO,
            received_at: SimTime::ZERO,
            distance: None,
        });
        e.distance = Some(one_way);
    }

    /// Build the echo list to put in an outgoing session message sent at
    /// `now`: for every peer we have heard, `(their last ts, Δ)`.
    pub fn make_echoes(&self, now: SimTime) -> Vec<Echo> {
        self.peers
            .iter()
            .map(|(&peer, pc)| Echo {
                peer,
                their_ts: pc.last_ts,
                delay: elapsed(now, pc.received_at),
            })
            .collect()
    }

    /// Current estimate of the one-way distance to `peer`, or the default.
    pub fn distance_to(&self, peer: SourceId) -> SimDuration {
        self.peers
            .get(&peer)
            .and_then(|p| p.distance)
            .unwrap_or(self.default_distance)
    }

    /// Whether we have a real (non-default) estimate for `peer`.
    pub fn has_estimate(&self, peer: SourceId) -> bool {
        self.peers.get(&peer).is_some_and(|p| p.distance.is_some())
    }

    /// Number of distinct peers heard — the group-size estimate the session
    /// message rate scaling uses (Section III-A / \[30\]).
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Override the estimate for `peer` (used by tests and by experiment
    /// setups that assume converged estimates).
    pub fn set_distance(&mut self, peer: SourceId, d: SimDuration) {
        let e = self.peers.entry(peer).or_insert(PeerClock {
            last_ts: SimTime::ZERO,
            received_at: SimTime::ZERO,
            distance: None,
        });
        e.distance = Some(d);
    }

    /// Set the estimate for every node of `members` other than `me` to the
    /// exact shortest-path delay from it to `me`, read off `sim`'s route
    /// cache — the converged estimates the paper's simulations assume
    /// (Section V). Each member's tree is computed once and then serves
    /// forwarding too.
    pub fn set_exact_distances<A: Application>(
        &mut self,
        sim: &mut Simulator<A>,
        me: NodeId,
        members: &[NodeId],
    ) {
        for &other in members {
            if other != me {
                let d = sim.route(other).distance(me);
                self.set_distance(SourceId(other.0 as u64), d);
            }
        }
    }
}

/// Time from `then` to `now` on the local clock, zero when `then` is later:
/// a clock stepped backwards (NTP, or a skew fault in the simulator) leaves
/// receive times recorded before the step in the clock's future.
fn elapsed(now: SimTime, then: SimTime) -> SimDuration {
    if now >= then {
        now.since(then)
    } else {
        SimDuration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: SourceId = SourceId(2);

    #[test]
    fn symmetric_exchange_yields_exact_distance() {
        // One-way delay is 3 s, clocks synchronized (the formula does not
        // care): A sends at t1=10, B receives t2=13, B replies at t3=20
        // with delay Δ=7, A receives at t4=23. d = ((23−10)−7)/2 = 3.
        let mut est = DistanceEstimator::new(SimDuration::from_secs(1));
        let echo = Echo {
            peer: SourceId(1), // us, as recorded by B
            their_ts: SimTime::from_secs(10),
            delay: SimDuration::from_secs(7),
        };
        est.process_echo(B, &echo, SimTime::from_secs(23));
        assert_eq!(est.distance_to(B), SimDuration::from_secs(3));
        assert!(est.has_estimate(B));
    }

    #[test]
    fn default_distance_until_estimate() {
        let est = DistanceEstimator::new(SimDuration::from_secs(5));
        assert_eq!(est.distance_to(B), SimDuration::from_secs(5));
        assert!(!est.has_estimate(B));
    }

    #[test]
    fn echo_construction_includes_delay_since_receipt() {
        let mut est = DistanceEstimator::new(SimDuration::from_secs(1));
        est.note_timestamp(B, SimTime::from_secs(100), SimTime::from_secs(104));
        let echoes = est.make_echoes(SimTime::from_secs(110));
        assert_eq!(echoes.len(), 1);
        assert_eq!(echoes[0].peer, B);
        assert_eq!(echoes[0].their_ts, SimTime::from_secs(100));
        assert_eq!(echoes[0].delay, SimDuration::from_secs(6));
    }

    #[test]
    fn a_later_sample_replaces_the_estimate() {
        let mut est = DistanceEstimator::new(SimDuration::from_secs(1));
        let mk = |t1: u64, delay: u64| Echo {
            peer: SourceId(1),
            their_ts: SimTime::from_secs(t1),
            delay: SimDuration::from_secs(delay),
        };
        // Sample 1: d = 4.
        est.process_echo(B, &mk(0, 2), SimTime::from_secs(10));
        assert_eq!(est.distance_to(B), SimDuration::from_secs(4));
        // Sample 2: d = 2.
        est.process_echo(B, &mk(20, 2), SimTime::from_secs(26));
        assert_eq!(est.distance_to(B), SimDuration::from_secs(2));
    }

    #[test]
    fn peer_count_tracks_distinct_sources() {
        let mut est = DistanceEstimator::new(SimDuration::from_secs(1));
        est.note_timestamp(SourceId(2), SimTime::ZERO, SimTime::ZERO);
        est.note_timestamp(SourceId(3), SimTime::ZERO, SimTime::ZERO);
        est.note_timestamp(SourceId(2), SimTime::ZERO, SimTime::ZERO);
        assert_eq!(est.peer_count(), 2);
    }

    #[test]
    fn an_echo_from_the_future_leaves_the_estimate_alone() {
        let mut est = DistanceEstimator::new(SimDuration::from_secs(1));
        est.set_distance(B, SimDuration::from_secs(3));
        let echo = Echo {
            peer: SourceId(1),
            their_ts: SimTime::from_secs(500),
            delay: SimDuration::from_secs(1),
        };
        est.process_echo(B, &echo, SimTime::from_secs(2));
        assert_eq!(est.distance_to(B), SimDuration::from_secs(3));
    }

    #[test]
    fn a_clock_stepped_backwards_echoes_zero_delay() {
        let mut est = DistanceEstimator::new(SimDuration::from_secs(1));
        est.note_timestamp(B, SimTime::from_secs(100), SimTime::from_secs(50));
        // The local clock went back 20 s: the receipt is now in its future.
        let now = SimTime::from_secs(30);
        let echoes = est.make_echoes(now);
        assert_eq!(echoes[0].their_ts, SimTime::from_secs(100));
        assert_eq!(echoes[0].delay, SimDuration::ZERO);
    }

    #[test]
    fn set_distance_overrides() {
        let mut est = DistanceEstimator::new(SimDuration::from_secs(1));
        est.set_distance(B, SimDuration::from_secs(9));
        assert_eq!(est.distance_to(B), SimDuration::from_secs(9));
    }
}
