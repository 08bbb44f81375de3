//! Peer liveness from session-message silence.
//!
//! Section III-A's session messages give every member a periodic heartbeat
//! from every other member: each member multicasts its state roughly once
//! per session interval, so a peer that stays silent for several intervals
//! has either left, crashed, or been partitioned away.  [`PeerLiveness`]
//! turns that observation into a three-state machine per peer:
//!
//! ```text
//!            heard                    heard                 heard
//!         ┌─────────┐             ┌──────────┐          ┌─────────┐
//!         ▼         │             ▼          │          ▼         │
//!      [Alive] ──silence ≥ S──▶ [Suspect] ──silence ≥ D──▶ [Dead]
//! ```
//!
//! where `S` and `D` are multiples of the *nominal* session interval (the
//! un-jittered vat interval for the current group-size estimate), so the
//! thresholds adapt as the group grows and the per-member heartbeat rate
//! drops.  Any packet from the peer — not only session messages — counts as
//! life, matching the paper's use of all traffic for state exchange.
//!
//! The tracker is **disabled by default** and costs nothing when off; the
//! wall-clock transport enables it and forwards the transitions into the
//! `obs` transport-event stream.  Declaring a peer dead here never removes
//! protocol state — SRM's recovery must keep working if the peer returns —
//! it only reports; policy belongs to the layer above.

use std::collections::BTreeMap;

use netsim::{SimDuration, SimTime};

use crate::name::SourceId;

/// Silence thresholds, as multiples of the nominal session interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LivenessConfig {
    /// Silence (in nominal session intervals) before a peer turns suspect.
    pub suspect_after: f64,
    /// Silence (in nominal session intervals) before a peer is declared
    /// dead.  Must be ≥ `suspect_after`.
    pub dead_after: f64,
}

impl Default for LivenessConfig {
    /// The vat-style defaults: with per-interval heartbeats jittered in
    /// `[0.5, 1.5)`, three missed nominal intervals make a peer suspect
    /// (a single unlucky jitter draw cannot), eight make it dead.
    fn default() -> Self {
        LivenessConfig { suspect_after: 3.0, dead_after: 8.0 }
    }
}

/// One peer's liveness state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Heard from recently.
    Alive,
    /// Silent past the suspect threshold.
    Suspect,
    /// Silent past the dead threshold.
    Dead,
}

/// A state-machine transition, reported by [`PeerLiveness::note_heard`] and
/// [`PeerLiveness::sweep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The peer that changed state.
    pub peer: SourceId,
    /// The state it entered.
    pub to: PeerState,
}

#[derive(Debug, Clone, Copy)]
struct PeerEntry {
    last_heard: SimTime,
    state: PeerState,
}

/// Tracks per-peer silence against session-interval thresholds.
///
/// Disabled by default: [`PeerLiveness::note_heard`] and
/// [`PeerLiveness::sweep`] are single-branch no-ops until
/// [`PeerLiveness::enable`] is called, so simulator runs (which never
/// enable it) are untouched.
#[derive(Debug, Clone, Default)]
pub struct PeerLiveness {
    enabled: bool,
    cfg: LivenessConfig,
    peers: BTreeMap<SourceId, PeerEntry>,
    /// Total transitions into suspect (monotone; revivals don't subtract).
    pub suspected_total: u64,
    /// Total transitions into dead.
    pub died_total: u64,
    /// Total revivals (suspect/dead back to alive).
    pub revived_total: u64,
}

impl PeerLiveness {
    /// A fresh, disabled tracker with default thresholds.
    pub fn new() -> Self {
        PeerLiveness::default()
    }

    /// Enable tracking with the given thresholds.
    pub fn enable(&mut self, cfg: LivenessConfig) {
        self.enabled = true;
        self.cfg = cfg;
    }

    /// Is the tracker on?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current state of `peer`; `Alive` for peers never heard from (they do
    /// not exist yet from this tracker's point of view).
    pub fn state(&self, peer: SourceId) -> PeerState {
        self.peers.get(&peer).map_or(PeerState::Alive, |e| e.state)
    }

    /// Number of tracked peers in each state, as `(alive, suspect, dead)` —
    /// a cheap tally for live gauges, no allocation.
    pub fn counts(&self) -> (u64, u64, u64) {
        let mut c = (0, 0, 0);
        for e in self.peers.values() {
            match e.state {
                PeerState::Alive => c.0 += 1,
                PeerState::Suspect => c.1 += 1,
                PeerState::Dead => c.2 += 1,
            }
        }
        c
    }

    /// A packet from `peer` arrived at `now`.  Returns the revival
    /// transition if the peer was suspect or dead.
    #[inline]
    pub fn note_heard(&mut self, peer: SourceId, now: SimTime) -> Option<Transition> {
        if !self.enabled {
            return None;
        }
        let entry = self
            .peers
            .entry(peer)
            .or_insert(PeerEntry { last_heard: now, state: PeerState::Alive });
        entry.last_heard = now;
        if entry.state == PeerState::Alive {
            return None;
        }
        entry.state = PeerState::Alive;
        self.revived_total += 1;
        Some(Transition { peer, to: PeerState::Alive })
    }

    /// Re-examine every peer's silence against the thresholds scaled by the
    /// current nominal session `interval`.  Called on session ticks.
    /// Returns the transitions that occurred, in peer-id order.
    pub fn sweep(&mut self, now: SimTime, interval: SimDuration) -> Vec<Transition> {
        if !self.enabled {
            return Vec::new();
        }
        let suspect_at = interval.mul_f64(self.cfg.suspect_after);
        let dead_at = interval.mul_f64(self.cfg.dead_after.max(self.cfg.suspect_after));
        let mut out = Vec::new();
        for (&peer, entry) in self.peers.iter_mut() {
            let silence = if now > entry.last_heard {
                now.since(entry.last_heard)
            } else {
                SimDuration::ZERO
            };
            let target = if silence >= dead_at {
                PeerState::Dead
            } else if silence >= suspect_at {
                PeerState::Suspect
            } else {
                PeerState::Alive
            };
            // Sweeps only advance towards dead; revival is evidence-driven
            // (note_heard), never silence-driven.
            let advance = matches!(
                (entry.state, target),
                (PeerState::Alive, PeerState::Suspect)
                    | (PeerState::Alive, PeerState::Dead)
                    | (PeerState::Suspect, PeerState::Dead)
            );
            if !advance {
                continue;
            }
            if target == PeerState::Suspect || entry.state == PeerState::Alive {
                // Count the suspect stage even when a single sweep jumps
                // straight to dead, so the totals always satisfy
                // suspected ≥ died.
                self.suspected_total += 1;
            }
            if target == PeerState::Dead {
                self.died_total += 1;
            }
            entry.state = target;
            out.push(Transition { peer, to: target });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: SimDuration = SimDuration::from_secs(1);

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn disabled_tracker_does_nothing() {
        let mut lv = PeerLiveness::new();
        assert!(lv.note_heard(SourceId(2), t(0)).is_none());
        assert!(lv.sweep(t(100), INTERVAL).is_empty());
        assert_eq!(lv.state(SourceId(2)), PeerState::Alive);
    }

    #[test]
    fn silence_walks_alive_suspect_dead() {
        let mut lv = PeerLiveness::new();
        lv.enable(LivenessConfig::default());
        lv.note_heard(SourceId(2), t(0));
        assert!(lv.sweep(t(2), INTERVAL).is_empty());
        let tr = lv.sweep(t(3), INTERVAL);
        assert_eq!(tr, vec![Transition { peer: SourceId(2), to: PeerState::Suspect }]);
        assert!(lv.sweep(t(4), INTERVAL).is_empty(), "no re-announcement");
        let tr = lv.sweep(t(8), INTERVAL);
        assert_eq!(tr, vec![Transition { peer: SourceId(2), to: PeerState::Dead }]);
        assert_eq!(lv.suspected_total, 1);
        assert_eq!(lv.died_total, 1);
    }

    #[test]
    fn hearing_a_peer_revives_it() {
        let mut lv = PeerLiveness::new();
        lv.enable(LivenessConfig::default());
        lv.note_heard(SourceId(2), t(0));
        lv.sweep(t(10), INTERVAL);
        assert_eq!(lv.state(SourceId(2)), PeerState::Dead);
        let tr = lv.note_heard(SourceId(2), t(11)).expect("revival transition");
        assert_eq!(tr.to, PeerState::Alive);
        assert_eq!(lv.revived_total, 1);
        // And the cycle can repeat: 9s of fresh silence jumps straight to
        // dead again (one transition, both stage counters bumped).
        let tr = lv.sweep(t(20), INTERVAL);
        assert_eq!(tr, vec![Transition { peer: SourceId(2), to: PeerState::Dead }]);
        assert_eq!(lv.suspected_total, 2);
        assert_eq!(lv.died_total, 2);
    }

    #[test]
    fn straight_to_dead_counts_suspect_stage_too() {
        let mut lv = PeerLiveness::new();
        lv.enable(LivenessConfig::default());
        lv.note_heard(SourceId(3), t(0));
        let tr = lv.sweep(t(50), INTERVAL);
        assert_eq!(
            tr,
            vec![Transition { peer: SourceId(3), to: PeerState::Dead }]
        );
        assert_eq!(lv.suspected_total, 1);
        assert_eq!(lv.died_total, 1);
    }

    #[test]
    fn counts_tally_states() {
        let mut lv = PeerLiveness::new();
        lv.enable(LivenessConfig::default());
        lv.note_heard(SourceId(2), t(0));
        lv.note_heard(SourceId(3), t(0));
        lv.note_heard(SourceId(4), t(4));
        // At t=7: peers 2,3 silent 7s → suspect; peer 4 silent 3s → suspect
        // too. Hear peer 2 again first so states diverge.
        lv.sweep(t(5), INTERVAL); // 2,3 suspect (silence 5 ≥ 3)
        lv.note_heard(SourceId(2), t(6));
        lv.sweep(t(11), INTERVAL); // 3 dead (11 ≥ 8), 2 suspect (5), 4 suspect (7)
        assert_eq!(lv.counts(), (0, 2, 1));
    }

    #[test]
    fn thresholds_scale_with_interval() {
        let mut lv = PeerLiveness::new();
        lv.enable(LivenessConfig::default());
        lv.note_heard(SourceId(2), t(0));
        // With a 10s nominal interval, 8s of silence is nothing.
        assert!(lv.sweep(t(8), SimDuration::from_secs(10)).is_empty());
        assert_eq!(lv.state(SourceId(2)), PeerState::Alive);
    }
}
