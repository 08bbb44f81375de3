//! Per-member event recorder.
//!
//! Each protocol agent owns one [`Recorder`].  Recorders start **disabled**:
//! the hot-path [`Recorder::record`] call is then a single predictable branch
//! and allocates nothing, so instrumentation has zero cost for ordinary
//! figure runs.  Enabling a recorder never touches the protocol's RNG or
//! timers, so a traced run takes exactly the same decisions as an untraced
//! one — only the observation differs.
//!
//! Recorders come in two capacities, mirroring the netsim `Trace` sink:
//! [`Recorder::enable`] keeps every event (simulator and golden-trace runs,
//! which need the complete stream), while [`Recorder::enable_bounded`] keeps
//! a ring of the most recent `cap` events and counts what it evicted
//! ([`Recorder::dropped_events`]) — the right mode for long live `srm-node`
//! runs whose memory must stay bounded.

use netsim::SimTime;

use crate::event::{AduKey, EventKind, RecordedEvent};
use crate::ring::Ring;

/// Captures the typed event stream of one member.
///
/// Events carry a recorder-local sequence number so that a
/// [`Timeline`](crate::Timeline) can merge many members' streams into a
/// total order that is stable even when events share a timestamp.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    ring: Ring<RecordedEvent>,
}

impl Recorder {
    /// A fresh, disabled recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Turn recording on, unbounded.  Safe to call at any point; events
    /// before the call are simply not captured.
    pub fn enable(&mut self) {
        self.ring.enable(None);
    }

    /// Turn recording on with a ring of the most recent `cap` events.
    /// When full, the oldest event is evicted and counted in
    /// [`Recorder::dropped_events`].  A `cap` of 0 records nothing (every
    /// event counts as dropped).
    pub fn enable_bounded(&mut self, cap: usize) {
        self.ring.enable(Some(cap));
    }

    /// Is this recorder capturing events?
    pub fn is_enabled(&self) -> bool {
        self.ring.enabled
    }

    /// The ring capacity, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.ring.cap
    }

    /// Number of events evicted from the ring since enabling (always 0 in
    /// unbounded mode).
    pub fn dropped_events(&self) -> u64 {
        self.ring.dropped
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.ring.events.len()
    }

    /// True if no events have been captured.
    pub fn is_empty(&self) -> bool {
        self.ring.events.is_empty()
    }

    /// Record one event.  No-op (single branch) when disabled.
    #[inline]
    pub fn record(&mut self, at: SimTime, adu: AduKey, kind: EventKind) {
        self.ring.push(|seq| RecordedEvent { at, adu, kind, seq });
    }

    /// Drain the captured events, leaving the recorder enabled-state and
    /// sequence counter intact (a crash/restart cycle keeps numbering
    /// monotone).
    pub fn take_events(&mut self) -> Vec<RecordedEvent> {
        self.ring.take()
    }

    /// Iterate the captured events without draining, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &RecordedEvent> {
        self.ring.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adu() -> AduKey {
        AduKey { source: 0, page_creator: 0, page_number: 0, seq: 1 }
    }

    #[test]
    fn disabled_recorder_captures_nothing() {
        let mut r = Recorder::new();
        r.record(SimTime::ZERO, adu(), EventKind::GapDetected);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn enabled_recorder_numbers_events_monotonically() {
        let mut r = Recorder::new();
        r.enable();
        r.record(SimTime::ZERO, adu(), EventKind::GapDetected);
        r.record(SimTime::ZERO, adu(), EventKind::RequestSent { round: 1 });
        let evs = r.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        // Sequence numbering continues across a drain.
        r.record(SimTime::ZERO, adu(), EventKind::GaveUp);
        assert_eq!(r.events().next().unwrap().seq, 2);
    }

    #[test]
    fn bounded_recorder_keeps_most_recent_and_counts_drops() {
        let mut r = Recorder::new();
        r.enable_bounded(2);
        assert_eq!(r.capacity(), Some(2));
        for round in 1..=5 {
            r.record(SimTime::ZERO, adu(), EventKind::RequestSent { round });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped_events(), 3);
        // The survivors are the two most recent, seq numbering untouched.
        let evs = r.take_events();
        assert_eq!((evs[0].seq, evs[1].seq), (3, 4));
        // Numbering still continues after the drain.
        r.record(SimTime::ZERO, adu(), EventKind::GaveUp);
        assert_eq!(r.events().next().unwrap().seq, 5);
    }

    #[test]
    fn zero_capacity_records_nothing_but_counts() {
        let mut r = Recorder::new();
        r.enable_bounded(0);
        r.record(SimTime::ZERO, adu(), EventKind::GapDetected);
        assert!(r.is_empty());
        assert_eq!(r.dropped_events(), 1);
        assert!(r.is_enabled());
    }
}
