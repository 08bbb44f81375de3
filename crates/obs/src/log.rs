//! The per-member event logs: [`Recorder`] for the ADU-keyed recovery
//! stream and [`TransportLog`] for transport-layer happenings, two
//! instances of one [`EventLog`].
//!
//! A log starts **disabled**: `record` is then a single predictable branch
//! and allocates nothing, so instrumentation has zero cost for ordinary
//! figure runs. Enabling a log never touches the protocol's RNG or timers,
//! so a traced run takes exactly the same decisions as an untraced one —
//! only the observation differs.
//!
//! Logs come in two capacities, mirroring the netsim `Trace` sink:
//! [`EventLog::enable`] keeps every event (simulator and golden-trace runs,
//! which need the complete stream), while [`EventLog::enable_bounded`]
//! keeps a ring of the most recent `cap` events and counts what it evicted
//! ([`EventLog::dropped_events`]) — the right mode for long live `srm-node`
//! runs whose memory must stay bounded. Events carry a log-local sequence
//! number that survives drains, so a [`Timeline`](crate::Timeline) can
//! merge many members' streams into a total order that is stable even when
//! events share a timestamp.

use std::collections::VecDeque;

use netsim::SimTime;

use crate::event::{AduKey, EventKind, RecordedEvent};
use crate::transport::{TransportEventKind, TransportRecord};

/// Captures one member's stream of `T`. Each method keeps
/// `events.len() <= cap`.
#[derive(Debug, Clone)]
pub struct EventLog<T> {
    enabled: bool,
    /// `None` = unbounded; `Some(cap)` = ring of the most recent `cap`.
    cap: Option<usize>,
    seq: u64,
    events: VecDeque<T>,
    dropped: u64,
}

/// Captures the typed recovery-event stream of one member.
pub type Recorder = EventLog<RecordedEvent>;

/// Captures the transport event stream of one node. Kept apart from the
/// [`Recorder`] so the ADU-keyed golden-trace pins stay byte-identical.
pub type TransportLog = EventLog<TransportRecord>;

impl<T> Default for EventLog<T> {
    fn default() -> Self {
        EventLog { enabled: false, cap: None, seq: 0, events: VecDeque::new(), dropped: 0 }
    }
}

impl<T> EventLog<T> {
    /// A fresh, disabled log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turn capture on, unbounded. Safe to call at any point; events
    /// before the call are simply not captured.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.cap = None;
    }

    /// Turn capture on with a ring of the most recent `cap` events. When
    /// full, the oldest event is evicted and counted in
    /// [`EventLog::dropped_events`]. A `cap` of 0 records nothing (every
    /// event counts as dropped).
    pub fn enable_bounded(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = Some(cap);
    }

    /// Is this log capturing events?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The ring capacity, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.cap
    }

    /// Number of events evicted from the ring since enabling (always 0 in
    /// unbounded mode).
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events have been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drain the captured events, oldest first, leaving the enabled state
    /// and sequence counter intact (a crash/restart cycle keeps numbering
    /// monotone).
    pub fn take_events(&mut self) -> Vec<T> {
        std::mem::take(&mut self.events).into()
    }

    /// Iterate the captured events without draining, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &T> {
        self.events.iter()
    }

    /// Append the event `make` builds from its sequence number. No-op
    /// (single branch) when disabled; a full ring evicts its oldest event,
    /// and a zero-capacity one keeps nothing, each counted as dropped.
    #[inline]
    fn push(&mut self, make: impl FnOnce(u64) -> T) {
        if !self.enabled {
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        if self.cap == Some(self.events.len()) {
            self.dropped += 1;
            if self.events.pop_front().is_none() {
                return;
            }
        }
        self.events.push_back(make(seq));
    }
}

impl Recorder {
    /// Record one recovery event. No-op (single branch) when disabled.
    #[inline]
    pub fn record(&mut self, at: SimTime, adu: AduKey, kind: EventKind) {
        self.push(|seq| RecordedEvent { at, adu, kind, seq });
    }
}

impl TransportLog {
    /// Record one transport event. No-op (single branch) when disabled.
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: TransportEventKind) {
        self.push(|seq| TransportRecord { at, kind, seq });
    }

    /// Merge another log's drained events into this one, restoring the global
    /// time order and re-stamping sequence numbers.  Used when a node keeps
    /// two capture points (e.g. the reactor and the agent) that must end up
    /// as one per-member stream.  In bounded mode the merged stream is
    /// trimmed back to capacity from the oldest end.
    pub fn absorb(&mut self, mut other: Vec<TransportRecord>) {
        if other.is_empty() {
            return;
        }
        let mut all = self.take_events();
        all.append(&mut other);
        // Stable by-time sort keeps same-instant events in their original
        // relative order within each source stream.
        all.sort_by_key(|e| e.at.as_nanos());
        let excess = self.cap.map_or(0, |cap| all.len().saturating_sub(cap));
        all.drain(..excess);
        self.dropped += excess as u64;
        for (i, e) in all.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        self.seq = all.len() as u64;
        self.events = all.into();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adu() -> AduKey {
        AduKey { source: 0, page_creator: 0, page_number: 0, seq: 1 }
    }

    fn drop_flow(flow: u32) -> TransportEventKind {
        TransportEventKind::ChaosDrop { flow }
    }

    #[test]
    fn disabled_log_captures_nothing() {
        let mut r = Recorder::new();
        r.record(SimTime::ZERO, adu(), EventKind::GapDetected);
        assert!(r.is_empty());
        assert!(!r.is_enabled());
        let mut log = TransportLog::new();
        log.record(SimTime::ZERO, drop_flow(0));
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn enabled_log_numbers_events_monotonically_across_drains() {
        let mut r = Recorder::new();
        r.enable();
        r.record(SimTime::ZERO, adu(), EventKind::GapDetected);
        r.record(SimTime::ZERO, adu(), EventKind::RequestSent { round: 1 });
        let evs = r.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!((evs[0].seq, evs[1].seq), (0, 1));
        // Sequence numbering continues across a drain.
        r.record(SimTime::ZERO, adu(), EventKind::GaveUp);
        assert_eq!(r.events().next().unwrap().seq, 2);
    }

    #[test]
    fn bounded_log_keeps_most_recent_and_counts_drops() {
        let mut log = TransportLog::new();
        log.enable_bounded(2);
        assert_eq!(log.capacity(), Some(2));
        for flow in 0..5 {
            log.record(SimTime::ZERO, drop_flow(flow));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped_events(), 3);
        // The survivors are the two most recent, seq numbering untouched.
        let evs = log.take_events();
        assert_eq!((evs[0].seq, evs[1].seq), (3, 4));
        // Numbering still continues after the drain.
        log.record(SimTime::ZERO, drop_flow(5));
        assert_eq!(log.events().next().unwrap().seq, 5);
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

    #[test]
    fn bounded_absorb_trims_oldest() {
        let t = SimTime::from_nanos;
        let mut a = TransportLog::new();
        a.enable_bounded(2);
        a.record(t(10), drop_flow(0));
        a.record(t(30), drop_flow(1));
        a.absorb(vec![TransportRecord {
            at: t(20),
            kind: TransportEventKind::Blackholed { flow: 2 },
            seq: 0,
        }]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped_events(), 1, "the t=10 event was trimmed");
        let kinds: Vec<&'static str> = a.events().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["blackholed", "chaos_drop"]);
    }

    #[test]
    fn absorb_restores_time_order_and_reseqs() {
        let t = SimTime::from_nanos;
        let mut a = TransportLog::new();
        a.enable();
        a.record(t(10), drop_flow(0));
        a.record(t(30), drop_flow(1));
        let mut b = TransportLog::new();
        b.enable();
        b.record(t(20), TransportEventKind::DecodeError { reason: "truncated".into() });
        a.absorb(b.take_events());
        let evs: Vec<&TransportRecord> = a.events().collect();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[1].kind.name(), "decode_error");
        assert_eq!((evs[0].seq, evs[1].seq, evs[2].seq), (0, 1, 2));
    }
}
