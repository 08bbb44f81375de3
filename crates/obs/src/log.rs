//! The per-member event logs: [`Recorder`] for the ADU-keyed recovery
//! stream and [`TransportLog`] for transport-layer happenings.
//!
//! Both are netsim's one [`EventLog`] (re-exported here; the simulator's
//! trace is a third instance) behind a [`MemberLog`], which adds the typed
//! `record` calls. A log starts disabled, so instrumentation has zero cost
//! for ordinary figure runs; [`EventLog::enable`] keeps every event
//! (simulator and golden-trace runs), [`EventLog::enable_bounded`] a ring
//! of the most recent ones (long live `srm-node` runs). Every event carries
//! its log-local sequence number, so a [`Timeline`](crate::Timeline) can
//! merge many members' streams into a total order that is stable even when
//! events share a timestamp.

use std::ops::{Deref, DerefMut};

pub use netsim::EventLog;
use netsim::SimTime;

use crate::event::{AduKey, EventKind, RecordedEvent};
use crate::transport::{TransportEventKind, TransportRecord};

/// One member's [`EventLog`] of `T`, stamping each event with its sequence
/// number as it records it. Everything but recording is the log's own,
/// through `Deref`; a wrapper rather than an alias because only the crate
/// that defines `EventLog` could add the typed `record` calls to it.
#[derive(Debug, Clone)]
pub struct MemberLog<T>(EventLog<T>);

/// Captures the typed recovery-event stream of one member.
pub type Recorder = MemberLog<RecordedEvent>;

/// Captures the transport event stream of one node. Kept apart from the
/// [`Recorder`] so the ADU-keyed golden-trace pins stay byte-identical.
pub type TransportLog = MemberLog<TransportRecord>;

impl<T> Default for MemberLog<T> {
    fn default() -> Self {
        MemberLog(EventLog::new())
    }
}

impl<T> MemberLog<T> {
    /// A fresh, disabled log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<T> Deref for MemberLog<T> {
    type Target = EventLog<T>;

    fn deref(&self) -> &EventLog<T> {
        &self.0
    }
}

impl<T> DerefMut for MemberLog<T> {
    fn deref_mut(&mut self) -> &mut EventLog<T> {
        &mut self.0
    }
}

impl Recorder {
    /// Record one recovery event. No-op (single branch) when disabled.
    #[inline]
    pub fn record(&mut self, at: SimTime, adu: AduKey, kind: EventKind) {
        self.0.record_with(|seq| RecordedEvent { at, adu, kind, seq });
    }
}

impl TransportLog {
    /// Record one transport event. No-op (single branch) when disabled.
    #[inline]
    pub fn record(&mut self, at: SimTime, kind: TransportEventKind) {
        self.0.record_with(|seq| TransportRecord { at, kind, seq });
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
        self.0.refill(all, |e, seq| e.seq = seq);
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
