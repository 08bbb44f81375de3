//! The workspace's one in-memory event log: the simulator's trace
//! ([`Simulator::trace`](crate::Simulator::trace)) and, through `obs`,
//! every member's recovery and transport logs are instances of
//! [`EventLog`].
//!
//! A log starts **disabled**: recording is then a single predictable branch
//! and allocates nothing, so long runs stay flat in memory. Enabling a log
//! never touches any RNG or timer, so a traced run takes exactly the same
//! decisions as an untraced one — only the observation differs.
//!
//! Logs come in two capacities: [`EventLog::enable`] keeps every event
//! (tests and golden-trace runs, which need the complete stream), while
//! [`EventLog::enable_bounded`] keeps a ring of the most recent `cap`
//! events and counts what it evicted ([`EventLog::dropped_events`]) — the
//! mode for big simulations and long live runs whose memory must stay
//! bounded. Every recorded event is handed a log-local sequence number that
//! survives drains, which `obs` stamps on its events so a timeline can
//! merge many members' streams into a total order that is stable even when
//! events share a timestamp.

use std::collections::VecDeque;

/// Captures one stream of `T`, oldest first. Every call order keeps
/// `len() <= cap` in bounded mode.
#[derive(Debug, Clone)]
pub struct EventLog<T> {
    enabled: bool,
    /// `None` = unbounded; `Some(cap)` = ring of the most recent `cap`.
    cap: Option<usize>,
    seq: u64,
    events: VecDeque<T>,
    dropped: u64,
}

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
    /// [`EventLog::dropped_events`]; events already held past the new bound
    /// are evicted now, oldest first, and counted the same way. A `cap` of
    /// 0 records nothing (every event counts as dropped).
    pub fn enable_bounded(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = Some(cap);
        self.trim();
    }

    /// Is this log capturing events? A recording site may consult this
    /// before it even builds an event.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Heap slots reserved for events: 0 until something is recorded, and
    /// never far past a ring's bound.
    pub fn capacity(&self) -> usize {
        self.events.capacity()
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
    pub fn record_with(&mut self, make: impl FnOnce(u64) -> T) {
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

    /// Replace the captured events with `events`, oldest first: a ring
    /// keeps the newest `cap` and counts the rest as dropped, `renumber`
    /// stamps the survivors 0, 1, …, and numbering continues after them.
    pub fn refill(&mut self, events: Vec<T>, mut renumber: impl FnMut(&mut T, u64)) {
        self.events = events.into();
        self.trim();
        for (seq, e) in self.events.iter_mut().enumerate() {
            renumber(e, seq as u64);
        }
        self.seq = self.events.len() as u64;
    }

    /// Evict the oldest events past the ring's bound, counted as dropped.
    fn trim(&mut self) {
        let excess = self.cap.map_or(0, |cap| self.events.len().saturating_sub(cap));
        self.events.drain(..excess);
        self.dropped += excess as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record `n` events, each its own sequence number.
    fn record(log: &mut EventLog<u64>, n: usize) {
        for _ in 0..n {
            log.record_with(|seq| seq);
        }
    }

    fn kept(log: &EventLog<u64>) -> Vec<u64> {
        log.events().copied().collect()
    }

    #[test]
    fn disabled_log_records_nothing_and_never_allocates() {
        let mut log = EventLog::new();
        assert!(!log.is_enabled());
        record(&mut log, 10_000);
        assert!(log.is_empty());
        assert_eq!(log.capacity(), 0, "disabled log must not grow");
    }

    #[test]
    fn enabled_log_numbers_events_monotonically_across_drains() {
        let mut log = EventLog::new();
        log.record_with(|seq| seq);
        log.enable();
        record(&mut log, 2);
        assert_eq!(log.take_events(), [0, 1]);
        // Numbering continues across a drain.
        record(&mut log, 1);
        assert_eq!(kept(&log), [2]);
    }

    #[test]
    fn bounded_log_keeps_the_tail_and_counts_drops() {
        let mut log = EventLog::new();
        log.enable_bounded(3);
        record(&mut log, 10);
        assert_eq!(kept(&log), [7, 8, 9]);
        assert_eq!(log.dropped_events(), 7);
        // The ring never reserves far past its bound.
        assert!(log.capacity() <= 8, "capacity {} exceeds ring bound", log.capacity());
        // Numbering still continues after a drain.
        log.take_events();
        record(&mut log, 1);
        assert_eq!(kept(&log), [10]);
    }

    #[test]
    fn zero_capacity_ring_records_nothing_but_counts() {
        let mut log = EventLog::new();
        log.enable_bounded(0);
        record(&mut log, 1);
        assert!(log.is_empty() && log.is_enabled());
        assert_eq!(log.dropped_events(), 1);
        assert_eq!(log.capacity(), 0);
    }

    #[test]
    fn bounding_a_full_log_trims_it_to_the_ring() {
        let mut log = EventLog::new();
        log.enable();
        record(&mut log, 5);
        log.enable_bounded(2);
        assert_eq!((kept(&log), log.dropped_events()), (vec![3, 4], 3));
        record(&mut log, 1);
        assert_eq!((kept(&log), log.dropped_events()), (vec![4, 5], 4));
    }
}
