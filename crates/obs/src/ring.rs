//! The event stream behind [`Recorder`](crate::Recorder) and
//! [`TransportLog`](crate::TransportLog): disabled by default and a single
//! branch while off; once enabled, either unbounded or a ring of the most
//! recent `cap` events that counts what it evicted. Sequence numbers are
//! per stream and survive drains.

use std::collections::VecDeque;

/// The fields are read by the two wrappers' accessors; only the methods
/// here and `TransportLog::absorb` change them, and each keeps
/// `events.len() <= cap`.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    pub(crate) enabled: bool,
    /// `None` = unbounded; `Some(cap)` = ring of the most recent `cap`.
    pub(crate) cap: Option<usize>,
    pub(crate) seq: u64,
    pub(crate) events: VecDeque<T>,
    pub(crate) dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring { enabled: false, cap: None, seq: 0, events: VecDeque::new(), dropped: 0 }
    }
}

impl<T> Ring<T> {
    /// Start capturing, unbounded (`None`) or into a ring of `cap`.
    pub(crate) fn enable(&mut self, cap: Option<usize>) {
        self.enabled = true;
        self.cap = cap;
    }

    /// Append the event `make` builds from its sequence number. No-op
    /// (single branch) when disabled; a full ring evicts its oldest event,
    /// and a zero-capacity one keeps nothing, each counted as dropped.
    #[inline]
    pub(crate) fn push(&mut self, make: impl FnOnce(u64) -> T) {
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

    /// Drain the captured events, oldest first.
    pub(crate) fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.events).into()
    }
}
