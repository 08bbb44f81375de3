//! One-shot timer wheel for the wall-clock runtime.
//!
//! The live host's `set_timer`/`cancel_timer`, on the simulator's own
//! [`DeadlineQueue`] and by the simulator's own cancellation rule: arming
//! pushes a deadline and records its id in a [`TimerMap`] of live timers;
//! cancelling removes the id; a deadline popped off the queue fires only if
//! its id is still in the map. The reactor asks for
//! [`TimerWheel::next_deadline`] to bound its socket wait, then drains
//! [`TimerWheel::pop_expired`] after every wake-up. `arm` is `O(log n)`;
//! `cancel` only removes a map entry, with no re-heapify.
//!
//! A cancelled timer's deadline stays queued until it surfaces. A live host
//! runs without bound, and under churn — timers armed far out and cancelled
//! early — those dead entries would pile up, so [`TimerWheel::cancel`]
//! compacts the queue (drops every dead entry) once they number more than
//! 64 and more than half the queue, keeping memory proportional to the
//! *pending* timers at `O(1)` amortized cost per cancel. The simulator
//! needs no such pass: a run ends, and its dead timers with it.

use netsim::{DeadlineQueue, SimTime, TimerId, TimerMap};

/// Pending one-shot timers ordered by deadline.
///
/// Ties on the deadline fire in arming order, matching the simulator's
/// FIFO-per-instant event order.
#[derive(Debug, Default)]
pub struct TimerWheel {
    queue: DeadlineQueue<()>,
    /// Timers armed and neither fired nor cancelled, with their tokens;
    /// a timer's id is its deadline's sequence number.
    live: TimerMap<u64>,
}

impl TimerWheel {
    /// An empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm a one-shot timer at absolute time `at`; `token` is handed back
    /// by [`TimerWheel::pop_expired`].
    pub fn arm(&mut self, at: SimTime, token: u64) -> TimerId {
        let id = TimerId(self.queue.push(at, ()));
        self.live.insert(id, token);
        id
    }

    /// Cancel a pending timer; cancelling one that already fired (or was
    /// never armed here) is a no-op.
    pub fn cancel(&mut self, id: TimerId) {
        self.live.remove(&id);
        // Drop the dead entries once they dominate the queue. The `> 64`
        // floor keeps small wheels on the pure-lazy fast path.
        let dead = self.pending_cancels();
        if dead > 64 && dead > self.queue.len() / 2 {
            self.queue.retain(|e| self.live.contains_key(&TimerId(e.seq)));
        }
    }

    /// Cancelled deadlines still queued (test/diagnostic hook).
    pub fn pending_cancels(&self) -> usize {
        self.queue.len() - self.live.len()
    }

    /// The earliest live deadline, if any. Pops dead (cancelled) entries
    /// encountered on the way.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(e) = self.queue.peek() {
            if self.live.contains_key(&TimerId(e.seq)) {
                return Some(e.at);
            }
            self.queue.pop();
        }
        None
    }

    /// Pop the earliest live timer whose deadline is `<= now`, returning
    /// its token. Call in a loop to drain everything due.
    pub fn pop_expired(&mut self, now: SimTime) -> Option<u64> {
        while let Some(e) = self.queue.pop_due(now) {
            if let Some(token) = self.live.remove(&TimerId(e.seq)) {
                return Some(token);
            }
        }
        None
    }

    /// Number of entries still queued (including not-yet-collected
    /// cancelled ones).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no entries remain.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_with_fifo_ties() {
        let mut w = TimerWheel::new();
        w.arm(SimTime::from_secs(3), 30);
        w.arm(SimTime::from_secs(1), 10);
        w.arm(SimTime::from_secs(1), 11);
        let now = SimTime::from_secs(5);
        assert_eq!(w.pop_expired(now), Some(10));
        assert_eq!(w.pop_expired(now), Some(11));
        assert_eq!(w.pop_expired(now), Some(30));
        assert_eq!(w.pop_expired(now), None);
    }

    #[test]
    fn respects_now_boundary() {
        let mut w = TimerWheel::new();
        w.arm(SimTime::from_secs(2), 7);
        assert_eq!(w.pop_expired(SimTime::from_secs(1)), None);
        assert_eq!(w.pop_expired(SimTime::from_secs(2)), Some(7));
    }

    #[test]
    fn cancellation_is_lazy_but_effective() {
        let mut w = TimerWheel::new();
        let a = w.arm(SimTime::from_secs(1), 1);
        w.arm(SimTime::from_secs(2), 2);
        w.cancel(a);
        assert_eq!(w.len(), 2, "cancelled entry collected lazily");
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(2)));
        assert_eq!(w.pop_expired(SimTime::from_secs(9)), Some(2));
        assert!(w.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut w = TimerWheel::new();
        let a = w.arm(SimTime::from_secs(1), 1);
        assert_eq!(w.pop_expired(SimTime::from_secs(1)), Some(1));
        w.cancel(a);
        w.arm(SimTime::from_secs(2), 2);
        assert_eq!(w.pop_expired(SimTime::from_secs(3)), Some(2));
    }

    #[test]
    fn churn_does_not_grow_tombstones_unboundedly() {
        let mut w = TimerWheel::new();
        // Arm-fire-cancel churn: every cancel lands after its timer fired,
        // so pure lazy collection would never reclaim a single tombstone.
        for i in 0..10_000u64 {
            let id = w.arm(SimTime::from_secs(i), i);
            assert_eq!(w.pop_expired(SimTime::from_secs(i)), Some(i));
            w.cancel(id);
        }
        assert!(w.pending_cancels() <= 128, "tombstones reclaimed: {}", w.pending_cancels());
        assert!(w.is_empty());
    }

    #[test]
    fn compaction_preserves_live_timers() {
        let mut w = TimerWheel::new();
        let keep = w.arm(SimTime::from_secs(500), 999);
        let mut dead = Vec::new();
        for i in 0..200u64 {
            dead.push(w.arm(SimTime::from_secs(i), i));
        }
        for id in dead {
            w.cancel(id);
        }
        // Compaction keeps tombstones under the 64-entry floor rather than
        // chasing zero; the point is the heap no longer holds all 200.
        assert!(w.pending_cancels() <= 64, "tombstones: {}", w.pending_cancels());
        assert!(w.len() <= 1 + 2 * 64, "heap bounded: {}", w.len());
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(500)));
        assert_eq!(w.pop_expired(SimTime::from_secs(500)), Some(999));
        w.cancel(keep);
        assert!(w.is_empty());
    }
}
