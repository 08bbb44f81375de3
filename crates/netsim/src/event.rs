//! The deterministic deadline queue, and the simulator's events on it.
//!
//! [`DeadlineQueue`] pops in `(time, sequence)` order: entries due at the
//! same instant pop in the order they were pushed, so a simulation is a
//! pure function of its inputs and seed. It is the workspace's one deadline
//! queue: the simulator's [`EventQueue`], the live host's timer wheel and
//! the live chaos hold-back queue are instances of it.
//!
//! Most entries come due no earlier than everything already queued: a
//! flood's copies one link delay ahead of `now` when the links have equal
//! delays, or a frame held back for a constant delay.
//! [`DeadlineQueue::push_fifo`] puts such an entry on a FIFO lane, sorted
//! by construction; [`DeadlineQueue::push`] and an out-of-order
//! `push_fifo` go to a binary min-heap, and `pop` takes the smaller of the
//! two fronts. Both hold `(time, sequence)`-sorted entries, so the pop
//! order is exactly that of one heap holding them all.
//!
//! The simulator queues a flood one arrival instant at a time: one
//! [`EventKind::Hop`] entry carries every copy of one transmission that
//! arrives at one instant, listed in the order one entry per copy would
//! pop in. How the simulator keeps that order exact is told at
//! [`crate::Simulator::step`].
//!
//! Timers are cancelled by one rule, in the simulator and on the live host
//! alike: the owner keeps a [`TimerMap`] of the timers set and neither
//! fired nor cancelled; cancelling removes the id, and a timer popped off
//! the queue fires only if its id is still in the map.

use crate::packet::Packet;
use crate::time::SimTime;
use crate::topology::NodeId;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Handle for a scheduled timer, usable to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// Hasher for [`TimerId`] keys: their owner hands the ids out itself, one
/// after the other, so one multiply spreads them and there is no outside
/// input to defend against.
#[derive(Default)]
pub struct TimerIdHasher(u64);

impl Hasher for TimerIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a TimerId hashes as one u64");
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The live timers of one owner, with what each needs when it fires.
pub type TimerMap<V> = HashMap<TimerId, V, BuildHasherDefault<TimerIdHasher>>;

/// One queued entry: due at `at`, pushed as the `seq`-th.
#[derive(Debug)]
pub struct Deadline<T> {
    /// When the entry comes due.
    pub at: SimTime,
    /// Push order, from 0: the tiebreak between entries due at one time.
    pub seq: u64,
    /// The payload.
    pub item: T,
}

// Order by (time, seq) only; the item does not participate.
impl<T> PartialEq for Deadline<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Deadline<T> {}
impl<T> PartialOrd for Deadline<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Deadline<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Time-ordered, insertion-stable queue: a binary heap plus a FIFO lane.
#[derive(Debug)]
pub struct DeadlineQueue<T> {
    heap: BinaryHeap<Reverse<Deadline<T>>>,
    /// Entries pushed no earlier than the lane's back: sorted, because
    /// sequence numbers only grow.
    lane: VecDeque<Deadline<T>>,
    next_seq: u64,
}

impl<T> Default for DeadlineQueue<T> {
    fn default() -> Self {
        DeadlineQueue { heap: BinaryHeap::new(), lane: VecDeque::new(), next_seq: 0 }
    }
}

impl<T> DeadlineQueue<T> {
    /// Queue `item` for `at` on the heap; returns its sequence number.
    pub fn push(&mut self, at: SimTime, item: T) -> u64 {
        self.insert(at, item, false)
    }

    /// Queue `item` for `at` on the lane when `at` is no earlier than the
    /// lane's back, else on the heap; returns its sequence number. For
    /// entries that mostly come due in the order they are pushed.
    pub fn push_fifo(&mut self, at: SimTime, item: T) -> u64 {
        self.insert(at, item, true)
    }

    fn insert(&mut self, at: SimTime, item: T, fifo: bool) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let e = Deadline { at, seq, item };
        if fifo && self.lane.back().is_none_or(|b| b.at <= at) {
            self.lane.push_back(e);
        } else {
            self.heap.push(Reverse(e));
        }
        seq
    }

    /// The earliest entry.
    pub fn peek(&self) -> Option<&Deadline<T>> {
        self.lane.front().into_iter().chain(self.heap.peek().map(|Reverse(h)| h)).min()
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<Deadline<T>> {
        let lane_first = self
            .lane
            .front()
            .is_some_and(|l| self.heap.peek().is_none_or(|Reverse(h)| l < h));
        if lane_first {
            self.lane.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// Remove and return the earliest entry if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Deadline<T>> {
        if self.peek()?.at > now {
            return None;
        }
        self.pop()
    }

    /// Keep only the entries `keep` accepts; the pop order of the rest is
    /// unchanged.
    pub fn retain(&mut self, mut keep: impl FnMut(&Deadline<T>) -> bool) {
        self.heap.retain(|Reverse(e)| keep(e));
        self.lane.retain(|e| keep(e));
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }
}

/// Copies of one transmission arriving at one instant: each one's
/// receiving node and TTL on arrival.
pub type Arrivals = Vec<(NodeId, u8)>;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// Copies of one transmission arrive, all at this entry's instant:
    /// across links, or at the origin when the packet is just sent into the
    /// forwarding engine (a batch of one). The copies are handled in list
    /// order, which is the order one entry per copy would pop in.
    Hop {
        /// The transmission; its `ttl` is set to each copy's in turn.
        pkt: Packet,
        /// Each copy's receiving node and TTL on arrival.
        to: Arrivals,
    },
    /// A timer set by the application on `node` fires.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Cancellation handle.
        id: TimerId,
        /// Application-interpreted token.
        token: u64,
    },
    /// A scripted fault from the installed [`crate::FaultPlan`] takes
    /// effect (`index` into the plan's event list).
    Fault {
        /// Position in the fault plan.
        index: usize,
    },
}

/// The simulator's events. Arrival batches go in with `push_fifo`: with
/// unit link delays a round's floods are scheduled in the order they fire.
/// Timers and faults go in with `push`: a timer at `now` plus a random
/// backoff on the lane's back would push every later batch off it.
pub type EventQueue = DeadlineQueue<EventKind>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn drain<T>(q: &mut DeadlineQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop()).map(|e| e.item).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `push_fifo`, `push`, `pop` and `retain`
        /// under a monotone `now`: FIFO pushes at `now + d` (d = 0, 1 s,
        /// 2 s or jittered) and heap pushes at random times pop, peek and
        /// count exactly as one `BinaryHeap` of `(time, sequence)` does,
        /// and `retain` drops the same entries from both.
        #[test]
        fn lane_and_heap_pop_in_single_heap_order(
            ops in prop::collection::vec((0u8..9, 0u64..5_000_000_000), 0..400),
        ) {
            let mut q = DeadlineQueue::default();
            let mut reference = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            for (op, x) in ops.into_iter().chain((0..400).map(|_| (0, 0))) {
                let at = match op {
                    0..=2 | 8 => None,
                    3 => Some(now),
                    4 => Some(now + SimDuration::from_secs(1)),
                    5 => Some(now + SimDuration::from_secs(2)),
                    6 => Some(SimTime::from_nanos(now.as_nanos() + 1_000_000_000 + x % 1_000_000_000)),
                    _ => Some(SimTime::from_nanos(now.as_nanos() + x)),
                };
                match at {
                    Some(at) => {
                        let seq = if op == 7 { q.push(at, x) } else { q.push_fifo(at, x) };
                        reference.push(Reverse((at, seq, x)));
                    }
                    None if op == 8 => {
                        q.retain(|e| e.seq % 3 != x % 3);
                        reference.retain(|Reverse((_, seq, _))| seq % 3 != x % 3);
                    }
                    None => {
                        let got = q.pop().map(|e| (e.at, e.seq, e.item));
                        let want = reference.pop().map(|Reverse(e)| e);
                        prop_assert_eq!(got, want);
                        if let Some((at, _, _)) = got {
                            prop_assert!(at >= now, "time went backwards");
                            now = at;
                        }
                    }
                }
                prop_assert_eq!(
                    q.peek().map(|e| (e.at, e.seq)),
                    reference.peek().map(|Reverse((at, seq, _))| (*at, *seq))
                );
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn monotone_hops_take_the_lane_and_the_rest_the_heap() {
        let mut q = DeadlineQueue::default();
        q.push_fifo(SimTime::from_secs(1), 0);
        q.push_fifo(SimTime::from_secs(2), 1);
        q.push_fifo(SimTime::from_secs(1), 2); // behind the lane's back
        q.push(SimTime::from_secs(3), 3);
        assert_eq!((q.lane.len(), q.heap.len()), (2, 2));
        assert_eq!(drain(&mut q), [0, 2, 1, 3]);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = DeadlineQueue::default();
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = DeadlineQueue::default();
        for i in 0..10 {
            q.push(SimTime::from_secs(5), i);
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = DeadlineQueue::default();
        assert!(q.peek().is_none());
        q.push(SimTime::from_secs(9), 0);
        q.push(SimTime::from_secs(4), 1);
        assert_eq!(q.peek().map(|e| e.at), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek().map(|e| e.at), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn pop_due_leaves_what_is_not_due() {
        let mut q = DeadlineQueue::default();
        q.push_fifo(SimTime::from_secs(2), 'a');
        assert!(q.pop_due(SimTime::from_secs(1)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(SimTime::from_secs(2)).map(|e| e.item), Some('a'));
        assert!(q.pop_due(SimTime::MAX).is_none());
    }
}
