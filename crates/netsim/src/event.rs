//! The deterministic event queue.
//!
//! Events pop in `(time, sequence)` order: events scheduled for the same
//! instant fire in the order they were scheduled, so a simulation is a pure
//! function of its inputs and seed.
//!
//! Most events are packet hops one link delay ahead of `now`, and when the
//! links have equal delays they are scheduled in the order they fire. A hop
//! no earlier than the last one queued goes to a FIFO lane, sorted by
//! construction; everything else goes to a binary min-heap, and `pop` takes
//! the smaller of the two fronts. Both hold `(time, sequence)`-sorted
//! entries, so the pop order is exactly that of one heap holding them all.

use crate::packet::Packet;
use crate::time::SimTime;
use crate::topology::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Handle for a scheduled timer, usable to cancel it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// A packet arrives at `node`: across a link, or at its origin when it
    /// is just sent into the forwarding engine.
    Hop {
        /// Receiving node.
        node: NodeId,
        /// The packet.
        pkt: Packet,
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

#[derive(Debug)]
struct Entry {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

// Order by (time, seq) only; EventKind does not participate.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Time-ordered, insertion-stable event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Hops scheduled no earlier than the lane's back: sorted, because
    /// sequence numbers only grow.
    lane: VecDeque<Entry>,
    next_seq: u64,
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, kind };
        let in_order = self.lane.back().is_none_or(|b| b.at <= at);
        if in_order && matches!(entry.kind, EventKind::Hop { .. }) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(Reverse(entry));
        }
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        let lane_first = self
            .lane
            .front()
            .is_some_and(|l| self.heap.peek().is_none_or(|Reverse(h)| l < h));
        let e = if lane_first {
            self.lane.pop_front()
        } else {
            self.heap.pop().map(|Reverse(e)| e)
        };
        e.map(|e| (e.at, e.kind))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane.front().map(|e| e.at);
        let heap = self.heap.peek().map(|Reverse(e)| e.at);
        lane.into_iter().chain(heap).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{GroupId, PacketBody, PacketId};
    use crate::time::SimDuration;
    use proptest::prelude::*;

    fn timer(node: u32, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            id: TimerId(token),
            token,
        }
    }

    fn hop(id: u64) -> EventKind {
        let body = PacketBody {
            id: PacketId(id),
            src: NodeId(0),
            group: GroupId(0),
            dest: None,
            initial_ttl: 1,
            admin_scoped: false,
            flow: 0,
            size: 0,
            payload: bytes::Bytes::new(),
        };
        EventKind::Hop {
            node: NodeId(0),
            pkt: Packet::new(1, body),
        }
    }

    /// The id `hop` or `timer` gave an event.
    fn id_of(kind: &EventKind) -> u64 {
        match kind {
            EventKind::Hop { pkt, .. } => pkt.id.0,
            EventKind::Timer { token, .. } => *token,
            EventKind::Fault { .. } => unreachable!(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `schedule` and `pop` under a monotone
        /// `now`: hops at `now + d` (d = 0, 1 s, 2 s or jittered) and
        /// timers at random times pop, peek and count exactly as one
        /// `BinaryHeap` of `(time, sequence)` does.
        #[test]
        fn lane_and_heap_pop_in_single_heap_order(
            ops in prop::collection::vec((0u8..8, 0u64..5_000_000_000), 0..400),
        ) {
            let mut q = EventQueue::new();
            let mut reference = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            let mut next_id = 0u64;
            for (op, x) in ops.into_iter().chain((0..400).map(|_| (0, 0))) {
                let at = match op {
                    0..=2 => None,
                    3 => Some(now),
                    4 => Some(now + SimDuration::from_secs(1)),
                    5 => Some(now + SimDuration::from_secs(2)),
                    6 => Some(SimTime::from_nanos(now.as_nanos() + 1_000_000_000 + x % 1_000_000_000)),
                    _ => Some(SimTime::from_nanos(now.as_nanos() + x)),
                };
                match at {
                    Some(at) => {
                        let id = next_id;
                        next_id += 1;
                        q.schedule(at, if op == 7 { timer(0, id) } else { hop(id) });
                        reference.push(Reverse((at, id)));
                    }
                    None => {
                        let got = q.pop().map(|(at, kind)| (at, id_of(&kind)));
                        let want = reference.pop().map(|Reverse(e)| e);
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            prop_assert!(at >= now, "time went backwards");
                            now = at;
                        }
                    }
                }
                prop_assert_eq!(q.peek_time(), reference.peek().map(|Reverse((at, _))| *at));
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn monotone_hops_take_the_lane_and_the_rest_the_heap() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), hop(0));
        q.schedule(SimTime::from_secs(2), hop(1));
        q.schedule(SimTime::from_secs(1), hop(2)); // behind the lane's back
        q.schedule(SimTime::from_secs(3), timer(0, 3));
        assert_eq!((q.lane.len(), q.heap.len()), (2, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, k)| id_of(&k)).collect();
        assert_eq!(order, [0, 2, 1, 3]);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), timer(0, 3));
        q.schedule(SimTime::from_secs(1), timer(0, 1));
        q.schedule(SimTime::from_secs(2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_secs(5), timer(0, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_secs(9), timer(0, 0));
        q.schedule(SimTime::from_secs(4), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9)));
    }
}
