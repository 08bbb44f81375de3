//! Simulation statistics and the trace's event vocabulary.
//!
//! Section V of the paper mentions "the tools that we used to verify that
//! our simulator is correctly implementing the loss recovery algorithms";
//! the simulator's trace plays that role: an [`EventLog`] of
//! [`TraceEvent`]s in which every send, forward, drop, delivery and fault
//! can be recorded and asserted on in tests.

use crate::log::EventLog;
use crate::packet::PacketId;
use crate::time::SimTime;
use crate::topology::{LinkId, NodeId};
use std::collections::BTreeMap;

/// Per-link counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Packets that crossed the link (either direction), excluding drops.
    pub packets: u64,
    /// Bytes that crossed the link.
    pub bytes: u64,
    /// Packets dropped on the link by the loss model.
    pub drops: u64,
}

/// Per-flow counters, incremented on the simulator's per-hop path.
///
/// The conventional flow classes ([`crate::packet::flow`]) are small dense
/// integers, so those live in a fixed array probed with one index; exotic
/// flow ids spill into a map without losing counts.
#[derive(Clone, Debug, Default)]
pub struct FlowCounts {
    low: [u64; Self::LOW],
    high: BTreeMap<u32, u64>,
}

impl FlowCounts {
    const LOW: usize = 8;

    #[inline]
    pub(crate) fn add(&mut self, flow: u32) {
        match self.low.get_mut(flow as usize) {
            Some(c) => *c += 1,
            None => *self.high.entry(flow).or_insert(0) += 1,
        }
    }

    /// Count for one flow.
    pub fn get(&self, flow: u32) -> u64 {
        match self.low.get(flow as usize) {
            Some(c) => *c,
            None => self.high.get(&flow).copied().unwrap_or(0),
        }
    }

    /// Sum over all flows.
    pub fn total(&self) -> u64 {
        self.low.iter().sum::<u64>() + self.high.values().sum::<u64>()
    }
}

/// Aggregate simulation statistics.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Per-link traffic.
    pub links: Vec<LinkStats>,
    /// Per-flow transmitted-packet counts (counted once per origination,
    /// not per hop).
    pub sent_by_flow: FlowCounts,
    /// Per-flow per-hop transmission counts (each link crossing counts).
    pub hops_by_flow: FlowCounts,
    /// Per-flow delivered-to-application counts.
    pub delivered_by_flow: FlowCounts,
    /// Logical events processed: one per copy of a packet arriving at a
    /// node, one per timer that comes due (fired or cancelled) and one per
    /// fault. A queue entry carrying a flood's copies for one instant
    /// counts once per copy.
    pub events: u64,
}

impl Stats {
    pub(crate) fn new(num_links: usize) -> Self {
        Stats {
            links: vec![LinkStats::default(); num_links],
            ..Default::default()
        }
    }

    pub(crate) fn record_send(&mut self, flow: u32) {
        self.sent_by_flow.add(flow);
    }

    /// Counter slot for `link`, growing the table on demand.  Fault plans
    /// can mask links out of the routing tables mid-run, and restored or
    /// late-registered links may carry ids past the size the table was
    /// created with; growing (rather than indexing blindly) keeps the
    /// counters panic-free for any `LinkId`.
    fn link_mut(&mut self, link: LinkId) -> &mut LinkStats {
        let i = link.index();
        if i >= self.links.len() {
            self.links.resize(i + 1, LinkStats::default());
        }
        &mut self.links[i]
    }

    /// Counters for `link`; zeroed stats for ids the table has never seen
    /// (e.g. a link that was fault-masked for the whole run).
    pub fn link(&self, link: LinkId) -> LinkStats {
        self.links.get(link.index()).copied().unwrap_or_default()
    }

    pub(crate) fn record_hop(&mut self, link: LinkId, flow: u32, bytes: u32) {
        let l = self.link_mut(link);
        l.packets += 1;
        l.bytes += bytes as u64;
        self.hops_by_flow.add(flow);
    }

    pub(crate) fn record_drop(&mut self, link: LinkId) {
        self.link_mut(link).drops += 1;
    }

    pub(crate) fn record_delivery(&mut self, flow: u32) {
        self.delivered_by_flow.add(flow);
    }

    /// Total packets originated, all flows.
    pub fn total_sent(&self) -> u64 {
        self.sent_by_flow.total()
    }

    /// Total link crossings, all flows — the paper's "bandwidth" proxy.
    pub fn total_hops(&self) -> u64 {
        self.hops_by_flow.total()
    }

    /// Link crossings for one flow.
    pub fn hops_for(&self, flow: u32) -> u64 {
        self.hops_by_flow.get(flow)
    }

    /// Packets originated for one flow.
    pub fn sent_for(&self, flow: u32) -> u64 {
        self.sent_by_flow.get(flow)
    }

    /// Deliveries for one flow.
    pub fn delivered_for(&self, flow: u32) -> u64 {
        self.delivered_by_flow.get(flow)
    }
}

/// One recorded simulator event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node originated a packet.
    Send {
        /// Time of origination.
        at: SimTime,
        /// Originating node.
        node: NodeId,
        /// Packet id.
        pkt: PacketId,
        /// Flow class.
        flow: u32,
    },
    /// A packet crossed a link.
    Forward {
        /// Arrival time at the far end.
        at: SimTime,
        /// Link crossed.
        link: LinkId,
        /// Sending side.
        from: NodeId,
        /// Receiving side.
        to: NodeId,
        /// Packet id.
        pkt: PacketId,
    },
    /// The loss model dropped a packet on a link.
    Drop {
        /// Time of the (attempted) transmission.
        at: SimTime,
        /// Link on which the drop occurred.
        link: LinkId,
        /// Packet id.
        pkt: PacketId,
    },
    /// A packet was handed to the application on a member node.
    Deliver {
        /// Delivery time.
        at: SimTime,
        /// Receiving member.
        node: NodeId,
        /// Packet id.
        pkt: PacketId,
        /// Flow class.
        flow: u32,
    },
    /// A scripted fault took effect.
    Fault {
        /// Time the fault applied.
        at: SimTime,
        /// Human-readable description (the fault's `Display` form).
        desc: String,
    },
}

impl EventLog<TraceEvent> {
    /// Record one simulator event. The simulator's hot path checks
    /// [`EventLog::is_enabled`] before even building the event.
    pub(crate) fn record(&mut self, e: TraceEvent) {
        self.record_with(|_| e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new(2);
        s.record_send(0);
        s.record_send(0);
        s.record_send(1);
        s.record_hop(LinkId(0), 0, 100);
        s.record_hop(LinkId(1), 1, 50);
        s.record_drop(LinkId(1));
        s.record_delivery(0);
        assert_eq!(s.total_sent(), 3);
        assert_eq!(s.sent_for(0), 2);
        assert_eq!(s.total_hops(), 2);
        assert_eq!(s.links[1].drops, 1);
        assert_eq!(s.links[0].bytes, 100);
        assert_eq!(s.delivered_for(0), 1);
        assert_eq!(s.delivered_for(9), 0);
    }

    #[test]
    fn out_of_range_link_ids_do_not_panic() {
        let mut s = Stats::new(1);
        // Reading an id the table has never seen returns zeroed stats.
        let z = s.link(LinkId(9));
        assert_eq!((z.packets, z.bytes, z.drops), (0, 0, 0));
        // Writing grows the table instead of panicking.
        s.record_hop(LinkId(5), 0, 10);
        s.record_drop(LinkId(7));
        assert_eq!(s.link(LinkId(5)).packets, 1);
        assert_eq!(s.link(LinkId(5)).bytes, 10);
        assert_eq!(s.link(LinkId(7)).drops, 1);
        // Untouched slots in between stay zeroed, and in-range behavior is
        // unchanged.
        assert_eq!(s.link(LinkId(6)).packets, 0);
        s.record_hop(LinkId(0), 0, 1);
        assert_eq!(s.link(LinkId(0)).packets, 1);
    }
}
