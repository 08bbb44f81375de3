//! Packets: the unit of transmission.
//!
//! The simulator treats payloads as opaque [`bytes::Bytes`] — the protocol
//! above (SRM) defines its own wire format, in keeping with the ALF
//! principle that framing belongs to the application. The header carries
//! exactly what an IP multicast datagram would: source, destination group,
//! TTL (plus the paper's "initial TTL in a separate packet field" extension
//! from Section VII-B3), an administrative-scope flag, and a size used for
//! bandwidth accounting. A `flow` label distinguishes traffic classes for
//! loss models and statistics without peeking into the payload.
//!
//! Decoding stays the application's job too, but one transmission reaches
//! many receivers, so [`Packet::decoded`] lets them share it: the first
//! receiver to ask decodes the payload, and every copy of the packet keeps
//! the result.

use crate::topology::NodeId;
use bytes::Bytes;
use std::any::Any;
use std::cell::OnceCell;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// Multicast group address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// Application-assigned traffic class, used by loss models and statistics.
///
/// These are conventions, not enforced by the simulator.
pub mod flow {
    /// Original application data.
    pub const DATA: u32 = 0;
    /// Repair-request control traffic.
    pub const REQUEST: u32 = 1;
    /// Retransmitted data (repairs).
    pub const REPAIR: u32 = 2;
    /// Periodic session messages.
    pub const SESSION: u32 = 3;
    /// Proactive FEC parity packets.
    pub const PARITY: u32 = 4;
}

/// Unique id assigned to every transmission, for tracing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId(pub u64);

/// Unlimited scope / default TTL for a global multicast.
pub const TTL_GLOBAL: u8 = 255;

/// The immutable part of a packet, shared by every in-flight copy.
///
/// Fan-out duplicates a packet once per tree hop and once per receiver;
/// everything except the TTL is identical across those copies, so it lives
/// here behind one [`Rc`] and duplication clones only the handle. `Rc`
/// (not `Arc`) is deliberate: packets never cross threads — the simulator
/// is single-threaded and the wall-clock transport constructs and consumes
/// its packets inside one reactor thread.
#[derive(Debug)]
pub struct PacketBody {
    /// Unique transmission id.
    pub id: PacketId,
    /// The node that transmitted this packet (root of its distribution tree).
    pub src: NodeId,
    /// Destination multicast group.
    pub group: GroupId,
    /// Unicast destination; `None` for multicast (the normal case). Set by
    /// [`crate::sim::Ctx::unicast`], used by the sender-based baseline
    /// protocols the paper argues against (Section II-A).
    pub dest: Option<NodeId>,
    /// The TTL the packet was originally sent with (carried in the packet so
    /// receivers can compute the hop count, per Section VII-B3).
    pub initial_ttl: u8,
    /// If true, the packet is administratively scoped and is never forwarded
    /// across a zone boundary (Section VII-B1).
    pub admin_scoped: bool,
    /// Traffic class (see [`flow`]).
    pub flow: u32,
    /// Size in bytes, for bandwidth accounting.
    pub size: u32,
    /// Opaque application payload.
    pub payload: Bytes,
}

/// What every copy of one transmission shares: the body, and the slot
/// [`Packet::decoded`] fills once.
struct Shared {
    body: PacketBody,
    decoded: OnceCell<Box<dyn Any>>,
}

/// A packet in flight: the per-copy mutable header (just the remaining
/// TTL) plus a shared handle to the immutable [`PacketBody`] and its
/// decode slot.
///
/// Derefs to [`PacketBody`], so field reads (`pkt.src`, `pkt.payload`, …)
/// look exactly like they did when `Packet` was one flat struct. Cloning
/// is a reference-count bump plus one byte.
#[derive(Clone)]
pub struct Packet {
    /// Remaining time-to-live; decremented at every hop.
    pub ttl: u8,
    shared: Rc<Shared>,
}

impl Deref for Packet {
    type Target = PacketBody;

    #[inline]
    fn deref(&self) -> &PacketBody {
        &self.shared.body
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("ttl", &self.ttl)
            .field("body", &self.shared.body)
            .finish()
    }
}

impl Packet {
    /// Wrap `body` for transmission with `ttl` hops remaining.
    pub fn new(ttl: u8, body: PacketBody) -> Packet {
        Packet {
            ttl,
            shared: Rc::new(Shared {
                body,
                decoded: OnceCell::new(),
            }),
        }
    }

    /// The copy placed on the next link: same body, TTL one lower.
    #[inline]
    pub fn forwarded(&self) -> Packet {
        Packet {
            ttl: self.ttl - 1,
            shared: Rc::clone(&self.shared),
        }
    }

    /// Do two packets share one body allocation? (Diagnostics/tests.)
    pub fn shares_body(&self, other: &Packet) -> bool {
        Rc::ptr_eq(&self.shared, &other.shared)
    }

    /// The payload decoded by `f`, computed at most once per transmission
    /// and shared by every copy of it: the first caller fills the slot and
    /// every later one, at any receiver, reads it.
    ///
    /// `f` sees only the payload, never the per-copy TTL, so what it
    /// caches cannot depend on which copy asked first. The slot holds one
    /// type, the first one asked for; asking for another gives `None` (and
    /// does not call `f`), and the caller decodes the payload itself.
    pub fn decoded<T: 'static>(&self, f: impl FnOnce(&Bytes) -> T) -> Option<&T> {
        self.shared
            .decoded
            .get_or_init(|| Box::new(f(&self.shared.body.payload)))
            .downcast_ref()
    }

    /// Hops traversed so far, derived from the carried initial TTL.
    pub fn hops_traveled(&self) -> u8 {
        self.initial_ttl - self.ttl
    }
}

/// Parameters for a multicast send, passed to
/// [`crate::sim::Ctx::multicast_with`].
#[derive(Clone, Debug)]
pub struct SendOptions {
    /// Initial TTL (default [`TTL_GLOBAL`]).
    pub ttl: u8,
    /// Administrative scoping (default off).
    pub admin_scoped: bool,
    /// Traffic class (default [`flow::DATA`]).
    pub flow: u32,
    /// Size in bytes for accounting; if 0, the payload length is used.
    pub size: u32,
}

impl Default for SendOptions {
    fn default() -> Self {
        SendOptions {
            ttl: TTL_GLOBAL,
            admin_scoped: false,
            flow: flow::DATA,
            size: 0,
        }
    }
}

impl SendOptions {
    /// Options for a traffic class with global scope.
    pub fn for_flow(flow: u32) -> Self {
        SendOptions {
            flow,
            ..Default::default()
        }
    }

    /// Restrict the send to `ttl` hops.
    pub fn with_ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Mark the send administratively scoped.
    pub fn admin_scoped(mut self) -> Self {
        self.admin_scoped = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body() -> PacketBody {
        PacketBody {
            id: PacketId(1),
            src: NodeId(0),
            group: GroupId(0),
            dest: None,
            initial_ttl: 255,
            admin_scoped: false,
            flow: flow::DATA,
            size: 100,
            payload: Bytes::new(),
        }
    }

    #[test]
    fn hops_traveled() {
        let p = Packet::new(250, body());
        assert_eq!(p.hops_traveled(), 5);
    }

    #[test]
    fn forwarding_shares_the_body_and_decrements_ttl() {
        let p = Packet::new(250, body());
        let f = p.forwarded();
        assert_eq!(f.ttl, 249);
        assert_eq!(f.hops_traveled(), 6);
        assert!(p.shares_body(&f));
        // A separately constructed packet does not share.
        let q = Packet::new(250, body());
        assert!(!p.shares_body(&q));
    }

    #[test]
    fn copies_share_one_decode_slot() {
        let p = Packet::new(250, body());
        let calls = std::cell::Cell::new(0);
        let decode = |_: &Bytes| {
            calls.set(calls.get() + 1);
            7u32
        };
        assert_eq!(p.forwarded().forwarded().decoded(decode), Some(&7));
        let again = |_: &Bytes| -> u32 { unreachable!("decoded twice") };
        assert_eq!(p.decoded(again), Some(&7));
        assert_eq!(p.clone().decoded(again), Some(&7));
        assert_eq!(calls.get(), 1);
        // A separately constructed packet has a slot of its own.
        assert_eq!(Packet::new(250, body()).decoded(|_| 8u32), Some(&8));
    }

    #[test]
    fn the_first_type_to_fill_the_slot_wins() {
        let p = Packet::new(250, body());
        assert_eq!(p.decoded(|b| b.len()), Some(&0usize));
        assert_eq!(
            p.decoded(|_| -> u8 { unreachable!("slot already full") }),
            None
        );
        assert_eq!(p.forwarded().decoded(|_| 1usize), Some(&0usize));
    }

    #[test]
    fn send_options_builder() {
        let o = SendOptions::for_flow(flow::REQUEST).with_ttl(7).admin_scoped();
        assert_eq!(o.flow, flow::REQUEST);
        assert_eq!(o.ttl, 7);
        assert!(o.admin_scoped);
    }
}
