//! The send path (§III-E): every outbound message is encoded here, and
//! under a rate limit it waits in the three-class priority queue until the
//! token bucket can pay for it.
//!
//! The outbox owns its own state and borrows only the agent's [`Timers`]
//! (for the rate-gate wake-up), so a handler can hold its episode across a
//! send.

use super::{Purpose, Timers};
use crate::{bandwidth::RateMeter, config::RateLimit, driver::Driver, rate::TokenBucket};
use crate::name::{PageId, SourceId};
use crate::recovery::TimerHandle;
use crate::sendq::{PendingSend, SendClass, SendQueue};
use crate::wire::{Body, Header, Message};
use bytes::Bytes;
use netsim::{flow, GroupId, SendOptions, SimDuration};

/// The agent's send queue, token bucket and encode buffer.
pub(super) struct Outbox {
    /// The agent's Source-ID, stamped on every header.
    sender: SourceId,
    bucket: Option<TokenBucket>,
    sendq: SendQueue,
    /// Armed while the queue's head waits for tokens.
    pub(super) rate_gate: Option<TimerHandle>,
    /// Passive meter over data/repair bytes seen (sent + received), for
    /// §III-A's "measured adaptively" session bandwidth.
    pub(super) data_meter: RateMeter,
    /// Reused encode buffer: every outbound message is serialized here and
    /// then copied once into its on-wire [`Bytes`], so steady-state sending
    /// costs one allocation (the shared payload) instead of two.
    scratch: Vec<u8>,
}

impl Outbox {
    pub(super) fn new(sender: SourceId, rate_limit: Option<RateLimit>) -> Self {
        Outbox {
            sender,
            bucket: rate_limit.map(TokenBucket::new),
            sendq: SendQueue::new(),
            rate_gate: None,
            data_meter: RateMeter::new(SimDuration::from_secs(30)),
            scratch: Vec::new(),
        }
    }

    /// Encode and multicast a message immediately; returns the encoded
    /// on-wire byte length.
    pub(super) fn send_now(&mut self, ctx: &mut dyn Driver, group: GroupId, body: Body, opts: SendOptions) -> u32 {
        let msg = Message {
            header: Header {
                sender: self.sender,
                // The node's local clock, so clock skew/drift faults are
                // visible to peers' distance estimators just as NTP error
                // would be (identical to the driver's now when unfaulted).
                timestamp: ctx.local_now(),
            },
            body,
        };
        // Serialize into the scratch buffer (retained across sends), then
        // copy once into the shared on-wire allocation.
        self.scratch.clear();
        msg.encode_into(&mut self.scratch);
        let payload = Bytes::copy_from_slice(&self.scratch);
        let wire_len = payload.len() as u32;
        ctx.multicast(group, payload, opts);
        wire_len
    }

    pub(super) fn transmit_to(
        &mut self,
        ctx: &mut dyn Driver,
        timers: &mut Timers,
        group: GroupId,
        body: Body,
        class: SendClass,
        opts: SendOptions,
    ) {
        let size = estimate_size(&body);
        // Outbound data/repair/parity traffic counts toward the measured
        // aggregate data bandwidth (§III-A).
        if matches!(opts.flow, flow::DATA | flow::REPAIR | flow::PARITY) {
            self.data_meter.record(ctx.now(), size as u64);
        }
        if self.bucket.is_none() {
            self.send_now(ctx, group, body, opts);
            return;
        }
        self.sendq.push(
            class,
            PendingSend {
                group,
                body,
                opts,
                size,
            },
        );
        self.drain_sendq(ctx, timers);
    }

    pub(super) fn drain_sendq(&mut self, ctx: &mut dyn Driver, timers: &mut Timers) {
        while let Some(size) = self.sendq.peek_size() {
            let bucket = self.bucket.as_mut().expect("drain only with a bucket");
            if bucket.try_consume(ctx.now(), size as f64) {
                let m = self.sendq.pop().expect("peeked");
                self.send_now(ctx, m.group, m.body, m.opts);
            } else {
                if self.rate_gate.is_none() {
                    // Floor the wait at 1 ms so rounding can never produce
                    // a zero-length (livelocking) gate timer.
                    let wait = bucket
                        .time_until_available(ctx.now(), size as f64)
                        .max(SimDuration::from_millis(1));
                    let h = timers.arm(ctx, wait, Purpose::RateGate);
                    self.rate_gate = Some(h);
                }
                break;
            }
        }
    }
}

/// Send class for recovery traffic about `page` while the member views
/// `current_page` (Section III-E priorities).
pub(super) fn recovery_class(current_page: PageId, page: PageId) -> SendClass {
    if page == current_page {
        SendClass::CurrentPageRecovery
    } else {
        SendClass::OldPageRecovery
    }
}

/// Rough byte size of a body for rate-limiter accounting.
fn estimate_size(body: &Body) -> u32 {
    let base = 17u32; // header + tag
    match body {
        Body::Data(d) => base + 38 + d.payload.len() as u32,
        Body::Request(_) => base + 36,
        Body::Session(s) => {
            base + 24
                + 16 * s.state.len() as u32
                + 24 * s.echoes.len() as u32
                + 28 * s.loss_fingerprint.len() as u32
        }
        Body::PageRequest(_) => base + 12,
        Body::Parity(p) => base + 29 + p.xor_payload.len() as u32,
        Body::RecoveryInvite(_) => base + 4,
        Body::PageCatalogRequest => base,
        Body::PageCatalog(pages) => base + 4 + 12 * pages.len() as u32,
    }
}
