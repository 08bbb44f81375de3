//! Local recovery (§VII-B): how far requests and repairs travel under TTL
//! or administrative scoping, and the recovery groups a neighborhood with
//! persistent losses forms (§VII-B2). Also the FEC hooks: a parity packet
//! can reconstruct a loss before the request machinery sees it.

use super::{Purpose, SrmAgent};
use crate::{driver::Driver, local::widened_ttl, recovery::RequestScope, sendq::SendClass};
use crate::config::{RecoveryScope, SrmConfig, RECOVERY_GROUP_MIN_LOSSES};
use crate::fec::{reconstruct, Parity};
use crate::name::{AduName, PageId, SeqNo, SourceId};
use crate::timers::TimerInterval;
use crate::wire::{Body, RecoveryInviteBody};
use netsim::{flow, GroupId, SendOptions};

/// Network options for a request, applying the scope policy with
/// widening after unanswered rounds.
pub(super) fn request_opts(cfg: &SrmConfig, rounds_already_sent: u32) -> SendOptions {
    let base = SendOptions::for_flow(flow::REQUEST);
    match cfg.scope {
        RecoveryScope::Global => base,
        RecoveryScope::Ttl(initial) => base.with_ttl(widened_ttl(initial, rounds_already_sent)),
        RecoveryScope::Admin if rounds_already_sent == 0 => base.admin_scoped(),
        RecoveryScope::Admin => base, // widen to global after an unanswered round
    }
}

/// Network options for a repair answering a request that travelled as
/// `request` did.
pub(super) fn repair_opts(cfg: &SrmConfig, request: RequestScope) -> SendOptions {
    let base = SendOptions::for_flow(flow::REPAIR);
    match cfg.scope {
        RecoveryScope::Global => base,
        // Two-step first leg: "a local repair is sent with the same TTL
        // used in the request" (Section VII-B3).
        RecoveryScope::Ttl(_) => base.with_ttl(request.ttl),
        RecoveryScope::Admin if request.admin_scoped => base.admin_scoped(),
        RecoveryScope::Admin => base,
    }
}

impl SrmAgent {
    /// Group ids above this base are allocated to local-recovery groups.
    const RECOVERY_GROUP_BASE: u32 = 0x4000_0000;

    /// Section VII-B2: once losses look persistent, arm a random timer to
    /// allocate a recovery group and invite the neighborhood. The timer is
    /// suppressed by someone else's invitation — the same timer-and-damping
    /// idiom as requests, so one group forms per neighborhood instead of
    /// one per member.
    pub(super) fn maybe_create_recovery_group(&mut self, ctx: &mut dyn Driver) {
        let Some(rg) = self.cfg.recovery_groups else {
            return;
        };
        if self.recovery_group.is_some()
            || self.invite_timer.is_some()
            || self.losses_detected < RECOVERY_GROUP_MIN_LOSSES
        {
            return;
        }
        // Uniform over roughly one neighborhood diameter.
        let spread = self
            .cfg
            .default_distance
            .mul_f64(2.0 * rg.invite_ttl.max(1) as f64);
        let delay = TimerInterval {
            lo: 0.0,
            hi: spread.as_secs_f64(),
        }
        .draw(ctx.rng());
        let h = self.timers.arm(ctx, delay, Purpose::RecoveryInviteTimer);
        self.invite_timer = Some(h);
    }

    /// The (unsuppressed) invite timer fired: create the group and invite.
    pub(super) fn invite_timer_fired(&mut self, ctx: &mut dyn Driver) {
        self.invite_timer = None;
        let Some(rg) = self.cfg.recovery_groups else {
            return;
        };
        if self.recovery_group.is_some() {
            return;
        }
        let group = GroupId(Self::RECOVERY_GROUP_BASE + self.id.0 as u32);
        ctx.join(group);
        self.recovery_group = Some(group);
        self.created_recovery_group = true;
        let body = Body::RecoveryInvite(RecoveryInviteBody { group: group.0 });
        self.transmit(
            ctx,
            body,
            SendClass::CurrentPageRecovery,
            SendOptions::for_flow(flow::REQUEST).with_ttl(rg.invite_ttl),
        );
    }

    /// A scoped recovery-group invitation arrived; "nearby" members join,
    /// and any pending creation timer of our own is suppressed.
    pub(super) fn handle_recovery_invite(&mut self, ctx: &mut dyn Driver, group: u32) {
        if self.cfg.recovery_groups.is_none() {
            return;
        }
        self.timers.disarm(ctx, self.invite_timer.take());
        if self.recovery_group.is_some() {
            return;
        }
        let g = GroupId(group);
        ctx.join(g);
        self.recovery_group = Some(g);
    }

    /// The stored parity block covering `name`, if any.
    pub(super) fn parity_key_for(&self, name: &AduName) -> Option<(SourceId, PageId, u64)> {
        let lo = (name.source, name.page, 0u64);
        let hi = (name.source, name.page, name.seq.0);
        self.parities
            .range(lo..=hi)
            .next_back()
            .filter(|(&(_, _, start), p)| name.seq.0 < start + p.k as u64)
            .map(|(&k, _)| k)
    }

    /// A parity packet arrived: it both announces the block's existence
    /// (like a session message would) and may immediately reconstruct a
    /// single missing ADU.
    pub(super) fn handle_parity(&mut self, ctx: &mut dyn Driver, p: &Parity) {
        if p.source == self.id || p.k == 0 {
            return;
        }
        let last = SeqNo(p.block_start.0 + p.k as u64 - 1);
        let missing = self.store.note_exists(p.source, p.page, last);
        let key = (p.source, p.page, p.block_start.0);
        self.parities.insert(key, p.clone());
        self.try_fec(ctx, key);
        // Whatever parity could not fix goes through normal recovery
        // (`start_requests` skips the names the store now holds).
        self.start_requests(ctx, missing);
    }

    /// Attempt XOR reconstruction for a stored parity block; on success the
    /// recovered ADU is treated exactly like a received repair.
    pub(super) fn try_fec(&mut self, ctx: &mut dyn Driver, key: (SourceId, PageId, u64)) {
        let Some(p) = self.parities.get(&key).cloned() else {
            return;
        };
        let have = |seq: SeqNo| self.store.get(&AduName::new(p.source, p.page, seq));
        if let Some((seq, data)) = reconstruct(&p, &have) {
            let name = AduName::new(p.source, p.page, seq);
            self.metrics.fec_recoveries += 1;
            self.deliver(name, &data, true);
            self.complete_recovery(ctx, name, obs::RecoveryVia::Fec);
        }
        // Drop the parity once its whole block is held.
        let complete = (0..p.k as u64)
            .all(|i| self.store.has(&AduName::new(p.source, p.page, SeqNo(p.block_start.0 + i))));
        if complete {
            self.parities.remove(&key);
        }
    }
}
