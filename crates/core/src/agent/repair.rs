//! The repair side of §III-B: a holder that hears a request draws a repair
//! timer from `[D1·d, (D1+D2)·d]`, another member's repair cancels it, and
//! sending or hearing a repair starts the hold-down ("host B ignores
//! requests for data for 3·d_SB seconds after sending or receiving a repair
//! for that data"). An episode ends with its hold-down.

use super::outbox::recovery_class;
use super::{live_params, local::repair_opts, sample_delay, Purpose, SrmAgent};
use crate::{adaptive::AdaptiveTimers, clock::DistanceEstimator, driver::Driver, observe::adu_key};
use crate::config::{RecoveryScope, HOLD_DOWN, WB159_REPAIR_OTHER, WB159_REPAIR_SOURCE};
use crate::name::{AduName, SourceId};
use crate::recovery::{RepairState, RequestScope};
use crate::wire::{Body, DataBody, Header, RequestBody};
use netsim::{Packet, SimTime};
use std::collections::btree_map::Entry;

impl SrmAgent {
    /// Forget `name`'s episode if nothing is left to happen in it. What a
    /// forgotten episode is still read for — a repair heard later counts as
    /// a duplicate for the adaptive D1/D2 if this member ever set a repair
    /// timer for the name — survives as the store's mark bit.
    pub(super) fn retire_if_finished(&mut self, name: AduName, now: SimTime) {
        if let Entry::Occupied(e) = self.episodes.entry(name) {
            if e.get().finished(now) {
                let ep = e.remove();
                if ep.repair.is_some() && self.adaptive.is_some() {
                    self.store.mark(&name);
                }
            }
        }
    }

    /// Retire the episodes whose hold-down has run out. Every episode that
    /// is not waiting on a timer of its own has an entry in `hold_downs`, so
    /// looking at the front is enough; an entry behind a later deadline
    /// waits for it, which delays the forgetting and changes nothing else.
    /// Arms no timer and draws no randomness.
    pub(super) fn retire_expired(&mut self, now: SimTime) {
        while let Some(&(until, name)) = self.hold_downs.front() {
            if now < until {
                break;
            }
            self.hold_downs.pop_front();
            self.retire_if_finished(name, now);
        }
    }

    pub(super) fn handle_request(&mut self, ctx: &mut dyn Driver, pkt: &Packet, hdr: &Header, r: &RequestBody) {
        self.metrics.requests_received += 1;
        let name = r.name;
        if self.suppress_or_backoff(ctx, name, hdr.sender, r.dist_to_source) {
            return;
        }
        if self.store.has(&name) {
            self.maybe_schedule_repair(ctx, name, pkt, hdr.sender);
        } else if name.source != self.id {
            // We learn from the request that this data exists: start our own
            // recovery, immediately suppressed by the request just heard.
            let missing = self.store.note_exists(name.source, name.page, name.seq);
            self.start_requests(ctx, missing);
            self.suppress_or_backoff(ctx, name, hdr.sender, r.dist_to_source);
        }
    }

    fn maybe_schedule_repair(&mut self, ctx: &mut dyn Driver, name: AduName, pkt: &Packet, sender: SourceId) {
        let ep = self.episodes.entry(name).or_default();
        // Hold-down: "host B ignores requests for data for 3·d_SB seconds
        // after sending or receiving a repair for that data."
        if ep.held_down(ctx.now()) {
            self.metrics.requests_held_down += 1;
            self.obs
                .record(ctx.now(), adu_key(name), obs::EventKind::RequestHeldDown);
            return;
        }
        if ep.repair_pending() {
            // A repair timer is already pending; duplicate requests must not
            // trigger duplicate repairs. Pending means the timer is armed:
            // a state left behind by someone else's repair (`sent` false,
            // timer cancelled) must not silence this holder for good.
            return;
        }
        // wb 1.59 mode: [d, 2d] with d = 100 ms at the original source,
        // 200 ms elsewhere; framework mode: [D1·d, (D1+D2)·d].
        let (d1, d2, dist) = if self.cfg.wb159 {
            let own = name.source == self.id;
            (1.0, 1.0, if own { WB159_REPAIR_SOURCE } else { WB159_REPAIR_OTHER })
        } else {
            let p = live_params(&self.adaptive, &self.cfg);
            (p.d1, p.d2, self.est.distance_to(sender))
        };
        // Answer the way the request came: its TTL and scope, on whatever
        // group it arrived on (session group or a local-recovery group).
        let scope = RequestScope {
            ttl: pkt.initial_ttl,
            admin_scoped: pkt.admin_scoped,
            group: pkt.group,
        };
        let (mut st, delay) =
            RepairState::new(name, ctx.now(), sender, scope, d1, d2, dist, ctx.rng());
        if let Some(a) = self.adaptive.as_mut() {
            a.on_repair_timer_set(name);
        }
        st.timer = Some(self.timers.arm(ctx, delay, Purpose::Repair(name)));
        self.obs.record(
            ctx.now(),
            adu_key(name),
            obs::EventKind::RepairTimerSet {
                until: st.expire_at,
            },
        );
        self.metrics.note_repair(&st);
        ep.repair = Some(st);
    }

    /// The repair timer for `name` fired: send the repair and enter the
    /// hold-down. Like the request side, one lookup held across the send.
    pub(super) fn repair_timer_fired(&mut self, ctx: &mut dyn Driver, name: AduName) {
        let Some(ep) = self.episodes.get_mut(&name) else {
            return;
        };
        let Some(st) = ep.repair.as_mut() else {
            return;
        };
        st.timer = None;
        // Read through the cache: an ADU evicted from RAM but durable in
        // the log is still served (disk-backed repair).
        let disk_before = self.store.disk_fetches();
        let Some(payload) = self.store.fetch(&name) else {
            // Evicted since the request arrived, and not durable: there is
            // no repair to send and none to remember.
            ep.repair = None;
            self.retire_if_finished(name, ctx.now());
            return;
        };
        if self.store.disk_fetches() > disk_before {
            self.transport_obs
                .record(ctx.now(), obs::TransportEventKind::StoreDiskRepair);
        }
        let first = st.first_repair_event_at.is_none();
        st.on_timer_expired(ctx.now());
        let on_delay = AdaptiveTimers::on_repair_delay;
        sample_delay(&mut self.adaptive, first, st.repair_delay(), st.dist_to_requestor, on_delay);
        self.metrics.note_repair(st);
        let two_step = matches!(self.cfg.scope, RecoveryScope::Ttl(_));
        let body = Body::Data(DataBody {
            name,
            is_repair: true,
            answering: two_step.then_some(st.requestor),
            dist_to_requestor: st.dist_to_requestor.as_secs_f64(),
            payload,
        });
        let opts = repair_opts(&self.cfg, st.scope);
        let class = recovery_class(self.current_page, name.page);
        self.outbox.transmit_to(ctx, &mut self.timers, st.scope.group, body, class, opts);
        self.metrics.repairs_sent += 1;
        self.obs
            .record(ctx.now(), adu_key(name), obs::EventKind::RepairSent);
        if let Some(a) = self.adaptive.as_mut() {
            a.on_repair_sent();
        }
        let until = hold_down_end(&self.est, ctx.now(), name);
        self.obs
            .record(ctx.now(), adu_key(name), obs::EventKind::HoldDownEntered { until });
        ep.hold_down_until = until;
        self.hold_downs.push_back((until, name));
    }

    /// A repair for `name` arrived: repair suppression, duplicate
    /// accounting, and the hold-down it starts — one lookup for all three.
    pub(super) fn repair_heard(&mut self, ctx: &mut dyn Driver, name: AduName, from: SourceId) {
        let until = hold_down_end(&self.est, ctx.now(), name);
        let ep = self.episodes.entry(name).or_default();
        if let Some(st) = ep.repair.as_mut() {
            self.obs.record(
                ctx.now(),
                adu_key(name),
                obs::EventKind::RepairHeard { from: from.0 },
            );
            let first = st.first_repair_event_at.is_none();
            st.on_repair_heard(ctx.now());
            let on_delay = AdaptiveTimers::on_repair_delay;
            sample_delay(&mut self.adaptive, first, st.repair_delay(), st.dist_to_requestor, on_delay);
            if st.repairs_observed > 1 {
                if let Some(a) = self.adaptive.as_mut() {
                    a.on_duplicate_repair();
                }
            }
            if let Some(h) = st.timer.take() {
                self.timers.disarm(ctx, Some(h));
                self.obs.record(
                    ctx.now(),
                    adu_key(name),
                    obs::EventKind::RepairTimerCancelled,
                );
            }
            self.metrics.note_repair(st);
        } else if let Some(a) = self.adaptive.as_mut() {
            // The repair side of an episode already retired: it had seen
            // its own repair go out or another's come in, so this one is a
            // duplicate.
            if self.store.marked(&name) {
                a.on_duplicate_repair();
            }
        }
        self.obs
            .record(ctx.now(), adu_key(name), obs::EventKind::HoldDownEntered { until });
        ep.hold_down_until = until;
        self.hold_downs.push_back((until, name));
    }
}

/// When a hold-down for `name` entered at `now` ends.
fn hold_down_end(est: &DistanceEstimator, now: SimTime, name: AduName) -> SimTime {
    now + est.distance_to(name.source).mul_f64(HOLD_DOWN)
}
