//! Loss detection and the request side of §III-B: a gap starts a request
//! timer drawn from `[C1·d, (C1+C2)·d]`; a request heard from another
//! member suppresses or backs it off; the data arriving ends it.

use super::{local::request_opts, outbox::recovery_class, sample_delay, Delivery, Purpose, SrmAgent};
use crate::{adaptive::AdaptiveTimers, driver::Driver, observe::adu_key};
use crate::config::{RecoveryScope, WB159_REQUEST};
use crate::name::{AduName, SeqNo, SourceId};
use crate::recovery::{RequestAction, RequestState};
use crate::wire::{Body, DataBody, Header, RequestBody};
use bytes::Bytes;
use netsim::{flow, Packet, SendOptions};

impl SrmAgent {
    /// Begin recovery for each newly discovered missing ADU.
    pub(super) fn start_requests(&mut self, ctx: &mut dyn Driver, missing: Vec<AduName>) {
        for name in missing {
            if name.source == self.id && !self.rejoining {
                continue; // our own stream cannot be missing (unless we
                          // crashed and are recovering our pre-crash state)
            }
            if self.store.has(&name) {
                continue;
            }
            // wb 1.59 mode uses a fixed [c, 2c] interval; the distance-
            // scaled framework uses [C1·d, (C1+C2)·d].
            let (c1, c2, dist) = if self.cfg.wb159 {
                (1.0, 1.0, WB159_REQUEST)
            } else {
                let p = self.params();
                (p.c1, p.c2, self.est.distance_to(name.source))
            };
            let ep = self.episodes.entry(name).or_default();
            if ep.request.is_some() {
                continue;
            }
            self.losses_detected += 1;
            self.fingerprint.record(name);
            self.obs
                .record(ctx.now(), adu_key(name), obs::EventKind::GapDetected);
            let (mut st, delay) = RequestState::new(name, ctx.now(), c1, c2, dist, ctx.rng());
            if let Some(a) = self.adaptive.as_mut() {
                a.on_request_timer_set(name);
            }
            st.timer = Some(self.timers.arm(ctx, delay, Purpose::Request(name)));
            self.obs.record(
                ctx.now(),
                adu_key(name),
                obs::EventKind::RequestTimerSet {
                    until: st.expire_at,
                    backoff: st.backoff_count,
                },
            );
            self.metrics.note_request(&st);
            ep.request = Some(st);
        }
        self.maybe_create_recovery_group(ctx);
    }

    /// The request timer for `name` fired: send the request, back off and
    /// re-arm, or give up. The episode is looked up once and held across
    /// the send, which touches only the outbox and the timers.
    pub(super) fn request_timer_fired(&mut self, ctx: &mut dyn Driver, name: AduName) {
        let Some(ep) = self.episodes.get_mut(&name) else {
            return;
        };
        let Some(st) = ep.request.as_mut() else {
            return;
        };
        st.timer = None;
        // Give up after the configured number of transmissions.
        if self.cfg.max_request_rounds.is_some_and(|max| st.requests_sent >= max) {
            ep.request = None;
            if let Some(rec) = self.metrics.recoveries.get_mut(&name) {
                rec.gave_up = true;
            }
            self.obs
                .record(ctx.now(), adu_key(name), obs::EventKind::GaveUp);
            self.retire_if_finished(name, ctx.now());
            return;
        }
        let first = st.first_request_event_at.is_none();
        let rounds_before = st.requests_sent;
        let redelay = st.on_timer_expired(ctx.now(), self.cfg.backoff, ctx.rng());
        let on_delay = AdaptiveTimers::on_request_delay;
        sample_delay(&mut self.adaptive, first, st.request_delay(), st.dist_to_source, on_delay);
        self.metrics.note_request(st);
        // Transmit the request. The first round uses the local-recovery
        // group if we belong to one (Section VII-B2); unanswered rounds
        // widen back to the whole session.
        let opts = request_opts(&self.cfg, rounds_before);
        ep.last_request_ttl = Some(opts.ttl);
        let dist = self.est.distance_to(name.source).as_secs_f64();
        let body = Body::Request(RequestBody {
            name,
            dist_to_source: dist,
        });
        let class = recovery_class(self.current_page, name.page);
        let group = match (rounds_before, self.recovery_group) {
            (0, Some(g)) => g,
            _ => self.group,
        };
        self.outbox.transmit_to(ctx, &mut self.timers, group, body, class, opts);
        self.metrics.requests_sent += 1;
        self.obs.record(
            ctx.now(),
            adu_key(name),
            obs::EventKind::RequestSent {
                round: rounds_before + 1,
            },
        );
        if let Some(a) = self.adaptive.as_mut() {
            if st.requests_observed > 1 {
                a.on_duplicate_request();
            }
            a.on_request_sent();
        }
        // Re-arm the (backed-off) timer to wait for the repair. The send
        // above may have armed a rate-gate timer, and tokens are handed out
        // in order, so this one is armed second.
        st.timer = Some(self.timers.arm(ctx, redelay, Purpose::Request(name)));
        self.obs.record(
            ctx.now(),
            adu_key(name),
            obs::EventKind::RequestTimerSet {
                until: st.expire_at,
                backoff: st.backoff_count,
            },
        );
    }

    /// A request from another member arrived: if we are missing the name
    /// too, suppress or back off our own request and say so.
    pub(super) fn suppress_or_backoff(
        &mut self,
        ctx: &mut dyn Driver,
        name: AduName,
        from: SourceId,
        their_dist: f64,
    ) -> bool {
        let Some(st) = self.episodes.get_mut(&name).and_then(|e| e.request.as_mut()) else {
            return false;
        };
        self.obs.record(
            ctx.now(),
            adu_key(name),
            obs::EventKind::RequestHeard { from: from.0 },
        );
        let first = st.first_request_event_at.is_none();
        let action = st.on_request_heard(ctx.now(), self.cfg.backoff, ctx.rng());
        let on_delay = AdaptiveTimers::on_request_delay;
        sample_delay(&mut self.adaptive, first, st.request_delay(), st.dist_to_source, on_delay);
        if let Some(a) = self.adaptive.as_mut() {
            a.on_duplicate_request();
            if st.requests_sent > 0 {
                a.on_far_duplicate_request(their_dist, st.dist_to_source.as_secs_f64());
            }
        }
        match action {
            RequestAction::Rearm(delay) => {
                self.timers.disarm(ctx, st.timer.take());
                st.timer = Some(self.timers.arm(ctx, delay, Purpose::Request(name)));
                self.obs.record(
                    ctx.now(),
                    adu_key(name),
                    obs::EventKind::RequestBackoff {
                        until: st.expire_at,
                        backoff: st.backoff_count,
                    },
                );
            }
            RequestAction::None => {
                self.obs
                    .record(ctx.now(), adu_key(name), obs::EventKind::RequestSuppressed);
            }
        }
        self.metrics.note_request(st);
        true
    }

    /// Close out a loss-recovery episode for `name` (data arrived, by
    /// repair, original transmission, or FEC reconstruction).
    pub(super) fn complete_recovery(&mut self, ctx: &mut dyn Driver, name: AduName, via: obs::RecoveryVia) {
        let Some(ep) = self.episodes.get_mut(&name) else {
            return;
        };
        let Some(mut st) = ep.request.take() else {
            return;
        };
        self.timers.disarm(ctx, st.timer.take());
        self.metrics.note_request(&st);
        if let Some(rec) = self.metrics.recoveries.get_mut(&name) {
            rec.recovered_at = Some(ctx.now());
        }
        self.obs
            .record(ctx.now(), adu_key(name), obs::EventKind::Recovered { via });
        // A repair starts a hold-down next and the episode lives on in it;
        // recovery by the original or by parity can end it here.
        if via != obs::RecoveryVia::Repair {
            self.retire_if_finished(name, ctx.now());
        }
    }

    /// Store `payload` as `name` and, if it is new here, hand it up. The
    /// payload is shared (cloned) only when the store keeps it: most repairs
    /// reach members that already hold the data.
    pub(super) fn deliver(&mut self, name: AduName, payload: &Bytes, via_repair: bool) {
        if self.store.insert_with(name, || payload.clone()) {
            self.unique_data_received += 1;
            self.delivered.push(Delivery { name, payload: payload.clone(), via_repair });
        }
    }

    pub(super) fn handle_data(&mut self, ctx: &mut dyn Driver, pkt: &Packet, hdr: &Header, d: &DataBody) {
        if d.is_repair {
            self.metrics.repairs_received += 1;
        } else {
            self.metrics.data_received += 1;
        }
        self.outbox.data_meter.record(ctx.now(), pkt.size as u64);
        let name = d.name;
        // Gap detection must run before insertion (insertion advances the
        // stream's high-water mark); the arriving name itself is excluded.
        let missing = self.store.note_arrival(name.source, name.page, name.seq);
        self.deliver(name, &d.payload, d.is_repair);
        // Seeing our own stream (a repair of pre-crash data after a
        // restart) must advance our sequence allocator past it, or new
        // ADUs would collide with recovered ones.
        if name.source == self.id {
            let e = self.next_seq.entry(name.page).or_insert(SeqNo::ZERO);
            if name.seq.0 >= e.0 {
                *e = SeqNo(name.seq.0 + 1);
            }
        }
        self.start_requests(ctx, missing);
        // Complete any pending recovery for this name.
        let via = if d.is_repair {
            obs::RecoveryVia::Repair
        } else {
            obs::RecoveryVia::Original
        };
        self.complete_recovery(ctx, name, via);
        // A block member arriving may enable parity reconstruction of a
        // sibling.
        if let Some(key) = self.parity_key_for(&name) {
            self.try_fec(ctx, key);
        }
        if d.is_repair {
            self.repair_heard(ctx, name, hdr.sender);
            // Two-step local recovery: a repair naming us as the requestor
            // is re-multicast with the TTL of our original request.
            if d.answering == Some(self.id) {
                if let RecoveryScope::Ttl(initial) = self.cfg.scope {
                    let ttl = self
                        .episodes
                        .get(&name)
                        .and_then(|e| e.last_request_ttl)
                        .unwrap_or(initial);
                    let body = Body::Data(DataBody {
                        name,
                        is_repair: true,
                        answering: None,
                        dist_to_requestor: 0.0,
                        payload: d.payload.clone(),
                    });
                    let opts = SendOptions::for_flow(flow::REPAIR).with_ttl(ttl);
                    let class = recovery_class(self.current_page, name.page);
                    self.transmit(ctx, body, class, opts);
                    self.metrics.two_step_relays += 1;
                    self.metrics.repairs_sent += 1;
                }
            }
        }
    }
}
