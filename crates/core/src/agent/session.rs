//! Session messages (§III-A): the periodic state report with its timestamp
//! echoes, the tail losses it reveals, the peer liveness read from its
//! silence, and the suppressible page replies and page catalogs a late
//! joiner asks for.

use super::{Purpose, SrmAgent};
use crate::{driver::Driver, hierarchy::SessionScope, name::PageId, timers::TimerInterval};
use crate::liveness::{PeerState, Transition};
use crate::wire::{Body, Header, SessionBody};
use netsim::{flow, Packet, SendOptions, SimTime};

impl SrmAgent {
    pub(super) fn handle_session(&mut self, ctx: &mut dyn Driver, pkt: &Packet, hdr: &Header, s: &SessionBody) {
        self.metrics.session_received += 1;
        // Hierarchy bookkeeping: a *global* session message reveals a
        // representative; the carried initial TTL tells how far away.
        if let Some(h) = self.hier.as_mut() {
            if pkt.initial_ttl == netsim::TTL_GLOBAL {
                h.on_global_session(self.id, hdr.sender, pkt.hops_traveled(), ctx.now());
            }
        }
        // Echo processing: find the echo of our own timestamp.
        for e in &s.echoes {
            if e.peer == self.id {
                let local = ctx.local_now();
                self.est.process_echo(hdr.sender, e, local);
            }
        }
        self.neighborhood
            .update(hdr.sender, s.loss_rate, s.loss_fingerprint.clone());
        // Tail-loss detection from the reported state. A rejoining member
        // treats reports about its own pre-crash stream like anyone else's:
        // that is what lets session messages drive its state recovery.
        let mut missing = Vec::new();
        for (src, seq) in &s.state {
            if *src == self.id && !self.rejoining {
                continue;
            }
            missing.extend(self.store.note_exists(*src, s.page, *seq));
        }
        self.start_requests(ctx, missing);
        // A session message for a page suppresses our pending page reply.
        self.timers.disarm(ctx, self.page_reply_timers.remove(&s.page));
    }

    pub(super) fn handle_page_request(&mut self, ctx: &mut dyn Driver, hdr: &Header, page: PageId) {
        // Answer (after a suppressible delay) if we know anything about the
        // page. The reply is a session message scoped to that page.
        if self.store.page_state(page).is_empty() {
            return;
        }
        if self.page_reply_timers.contains_key(&page) {
            return;
        }
        let p = self.params();
        let dist = self.est.distance_to(hdr.sender);
        let delay = TimerInterval::repair(p.d1, p.d2, dist).draw(ctx.rng());
        let h = self.timers.arm(ctx, delay, Purpose::PageReply(page));
        self.page_reply_timers.insert(page, h);
    }

    /// A catalog request arrived: schedule a suppressible reply (the same
    /// timer-and-damping idiom as repairs).
    pub(super) fn handle_catalog_request(&mut self, ctx: &mut dyn Driver, hdr: &Header) {
        if self.store.known_pages().is_empty() || self.catalog_reply_timer.is_some() {
            return;
        }
        let p = self.params();
        let dist = self.est.distance_to(hdr.sender);
        let delay = TimerInterval::repair(p.d1, p.d2, dist).draw(ctx.rng());
        let h = self.timers.arm(ctx, delay, Purpose::CatalogReply);
        self.catalog_reply_timer = Some(h);
    }

    /// A catalog arrived: suppress our own pending reply and surface any
    /// new pages to the application.
    pub(super) fn handle_catalog(&mut self, ctx: &mut dyn Driver, pages: &[PageId]) {
        self.timers.disarm(ctx, self.catalog_reply_timer.take());
        let known = self.store.known_pages();
        for &p in pages {
            if !known.contains(&p) && !self.discovered_pages.contains(&p) {
                self.discovered_pages.push(p);
            }
        }
        // A rejoining member chases every discovered page's state itself
        // rather than waiting for an application to do it: the page replies
        // (session messages) then drive gap detection for the lost history.
        if self.rejoining {
            for p in std::mem::take(&mut self.discovered_pages) {
                self.request_page_state(ctx, p);
            }
        }
    }

    pub(super) fn emit_session(&mut self, ctx: &mut dyn Driver, page: PageId) {
        let body = Body::Session(SessionBody {
            page,
            state: self.store.page_state(page),
            echoes: self.est.make_echoes(ctx.local_now()),
            loss_rate: self.loss_rate(),
            loss_fingerprint: self.fingerprint.names(),
        });
        // Section IX-A: representatives report globally; everyone else with
        // just enough scope to reach their representative.
        let mut opts = SendOptions::for_flow(flow::SESSION);
        if let Some(h) = self.hier.as_mut() {
            if let SessionScope::Local = h.decide(ctx.now()) {
                opts = opts.with_ttl(h.cfg.local_ttl);
            }
        }
        let wire_len = self.outbox.send_now(ctx, self.group, body, opts);
        // §III-A's 5% cap is on bytes actually on the wire: size the next
        // interval from this message's *encoded* length (it grows with page
        // state, echoes, and the loss fingerprint), not the configured
        // nominal estimate — which on a real transport under-counts and
        // would overspend the session budget.
        self.scheduler.msg_bytes = f64::from(wire_len);
        self.metrics.session_sent += 1;
    }

    pub(super) fn schedule_session(&mut self, ctx: &mut dyn Driver) {
        let group_size = self.est.peer_count() + 1;
        // §III-A: scale to the measured aggregate data bandwidth when so
        // configured, rather than a static allocation.
        if self.cfg.measured_session_bandwidth {
            self.scheduler.bandwidth = self.outbox.data_meter.rate(ctx.now()).max(1.0);
        }
        let delay = self.scheduler.next_interval(group_size, ctx.rng());
        self.timers.arm(ctx, delay.min(self.cfg.max_session_interval), Purpose::Session);
    }

    /// Record a liveness transition as a typed transport event.
    pub(super) fn record_liveness(&mut self, at: SimTime, tr: Transition) {
        let kind = match tr.to {
            PeerState::Alive => obs::TransportEventKind::PeerAlive { peer: tr.peer.0 },
            PeerState::Suspect => obs::TransportEventKind::PeerSuspect { peer: tr.peer.0 },
            PeerState::Dead => obs::TransportEventKind::PeerDead { peer: tr.peer.0 },
        };
        self.transport_obs.record(at, kind);
    }
}
