//! The SRM agent: one session member's protocol engine.
//!
//! [`SrmAgent`] implements [`netsim::Application`] and wires together every
//! piece of the framework: the ADU store, session messages with NTP-style
//! distance estimation, gap- and session-based loss detection, the
//! request/repair timer machinery with suppression and exponential backoff,
//! the repair hold-down, optional adaptive timer adjustment, local recovery
//! scoping, and the prioritized, token-bucket-limited send path.
//!
//! The application above the agent (wb, or an experiment driver) calls
//! [`SrmAgent::send_data`] to originate ADUs and [`SrmAgent::take_delivered`]
//! to consume what arrived; everything else is autonomous.

use crate::adaptive::AdaptiveTimers;
use crate::clock::DistanceEstimator;
use crate::driver::Driver;
use crate::config::{RecoveryScope, SrmConfig, TimerParams};
use crate::fec::{reconstruct, Parity, ParityEncoder};
use crate::hierarchy::{HierarchyState, SessionScope};
use crate::local::{widened_ttl, LossFingerprint, NeighborhoodView};
use crate::metrics::AgentMetrics;
use crate::name::{AduName, PageId, SeqNo, SourceId};
use crate::observe::adu_key;
use crate::rate::TokenBucket;
use crate::recovery::{
    Episode, RepairState, RequestAction, RequestScope, RequestState, TimerHandle,
};
use crate::sendq::{PendingSend, SendClass, SendQueue};
use crate::session::SessionScheduler;
use crate::store::AduStore;
use crate::wire::{Body, DataBody, Header, Message, PageRequestBody, RequestBody, SessionBody};
use bytes::Bytes;
use netsim::{flow, Application, Ctx, GroupId, Packet, SendOptions, SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// An ADU handed up to the application layer.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The ADU's name.
    pub name: AduName,
    /// Its payload.
    pub payload: Bytes,
    /// True if it arrived as a repair rather than an original transmission.
    pub via_repair: bool,
}

/// What a fired timer token means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Purpose {
    Request(AduName),
    Repair(AduName),
    Session,
    PageReply(PageId),
    RateGate,
    /// Delayed recovery-group creation (suppressed by hearing an invite).
    RecoveryInviteTimer,
    /// Suppressible reply to a page-catalog request.
    CatalogReply,
}

/// The agent's armed timers: what each outstanding token is for.
#[derive(Default)]
struct Timers {
    purposes: BTreeMap<u64, Purpose>,
    next_token: u64,
}

impl Timers {
    fn arm(&mut self, ctx: &mut dyn Driver, delay: SimDuration, purpose: Purpose) -> TimerHandle {
        let token = self.next_token;
        self.next_token += 1;
        self.purposes.insert(token, purpose);
        let id = ctx.set_timer(delay, token);
        TimerHandle { id, token }
    }

    fn disarm(&mut self, ctx: &mut dyn Driver, h: TimerHandle) {
        ctx.cancel_timer(h.id);
        self.purposes.remove(&h.token);
    }
}

/// One member's SRM protocol engine.
pub struct SrmAgent {
    /// This member's persistent Source-ID.
    pub id: SourceId,
    group: GroupId,
    cfg: SrmConfig,
    store: AduStore,
    est: DistanceEstimator,
    adaptive: Option<AdaptiveTimers>,
    /// The page this member is currently viewing (reported in session
    /// messages; recovery for it gets top send priority).
    current_page: PageId,
    next_seq: BTreeMap<PageId, SeqNo>,
    /// Loss recovery in progress or held down, by name: the one table a
    /// request or repair heard is looked up in. An episode is removed once
    /// it is [`Episode::finished`], so the table follows the losses of the
    /// last few hold-downs, not of the session.
    episodes: BTreeMap<AduName, Episode>,
    /// Hold-down deadlines in the order they were set: where
    /// [`SrmAgent::retire_expired`] finds the episodes that may be over.
    hold_downs: VecDeque<(SimTime, AduName)>,
    page_reply_timers: BTreeMap<PageId, TimerHandle>,
    session_timer: Option<TimerHandle>,
    timers: Timers,
    scheduler: SessionScheduler,
    /// Whether periodic session messages run (experiments that measure a
    /// single clean recovery round turn them off and warm distances
    /// explicitly).
    pub session_enabled: bool,
    bucket: Option<TokenBucket>,
    sendq: SendQueue,
    rate_gate: Option<TimerHandle>,
    fingerprint: LossFingerprint,
    /// Peers' loss reports from session messages.
    pub neighborhood: NeighborhoodView,
    losses_detected: u64,
    unique_data_received: u64,
    delivered: Vec<Delivery>,
    /// Counters and per-episode logs.
    pub metrics: AgentMetrics,
    /// Recovery-episode event recorder (disabled by default; recording
    /// never touches the protocol's RNG or timers).
    pub obs: obs::Recorder,
    /// Transport-layer event log (chaos actions, supervision, liveness
    /// transitions).  Kept separate from the ADU-keyed recorder so
    /// golden-trace pins stay byte-identical; disabled by default.
    pub transport_obs: obs::TransportLog,
    /// Session-silence peer liveness tracker (§III-A heartbeat reading).
    /// Disabled by default; the wall-clock transport enables it.
    pub liveness: crate::liveness::PeerLiveness,
    /// Two-step local-recovery relays performed.
    pub two_step_relays: u64,
    /// The local-recovery group this member belongs to (Section VII-B2).
    recovery_group: Option<GroupId>,
    /// Pending (suppressible) group-creation timer.
    invite_timer: Option<TimerHandle>,
    /// True if this member created (rather than joined) its recovery group.
    pub created_recovery_group: bool,
    /// Sender-side parity encoder (FEC extension).
    fec_enc: Option<ParityEncoder>,
    /// Received parities by (source, page, block_start).
    parities: BTreeMap<(SourceId, PageId, u64), Parity>,
    /// ADUs recovered locally from parity, without any request.
    pub fec_recoveries: u64,
    /// Session-message hierarchy state (Section IX-A), if enabled.
    hier: Option<HierarchyState>,
    /// Pending suppressible catalog reply.
    catalog_reply_timer: Option<TimerHandle>,
    /// Pages learned from catalogs that the application has not yet seen.
    discovered_pages: Vec<PageId>,
    /// True after a crash-restart until our pre-crash state is recovered:
    /// while set, the own-source guards are lifted so we can request our
    /// *own* past ADUs back from the group like any late joiner (§III-A —
    /// "recovery ... does not depend on the original source").
    rejoining: bool,
    /// Passive meter over data/repair bytes seen (sent + received), for
    /// §III-A's "measured adaptively" session bandwidth.
    data_meter: crate::bandwidth::RateMeter,
    /// Reused encode buffer: every outbound message is serialized here and
    /// then copied once into its on-wire [`Bytes`], so steady-state sending
    /// costs one allocation (the shared payload) instead of two.
    wire_scratch: Vec<u8>,
}

impl SrmAgent {
    /// Create an agent for member `id` in `group`.
    pub fn new(id: SourceId, group: GroupId, cfg: SrmConfig) -> Self {
        let adaptive = cfg.adaptive.map(|a| AdaptiveTimers::new(a, cfg.timers));
        let scheduler = SessionScheduler {
            bandwidth: cfg.session_bandwidth,
            fraction: cfg.session_fraction,
            msg_bytes: cfg.session_msg_bytes,
            min_interval: cfg.min_session_interval,
        };
        let mut store = AduStore::new();
        store.retention_per_stream = cfg.retention_per_stream;
        SrmAgent {
            id,
            group,
            est: DistanceEstimator::new(cfg.default_distance),
            adaptive,
            current_page: PageId::new(id, 0),
            next_seq: BTreeMap::new(),
            episodes: BTreeMap::new(),
            hold_downs: VecDeque::new(),
            page_reply_timers: BTreeMap::new(),
            session_timer: None,
            timers: Timers::default(),
            scheduler,
            session_enabled: true,
            bucket: cfg.rate_limit.map(TokenBucket::new),
            sendq: SendQueue::new(),
            rate_gate: None,
            fingerprint: LossFingerprint::new(cfg.fingerprint_len),
            neighborhood: NeighborhoodView::default(),
            losses_detected: 0,
            unique_data_received: 0,
            delivered: Vec::new(),
            metrics: AgentMetrics::default(),
            obs: obs::Recorder::new(),
            transport_obs: obs::TransportLog::new(),
            liveness: crate::liveness::PeerLiveness::new(),
            two_step_relays: 0,
            recovery_group: None,
            invite_timer: None,
            created_recovery_group: false,
            fec_enc: cfg.fec.map(|f| ParityEncoder::new(f.k)),
            parities: BTreeMap::new(),
            fec_recoveries: 0,
            hier: cfg.session_hierarchy.map(HierarchyState::new),
            catalog_reply_timer: None,
            discovered_pages: Vec::new(),
            rejoining: false,
            data_meter: crate::bandwidth::RateMeter::new(SimDuration::from_secs(30)),
            wire_scratch: Vec::new(),
            store,
            cfg,
        }
    }

    /// Current measured aggregate data bandwidth (bytes/second), trailing
    /// 30 s window over data and repairs this member sent or heard.
    pub fn measured_data_bandwidth(&mut self, now: SimTime) -> f64 {
        self.data_meter.rate(now)
    }

    /// Whether this member currently acts as a session-message
    /// representative (Section IX-A). `true` when the hierarchy is off —
    /// every member then reports globally.
    pub fn is_representative(&self) -> bool {
        self.hier.as_ref().is_none_or(|h| h.is_rep)
    }

    // ---- public API -------------------------------------------------------

    /// The live timer parameters (adaptive if enabled, else the fixed ones).
    pub fn params(&self) -> TimerParams {
        live_params(&self.adaptive, &self.cfg)
    }

    /// The configuration.
    pub fn config(&self) -> &SrmConfig {
        &self.cfg
    }

    /// The ADU store.
    pub fn store(&self) -> &AduStore {
        &self.store
    }

    /// The adaptive state, if adaptive timers are enabled.
    pub fn adaptive(&self) -> Option<&AdaptiveTimers> {
        self.adaptive.as_ref()
    }

    /// The distance estimator.
    pub fn distances(&self) -> &DistanceEstimator {
        &self.est
    }

    /// Mutable distance estimator (experiment warm-up).
    pub fn distances_mut(&mut self) -> &mut DistanceEstimator {
        &mut self.est
    }

    /// Set the page this member is viewing.
    pub fn set_current_page(&mut self, page: PageId) {
        self.current_page = page;
    }

    /// The page this member is viewing.
    pub fn current_page(&self) -> PageId {
        self.current_page
    }

    /// Fraction of data for which a request timer was set (the loss rate
    /// advertised in session messages, Section VII-B).
    pub fn loss_rate(&self) -> f32 {
        let denom = self.losses_detected + self.unique_data_received;
        if denom == 0 {
            0.0
        } else {
            self.losses_detected as f32 / denom as f32
        }
    }

    /// The per-message byte size the session scheduler currently charges
    /// against the session-bandwidth budget: the configured nominal size
    /// until the first session message goes out, then the last emitted
    /// message's encoded on-wire length.
    pub fn session_msg_bytes(&self) -> f64 {
        self.scheduler.msg_bytes
    }

    /// Drain ADUs delivered to the application since the last call.
    pub fn take_delivered(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.delivered)
    }

    /// The session participants currently heard from ("Members can also
    /// use session messages in SRM to determine the current participants
    /// of the session", Section III-A): peers active within `window`.
    pub fn current_participants(&self, now: SimTime, window: SimDuration) -> Vec<SourceId> {
        self.est.active_peers(now, window)
    }

    /// Are any loss-recovery episodes still in flight?
    pub fn has_pending_recovery(&self) -> bool {
        self.episodes.values().any(|e| e.request.is_some())
    }

    /// Names this member currently keeps recovery state for: a request
    /// pending, a repair timer armed, or a hold-down not yet over (plus
    /// those whose hold-down ran out since the last packet or timer).
    pub fn live_episodes(&self) -> usize {
        self.episodes.len()
    }

    /// Originate a new ADU on `page`. Returns its name.
    pub fn send_data(&mut self, ctx: &mut dyn Driver, page: PageId, payload: Bytes) -> AduName {
        let seq = self.next_seq.entry(page).or_insert(SeqNo::ZERO);
        let name = AduName::new(self.id, page, *seq);
        *seq = seq.next();
        self.store.insert(name, payload.clone());
        self.metrics.data_sent += 1;
        // FEC: note the ADU; a closing block yields a parity packet to send
        // right after the data.
        let parity = self
            .fec_enc
            .as_mut()
            .and_then(|enc| enc.push(self.id, page, name.seq, &payload));
        let body = Body::Data(DataBody {
            name,
            is_repair: false,
            answering: None,
            dist_to_requestor: 0.0,
            payload,
        });
        self.transmit(
            ctx,
            body,
            SendClass::NewData,
            SendOptions::for_flow(flow::DATA),
        );
        if let Some(parity) = parity {
            self.transmit(
                ctx,
                Body::Parity(parity),
                SendClass::NewData,
                SendOptions::for_flow(flow::PARITY),
            );
        }
        name
    }

    /// Multicast a page-state request (late joiner / browsing, §III-A).
    pub fn request_page_state(&mut self, ctx: &mut dyn Driver, page: PageId) {
        let body = Body::PageRequest(PageRequestBody { page });
        self.transmit(
            ctx,
            body,
            SendClass::CurrentPageRecovery,
            SendOptions::for_flow(flow::REQUEST),
        );
    }

    /// Ask the session which pages exist (§III-A: late joiners "issue page
    /// requests to learn the existence of previous pages"). Answers appear
    /// through [`SrmAgent::take_discovered_pages`].
    pub fn request_page_catalog(&mut self, ctx: &mut dyn Driver) {
        self.transmit(
            ctx,
            Body::PageCatalogRequest,
            SendClass::CurrentPageRecovery,
            SendOptions::for_flow(flow::REQUEST),
        );
    }

    /// Pages learned from catalog replies since the last call. The
    /// application decides what to do with them (ALF: e.g. wb fetches each
    /// page's state and recovers its history).
    pub fn take_discovered_pages(&mut self) -> Vec<PageId> {
        std::mem::take(&mut self.discovered_pages)
    }

    /// Send a session message immediately (also used by experiment warm-up).
    pub fn send_session_now(&mut self, ctx: &mut dyn Driver) {
        self.emit_session(ctx, self.current_page);
    }

    // ---- internals: transmission -------------------------------------------

    /// Encode and multicast a message immediately; returns the encoded
    /// on-wire byte length.
    fn send_now(&mut self, ctx: &mut dyn Driver, group: GroupId, body: Body, opts: SendOptions) -> u32 {
        let msg = Message {
            header: Header {
                sender: self.id,
                // The node's local clock, so clock skew/drift faults are
                // visible to peers' distance estimators just as NTP error
                // would be (identical to the driver's now when unfaulted).
                timestamp: ctx.local_now(),
            },
            body,
        };
        // Serialize into the agent's scratch buffer (retained across
        // sends), then copy once into the shared on-wire allocation.
        self.wire_scratch.clear();
        msg.encode_into(&mut self.wire_scratch);
        let payload = Bytes::copy_from_slice(&self.wire_scratch);
        let wire_len = payload.len() as u32;
        ctx.multicast(group, payload, opts);
        wire_len
    }

    fn transmit(&mut self, ctx: &mut dyn Driver, body: Body, class: SendClass, opts: SendOptions) {
        let group = self.group;
        self.transmit_to(ctx, group, body, class, opts);
    }

    fn transmit_to(
        &mut self,
        ctx: &mut dyn Driver,
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
        self.drain_sendq(ctx);
    }

    fn drain_sendq(&mut self, ctx: &mut dyn Driver) {
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
                    let h = self.timers.arm(ctx, wait, Purpose::RateGate);
                    self.rate_gate = Some(h);
                }
                break;
            }
        }
    }

    /// Send class for recovery traffic about `page` (Section III-E
    /// priorities).
    fn recovery_class(&self, page: PageId) -> SendClass {
        if page == self.current_page {
            SendClass::CurrentPageRecovery
        } else {
            SendClass::OldPageRecovery
        }
    }

    /// Network options for a request, applying the scope policy with
    /// widening after unanswered rounds.
    fn request_opts(&self, rounds_already_sent: u32) -> SendOptions {
        let base = SendOptions::for_flow(flow::REQUEST);
        match self.cfg.scope {
            RecoveryScope::Global => base,
            RecoveryScope::Ttl(initial) => base.with_ttl(widened_ttl(initial, rounds_already_sent)),
            RecoveryScope::Admin => {
                if rounds_already_sent == 0 {
                    base.admin_scoped()
                } else {
                    base // widen to global after an unanswered round
                }
            }
        }
    }

    /// Network options for a repair answering a request that travelled as
    /// `request` did.
    fn repair_opts(&self, request: RequestScope) -> SendOptions {
        let base = SendOptions::for_flow(flow::REPAIR);
        match self.cfg.scope {
            RecoveryScope::Global => base,
            // Two-step first leg: "a local repair is sent with the same TTL
            // used in the request" (Section VII-B3).
            RecoveryScope::Ttl(_) => base.with_ttl(request.ttl),
            RecoveryScope::Admin => {
                if request.admin_scoped {
                    base.admin_scoped()
                } else {
                    base
                }
            }
        }
    }

    // ---- internals: loss detection and request side -------------------------

    /// Begin recovery for each newly discovered missing ADU.
    fn start_requests(&mut self, ctx: &mut dyn Driver, missing: Vec<AduName>) {
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
            let (c1, c2, dist) = match self.cfg.fixed_intervals {
                Some(f) => (1.0, 1.0, SimDuration::from_secs_f64(f.request)),
                None => {
                    let p = self.params();
                    (p.c1, p.c2, self.est.distance_to(name.source))
                }
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

    /// Group ids above this base are allocated to local-recovery groups.
    const RECOVERY_GROUP_BASE: u32 = 0x4000_0000;

    /// Section VII-B2: once losses look persistent, arm a random timer to
    /// allocate a recovery group and invite the neighborhood. The timer is
    /// suppressed by someone else's invitation — the same timer-and-damping
    /// idiom as requests, so one group forms per neighborhood instead of
    /// one per member.
    fn maybe_create_recovery_group(&mut self, ctx: &mut dyn Driver) {
        let Some(rg) = self.cfg.recovery_groups else {
            return;
        };
        if self.recovery_group.is_some()
            || self.invite_timer.is_some()
            || self.losses_detected < rg.min_losses
        {
            return;
        }
        // Uniform over roughly one neighborhood diameter.
        let spread = self
            .cfg
            .default_distance
            .mul_f64(2.0 * rg.invite_ttl.max(1) as f64);
        let delay = crate::timers::TimerInterval {
            lo: 0.0,
            hi: spread.as_secs_f64(),
        }
        .draw(ctx.rng());
        let h = self.timers.arm(ctx, delay, Purpose::RecoveryInviteTimer);
        self.invite_timer = Some(h);
    }

    /// The (unsuppressed) invite timer fired: create the group and invite.
    fn invite_timer_fired(&mut self, ctx: &mut dyn Driver) {
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
        let body = Body::RecoveryInvite(crate::wire::RecoveryInviteBody { group: group.0 });
        self.transmit(
            ctx,
            body,
            SendClass::CurrentPageRecovery,
            SendOptions::for_flow(flow::REQUEST).with_ttl(rg.invite_ttl),
        );
    }

    /// A scoped recovery-group invitation arrived; "nearby" members join,
    /// and any pending creation timer of our own is suppressed.
    fn handle_recovery_invite(&mut self, ctx: &mut dyn Driver, group: u32) {
        if self.cfg.recovery_groups.is_none() {
            return;
        }
        if let Some(h) = self.invite_timer.take() {
            self.timers.disarm(ctx, h);
        }
        if self.recovery_group.is_some() {
            return;
        }
        let g = GroupId(group);
        ctx.join(g);
        self.recovery_group = Some(g);
    }

    /// Forget `name`'s episode if nothing is left to happen in it. What a
    /// forgotten episode is still read for — a repair heard later counts as
    /// a duplicate for the adaptive D1/D2 if this member ever set a repair
    /// timer for the name — survives as the store's mark bit.
    fn retire_if_finished(&mut self, name: AduName, now: SimTime) {
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
    fn retire_expired(&mut self, now: SimTime) {
        while let Some(&(until, name)) = self.hold_downs.front() {
            if now < until {
                break;
            }
            self.hold_downs.pop_front();
            self.retire_if_finished(name, now);
        }
    }

    fn request_timer_fired(&mut self, ctx: &mut dyn Driver, name: AduName) {
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
        let had_event = st.first_request_event_at.is_some();
        let rounds_before = st.requests_sent;
        let redelay = st.on_timer_expired(ctx.now(), self.cfg.backoff, ctx.rng());
        if !had_event {
            let rtt = st.dist_to_source.as_secs_f64() * 2.0;
            if let (Some(d), Some(a)) = (st.request_delay(), self.adaptive.as_mut()) {
                if rtt > 0.0 {
                    a.on_request_delay(d.as_secs_f64() / rtt);
                }
            }
        }
        let (until, backoff, duplicate) =
            (st.expire_at, st.backoff_count, st.requests_observed > 1);
        self.metrics.note_request(st);
        // Transmit the request. The first round uses the local-recovery
        // group if we belong to one (Section VII-B2); unanswered rounds
        // widen back to the whole session.
        let opts = self.request_opts(rounds_before);
        let ttl = opts.ttl;
        let dist = self.est.distance_to(name.source).as_secs_f64();
        let body = Body::Request(RequestBody {
            name,
            dist_to_source: dist,
        });
        let class = self.recovery_class(name.page);
        let group = match (rounds_before, self.recovery_group) {
            (0, Some(g)) => g,
            _ => self.group,
        };
        self.transmit_to(ctx, group, body, class, opts);
        self.metrics.requests_sent += 1;
        self.obs.record(
            ctx.now(),
            adu_key(name),
            obs::EventKind::RequestSent {
                round: rounds_before + 1,
            },
        );
        if let Some(a) = self.adaptive.as_mut() {
            if duplicate {
                a.on_duplicate_request();
            }
            a.on_request_sent();
        }
        // Re-arm the (backed-off) timer to wait for the repair. The send
        // above may have armed a rate-gate timer, and tokens are handed out
        // in order, so the handle is only known now.
        let h = self.timers.arm(ctx, redelay, Purpose::Request(name));
        if let Some(ep) = self.episodes.get_mut(&name) {
            ep.last_request_ttl = Some(ttl);
            if let Some(st) = ep.request.as_mut() {
                st.timer = Some(h);
            }
        }
        self.obs.record(
            ctx.now(),
            adu_key(name),
            obs::EventKind::RequestTimerSet { until, backoff },
        );
    }

    /// A request from another member arrived: if we are missing the name
    /// too, suppress or back off our own request and say so.
    fn suppress_or_backoff(
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
        let had_event = st.first_request_event_at.is_some();
        let action = st.on_request_heard(ctx.now(), self.cfg.backoff, ctx.rng());
        if !had_event {
            let rtt = st.dist_to_source.as_secs_f64() * 2.0;
            if let (Some(d), Some(a)) = (st.request_delay(), self.adaptive.as_mut()) {
                if rtt > 0.0 {
                    a.on_request_delay(d.as_secs_f64() / rtt);
                }
            }
        }
        if let Some(a) = self.adaptive.as_mut() {
            a.on_duplicate_request();
            if st.requests_sent > 0 {
                a.on_far_duplicate_request(their_dist, st.dist_to_source.as_secs_f64());
            }
        }
        match action {
            RequestAction::Rearm(delay) => {
                if let Some(h) = st.timer.take() {
                    self.timers.disarm(ctx, h);
                }
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

    // ---- internals: repair side ---------------------------------------------

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
        let (d1, d2, dist) = match self.cfg.fixed_intervals {
            Some(f) => {
                let base = if name.source == self.id {
                    f.repair_source
                } else {
                    f.repair_other
                };
                (1.0, 1.0, SimDuration::from_secs_f64(base))
            }
            None => {
                let p = live_params(&self.adaptive, &self.cfg);
                (p.d1, p.d2, self.est.distance_to(sender))
            }
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

    fn repair_timer_fired(&mut self, ctx: &mut dyn Driver, name: AduName) {
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
        let had_event = st.first_repair_event_at.is_some();
        st.on_timer_expired(ctx.now());
        if !had_event {
            let rtt = st.dist_to_requestor.as_secs_f64() * 2.0;
            if let (Some(d), Some(a)) = (st.repair_delay(), self.adaptive.as_mut()) {
                if rtt > 0.0 {
                    a.on_repair_delay(d.as_secs_f64() / rtt);
                }
            }
        }
        let (requestor, dist, scope) = (st.requestor, st.dist_to_requestor, st.scope);
        self.metrics.note_repair(st);
        let two_step = matches!(self.cfg.scope, RecoveryScope::Ttl(_));
        let body = Body::Data(DataBody {
            name,
            is_repair: true,
            answering: two_step.then_some(requestor),
            dist_to_requestor: dist.as_secs_f64(),
            payload,
        });
        let opts = self.repair_opts(scope);
        let class = self.recovery_class(name.page);
        self.transmit_to(ctx, scope.group, body, class, opts);
        self.metrics.repairs_sent += 1;
        self.obs
            .record(ctx.now(), adu_key(name), obs::EventKind::RepairSent);
        if let Some(a) = self.adaptive.as_mut() {
            a.on_repair_sent();
        }
        let until = self.hold_down_end(ctx.now(), name);
        self.obs
            .record(ctx.now(), adu_key(name), obs::EventKind::HoldDownEntered { until });
        if let Some(ep) = self.episodes.get_mut(&name) {
            ep.hold_down_until = until;
        }
        self.hold_downs.push_back((until, name));
    }

    /// When a hold-down for `name` entered at `now` ends.
    fn hold_down_end(&self, now: SimTime, name: AduName) -> SimTime {
        now + self.est.distance_to(name.source).mul_f64(self.cfg.hold_down)
    }

    // ---- internals: message handlers -----------------------------------------

    fn handle_data(&mut self, ctx: &mut dyn Driver, pkt: &Packet, hdr: &Header, d: DataBody) {
        if d.is_repair {
            self.metrics.repairs_received += 1;
        } else {
            self.metrics.data_received += 1;
        }
        self.data_meter.record(ctx.now(), pkt.size as u64);
        let name = d.name;
        // Gap detection must run before insertion (insertion advances the
        // stream's high-water mark); the arriving name itself is excluded.
        let mut missing = self.store.note_exists(name.source, name.page, name.seq);
        missing.retain(|m| *m != name);
        let fresh = self.store.insert(name, d.payload.clone());
        if fresh {
            self.unique_data_received += 1;
            self.delivered.push(Delivery {
                name,
                payload: d.payload.clone(),
                via_repair: d.is_repair,
            });
        }
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
                        payload: d.payload,
                    });
                    let opts = SendOptions::for_flow(flow::REPAIR).with_ttl(ttl);
                    let class = self.recovery_class(name.page);
                    self.transmit(ctx, body, class, opts);
                    self.two_step_relays += 1;
                    self.metrics.repairs_sent += 1;
                }
            }
        }
    }

    /// A repair for `name` arrived: repair suppression, duplicate
    /// accounting, and the hold-down it starts — one lookup for all three.
    fn repair_heard(&mut self, ctx: &mut dyn Driver, name: AduName, from: SourceId) {
        let until = self.hold_down_end(ctx.now(), name);
        let ep = self.episodes.entry(name).or_default();
        if let Some(st) = ep.repair.as_mut() {
            self.obs.record(
                ctx.now(),
                adu_key(name),
                obs::EventKind::RepairHeard { from: from.0 },
            );
            let had_event = st.first_repair_event_at.is_some();
            st.on_repair_heard(ctx.now());
            if !had_event {
                let rtt = st.dist_to_requestor.as_secs_f64() * 2.0;
                if let (Some(del), Some(a)) = (st.repair_delay(), self.adaptive.as_mut()) {
                    if rtt > 0.0 {
                        a.on_repair_delay(del.as_secs_f64() / rtt);
                    }
                }
            }
            if st.repairs_observed > 1 {
                if let Some(a) = self.adaptive.as_mut() {
                    a.on_duplicate_repair();
                }
            }
            if let Some(h) = st.timer.take() {
                self.timers.disarm(ctx, h);
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

    /// Close out a loss-recovery episode for `name` (data arrived, by
    /// repair, original transmission, or FEC reconstruction).
    fn complete_recovery(&mut self, ctx: &mut dyn Driver, name: AduName, via: obs::RecoveryVia) {
        let Some(ep) = self.episodes.get_mut(&name) else {
            return;
        };
        let Some(mut st) = ep.request.take() else {
            return;
        };
        if let Some(h) = st.timer.take() {
            self.timers.disarm(ctx, h);
        }
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

    /// The stored parity block covering `name`, if any.
    fn parity_key_for(&self, name: &AduName) -> Option<(SourceId, PageId, u64)> {
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
    fn handle_parity(&mut self, ctx: &mut dyn Driver, p: Parity) {
        if p.source == self.id || p.k == 0 {
            return;
        }
        let last = SeqNo(p.block_start.0 + p.k as u64 - 1);
        let missing = self.store.note_exists(p.source, p.page, last);
        let key = (p.source, p.page, p.block_start.0);
        self.parities.insert(key, p);
        self.try_fec(ctx, key);
        // Whatever parity could not fix goes through normal recovery.
        let still: Vec<AduName> = missing
            .into_iter()
            .filter(|n| !self.store.has(n))
            .collect();
        self.start_requests(ctx, still);
    }

    /// Attempt XOR reconstruction for a stored parity block; on success the
    /// recovered ADU is treated exactly like a received repair.
    fn try_fec(&mut self, ctx: &mut dyn Driver, key: (SourceId, PageId, u64)) {
        let Some(p) = self.parities.get(&key).cloned() else {
            return;
        };
        let have = |seq: SeqNo| self.store.get(&AduName::new(p.source, p.page, seq));
        if let Some((seq, data)) = reconstruct(&p, &have) {
            let name = AduName::new(p.source, p.page, seq);
            self.fec_recoveries += 1;
            if self.store.insert(name, data.clone()) {
                self.unique_data_received += 1;
                self.delivered.push(Delivery {
                    name,
                    payload: data,
                    via_repair: true,
                });
            }
            self.complete_recovery(ctx, name, obs::RecoveryVia::Fec);
        }
        // Drop the parity once its whole block is held.
        let complete = (0..p.k as u64)
            .all(|i| self.store.has(&AduName::new(p.source, p.page, SeqNo(p.block_start.0 + i))));
        if complete {
            self.parities.remove(&key);
        }
    }

    fn handle_request(&mut self, ctx: &mut dyn Driver, pkt: &Packet, hdr: &Header, r: RequestBody) {
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

    fn handle_session(&mut self, ctx: &mut dyn Driver, pkt: &Packet, hdr: &Header, s: SessionBody) {
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
        if let Some(h) = self.page_reply_timers.remove(&s.page) {
            self.timers.disarm(ctx, h);
        }
    }

    fn handle_page_request(&mut self, ctx: &mut dyn Driver, hdr: &Header, page: PageId) {
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
        let delay =
            crate::timers::TimerInterval::repair(p.d1, p.d2, dist).draw(ctx.rng());
        let h = self.timers.arm(ctx, delay, Purpose::PageReply(page));
        self.page_reply_timers.insert(page, h);
    }

    /// A catalog request arrived: schedule a suppressible reply (the same
    /// timer-and-damping idiom as repairs).
    fn handle_catalog_request(&mut self, ctx: &mut dyn Driver, hdr: &Header) {
        if self.store.known_pages().is_empty() || self.catalog_reply_timer.is_some() {
            return;
        }
        let p = self.params();
        let dist = self.est.distance_to(hdr.sender);
        let delay = crate::timers::TimerInterval::repair(p.d1, p.d2, dist).draw(ctx.rng());
        let h = self.timers.arm(ctx, delay, Purpose::CatalogReply);
        self.catalog_reply_timer = Some(h);
    }

    /// A catalog arrived: suppress our own pending reply and surface any
    /// new pages to the application.
    fn handle_catalog(&mut self, ctx: &mut dyn Driver, pages: Vec<PageId>) {
        if let Some(h) = self.catalog_reply_timer.take() {
            self.timers.disarm(ctx, h);
        }
        let known = self.store.known_pages();
        for p in pages {
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

    fn emit_session(&mut self, ctx: &mut dyn Driver, page: PageId) {
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
        let group = self.group;
        let wire_len = self.send_now(ctx, group, body, opts);
        // §III-A's 5% cap is on bytes actually on the wire: size the next
        // interval from this message's *encoded* length (it grows with page
        // state, echoes, and the loss fingerprint), not the configured
        // nominal estimate — which on a real transport under-counts and
        // would overspend the session budget.
        self.scheduler.msg_bytes = f64::from(wire_len);
        self.metrics.session_sent += 1;
    }

    fn schedule_session(&mut self, ctx: &mut dyn Driver) {
        let group_size = self.est.peer_count() + 1;
        // §III-A: scale to the measured aggregate data bandwidth when so
        // configured, rather than a static allocation.
        if self.cfg.measured_session_bandwidth {
            self.scheduler.bandwidth = self.data_meter.rate(ctx.now()).max(1.0);
        }
        let mut delay = self.scheduler.next_interval(group_size, ctx.rng());
        if delay > self.cfg.max_session_interval {
            delay = self.cfg.max_session_interval;
        }
        let h = self.timers.arm(ctx, delay, Purpose::Session);
        self.session_timer = Some(h);
    }
}

/// The live timer parameters: adaptive if enabled, else the fixed ones.
fn live_params(adaptive: &Option<AdaptiveTimers>, cfg: &SrmConfig) -> TimerParams {
    adaptive.as_ref().map_or(cfg.timers, |a| a.params)
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

/// Transport-agnostic handler entry points (the driver seam).
///
/// These are the agent's real event handlers: any [`Driver`] — the
/// `netsim` simulator or a wall-clock UDP runtime — feeds packets and
/// timer expiries through them. The [`netsim::Application`] impl below is
/// a thin forwarder, so simulation behaviour is exactly the driver-seam
/// behaviour.
impl SrmAgent {
    /// The member came up: join the session group and start the session-
    /// message schedule.
    pub fn drive_start(&mut self, ctx: &mut dyn Driver) {
        ctx.join(self.group);
        if self.session_enabled {
            self.schedule_session(ctx);
        }
    }

    /// Record a liveness transition as a typed transport event.
    fn record_liveness(&mut self, at: SimTime, tr: crate::liveness::Transition) {
        use crate::liveness::PeerState;
        let kind = match tr.to {
            PeerState::Alive => obs::TransportEventKind::PeerAlive { peer: tr.peer.0 },
            PeerState::Suspect => obs::TransportEventKind::PeerSuspect { peer: tr.peer.0 },
            PeerState::Dead => obs::TransportEventKind::PeerDead { peer: tr.peer.0 },
        };
        self.transport_obs.record(at, kind);
    }

    /// The member's host crashed: full loss of *volatile* protocol state.
    ///
    /// Rebuilds from scratch, carrying over only the identity,
    /// configuration, and the observer-side metrics (the experiment is
    /// watching the crash, the member is not). If a durability layer is
    /// attached it survives too — but first its own [`crate::store::Persistence::crash`]
    /// runs, dropping whatever was appended and never synced, so the log
    /// holds exactly what real stable storage would after a power cut.
    pub fn drive_crash(&mut self) {
        let mut metrics = std::mem::take(&mut self.metrics);
        metrics.drop_inflight();
        metrics.crashes += 1;
        let obs = std::mem::take(&mut self.obs);
        let transport_obs = std::mem::take(&mut self.transport_obs);
        let liveness = std::mem::take(&mut self.liveness);
        let persistence = self.store.take_persistence();
        let cache_per_stream = self.store.cache_per_stream;
        let evictions = self.store.evictions;
        let disk_fetches = self.store.disk_fetches;
        let session_enabled = self.session_enabled;
        *self = SrmAgent::new(self.id, self.group, self.cfg.clone());
        self.session_enabled = session_enabled;
        self.metrics = metrics;
        self.obs = obs;
        self.transport_obs = transport_obs;
        self.liveness = liveness;
        if let Some(mut p) = persistence {
            p.crash();
            self.store.cache_per_stream = cache_per_stream;
            self.store.evictions = evictions;
            self.store.disk_fetches = disk_fetches;
            self.store.attach_persistence(p);
        }
    }

    /// The member's host came back up after a crash.
    ///
    /// A durable member first replays its log: the page catalog, high-water
    /// marks, and own-stream sequence counters come back from stable
    /// storage, so it restarts as a repair-capable peer — the PR 1
    /// full-state-loss behavior applies only when no backend is attached.
    /// Either way the member then rejoins as a late joiner (§III-A):
    /// `rejoining` lifts the own-source guards so the unsynced tail (and
    /// anything published while it was down) is chased from the group.
    pub fn drive_restart(&mut self, ctx: &mut dyn Driver) {
        if self.store.has_persistence() {
            if let Some(summary) = self.store.rehydrate() {
                self.resume_from_rehydrate(&summary);
                self.transport_obs.record(
                    ctx.now(),
                    obs::TransportEventKind::StoreRehydrate {
                        adus: summary.names.len() as u64,
                        segments: summary.segments,
                        truncated_bytes: summary.truncated_bytes,
                    },
                );
            }
        }
        self.rejoining = true;
        ctx.join(self.group);
        if self.session_enabled {
            self.schedule_session(ctx);
        }
        self.request_page_catalog(ctx);
    }

    /// Attach a durability layer to the ADU store and replay it
    /// immediately. This is the single rehydrate path: the wall-clock
    /// runtime calls it at startup (`srm-node --store`) and the
    /// fault-injected simulator reaches the same code through
    /// [`SrmAgent::drive_restart`].
    ///
    /// `cache_per_stream` bounds the in-memory payload cache (spill to the
    /// log beyond it); `None` keeps everything resident while still
    /// logging. Returns the replay summary.
    pub fn attach_durable_store(
        &mut self,
        p: Box<dyn crate::store::Persistence>,
        cache_per_stream: Option<usize>,
    ) -> crate::store::Rehydrated {
        self.store.cache_per_stream = cache_per_stream;
        self.store.attach_persistence(p);
        let summary = self.store.rehydrate().expect("persistence just attached");
        self.resume_from_rehydrate(&summary);
        summary
    }

    /// Resume volatile state implied by a rehydrated catalog: our own
    /// streams' next sequence numbers continue after the highest durable
    /// ADU, so a restarted source never reuses a name for different data
    /// (up to the last fsync; an unsynced own tail is additionally fenced
    /// by the session state learned while `rejoining`).
    fn resume_from_rehydrate(&mut self, summary: &crate::store::Rehydrated) {
        // Resume viewing the page we were last working on (the log's final
        // append): session messages then advertise the rehydrated state,
        // which is what lets peers detect and request what they missed
        // while we were down.
        if let Some(last) = summary.last_appended {
            self.current_page = last.page;
        }
        for name in &summary.names {
            if name.source != self.id {
                continue;
            }
            let next = self.next_seq.entry(name.page).or_insert(SeqNo::ZERO);
            if name.seq.next() > *next {
                *next = name.seq.next();
            }
        }
    }

    /// Force the durable store onto stable storage (clean shutdown).
    pub fn flush_store(&mut self) {
        self.store.flush();
    }

    /// A packet addressed to a group this member has joined arrived.
    pub fn drive_packet(&mut self, ctx: &mut dyn Driver, pkt: &Packet) {
        match Message::decode(pkt.payload.clone()) {
            Ok(msg) => self.drive_message(ctx, pkt, msg),
            Err(_) => {
                self.retire_expired(ctx.now());
                self.metrics.decode_errors += 1;
            }
        }
    }

    /// [`SrmAgent::drive_packet`] for a caller that has already decoded
    /// `pkt`'s payload into `msg`.
    pub fn drive_message(&mut self, ctx: &mut dyn Driver, pkt: &Packet, msg: Message) {
        self.retire_expired(ctx.now());
        self.metrics.valid_messages += 1;
        if msg.header.sender == self.id {
            return; // stale loopback; ignore our own traffic
        }
        self.est
            .note_timestamp(msg.header.sender, msg.header.timestamp, ctx.local_now());
        if let Some(tr) = self.liveness.note_heard(msg.header.sender, ctx.now()) {
            self.record_liveness(ctx.now(), tr);
        }
        let hdr = msg.header;
        match msg.body {
            Body::Data(d) => self.handle_data(ctx, pkt, &hdr, d),
            Body::Request(r) => self.handle_request(ctx, pkt, &hdr, r),
            Body::Session(s) => self.handle_session(ctx, pkt, &hdr, s),
            Body::PageRequest(p) => self.handle_page_request(ctx, &hdr, p.page),
            Body::Parity(p) => self.handle_parity(ctx, p),
            Body::RecoveryInvite(i) => self.handle_recovery_invite(ctx, i.group),
            Body::PageCatalogRequest => self.handle_catalog_request(ctx, &hdr),
            Body::PageCatalog(pages) => self.handle_catalog(ctx, pages),
        }
    }

    /// A previously armed timer fired with its `token`.
    pub fn drive_timer(&mut self, ctx: &mut dyn Driver, token: u64) {
        self.retire_expired(ctx.now());
        let Some(purpose) = self.timers.purposes.remove(&token) else {
            return; // cancelled or stale
        };
        match purpose {
            Purpose::Request(name) => self.request_timer_fired(ctx, name),
            Purpose::Repair(name) => self.repair_timer_fired(ctx, name),
            Purpose::Session => {
                if self.liveness.is_enabled() {
                    let interval = self
                        .scheduler
                        .nominal_interval(self.est.peer_count() + 1);
                    for tr in self.liveness.sweep(ctx.now(), interval) {
                        self.record_liveness(ctx.now(), tr);
                    }
                }
                self.emit_session(ctx, self.current_page);
                self.schedule_session(ctx);
                self.metrics.trim_episode_logs();
            }
            Purpose::PageReply(page) => {
                self.page_reply_timers.remove(&page);
                self.emit_session(ctx, page);
            }
            Purpose::RateGate => {
                self.rate_gate = None;
                self.drain_sendq(ctx);
            }
            Purpose::RecoveryInviteTimer => self.invite_timer_fired(ctx),
            Purpose::CatalogReply => {
                self.catalog_reply_timer = None;
                let body = Body::PageCatalog(self.store.known_pages());
                self.transmit(
                    ctx,
                    body,
                    SendClass::CurrentPageRecovery,
                    SendOptions::for_flow(flow::SESSION),
                );
            }
        }
    }
}

impl Application for SrmAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.drive_start(ctx);
    }

    fn on_crash(&mut self) {
        self.drive_crash();
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.drive_restart(ctx);
    }

    /// Decodes through the packet's shared slot, so one multicast is
    /// decoded once however many members hear it. A payload that does not
    /// decode, or a slot another type filled, goes the `drive_packet` way.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        match pkt.decoded(|payload| Message::decode(payload.clone()).ok()) {
            Some(Some(msg)) => self.drive_message(ctx, pkt, msg.clone()),
            _ => self.drive_packet(ctx, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.drive_timer(ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::generators::chain;
    use netsim::loss::OneShotLinkDrop;
    use netsim::{NodeId, Simulator};

    const GROUP: GroupId = GroupId(7);

    fn page(src: u64) -> PageId {
        PageId::new(SourceId(src), 0)
    }

    /// Build a chain of SRM agents with sessions disabled and distances
    /// pre-warmed to the true values.
    fn chain_session(n: usize, cfg: &SrmConfig) -> Simulator<SrmAgent> {
        let topo = chain(n);
        let mut sim = Simulator::new(topo, 99);
        for i in 0..n {
            let mut a = SrmAgent::new(SourceId(i as u64), GROUP, cfg.clone());
            a.session_enabled = false;
            // Everyone views node 0's page, like a wb session looking at
            // the presenter's slide.
            a.set_current_page(page(0));
            for j in 0..n {
                if i != j {
                    a.distances_mut().set_distance(
                        SourceId(j as u64),
                        SimDuration::from_secs((i as i64 - j as i64).unsigned_abs()),
                    );
                }
            }
            sim.install(NodeId(i as u32), a);
            sim.join(NodeId(i as u32), GROUP);
        }
        sim
    }

    #[test]
    fn agent_size_is_reported() {
        // The simulator keeps a thousand agents side by side; `scripts/ci.sh`
        // prints this line next to the code-line count.
        let size = std::mem::size_of::<SrmAgent>();
        println!("size_of::<SrmAgent>() = {size}");
        assert!(size <= 2048, "an agent grew to {size} bytes");
    }

    #[test]
    fn data_flows_end_to_end() {
        let mut sim = chain_session(4, &SrmConfig::fixed(4));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"hello"));
        });
        sim.run_until_idle(SimTime::from_secs(100));
        for i in 1..4u32 {
            let got = sim.app_mut(NodeId(i)).unwrap().take_delivered();
            assert_eq!(got.len(), 1, "node {i}");
            assert_eq!(got[0].payload, Bytes::from_static(b"hello"));
            assert!(!got[0].via_repair);
        }
    }

    #[test]
    fn single_drop_is_recovered() {
        let mut sim = chain_session(5, &SrmConfig::fixed(5));
        let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(
            l23,
            NodeId(0),
            flow::DATA,
        )));
        // Packet 0 is dropped on (2,3); packet 1 exposes the gap.
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
        });
        sim.run_until(SimTime::from_secs(1));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
        });
        assert!(sim.run_until_idle(SimTime::from_secs(1000)));
        for i in 3..5u32 {
            let a = sim.app(NodeId(i)).unwrap();
            assert!(a.metrics.all_recovered(), "node {i}");
            assert_eq!(a.store().len(), 2, "node {i} has both ADUs");
        }
        // Exactly one loss episode was logged downstream.
        let recs = &sim.app(NodeId(4)).unwrap().metrics.recoveries;
        assert_eq!(recs.len(), 1);
        assert!(recs.values().next().unwrap().recovered_at.is_some());
    }

    #[test]
    fn chain_recovery_is_deterministic_with_c2_zero() {
        // Section IV-A: C1 = D1 = 1, C2 = D2 = 0 gives deterministic
        // suppression: one request, one repair.
        let mut cfg = SrmConfig::default();
        cfg.timers = TimerParams {
            c1: 1.0,
            c2: 0.0,
            d1: 1.0,
            d2: 0.0,
        };
        let n = 8;
        let mut sim = chain_session(n, &cfg);
        let l = sim.topology().link_between(NodeId(3), NodeId(4)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(l, NodeId(0), flow::DATA)));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
        });
        sim.run_until(SimTime::from_secs(1));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
        });
        assert!(sim.run_until_idle(SimTime::from_secs(1000)));
        let total_requests: u64 = (0..n as u32)
            .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
            .sum();
        let total_repairs: u64 = (0..n as u32)
            .map(|i| sim.app(NodeId(i)).unwrap().metrics.repairs_sent)
            .sum();
        assert_eq!(total_requests, 1, "deterministic suppression: one request");
        assert_eq!(total_repairs, 1, "one repair");
        // The request comes from node 4 (just downstream of the failure).
        assert_eq!(sim.app(NodeId(4)).unwrap().metrics.requests_sent, 1);
        assert_eq!(sim.app(NodeId(3)).unwrap().metrics.repairs_sent, 1);
    }

    #[test]
    fn session_messages_teach_distances() {
        let mut sim = chain_session(3, &SrmConfig::fixed(3));
        // Erase the warm-started distances to exercise real estimation.
        for i in 0..3u32 {
            let a = sim.app_mut(NodeId(i)).unwrap();
            *a.distances_mut() = DistanceEstimator::new(SimDuration::from_secs(1));
        }
        // Two full session rounds: learn timestamps, then echoes.
        for _round in 0..2 {
            for i in 0..3u32 {
                sim.exec(NodeId(i), |a, ctx| a.send_session_now(ctx));
            }
            sim.run_until(sim.now() + SimDuration::from_secs(10));
        }
        let a0 = sim.app(NodeId(0)).unwrap();
        assert_eq!(
            a0.distances().distance_to(SourceId(2)),
            SimDuration::from_secs(2)
        );
        let a2 = sim.app(NodeId(2)).unwrap();
        assert_eq!(
            a2.distances().distance_to(SourceId(1)),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn session_message_detects_tail_loss() {
        let mut sim = chain_session(3, &SrmConfig::fixed(3));
        let l12 = sim.topology().link_between(NodeId(1), NodeId(2)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(
            l12,
            NodeId(0),
            flow::DATA,
        )));
        // The last (only) packet is dropped toward node 2: no later packet
        // will expose the gap; only a session message can.
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"tail"));
        });
        sim.run_until_idle(SimTime::from_secs(50));
        assert_eq!(sim.app(NodeId(2)).unwrap().store().len(), 0);
        // Node 1 (which has the data) announces its state.
        sim.exec(NodeId(1), |a, ctx| a.send_session_now(ctx));
        assert!(sim.run_until_idle(SimTime::from_secs(500)));
        let a2 = sim.app(NodeId(2)).unwrap();
        assert_eq!(a2.store().len(), 1);
        assert!(a2.metrics.all_recovered());
    }

    #[test]
    fn repair_can_come_from_non_source_member() {
        let mut sim = chain_session(4, &SrmConfig::fixed(4));
        // Drop on the last link: nodes 1,2 have the data, node 3 does not.
        let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(
            l23,
            NodeId(0),
            flow::DATA,
        )));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"p0"));
        });
        sim.run_until(SimTime::from_secs(1));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"p1"));
        });
        assert!(sim.run_until_idle(SimTime::from_secs(1000)));
        // With C1=2 scaling by distance, node 2 (distance 1 from node 3)
        // answers before the source can: the repair came from a non-source.
        let repairs_by_2 = sim.app(NodeId(2)).unwrap().metrics.repairs_sent;
        let repairs_by_0 = sim.app(NodeId(0)).unwrap().metrics.repairs_sent;
        assert_eq!(repairs_by_2 + repairs_by_0, 1);
        assert_eq!(repairs_by_2, 1, "nearest holder repairs");
        let d = sim.app_mut(NodeId(3)).unwrap().take_delivered();
        assert!(d.iter().any(|x| x.via_repair));
    }

    #[test]
    fn hold_down_ignores_late_duplicate_requests() {
        let mut sim = chain_session(2, &SrmConfig::fixed(2));
        // Node 0 has data; node 1 will request it twice in quick succession
        // (simulated by feeding two raw request packets).
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"x"));
        });
        sim.run_until_idle(SimTime::from_secs(10));
        // Build a raw request from node 1.
        let name = AduName::new(SourceId(0), page(0), SeqNo(0));
        for _ in 0..2 {
            sim.exec(NodeId(1), |a, ctx| {
                let body = Body::Request(RequestBody {
                    name,
                    dist_to_source: 1.0,
                });
                a.transmit(
                    ctx,
                    body,
                    SendClass::CurrentPageRecovery,
                    SendOptions::for_flow(flow::REQUEST),
                );
            });
        }
        assert!(sim.run_until_idle(SimTime::from_secs(500)));
        let a0 = sim.app(NodeId(0)).unwrap();
        // One repair, and at least one request ignored (pending-repair or
        // hold-down suppression).
        assert_eq!(a0.metrics.repairs_sent, 1);
        // Now a much later request hits the hold-down window only if within
        // 3·d; past it, a new repair goes out. Let the window (3 s at the
        // default 1 s distance) lapse first.
        sim.run_until(sim.now() + SimDuration::from_secs(20));
        sim.exec(NodeId(1), |a, ctx| {
            let body = Body::Request(RequestBody {
                name,
                dist_to_source: 1.0,
            });
            a.transmit(
                ctx,
                body,
                SendClass::CurrentPageRecovery,
                SendOptions::for_flow(flow::REQUEST),
            );
        });
        assert!(sim.run_until_idle(SimTime::from_secs(1000)));
        let a0 = sim.app(NodeId(0)).unwrap();
        assert_eq!(a0.metrics.repairs_sent, 2);
    }

    #[test]
    fn suppressed_holder_answers_a_later_request() {
        // Chain 0 — 1 — 2: nodes 0 and 1 hold the ADU, node 2 asks for it
        // (raw requests, as above).
        let mut sim = chain_session(3, &SrmConfig::fixed(3));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"x"));
        });
        sim.run_until_idle(SimTime::from_secs(10));
        let name = AduName::new(SourceId(0), page(0), SeqNo(0));
        let request = |sim: &mut Simulator<SrmAgent>| {
            sim.exec(NodeId(2), |a, ctx| {
                let body = Body::Request(RequestBody {
                    name,
                    dist_to_source: 2.0,
                });
                a.transmit(
                    ctx,
                    body,
                    SendClass::CurrentPageRecovery,
                    SendOptions::for_flow(flow::REQUEST),
                );
            });
        };
        let believe = |sim: &mut Simulator<SrmAgent>, secs: u64| {
            sim.app_mut(NodeId(1))
                .unwrap()
                .distances_mut()
                .set_distance(SourceId(2), SimDuration::from_secs(secs));
        };
        let repairs = |sim: &Simulator<SrmAgent>| {
            [0, 1].map(|i| sim.app(NodeId(i)).unwrap().metrics.repairs_sent)
        };
        // Round one: node 1 believes the requester far away, so node 0's
        // timer fires first; its repair cancels node 1's timer on the way
        // past and is lost on the last link, at the requester.
        believe(&mut sim, 100);
        let l12 = sim.topology().link_between(NodeId(1), NodeId(2)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(l12, NodeId(0), flow::REPAIR)));
        request(&mut sim);
        assert!(sim.run_until_idle(SimTime::from_secs(500)));
        assert_eq!(repairs(&sim), [1, 0]);
        // Round two, past every hold-down: node 1, nearest again, must
        // answer. Its state from round one is `sent: false, timer: None`,
        // which used to read as "pending" forever.
        believe(&mut sim, 1);
        sim.run_until(sim.now() + SimDuration::from_secs(20));
        request(&mut sim);
        assert!(sim.run_until_idle(SimTime::from_secs(1000)));
        assert_eq!(repairs(&sim), [1, 1], "a holder suppressed once answers the next request");
    }

    #[test]
    fn request_informs_unaware_member() {
        // Node 2 never saw packet 0 or packet 1 (both dropped to it), but
        // hears node 1's request — wait, simpler: craft a request from node
        // 0 for data neither holds; node 1 learns the data exists and joins
        // the recovery (suppressed), eventually recovering when a repair
        // appears. Here we just check the request state is created
        // suppressed (no immediate extra request storm).
        let mut sim = chain_session(3, &SrmConfig::fixed(3));
        let name = AduName::new(SourceId(9), PageId::new(SourceId(9), 0), SeqNo(0));
        sim.exec(NodeId(0), |a, ctx| {
            let body = Body::Request(RequestBody {
                name,
                dist_to_source: 1.0,
            });
            a.transmit(
                ctx,
                body,
                SendClass::CurrentPageRecovery,
                SendOptions::for_flow(flow::REQUEST),
            );
        });
        sim.run_until(SimTime::from_secs(5));
        let a1 = sim.app(NodeId(1)).unwrap();
        assert!(a1.has_pending_recovery());
        let st = a1.episodes[&name].request.as_ref().unwrap();
        assert!(st.backoff_count >= 1, "created already suppressed");
    }

    #[test]
    fn give_up_after_max_rounds() {
        let mut cfg = SrmConfig::fixed(2);
        cfg.max_request_rounds = Some(2);
        let mut sim = chain_session(2, &cfg);
        // Request data that no one has: recovery can never complete.
        let name = AduName::new(SourceId(9), PageId::new(SourceId(9), 0), SeqNo(0));
        sim.exec(NodeId(1), |a, ctx| {
            let missing = a.store.note_exists(name.source, name.page, name.seq);
            a.start_requests(ctx, missing);
        });
        assert!(
            sim.run_until_idle(SimTime::from_secs(10_000)),
            "gave up and went quiet"
        );
        let a1 = sim.app(NodeId(1)).unwrap();
        assert_eq!(a1.metrics.requests_sent, 2);
        let rec = a1.metrics.recoveries.get(&name).unwrap();
        assert!(rec.gave_up);
        assert!(rec.recovered_at.is_none());
    }

    #[test]
    fn periodic_session_messages_flow() {
        let topo = chain(3);
        let mut sim: Simulator<SrmAgent> = Simulator::new(topo, 5);
        for i in 0..3u64 {
            let a = SrmAgent::new(SourceId(i), GROUP, SrmConfig::fixed(3));
            sim.install(NodeId(i as u32), a);
            sim.join(NodeId(i as u32), GROUP);
        }
        sim.run_until(SimTime::from_secs(60));
        for i in 0..3u32 {
            let a = sim.app(NodeId(i)).unwrap();
            assert!(a.metrics.session_sent >= 2, "node {i} sent sessions");
            assert!(a.metrics.session_received >= 2, "node {i} heard sessions");
        }
        // And distances were learned along the way.
        let a0 = sim.app(NodeId(0)).unwrap();
        assert!(a0.distances().has_estimate(SourceId(2)));
    }

    #[test]
    fn the_session_tick_keeps_the_episode_logs_at_their_cap() {
        use crate::metrics::{RecoveryRecord, EPISODE_LOG_CAP};
        let mut sim: Simulator<SrmAgent> = Simulator::new(chain(2), 5);
        for i in 0..2u64 {
            sim.install(NodeId(i as u32), SrmAgent::new(SourceId(i), GROUP, SrmConfig::fixed(2)));
            sim.join(NodeId(i as u32), GROUP);
        }
        // A live node's log, which nobody harvests: 76 records over the cap,
        // all completed.
        let a = sim.app_mut(NodeId(0)).unwrap();
        for seq in 0..(EPISODE_LOG_CAP as u64 + 76) {
            let name = AduName::new(SourceId(1), page(1), SeqNo(seq));
            a.metrics.recoveries.insert(
                name,
                RecoveryRecord {
                    name,
                    detected_at: SimTime::ZERO,
                    recovered_at: Some(SimTime::ZERO),
                    request_delay: None,
                    requests_sent: 0,
                    requests_observed: 0,
                    rtt_to_source: SimDuration::from_secs(2),
                    gave_up: false,
                },
            );
        }
        sim.run_until(SimTime::from_secs(60));
        let a = sim.app(NodeId(0)).unwrap();
        assert!(a.metrics.session_sent >= 1);
        assert_eq!(a.metrics.recoveries.len(), EPISODE_LOG_CAP);
        assert_eq!(a.metrics.episodes_dropped, 76);
    }

    #[test]
    fn page_request_elicits_state_reply() {
        let mut sim = chain_session(3, &SrmConfig::fixed(3));
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"x"));
            a.send_data(ctx, page(0), Bytes::from_static(b"y"));
        });
        sim.run_until_idle(SimTime::from_secs(10));
        // Node 2 "forgets" and asks for the page state; the reply's state
        // report lets a blank node discover and recover the data. Here node
        // 2 already has it, so instead ask from a fresh member simulated by
        // clearing its store... simplest: node 2 asks, nodes 0/1 suppress
        // down to (at least) one session reply.
        sim.exec(NodeId(2), |a, ctx| {
            a.request_page_state(ctx, page(0));
        });
        assert!(sim.run_until_idle(SimTime::from_secs(200)));
        let replies: u64 = (0..2u32)
            .map(|i| sim.app(NodeId(i)).unwrap().metrics.session_sent)
            .sum();
        assert!(replies >= 1, "someone answered the page request");
    }

    #[test]
    fn fec_recovers_single_loss_without_any_request() {
        let mut cfg = SrmConfig::fixed(4);
        cfg.fec = Some(crate::fec::FecConfig { k: 3 });
        let mut sim = chain_session(4, &cfg);
        // Drop the 2nd data packet on the last link; the parity after the
        // 3rd packet reconstructs it locally at nodes 3+.
        let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
        sim.set_loss_model(Box::new(netsim::loss::ScriptedDrop::new(vec![(l23, 2)])));
        for k in 0..3u8 {
            sim.exec(NodeId(0), |a, ctx| {
                a.send_data(ctx, page(0), Bytes::from(vec![k; 5]));
            });
            sim.run_until(sim.now() + SimDuration::from_secs(1));
        }
        assert!(sim.run_until_idle(SimTime::from_secs(1000)));
        let a3 = sim.app(NodeId(3)).unwrap();
        assert_eq!(a3.store().len(), 3, "all three ADUs held");
        assert_eq!(a3.fec_recoveries, 1, "one local parity reconstruction");
        // No request was ever multicast by anyone: the loss never reached
        // the request/repair machinery.
        let requests: u64 = (0..4u32)
            .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
            .sum();
        assert_eq!(requests, 0, "FEC preempted recovery");
        // Payload content is correct (ADU 1 = [1,1,1,1,1]).
        let name = AduName::new(SourceId(0), page(0), SeqNo(1));
        assert_eq!(a3.store().get(&name).unwrap(), Bytes::from(vec![1u8; 5]));
    }

    #[test]
    fn fec_double_loss_falls_back_to_requests() {
        let mut cfg = SrmConfig::fixed(4);
        cfg.fec = Some(crate::fec::FecConfig { k: 3 });
        let mut sim = chain_session(4, &cfg);
        let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
        // Drop packets 1 and 2 of the block toward node 3.
        sim.set_loss_model(Box::new(netsim::loss::ScriptedDrop::new(vec![
            (l23, 1),
            (l23, 2),
        ])));
        for k in 0..3u8 {
            sim.exec(NodeId(0), |a, ctx| {
                a.send_data(ctx, page(0), Bytes::from(vec![k; 5]));
            });
            sim.run_until(sim.now() + SimDuration::from_secs(1));
        }
        assert!(sim.run_until_idle(SimTime::from_secs(10_000)));
        let a3 = sim.app(NodeId(3)).unwrap();
        assert_eq!(a3.store().len(), 3, "recovered via request/repair");
        assert!(a3.metrics.all_recovered());
        let requests: u64 = (0..4u32)
            .map(|i| sim.app(NodeId(i)).unwrap().metrics.requests_sent)
            .sum();
        assert!(requests >= 1, "XOR cannot fix two losses; requests needed");
        // At most one of the two can ever come from parity (after one
        // repair arrives, the block has a single hole and parity may close
        // it) — both paths must compose cleanly.
        assert!(a3.fec_recoveries <= 1);
    }

    #[test]
    fn send_priorities_favor_current_page_recovery() {
        // Section III-E: with a constrained sender, a repair for the
        // current page leaves before queued new data.
        let mut cfg = SrmConfig::fixed(2);
        cfg.rate_limit = Some(crate::config::RateLimit {
            bytes_per_sec: 60.0, // about one message per second
            burst_bytes: 70.0,
        });
        let mut sim = chain_session(2, &cfg);
        // Node 0 holds an ADU node 1 will request.
        sim.exec(NodeId(0), |a, ctx| {
            a.send_data(ctx, page(0), Bytes::from_static(b"x"));
        });
        sim.run_until_idle(SimTime::from_secs(100));
        // Fill node 0's send queue with new data, then a request arrives.
        let name = AduName::new(SourceId(0), page(0), SeqNo(0));
        sim.exec(NodeId(0), |a, ctx| {
            for _ in 0..5 {
                a.send_data(ctx, page(0), Bytes::from(vec![7u8; 40]));
            }
        });
        sim.exec(NodeId(1), |a, ctx| {
            let body = Body::Request(RequestBody {
                name,
                dist_to_source: 1.0,
            });
            a.transmit(
                ctx,
                body,
                SendClass::CurrentPageRecovery,
                SendOptions::for_flow(flow::REQUEST),
            );
        });
        sim.trace.enable();
        assert!(sim.run_until_idle(SimTime::from_secs(10_000)));
        // The repair left node 0 before all the queued new data: find the
        // first REPAIR send and check at least one DATA send follows it.
        let sends: Vec<(u32, f64)> = sim
            .trace
            .events()
            .filter_map(|e| match e {
                netsim::TraceEvent::Send { at, node, flow, .. } if *node == NodeId(0) => {
                    Some((*flow, at.as_secs_f64()))
                }
                _ => None,
            })
            .collect();
        let repair_at = sends
            .iter()
            .find(|(f, _)| *f == flow::REPAIR)
            .map(|&(_, t)| t)
            .expect("a repair was sent");
        let data_after = sends
            .iter()
            .filter(|(f, t)| *f == flow::DATA && *t > repair_at)
            .count();
        assert!(
            data_after >= 1,
            "the repair jumped ahead of queued new data (sends: {sends:?})"
        );
    }

    #[test]
    fn measured_session_bandwidth_tracks_activity() {
        // §III-A "measured adaptively": an idle session sends session
        // messages at the max-interval floor; a busy one speeds up to keep
        // the 5% share of the measured data rate.
        let topo = chain(2);
        let mut sim: Simulator<SrmAgent> = Simulator::new(topo, 33);
        for i in 0..2u64 {
            let mut cfg = SrmConfig::fixed(2);
            cfg.measured_session_bandwidth = true;
            cfg.max_session_interval = SimDuration::from_secs(60);
            let mut a = SrmAgent::new(SourceId(i), GROUP, cfg);
            a.set_current_page(page(0));
            sim.install(NodeId(i as u32), a);
            sim.join(NodeId(i as u32), GROUP);
        }
        // Idle phase: 600 s with no data.
        sim.run_until(SimTime::from_secs(600));
        let idle_msgs = sim.app(NodeId(0)).unwrap().metrics.session_sent;
        assert!(
            idle_msgs <= 15,
            "idle member pinned near the 60s ceiling: {idle_msgs} messages"
        );
        // Busy phase: 300 s of steady 400-byte ADUs every 0.5 s from node 0
        // (~900 B/s on the wire).
        for k in 0..600u32 {
            sim.exec(NodeId(0), |a, ctx| {
                a.send_data(ctx, page(0), Bytes::from(vec![k as u8; 400]));
            });
            sim.run_until(sim.now() + SimDuration::from_secs_f64(0.5));
        }
        let busy_msgs = sim.app(NodeId(0)).unwrap().metrics.session_sent - idle_msgs;
        // Idle pace would give ~5 messages in 300 s; the busy session must
        // clearly outpace that.
        assert!(
            busy_msgs as f64 > 3.0 * (idle_msgs as f64 / 2.0),
            "busy period sends session messages faster: busy {busy_msgs}/300s vs idle {idle_msgs}/600s"
        );
        // And the measured bandwidth reads a sane value (~900 B/s data).
        let now = sim.now();
        let bw = sim.app_mut(NodeId(0)).unwrap().measured_data_bandwidth(now);
        assert!(bw > 300.0 && bw < 3000.0, "measured {bw} B/s");
    }

    #[test]
    fn rate_limiter_paces_data() {
        let mut cfg = SrmConfig::fixed(2);
        cfg.rate_limit = Some(crate::config::RateLimit {
            bytes_per_sec: 100.0,
            burst_bytes: 120.0,
        });
        let mut sim = chain_session(2, &cfg);
        // Queue 5 ADUs of ~60 bytes each at t=0; they must not all leave
        // immediately.
        sim.exec(NodeId(0), |a, ctx| {
            for _ in 0..5 {
                a.send_data(ctx, page(0), Bytes::from_static(b"0123456789"));
            }
        });
        sim.trace.enable();
        assert!(sim.run_until_idle(SimTime::from_secs(60)));
        let a1 = sim.app(NodeId(1)).unwrap();
        assert_eq!(a1.store().len(), 5, "all data eventually delivered");
        // Deliveries are spread over time, not all at t=1.
        let times: Vec<f64> = sim
            .trace
            .events()
            .filter_map(|e| match e {
                netsim::TraceEvent::Deliver { at, .. } => Some(at.as_secs_f64()),
                _ => None,
            })
            .collect();
        let span = times.iter().cloned().fold(f64::MIN, f64::max)
            - times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(span > 1.0, "sends were paced (span {span})");
    }
}
