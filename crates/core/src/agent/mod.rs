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
//!
//! The code follows the paper's sections, one file each: this one holds the
//! struct, the public API and the `drive_*` dispatch; `outbox.rs` the send
//! path (§III-E); `request.rs` loss detection and the request side of §III-B;
//! `repair.rs` its repair side and the hold-down; `session.rs` session
//! messages, page replies and catalogs (§III-A); `local.rs` recovery groups,
//! scoped requests and repairs (§VII-B) and the FEC hooks; `lifecycle.rs`
//! crash, restart and rehydrate.

mod lifecycle;
mod local;
mod outbox;
mod repair;
mod request;
mod session;

use crate::adaptive::AdaptiveTimers;
use crate::clock::DistanceEstimator;
use crate::config::{SrmConfig, TimerParams, FINGERPRINT_LEN};
use crate::driver::Driver;
use crate::fec::{Parity, ParityEncoder};
use crate::hierarchy::HierarchyState;
use crate::local::{LossFingerprint, NeighborhoodView};
use crate::metrics::AgentMetrics;
use crate::name::{AduName, PageId, SeqNo, SourceId};
use crate::recovery::{Episode, TimerHandle};
use crate::sendq::SendClass;
use crate::session::SessionScheduler;
use crate::store::AduStore;
use crate::wire::{Body, DataBody, Message, PageRequestBody};
use bytes::Bytes;
use netsim::{flow, Application, Ctx, GroupId, Packet, SendOptions, SimDuration, SimTime};
use outbox::Outbox;
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

    /// Cancel the timer `h`, if one is armed.
    fn disarm(&mut self, ctx: &mut dyn Driver, h: Option<TimerHandle>) {
        if let Some(h) = h {
            ctx.cancel_timer(h.id);
            self.purposes.remove(&h.token);
        }
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
    timers: Timers,
    scheduler: SessionScheduler,
    /// Whether periodic session messages run (experiments that measure a
    /// single clean recovery round turn them off and warm distances
    /// explicitly).
    pub session_enabled: bool,
    /// The send path: queue, token bucket, encode buffer, data meter.
    outbox: Outbox,
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
}

impl SrmAgent {
    /// Create an agent for member `id` in `group`.
    pub fn new(id: SourceId, group: GroupId, cfg: SrmConfig) -> Self {
        SrmAgent {
            id,
            group,
            est: DistanceEstimator::new(cfg.default_distance),
            adaptive: cfg.adaptive.then(|| AdaptiveTimers::new(cfg.timers)),
            current_page: PageId::new(id, 0),
            next_seq: BTreeMap::new(),
            episodes: BTreeMap::new(),
            hold_downs: VecDeque::new(),
            page_reply_timers: BTreeMap::new(),
            timers: Timers::default(),
            scheduler: SessionScheduler::default(),
            session_enabled: true,
            outbox: Outbox::new(id, cfg.rate_limit),
            fingerprint: LossFingerprint::new(FINGERPRINT_LEN),
            neighborhood: NeighborhoodView::default(),
            losses_detected: 0,
            unique_data_received: 0,
            delivered: Vec::new(),
            metrics: AgentMetrics::default(),
            obs: obs::Recorder::new(),
            transport_obs: obs::TransportLog::new(),
            liveness: crate::liveness::PeerLiveness::new(),
            recovery_group: None,
            invite_timer: None,
            created_recovery_group: false,
            fec_enc: cfg.fec.map(|f| ParityEncoder::new(f.k)),
            parities: BTreeMap::new(),
            hier: cfg.session_hierarchy.map(HierarchyState::new),
            catalog_reply_timer: None,
            discovered_pages: Vec::new(),
            rejoining: false,
            store: AduStore::new(),
            cfg,
        }
    }

    /// Current measured aggregate data bandwidth (bytes/second), trailing
    /// 30 s window over data and repairs this member sent or heard.
    pub fn measured_data_bandwidth(&mut self, now: SimTime) -> f64 {
        self.outbox.data_meter.rate(now)
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
    /// against the session-bandwidth budget: [`crate::config::SESSION_MSG_BYTES`]
    /// until the first session message goes out, then the last emitted
    /// message's encoded on-wire length.
    pub fn session_msg_bytes(&self) -> f64 {
        self.scheduler.msg_bytes
    }

    /// Drain ADUs delivered to the application since the last call.
    pub fn take_delivered(&mut self) -> Vec<Delivery> {
        std::mem::take(&mut self.delivered)
    }

    /// ADUs handed to the application so far, whether or not they have
    /// been taken or discarded since.
    pub fn deliveries(&self) -> u64 {
        self.unique_data_received
    }

    /// Discard the ADUs delivered since the last call, keeping the queue's
    /// allocation for the next ones; how many there were.
    pub fn discard_delivered(&mut self) -> usize {
        let n = self.delivered.len();
        self.delivered.clear();
        n
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

    /// Send `body` to the session group (see `Outbox::transmit_to`).
    fn transmit(&mut self, ctx: &mut dyn Driver, body: Body, class: SendClass, opts: SendOptions) {
        self.outbox.transmit_to(ctx, &mut self.timers, self.group, body, class, opts);
    }
}

/// The live timer parameters: adaptive if enabled, else the fixed ones.
fn live_params(adaptive: &Option<AdaptiveTimers>, cfg: &SrmConfig) -> TimerParams {
    adaptive.as_ref().map_or(cfg.timers, |a| a.params)
}

/// An episode's first request (or repair) event, sent or heard, ends its
/// request (repair) delay: `feed` the adaptive timers that delay over the
/// round trip `2·dist`.
fn sample_delay(
    adaptive: &mut Option<AdaptiveTimers>,
    first: bool,
    delay: Option<SimDuration>,
    dist: SimDuration,
    feed: fn(&mut AdaptiveTimers, f64),
) {
    let rtt = dist.as_secs_f64() * 2.0;
    if let (true, Some(d), Some(a)) = (first, delay, adaptive.as_mut()) {
        if rtt > 0.0 {
            feed(a, d.as_secs_f64() / rtt);
        }
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

    /// A packet addressed to a group this member has joined arrived.
    pub fn drive_packet(&mut self, ctx: &mut dyn Driver, pkt: &Packet) {
        match Message::decode(pkt.payload.clone()) {
            Ok(msg) => self.drive_message(ctx, pkt, &msg),
            Err(_) => {
                self.retire_expired(ctx.now());
                self.metrics.decode_errors += 1;
            }
        }
    }

    /// [`SrmAgent::drive_packet`] for a caller that has already decoded
    /// `pkt`'s payload into `msg`.
    pub fn drive_message(&mut self, ctx: &mut dyn Driver, pkt: &Packet, msg: &Message) {
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
        let hdr = &msg.header;
        match &msg.body {
            Body::Data(d) => self.handle_data(ctx, pkt, hdr, d),
            Body::Request(r) => self.handle_request(ctx, pkt, hdr, r),
            Body::Session(s) => self.handle_session(ctx, pkt, hdr, s),
            Body::PageRequest(p) => self.handle_page_request(ctx, hdr, p.page),
            Body::Parity(p) => self.handle_parity(ctx, p),
            Body::RecoveryInvite(i) => self.handle_recovery_invite(ctx, i.group),
            Body::PageCatalogRequest => self.handle_catalog_request(ctx, hdr),
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
                self.outbox.rate_gate = None;
                self.outbox.drain_sendq(ctx, &mut self.timers);
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
            Some(Some(msg)) => self.drive_message(ctx, pkt, msg),
            _ => self.drive_packet(ctx, pkt),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.drive_timer(ctx, token);
    }
}

#[cfg(test)]
mod tests;
