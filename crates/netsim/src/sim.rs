//! The discrete-event simulator.
//!
//! [`Simulator`] owns a [`Topology`], a set of per-node applications (only
//! session members need one — interior routers are pure forwarders), group
//! membership, a [`LossModel`], and the event queue. Packets are forwarded
//! hop by hop along the shortest-path tree rooted at the transmitting node,
//! pruned to subtrees containing group members (DVMRP-style), honoring TTL
//! thresholds and administrative scope boundaries at each hop.
//!
//! Applications interact with the world exclusively through [`Ctx`]: they
//! multicast packets, join/leave groups, and set or cancel timers. All
//! effects are buffered as actions and applied when the handler returns,
//! which keeps handlers simple and the simulation deterministic.

use crate::effects::{ChannelEffects, Ideal};
use crate::event::{Arrivals, Deadline, EventKind, EventQueue, TimerId, TimerMap};
use crate::faults::{FaultEvent, FaultPlan, NodeClock};
use crate::loss::{LossModel, NoLoss};
use crate::packet::{GroupId, Packet, PacketBody, PacketId, SendOptions};
use crate::routing::{SpTree, SptCache};
use crate::log::EventLog;
use crate::stats::{Stats, TraceEvent};
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, Topology};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

/// A protocol agent living on one node.
///
/// Handlers receive a [`Ctx`] through which all side effects flow.
pub trait Application {
    /// Called once when the simulation starts (before any event fires).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to a group this node has joined arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet);

    /// A previously set timer fired. `token` is the value passed to
    /// [`Ctx::set_timer`].
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// The node's host crashed ([`crate::FaultEvent::NodeCrash`]): all
    /// protocol state is lost. Implementations should reset themselves to
    /// their just-constructed state (no [`Ctx`] — a dead host takes no
    /// actions). Pending timers and group memberships are discarded by the
    /// simulator itself.
    fn on_crash(&mut self) {}

    /// The node's host came back up ([`crate::FaultEvent::NodeRestart`]).
    /// Defaults to running [`Application::on_start`] again — protocols can
    /// override to rejoin as a late joiner.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.on_start(ctx);
    }
}

/// Buffered side effect of an application handler.
#[derive(Debug)]
enum Action {
    Multicast {
        group: GroupId,
        payload: Bytes,
        opts: SendOptions,
    },
    Unicast {
        dest: NodeId,
        payload: Bytes,
        opts: SendOptions,
    },
    Join(GroupId),
    Leave(GroupId),
    SetTimer {
        at: SimTime,
        id: TimerId,
        token: u64,
    },
    CancelTimer(TimerId),
}

/// The application's window onto the simulator.
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The node this handler runs on.
    pub node: NodeId,
    local_now: SimTime,
    rng: &'a mut StdRng,
    actions: &'a mut Vec<(NodeId, Action)>,
    next_timer: &'a mut u64,
}

impl Ctx<'_> {
    /// Deterministic per-simulation random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// This node's *local* reading of the current time. Identical to
    /// [`Ctx::now`] unless a clock fault ([`crate::FaultEvent::ClockSkew`] /
    /// [`crate::FaultEvent::ClockDrift`]) is in effect on this node.
    /// Protocols should stamp outgoing timestamps with this, so clock faults
    /// are visible to their peers the way NTP error would be.
    pub fn local_now(&self) -> SimTime {
        self.local_now
    }

    /// Multicast `payload` to `group` with default options (global TTL).
    pub fn multicast(&mut self, group: GroupId, payload: Bytes) {
        self.multicast_with(group, payload, SendOptions::default());
    }

    /// Multicast with explicit TTL / scope / flow options.
    pub fn multicast_with(&mut self, group: GroupId, payload: Bytes, opts: SendOptions) {
        self.actions.push((
            self.node,
            Action::Multicast {
                group,
                payload,
                opts,
            },
        ));
    }

    /// Send `payload` to a single node along the shortest path (hop by hop,
    /// subject to loss). SRM itself never unicasts — this exists for the
    /// sender-based baseline protocols of Section II-A and the unicast-NACK
    /// comparison of Section VI \[29\].
    pub fn unicast(&mut self, dest: NodeId, payload: Bytes, opts: SendOptions) {
        self.actions
            .push((self.node, Action::Unicast { dest, payload, opts }));
    }

    /// Join a multicast group (takes effect after the handler returns).
    pub fn join(&mut self, group: GroupId) {
        self.actions.push((self.node, Action::Join(group)));
    }

    /// Leave a multicast group.
    pub fn leave(&mut self, group: GroupId) {
        self.actions.push((self.node, Action::Leave(group)));
    }

    /// Arm a one-shot timer `delay` from now; `token` is returned to
    /// [`Application::on_timer`]. The returned [`TimerId`] can cancel it.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.actions.push((
            self.node,
            Action::SetTimer {
                at: self.now + delay,
                id,
                token,
            },
        ));
        id
    }

    /// Cancel a pending timer. Cancelling an already-fired timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push((self.node, Action::CancelTimer(id)));
    }
}

/// Per-(source, group) forwarding state, computed once per membership
/// version: `member[v]` says whether node `v` is in the group (the
/// delivery check), and [`GroupMasks::fan`] lists the SPT children of `v`
/// whose subtrees contain a member (the DVMRP-pruned fan-out), so a hop
/// reads one `Vec` probe and one slice in place of BTree lookups and a
/// walk over every child.
pub(crate) struct GroupMasks {
    pub(crate) member: Vec<bool>,
    /// `fan[start[v]..start[v + 1]]` is node `v`'s pruned fan-out.
    start: Vec<u32>,
    fan: Vec<(NodeId, LinkId)>,
}

impl GroupMasks {
    /// The tree children `v` forwards to, in child-id order.
    pub(crate) fn fan(&self, v: NodeId) -> &[(NodeId, LinkId)] {
        &self.fan[self.start[v.index()] as usize..self.start[v.index() + 1] as usize]
    }
}

/// Pruned-forwarding masks keyed by (source, group), tagged with the
/// membership version they were computed under.
type PruneCache = HashMap<(u32, u32), (u64, Rc<GroupMasks>)>;

/// The discrete-event simulator. Generic over the application type.
pub struct Simulator<A: Application> {
    topo: Topology,
    apps: Vec<Option<A>>,
    groups: BTreeMap<GroupId, BTreeSet<NodeId>>,
    membership_version: u64,
    queue: EventQueue,
    loss: Box<dyn LossModel>,
    /// Cached `loss.is_transparent()`: lets `cross_link` skip the virtual
    /// drop call entirely for the default [`NoLoss`] model.
    loss_transparent: bool,
    effects: Box<dyn ChannelEffects>,
    /// Cached `effects.is_ideal()`: the [`Ideal`] channel needs no
    /// copies/jitter calls per crossing.
    effects_ideal: bool,
    spt: SptCache,
    prune_cache: PruneCache,
    /// One-entry memo over `prune_cache`: consecutive hops of one fan-out
    /// all resolve the same (source, group) key, so this skips even the
    /// hash probe on the per-hop path.
    mask_memo: Option<((u32, u32), u64, Rc<GroupMasks>)>,
    rng: StdRng,
    now: SimTime,
    next_timer: u64,
    /// Timers set and neither fired nor cancelled, with the owning node's
    /// epoch when each was set: setting inserts, cancelling removes, and a
    /// timer popped off the queue fires only if it is still here and the
    /// node has not crashed since (a crash bumps the node's epoch).
    live_timers: TimerMap<u64>,
    next_packet: u64,
    actions: Vec<(NodeId, Action)>,
    /// The copies the batch being walked has forwarded and not yet queued:
    /// one group per arrival instant, in the order the groups were begun.
    arrivals: Vec<(SimTime, Packet, Arrivals)>,
    /// Emptied arrival lists, reused so that queueing a batch allocates
    /// nothing once the run is warm.
    spare: Vec<Arrivals>,
    /// Traffic counters.
    pub stats: Stats,
    /// Optional event log (see [`EventLog::enable`]).
    pub trace: EventLog<TraceEvent>,
    started: bool,
    // --- fault state (see crate::faults) ---
    seed: u64,
    link_up: Vec<bool>,
    node_up: Vec<bool>,
    node_epoch: Vec<u64>,
    clocks: Vec<NodeClock>,
    bursts: Vec<ActiveBurst>,
    /// Earliest `until` among `bursts` (`SimTime::MAX` when empty): expired
    /// bursts are purged only when `now` passes this, not on every packet.
    burst_min_until: SimTime,
    plan: Vec<(SimTime, FaultEvent)>,
    partition_cut: Vec<LinkId>,
}

/// A live [`FaultEvent::LossBurst`] episode with its own RNG stream.
struct ActiveBurst {
    link: Option<LinkId>,
    p: f64,
    until: SimTime,
    rng: StdRng,
}

impl<A: Application> Simulator<A> {
    /// Build a simulator over `topo` with the given RNG seed and no loss.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Self::with_routes(topo, seed, SptCache::new())
    }

    /// [`Simulator::new`], keeping the trees `routes` already holds: a
    /// builder that needs a tree before the simulator exists (to pick a
    /// link on it) hands it over instead of having it computed twice.
    /// `routes` must have been filled over `topo` with every link up.
    pub fn with_routes(topo: Topology, seed: u64, routes: SptCache) -> Self {
        let links = topo.num_links();
        let nodes = topo.num_nodes();
        Simulator {
            topo,
            apps: Vec::new(),
            groups: BTreeMap::new(),
            membership_version: 0,
            queue: EventQueue::default(),
            loss: Box::new(NoLoss),
            loss_transparent: true,
            effects: Box::new(Ideal),
            effects_ideal: true,
            spt: routes,
            prune_cache: HashMap::new(),
            mask_memo: None,
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            next_timer: 0,
            live_timers: HashMap::default(),
            next_packet: 0,
            actions: Vec::new(),
            arrivals: Vec::new(),
            spare: Vec::new(),
            stats: Stats::new(links),
            trace: EventLog::default(),
            started: false,
            seed,
            link_up: vec![true; links],
            node_up: vec![true; nodes],
            node_epoch: vec![0; nodes],
            clocks: vec![NodeClock::default(); nodes],
            bursts: Vec::new(),
            burst_min_until: SimTime::MAX,
            plan: Vec::new(),
            partition_cut: Vec::new(),
        }
    }

    /// Install a [`FaultPlan`]: every scripted event is scheduled on the
    /// ordinary event queue, so faulted runs stay deterministic. Call before
    /// (or during) the run; events in the past of `now` fire immediately on
    /// the next step.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let base = self.plan.len();
        for (i, (at, ev)) in plan.events.into_iter().enumerate() {
            self.queue
                .push(at.max(self.now), EventKind::Fault { index: base + i });
            self.plan.push((at, ev));
        }
    }

    /// Whether `node`'s application host is currently up.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.node_up[node.index()]
    }

    /// `node`'s local reading of instant `at` (see [`Ctx::local_now`]).
    pub fn local_time(&self, node: NodeId, at: SimTime) -> SimTime {
        self.clocks[node.index()].local_time(at)
    }

    /// Replace the loss model.
    pub fn set_loss_model(&mut self, m: Box<dyn LossModel>) {
        self.loss_transparent = m.is_transparent();
        self.loss = m;
    }

    /// Replace the channel-effects model (duplication / reordering jitter).
    pub fn set_channel_effects(&mut self, e: Box<dyn ChannelEffects>) {
        self.effects_ideal = e.is_ideal();
        self.effects = e;
    }

    /// The topology under simulation.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The shortest-path tree rooted at `root` over the links up now: the
    /// very tree forwarding uses, computed on first use and shared after.
    pub fn route(&mut self, root: NodeId) -> Rc<SpTree> {
        self.spt.get_masked(&self.topo, root, Some(&self.link_up))
    }

    /// How many shortest-path trees this simulator has computed (a link
    /// going down or up drops them all, and they are computed again).
    pub fn routes_computed(&self) -> u64 {
        self.spt.computed()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Install an application on `node`. Replaces any existing one.
    pub fn install(&mut self, node: NodeId, app: A) {
        if self.apps.len() <= node.index() {
            self.apps.resize_with(self.topo.num_nodes(), || None);
        }
        self.apps[node.index()] = Some(app);
    }

    /// Shared access to the application on `node`, if any.
    pub fn app(&self, node: NodeId) -> Option<&A> {
        self.apps.get(node.index()).and_then(|a| a.as_ref())
    }

    /// Mutable access to the application on `node`, if any.
    ///
    /// Use [`Simulator::exec`] instead when the application needs a [`Ctx`].
    pub fn app_mut(&mut self, node: NodeId) -> Option<&mut A> {
        self.apps.get_mut(node.index()).and_then(|a| a.as_mut())
    }

    /// Every installed application, by ascending node.
    pub fn apps(&self) -> impl Iterator<Item = &A> {
        self.apps.iter().flatten()
    }

    /// Every installed application, mutably, by ascending node.
    pub fn apps_mut(&mut self) -> impl Iterator<Item = &mut A> {
        self.apps.iter_mut().flatten()
    }

    /// Nodes with an installed application, ascending.
    pub fn app_nodes(&self) -> Vec<NodeId> {
        self.apps
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|_| NodeId(i as u32)))
            .collect()
    }

    /// Subscribe `node` to `group` (simulator-level; apps can also join via
    /// [`Ctx::join`]).
    pub fn join(&mut self, node: NodeId, group: GroupId) {
        if self.groups.entry(group).or_default().insert(node) {
            self.membership_version += 1;
        }
    }

    /// Unsubscribe `node` from `group`.
    pub fn leave(&mut self, node: NodeId, group: GroupId) {
        if let Some(set) = self.groups.get_mut(&group) {
            if set.remove(&node) {
                self.membership_version += 1;
            }
        }
    }

    /// Current members of `group`, ascending.
    pub fn members(&self, group: GroupId) -> Vec<NodeId> {
        self.groups
            .get(&group)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Run `f` on the application at `node` with a live [`Ctx`], applying
    /// any actions it takes. This is how experiment drivers inject work
    /// ("the source now multicasts packet k").
    ///
    /// # Panics
    /// Panics if `node` has no application.
    pub fn exec<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_>) -> R) -> R {
        self.ensure_started();
        assert!(
            self.node_up[node.index()],
            "exec on crashed node {node:?} (restart it first)"
        );
        let app = self.apps[node.index()]
            .as_mut()
            .unwrap_or_else(|| panic!("no application installed on {node:?}"));
        let mut ctx = Ctx {
            now: self.now,
            node,
            local_now: self.clocks[node.index()].local_time(self.now),
            rng: &mut self.rng,
            actions: &mut self.actions,
            next_timer: &mut self.next_timer,
        };
        let r = f(app, &mut ctx);
        self.apply_actions();
        r
    }

    /// Inject a multicast transmission from `node` without going through an
    /// application handler.
    pub fn send_from(&mut self, node: NodeId, group: GroupId, payload: Bytes, opts: SendOptions) {
        self.originate(node, None, group, payload, opts);
    }

    /// Inject a unicast transmission from `node` to `dest`.
    pub fn send_unicast_from(
        &mut self,
        node: NodeId,
        dest: NodeId,
        payload: Bytes,
        opts: SendOptions,
    ) {
        self.originate(node, Some(dest), GroupId(u32::MAX), payload, opts);
    }

    /// Process one queue entry: a timer, a fault, or one transmission's
    /// copies arriving at one instant. Returns `false` when the queue is
    /// empty.
    ///
    /// A flood goes on the queue one arrival instant at a time. Walking a
    /// batch, each copy is delivered and forwarded as if it had popped on
    /// its own; the copies it forwards collect into one group per arrival
    /// instant, and each group is queued as one entry: at the end of the
    /// batch, or earlier, just before a handler's send or timer is queued
    /// for the group's instant. The queue pops in `(at, seq)` order, and
    /// only same-instant entries compare by `seq`; nothing else due at a
    /// group's instant is queued while the group fills, so every
    /// same-instant pair keeps the order that one entry per copy gave it,
    /// and a batch pops where its first copy would have. The simulation is
    /// the same function of its seed as with one entry per copy.
    ///
    /// A handler that panics drops the rest of its batch and the copies the
    /// batch had forwarded but not queued.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        self.arrivals.clear();
        let Some(Deadline { at, item: kind, .. }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        match kind {
            EventKind::Hop { pkt, to } => self.process_batch(pkt, to),
            EventKind::Timer { node, id, token } => {
                self.stats.events += 1;
                // Cancelled timers are gone from the map; one armed before
                // a crash must not fire after the restart either: its epoch
                // no longer matches the node's.
                if self.live_timers.remove(&id) == Some(self.node_epoch[node.index()]) {
                    self.dispatch(node, |app, ctx| app.on_timer(ctx, token));
                }
            }
            EventKind::Fault { index } => {
                self.stats.events += 1;
                self.apply_fault(index);
            }
        }
        true
    }

    /// Process every event due at or before `limit`, then set `now` to
    /// `limit`. Events after `limit` stay pending.
    pub fn run_until(&mut self, limit: SimTime) {
        self.ensure_started();
        while let Some(t) = self.queue.peek().map(|e| e.at) {
            if t > limit {
                break;
            }
            self.step();
        }
        if self.now < limit {
            self.now = limit;
        }
    }

    /// Run until the queue is empty, bailing out after `limit`.
    ///
    /// Returns `true` if the queue drained, `false` if the limit was hit.
    pub fn run_until_idle(&mut self, limit: SimTime) -> bool {
        self.ensure_started();
        loop {
            match self.queue.peek().map(|e| e.at) {
                None => return true,
                Some(t) if t > limit => return false,
                Some(_) => {
                    self.step();
                }
            }
        }
    }

    /// Queued entries (for tests and debugging): timers, faults, and
    /// batches of copies of one transmission arriving at one instant.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Timers set and neither fired nor cancelled (those of a crashed node
    /// stay counted until their time comes).
    pub fn live_timers(&self) -> usize {
        self.live_timers.len()
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        if self.apps.len() < self.topo.num_nodes() {
            self.apps.resize_with(self.topo.num_nodes(), || None);
        }
        for i in 0..self.apps.len() {
            if self.apps[i].is_some() {
                self.dispatch(NodeId(i as u32), |app, ctx| app.on_start(ctx));
            }
        }
    }

    /// Call an app handler and then apply its actions. No-op on a node
    /// whose host is down or that has no application. The application is
    /// borrowed where it sits, beside the fields the [`Ctx`] borrows.
    fn dispatch(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_>)) {
        if !self.node_up[node.index()] {
            return;
        }
        let Some(app) = self.apps[node.index()].as_mut() else {
            return;
        };
        let mut ctx = Ctx {
            now: self.now,
            node,
            local_now: self.clocks[node.index()].local_time(self.now),
            rng: &mut self.rng,
            actions: &mut self.actions,
            next_timer: &mut self.next_timer,
        };
        f(app, &mut ctx);
        self.apply_actions();
    }

    fn apply_actions(&mut self) {
        // Nothing below calls a handler, so the buffer can be lent out for
        // the loop and handed back empty with its capacity.
        let mut actions = std::mem::take(&mut self.actions);
        for (node, a) in actions.drain(..) {
            match a {
                Action::Multicast {
                    group,
                    payload,
                    opts,
                } => self.originate(node, None, group, payload, opts),
                Action::Unicast { dest, payload, opts } => {
                    self.originate(node, Some(dest), GroupId(u32::MAX), payload, opts)
                }
                Action::Join(g) => self.join(node, g),
                Action::Leave(g) => self.leave(node, g),
                Action::SetTimer { at, id, token } => {
                    // Remember the node's epoch so the timer dies with a
                    // crash (see EventKind::Timer handling in step()).
                    self.live_timers.insert(id, self.node_epoch[node.index()]);
                    self.queue_arrivals_at(at);
                    self.queue.push(at, EventKind::Timer { node, id, token });
                }
                Action::CancelTimer(id) => {
                    self.live_timers.remove(&id);
                }
            }
        }
        self.actions = actions;
    }

    fn originate(
        &mut self,
        node: NodeId,
        dest: Option<NodeId>,
        group: GroupId,
        payload: Bytes,
        opts: SendOptions,
    ) {
        let id = PacketId(self.next_packet);
        self.next_packet += 1;
        let size = if opts.size == 0 {
            payload.len() as u32
        } else {
            opts.size
        };
        let pkt = Packet::new(
            opts.ttl,
            PacketBody {
                id,
                src: node,
                group,
                dest,
                initial_ttl: opts.ttl,
                admin_scoped: opts.admin_scoped,
                flow: opts.flow,
                size,
                payload,
            },
        );
        self.stats.record_send(opts.flow);
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent::Send {
                at: self.now,
                node,
                pkt: id,
                flow: opts.flow,
            });
        }
        // Enter the forwarding engine at the origin node "now".
        let mut to = self.spare.pop().unwrap_or_default();
        to.push((node, opts.ttl));
        self.queue_arrivals_at(self.now);
        self.queue.push_fifo(self.now, EventKind::Hop { pkt, to });
    }

    /// Walk one transmission's copies arriving now (see [`Simulator::step`]),
    /// then queue the copies they forwarded.
    fn process_batch(&mut self, mut pkt: Packet, mut to: Arrivals) {
        let mut masks = None;
        for &(node, ttl) in &to {
            self.stats.events += 1;
            pkt.ttl = ttl;
            match pkt.dest {
                Some(dest) => self.process_unicast_hop(node, dest, &pkt),
                None => self.process_hop(node, &pkt, &mut masks),
            }
        }
        to.clear();
        self.spare.push(to);
        for (at, pkt, to) in self.arrivals.drain(..) {
            self.queue.push_fifo(at, EventKind::Hop { pkt, to });
        }
    }

    /// Deliver and forward one multicast copy. `masks` holds the batch's
    /// [`GroupMasks`] once a copy has needed them.
    fn process_hop(&mut self, node: NodeId, pkt: &Packet, masks: &mut Option<Rc<GroupMasks>>) {
        // Deliver to the local application if this node is a member of the
        // group (the origin does not loop its own packets back up).
        if node != pkt.src {
            let m = masks.get_or_insert_with(|| self.group_masks(pkt.src, pkt.group));
            if m.member[node.index()] && self.apps.get(node.index()).is_some_and(|a| a.is_some()) {
                self.deliver(node, pkt);
                // Re-resolve after delivery: the handler may have joined or
                // left a group, and forwarding must see the post-delivery
                // membership. The memo makes this a version check when
                // nothing changed.
                *masks = Some(self.group_masks(pkt.src, pkt.group));
            }
        }
        // Forward along the source-rooted shortest-path tree over the
        // currently-up links, pruned to subtrees containing members.
        if pkt.ttl == 0 {
            return;
        }
        let masks = masks.get_or_insert_with(|| self.group_masks(pkt.src, pkt.group));
        for &(child, link) in masks.fan(node) {
            self.cross_link(node, child, link, pkt);
        }
    }

    /// Forward a unicast packet one hop toward `dest` (or deliver it).
    fn process_unicast_hop(&mut self, node: NodeId, dest: NodeId, pkt: &Packet) {
        if node == dest {
            if self.apps.get(node.index()).is_some_and(|a| a.is_some()) {
                self.deliver(node, pkt);
            }
            return;
        }
        if pkt.ttl == 0 {
            return;
        }
        // The next hop toward `dest` is this node's parent in the SPT
        // rooted at `dest` (links are symmetric).
        let tree = self.route(dest);
        let Some((next, link)) = tree.parent(node) else {
            return; // unreachable destination
        };
        self.cross_link(node, next, link, pkt);
    }

    fn deliver(&mut self, node: NodeId, pkt: &Packet) {
        if !self.node_up[node.index()] {
            return; // crashed host: packet falls on the floor
        }
        self.stats.record_delivery(pkt.flow);
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent::Deliver {
                at: self.now,
                node,
                pkt: pkt.id,
                flow: pkt.flow,
            });
        }
        self.dispatch(node, |app, ctx| app.on_packet(ctx, pkt));
    }

    /// Apply TTL/scope/loss/effects and add the packet's arrival(s) at the
    /// far end of `link` to the batch's groups.
    fn cross_link(&mut self, node: NodeId, next: NodeId, link: crate::topology::LinkId, pkt: &Packet) {
        let l = self.topo.link(link);
        // mrouted convention: forward iff the current TTL clears the link
        // threshold; the crossing decrements it (Section VII-B3).
        if pkt.ttl < l.threshold || pkt.ttl == 0 {
            return;
        }
        if pkt.admin_scoped && self.topo.zone(node) != self.topo.zone(next) {
            return; // administrative scope boundary (Section VII-B1)
        }
        if !self.link_up[link.index()] {
            // A down link drops everything offered to it (the packet was
            // routed here before the failure took effect).
            self.stats.record_drop(link);
            if self.trace.is_enabled() {
                self.trace.record(TraceEvent::Drop {
                    at: self.now,
                    link,
                    pkt: pkt.id,
                });
            }
            return;
        }
        // Evaluate the loss model AND every active burst unconditionally so
        // each RNG stream advances identically regardless of who drops first
        // (same pattern as loss::Composite). Transparent models ([`NoLoss`])
        // consume no randomness, so skipping the virtual call is exact.
        let mut dropped = if self.loss_transparent {
            false
        } else {
            self.loss.should_drop(self.now, link, node, next, pkt)
        };
        if !self.bursts.is_empty() {
            // Expired bursts were never shown to the per-packet loop (the
            // old code retained first), so purge exactly when one *could*
            // have expired — `now` past the earliest deadline — instead of
            // rescanning per packet per hop. RNG draws are unchanged: a
            // burst's stream only ever advances while it is live.
            let now = self.now;
            if now >= self.burst_min_until {
                self.bursts.retain(|b| now < b.until);
                self.burst_min_until = self
                    .bursts
                    .iter()
                    .map(|b| b.until)
                    .min()
                    .unwrap_or(SimTime::MAX);
            }
            for b in &mut self.bursts {
                if (b.link.is_none() || b.link == Some(link)) && b.rng.random_bool(b.p) {
                    dropped = true;
                }
            }
        }
        if dropped {
            self.stats.record_drop(link);
            if self.trace.is_enabled() {
                self.trace.record(TraceEvent::Drop {
                    at: self.now,
                    link,
                    pkt: pkt.id,
                });
            }
            return;
        }
        let delay = l.delay;
        // The ideal channel delivers exactly one copy with zero jitter and
        // draws no randomness — skip both virtual calls on that fast path.
        let copies = if self.effects_ideal {
            1
        } else {
            self.effects.copies(self.now, link, node, next, pkt).max(1)
        };
        for _ in 0..copies {
            let jitter = if self.effects_ideal {
                SimDuration::ZERO
            } else {
                self.effects.jitter(self.now, link, node, next, pkt)
            };
            let at = self.now + delay + jitter;
            self.stats.record_hop(link, pkt.flow, pkt.size);
            if self.trace.is_enabled() {
                self.trace.record(TraceEvent::Forward {
                    at,
                    link,
                    from: node,
                    to: next,
                    pkt: pkt.id,
                });
            }
            let copy = (next, pkt.ttl - 1);
            match self.arrivals.iter_mut().rev().find(|g| g.0 == at) {
                Some(group) => group.2.push(copy),
                None => {
                    let mut to = self.spare.pop().unwrap_or_default();
                    to.push(copy);
                    self.arrivals.push((at, pkt.clone(), to));
                }
            }
        }
    }

    /// Queue the batch's group of copies arriving at `at`, if there is one,
    /// ahead of what is about to be queued for the same instant.
    fn queue_arrivals_at(&mut self, at: SimTime) {
        if let Some(i) = self.arrivals.iter().position(|g| g.0 == at) {
            let (at, pkt, to) = self.arrivals.remove(i);
            self.queue.push_fifo(at, EventKind::Hop { pkt, to });
        }
    }

    /// The [`GroupMasks`] for packets from `root` to `group`, computed on
    /// first use per membership version and memoized for the common case of
    /// many consecutive hops of the same flood.
    fn group_masks(&mut self, root: NodeId, group: GroupId) -> Rc<GroupMasks> {
        let key = (root.0, group.0);
        let ver = self.membership_version;
        if let Some((k, v, m)) = &self.mask_memo {
            if *k == key && *v == ver {
                return m.clone();
            }
        }
        let masks = self.group_masks_slow(key, ver, root, group);
        self.mask_memo = Some((key, ver, masks.clone()));
        masks
    }

    fn group_masks_slow(
        &mut self,
        key: (u32, u32),
        ver: u64,
        root: NodeId,
        group: GroupId,
    ) -> Rc<GroupMasks> {
        if let Some((v, masks)) = self.prune_cache.get(&key) {
            if *v == ver {
                return masks.clone();
            }
        }
        let tree = self.route(root);
        let n = self.topo.num_nodes();
        let mut member = vec![false; n];
        let mut reach = vec![false; n];
        if let Some(members) = self.groups.get(&group) {
            for &m in members {
                member[m.index()] = true;
                let mut cur = m;
                while !reach[cur.index()] {
                    reach[cur.index()] = true;
                    match tree.parent(cur) {
                        Some((p, _)) => cur = p,
                        None => break,
                    }
                }
            }
        }
        // Only a reached node has reached children, so the others' fan-outs
        // stay empty.
        let mut start = Vec::with_capacity(n + 1);
        let mut fan = Vec::new();
        start.push(0);
        for v in 0..n {
            if reach[v] {
                let children = tree.children(NodeId(v as u32));
                fan.extend(children.iter().filter(|(c, _)| reach[c.index()]));
            }
            start.push(fan.len() as u32);
        }
        let masks = Rc::new(GroupMasks { member, start, fan });
        self.prune_cache.insert(key, (ver, masks.clone()));
        masks
    }

    /// Change a link's up/down state, recomputing routing on a real change.
    fn set_link_state(&mut self, link: LinkId, up: bool) {
        if self.link_up[link.index()] == up {
            return;
        }
        self.link_up[link.index()] = up;
        // Routing converges "immediately": cached SPTs and prune masks are
        // recomputed over the surviving links on next use.
        self.spt.invalidate();
        self.prune_cache.clear();
        self.mask_memo = None;
    }

    /// Apply the `index`-th scripted fault (called from [`Simulator::step`]).
    fn apply_fault(&mut self, index: usize) {
        let ev = self.plan[index].1.clone();
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent::Fault {
                at: self.now,
                desc: ev.to_string(),
            });
        }
        match ev {
            FaultEvent::LinkDown(l) => self.set_link_state(l, false),
            FaultEvent::LinkUp(l) => self.set_link_state(l, true),
            FaultEvent::Partition { cut } => {
                for &l in &cut {
                    self.set_link_state(l, false);
                }
                self.partition_cut = cut;
            }
            FaultEvent::Heal => {
                for l in std::mem::take(&mut self.partition_cut) {
                    self.set_link_state(l, true);
                }
            }
            FaultEvent::NodeCrash(n) => {
                if !self.node_up[n.index()] {
                    return;
                }
                self.node_up[n.index()] = false;
                // Invalidate every timer armed before the crash.
                self.node_epoch[n.index()] += 1;
                // The host's IGMP state evaporates with it: leave all
                // groups so routing prunes its branches.
                let gone: Vec<GroupId> = self
                    .groups
                    .iter()
                    .filter(|(_, members)| members.contains(&n))
                    .map(|(g, _)| *g)
                    .collect();
                for g in gone {
                    self.leave(n, g);
                }
                if let Some(app) = self.apps.get_mut(n.index()).and_then(|a| a.as_mut()) {
                    app.on_crash();
                }
            }
            FaultEvent::NodeRestart(n) => {
                if self.node_up[n.index()] {
                    return;
                }
                self.node_up[n.index()] = true;
                self.dispatch(n, |app, ctx| app.on_restart(ctx));
            }
            FaultEvent::LossBurst { link, p, duration } => {
                // Each burst gets its own stream derived from the sim seed
                // and its plan position, independent of other RNG use.
                let burst_seed = self
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1));
                let until = self.now + duration;
                self.burst_min_until = self.burst_min_until.min(until);
                self.bursts.push(ActiveBurst {
                    link,
                    p,
                    until,
                    rng: StdRng::seed_from_u64(burst_seed),
                });
            }
            FaultEvent::ClockSkew { node, offset_secs } => {
                self.clocks[node.index()].set_offset(offset_secs);
            }
            FaultEvent::ClockDrift { node, ppm } => {
                let now = self.now;
                self.clocks[node.index()].set_drift(ppm, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{chain, star};
    use crate::loss::OneShotLinkDrop;
    use crate::packet::flow;

    /// A trivial app that records everything it receives and can echo.
    #[derive(Default)]
    struct Recorder {
        got: Vec<(SimTime, u64)>, // (time, first payload byte widened)
        timers: Vec<u64>,
    }

    impl Application for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
            let tag = pkt.payload.first().copied().unwrap_or(0) as u64;
            self.got.push((ctx.now, tag));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let _ = ctx;
            self.timers.push(token);
        }
    }

    const G: GroupId = GroupId(1);

    fn setup_chain(n: usize) -> Simulator<Recorder> {
        let topo = chain(n);
        let mut sim = Simulator::new(topo, 1);
        for i in 0..n {
            sim.install(NodeId(i as u32), Recorder::default());
            sim.join(NodeId(i as u32), G);
        }
        sim
    }

    #[test]
    fn multicast_reaches_all_members_with_link_delay() {
        let mut sim = setup_chain(5);
        sim.send_from(NodeId(0), G, Bytes::from_static(&[7]), SendOptions::default());
        assert!(sim.run_until_idle(SimTime::from_secs(100)));
        for i in 1..5u32 {
            let app = sim.app(NodeId(i)).unwrap();
            assert_eq!(app.got.len(), 1, "node {i}");
            assert_eq!(app.got[0].0, SimTime::from_secs(i as u64));
        }
        // The origin does not hear its own packet.
        assert!(sim.app(NodeId(0)).unwrap().got.is_empty());
    }

    #[test]
    fn one_copy_per_link() {
        let mut sim = setup_chain(5);
        sim.send_from(NodeId(2), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(100));
        for l in sim.stats.links.iter() {
            assert_eq!(l.packets, 1);
        }
    }

    #[test]
    fn pruning_skips_memberless_subtrees() {
        let topo = star(4);
        let mut sim: Simulator<Recorder> = Simulator::new(topo, 1);
        // Only leaves 1 and 2 are members; 3 and 4 are not.
        for i in [1u32, 2] {
            sim.install(NodeId(i), Recorder::default());
            sim.join(NodeId(i), G);
        }
        sim.send_from(NodeId(1), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(10));
        // Links to 3 and 4 never carry the packet: exactly 2 link crossings
        // (1→hub, hub→2).
        assert_eq!(sim.stats.total_hops(), 2);
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
    }

    #[test]
    fn one_shot_drop_partitions_downstream() {
        let mut sim = setup_chain(5);
        let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(l23, NodeId(0), flow::DATA)));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(100));
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
        assert_eq!(sim.app(NodeId(3)).unwrap().got.len(), 0);
        assert_eq!(sim.app(NodeId(4)).unwrap().got.len(), 0);
        // Second packet passes (one-shot).
        sim.send_from(NodeId(0), G, Bytes::from_static(&[2]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(100));
        assert_eq!(sim.app(NodeId(4)).unwrap().got.len(), 1);
    }

    #[test]
    fn ttl_limits_reach() {
        let mut sim = setup_chain(6);
        sim.send_from(
            NodeId(0),
            G,
            Bytes::from_static(&[1]),
            SendOptions::default().with_ttl(2),
        );
        sim.run_until_idle(SimTime::from_secs(100));
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
        assert_eq!(sim.app(NodeId(3)).unwrap().got.len(), 0);
    }

    #[test]
    fn admin_scope_blocks_zone_boundary() {
        let mut topo = chain(4);
        topo.set_zone(NodeId(2), 1);
        topo.set_zone(NodeId(3), 1);
        let mut sim: Simulator<Recorder> = Simulator::new(topo, 1);
        for i in 0..4u32 {
            sim.install(NodeId(i), Recorder::default());
            sim.join(NodeId(i), G);
        }
        sim.send_from(
            NodeId(0),
            G,
            Bytes::from_static(&[1]),
            SendOptions::default().admin_scoped(),
        );
        sim.run_until_idle(SimTime::from_secs(100));
        assert_eq!(sim.app(NodeId(1)).unwrap().got.len(), 1);
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 0);
    }

    #[test]
    fn timers_fire_and_cancel() {
        let mut sim = setup_chain(2);
        let id = sim.exec(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(5), 42)
        });
        sim.exec(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(1), 7);
        });
        sim.exec(NodeId(0), |_, ctx| ctx.cancel_timer(id));
        sim.run_until_idle(SimTime::from_secs(100));
        let app = sim.app(NodeId(0)).unwrap();
        assert_eq!(app.timers, vec![7]);
    }

    #[test]
    fn cancel_after_fire_leaves_nothing_behind() {
        let mut sim = setup_chain(2);
        for k in 0..10_000u64 {
            let id = sim.exec(NodeId(0), |_, ctx| {
                ctx.set_timer(SimDuration::from_secs(1), k)
            });
            assert_eq!(sim.live_timers(), 1);
            assert!(sim.run_until_idle(sim.now() + SimDuration::from_secs(2)));
            sim.exec(NodeId(0), |_, ctx| ctx.cancel_timer(id));
        }
        assert_eq!(sim.app(NodeId(0)).unwrap().timers.len(), 10_000);
        assert_eq!(sim.live_timers(), 0, "a cancel that came too late is forgotten");
    }

    #[test]
    fn a_panicking_handler_leaves_its_app_installed() {
        struct Fragile;
        impl Application for Fragile {
            fn on_packet(&mut self, _: &mut Ctx<'_>, _: &Packet) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {
                panic!("handler bug");
            }
        }
        let mut sim: Simulator<Fragile> = Simulator::new(chain(2), 1);
        sim.install(NodeId(0), Fragile);
        sim.exec(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        });
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()));
        assert!(step.is_err(), "the handler's panic reaches the caller");
        assert!(sim.app(NodeId(0)).is_some(), "and does not take the app with it");
    }

    #[test]
    fn membership_change_invalidates_prune_cache() {
        let topo = star(3);
        let mut sim: Simulator<Recorder> = Simulator::new(topo, 1);
        for i in 1..=3u32 {
            sim.install(NodeId(i), Recorder::default());
        }
        sim.join(NodeId(1), G);
        sim.send_from(NodeId(1), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(10));
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 0);
        sim.join(NodeId(2), G);
        sim.send_from(NodeId(1), G, Bytes::from_static(&[2]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(10));
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
    }

    #[test]
    fn run_until_advances_clock() {
        let mut sim = setup_chain(2);
        sim.run_until(SimTime::from_secs(9));
        assert_eq!(sim.now(), SimTime::from_secs(9));
        // Events past the limit stay pending, and the clock still ends there.
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.exec(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(5), 3);
        });
        sim.run_until(SimTime::from_secs(9) + SimDuration::from_millis(500));
        assert_eq!(sim.now(), SimTime::from_secs(9) + SimDuration::from_millis(500));
        assert_eq!(sim.pending_events(), 2, "the hop into node 1 and the timer");
        assert!(sim.app(NodeId(1)).unwrap().got.is_empty());
        sim.run_until(SimTime::from_secs(12));
        assert_eq!(sim.now(), SimTime::from_secs(12));
        assert_eq!(sim.pending_events(), 1, "the timer");
        assert_eq!(sim.app(NodeId(1)).unwrap().got, [(SimTime::from_secs(10), 1)]);
        assert!(sim.app(NodeId(0)).unwrap().timers.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On random trees with random members and one link down, every
        /// node's fan-out is its SPT children whose subtrees hold a member,
        /// in child-id order, from every root.
        #[test]
        fn fan_table_is_the_pruned_spt_children(
            n in 2usize..60,
            seed in 0u64..u64::MAX,
            members in 1usize..12,
            down in 0usize..usize::MAX,
            delays in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = if delays {
                crate::generators::random_delay_tree(
                    n,
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(50),
                    &mut rng,
                )
            } else {
                crate::generators::random_labeled_tree(n, &mut rng)
            };
            let members = crate::generators::random_members(&topo, members.min(n), &mut rng);
            let mut sim: Simulator<Recorder> = Simulator::new(topo.clone(), 1);
            for &m in &members {
                sim.join(m, G);
            }
            sim.set_link_state(LinkId((down % topo.num_links()) as u32), false);
            for root in topo.nodes() {
                let masks = sim.group_masks(root, G);
                let tree = crate::SpTree::compute_masked(&topo, root, Some(&sim.link_up));
                // reach[v]: v's subtree holds a member, found bottom-up
                // from the root (the table walks up from the members).
                fn mark(t: &crate::SpTree, v: NodeId, member: &[bool], reach: &mut [bool]) -> bool {
                    let mut any = member[v.index()];
                    for &(c, _) in t.children(v) {
                        any |= mark(t, c, member, reach);
                    }
                    reach[v.index()] = any;
                    any
                }
                let mut reach = vec![false; n];
                mark(&tree, root, &masks.member, &mut reach);
                for v in topo.nodes() {
                    let want: Vec<(NodeId, LinkId)> = tree
                        .children(v)
                        .iter()
                        .copied()
                        .filter(|(c, _)| reach[c.index()])
                        .collect();
                    proptest::prop_assert_eq!(masks.fan(v), &want[..], "root {:?} node {:?}", root, v);
                }
            }
        }
    }

    /// Records what it hears and leaves the group on its first packet.
    #[derive(Default)]
    struct Leaver {
        got: Vec<(SimTime, u8)>,
    }

    impl Application for Leaver {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
            if self.got.is_empty() && ctx.node == NodeId(3) {
                ctx.leave(G);
            }
            self.got.push((ctx.now, pkt.payload[0]));
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    }

    #[test]
    fn a_leave_inside_on_packet_prunes_the_rest_of_a_flood_in_flight() {
        // 0 ─ 1 ─ 2 ─ 3 and 0 ─ 4, unit delays; members 3 and 4, sender 0.
        let mut b = crate::topology::TopologyBuilder::new(5);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (0, 4)] {
            b.link(NodeId(x), NodeId(y));
        }
        let mut sim: Simulator<Leaver> = Simulator::new(b.build(), 1);
        for i in [3u32, 4] {
            sim.install(NodeId(i), Leaver::default());
            sim.join(NodeId(i), G);
        }
        // Packet 1 reaches 3 at t = 3, and 3 leaves in its handler. Packet 2
        // leaves 0 at t = 2.5 while 3 is still a member, so it crosses 0 ─ 1;
        // at 1, at t = 3.5, the subtree below holds no member any more.
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until(SimTime::from_secs_f64(2.5));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[2]), SendOptions::default());
        assert!(sim.run_until_idle(SimTime::from_secs(100)));
        assert_eq!(sim.members(G), [NodeId(4)]);
        let got = |n: u32| sim.app(NodeId(n)).unwrap().got.clone();
        assert_eq!(got(3), [(SimTime::from_secs(3), 1)]);
        let t = SimTime::from_secs_f64;
        assert_eq!(got(4), [(t(1.0), 1), (t(3.5), 2)]);
        let crossings = |x: u32, y: u32| {
            let l = sim.topology().link_between(NodeId(x), NodeId(y)).unwrap();
            sim.stats.links[l.index()].packets
        };
        assert_eq!(crossings(0, 1), 2);
        assert_eq!(crossings(1, 2), 1, "packet 2 is pruned at node 1");
        assert_eq!(crossings(2, 3), 1);
        assert_eq!(crossings(0, 4), 2);
    }

    #[test]
    fn unicast_follows_shortest_path() {
        let mut sim = setup_chain(6);
        sim.send_unicast_from(
            NodeId(1),
            NodeId(4),
            Bytes::from_static(&[9]),
            SendOptions::default(),
        );
        sim.run_until_idle(SimTime::from_secs(100));
        // Only the destination hears it, after 3 link delays.
        let a4 = sim.app(NodeId(4)).unwrap();
        assert_eq!(a4.got, vec![(SimTime::from_secs(3), 9)]);
        for i in [0u32, 2, 3, 5] {
            assert!(sim.app(NodeId(i)).unwrap().got.is_empty(), "node {i}");
        }
        // Exactly 3 link crossings.
        assert_eq!(sim.stats.total_hops(), 3);
    }

    #[test]
    fn unicast_subject_to_loss() {
        let mut sim = setup_chain(4);
        let l12 = sim.topology().link_between(NodeId(1), NodeId(2)).unwrap();
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(l12, NodeId(0), flow::DATA)));
        sim.send_unicast_from(
            NodeId(0),
            NodeId(3),
            Bytes::from_static(&[1]),
            SendOptions::default(),
        );
        sim.run_until_idle(SimTime::from_secs(100));
        assert!(sim.app(NodeId(3)).unwrap().got.is_empty());
    }

    #[test]
    fn duplication_effects_deliver_twice() {
        let mut sim = setup_chain(2);
        sim.set_channel_effects(Box::new(crate::effects::RandomEffects::new(
            1.0, // always duplicate
            SimDuration::ZERO,
            1,
        )));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[5]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(100));
        assert_eq!(sim.app(NodeId(1)).unwrap().got.len(), 2);
    }

    #[test]
    fn jitter_can_reorder_packets() {
        // Two packets sent back to back with large jitter: over many seeds
        // at least one run reorders. Use a fixed seed known to reorder by
        // checking relative order of payload tags.
        let mut reordered = false;
        for seed in 0..20u64 {
            let mut sim = setup_chain(2);
            sim.set_channel_effects(Box::new(crate::effects::RandomEffects::new(
                0.0,
                SimDuration::from_secs(5),
                seed,
            )));
            sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
            sim.send_from(NodeId(0), G, Bytes::from_static(&[2]), SendOptions::default());
            sim.run_until_idle(SimTime::from_secs(100));
            let tags: Vec<u64> = sim.app(NodeId(1)).unwrap().got.iter().map(|&(_, t)| t).collect();
            if tags == vec![2, 1] {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "jitter produced a reordering in 20 seeds");
    }

    /// Decodes what it hears through the packet's shared slot; every
    /// instance bumps one shared tally when its closure actually runs.
    struct Decoder {
        decodes: Rc<std::cell::Cell<u32>>,
        heard: Vec<u8>,
    }

    impl Application for Decoder {
        fn on_packet(&mut self, _: &mut Ctx<'_>, pkt: &Packet) {
            let decodes = &self.decodes;
            let tag = pkt.decoded(|payload| {
                decodes.set(decodes.get() + 1);
                payload[0]
            });
            self.heard.push(*tag.expect("only u8 is ever decoded"));
        }
        fn on_timer(&mut self, _: &mut Ctx<'_>, _: u64) {}
    }

    #[test]
    fn a_transmission_is_decoded_once_however_many_receive_it() {
        let decodes = Rc::new(std::cell::Cell::new(0));
        let mut sim = Simulator::new(star(9), 1);
        for i in 0..=9u32 {
            let decodes = decodes.clone();
            sim.install(NodeId(i), Decoder { decodes, heard: Vec::new() });
            sim.join(NodeId(i), G);
        }
        // Every crossing delivers two copies: duplicates share the slot too.
        sim.set_channel_effects(Box::new(crate::effects::RandomEffects::new(
            1.0,
            SimDuration::ZERO,
            1,
        )));
        sim.send_from(NodeId(1), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.send_from(NodeId(2), G, Bytes::from_static(&[2]), SendOptions::default());
        let unicast = Bytes::from_static(&[3]);
        sim.send_unicast_from(NodeId(3), NodeId(4), unicast, SendOptions::default());
        assert!(sim.run_until_idle(SimTime::from_secs(100)));
        assert_eq!(decodes.get(), 3, "one decode per transmission");
        // Two links from leaf to leaf, each doubling: four copies apiece.
        let heard = |n: u32| sim.app(NodeId(n)).unwrap().heard.clone();
        assert_eq!(heard(5), [1, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(heard(4), [1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
    }

    #[test]
    fn link_down_blocks_and_link_up_restores() {
        let mut sim = setup_chain(5);
        let l23 = sim.topology().link_between(NodeId(2), NodeId(3)).unwrap();
        sim.set_fault_plan(
            FaultPlan::new()
                .link_down(SimTime::from_secs(1), l23)
                .link_up(SimTime::from_secs(50), l23),
        );
        sim.run_until(SimTime::from_secs(2));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until(SimTime::from_secs(40));
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
        assert_eq!(sim.app(NodeId(3)).unwrap().got.len(), 0, "beyond down link");
        sim.run_until(SimTime::from_secs(60));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[2]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(100));
        assert_eq!(sim.app(NodeId(4)).unwrap().got.len(), 1, "after link up");
    }

    #[test]
    fn link_down_reroutes_around_redundant_path() {
        // Square: 0-1, 0-2, 1-3, 2-3. The SPT from 0 uses 1-3 (tie-break);
        // downing it must reroute delivery to 3 via 2.
        let mut b = crate::topology::TopologyBuilder::new(4);
        b.link(NodeId(0), NodeId(1));
        b.link(NodeId(0), NodeId(2));
        let l13 = b.link(NodeId(1), NodeId(3));
        b.link(NodeId(2), NodeId(3));
        let mut sim: Simulator<Recorder> = Simulator::new(b.build(), 1);
        for i in 0..4u32 {
            sim.install(NodeId(i), Recorder::default());
            sim.join(NodeId(i), G);
        }
        sim.set_fault_plan(FaultPlan::new().link_down(SimTime::from_secs(1), l13));
        sim.run_until(SimTime::from_secs(2));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[7]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(50));
        // Node 3 still hears the packet — via 2, at distance 2.
        let a3 = sim.app(NodeId(3)).unwrap();
        assert_eq!(a3.got.len(), 1);
        assert_eq!(a3.got[0].0, SimTime::from_secs(4)); // sent at t=2, 2 hops
    }

    #[test]
    fn partition_and_heal_round_trip() {
        let mut sim = setup_chain(6);
        let cut = crate::faults::partition_cut(
            sim.topology(),
            &[NodeId(0), NodeId(1), NodeId(2)],
        );
        sim.set_fault_plan(
            FaultPlan::new()
                .partition(SimTime::from_secs(1), cut)
                .heal(SimTime::from_secs(10)),
        );
        sim.run_until(SimTime::from_secs(2));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until(SimTime::from_secs(9));
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
        assert_eq!(sim.app(NodeId(3)).unwrap().got.len(), 0, "across the cut");
        sim.run_until(SimTime::from_secs(11));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[2]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(60));
        assert_eq!(sim.app(NodeId(5)).unwrap().got.len(), 1, "after heal");
    }

    #[test]
    fn crash_silences_node_and_invalidates_timers() {
        let mut sim = setup_chain(3);
        sim.exec(NodeId(1), |_, ctx| {
            ctx.set_timer(SimDuration::from_secs(20), 99);
        });
        sim.set_fault_plan(FaultPlan::new().crash(SimTime::from_secs(5), NodeId(1)));
        sim.run_until(SimTime::from_secs(6));
        assert!(!sim.node_is_up(NodeId(1)));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(100));
        let a1 = sim.app(NodeId(1)).unwrap();
        assert!(a1.got.is_empty(), "crashed host must not receive");
        assert!(a1.timers.is_empty(), "pre-crash timer must not fire");
        // Node 2 still hears it: the router at node 1 keeps forwarding.
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
    }

    #[test]
    fn restart_rejoins_via_on_start_default() {
        let mut sim = setup_chain(3);
        sim.set_fault_plan(
            FaultPlan::new()
                .crash(SimTime::from_secs(5), NodeId(2))
                .restart(SimTime::from_secs(10), NodeId(2)),
        );
        sim.run_until(SimTime::from_secs(7));
        // Crash removed node 2 from the group.
        assert_eq!(sim.members(G), vec![NodeId(0), NodeId(1)]);
        sim.run_until(SimTime::from_secs(11));
        assert!(sim.node_is_up(NodeId(2)));
        // Recorder has no on_start join; re-join at the simulator level the
        // way a restarted host's IGMP would and verify delivery resumes.
        sim.join(NodeId(2), G);
        sim.send_from(NodeId(0), G, Bytes::from_static(&[3]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(50));
        assert_eq!(sim.app(NodeId(2)).unwrap().got.len(), 1);
    }

    #[test]
    fn loss_burst_drops_then_expires() {
        let mut sim = setup_chain(2);
        let l01 = sim.topology().link_between(NodeId(0), NodeId(1)).unwrap();
        sim.set_fault_plan(FaultPlan::new().loss_burst(
            SimTime::from_secs(1),
            Some(l01),
            1.0, // drop everything during the burst
            SimDuration::from_secs(10),
        ));
        sim.run_until(SimTime::from_secs(2));
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until(SimTime::from_secs(20));
        assert_eq!(sim.app(NodeId(1)).unwrap().got.len(), 0, "inside burst");
        assert_eq!(sim.stats.links[l01.index()].drops, 1);
        sim.send_from(NodeId(0), G, Bytes::from_static(&[2]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(40));
        assert_eq!(sim.app(NodeId(1)).unwrap().got.len(), 1, "after burst");
    }

    #[test]
    fn clock_skew_changes_local_now_only() {
        let mut sim = setup_chain(2);
        sim.set_fault_plan(FaultPlan::new().clock_skew(SimTime::from_secs(1), NodeId(1), 5.0));
        sim.run_until(SimTime::from_secs(2));
        let (true_now, local0, local1) = (
            sim.now(),
            sim.local_time(NodeId(0), sim.now()),
            sim.local_time(NodeId(1), sim.now()),
        );
        assert_eq!(local0, true_now, "unskewed node reads true time");
        assert!((local1.as_secs_f64() - true_now.as_secs_f64() - 5.0).abs() < 1e-9);
        let seen = sim.exec(NodeId(1), |_, ctx| ctx.local_now());
        assert_eq!(seen, local1);
    }

    #[test]
    fn fault_events_are_traced() {
        let mut sim = setup_chain(3);
        sim.trace.enable();
        let l01 = sim.topology().link_between(NodeId(0), NodeId(1)).unwrap();
        sim.set_fault_plan(
            FaultPlan::new()
                .link_down(SimTime::from_secs(1), l01)
                .link_up(SimTime::from_secs(2), l01),
        );
        sim.run_until(SimTime::from_secs(5));
        let faults = sim.trace.events().filter(|e| matches!(e, TraceEvent::Fault { .. }));
        assert_eq!(faults.count(), 2);
    }

    #[test]
    fn trace_records_when_enabled() {
        let mut sim = setup_chain(3);
        sim.trace.enable();
        sim.send_from(NodeId(0), G, Bytes::from_static(&[1]), SendOptions::default());
        sim.run_until_idle(SimTime::from_secs(10));
        let count = |f: fn(&TraceEvent) -> bool| sim.trace.events().filter(|e| f(e)).count();
        let sends = count(|e| matches!(e, TraceEvent::Send { .. }));
        let fwds = count(|e| matches!(e, TraceEvent::Forward { .. }));
        let dels = count(|e| matches!(e, TraceEvent::Deliver { .. }));
        assert_eq!(sends, 1);
        assert_eq!(fwds, 2);
        assert_eq!(dels, 2);
    }
}
