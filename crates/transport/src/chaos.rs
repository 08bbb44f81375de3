//! Scripted chaos injection for the wall-clock transport.
//!
//! The simulator exercises SRM under faults through `netsim`'s `FaultPlan`;
//! a [`ChaosPlan`] is the same scenario vocabulary translated to a live UDP
//! node: Bernoulli and burst loss, duplication, reordering (frames held
//! back on the reactor's [`DelayQueue`], netsim's deadline queue), payload
//! corruption, per-peer blackhole/partition windows, delay jitter, and
//! forced drops of the n-th frame of a flow ([`DropNth`], what recovery
//! tests use to make the one loss they repair). A hosted group applies its
//! plan in one place, its send path: the randomized actions once per
//! logical multicast ([`ChaosState::verdict`]), the RNG-free blackhole
//! windows and forced drops per destination of the fan-out. Every action
//! is counted in the host's transport counters and recorded in the group's
//! transport log.
//!
//! Determinism: [`ChaosState`] owns its own seeded RNG, separate from the
//! protocol's timer RNG, and [`ChaosState::verdict`] makes a *fixed number
//! of draws per frame* regardless of which actions trigger.  Same seed +
//! same plan + same frame sequence ⇒ the identical action sequence — the
//! property the chaos proptests pin, and what makes a soak failure
//! replayable from its seed.
//!
//! Corruption damages the frame so that the receiving agent's
//! `Message::decode` fails *cleanly and certainly* (the body-tag byte is
//! overwritten with an invalid tag): corrupt frames become counted decode
//! errors rather than a small chance of aliasing into a live message with a
//! phantom ADU name.

use bytes::Bytes;
use netsim::{flow, DeadlineQueue, GroupId, SendOptions, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;

/// A half-open activity window `[start, end)` on the node's clock axis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
}

impl Window {
    /// Does `now` fall inside the window?
    pub fn contains(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }
}

/// A correlated loss episode: while the window is active, frames drop with
/// probability `p` (instead of the plan's base Bernoulli rate) — the live
/// analogue of `FaultPlan::loss_burst`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstLoss {
    /// When the burst is active.
    pub window: Window,
    /// Drop probability while active.
    pub p: f64,
}

/// A partition window: frames towards `peer` (or every destination when
/// `None`) are silently swallowed while active — the live analogue of
/// `FaultPlan::partition` + `heal`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blackhole {
    /// When the blackhole is active.
    pub window: Window,
    /// The destination cut off; `None` cuts every destination.
    pub peer: Option<SocketAddr>,
}

impl Blackhole {
    /// Does this window swallow a frame towards `dest` at `now`?
    pub fn matches(&self, now: SimTime, dest: Option<SocketAddr>) -> bool {
        self.window.contains(now) && (self.peer.is_none() || self.peer == dest)
    }
}

/// A forced loss: the `nth` (0-based) frame of `flow` that reaches the
/// fan-out, towards `peer` only when set. Frames are counted per
/// destination (a mesh send to three peers is three frames), and a frame a
/// blackhole swallowed is not counted. RNG-free, like a blackhole: a test
/// forces exactly the loss it means to see repaired.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DropNth {
    /// The flow whose frames are counted ([`netsim::flow`]).
    pub flow: u32,
    /// Which of them is dropped, from 0.
    pub nth: u64,
    /// The destination counted; `None` counts every destination.
    pub peer: Option<SocketAddr>,
}

impl DropNth {
    /// Does this rule count a `flow` frame towards `dest`? `dest = None`
    /// (true multicast) only matches rules without a peer.
    fn matches(&self, flow: u32, dest: Option<SocketAddr>) -> bool {
        self.flow == flow && (self.peer.is_none() || self.peer == dest)
    }
}

/// A scripted chaos schedule for one node's send path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// Base Bernoulli per-frame drop probability.
    pub loss_p: f64,
    /// Per-frame duplication probability.
    pub dup_p: f64,
    /// Per-frame corruption probability.
    pub corrupt_p: f64,
    /// Per-frame reorder (hold-back) probability.
    pub reorder_p: f64,
    /// Base hold-back applied to reordered frames.
    pub reorder_delay: SimDuration,
    /// Uniform random extra delay in `[0, jitter)` added to each reordered
    /// frame.
    pub jitter: SimDuration,
    /// Correlated loss episodes.
    pub bursts: Vec<BurstLoss>,
    /// Partition windows.
    pub blackholes: Vec<Blackhole>,
    /// Forced drops.
    pub drops: Vec<DropNth>,
    /// Restrict the whole plan to one multicast group: frames addressed
    /// to any other group pass through untouched *and undrawn* — they
    /// consume no RNG draws, so the verdict stream for the scoped group
    /// is still a pure function of `(seed, plan, that group's frames)`.
    /// `None` (the default, and the pre-hub behaviour) acts on every
    /// frame. This is what lets one hub shard be chaos-soaked while its
    /// neighbours stay clean.
    pub only_group: Option<u32>,
}

impl ChaosPlan {
    /// An empty plan (no chaos).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Set the base Bernoulli drop probability.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss_p = p;
        self
    }

    /// Set the per-frame duplication probability.
    pub fn duplication(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    /// Set the per-frame corruption probability.
    pub fn corruption(mut self, p: f64) -> Self {
        self.corrupt_p = p;
        self
    }

    /// Reorder frames with probability `p` by holding them back `delay`.
    pub fn reorder(mut self, p: f64, delay: SimDuration) -> Self {
        self.reorder_p = p;
        self.reorder_delay = delay;
        self
    }

    /// Add uniform `[0, jitter)` noise to each hold-back.
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Add a correlated loss episode with drop probability `p` over
    /// `[start, end)`.
    pub fn loss_burst(mut self, p: f64, start: SimTime, end: SimTime) -> Self {
        self.bursts.push(BurstLoss { window: Window { start, end }, p });
        self
    }

    /// Cut one peer off over `[start, end)`.
    pub fn blackhole(mut self, peer: SocketAddr, start: SimTime, end: SimTime) -> Self {
        self.blackholes.push(Blackhole {
            window: Window { start, end },
            peer: Some(peer),
        });
        self
    }

    /// Cut every destination off over `[start, end)`.
    pub fn blackhole_all(mut self, start: SimTime, end: SimTime) -> Self {
        self.blackholes.push(Blackhole { window: Window { start, end }, peer: None });
        self
    }

    /// Drop the `nth` (0-based) frame of `flow`, counted over every
    /// destination.
    pub fn drop_nth(mut self, flow: u32, nth: u64) -> Self {
        self.drops.push(DropNth { flow, nth, peer: None });
        self
    }

    /// Drop the `nth` (0-based) frame of `flow` towards `peer`.
    pub fn drop_nth_to(mut self, flow: u32, peer: SocketAddr, nth: u64) -> Self {
        self.drops.push(DropNth { flow, nth, peer: Some(peer) });
        self
    }

    /// Scope the plan to one multicast group; other groups' frames pass
    /// through untouched, without consuming RNG draws.
    pub fn scoped_to(mut self, group: u32) -> Self {
        self.only_group = Some(group);
        self
    }

    /// Does the plan act on frames addressed to `group`?
    pub fn applies_to(&self, group: GroupId) -> bool {
        self.only_group.is_none_or(|g| g == group.0)
    }

    /// True if the plan can never act on a frame.
    pub fn is_noop(&self) -> bool {
        self.loss_p <= 0.0
            && self.dup_p <= 0.0
            && self.corrupt_p <= 0.0
            && self.reorder_p <= 0.0
            && self.bursts.is_empty()
            && self.blackholes.is_empty()
            && self.drops.is_empty()
    }

    /// The effective drop probability at `now`: the strongest active burst,
    /// or the base Bernoulli rate outside every burst.
    pub fn drop_p(&self, now: SimTime) -> f64 {
        let burst = self
            .bursts
            .iter()
            .filter(|b| b.window.contains(now))
            .map(|b| b.p)
            .fold(f64::NEG_INFINITY, f64::max);
        if burst.is_finite() {
            burst.max(self.loss_p)
        } else {
            self.loss_p
        }
    }

    /// Is a frame towards `dest` swallowed by an active blackhole window?
    /// RNG-free, so the send fan-out can consult it per destination without
    /// perturbing the chaos draw sequence.  `dest = None` (true multicast)
    /// only matches all-destination windows.
    pub fn blackholed(&self, now: SimTime, dest: Option<SocketAddr>) -> bool {
        self.blackholes.iter().any(|b| b.matches(now, dest))
    }

    /// The latest end among all scripted windows — when the schedule has
    /// fully healed (base Bernoulli chaos may continue past it).
    pub fn healed_at(&self) -> SimTime {
        let mut t = SimTime::ZERO;
        for b in &self.bursts {
            t = t.max(b.window.end);
        }
        for b in &self.blackholes {
            t = t.max(b.window.end);
        }
        t
    }
}

/// The RNG-free part of a plan as the send fan-out applies it, per
/// destination: the blackhole windows, and the drop rules with the frames
/// each has counted so far.
#[derive(Debug, Default)]
pub(crate) struct Fanout {
    blackholes: Vec<Blackhole>,
    drops: Vec<(DropNth, u64)>,
}

/// Why the fan-out swallowed a frame.
pub(crate) enum Cut {
    /// An active blackhole window.
    Blackholed,
    /// A drop rule's n-th frame.
    Dropped,
}

impl Fanout {
    pub(crate) fn new(plan: Option<&ChaosPlan>) -> Self {
        let Some(plan) = plan else { return Fanout::default() };
        Fanout {
            blackholes: plan.blackholes.clone(),
            drops: plan.drops.iter().map(|&d| (d, 0)).collect(),
        }
    }

    /// Is a `flow` frame towards `dest` swallowed at `now`, and why?
    /// Blackholes come first, and a blackholed frame is not counted by
    /// the drop rules.
    pub(crate) fn cut(&mut self, now: SimTime, flow: u32, dest: Option<SocketAddr>) -> Option<Cut> {
        if self.blackholes.iter().any(|b| b.matches(now, dest)) {
            return Some(Cut::Blackholed);
        }
        let mut hit = false;
        for (rule, seen) in &mut self.drops {
            if rule.matches(flow, dest) {
                hit |= *seen == rule.nth;
                *seen += 1;
            }
        }
        hit.then_some(Cut::Dropped)
    }
}

/// What the chaos draw decided for one frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Deliver the frame at all?  `false` means dropped.
    pub deliver: bool,
    /// Send a second copy.
    pub duplicate: bool,
    /// Damage the frame before sending.
    pub corrupt: bool,
    /// Hold the frame back this long before it reaches the wire.
    pub delay: Option<SimDuration>,
}

/// A [`ChaosPlan`] plus the seeded RNG that animates it.
#[derive(Clone, Debug)]
pub struct ChaosState {
    /// The schedule.
    pub plan: ChaosPlan,
    rng: StdRng,
}

impl ChaosState {
    /// Animate `plan` with a dedicated RNG seeded by `seed`.
    pub fn new(plan: ChaosPlan, seed: u64) -> Self {
        ChaosState { plan, rng: StdRng::seed_from_u64(seed) }
    }

    /// Decide one frame's fate.  Always makes exactly five RNG draws, in a
    /// fixed order, so the decision sequence is a pure function of
    /// `(seed, plan, now-sequence)` — the seeded-determinism contract.
    pub fn verdict(&mut self, now: SimTime) -> Verdict {
        let u_loss: f64 = self.rng.random();
        let u_dup: f64 = self.rng.random();
        let u_corrupt: f64 = self.rng.random();
        let u_reorder: f64 = self.rng.random();
        let u_jitter: f64 = self.rng.random();

        let deliver = u_loss >= self.plan.drop_p(now);
        let duplicate = u_dup < self.plan.dup_p;
        let corrupt = u_corrupt < self.plan.corrupt_p;
        let delay = if u_reorder < self.plan.reorder_p {
            Some(self.plan.reorder_delay + self.plan.jitter.mul_f64(u_jitter))
        } else {
            None
        };
        Verdict { deliver, duplicate, corrupt, delay }
    }
}

/// A frame held back by the reorder model, due for release at `due`.
#[derive(Clone, Debug)]
pub struct DelayedSend {
    /// When to release the frame.
    pub due: SimTime,
    /// Destination group of the held send.
    pub group: GroupId,
    /// Frame payload.
    pub payload: Bytes,
    /// Send options of the held send.
    pub opts: SendOptions,
}

/// Held-back frames on netsim's [`DeadlineQueue`], released in `(due,
/// push order)` order. Frames are pushed FIFO: at a constant hold-back
/// their dues only grow and they ride the queue's lane; jittered ones
/// that come due earlier fall back to its heap.
#[derive(Debug, Default)]
pub struct DelayQueue(DeadlineQueue<DelayedSend>);

impl DelayQueue {
    /// An empty queue.
    pub fn new() -> Self {
        DelayQueue::default()
    }

    /// Hold a frame until `due`.
    pub fn push(&mut self, due: SimTime, group: GroupId, payload: Bytes, opts: SendOptions) {
        self.0.push_fifo(due, DelayedSend { due, group, payload, opts });
    }

    /// The earliest release time, if any frame is held.
    pub fn next_due(&self) -> Option<SimTime> {
        self.0.peek().map(|e| e.at)
    }

    /// Release the earliest frame due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<DelayedSend> {
        self.0.pop_due(now).map(|e| e.item)
    }

    /// Held frames.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Damage a frame so the receiving agent's `Message::decode` fails cleanly:
/// the body-tag byte (offset 16, after the 16-byte message header) becomes
/// an invalid tag.  Frames too short to carry a tag are blanked entirely.
pub fn corrupt_payload(payload: &Bytes) -> Bytes {
    const TAG_OFFSET: usize = 16;
    if payload.len() > TAG_OFFSET {
        let mut v = payload.to_vec();
        v[TAG_OFFSET] = 0xFF;
        Bytes::from(v)
    } else {
        Bytes::new()
    }
}

/// Parse a chaos spec string into a plan.
///
/// Grammar — comma-separated clauses:
///
/// ```text
/// loss=P                   Bernoulli drop probability
/// dup=P                    duplication probability
/// corrupt=P                corruption probability
/// reorder=P:DUR            hold-back probability and base delay
/// jitter=DUR               uniform extra hold-back
/// burst=P@START+LEN        correlated loss window
/// blackhole=N@START+LEN    cut peer N (1-based index into `peers`)
/// blackhole=all@START+LEN  cut every destination
/// drop=FLOW:N              drop the N-th (0-based) frame of FLOW
/// drop=FLOW:N@PEER         ... counting only frames towards peer PEER
/// group=N                  scope the whole plan to multicast group N
/// ```
///
/// Durations accept `ms` and `s` suffixes (`40ms`, `2s`, `1.5s`). FLOW is
/// `data`, `request`, `repair`, `session` or `parity`; peers are 1-based
/// indexes into `peers`, as for `blackhole=`. A duration that is not
/// finite, is negative or is longer than the clock's range is an error, as
/// are a window whose end and a hold-back (reorder delay plus jitter) whose
/// longest value do not fit the clock.
/// Example: `loss=0.12,dup=0.05,reorder=0.2:40ms,burst=0.8@2s+3s,blackhole=3@1s+3s,drop=data:0`
pub fn parse_spec(spec: &str, peers: &[SocketAddr]) -> Result<ChaosPlan, String> {
    let mut plan = ChaosPlan::new();
    for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
        let (key, val) = clause
            .split_once('=')
            .ok_or_else(|| format!("chaos clause `{clause}` missing `=`"))?;
        plan = parse_clause(plan, key.trim(), val.trim(), peers)
            .map_err(|e| format!("chaos clause `{}`: {e}", clause.trim()))?;
    }
    Ok(plan)
}

/// Add one `key=val` clause to `plan`.
fn parse_clause(mut plan: ChaosPlan, key: &str, val: &str, peers: &[SocketAddr]) -> Result<ChaosPlan, String> {
    match key {
        "loss" => plan.loss_p = parse_p(val)?,
        "dup" => plan.dup_p = parse_p(val)?,
        "corrupt" => plan.corrupt_p = parse_p(val)?,
        "reorder" => {
            let (p, d) = val
                .split_once(':')
                .ok_or_else(|| format!("reorder needs P:DUR, got `{val}`"))?;
            plan.reorder_p = parse_p(p)?;
            plan.reorder_delay = parse_dur(d)?;
            check_hold_back(&plan)?;
        }
        "jitter" => {
            plan.jitter = parse_dur(val)?;
            check_hold_back(&plan)?;
        }
        "burst" => {
            let (p, window) = val
                .split_once('@')
                .ok_or_else(|| format!("burst needs P@START+LEN, got `{val}`"))?;
            let (start, end) = parse_window(window)?;
            plan = plan.loss_burst(parse_p(p)?, start, end);
        }
        "blackhole" => {
            let (who, window) = val
                .split_once('@')
                .ok_or_else(|| format!("blackhole needs N@START+LEN, got `{val}`"))?;
            let (start, end) = parse_window(window)?;
            plan = match who {
                "all" => plan.blackhole_all(start, end),
                n => plan.blackhole(parse_peer(n, peers)?, start, end),
            };
        }
        "drop" => {
            let (rule, peer) = match val.split_once('@') {
                Some((rule, n)) => (rule, Some(parse_peer(n, peers)?)),
                None => (val, None),
            };
            let (flow, nth) = rule
                .split_once(':')
                .ok_or_else(|| format!("drop needs FLOW:N[@PEER], got `{val}`"))?;
            let flow = match flow {
                "data" => flow::DATA,
                "request" => flow::REQUEST,
                "repair" => flow::REPAIR,
                "session" => flow::SESSION,
                "parity" => flow::PARITY,
                other => return Err(format!("unknown flow `{other}`")),
            };
            let nth = nth.parse().map_err(|_| format!("drop index `{nth}` is not a number"))?;
            plan.drops.push(DropNth { flow, nth, peer });
        }
        "group" => {
            let g: u32 = val
                .parse()
                .map_err(|_| format!("chaos group `{val}` is not a group id"))?;
            plan = plan.scoped_to(g);
        }
        other => return Err(format!("unknown chaos key `{other}`")),
    }
    Ok(plan)
}

/// The longest hold-back, `reorder` delay plus `jitter`, must fit the
/// clock: a frame is released at `now` plus it.
fn check_hold_back(plan: &ChaosPlan) -> Result<(), String> {
    match plan.reorder_delay.as_nanos().checked_add(plan.jitter.as_nanos()) {
        Some(_) => Ok(()),
        None => Err("reorder delay plus jitter runs past the clock's range".into()),
    }
}

/// A 1-based index into `peers`.
fn parse_peer(n: &str, peers: &[SocketAddr]) -> Result<SocketAddr, String> {
    let n: usize = n.parse().map_err(|_| format!("peer `{n}` is not a number"))?;
    let i = n.checked_sub(1).ok_or("peers are 1-based")?;
    peers
        .get(i)
        .copied()
        .ok_or_else(|| format!("peer {n} out of range (have {})", peers.len()))
}

fn parse_p(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability `{s}`"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability `{s}` outside [0, 1]"));
    }
    Ok(p)
}

/// A duration with an `ms` or `s` suffix: finite, not negative, and no
/// longer than the clock's range.
fn parse_dur(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (v, per_sec) = match s.strip_suffix("ms") {
        Some(ms) => (ms, 1000.0),
        None => match s.strip_suffix('s') {
            Some(secs) => (secs, 1.0),
            None => return Err(format!("duration `{s}` needs an `ms` or `s` suffix")),
        },
    };
    let secs = v.parse::<f64>().map_err(|_| format!("bad duration `{s}`"))? / per_sec;
    // u64::MAX as f64 is 2^64: the nanoseconds must stay below it.
    if !(secs >= 0.0 && secs * 1e9 < u64::MAX as f64) {
        return Err(format!("duration `{s}` must be finite, not negative and within the clock's range"));
    }
    Ok(SimDuration::from_secs_f64(secs))
}

/// `START+LEN` → `[start, start+len)`, or an error when the end does not
/// fit the clock.
fn parse_window(s: &str) -> Result<(SimTime, SimTime), String> {
    let (start, len) = s
        .split_once('+')
        .ok_or_else(|| format!("window needs START+LEN, got `{s}`"))?;
    let start = parse_dur(start)?.as_nanos();
    let end = start
        .checked_add(parse_dur(len)?.as_nanos())
        .ok_or_else(|| format!("window `{s}` ends past the clock's range"))?;
    Ok((SimTime::from_nanos(start), SimTime::from_nanos(end)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn burst_overrides_base_loss_inside_window_only() {
        let plan = ChaosPlan::new().loss(0.1).loss_burst(0.9, t(1000), t(2000));
        assert_eq!(plan.drop_p(t(500)), 0.1);
        assert_eq!(plan.drop_p(t(1500)), 0.9);
        assert_eq!(plan.drop_p(t(2000)), 0.1, "end is exclusive");
        assert_eq!(plan.healed_at(), t(2000));
    }

    #[test]
    fn blackhole_matches_peer_and_all() {
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:2000".parse().unwrap();
        let plan = ChaosPlan::new().blackhole(a, t(0), t(1000));
        assert!(plan.blackholed(t(500), Some(a)));
        assert!(!plan.blackholed(t(500), Some(b)));
        assert!(!plan.blackholed(t(500), None), "per-peer window skips multicast");
        assert!(!plan.blackholed(t(1000), Some(a)), "healed");
        let all = ChaosPlan::new().blackhole_all(t(0), t(1000));
        assert!(all.blackholed(t(500), Some(b)));
        assert!(all.blackholed(t(500), None));
    }

    #[test]
    fn verdict_sequences_are_seed_deterministic() {
        let plan = ChaosPlan::new()
            .loss(0.3)
            .duplication(0.2)
            .corruption(0.1)
            .reorder(0.4, SimDuration::from_millis(30))
            .jitter(SimDuration::from_millis(10));
        let mut a = ChaosState::new(plan.clone(), 42);
        let mut b = ChaosState::new(plan, 42);
        for i in 0..500 {
            let now = t(i * 7);
            assert_eq!(a.verdict(now), b.verdict(now), "frame {i}");
        }
    }

    #[test]
    fn noop_plan_always_delivers_plain() {
        let mut s = ChaosState::new(ChaosPlan::new(), 7);
        assert!(s.plan.is_noop());
        for i in 0..100 {
            let v = s.verdict(t(i));
            assert_eq!(
                v,
                Verdict { deliver: true, duplicate: false, corrupt: false, delay: None }
            );
        }
    }

    #[test]
    fn delay_queue_releases_in_due_then_fifo_order() {
        let mut q = DelayQueue::new();
        let opts = SendOptions::default();
        q.push(t(30), GroupId(1), Bytes::from_static(b"late"), opts.clone());
        q.push(t(10), GroupId(1), Bytes::from_static(b"a"), opts.clone());
        q.push(t(10), GroupId(1), Bytes::from_static(b"b"), opts);
        assert_eq!(q.next_due(), Some(t(10)));
        assert!(q.pop_due(t(5)).is_none());
        assert_eq!(q.pop_due(t(50)).unwrap().payload.as_ref(), b"a");
        assert_eq!(q.pop_due(t(50)).unwrap().payload.as_ref(), b"b");
        assert!(q.pop_due(t(20)).is_none(), "late frame not due yet");
        assert_eq!(q.pop_due(t(30)).unwrap().payload.as_ref(), b"late");
        assert!(q.is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Frames held at a constant delay, with jitter, or duplicated
        /// (two pushes at one due), released under a monotone `now`, come
        /// out exactly as from one `BinaryHeap` of `(due, push order)`.
        #[test]
        fn delay_queue_releases_in_single_heap_order(
            ops in proptest::collection::vec((0u8..6, 0u64..40), 0..300),
        ) {
            use std::cmp::Reverse;
            let mut q = DelayQueue::new();
            let mut reference = std::collections::BinaryHeap::new();
            let (mut now, mut pushed) = (0u64, 0u64);
            for (op, x) in ops.into_iter().chain((0..300).map(|_| (5, 40))) {
                let (due, copies) = match op {
                    0 | 1 => (now + 5, 1),
                    2 => (now + 5 + x % 20, 1),
                    3 => (now + 5 + x % 20, 2),
                    _ => (now + x, 0),
                };
                for _ in 0..copies {
                    let payload = Bytes::from(pushed.to_le_bytes().to_vec());
                    q.push(t(due), GroupId(1), payload, SendOptions::default());
                    reference.push(Reverse((due, pushed)));
                    pushed += 1;
                }
                if copies == 0 {
                    now = due;
                    loop {
                        let got = q.pop_due(t(now)).map(|d| {
                            let seq = u64::from_le_bytes(d.payload.as_ref().try_into().unwrap());
                            (d.due.as_nanos() / 1_000_000, seq)
                        });
                        let want = match reference.peek() {
                            Some(Reverse((due, _))) if *due <= now => reference.pop().map(|Reverse(e)| e),
                            _ => None,
                        };
                        proptest::prop_assert_eq!(got, want);
                        if got.is_none() {
                            break;
                        }
                    }
                }
                proptest::prop_assert_eq!(q.next_due(), reference.peek().map(|Reverse((due, _))| t(*due)));
                proptest::prop_assert_eq!(q.len(), reference.len());
            }
            proptest::prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn corruption_forces_a_clean_decode_error() {
        // A real encoded message: corrupting it must yield Err, never a
        // different valid message.
        use srm::wire::{Body, Header, Message};
        let m = Message {
            header: Header { sender: srm::SourceId(1), timestamp: SimTime::ZERO },
            body: Body::PageCatalogRequest,
        };
        let enc = m.encode();
        let bad = corrupt_payload(&enc);
        assert!(srm::Message::decode(bad).is_err());
        // Too-short frames are blanked, which is also a decode error.
        assert_eq!(corrupt_payload(&Bytes::from_static(b"tiny")).len(), 0);
    }

    #[test]
    fn spec_parses_the_full_grammar() {
        let peers: Vec<SocketAddr> =
            vec!["127.0.0.1:1000".parse().unwrap(), "127.0.0.1:2000".parse().unwrap()];
        let plan = parse_spec(
            "loss=0.12,dup=0.05,corrupt=0.02,reorder=0.2:40ms,jitter=5ms,\
             burst=0.8@2s+3s,blackhole=2@1s+3s,blackhole=all@10s+1.5s,\
             drop=data:0,drop=session:3@2",
            &peers,
        )
        .unwrap();
        assert_eq!(plan.loss_p, 0.12);
        assert_eq!(plan.dup_p, 0.05);
        assert_eq!(plan.corrupt_p, 0.02);
        assert_eq!(plan.reorder_p, 0.2);
        assert_eq!(plan.reorder_delay, SimDuration::from_millis(40));
        assert_eq!(plan.jitter, SimDuration::from_millis(5));
        assert_eq!(plan.bursts.len(), 1);
        assert_eq!(plan.bursts[0].p, 0.8);
        assert_eq!(plan.bursts[0].window.start, t(2000));
        assert_eq!(plan.bursts[0].window.end, t(5000));
        assert_eq!(plan.blackholes.len(), 2);
        assert_eq!(plan.blackholes[0].peer, Some(peers[1]));
        assert_eq!(plan.blackholes[1].peer, None);
        assert_eq!(plan.healed_at(), t(11_500));
        assert_eq!(
            plan.drops,
            vec![
                DropNth { flow: flow::DATA, nth: 0, peer: None },
                DropNth { flow: flow::SESSION, nth: 3, peer: Some(peers[1]) },
            ]
        );
        assert!(!parse_spec("drop=data:0", &peers).unwrap().is_noop());
    }

    #[test]
    fn a_window_whose_end_overflows_the_clock_is_rejected() {
        // 1e10 s is 1e19 ns, inside u64; twice that is not.
        for spec in ["burst=0.5@1e10s+1e10s", "blackhole=all@1e10s+1e10s"] {
            let err = parse_spec(spec, &[]).unwrap_err();
            assert!(err.contains(spec), "the error names the clause: {err}");
        }
        // The largest window that fits is accepted.
        let plan = parse_spec("burst=0.5@1e10s+8e9s", &[]).unwrap();
        assert!(plan.bursts[0].window.end > plan.bursts[0].window.start);
    }

    #[test]
    fn a_duration_or_hold_back_that_overflows_the_clock_is_rejected() {
        for spec in [
            "reorder=1:infs",
            "reorder=1:1e12s",
            "reorder=1:NaNms",
            "reorder=1:-5ms",
            "jitter=infs",
            "jitter=-1s",
            "burst=0.5@-1s+1s",
            "reorder=1:1e10s,jitter=1e10s",
            "jitter=1e10s,reorder=1:1e10s",
        ] {
            let err = parse_spec(spec, &[]).unwrap_err();
            let last = spec.rsplit(',').next().unwrap();
            assert!(err.contains(&format!("`{last}`")), "the error names the clause: {err}");
        }
        // The longest hold-back that fits is accepted.
        let plan = parse_spec("reorder=1:1e10s,jitter=8e9s", &[]).unwrap();
        assert_eq!(plan.reorder_delay + plan.jitter, SimDuration::from_secs(18_000_000_000));
        assert_eq!(parse_spec("jitter=0ms", &[]).unwrap().jitter, SimDuration::ZERO);
    }

    #[test]
    fn a_drop_rule_counts_its_flows_frames_per_destination() {
        let mut f = Fanout::new(Some(&ChaosPlan::new().drop_nth(flow::DATA, 1)));
        let cut = |f: &mut Fanout, flow| f.cut(t(0), flow, None).is_some();
        assert!(!cut(&mut f, flow::DATA));
        assert!(cut(&mut f, flow::DATA));
        assert!(!cut(&mut f, flow::DATA));
        assert!(!cut(&mut f, flow::SESSION));
    }

    #[test]
    fn a_per_peer_drop_rule_counts_only_that_peer() {
        let a: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let b: SocketAddr = "127.0.0.1:2000".parse().unwrap();
        let plan = ChaosPlan::new().drop_nth_to(flow::DATA, b, 0);
        let mut f = Fanout::new(Some(&plan));
        assert!(f.cut(t(0), flow::DATA, Some(a)).is_none());
        assert!(matches!(f.cut(t(0), flow::DATA, Some(b)), Some(Cut::Dropped)));
        assert!(f.cut(t(0), flow::DATA, Some(b)).is_none());
        // Multicast sends (no destination) never match a per-peer rule.
        let mut q = Fanout::new(Some(&plan));
        assert!(q.cut(t(0), flow::DATA, None).is_none());
    }

    #[test]
    fn a_blackholed_frame_is_not_counted_by_a_drop_rule() {
        let plan = ChaosPlan::new().blackhole_all(t(0), t(1000)).drop_nth(flow::DATA, 0);
        let mut f = Fanout::new(Some(&plan));
        assert!(matches!(f.cut(t(500), flow::DATA, None), Some(Cut::Blackholed)));
        assert!(matches!(f.cut(t(1000), flow::DATA, None), Some(Cut::Dropped)));
        assert!(f.cut(t(1000), flow::DATA, None).is_none());
    }

    #[test]
    fn spec_rejects_nonsense() {
        assert!(parse_spec("loss", &[]).is_err());
        assert!(parse_spec("loss=1.5", &[]).is_err());
        assert!(parse_spec("warp=0.5", &[]).is_err());
        assert!(parse_spec("reorder=0.5", &[]).is_err());
        assert!(parse_spec("jitter=5", &[]).is_err(), "missing unit");
        assert!(parse_spec("blackhole=3@1s+1s", &[]).is_err(), "peer out of range");
        assert!(parse_spec("blackhole=0@1s+1s", &[]).is_err(), "peers are 1-based");
        assert!(parse_spec("group=nope", &[]).is_err());
        assert!(parse_spec("drop=data", &[]).is_err(), "missing index");
        assert!(parse_spec("drop=video:0", &[]).is_err(), "unknown flow");
        assert!(parse_spec("drop=data:0@1", &[]).is_err(), "peer out of range");
    }

    #[test]
    fn spec_group_clause_scopes_the_plan() {
        let plan = parse_spec("loss=0.5,group=7", &[]).unwrap();
        assert_eq!(plan.only_group, Some(7));
        assert!(plan.applies_to(GroupId(7)));
        assert!(!plan.applies_to(GroupId(8)));
        let unscoped = parse_spec("loss=0.5", &[]).unwrap();
        assert!(unscoped.applies_to(GroupId(8)));
    }

    #[test]
    fn group_scoping_does_not_perturb_the_scoped_groups_draws() {
        // Interleave frames for groups 7 and 9 through a plan scoped to 7:
        // the verdicts group 7's frames receive must equal the verdicts
        // from a run where only group 7's frames exist — other-group
        // traffic consumes no draws (the replay-from-seed contract the
        // hub's per-shard soaks rely on).
        let plan = ChaosPlan::new()
            .loss(0.3)
            .duplication(0.2)
            .reorder(0.4, SimDuration::from_millis(30))
            .scoped_to(7);
        let mut mixed = ChaosState::new(plan.clone(), 99);
        let mut alone = ChaosState::new(plan.clone(), 99);
        for i in 0..200u64 {
            let now = t(i * 3);
            if i % 3 == 0 {
                // Group 7's frame: both runs draw.
                assert_eq!(mixed.verdict(now), alone.verdict(now), "frame {i}");
            } else {
                // Another group's frame: the mixed run must *not* draw —
                // modelled here by simply not calling verdict, which is
                // exactly what `applies_to` gates in the group's send.
                assert!(!plan.applies_to(GroupId(9)));
            }
        }
    }
}
