//! The order in which the simulator hands out packets and timers, pinned.
//!
//! Same-instant ties are the norm in the paper's simulations: unit link
//! delays put a flood's copies on one grid, and C2 = 0 timers land on it
//! too. Ties decide which handler runs first, and handlers draw from the
//! simulator's one RNG, so any change in how the event queue holds a flood
//! moves the figures. Each scenario below is built to make such ties; the
//! test hashes its full event log, every handler call (node, `now`,
//! `local_now`, and the packet's id and TTL or the timer's token) and the
//! final `Stats`, and requires one hash over all of them to stay as pinned.
//! Each scenario also runs with the event log off and must make exactly the
//! same handler calls.

use bytes::Bytes;
use netsim::effects::RandomEffects;
use netsim::generators::{chain, star};
use netsim::loss::{BernoulliLoss, OneShotLinkDrop};
use netsim::{
    flow, Application, Ctx, FaultPlan, GroupId, NodeId, Packet, SendOptions, SimDuration,
    SimTime, Simulator, Topology, TopologyBuilder,
};
use rand::Rng;
use srm::{SourceId, SrmAgent, SrmConfig, TimerParams};
use srm_experiments::scenario::{MembersSpec, GROUP};
use srm_experiments::{DropSpec, ScenarioSpec, TopoSpec};
use std::cell::RefCell;
use std::fmt::Write;
use std::rc::Rc;

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every handler call of one run, in call order, one line each.
type CallLog = Rc<RefCell<String>>;

/// Wraps an application and writes each of its handler calls to a log the
/// whole simulation shares.
struct Logged<A> {
    inner: A,
    log: CallLog,
}

impl<A: Application> Application for Logged<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        writeln!(self.log.borrow_mut(), "start {:?} {:?}", ctx.node, ctx.now).unwrap();
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        writeln!(
            self.log.borrow_mut(),
            "packet {:?} {:?} {:?} {:?} ttl={}",
            ctx.node,
            ctx.now,
            ctx.local_now(),
            pkt.id,
            pkt.ttl
        )
        .unwrap();
        self.inner.on_packet(ctx, pkt);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        writeln!(
            self.log.borrow_mut(),
            "timer {:?} {:?} {:?} token={token}",
            ctx.node,
            ctx.now,
            ctx.local_now()
        )
        .unwrap();
        self.inner.on_timer(ctx, token);
    }
}

const G: GroupId = GroupId(1);
const G2: GroupId = GroupId(2);
const REJOIN: u64 = u64::MAX;

/// A member that reacts to what it hears at random, drawing from the
/// shared RNG: it multicasts, unicasts, and sets timers of exactly `delay`
/// (one link delay, so they tie with a flood's next copies), until its
/// send budget runs out. With `churn`, a packet may make it leave or rejoin
/// [`G`] inside `on_packet`; it stays in [`G2`], where half its sends go,
/// so it keeps hearing packets.
struct Probe {
    budget: u32,
    delay: SimDuration,
    churn: bool,
    in_g: bool,
    peer: NodeId,
}

impl Probe {
    fn send(&mut self, ctx: &mut Ctx<'_>, tag: u8) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let group = if self.churn && tag % 2 == 1 { G2 } else { G };
        let flow = u32::from(tag % 4);
        let opts = SendOptions::for_flow(flow);
        ctx.multicast_with(group, Bytes::from(vec![tag, ctx.node.0 as u8]), opts);
    }
}

impl Application for Probe {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node.0.is_multiple_of(3) {
            ctx.set_timer(self.delay, 0);
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let r: u32 = ctx.rng().random_range(0..6);
        match r {
            0 => self.send(ctx, pkt.payload[0].wrapping_add(1)),
            1 if self.budget > 0 => {
                ctx.set_timer(self.delay, u64::from(pkt.payload[0]));
            }
            2 => {
                self.send(ctx, 7);
                ctx.set_timer(SimDuration::ZERO, 9);
            }
            3 if self.budget > 0 && self.peer != ctx.node => {
                self.budget -= 1;
                ctx.unicast(self.peer, Bytes::from_static(&[3, 3]), SendOptions::default());
            }
            _ => {}
        }
        if self.churn && r >= 4 {
            if self.in_g {
                ctx.leave(G);
            } else {
                ctx.join(G);
            }
            self.in_g = !self.in_g;
            if r == 5 && !self.in_g {
                ctx.set_timer(self.delay, REJOIN);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == REJOIN {
            if !self.in_g {
                ctx.join(G);
                self.in_g = true;
            }
            return;
        }
        let tag = ctx.rng().random_range(0..200u32) as u8;
        self.send(ctx, tag);
    }
}

/// A [`Probe`] run: the topology, who is installed, and what perturbs it.
struct ProbeRun {
    topo: Topology,
    nodes: Vec<NodeId>,
    budget: u32,
    delay: SimDuration,
    churn: bool,
    setup: fn(&mut Simulator<Logged<Probe>>),
}

/// The event log (when `trace`), the handler calls and the stats of one run.
fn run_probe(seed: u64, p: &ProbeRun, trace: bool) -> (String, String) {
    let log = CallLog::default();
    let mut sim = Simulator::new(p.topo.clone(), seed);
    let peer = p.nodes[0];
    for &n in &p.nodes {
        let inner = Probe { budget: p.budget, delay: p.delay, churn: p.churn, in_g: true, peer };
        sim.install(n, Logged { inner, log: log.clone() });
        sim.join(n, G);
        if p.churn {
            sim.join(n, G2);
        }
    }
    if trace {
        sim.trace.enable();
    }
    (p.setup)(&mut sim);
    for (i, &n) in p.nodes.iter().enumerate().take(3) {
        sim.send_from(n, G, Bytes::from(vec![i as u8, 0]), SendOptions::default());
    }
    assert!(sim.run_until_idle(SimTime::from_secs(10_000)), "the probe run settles");
    (finish(&sim), log.take())
}

/// The event log and the stats of a finished run, as text.
fn finish<A: Application>(sim: &Simulator<A>) -> String {
    let mut out = String::new();
    for e in sim.trace.events() {
        writeln!(out, "{e:?}").unwrap();
    }
    writeln!(out, "{:?} at {:?}", sim.stats, sim.now()).unwrap();
    out
}

fn all(topo: &Topology) -> Vec<NodeId> {
    topo.nodes().collect()
}

fn no_setup(_: &mut Simulator<Logged<Probe>>) {}

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

/// A tree of 0.5-s and 1-s links: one flood reaches nodes 1 and 3 at the
/// same instant with different TTLs, and node 5 hears two sources' copies
/// at once.
fn mixed_delays() -> Topology {
    let mut b = TopologyBuilder::new(8);
    for (x, y, d) in [
        (0, 1, 1.0),
        (0, 2, 0.5),
        (2, 3, 0.5),
        (1, 4, 0.5),
        (3, 5, 1.0),
        (4, 5, 1.0),
        (2, 6, 1.0),
        (6, 7, 0.5),
    ] {
        b.link_with(NodeId(x), NodeId(y), secs(d), 1);
    }
    b.build()
}

/// A star whose leaves 1 and 2 reach nodes 7 and 8 over zero-delay links:
/// a batch at the leaves forwards copies into its own instant, and a later
/// leaf in the same batch may send in that instant too.
fn zero_delay_spokes() -> Topology {
    let mut b = TopologyBuilder::new(11);
    for leaf in 1..=6 {
        b.link(NodeId(0), NodeId(leaf));
    }
    for (x, y, d) in [(1, 7, 0.0), (2, 8, 0.0), (7, 9, 1.0), (8, 10, 1.0)] {
        b.link_with(NodeId(x), NodeId(y), secs(d), 1);
    }
    b.build()
}

/// A chain whose middle link has zero delay: copies cross it and arrive in
/// the instant they left.
fn zero_delay_chain() -> Topology {
    let mut b = TopologyBuilder::new(7);
    for i in 0..6u32 {
        let d = if i == 3 { 0.0 } else { 1.0 };
        b.link_with(NodeId(i), NodeId(i + 1), secs(d), 1);
    }
    b.link_with(NodeId(2), NodeId(0), secs(0.0), 1);
    b.build()
}

fn probe_runs() -> Vec<(&'static str, ProbeRun)> {
    let s = star(8);
    let tree = netsim::generators::bounded_degree_tree(40, 3);
    let c = chain(9);
    let tree_members: Vec<NodeId> = (0..40).step_by(3).map(NodeId).collect();
    vec![
        (
            "star, timers of one link delay",
            ProbeRun {
                nodes: all(&s),
                topo: s.clone(),
                budget: 4,
                delay: secs(1.0),
                churn: false,
                setup: no_setup,
            },
        ),
        (
            "0.5-s and 1-s links",
            ProbeRun {
                topo: mixed_delays(),
                nodes: vec![NodeId(0), NodeId(1), NodeId(3), NodeId(5), NodeId(7)],
                budget: 4,
                delay: secs(0.5),
                churn: false,
                setup: no_setup,
            },
        ),
        (
            "a zero-delay link",
            ProbeRun {
                topo: zero_delay_chain(),
                nodes: all(&zero_delay_chain()),
                budget: 3,
                delay: secs(1.0),
                churn: false,
                setup: no_setup,
            },
        ),
        (
            "zero-delay spokes, random loss",
            ProbeRun {
                topo: zero_delay_spokes(),
                nodes: all(&zero_delay_spokes()),
                budget: 3,
                delay: secs(1.0),
                churn: false,
                setup: |sim| sim.set_loss_model(Box::new(BernoulliLoss::everywhere(0.05, 14))),
            },
        ),
        (
            "duplication and jitter",
            ProbeRun {
                topo: tree.clone(),
                nodes: tree_members.clone(),
                budget: 3,
                delay: secs(1.0),
                churn: false,
                setup: |sim| {
                    sim.set_channel_effects(Box::new(RandomEffects::new(0.3, secs(0.4), 11)));
                },
            },
        ),
        (
            "duplication without jitter",
            ProbeRun {
                topo: tree.clone(),
                nodes: tree_members.clone(),
                budget: 3,
                delay: secs(1.0),
                churn: false,
                setup: |sim| {
                    sim.set_channel_effects(Box::new(RandomEffects::new(0.5, SimDuration::ZERO, 12)));
                },
            },
        ),
        (
            "random loss and a loss burst",
            ProbeRun {
                topo: tree.clone(),
                nodes: tree_members.clone(),
                budget: 4,
                delay: secs(1.0),
                churn: false,
                setup: |sim| {
                    sim.set_loss_model(Box::new(BernoulliLoss::everywhere(0.1, 13)));
                    sim.set_fault_plan(FaultPlan::new().loss_burst(
                        SimTime::from_secs(2),
                        None,
                        0.5,
                        secs(3.0),
                    ));
                },
            },
        ),
        (
            "a link down and up mid-flood",
            ProbeRun {
                topo: c.clone(),
                nodes: all(&c),
                budget: 4,
                delay: secs(1.0),
                churn: false,
                setup: |sim| {
                    let l = sim.topology().link_between(NodeId(3), NodeId(4)).unwrap();
                    let m = sim.topology().link_between(NodeId(6), NodeId(7)).unwrap();
                    sim.set_fault_plan(
                        FaultPlan::new()
                            .link_down(SimTime::from_secs(2), l)
                            .link_up(SimTime::from_secs_f64(4.5), l)
                            .link_down(SimTime::from_secs_f64(5.5), m)
                            .link_up(SimTime::from_secs(7), m)
                            .clock_skew(SimTime::from_secs(1), NodeId(5), 0.25),
                    );
                },
            },
        ),
        (
            "leaves and joins inside on_packet, duplicated copies",
            ProbeRun {
                topo: tree.clone(),
                nodes: tree_members,
                budget: 5,
                delay: secs(1.0),
                churn: true,
                setup: |sim| {
                    sim.set_channel_effects(Box::new(RandomEffects::new(0.5, SimDuration::ZERO, 15)));
                },
            },
        ),
    ]
}

/// Fig. 6's chain with C2 = 0: every member's request timer for one loss
/// lands on the one-second grid the flood's copies arrive on.
fn fig6_chain(seed: u64, trace: bool) -> (String, String) {
    let cfg = SrmConfig {
        timers: TimerParams { c1: 2.0, c2: 0.0, d1: 1.0, d2: 1.0 },
        ..SrmConfig::default()
    };
    let mut spec = ScenarioSpec::round(
        TopoSpec::Chain { n: 12 },
        MembersSpec::All,
        DropSpec::HopsFromSource(2),
        cfg.clone(),
        seed,
    );
    spec.timer_seed = Some(seed);
    let layout = spec.build();
    let log = CallLog::default();
    let mut sim = Simulator::new(layout.sim.topology().clone(), seed);
    for &m in &layout.members {
        let mut agent = SrmAgent::new(SourceId(m.0 as u64), GROUP, cfg.clone());
        agent.session_enabled = false;
        agent.set_current_page(layout.page());
        agent.distances_mut().set_exact_distances(&mut sim, m, &layout.members);
        sim.install(m, Logged { inner: agent, log: log.clone() });
        sim.join(m, GROUP);
    }
    if trace {
        sim.trace.enable();
    }
    let (source, page) = (layout.source, layout.page());
    for _ in 0..3 {
        sim.set_loss_model(Box::new(OneShotLinkDrop::new(
            layout.congested_link.expect("a congested link"),
            source,
            flow::DATA,
        )));
        for gap in [0.01, 0.0] {
            sim.exec(source, |a, ctx| {
                a.inner.send_data(ctx, page, Bytes::from_static(b"adu"));
            });
            sim.run_until(sim.now() + secs(gap));
        }
        assert!(sim.run_until_idle(sim.now() + SimDuration::from_secs(100_000)));
    }
    (finish(&sim), log.take())
}

/// Every scenario with the event log on, hashed; each also runs with the
/// log off and must make the same handler calls.
fn flood_order_hash() -> u64 {
    let mut blob = String::new();
    let mut check = |name: &str, on: (String, String), off: (String, String)| {
        assert_eq!(on.1, off.1, "{name}: the event log changed the handler calls");
        assert!(!on.1.is_empty(), "{name}: no handler ran");
        writeln!(blob, "== {name}\n{}{}", on.0, on.1).unwrap();
    };
    for seed in [1u64, 2, 3] {
        check("fig6 chain, C2 = 0", fig6_chain(seed, true), fig6_chain(seed, false));
        for (name, run) in probe_runs() {
            check(name, run_probe(seed, &run, true), run_probe(seed, &run, false));
        }
    }
    fnv1a(blob.as_bytes())
}

#[test]
fn same_instant_ties_pop_in_the_pinned_order() {
    let h = flood_order_hash();
    assert_eq!(
        h, PINNED_FLOOD_ORDER_HASH,
        "flood order drifted: got {h:#018x}, pinned {PINNED_FLOOD_ORDER_HASH:#018x}"
    );
}

/// Pinned against the simulator that queued one entry per packet copy per
/// link crossing, so it holds the engine to that pop order.
const PINNED_FLOOD_ORDER_HASH: u64 = 0x9897_36f0_0dbf_f2f6;
