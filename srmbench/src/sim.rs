//! `sim_fig4`: the paper's Fig. 4 setting on `netsim`, single thread.
//!
//! One *epoch* builds the 20 sessions of the figure (1000-node degree-4
//! tree, 50 members, random congested link — `fig4::spec(50, rep, ..)` for
//! the paper's replicates `rep = 0..20`), warms each with one round, then
//! runs 700 loss-recovery rounds on each, visiting the sessions round-robin.
//! Epochs repeat, identically seeded, while another fits into `--seconds`
//! (and always twice).
//!
//! The four protocol metrics are exact counts over the first epoch's fixed
//! rounds — a pure function of the seed, identical in every later epoch
//! (which is checked). The two timings are medians: set-up over every
//! session built, CPU per round over windows of 50 passes (a pass is one
//! round on every session).
//!
//! `--seed` selects the timer seed of every session ("each run uses a new
//! seed for the pseudo-random number generator to control the timer
//! choices", §V), not the topologies: across topologies requests per loss
//! differ by more than any bound this benchmark could hold, so the twenty
//! topologies are the figure's own and stay put.

use crate::cpu::OwnThreads;
use crate::spec::{SIM_ROUNDS, SIM_SESSIONS};
use crate::stats::{median, quantile};
use crate::trace::Span;
use crate::{Clock, Outcome};
use netsim::flow;
use srm::SrmConfig;
use srm_experiments::{fig4, run_round, Session};

const MEMBERS: usize = 50;
/// Passes (one round on every session) per CPU sample. The kernel brings a
/// running thread's on-CPU time up to date only at scheduler ticks (4 ms at
/// HZ=250), so a sample has to span many of them: 50 passes are about 0.7 s.
const CPU_WINDOW_PASSES: usize = 50;
/// `run_round`'s settle limit in simulated seconds (Fig. 4's own).
const SETTLE_S: f64 = 100_000.0;

/// The exact, seed-determined part of an epoch.
#[derive(Clone, Debug, Default, PartialEq)]
struct Counts {
    rounds: u64,
    requests: u64,
    repairs: u64,
    link_bytes: u64,
    events: u64,
    hops: u64,
    data_sent: u64,
    affected: u64,
    unrecovered: u64,
    /// `last_member_delay_over_rtt` per round, in run order.
    last_member: Vec<f64>,
    /// Every affected member's recovery delay / RTT.
    recovery: Vec<f64>,
    /// Every affected member's request delay / RTT.
    request_delay: Vec<f64>,
}

struct Epoch {
    counts: Counts,
    setup_s: Vec<f64>,
    /// Process CPU per round, one sample per [`CPU_WINDOW_PASSES`] passes.
    round_cpu_us: Vec<f64>,
    spans: Vec<Span>,
}

fn link_bytes(s: &Session) -> u64 {
    s.sim.stats.links.iter().map(|l| l.bytes).sum()
}

fn timer_seed(seed: u64, rep: u64) -> u64 {
    let mut x = seed ^ (rep + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

fn epoch(
    seed: u64,
    sessions: u64,
    rounds: usize,
    traced: bool,
    clock: &Clock,
    cpu: &OwnThreads,
) -> Epoch {
    let mut e = Epoch {
        counts: Counts::default(),
        setup_s: Vec::new(),
        round_cpu_us: Vec::new(),
        spans: Vec::new(),
    };
    let mut built: Vec<Session> = Vec::new();
    for rep in 0..sessions {
        let t = clock.now_ns();
        let mut spec = fig4::spec(MEMBERS, rep, SrmConfig::fixed(MEMBERS));
        spec.timer_seed = Some(timer_seed(seed, rep));
        let mut s = spec.build();
        if traced {
            srm::enable_tracing(&mut s.sim);
        }
        let warm = run_round(&mut s, SETTLE_S);
        e.setup_s
            .push(clock.now_ns().saturating_sub(t) as f64 / 1e9);
        e.counts.unrecovered += u64::from(!warm.all_recovered);
        built.push(s);
    }
    let base: Vec<(u64, u64, u64, u64)> = built
        .iter()
        .map(|s| {
            (
                link_bytes(s),
                s.sim.stats.events,
                s.sim.stats.total_hops(),
                s.sim.stats.sent_for(flow::DATA),
            )
        })
        .collect();
    let t0 = clock.now_ns();
    let mut cpu0 = cpu.sample().process_ns;
    for pass in 1..=rounds {
        for s in built.iter_mut() {
            let r = run_round(s, SETTLE_S);
            let c = &mut e.counts;
            c.rounds += 1;
            c.requests += r.requests;
            c.repairs += r.repairs;
            c.affected += r.affected as u64;
            c.unrecovered += u64::from(!r.all_recovered);
            c.last_member
                .push(r.last_member_delay_over_rtt(s).unwrap_or(0.0));
            c.recovery.extend(r.recovery_over_rtt.iter().map(|x| x.1));
            c.request_delay
                .extend(r.request_delay_over_rtt.iter().map(|x| x.1));
        }
        if pass % CPU_WINDOW_PASSES == 0 || pass == rounds {
            let passes = (pass - 1) % CPU_WINDOW_PASSES + 1;
            let now = cpu.sample().process_ns;
            e.round_cpu_us
                .push(now.saturating_sub(cpu0) as f64 / (passes as u64 * sessions) as f64 / 1e3);
            cpu0 = now;
        }
    }
    e.spans.push(Span {
        layer: "netsim".into(),
        name: "sim.rounds".into(),
        id: format!("sim/epoch@{t0}"),
        parent: None,
        start_ns: t0,
        end_ns: clock.now_ns(),
        calls: e.counts.rounds,
    });
    for (s, (bytes, events, hops, data)) in built.iter().zip(base) {
        e.counts.link_bytes += link_bytes(s) - bytes;
        e.counts.events += s.sim.stats.events - events;
        e.counts.hops += s.sim.stats.total_hops() - hops;
        e.counts.data_sent += s.sim.stats.sent_for(flow::DATA) - data;
    }
    e
}

/// Sizes the smoke run shrinks.
#[derive(Clone, Copy)]
pub struct SimKnobs {
    /// Seconds to keep starting epochs for.
    pub seconds: f64,
    /// Sessions per epoch.
    pub sessions: u64,
    /// Rounds per session per epoch.
    pub rounds: usize,
}

impl SimKnobs {
    /// The shipped sizes for `--seconds`.
    pub fn full(seconds: f64) -> Self {
        SimKnobs {
            seconds,
            sessions: SIM_SESSIONS,
            rounds: SIM_ROUNDS,
        }
    }
}

/// Run epochs for `knobs.seconds`. With `traced`, every other epoch runs
/// with the agents' event recorders on and the per-layer metrics are added.
pub fn run(seed: u64, knobs: SimKnobs, traced: bool, clock: Clock) -> Outcome {
    let cpu = OwnThreads::default();
    let mut o = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let start = clock.now_ns();
    let budget = (knobs.seconds * 1e9) as u64;
    let mut first: Option<Counts> = None;
    let mut setups = Vec::new();
    let (mut plain_cpu, mut traced_cpu) = (Vec::new(), Vec::new());
    let mut n = 0u64;
    let mut last_epoch_ns = 0;
    // Two epochs at least (the second proves the first reproducible, and in
    // a traced run has the recorders on); then as many as still fit.
    while n < 2 || clock.now_ns() - start + last_epoch_ns <= budget {
        let began = clock.now_ns();
        let with_recorders = traced && n % 2 == 1;
        let e = epoch(
            seed,
            knobs.sessions,
            knobs.rounds,
            with_recorders,
            &clock,
            &cpu,
        );
        o.attempted += e.counts.rounds;
        o.failed += e.counts.unrecovered;
        if with_recorders {
            &mut traced_cpu
        } else {
            &mut plain_cpu
        }
        .extend(e.round_cpu_us);
        setups.extend(e.setup_s);
        o.spans.extend(e.spans);
        match &first {
            None => first = Some(e.counts),
            // Recording must not change a single protocol decision, and an
            // identically seeded epoch must reproduce the first bit for bit.
            Some(f) if *f != e.counts => {
                o.correct = false;
                o.notes.push(format!("epoch {n} did not reproduce epoch 0"));
            }
            Some(_) => {}
        }
        n += 1;
        last_epoch_ns = clock.now_ns() - began;
    }
    let c = first.expect("at least one epoch ran");
    if o.failed > 0 {
        o.correct = false;
        o.notes
            .push(format!("{} rounds left a member unrecovered", o.failed));
    }
    let rounds = c.rounds.max(1) as f64;
    let m = &mut o.metrics;
    m.insert("setup_s", median(&setups).unwrap_or(f64::NAN));
    m.insert("cpu_us_per_adu", median(&plain_cpu).unwrap_or(f64::NAN));
    m.insert(
        "adu_p50_rtt",
        quantile(&c.last_member, 0.50).unwrap_or(f64::NAN),
    );
    m.insert(
        "adu_p99_rtt",
        quantile(&c.last_member, 0.99).unwrap_or(f64::NAN),
    );
    m.insert("frames_per_adu", (c.requests + c.repairs) as f64 / rounds);
    m.insert("wire_bytes_per_adu", c.link_bytes as f64 / rounds);
    let list = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| format!("{:.3}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    o.notes.push(format!(
        "per window: cpu us/round [{}]",
        list(&plain_cpu, 1.0)
    ));
    o.notes
        .push(format!("per session: setup ms [{}]", list(&setups, 1e3)));
    o.notes.push(format!(
        "{n} epochs of {} sessions x {} rounds; requests/round {:.4}, repairs/round {:.4}",
        knobs.sessions,
        knobs.rounds,
        c.requests as f64 / rounds,
        c.repairs as f64 / rounds
    ));
    if traced {
        let cpu_us = median(&plain_cpu).unwrap_or(f64::NAN);
        m.insert(
            "netsim.event_ns",
            cpu_us * 1e3 * rounds / c.events.max(1) as f64,
        );
        m.insert("netsim.events_per_round", c.events as f64 / rounds);
        m.insert("netsim.hops_per_round", c.hops as f64 / rounds);
        m.insert("recovery.losses", rounds);
        m.insert(
            "recovery.p50_rtt",
            quantile(&c.recovery, 0.5).unwrap_or(0.0),
        );
        m.insert(
            "recovery.p90_rtt",
            quantile(&c.recovery, 0.9).unwrap_or(0.0),
        );
        m.insert(
            "recovery.request_delay_p50_rtt",
            quantile(&c.request_delay, 0.5).unwrap_or(0.0),
        );
        m.insert("recovery.requests_per_loss", c.requests as f64 / rounds);
        m.insert("recovery.repairs_per_loss", c.repairs as f64 / rounds);
        // Two ADUs per round reach every other member; `affected` of those
        // receptions came as repairs.
        m.insert(
            "recovery.via_repair_share",
            c.affected as f64 / (2.0 * rounds * (MEMBERS - 1) as f64),
        );
        m.insert("traffic.data_frames_per_adu", c.data_sent as f64 / rounds);
        m.insert("traffic.request_frames_per_adu", c.requests as f64 / rounds);
        m.insert("traffic.repair_frames_per_adu", c.repairs as f64 / rounds);
        m.insert(
            "trace.overhead_share",
            median(&traced_cpu).unwrap_or(f64::NAN) / cpu_us - 1.0,
        );
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_bit_identical_counts_and_other_seeds_do_not() {
        let clock = Clock::start();
        let cpu = OwnThreads::default();
        let a = epoch(7, 2, 5, false, &clock, &cpu).counts;
        let b = epoch(7, 2, 5, true, &clock, &cpu).counts;
        assert_eq!(a, b, "same seed, recorders on or off: same protocol run");
        assert_eq!(a.rounds, 10);
        assert_eq!(a.unrecovered, 0);
        assert!(
            a.requests >= a.rounds && a.repairs >= a.rounds,
            "every loss is asked for and repaired"
        );
        let c = epoch(8, 2, 5, false, &clock, &cpu).counts;
        assert_ne!(a.last_member, c.last_member, "the seed reaches the timers");
    }
}
