//! Multi-node chaos soak: a bounded wall-clock session that must survive.
//!
//! [`run`] spins up a 3–5 node loopback mesh ([`Harness`]), applies one
//! scripted [`ChaosPlan`](crate::ChaosPlan) (same seed-derived schedule
//! shape on every node),
//! has every member publish ADUs while the chaos is active, and then checks
//! the invariants that define "SRM survived":
//!
//! 1. **Eventual delivery** — after the scripted windows heal, every ADU
//!    reaches every other member within the settle budget (the paper's
//!    reliability definition: eventual delivery, no ordering).
//! 2. **No reactor deaths** — zero read paths exhausted their respawn
//!    budget, and every reactor still answers a
//!    [`NodeHandle::ping`](crate::NodeHandle::ping).
//! 3. **Bounded growth** — timer-wheel and delay-queue high-water marks
//!    stay under fixed caps (no leak under churn).
//! 4. **Zero unexplained drops** — every per-destination send attempt is
//!    accounted as sent, dropped by a drop rule, blackholed, or a send error
//!    ([`TransportStats::frames_accounted`]).
//!
//! The report carries per-node [`TransportStats`] and the agents' liveness
//! and durable-store counts (one line per member, traced or not), the
//! delivery matrix, the protocol [`RunSummary`](srm::RunSummary), and (with
//! `trace`) the merged obs timeline — so a failing soak is diagnosable from
//! its artifacts, and replayable from its seed.

use crate::chaos::parse_spec;
use crate::harness::Harness;
use crate::runtime::TransportStats;
use bytes::Bytes;
use netsim::GroupId;
use srm::{AduName, LivenessConfig, PageId, SourceId, SrmAgent, SrmConfig};
use std::collections::HashSet;
use std::io;
use std::time::{Duration, Instant};

/// Timer-wheel high-water cap (entries, including lazy-cancelled slots).
/// Generous: a healthy agent keeps a handful of pending timers; only a
/// leak crosses this.
pub const MAX_WHEEL: u64 = 10_000;
/// Chaos delay-queue high-water cap (held-back frames).
pub const MAX_DELAYQ: u64 = 4_096;

/// Configuration for one soak run.
#[derive(Clone, Debug)]
pub struct SoakOptions {
    /// Mesh size (the ISSUE's 3–5 node range; anything ≥ 2 works).
    pub nodes: usize,
    /// Scripted phase length: sends are paced over the first half, chaos
    /// windows should live inside it.
    pub duration: Duration,
    /// ADUs each member publishes.
    pub adus_per_node: usize,
    /// Chaos spec ([`parse_spec`] grammar), applied to every node with the
    /// mesh's index-aligned address list.
    pub chaos: String,
    /// Base seed; node seeds (timers + chaos) derive from it.
    pub seed: u64,
    /// Extra wall-clock budget after `duration` for recovery to finish.
    pub settle: Duration,
    /// Peer-liveness thresholds (always enabled in a soak).
    pub liveness: LivenessConfig,
    /// Capture obs timelines (recovery + transport events).
    pub trace: bool,
    /// The multicast group the mesh runs on. Soaks were hard-wired to
    /// group 1 before the hub existed; a hub shard hosting group `g` is
    /// soaked by setting this to `g` (and optionally scoping the chaos
    /// spec with `group=g`), with identical replay-from-seed semantics.
    pub group: u32,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            nodes: 3,
            duration: Duration::from_secs(6),
            adus_per_node: 4,
            chaos: "loss=0.1,dup=0.05,reorder=0.15:30ms,jitter=20ms,burst=0.9@1s+2s".into(),
            seed: 1,
            settle: Duration::from_secs(30),
            liveness: LivenessConfig::default(),
            trace: false,
            group: 1,
        }
    }
}

/// One member's soak outcome.
#[derive(Clone, Debug)]
pub struct NodeOutcome {
    /// Member id.
    pub member: u64,
    /// Final transport counters.
    pub stats: TransportStats,
    /// Peer transitions into suspect, from the agent's liveness tracker.
    pub peers_suspected: u64,
    /// Peer transitions into dead, from the agent's liveness tracker.
    pub peers_died: u64,
    /// Repairs the agent served by reading its durable store.
    pub disk_repairs: u64,
    /// ADUs from other members this node delivered.
    pub delivered: usize,
    /// ADUs from other members this node was supposed to deliver.
    pub expected: usize,
    /// The ADUs still missing at shutdown.
    pub missing: Vec<AduName>,
    /// Did the reactor answer a liveness ping at the end?
    pub ping_ok: bool,
}

impl NodeOutcome {
    /// The outcome of a member whose reactor has stopped: its last
    /// counters, what its agent counted, and which of the ADUs it was
    /// `expected` to deliver it did not.
    fn new(
        agent: &SrmAgent,
        stats: TransportStats,
        ping_ok: bool,
        expected: &[AduName],
        delivered: &HashSet<AduName>,
    ) -> Self {
        let missing: Vec<AduName> =
            expected.iter().filter(|a| !delivered.contains(a)).copied().collect();
        NodeOutcome {
            member: agent.id.0,
            stats,
            peers_suspected: agent.liveness.suspected_total,
            peers_died: agent.liveness.died_total,
            disk_repairs: agent.store().disk_fetches(),
            delivered: expected.len() - missing.len(),
            expected: expected.len(),
            missing,
            ping_ok,
        }
    }
}

/// Everything a finished soak learned.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// Per-member outcomes, in member order.
    pub nodes: Vec<NodeOutcome>,
    /// Total wall-clock time spent.
    pub elapsed: Duration,
    /// Total ADUs published across the mesh.
    pub adus_sent: usize,
    /// Run summary (the protocol counter table and histograms).
    pub summary: srm::RunSummary,
    /// Merged obs timeline, when tracing was on.
    pub timeline: Option<obs::Timeline>,
}

impl SoakReport {
    /// The soak invariants this run violated; empty means the soak passed.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for n in &self.nodes {
            let m = n.member;
            if !n.ping_ok {
                v.push(format!("member {m}: reactor did not answer the liveness ping"));
            }
            if n.stats.recv_deaths > 0 {
                v.push(format!(
                    "member {m}: {} read path(s) exhausted the respawn budget",
                    n.stats.recv_deaths
                ));
            }
            if !n.stats.frames_accounted() {
                v.push(format!(
                    "member {m}: unexplained drops — attempted {} != sent {} + dropped {} \
                     + blackholed {} + send_errors {}",
                    n.stats.frames_attempted,
                    n.stats.frames_sent,
                    n.stats.frames_dropped,
                    n.stats.blackholed,
                    n.stats.send_errors
                ));
            }
            if n.stats.max_wheel_len > MAX_WHEEL {
                v.push(format!(
                    "member {m}: timer wheel grew to {} entries (cap {MAX_WHEEL})",
                    n.stats.max_wheel_len
                ));
            }
            if n.stats.max_delayq_len > MAX_DELAYQ {
                v.push(format!(
                    "member {m}: delay queue grew to {} frames (cap {MAX_DELAYQ})",
                    n.stats.max_delayq_len
                ));
            }
            if n.delivered < n.expected {
                v.push(format!(
                    "member {m}: delivered {}/{} ADUs after heal (missing: {})",
                    n.delivered,
                    n.expected,
                    n.missing
                        .iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        v
    }

    /// Human-readable report: one line per member, then the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "soak: {} nodes, {} ADUs, {:.1}s wall clock\n",
            self.nodes.len(),
            self.adus_sent,
            self.elapsed.as_secs_f64()
        ));
        for n in &self.nodes {
            out.push_str(&format!(
                "  member {}: delivered {}/{} | chdrop {} chdup {} chdelay {} chcorrupt {} \
                 blackhole {} | sockerr {} respawn {} decerr {} | suspect {} dead {} diskrep {} \
                 | wheel<= {} delayq<= {} | ping {}\n",
                n.member,
                n.delivered,
                n.expected,
                n.stats.chaos_dropped,
                n.stats.chaos_duplicated,
                n.stats.chaos_delayed,
                n.stats.chaos_corrupted,
                n.stats.blackholed,
                n.stats.recv_transient_errors + n.stats.send_errors,
                n.stats.recv_respawns,
                n.stats.decode_errors,
                n.peers_suspected,
                n.peers_died,
                n.disk_repairs,
                n.stats.max_wheel_len,
                n.stats.max_delayq_len,
                if n.ping_ok { "ok" } else { "DEAD" },
            ));
        }
        let v = self.violations();
        if v.is_empty() {
            out.push_str("soak: PASS — all ADUs delivered, no reactor deaths, growth bounded\n");
        } else {
            out.push_str(&format!("soak: FAIL — {} violation(s)\n", v.len()));
            for line in &v {
                out.push_str(&format!("  ! {line}\n"));
            }
        }
        out
    }
}

/// Poll every node's delivered ADUs into the per-node sets.
fn poll(h: &Harness, delivered: &mut [HashSet<AduName>]) {
    for (i, node) in h.nodes.iter().enumerate() {
        for d in node.take_delivered() {
            delivered[i].insert(d.name);
        }
    }
}

/// Run one chaos soak to completion and report.
pub fn run(opts: &SoakOptions) -> io::Result<SoakReport> {
    let n = opts.nodes.max(2);
    // Validate the spec grammar up front (against a placeholder address
    // list of the right length) so a typo fails before any socket binds.
    let placeholders: Vec<std::net::SocketAddr> = (0..n)
        .map(|i| format!("127.0.0.1:{}", 1000 + i).parse().unwrap())
        .collect();
    parse_spec(&opts.chaos, &placeholders)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("chaos spec: {e}")))?;

    let start = Instant::now();
    let cfg = SrmConfig::fixed(n);
    let spec = opts.chaos.clone();
    let (seed, liveness, trace) = (opts.seed, opts.liveness, opts.trace);
    let h = Harness::loopback(n, GroupId(opts.group), &cfg, |i, addrs, o| {
        o.seed = seed.wrapping_add(i as u64 * 7919);
        o.trace = trace;
        o.liveness = Some(liveness);
        o.chaos = Some(parse_spec(&spec, addrs).expect("spec validated above"));
    })?;

    // Publish phase: pace every member's ADUs over the first half of the
    // run, so the chaos windows act on live traffic.
    let mut sent: Vec<AduName> = Vec::new();
    let mut delivered: Vec<HashSet<AduName>> = vec![HashSet::new(); n];
    let rounds = opts.adus_per_node.max(1);
    let gap = opts.duration / 2 / (rounds as u32);
    for round in 0..rounds {
        for (i, node) in h.nodes.iter().enumerate() {
            let page = PageId::new(SourceId(i as u64 + 1), 0);
            let payload = format!("soak adu {round} from member {}", i + 1);
            sent.push(node.send_data(page, Bytes::from(payload.into_bytes())));
        }
        poll(&h, &mut delivered);
        std::thread::sleep(gap);
    }

    // Ride out the rest of the scripted phase.
    while start.elapsed() < opts.duration {
        poll(&h, &mut delivered);
        std::thread::sleep(Duration::from_millis(50));
    }

    // Settle phase: the windows have healed; wait (bounded) for SRM's
    // recovery machinery to finish the job.
    let expects: Vec<Vec<AduName>> = (0..n)
        .map(|i| {
            let me = SourceId(i as u64 + 1);
            sent.iter().filter(|a| a.source != me).copied().collect()
        })
        .collect();
    let complete = |delivered: &[HashSet<AduName>]| {
        expects
            .iter()
            .zip(delivered)
            .all(|(want, got)| want.iter().all(|a| got.contains(a)))
    };
    let settle_deadline = Instant::now() + opts.settle;
    while Instant::now() < settle_deadline && !complete(&delivered) {
        poll(&h, &mut delivered);
        std::thread::sleep(Duration::from_millis(50));
    }
    poll(&h, &mut delivered);

    // Probe each reactor, snapshot counters, then harvest.
    let pings: Vec<bool> = h
        .nodes
        .iter()
        .map(|node| node.ping(Duration::from_secs(2)))
        .collect();
    let stats: Vec<TransportStats> = h.nodes.iter().map(|node| node.stats()).collect();
    let mut agents = h.shutdown();
    let summary = srm::harvest_summary(&agents);
    let nodes = (agents.iter().enumerate())
        .map(|(i, a)| NodeOutcome::new(a, stats[i].clone(), pings[i], &expects[i], &delivered[i]))
        .collect();
    let timeline = opts.trace.then(|| srm::harvest_timeline(&mut agents, Vec::new()));

    Ok(SoakReport {
        nodes,
        elapsed: start.elapsed(),
        adus_sent: sent.len(),
        summary,
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_outcome(member: u64) -> NodeOutcome {
        NodeOutcome {
            member,
            stats: TransportStats::default(),
            peers_suspected: 0,
            peers_died: 0,
            disk_repairs: 0,
            delivered: 4,
            expected: 4,
            missing: Vec::new(),
            ping_ok: true,
        }
    }

    fn report(nodes: Vec<NodeOutcome>) -> SoakReport {
        SoakReport {
            nodes,
            elapsed: Duration::from_secs(1),
            adus_sent: 8,
            summary: srm::RunSummary::new(),
            timeline: None,
        }
    }

    #[test]
    fn clean_report_has_no_violations_and_renders_pass() {
        let r = report(vec![clean_outcome(1), clean_outcome(2)]);
        assert!(r.violations().is_empty());
        assert!(r.render().contains("soak: PASS"));
    }

    #[test]
    fn each_invariant_breach_is_reported() {
        let mut dead = clean_outcome(1);
        dead.ping_ok = false;
        dead.stats.recv_deaths = 1;
        let mut leaky = clean_outcome(2);
        leaky.stats.max_wheel_len = MAX_WHEEL + 1;
        leaky.stats.max_delayq_len = MAX_DELAYQ + 1;
        let mut unexplained = clean_outcome(3);
        unexplained.stats.frames_attempted = 10;
        unexplained.stats.frames_sent = 9;
        let mut incomplete = clean_outcome(4);
        incomplete.delivered = 3;
        incomplete.missing =
            vec![AduName::new(SourceId(9), PageId::new(SourceId(9), 0), srm::SeqNo(7))];
        let r = report(vec![dead, leaky, unexplained, incomplete]);
        let v = r.violations();
        assert_eq!(v.len(), 6, "violations: {v:?}");
        assert!(v.iter().any(|s| s.contains("liveness ping")));
        assert!(v.iter().any(|s| s.contains("respawn budget")));
        assert!(v.iter().any(|s| s.contains("timer wheel")));
        assert!(v.iter().any(|s| s.contains("delay queue")));
        assert!(v.iter().any(|s| s.contains("unexplained drops")));
        assert!(v.iter().any(|s| s.contains("delivered 3/4")));
        assert!(r.render().contains("soak: FAIL"));
    }

    /// An untraced soak's report still shows what the agents counted.
    #[test]
    fn render_shows_the_agents_liveness_and_store_counts() {
        let mut agent = SrmAgent::new(SourceId(1), GroupId(1), SrmConfig::fixed(3));
        agent.liveness.suspected_total = 3;
        agent.liveness.died_total = 2;
        let seen = AduName::new(SourceId(2), PageId::new(SourceId(2), 0), srm::SeqNo(0));
        let delivered = HashSet::from([seen]);
        let n = NodeOutcome::new(&agent, TransportStats::default(), true, &[seen], &delivered);
        assert_eq!((n.member, n.delivered, n.expected), (1, 1, 1));
        let r = report(vec![n, clean_outcome(2)]);
        assert!(r.render().contains("suspect 3 dead 2 diskrep 0"), "{}", r.render());
        assert_eq!(r.violations(), report(vec![clean_outcome(1), clean_outcome(2)]).violations());
        assert!(r.render().contains("soak: PASS"));
    }

    #[test]
    fn bad_spec_fails_before_binding_sockets() {
        let opts = SoakOptions { chaos: "warp=0.5".into(), ..SoakOptions::default() };
        assert!(run(&opts).is_err());
    }
}
