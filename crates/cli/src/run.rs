//! Scenario execution and reporting.

use crate::scenario::{RunError, Session};
use crate::spec::Scenario;
use bytes::Bytes;
use netsim::effects::RandomEffects;
use netsim::{flow, SimDuration};
use obs::json::Json;

/// Per-member outcome.
#[derive(Clone, Debug)]
pub struct MemberReport {
    /// Node id.
    pub node: u32,
    /// ADUs held at the end.
    pub adus_held: usize,
    /// Requests this member multicast.
    pub requests_sent: u64,
    /// Repairs this member multicast.
    pub repairs_sent: u64,
    /// ADUs reconstructed locally from FEC parity.
    pub fec_recoveries: u64,
    /// Whether every detected loss was recovered.
    pub all_recovered: bool,
}

/// Whole-run outcome.
#[derive(Clone, Debug)]
pub struct Report {
    /// Member count.
    pub members: usize,
    /// The data source node.
    pub source: u32,
    /// ADUs the workload originated.
    pub adus_sent: u32,
    /// Receivers holding the complete stream at the end.
    pub complete_receivers: usize,
    /// Totals: requests / repairs / session messages multicast.
    pub total_requests: u64,
    /// Total repairs.
    pub total_repairs: u64,
    /// Total session messages.
    pub total_sessions: u64,
    /// Link crossings by traffic class (data, request, repair, session).
    pub hops: HopsReport,
    /// Per-member details.
    pub per_member: Vec<MemberReport>,
    /// Final simulated time in seconds.
    pub sim_seconds: f64,
    /// Events processed.
    pub events: u64,
}

/// Link-crossing totals by traffic class.
#[derive(Clone, Debug)]
pub struct HopsReport {
    /// Original data.
    pub data: u64,
    /// Requests.
    pub requests: u64,
    /// Repairs.
    pub repairs: u64,
    /// Session messages.
    pub sessions: u64,
    /// FEC parity.
    pub parity: u64,
}

/// Execute a scenario and produce its [`Report`].
pub fn run(scenario: &Scenario) -> Result<Report, RunError> {
    execute(scenario, false).map(|(r, _)| r)
}

/// Execute a scenario with recovery-episode tracing enabled, producing both
/// the [`Report`] and the merged per-member event [`obs::Timeline`].
/// Tracing only records — it never perturbs timers or RNG draws — so the
/// report is identical to an untraced [`run`].
pub fn run_with_trace(scenario: &Scenario) -> Result<(Report, obs::Timeline), RunError> {
    execute(scenario, true).map(|(r, tl)| (r, tl.expect("traced run yields a timeline")))
}

/// Execute a scenario, with recovery-episode tracing when `traced`; the
/// timeline is `Some` exactly then.
pub fn execute(
    scenario: &Scenario,
    traced: bool,
) -> Result<(Report, Option<obs::Timeline>), RunError> {
    let mut s = scenario.spec.try_build()?;
    if traced {
        srm::enable_tracing(&mut s.sim);
    }
    let fx = scenario.effects;
    if fx.duplication > 0.0 || fx.jitter_secs > 0.0 {
        s.sim.set_channel_effects(Box::new(RandomEffects::new(
            fx.duplication,
            SimDuration::from_secs_f64(fx.jitter_secs),
            scenario.spec.seed ^ 0x20,
        )));
    }
    drive(&mut s, scenario)?;

    // Report.
    let w = &scenario.workload;
    let mut per_member = Vec::new();
    let mut complete = 0;
    let (mut tr, mut tp, mut ts) = (0u64, 0u64, 0u64);
    for &m in &s.members {
        let a = s.sim.app(m).unwrap();
        let held = a.store().len();
        if m != s.source && held as u32 >= w.adus {
            complete += 1;
        }
        tr += a.metrics.requests_sent;
        tp += a.metrics.repairs_sent;
        ts += a.metrics.session_sent;
        per_member.push(MemberReport {
            node: m.0,
            adus_held: held,
            requests_sent: a.metrics.requests_sent,
            repairs_sent: a.metrics.repairs_sent,
            fec_recoveries: a.metrics.fec_recoveries,
            all_recovered: a.metrics.all_recovered(),
        });
    }
    let sim = &mut s.sim;
    let timeline = traced.then(|| srm::harvest_timeline(sim.apps_mut(), Vec::new()));
    let report = Report {
        members: s.members.len(),
        source: s.source.0,
        adus_sent: w.adus,
        complete_receivers: complete,
        total_requests: tr,
        total_repairs: tp,
        total_sessions: ts,
        hops: HopsReport {
            data: sim.stats.hops_for(flow::DATA),
            requests: sim.stats.hops_for(flow::REQUEST),
            repairs: sim.stats.hops_for(flow::REPAIR),
            sessions: sim.stats.hops_for(flow::SESSION),
            parity: sim.stats.hops_for(flow::PARITY),
        },
        per_member,
        sim_seconds: sim.now().as_secs_f64(),
        events: sim.stats.events,
    };
    Ok((report, timeline))
}

/// Send the scenario's workload from the source and let the session
/// settle.
fn drive(s: &mut Session, scenario: &Scenario) -> Result<(), RunError> {
    let w = &scenario.workload;
    let page = s.page();
    for k in 0..w.adus {
        s.sim.exec(s.source, |a, ctx| {
            a.send_data(ctx, page, Bytes::from(vec![(k % 251) as u8; w.payload_bytes]));
        });
        s.advance(w.interval_secs);
    }
    // Settle.
    let deadline = s.sim.now() + SimDuration::from_secs_f64(scenario.settle_secs);
    if scenario.spec.sessions {
        s.sim.run_until(deadline);
    } else if !s.sim.run_until_idle(deadline) {
        return Err(RunError::DidNotSettle);
    }
    Ok(())
}

impl Report {
    /// Render as a human-readable summary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        let _ = writeln!(
            s,
            "session: {} members, source n{}, {} ADUs sent",
            self.members, self.source, self.adus_sent
        );
        let _ = writeln!(
            s,
            "outcome: {}/{} receivers complete; {} requests, {} repairs, {} session msgs",
            self.complete_receivers,
            self.members - 1,
            self.total_requests,
            self.total_repairs,
            self.total_sessions
        );
        let _ = writeln!(
            s,
            "bandwidth (link crossings): data {} | requests {} | repairs {} | sessions {} | parity {}",
            self.hops.data, self.hops.requests, self.hops.repairs, self.hops.sessions, self.hops.parity
        );
        let _ = writeln!(
            s,
            "simulated {:.1}s, {} events",
            self.sim_seconds, self.events
        );
        s
    }

    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> String {
        let num = |n: f64| Json::N(n);
        let per_member: Vec<Json> = self
            .per_member
            .iter()
            .map(|m| {
                Json::O(vec![
                    ("node".to_string(), num(m.node as f64)),
                    ("adus_held".to_string(), num(m.adus_held as f64)),
                    ("requests_sent".to_string(), num(m.requests_sent as f64)),
                    ("repairs_sent".to_string(), num(m.repairs_sent as f64)),
                    ("fec_recoveries".to_string(), num(m.fec_recoveries as f64)),
                    ("all_recovered".to_string(), Json::B(m.all_recovered)),
                ])
            })
            .collect();
        Json::O(vec![
            ("members".to_string(), num(self.members as f64)),
            ("source".to_string(), num(self.source as f64)),
            ("adus_sent".to_string(), num(self.adus_sent as f64)),
            (
                "complete_receivers".to_string(),
                num(self.complete_receivers as f64),
            ),
            ("total_requests".to_string(), num(self.total_requests as f64)),
            ("total_repairs".to_string(), num(self.total_repairs as f64)),
            ("total_sessions".to_string(), num(self.total_sessions as f64)),
            (
                "hops".to_string(),
                Json::O(vec![
                    ("data".to_string(), num(self.hops.data as f64)),
                    ("requests".to_string(), num(self.hops.requests as f64)),
                    ("repairs".to_string(), num(self.hops.repairs as f64)),
                    ("sessions".to_string(), num(self.hops.sessions as f64)),
                    ("parity".to_string(), num(self.hops.parity as f64)),
                ]),
            ),
            ("per_member".to_string(), Json::A(per_member)),
            ("sim_seconds".to_string(), num(self.sim_seconds)),
            ("events".to_string(), num(self.events as f64)),
        ])
        .pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LossSpec, MembersSpec, SourceSpec};
    use crate::spec::WorkloadSpec;
    use srm::FecConfig;

    fn base() -> Scenario {
        Scenario::from_json(
            r#"{
                "topology": {"kind": "chain", "n": 8},
                "members": "all",
                "config": {"session_messages": false},
                "loss": {"kind": "scripted", "a": 3, "b": 4, "ordinals": [1]},
                "settle_secs": 100000
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn chain_scenario_runs_and_recovers() {
        let r = run(&base()).unwrap();
        assert_eq!(r.members, 8);
        assert_eq!(r.complete_receivers, 7);
        assert!(r.total_requests >= 1);
        assert!(r.total_repairs >= 1);
        assert!(r.per_member.iter().all(|m| m.all_recovered));
    }

    #[test]
    fn fec_scenario_avoids_requests() {
        let mut sc = base();
        sc.spec.cfg.fec = Some(FecConfig { k: 5 });
        sc.workload = WorkloadSpec {
            adus: 5,
            interval_secs: 2.0,
            payload_bytes: 32,
        };
        // One loss inside the 5-ADU block; drop ordinal 2 (the 2nd data
        // crossing on that link).
        sc.spec.loss = LossSpec::Scripted {
            a: 3,
            b: 4,
            ordinals: vec![2],
        };
        let r = run(&sc).unwrap();
        assert_eq!(r.complete_receivers, 7);
        assert_eq!(r.total_requests, 0, "parity reconstruction preempted recovery");
        assert!(r.per_member.iter().any(|m| m.fec_recoveries > 0));
    }

    #[test]
    fn bad_references_are_reported() {
        let mut sc = base();
        sc.spec.source = SourceSpec::Node(99);
        assert!(matches!(run(&sc), Err(RunError::BadNode(99))));
        let mut sc = base();
        sc.spec.loss = LossSpec::Scripted {
            a: 0,
            b: 5,
            ordinals: vec![1],
        };
        assert!(matches!(run(&sc), Err(RunError::NoSuchLink(0, 5))));
        let mut sc = base();
        sc.spec.members = MembersSpec::List(vec![]);
        assert!(matches!(run(&sc), Err(RunError::NoMembers)));
        // A source outside the membership used to panic in the simulator.
        let mut sc = base();
        sc.spec.members = MembersSpec::List(vec![0, 1]);
        sc.spec.source = SourceSpec::Node(3);
        assert!(matches!(run(&sc), Err(RunError::NotAMember(3))));
        let mut sc = base();
        sc.spec.loss = LossSpec::Scripted {
            a: 99,
            b: 1,
            ordinals: vec![1],
        };
        assert!(matches!(run(&sc), Err(RunError::BadNode(99))));
    }

    /// Sizes netsim's generators assert on are refused with the field
    /// named, one case per topology kind: each used to exit on a panic.
    /// More random members than nodes is refused too: it used to run with
    /// every node.
    #[test]
    fn impossible_topologies_are_refused() {
        let cases = [
            (r#"{"kind": "chain", "n": 0}"#, "'n' must be at least 1"),
            (r#"{"kind": "star", "leaves": 0}"#, "'leaves' must be at least 1"),
            (r#"{"kind": "bounded_tree", "n": 10, "degree": 1}"#, "'degree' must be at least 2"),
            (r#"{"kind": "random_tree", "n": 0}"#, "'n' must be at least 1"),
            (r#"{"kind": "random_graph", "n": 6, "m": 2}"#, "'m' must be between n-1 and n(n-1)/2"),
        ];
        for (topology, why) in cases {
            let doc = format!(r#"{{"topology": {topology}, "members": "all"}}"#);
            let err = run(&Scenario::from_json(&doc).unwrap()).expect_err(topology);
            assert_eq!(err.to_string(), format!("invalid topology: {why}"), "{topology}");
        }
        let doc = r#"{"topology": {"kind": "chain", "n": 4}, "members": {"random": 5}}"#;
        let err = run(&Scenario::from_json(doc).unwrap()).expect_err("5 members of 4 nodes");
        assert_eq!(err.to_string(), "'members' asks for 5 random members of a 4-node topology");
        let doc = r#"{"topology": {"kind": "chain", "n": 4}, "members": {"random": 4}}"#;
        assert!(run(&Scenario::from_json(doc).unwrap()).is_ok(), "every node is a valid draw");
    }

    #[test]
    fn traced_run_matches_untraced_and_yields_events() {
        let plain = run(&base()).unwrap();
        let (traced, tl) = run_with_trace(&base()).unwrap();
        // Tracing is observation-only: the protocol outcome is unchanged.
        assert_eq!(plain.total_requests, traced.total_requests);
        assert_eq!(plain.total_repairs, traced.total_repairs);
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.sim_seconds, traced.sim_seconds);
        // The dropped ADU produced a recovery episode worth of events.
        assert!(!tl.is_empty());
        assert!(tl.to_jsonl().contains("\"ev\":\"request_sent\""));
        assert!(tl.chains().iter().any(|c| c.recovered_at.is_some()));
    }

    /// The distance warm-up computes each member's tree once, in the
    /// simulator's route cache, and forwarding reuses it for the whole run.
    #[test]
    fn a_scenario_computes_each_members_tree_once() {
        let sc = Scenario::from_json(include_str!("../../../scenarios/lossy_tree.json")).unwrap();
        let mut s = sc.spec.try_build().unwrap();
        assert!(s.members.contains(&s.source));
        assert_eq!(s.sim.routes_computed(), s.members.len() as u64);
        drive(&mut s, &sc).unwrap();
        assert!(s.sim.stats.hops_for(flow::REQUEST) > 0, "members other than the source sent");
        assert_eq!(s.sim.routes_computed(), s.members.len() as u64);
    }

    #[test]
    fn report_serializes() {
        let r = run(&base()).unwrap();
        let js = r.to_json();
        assert!(js.contains("complete_receivers"));
        assert!(r.render().contains("receivers complete"));
    }
}
