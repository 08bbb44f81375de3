//! Bridge between the protocol layer and the `obs` observability crate.
//!
//! `obs` is deliberately ignorant of SRM wire types; this module owns the
//! conversions — `AduName` → [`obs::AduKey`], [`AgentMetrics`] →
//! [`obs::MemberSummary`] — and the harvest helpers the experiment harness,
//! the CLI and the live soak share: enable tracing on every agent, drain
//! every agent's recorder into a merged [`obs::Timeline`], and fold agents'
//! metrics, simulated or live, into an [`obs::RunSummary`].

use netsim::Simulator;

use crate::agent::SrmAgent;
use crate::metrics::AgentMetrics;
use crate::name::AduName;

/// Convert a protocol ADU name into the dependency-free `obs` key.
pub fn adu_key(name: AduName) -> obs::AduKey {
    obs::AduKey {
        source: name.source.0,
        page_creator: name.page.creator.0,
        page_number: name.page.number,
        seq: name.seq.0,
    }
}

/// Fold one agent's counters and episode logs into a run-level summary:
/// a [`obs::MemberSummary`] counter row plus samples for the run histograms
/// (recovery/request delay in RTT units, duplicate requests per loss,
/// duplicate repairs per repaired ADU).
pub fn observe_agent(run: &mut obs::RunSummary, member: u64, m: &AgentMetrics) {
    let mut s = obs::MemberSummary::new(member);
    s.data_sent = m.data_sent;
    s.requests_sent = m.requests_sent;
    s.repairs_sent = m.repairs_sent;
    s.session_sent = m.session_sent;
    s.requests_held_down = m.requests_held_down;
    for r in m.recoveries.values() {
        s.losses += 1;
        if r.recovered_at.is_some() {
            s.recovered += 1;
        }
        if r.gave_up {
            s.gave_up += 1;
        }
        let dups = u64::from(r.requests_observed.saturating_sub(1));
        s.dup_requests += dups;
        run.dup_requests_per_loss.record(dups as f64);
        if let Some(v) = r.recovery_delay_over_rtt() {
            run.recovery_delay_rtt.record(v);
        }
        if let Some(v) = r.request_delay_over_rtt() {
            run.request_delay_rtt.record(v);
        }
    }
    for r in m.repairs.values() {
        let dups = u64::from(r.repairs_observed.saturating_sub(1));
        s.dup_repairs += dups;
        run.dup_repairs_per_adu.record(dups as f64);
    }
    run.add_member(s);
}

/// Enable event recording on every installed agent.  Recording never touches
/// the protocol's RNG or timers, so a traced run takes exactly the same
/// decisions as an untraced one.
pub fn enable_tracing(sim: &mut Simulator<SrmAgent>) {
    for node in sim.app_nodes() {
        if let Some(a) = sim.app_mut(node) {
            a.obs.enable();
        }
    }
}

/// Drain every agent's recorder into a merged timeline, attaching the run's
/// fault windows.
pub fn harvest_timeline(
    sim: &mut Simulator<SrmAgent>,
    faults: Vec<obs::FaultSpan>,
) -> obs::Timeline {
    let mut tl = obs::Timeline::new();
    for node in sim.app_nodes() {
        if let Some(a) = sim.app_mut(node) {
            let member = a.id.0;
            tl.add_member(member, a.obs.take_events());
        }
    }
    for f in faults {
        tl.add_fault(f);
    }
    tl
}

/// Fold agents' metrics into a run summary, one counter row each: a
/// simulation's live members or a live run's shut-down agents.
pub fn harvest_summary<'a>(agents: impl IntoIterator<Item = &'a SrmAgent>) -> obs::RunSummary {
    let mut run = obs::RunSummary::new();
    for a in agents {
        observe_agent(&mut run, a.id.0, &a.metrics);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RecoveryRecord;
    use crate::name::{PageId, SeqNo, SourceId};
    use netsim::{SimDuration, SimTime};

    fn name(seq: u64) -> AduName {
        AduName::new(SourceId(1), PageId::new(SourceId(1), 0), SeqNo(seq))
    }

    #[test]
    fn adu_key_roundtrips_display() {
        let n = name(5);
        assert_eq!(adu_key(n).to_string(), n.to_string());
    }

    #[test]
    fn observe_agent_folds_counters_and_histograms() {
        let mut m = AgentMetrics::default();
        m.data_sent = 7;
        m.requests_sent = 2;
        m.session_sent = 1;
        m.recoveries.insert(
            name(0),
            RecoveryRecord {
                name: name(0),
                detected_at: SimTime::from_secs(10),
                recovered_at: Some(SimTime::from_secs(16)),
                request_delay: Some(SimDuration::from_secs(2)),
                requests_sent: 1,
                requests_observed: 3,
                rtt_to_source: SimDuration::from_secs(4),
                gave_up: false,
            },
        );
        m.recoveries.insert(
            name(1),
            RecoveryRecord {
                name: name(1),
                detected_at: SimTime::from_secs(10),
                recovered_at: None,
                request_delay: None,
                requests_sent: 0,
                requests_observed: 0,
                rtt_to_source: SimDuration::from_secs(4),
                gave_up: true,
            },
        );
        let mut run = obs::RunSummary::new();
        observe_agent(&mut run, 4, &m);
        assert_eq!(run.members.len(), 1);
        let s = &run.members[0];
        assert_eq!(s.member, 4);
        assert_eq!(s.losses, 2);
        assert_eq!(s.recovered, 1);
        assert_eq!(s.gave_up, 1);
        assert_eq!(s.dup_requests, 2); // 3 observed - 1 for the recovered ADU
        assert_eq!(run.recovery_delay_rtt.count(), 1);
        assert!((run.recovery_delay_rtt.mean().unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(run.dup_requests_per_loss.count(), 2);
        assert_eq!(run.session_share.count(), 1);
    }
}
