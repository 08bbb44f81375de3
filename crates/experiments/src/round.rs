//! One loss-recovery round, Section V style: "a packet from the source is
//! dropped on the congested link, a second packet from the source is not
//! dropped, and the loss recovery algorithms are run until all members have
//! received the dropped packet."

use crate::scenario::Session;
use netsim::NodeId;

/// Everything measured in one round.
#[derive(Clone, Debug)]
pub struct RoundResult {
    /// Total requests multicast by all members.
    pub requests: u64,
    /// Total repairs multicast by all members (including two-step relays).
    pub repairs: u64,
    /// Per affected member: (node, recovery delay / that member's RTT to
    /// the source).
    pub recovery_over_rtt: Vec<(NodeId, f64)>,
    /// Per affected member: (node, request delay / RTT to source) — the
    /// Section VI metric; `None`-delay members (recovered before any
    /// request fired, possible with reordering) are omitted.
    pub request_delay_over_rtt: Vec<(NodeId, f64)>,
    /// Members that detected the loss this round.
    pub affected: usize,
    /// Whether every affected member recovered.
    pub all_recovered: bool,
}

impl RoundResult {
    /// The figure-3 delay metric: the delay/RTT of the member that took
    /// longest *in absolute time* to recover ("the loss recovery delay for
    /// the last member of the multicast session to receive the repair …
    /// given as a multiple of the RTT from that member to the original
    /// source").
    pub fn last_member_delay_over_rtt(&self, session: &Session) -> Option<f64> {
        // Reconstruct absolute delays: delay_over_rtt × rtt.
        self.recovery_over_rtt
            .iter()
            .map(|&(n, r)| (r * session.rtt_to_source(n), r))
            .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
            .map(|(_, r)| r)
    }

    /// The figure-5–8 delay metric: the request delay (over RTT) of the
    /// affected member closest to the source; among members at the minimum
    /// distance, the smallest delay.
    pub fn closest_member_request_delay(&self, session: &Session) -> Option<f64> {
        let min_dist = self
            .request_delay_over_rtt
            .iter()
            .map(|&(n, _)| session.dist_from_source[n.index()])
            .fold(f64::MAX, f64::min);
        let best = self
            .request_delay_over_rtt
            .iter()
            .filter(|&&(n, _)| session.dist_from_source[n.index()] <= min_dist + 1e-9)
            .map(|&(_, d)| d)
            .fold(f64::MAX, f64::min);
        (best < f64::MAX).then_some(best)
    }
}

/// Run one round on `session`: arm the drop, send the doomed packet and the
/// revealing follow-up, run to quiescence, and harvest per-member metrics.
///
/// `settle_limit` bounds the round in simulated seconds.
pub fn run_round(session: &mut Session, settle_limit: f64) -> RoundResult {
    // Snapshot counters.
    let before: Vec<(NodeId, u64, u64)> = session
        .members
        .iter()
        .map(|&m| {
            let a = session.sim.app(m).unwrap();
            (m, a.metrics.requests_sent, a.metrics.repairs_sent)
        })
        .collect();

    session.rearm_drop();
    session.source_sends(); // dropped on the congested link
    session.advance(0.01);
    session.source_sends(); // exposes the gap downstream
    session.settle(settle_limit);
    session.bump_rounds();

    let mut requests = 0;
    let mut repairs = 0;
    let mut recovery_over_rtt = Vec::new();
    let mut request_delay_over_rtt = Vec::new();
    let mut affected = 0;
    let mut all_recovered = true;
    for (m, req0, rep0) in before {
        let a = session.sim.app_mut(m).unwrap();
        requests += a.metrics.requests_sent - req0;
        repairs += a.metrics.repairs_sent - rep0;
        for rec in a.metrics.recoveries.values() {
            affected += 1;
            if let Some(r) = rec.recovery_delay_over_rtt() {
                recovery_over_rtt.push((m, r));
            } else {
                all_recovered = false;
            }
            if let Some(r) = rec.request_delay_over_rtt() {
                request_delay_over_rtt.push((m, r));
            }
        }
        a.metrics.clear_episodes();
    }
    session.drain_deliveries();

    RoundResult {
        requests,
        repairs,
        recovery_over_rtt,
        request_delay_over_rtt,
        affected,
        all_recovered,
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{DropSpec, MembersSpec, ScenarioSpec, TopoSpec};
    use srm::SrmConfig;

    #[test]
    fn chain_round_recovers_everyone() {
        let mut s = ScenarioSpec::round(
            TopoSpec::Chain { n: 8 },
            MembersSpec::All,
            DropSpec::RandomTreeLink,
            SrmConfig::fixed(8),
            11,
        )
        .build();
        let r = super::run_round(&mut s, 10_000.0);
        assert!(r.all_recovered);
        assert!(r.affected >= 1);
        assert!(r.requests >= 1);
        assert!(r.repairs >= 1);
        assert_eq!(r.recovery_over_rtt.len(), r.affected);
    }

    #[test]
    fn consecutive_rounds_are_independent() {
        let mut s = ScenarioSpec::round(
            TopoSpec::Star { leaves: 10 },
            MembersSpec::All,
            DropSpec::AdjacentToSource,
            SrmConfig::fixed(10),
            2,
        )
        .build();
        let r1 = super::run_round(&mut s, 10_000.0);
        let r2 = super::run_round(&mut s, 10_000.0);
        assert!(r1.all_recovered && r2.all_recovered);
        // The second round affects the same downstream set.
        assert_eq!(r1.affected, r2.affected);
        assert_eq!(s.rounds_run(), 2);
    }

    #[test]
    fn star_metrics_have_closest_member() {
        let mut s = ScenarioSpec::round(
            TopoSpec::Star { leaves: 12 },
            MembersSpec::All,
            DropSpec::AdjacentToSource,
            SrmConfig::fixed(12),
            4,
        )
        .build();
        let r = super::run_round(&mut s, 10_000.0);
        assert!(r.closest_member_request_delay(&s).is_some());
        assert!(r.last_member_delay_over_rtt(&s).is_some());
        // In a star with the drop at the source's access link, every other
        // member is affected.
        assert_eq!(r.affected, 11);
    }
}
