//! Per-agent metrics, the raw material of every figure in Sections V–VII.

use crate::name::AduName;
use crate::recovery::{RepairState, RequestState};
use netsim::{SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// How many records an episode log may hold before the member's own
/// session tick starts dropping completed ones ([`AgentMetrics::trim_episode_logs`]).
/// Experiment drivers harvest and clear the logs every round and never get
/// near it; a live node, whose logs nobody clears, stops growing here.
pub const EPISODE_LOG_CAP: usize = 1024;

/// The life of one loss-recovery episode on one member (request side).
#[derive(Clone, Debug)]
pub struct RecoveryRecord {
    /// The ADU recovered.
    pub name: AduName,
    /// When the loss was detected (request timer first set).
    pub detected_at: SimTime,
    /// When the data finally arrived, if it has.
    pub recovered_at: Option<SimTime>,
    /// Delay from detection until the first request was sent or heard.
    pub request_delay: Option<SimDuration>,
    /// Requests this member itself multicast.
    pub requests_sent: u32,
    /// Requests observed in total for this ADU (sent or heard).
    pub requests_observed: u32,
    /// This member's RTT estimate to the data's source at detection
    /// (2 × one-way distance), for the delay/RTT normalization.
    pub rtt_to_source: SimDuration,
    /// True if recovery was abandoned after `max_request_rounds`.
    pub gave_up: bool,
}

impl RecoveryRecord {
    /// Recovered or given up: nothing more happens in this record.
    fn closed(&self) -> bool {
        self.recovered_at.is_some() || self.gave_up
    }

    /// Loss-recovery delay (detection → first repair received), the metric
    /// of Fig 3/4/13: `None` until recovered.
    pub fn recovery_delay(&self) -> Option<SimDuration> {
        self.recovered_at.map(|t| t.since(self.detected_at))
    }

    /// Recovery delay in units of this member's RTT to the source.
    ///
    /// `None` until recovered, and `None` when the RTT estimate is zero
    /// (a degenerate distance estimate must not poison figure averages with
    /// `inf`/`NaN`).
    pub fn recovery_delay_over_rtt(&self) -> Option<f64> {
        let rtt = self.rtt_to_source.as_secs_f64();
        if rtt <= 0.0 {
            return None;
        }
        self.recovery_delay().map(|d| d.as_secs_f64() / rtt)
    }

    /// Request delay in units of the RTT to the source (Fig 5–8 metric).
    ///
    /// `None` before the first request, and `None` when the RTT estimate is
    /// zero, mirroring [`RecoveryRecord::recovery_delay_over_rtt`].
    pub fn request_delay_over_rtt(&self) -> Option<f64> {
        let rtt = self.rtt_to_source.as_secs_f64();
        if rtt <= 0.0 {
            return None;
        }
        self.request_delay.map(|d| d.as_secs_f64() / rtt)
    }
}

/// One repair episode on one member (repair side).
#[derive(Clone, Debug)]
pub struct RepairRecord {
    /// The ADU repaired.
    pub name: AduName,
    /// When the repair timer was set.
    pub set_at: SimTime,
    /// Delay until the first repair was sent or heard.
    pub repair_delay: Option<SimDuration>,
    /// Whether this member sent the repair itself.
    pub sent: bool,
    /// Repairs observed in total for this ADU.
    pub repairs_observed: u32,
}

/// Counters and episode logs for one agent.
#[derive(Clone, Debug, Default)]
pub struct AgentMetrics {
    /// Original data packets multicast.
    pub data_sent: u64,
    /// Requests multicast.
    pub requests_sent: u64,
    /// Repairs multicast.
    pub repairs_sent: u64,
    /// Session messages multicast.
    pub session_sent: u64,
    /// Data packets received (originals and repairs).
    pub data_received: u64,
    /// Requests received.
    pub requests_received: u64,
    /// Repairs received.
    pub repairs_received: u64,
    /// Session messages received.
    pub session_received: u64,
    /// Requests ignored due to a repair hold-down window.
    pub requests_held_down: u64,
    /// Undecodable packets dropped.
    pub decode_errors: u64,
    /// Packets that decoded into a well-formed message (of any type).
    /// `decode_errors + valid_messages` equals every packet delivered to
    /// the agent.
    pub valid_messages: u64,
    /// Completed and in-flight recovery episodes, keyed by ADU.
    pub recoveries: BTreeMap<AduName, RecoveryRecord>,
    /// Repair episodes, keyed by ADU.
    pub repairs: BTreeMap<AduName, RepairRecord>,
    /// Host crashes survived (incremented on each
    /// [`netsim::Application::on_crash`]).
    pub crashes: u64,
    /// Completed episode records dropped from the two logs to keep them at
    /// [`EPISODE_LOG_CAP`].
    pub episodes_dropped: u64,
    /// ADUs recovered locally from FEC parity, without any request.
    pub fec_recoveries: u64,
    /// Two-step local-recovery relays performed (Section VII-B2).
    pub two_step_relays: u64,
}

/// A member's stored counters by field name: [`AgentMetrics::counters`].
pub type CounterRow = [(&'static str, u64); 15];

impl AgentMetrics {
    /// Every stored counter, named by its field: the one list the run
    /// report, a node's and a hub group's registry, the hub's `stats`
    /// reply and `srm-node`'s exit line all print.
    pub fn counters(&self) -> CounterRow {
        [
            ("data_sent", self.data_sent),
            ("requests_sent", self.requests_sent),
            ("repairs_sent", self.repairs_sent),
            ("session_sent", self.session_sent),
            ("data_received", self.data_received),
            ("requests_received", self.requests_received),
            ("repairs_received", self.repairs_received),
            ("session_received", self.session_received),
            ("requests_held_down", self.requests_held_down),
            ("decode_errors", self.decode_errors),
            ("valid_messages", self.valid_messages),
            ("crashes", self.crashes),
            ("episodes_dropped", self.episodes_dropped),
            ("fec_recoveries", self.fec_recoveries),
            ("two_step_relays", self.two_step_relays),
        ]
    }

    /// Clear the per-episode logs (counters keep accumulating). Experiment
    /// drivers call this between loss-recovery rounds.
    pub fn clear_episodes(&mut self) {
        self.recoveries.clear();
        self.repairs.clear();
    }

    /// Bring the request-side record of `st`'s ADU up to date, opening it
    /// on first sight. A closed record (recovered or given up) belongs to
    /// an earlier loss of the name — one a crash-restart or a give-up let
    /// the member detect again — and is replaced by a fresh one.
    pub(crate) fn note_request(&mut self, st: &RequestState) {
        let rtt = SimDuration::from_secs_f64(st.dist_to_source.as_secs_f64() * 2.0);
        let open = RecoveryRecord {
            name: st.name,
            detected_at: st.detected_at,
            recovered_at: None,
            request_delay: None,
            requests_sent: 0,
            requests_observed: 0,
            rtt_to_source: rtt,
            gave_up: false,
        };
        let rec = match self.recoveries.entry(st.name) {
            Entry::Occupied(e) if !e.get().closed() => e.into_mut(),
            Entry::Occupied(mut e) => {
                e.insert(open);
                e.into_mut()
            }
            Entry::Vacant(e) => e.insert(open),
        };
        rec.request_delay = st.request_delay();
        rec.requests_sent = st.requests_sent;
        rec.requests_observed = st.requests_observed;
    }

    /// Bring the repair-side record of `st`'s ADU up to date, opening it on
    /// first sight. The record follows the repair state, so it counts the
    /// repairs observed while the member's episode for the name lives.
    pub(crate) fn note_repair(&mut self, st: &RepairState) {
        let rec = self.repairs.entry(st.name).or_insert(RepairRecord {
            name: st.name,
            set_at: st.set_at,
            repair_delay: None,
            sent: false,
            repairs_observed: 0,
        });
        rec.repair_delay = st.repair_delay();
        rec.sent = st.sent;
        rec.repairs_observed = st.repairs_observed;
    }

    /// Keep each episode log at [`EPISODE_LOG_CAP`] records by dropping
    /// completed ones, lowest name first, and counting them in
    /// `episodes_dropped`. A record still in flight (an unrecovered loss
    /// that has not been given up, a repair timer not yet fired or
    /// cancelled) is never dropped.
    pub fn trim_episode_logs(&mut self) {
        fn trim<R>(log: &mut BTreeMap<AduName, R>, done: impl Fn(&R) -> bool) -> u64 {
            let excess = log.len().saturating_sub(EPISODE_LOG_CAP) as u64;
            let mut dropped = 0;
            if excess > 0 {
                log.retain(|_, r| {
                    let drop = dropped < excess && done(r);
                    dropped += u64::from(drop);
                    !drop
                });
            }
            dropped
        }
        self.episodes_dropped += trim(&mut self.recoveries, RecoveryRecord::closed);
        self.episodes_dropped += trim(&mut self.repairs, |r| r.sent || r.repair_delay.is_some());
    }

    /// Reset everything.
    pub fn reset(&mut self) {
        *self = AgentMetrics::default();
    }

    /// Recovery episodes that have completed.
    pub fn completed_recoveries(&self) -> impl Iterator<Item = &RecoveryRecord> {
        self.recoveries.values().filter(|r| r.recovered_at.is_some())
    }

    /// True if every detected loss has been recovered.
    pub fn all_recovered(&self) -> bool {
        self.recoveries.values().all(|r| r.recovered_at.is_some())
    }

    /// Drop episode records that were cut short by a crash: unrecovered
    /// recoveries and repair episodes that never produced a repair. A
    /// crashed host's in-flight state is gone; keeping the dangling records
    /// would make post-restart `all_recovered` checks report pre-crash
    /// losses the restarted member no longer knows about.
    pub fn drop_inflight(&mut self) {
        self.recoveries.retain(|_, r| r.recovered_at.is_some());
        self.repairs
            .retain(|_, r| r.sent || r.repair_delay.is_some());
    }
}

/// One scripted-fault episode as observed by an experiment driver: what
/// happened between a fault and the return to group-wide consistency.
#[derive(Clone, Debug)]
pub struct FaultEpisode {
    /// Which fault this episode covers (e.g. `"partition"`, `"crash"`).
    pub label: String,
    /// When the fault was injected.
    pub started_at: SimTime,
    /// When every member was consistent again, if reached.
    pub reconsistent_at: Option<SimTime>,
    /// Losses the fault caused (distinct (member, ADU) detections).
    pub losses: u64,
    /// Requests multicast during the recovery window, summed over members.
    pub dup_requests: u64,
    /// Repairs multicast during the recovery window, summed over members.
    pub dup_repairs: u64,
}

impl FaultEpisode {
    /// Fault injection → full reconsistency, the headline robustness metric.
    pub fn time_to_reconsistency(&self) -> Option<SimDuration> {
        self.reconsistent_at.map(|t| t.since(self.started_at))
    }

    /// Requests per loss: 1.0 means exactly one request per lost ADU (the
    /// ideal); larger values measure the post-fault request storm.
    pub fn dup_requests_per_loss(&self) -> f64 {
        if self.losses == 0 {
            0.0
        } else {
            self.dup_requests as f64 / self.losses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::{PageId, SeqNo, SourceId};

    fn rec(detected: u64, recovered: Option<u64>) -> RecoveryRecord {
        RecoveryRecord {
            name: AduName::new(SourceId(1), PageId::new(SourceId(1), 0), SeqNo(0)),
            detected_at: SimTime::from_secs(detected),
            recovered_at: recovered.map(SimTime::from_secs),
            request_delay: Some(SimDuration::from_secs(2)),
            requests_sent: 1,
            requests_observed: 2,
            rtt_to_source: SimDuration::from_secs(4),
            gave_up: false,
        }
    }

    #[test]
    fn delay_normalization() {
        let r = rec(10, Some(16));
        assert_eq!(r.recovery_delay(), Some(SimDuration::from_secs(6)));
        assert_eq!(r.recovery_delay_over_rtt(), Some(1.5));
        assert_eq!(r.request_delay_over_rtt(), Some(0.5));
    }

    #[test]
    fn unrecovered_yields_none() {
        let r = rec(10, None);
        assert_eq!(r.recovery_delay(), None);
        assert_eq!(r.recovery_delay_over_rtt(), None);
    }

    #[test]
    fn zero_rtt_yields_none_not_infinity() {
        let mut r = rec(10, Some(16));
        r.rtt_to_source = SimDuration::ZERO;
        assert_eq!(r.recovery_delay(), Some(SimDuration::from_secs(6)));
        assert_eq!(r.recovery_delay_over_rtt(), None);
        assert_eq!(r.request_delay_over_rtt(), None);
    }

    #[test]
    fn gave_up_record_never_reports_a_delay() {
        let mut r = rec(10, None);
        r.gave_up = true;
        r.requests_sent = 5;
        assert!(r.gave_up);
        assert_eq!(r.recovery_delay(), None);
        assert_eq!(r.recovery_delay_over_rtt(), None);
        // The request delay is still meaningful (the first request did go
        // out), but the recovery-side metrics must stay None.
        assert_eq!(r.request_delay_over_rtt(), Some(0.5));
    }

    #[test]
    fn unrecovered_with_no_request_yet() {
        let mut r = rec(10, None);
        r.request_delay = None;
        r.requests_sent = 0;
        r.requests_observed = 0;
        assert_eq!(r.request_delay_over_rtt(), None);
        assert_eq!(r.recovery_delay_over_rtt(), None);
    }

    #[test]
    fn all_recovered_check() {
        let mut m = AgentMetrics::default();
        assert!(m.all_recovered()); // vacuously
        m.recoveries.insert(rec(1, None).name, rec(1, None));
        assert!(!m.all_recovered());
        let done = rec(1, Some(3));
        m.recoveries.insert(done.name, done);
        assert!(m.all_recovered());
        assert_eq!(m.completed_recoveries().count(), 1);
    }

    #[test]
    fn drop_inflight_keeps_only_completed() {
        let mut m = AgentMetrics::default();
        m.recoveries.insert(rec(1, None).name, rec(1, None));
        assert!(!m.all_recovered());
        m.drop_inflight();
        assert!(m.recoveries.is_empty());
        assert!(m.all_recovered());
        let done = rec(2, Some(5));
        m.recoveries.insert(done.name, done);
        m.drop_inflight();
        assert_eq!(m.recoveries.len(), 1);
    }

    #[test]
    fn fault_episode_metrics() {
        let ep = FaultEpisode {
            label: "partition".into(),
            started_at: SimTime::from_secs(10),
            reconsistent_at: Some(SimTime::from_secs(40)),
            losses: 5,
            dup_requests: 10,
            dup_repairs: 7,
        };
        assert_eq!(
            ep.time_to_reconsistency(),
            Some(SimDuration::from_secs(30))
        );
        assert_eq!(ep.dup_requests_per_loss(), 2.0);
        let unresolved = FaultEpisode {
            reconsistent_at: None,
            losses: 0,
            ..ep
        };
        assert_eq!(unresolved.time_to_reconsistency(), None);
        assert_eq!(unresolved.dup_requests_per_loss(), 0.0);
    }

    #[test]
    fn trimming_drops_completed_records_lowest_name_first_and_counts_them() {
        let named = |seq: u64, recovered: Option<u64>| RecoveryRecord {
            name: AduName::new(SourceId(1), PageId::new(SourceId(1), 0), SeqNo(seq)),
            ..rec(1, recovered)
        };
        let mut m = AgentMetrics::default();
        // Seq 0 and 5 are in flight; everything else completed.
        for seq in 0..(EPISODE_LOG_CAP as u64 + 10) {
            let r = named(seq, (seq != 0 && seq != 5).then_some(3));
            m.recoveries.insert(r.name, r);
        }
        m.trim_episode_logs();
        assert_eq!(m.recoveries.len(), EPISODE_LOG_CAP);
        assert_eq!(m.episodes_dropped, 10);
        let kept: Vec<u64> = m.recoveries.keys().take(3).map(|n| n.seq.0).collect();
        assert_eq!(kept, vec![0, 5, 12], "in-flight records stay, the lowest completed go");
        // At or under the cap nothing moves.
        m.trim_episode_logs();
        assert_eq!(m.episodes_dropped, 10);
        // A log of nothing but in-flight records is left alone, however long.
        let mut m = AgentMetrics::default();
        for seq in 0..(EPISODE_LOG_CAP as u64 + 10) {
            let r = named(seq, None);
            m.recoveries.insert(r.name, r);
        }
        m.trim_episode_logs();
        assert_eq!(m.recoveries.len(), EPISODE_LOG_CAP + 10);
        assert_eq!(m.episodes_dropped, 0);
    }

    #[test]
    fn counters_name_every_stored_counter_by_its_field() {
        // No `..Default::default()`: a new field fails to compile here
        // until it is given a value, a reminder to list it in `counters()`.
        let m = AgentMetrics {
            data_sent: 1,
            requests_sent: 2,
            repairs_sent: 3,
            session_sent: 4,
            data_received: 5,
            requests_received: 6,
            repairs_received: 7,
            session_received: 8,
            requests_held_down: 9,
            decode_errors: 10,
            valid_messages: 11,
            recoveries: BTreeMap::new(),
            repairs: BTreeMap::new(),
            crashes: 12,
            episodes_dropped: 13,
            fec_recoveries: 14,
            two_step_relays: 15,
        };
        let row = m.counters();
        let values: Vec<u64> = row.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, (1..=row.len() as u64).collect::<Vec<_>>());
        let names: std::collections::BTreeSet<&str> = row.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), row.len(), "names are distinct");
        let first: Vec<&str> = row[..4].iter().map(|(n, _)| *n).collect();
        assert_eq!(first, ["data_sent", "requests_sent", "repairs_sent", "session_sent"]);
    }

    #[test]
    fn clear_episodes_keeps_counters() {
        let mut m = AgentMetrics { requests_sent: 5, ..AgentMetrics::default() };
        m.recoveries.insert(rec(1, None).name, rec(1, None));
        m.clear_episodes();
        assert_eq!(m.requests_sent, 5);
        assert!(m.recoveries.is_empty());
    }
}
