//! Bridge between the protocol layer and the `obs` observability crate,
//! and the run report.
//!
//! `obs` is deliberately ignorant of SRM wire types and counters; this
//! module owns the one conversion (`AduName` → [`obs::AduKey`]), the
//! [`RunSummary`] behind the `report` subcommand and the soak, and the
//! harvest helpers the experiment harness, the CLI and the live hosts
//! share: enable tracing on every agent, drain agents' event logs into a
//! merged [`obs::Timeline`], and fold agents' metrics, simulated or live,
//! into a [`RunSummary`].

use std::fmt::Write as _;

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

/// The report rows a member's episode logs yield, after its stored
/// counters: loss episodes opened, recovered and given up, and the
/// duplicate requests and repairs observed across them.
const EPISODE_ROWS: [&str; 5] = ["losses", "recovered", "gave_up", "dup_requests", "dup_repairs"];

/// Run-level report: each member's counters by name plus log-scale
/// histograms of the quantities the paper evaluates.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// One column per member, in harvest order (sorted before rendering):
    /// its id and its counts — [`AgentMetrics::counters`], then the five
    /// episode-derived rows.
    pub members: Vec<(u64, Vec<(&'static str, u64)>)>,
    /// Recovery delay in units of the member↔source RTT (Fig 4–8 metric).
    pub recovery_delay_rtt: obs::LogHistogram,
    /// First-request delay in RTT units.
    pub request_delay_rtt: obs::LogHistogram,
    /// Duplicate requests per loss episode.
    pub dup_requests_per_loss: obs::LogHistogram,
    /// Duplicate repairs per repaired ADU.
    pub dup_repairs_per_adu: obs::LogHistogram,
    /// Per-member share of multicast packets that are session messages.
    pub session_share: obs::LogHistogram,
}

impl RunSummary {
    /// A fresh, empty summary.
    pub fn new() -> Self {
        RunSummary::default()
    }

    /// Fold one member's counters and episode logs in: a column of the
    /// table plus samples for the run histograms.
    pub fn add_member(&mut self, member: u64, m: &AgentMetrics) {
        let mut episodes = [0u64; 5];
        for r in m.recoveries.values() {
            let dups = u64::from(r.requests_observed.saturating_sub(1));
            episodes[0] += 1;
            episodes[1] += u64::from(r.recovered_at.is_some());
            episodes[2] += u64::from(r.gave_up);
            episodes[3] += dups;
            self.dup_requests_per_loss.record(dups as f64);
            if let Some(v) = r.recovery_delay_over_rtt() {
                self.recovery_delay_rtt.record(v);
            }
            if let Some(v) = r.request_delay_over_rtt() {
                self.request_delay_rtt.record(v);
            }
        }
        for r in m.repairs.values() {
            let dups = u64::from(r.repairs_observed.saturating_sub(1));
            episodes[4] += dups;
            self.dup_repairs_per_adu.record(dups as f64);
        }
        let total = m.data_sent + m.requests_sent + m.repairs_sent + m.session_sent;
        if total > 0 {
            self.session_share.record(m.session_sent as f64 / total as f64);
        }
        let counts = m.counters().into_iter().chain(EPISODE_ROWS.into_iter().zip(episodes));
        self.members.push((member, counts.collect()));
    }

    /// Render the counter table — one row per counter, one column per
    /// member, then the total — and the histogram summary lines.
    pub fn render(&self, title: &str) -> String {
        let mut members: Vec<&(u64, Vec<(&str, u64)>)> = self.members.iter().collect();
        members.sort_by_key(|(id, _)| *id);
        let names = AgentMetrics::default().counters().map(|(n, _)| n);
        let mut rows = vec![std::iter::once("counter".to_string())
            .chain(members.iter().map(|(id, _)| format!("m{id}")))
            .chain(["total".to_string()])
            .collect::<Vec<_>>()];
        for (i, name) in names.into_iter().chain(EPISODE_ROWS).enumerate() {
            let values: Vec<u64> = members.iter().map(|(_, counts)| counts[i].1).collect();
            let total: u64 = values.iter().sum();
            rows.push(
                std::iter::once(name.to_string())
                    .chain(values.iter().chain([&total]).map(u64::to_string))
                    .collect(),
            );
        }
        let mut widths = vec![0; rows[0].len()];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |row: &[String]| {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(i, (c, &w))| if i == 0 { format!("{c:<w$}") } else { format!("{c:>w$}") })
                .collect();
            cells.join("  ")
        };
        let mut out = String::new();
        let _ = writeln!(out, "# {title}");
        let header = line(&rows[0]);
        let _ = writeln!(out, "{header}\n{}", "-".repeat(header.len()));
        for row in &rows[1..] {
            let _ = writeln!(out, "{}", line(row));
        }
        out.push('\n');
        let _ = writeln!(out, "recovery delay / RTT : {}", self.recovery_delay_rtt.summary_line());
        let _ = writeln!(out, "request delay / RTT  : {}", self.request_delay_rtt.summary_line());
        let _ = writeln!(out, "dup requests / loss  : {}", self.dup_requests_per_loss.summary_line());
        let _ = writeln!(out, "dup repairs / adu    : {}", self.dup_repairs_per_adu.summary_line());
        let _ = writeln!(out, "session pkt share    : {}", self.session_share.summary_line());
        out
    }
}

/// Enable event recording on every installed agent.  Recording never touches
/// the protocol's RNG or timers, so a traced run takes exactly the same
/// decisions as an untraced one.
pub fn enable_tracing(sim: &mut Simulator<SrmAgent>) {
    for a in sim.apps_mut() {
        a.obs.enable();
    }
}

/// Drain agents' recovery and transport logs into one merged timeline,
/// attaching the run's fault windows: a simulation's members
/// ([`Simulator::apps_mut`]) or a live run's shut-down agents. Live event
/// times are each node's elapsed time since its own start; nodes of one
/// run start within microseconds of each other, so one shared axis is a
/// fair approximation. Simulated agents never enable their transport log.
pub fn harvest_timeline<'a>(
    agents: impl IntoIterator<Item = &'a mut SrmAgent>,
    faults: Vec<obs::FaultSpan>,
) -> obs::Timeline {
    let mut tl = obs::Timeline::new();
    for a in agents {
        let member = a.id.0;
        tl.add_member(member, a.obs.take_events());
        tl.add_transport(member, a.transport_obs.take_events());
    }
    for f in faults {
        tl.add_fault(f);
    }
    tl
}

/// Fold agents' metrics into a run summary, one column each: a
/// simulation's members or a live run's shut-down agents.
pub fn harvest_summary<'a>(agents: impl IntoIterator<Item = &'a SrmAgent>) -> RunSummary {
    let mut run = RunSummary::new();
    for a in agents {
        run.add_member(a.id.0, &a.metrics);
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

    /// Row `name` of the only member's column.
    fn count(run: &RunSummary, name: &str) -> u64 {
        run.members[0].1.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }

    #[test]
    fn adu_key_roundtrips_display() {
        let n = name(5);
        assert_eq!(adu_key(n).to_string(), n.to_string());
    }

    #[test]
    fn add_member_folds_counters_and_histograms() {
        let mut m = AgentMetrics { data_sent: 7, requests_sent: 2, session_sent: 1, ..AgentMetrics::default() };
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
        let mut run = RunSummary::new();
        run.add_member(4, &m);
        assert_eq!(run.members.len(), 1);
        assert_eq!(run.members[0].0, 4);
        assert_eq!(count(&run, "data_sent"), 7);
        assert_eq!(count(&run, "losses"), 2);
        assert_eq!(count(&run, "recovered"), 1);
        assert_eq!(count(&run, "gave_up"), 1);
        assert_eq!(count(&run, "dup_requests"), 2); // 3 observed - 1 for the recovered ADU
        assert_eq!(run.recovery_delay_rtt.count(), 1);
        assert!((run.recovery_delay_rtt.mean().unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(run.dup_requests_per_loss.count(), 2);
        assert_eq!(run.session_share.count(), 1);
    }

    #[test]
    fn the_table_has_a_row_per_counter_and_a_column_per_member() {
        let a = AgentMetrics { data_sent: 10, session_sent: 10, ..AgentMetrics::default() };
        let b = AgentMetrics { requests_sent: 3, ..AgentMetrics::default() };
        let mut run = RunSummary::new();
        run.add_member(7, &a);
        run.add_member(2, &b);
        run.recovery_delay_rtt.record(2.0);
        let s = run.render("demo");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "# demo");
        let cols: Vec<&str> = lines[1].split_whitespace().collect();
        assert_eq!(
            cols,
            ["counter", "m2", "m7", "total"],
            "members sorted, total last"
        );
        let row = |name: &str| -> Vec<String> {
            let line = lines
                .iter()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap();
            line.split_whitespace()
                .skip(1)
                .map(str::to_string)
                .collect()
        };
        assert_eq!(row("data_sent"), ["0", "10", "10"]);
        assert_eq!(row("requests_sent"), ["3", "0", "3"]);
        assert_eq!(row("dup_repairs"), ["0", "0", "0"]);
        let rows = lines.iter().skip(3).take_while(|l| !l.is_empty()).count();
        assert_eq!(rows, a.counters().len() + EPISODE_ROWS.len());
        assert!(s.contains("recovery delay / RTT : n=1"));
        // Session share recorded for both members: 0.5 and 0.0.
        assert_eq!(run.session_share.count(), 2);
    }
}
