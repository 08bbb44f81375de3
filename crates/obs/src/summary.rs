//! Per-member and per-run counter/histogram summaries — the data behind the
//! `report` CLI subcommand.

use std::fmt::Write as _;

use crate::hist::LogHistogram;

/// Counters for one member, harvested from the protocol layer's metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemberSummary {
    /// Member id.
    pub member: u64,
    /// Original data packets multicast.
    pub data_sent: u64,
    /// Request packets multicast.
    pub requests_sent: u64,
    /// Repair packets multicast.
    pub repairs_sent: u64,
    /// Session (state-exchange) packets multicast.
    pub session_sent: u64,
    /// Loss episodes opened.
    pub losses: u64,
    /// Loss episodes that recovered.
    pub recovered: u64,
    /// Loss episodes abandoned after max request rounds.
    pub gave_up: u64,
    /// Requests ignored because the ADU was inside its hold-down window.
    pub requests_held_down: u64,
    /// Duplicate requests observed across this member's episodes
    /// (requests beyond the first per episode).
    pub dup_requests: u64,
    /// Duplicate repairs observed across this member's episodes.
    pub dup_repairs: u64,
}

impl MemberSummary {
    /// A zeroed summary for `member`.
    pub fn new(member: u64) -> Self {
        MemberSummary { member, ..MemberSummary::default() }
    }

    /// Total packets this member multicast.
    pub fn total_sent(&self) -> u64 {
        self.data_sent + self.requests_sent + self.repairs_sent + self.session_sent
    }
}

/// Run-level aggregation: per-member counter rows plus log-scale histograms
/// of the quantities the paper evaluates.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// One row per member, in harvest order (sorted before rendering).
    pub members: Vec<MemberSummary>,
    /// Recovery delay in units of the member↔source RTT (Fig 4–8 metric).
    pub recovery_delay_rtt: LogHistogram,
    /// First-request delay in RTT units.
    pub request_delay_rtt: LogHistogram,
    /// Duplicate requests per loss episode.
    pub dup_requests_per_loss: LogHistogram,
    /// Duplicate repairs per repaired ADU.
    pub dup_repairs_per_adu: LogHistogram,
    /// Per-member share of multicast packets that are session messages.
    pub session_share: LogHistogram,
}

impl RunSummary {
    /// A fresh, empty summary.
    pub fn new() -> Self {
        RunSummary::default()
    }

    /// Add one member's counter row and fold its derived ratios into the
    /// run histograms.
    pub fn add_member(&mut self, m: MemberSummary) {
        let total = m.total_sent();
        if total > 0 {
            self.session_share.record(m.session_sent as f64 / total as f64);
        }
        self.members.push(m);
    }

    /// Column totals across members.
    pub fn totals(&self) -> MemberSummary {
        let mut t = MemberSummary::new(0);
        for m in &self.members {
            t.data_sent += m.data_sent;
            t.requests_sent += m.requests_sent;
            t.repairs_sent += m.repairs_sent;
            t.session_sent += m.session_sent;
            t.losses += m.losses;
            t.recovered += m.recovered;
            t.gave_up += m.gave_up;
            t.requests_held_down += m.requests_held_down;
            t.dup_requests += m.dup_requests;
            t.dup_repairs += m.dup_repairs;
        }
        t
    }

    /// Render the counter table plus histogram summary lines.
    pub fn render(&self, title: &str) -> String {
        const HEADERS: [&str; 11] = [
            "member", "data", "reqs", "repairs", "session", "losses", "recov", "gaveup",
            "helddown", "dupreq", "duprep",
        ];
        let mut members = self.members.clone();
        members.sort_by_key(|m| m.member);
        let mut rows: Vec<[String; 11]> =
            members.iter().map(|m| member_row(&format!("m{}", m.member), m)).collect();
        rows.push(member_row("total", &self.totals()));

        let mut widths: [usize; 11] = [0; 11];
        for (i, h) in HEADERS.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "# {title}");
        let header: Vec<String> = HEADERS
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>w$}", h, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
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

/// One rendered row of the counter table.
fn member_row(label: &str, m: &MemberSummary) -> [String; 11] {
    [
        label.to_string(),
        m.data_sent.to_string(),
        m.requests_sent.to_string(),
        m.repairs_sent.to_string(),
        m.session_sent.to_string(),
        m.losses.to_string(),
        m.recovered.to_string(),
        m.gave_up.to_string(),
        m.requests_held_down.to_string(),
        m.dup_requests.to_string(),
        m.dup_repairs.to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_columns() {
        let mut run = RunSummary::new();
        let mut a = MemberSummary::new(1);
        a.data_sent = 10;
        a.session_sent = 10;
        let mut b = MemberSummary::new(2);
        b.requests_sent = 3;
        b.losses = 2;
        b.recovered = 2;
        run.add_member(a);
        run.add_member(b);
        let t = run.totals();
        assert_eq!(t.data_sent, 10);
        assert_eq!(t.requests_sent, 3);
        assert_eq!(t.losses, 2);
        assert_eq!(t.recovered, 2);
        // Session share recorded for both members: 0.5 and 0.0.
        assert_eq!(run.session_share.count(), 2);
    }

    #[test]
    fn render_contains_rows_and_histograms() {
        let mut run = RunSummary::new();
        run.add_member(MemberSummary::new(7));
        run.recovery_delay_rtt.record(2.0);
        let s = run.render("demo");
        assert!(s.contains("# demo"));
        assert!(s.contains("m7"));
        assert!(s.contains("total"));
        assert!(s.contains("recovery delay / RTT : n=1"));
    }
}
