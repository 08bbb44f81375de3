//! Deterministic merged event timelines and the JSONL exporter.
//!
//! A [`Timeline`] merges the per-member event streams drained from
//! [`Recorder`](crate::Recorder)s with the run's [`FaultSpan`]s into one
//! totally-ordered sequence.  The order is `(time, lane, member, seq)` where
//! fault-starts sort before member events and fault-ends after them at equal
//! timestamps, so a fault window visually *nests* the recovery spans it
//! caused.  All ordering keys are integers, which makes the JSONL export
//! bit-for-bit deterministic — the property the golden-file tests pin and
//! the reason faulted replays stay byte-identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use netsim::SimTime;

use crate::event::{fmt_time, AduKey, EventKind, FaultSpan, RecordedEvent};
use crate::transport::TransportRecord;

/// A member-attributed event inside a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberEvent {
    /// Simulation time the event occurred.
    pub at: SimTime,
    /// The member that recorded it.
    pub member: u64,
    /// The ADU the episode is keyed on.
    pub adu: AduKey,
    /// What happened.
    pub kind: EventKind,
    /// Recorder-local sequence number (tie-break within a member).
    pub seq: u64,
}

/// A reconstructed request→suppression→repair chain for one ADU, assembled
/// across members — the causal story of Fig 5–8 as data.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    /// The ADU that was lost.
    pub adu: AduKey,
    /// Earliest gap detection and the member that detected it.
    pub detected_at: SimTime,
    /// Member that first detected the gap.
    pub detected_by: u64,
    /// First request transmission.
    pub request_at: SimTime,
    /// Member that sent the first request.
    pub requester: u64,
    /// Members whose own request was suppressed or backed off after hearing
    /// another's (sorted, deduplicated).
    pub suppressed: Vec<u64>,
    /// First repair transmission, if any.
    pub repair_at: Option<SimTime>,
    /// Member that sent the first repair.
    pub repairer: Option<u64>,
    /// Latest successful recovery among members that recovered.
    pub recovered_at: Option<SimTime>,
    /// Number of members that recovered the ADU.
    pub recovered_members: u64,
}

impl Chain {
    /// A chain is *complete* when the full request→suppression→repair story
    /// is present with ordered timestamps: a gap was detected, a request was
    /// sent no earlier, at least one other member was suppressed/backed off,
    /// a repair answered no earlier than the request, and someone recovered
    /// no earlier than the repair.
    pub fn is_complete(&self) -> bool {
        match (self.repair_at, self.recovered_at) {
            (Some(rep), Some(rec)) => {
                self.detected_at <= self.request_at
                    && self.request_at <= rep
                    && rep <= rec
                    && !self.suppressed.is_empty()
                    && self.recovered_members > 0
            }
            _ => false,
        }
    }

    /// One-line human rendering of the chain.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{}: gap@{} by m{} -> request@{} by m{}",
            self.adu,
            fmt_time(self.detected_at),
            self.detected_by,
            fmt_time(self.request_at),
            self.requester,
        );
        if !self.suppressed.is_empty() {
            let ids: Vec<String> = self.suppressed.iter().map(|m| format!("m{m}")).collect();
            let _ = write!(s, " -> suppressed [{}]", ids.join(","));
        }
        if let (Some(rep), Some(by)) = (self.repair_at, self.repairer) {
            let _ = write!(s, " -> repair@{} by m{}", fmt_time(rep), by);
        }
        if let Some(rec) = self.recovered_at {
            let _ = write!(
                s,
                " -> recovered@{} ({} members){}",
                fmt_time(rec),
                self.recovered_members,
                if self.is_complete() { " [complete]" } else { "" }
            );
        }
        s
    }
}

/// Ordering lane: fault starts frame the events they cause, fault ends close
/// behind them.
fn lane(kind_is_fault_start: bool, kind_is_fault_end: bool) -> u8 {
    if kind_is_fault_start {
        0
    } else if kind_is_fault_end {
        2
    } else {
        1
    }
}

enum Line<'a> {
    FaultStart(&'a FaultSpan),
    FaultEnd(&'a FaultSpan),
    Event(&'a MemberEvent),
    Transport(u64, &'a TransportRecord),
}

impl Line<'_> {
    /// `(time, lane, member, seq, sub)` — `sub` puts a member's transport
    /// records just after its same-instant recovery events, so timelines
    /// without transport records keep the exact pre-existing order (the
    /// golden-trace property).
    fn sort_key(&self) -> (u64, u8, u64, u64, u8) {
        match self {
            Line::FaultStart(f) => (f.start.as_nanos(), lane(true, false), 0, 0, 0),
            Line::FaultEnd(f) => (
                f.end.expect("only closed spans emit ends").as_nanos(),
                lane(false, true),
                0,
                0,
                0,
            ),
            Line::Event(e) => (e.at.as_nanos(), lane(false, false), e.member, e.seq, 0),
            Line::Transport(m, r) => (r.at.as_nanos(), lane(false, false), *m, r.seq, 1),
        }
    }
}

/// A merged, filterable, exportable run timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    events: Vec<MemberEvent>,
    faults: Vec<FaultSpan>,
    transport: Vec<(u64, TransportRecord)>,
}

impl Timeline {
    /// A fresh, empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Add one member's drained event stream.
    pub fn add_member(&mut self, member: u64, events: Vec<RecordedEvent>) {
        self.events.extend(events.into_iter().map(|e| MemberEvent {
            at: e.at,
            member,
            adu: e.adu,
            kind: e.kind,
            seq: e.seq,
        }));
    }

    /// Add a fault window.
    pub fn add_fault(&mut self, span: FaultSpan) {
        self.faults.push(span);
    }

    /// Add one member's drained transport event stream (chaos actions,
    /// supervision, liveness transitions).
    pub fn add_transport(&mut self, member: u64, events: Vec<TransportRecord>) {
        self.transport.extend(events.into_iter().map(|r| (member, r)));
    }

    /// All transport records in deterministic `(time, member, seq)` order.
    pub fn transport_events(&self) -> Vec<(u64, TransportRecord)> {
        let mut v = self.transport.clone();
        v.sort_by_key(|(m, r)| (r.at.as_nanos(), *m, r.seq));
        v
    }

    /// All member events in deterministic `(time, member, seq)` order.
    pub fn events(&self) -> Vec<MemberEvent> {
        let mut v = self.events.clone();
        v.sort_by_key(|e| (e.at.as_nanos(), e.member, e.seq));
        v
    }

    /// The fault windows, in insertion order.
    pub fn faults(&self) -> &[FaultSpan] {
        &self.faults
    }

    /// Total number of member events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the timeline holds no member events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Restrict the timeline.  All filters are conjunctive:
    ///
    /// * `member` keeps only that member's events;
    /// * `adu` keeps only events whose ADU renders as exactly that string
    ///   (the `s<src>:s<creator>/p<page>:<seq>` form);
    /// * `fault` keeps only events falling inside a fault window with that
    ///   label (and drops the other windows).
    pub fn filter(
        &self,
        member: Option<u64>,
        adu: Option<&str>,
        fault: Option<&str>,
    ) -> Timeline {
        let windows: Vec<&FaultSpan> = match fault {
            None => self.faults.iter().collect(),
            Some(label) => self.faults.iter().filter(|f| f.label == label).collect(),
        };
        let events = self
            .events
            .iter()
            .filter(|e| member.is_none_or(|m| e.member == m))
            .filter(|e| adu.is_none_or(|a| e.adu.to_string() == a))
            .filter(|e| fault.is_none() || windows.iter().any(|w| w.contains(e.at)))
            .copied()
            .collect();
        let transport = self
            .transport
            .iter()
            .filter(|(m, _)| member.is_none_or(|want| *m == want))
            .filter(|(_, r)| fault.is_none() || windows.iter().any(|w| w.contains(r.at)))
            .filter(|_| adu.is_none()) // transport records are not ADU-keyed
            .cloned()
            .collect();
        Timeline { events, faults: windows.into_iter().cloned().collect(), transport }
    }

    /// Group events into episode spans keyed by `(member, adu)`, each span's
    /// events in time order.
    pub fn episodes(&self) -> BTreeMap<(u64, AduKey), Vec<MemberEvent>> {
        let mut map: BTreeMap<(u64, AduKey), Vec<MemberEvent>> = BTreeMap::new();
        for e in self.events() {
            map.entry((e.member, e.adu)).or_default().push(e);
        }
        map
    }

    /// Reconstruct per-ADU request/suppression/repair chains across members.
    ///
    /// Returns one [`Chain`] per ADU that saw at least a gap detection and a
    /// request, in ADU order.
    pub fn chains(&self) -> Vec<Chain> {
        struct Acc {
            detected: Option<(SimTime, u64)>,
            request: Option<(SimTime, u64)>,
            suppressed: Vec<u64>,
            repair: Option<(SimTime, u64)>,
            recovered_at: Option<SimTime>,
            recovered_members: u64,
        }
        let mut per_adu: BTreeMap<AduKey, Acc> = BTreeMap::new();
        for e in self.events() {
            let acc = per_adu.entry(e.adu).or_insert(Acc {
                detected: None,
                request: None,
                suppressed: Vec::new(),
                repair: None,
                recovered_at: None,
                recovered_members: 0,
            });
            match e.kind {
                EventKind::GapDetected if acc.detected.is_none() => {
                    acc.detected = Some((e.at, e.member));
                }
                EventKind::RequestSent { .. } if acc.request.is_none() => {
                    acc.request = Some((e.at, e.member));
                }
                EventKind::RequestBackoff { .. } | EventKind::RequestSuppressed => {
                    acc.suppressed.push(e.member);
                }
                EventKind::RepairSent if acc.repair.is_none() => {
                    acc.repair = Some((e.at, e.member));
                }
                EventKind::Recovered { .. } => {
                    acc.recovered_members += 1;
                    acc.recovered_at = Some(match acc.recovered_at {
                        Some(t) if t >= e.at => t,
                        _ => e.at,
                    });
                }
                _ => {}
            }
        }
        per_adu
            .into_iter()
            .filter_map(|(adu, mut acc)| {
                let (detected_at, detected_by) = acc.detected?;
                let (request_at, requester) = acc.request?;
                acc.suppressed.sort_unstable();
                acc.suppressed.dedup();
                Some(Chain {
                    adu,
                    detected_at,
                    detected_by,
                    request_at,
                    requester,
                    suppressed: acc.suppressed,
                    repair_at: acc.repair.map(|(t, _)| t),
                    repairer: acc.repair.map(|(_, m)| m),
                    recovered_at: acc.recovered_at,
                    recovered_members: acc.recovered_members,
                })
            })
            .collect()
    }

    /// Export the timeline as JSON Lines: one object per member event plus
    /// `fault_start` / `fault_end` framing lines, in the deterministic merge
    /// order described in the module docs.
    pub fn to_jsonl(&self) -> String {
        let events = self.events();
        let mut lines: Vec<Line<'_>> = Vec::with_capacity(
            events.len() + 2 * self.faults.len() + self.transport.len(),
        );
        for f in &self.faults {
            lines.push(Line::FaultStart(f));
            if f.end.is_some() {
                lines.push(Line::FaultEnd(f));
            }
        }
        for e in &events {
            lines.push(Line::Event(e));
        }
        for (m, r) in &self.transport {
            lines.push(Line::Transport(*m, r));
        }
        lines.sort_by_key(Line::sort_key);

        let mut out = String::new();
        for line in lines {
            match line {
                Line::FaultStart(f) => {
                    let _ = writeln!(
                        out,
                        "{{\"t\":{},\"fault\":\"{}\",\"ev\":\"fault_start\"}}",
                        fmt_time(f.start),
                        crate::json_escape(&f.label),
                    );
                }
                Line::FaultEnd(f) => {
                    let _ = writeln!(
                        out,
                        "{{\"t\":{},\"fault\":\"{}\",\"ev\":\"fault_end\"}}",
                        fmt_time(f.end.expect("closed span")),
                        crate::json_escape(&f.label),
                    );
                }
                Line::Event(e) => {
                    let _ = write!(
                        out,
                        "{{\"t\":{},\"member\":{},\"adu\":\"{}\",\"ev\":\"{}\"",
                        fmt_time(e.at),
                        e.member,
                        e.adu,
                        e.kind.name(),
                    );
                    match e.kind {
                        EventKind::RequestTimerSet { until, backoff }
                        | EventKind::RequestBackoff { until, backoff } => {
                            let _ = write!(
                                out,
                                ",\"until\":{},\"backoff\":{}",
                                fmt_time(until),
                                backoff
                            );
                        }
                        EventKind::RequestSent { round } => {
                            let _ = write!(out, ",\"round\":{round}");
                        }
                        EventKind::RequestHeard { from } | EventKind::RepairHeard { from } => {
                            let _ = write!(out, ",\"from\":{from}");
                        }
                        EventKind::RepairTimerSet { until }
                        | EventKind::HoldDownEntered { until } => {
                            let _ = write!(out, ",\"until\":{}", fmt_time(until));
                        }
                        EventKind::Recovered { via } => {
                            let _ = write!(out, ",\"via\":\"{}\"", via.label());
                        }
                        _ => {}
                    }
                    out.push_str("}\n");
                }
                Line::Transport(m, r) => {
                    let _ = write!(
                        out,
                        "{{\"t\":{},\"member\":{},\"ev\":\"{}\"",
                        fmt_time(r.at),
                        m,
                        r.kind.name(),
                    );
                    r.kind.write_json_fields(&mut out);
                    out.push_str("}\n");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adu(seq: u64) -> AduKey {
        AduKey { source: 0, page_creator: 0, page_number: 0, seq }
    }

    fn ev(at_ns: u64, adu_seq: u64, kind: EventKind, seq: u64) -> RecordedEvent {
        RecordedEvent { at: SimTime::from_nanos(at_ns), adu: adu(adu_seq), kind, seq }
    }

    #[test]
    fn merge_order_is_time_member_seq() {
        let mut tl = Timeline::new();
        tl.add_member(2, vec![ev(10, 0, EventKind::GapDetected, 0)]);
        tl.add_member(
            1,
            vec![
                ev(10, 0, EventKind::GapDetected, 0),
                ev(5, 0, EventKind::RequestSent { round: 1 }, 1),
            ],
        );
        let evs = tl.events();
        assert_eq!(evs[0].at, SimTime::from_nanos(5));
        assert_eq!((evs[1].member, evs[2].member), (1, 2));
    }

    #[test]
    fn fault_lines_frame_events() {
        let mut tl = Timeline::new();
        tl.add_fault(FaultSpan {
            label: "burst".into(),
            start: SimTime::from_nanos(10),
            end: Some(SimTime::from_nanos(10)),
        });
        tl.add_member(1, vec![ev(10, 0, EventKind::GapDetected, 0)]);
        let jsonl = tl.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("fault_start"));
        assert!(lines[1].contains("gap_detected"));
        assert!(lines[2].contains("fault_end"));
    }

    #[test]
    fn filters_are_conjunctive() {
        let mut tl = Timeline::new();
        tl.add_member(1, vec![ev(10, 0, EventKind::GapDetected, 0)]);
        tl.add_member(2, vec![ev(20, 1, EventKind::GapDetected, 0)]);
        tl.add_fault(FaultSpan {
            label: "w".into(),
            start: SimTime::from_nanos(15),
            end: None,
        });
        assert_eq!(tl.filter(Some(1), None, None).len(), 1);
        assert_eq!(tl.filter(None, Some("s0:s0/p0:1"), None).len(), 1);
        assert_eq!(tl.filter(None, None, Some("w")).len(), 1);
        assert_eq!(tl.filter(Some(1), None, Some("w")).len(), 0);
        assert_eq!(tl.filter(None, None, Some("nope")).len(), 0);
    }

    #[test]
    fn chain_reconstruction_end_to_end() {
        let mut tl = Timeline::new();
        // Member 4 detects, requests; member 5 backs off; member 3 repairs;
        // both requesters recover.
        tl.add_member(
            4,
            vec![
                ev(100, 7, EventKind::GapDetected, 0),
                ev(200, 7, EventKind::RequestSent { round: 1 }, 1),
                ev(400, 7, EventKind::Recovered { via: crate::RecoveryVia::Repair }, 2),
            ],
        );
        tl.add_member(
            5,
            vec![
                ev(110, 7, EventKind::GapDetected, 0),
                ev(
                    210,
                    7,
                    EventKind::RequestBackoff {
                        until: SimTime::from_nanos(500),
                        backoff: 1,
                    },
                    1,
                ),
                ev(410, 7, EventKind::Recovered { via: crate::RecoveryVia::Repair }, 2),
            ],
        );
        tl.add_member(3, vec![ev(300, 7, EventKind::RepairSent, 0)]);
        let chains = tl.chains();
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert!(c.is_complete(), "chain: {c:?}");
        assert_eq!(c.detected_by, 4);
        assert_eq!(c.requester, 4);
        assert_eq!(c.suppressed, vec![5]);
        assert_eq!(c.repairer, Some(3));
        assert_eq!(c.recovered_members, 2);
        assert_eq!(c.recovered_at, Some(SimTime::from_nanos(410)));
        assert!(c.render().contains("[complete]"));
    }

    #[test]
    fn transport_lines_merge_after_same_instant_member_events() {
        use crate::transport::{TransportEventKind, TransportRecord};
        let mut tl = Timeline::new();
        tl.add_member(1, vec![ev(10, 0, EventKind::GapDetected, 0)]);
        tl.add_transport(
            1,
            vec![
                TransportRecord {
                    at: SimTime::from_nanos(10),
                    kind: TransportEventKind::ChaosDrop { flow: 0 },
                    seq: 0,
                },
                TransportRecord {
                    at: SimTime::from_nanos(5),
                    kind: TransportEventKind::PeerSuspect { peer: 2 },
                    seq: 1,
                },
            ],
        );
        let jsonl = tl.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ev\":\"peer_suspect\""), "{jsonl}");
        assert!(lines[1].contains("\"ev\":\"gap_detected\""));
        assert!(lines[2].contains("\"ev\":\"chaos_drop\""));
        assert!(lines[2].contains("\"flow\":0"));
        // Member filter applies to transport lines too.
        assert_eq!(tl.filter(Some(2), None, None).transport_events().len(), 0);
        assert_eq!(tl.filter(Some(1), None, None).transport_events().len(), 2);
    }

    #[test]
    fn incomplete_chain_without_suppression() {
        let mut tl = Timeline::new();
        tl.add_member(
            4,
            vec![
                ev(100, 7, EventKind::GapDetected, 0),
                ev(200, 7, EventKind::RequestSent { round: 1 }, 1),
            ],
        );
        let chains = tl.chains();
        assert_eq!(chains.len(), 1);
        assert!(!chains[0].is_complete());
    }
}
