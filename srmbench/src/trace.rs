//! Spans: what the traced run records and `srmbench report` reads back.
//!
//! A span is a named interval on the run clock with an id and the id of
//! the span that caused it. Two families share the format:
//!
//! - *path spans* (`layer: "path"`), one causal chain per ADU taken from the
//!   load generator, the wiretap and the collectors: `publish` (the `exec`
//!   call) → `wire` (first sighting of the data frame) → `deliver` (one per
//!   receiver), and for a lost ADU `request` → `repair` → `deliver`. Each
//!   starts where its cause ended, so its duration is that step's latency;
//! - *replay spans*, one per batch of calls into one layer's public
//!   function, children of the `replay` root, with `calls` holding the batch
//!   size (a span per call would cost more than most of the calls).
//!
//! Spans stay in memory during the run and are written as JSONL at exit.

use crate::{json_num, json_str};
use srm_transport::control::{json_escape, parse_json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Module the time belongs to (`wire`, `agent`, ..., or `path`).
    pub layer: String,
    /// What was done (`wire.data64_encode`, `publish`, ...).
    pub name: String,
    /// Unique id; path spans use `<adu>/<name>[/<receiver>]`.
    pub id: String,
    /// Id of the span that caused this one.
    pub parent: Option<String>,
    /// Start on the run clock.
    pub start_ns: u64,
    /// End on the run clock.
    pub end_ns: u64,
    /// Calls covered (1 for path spans).
    pub calls: u64,
}

impl Span {
    /// The span as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"type\":\"span\",\"layer\":\"{}\",\"name\":\"{}\",\"id\":\"{}\",\"parent\":",
            json_escape(&self.layer),
            json_escape(&self.name),
            json_escape(&self.id)
        );
        match &self.parent {
            Some(p) => {
                let _ = write!(s, "\"{}\"", json_escape(p));
            }
            None => s.push_str("null"),
        }
        let _ = write!(
            s,
            ",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            self.start_ns, self.end_ns, self.calls
        );
        s
    }
}

/// A named number stored beside the spans (e.g. `trace.accounted_share`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceMetric {
    /// Metric name.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Everything a trace file holds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// All spans, in recording order.
    pub spans: Vec<Span>,
    /// Stored metrics.
    pub metrics: Vec<TraceMetric>,
}

impl Trace {
    /// Write the trace as JSONL.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(w, "{}", s.to_json())?;
        }
        for m in &self.metrics {
            writeln!(
                w,
                "{{\"type\":\"metric\",\"name\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
                json_escape(&m.name),
                m.value,
                json_escape(&m.unit)
            )?;
        }
        w.flush()
    }

    /// Read a JSONL trace back; a malformed line is an error naming it.
    pub fn read_jsonl(r: impl BufRead) -> Result<Trace, String> {
        let mut t = Trace::default();
        for (i, line) in r.lines().enumerate() {
            let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
            if line.trim().is_empty() {
                continue;
            }
            let o = parse_json(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let missing = |k: &str| format!("line {}: missing `{k}`", i + 1);
            match json_str(&o, "type") {
                Some("span") => t.spans.push(Span {
                    layer: json_str(&o, "layer")
                        .map(str::to_owned)
                        .ok_or_else(|| missing("layer"))?,
                    name: json_str(&o, "name")
                        .map(str::to_owned)
                        .ok_or_else(|| missing("name"))?,
                    id: json_str(&o, "id")
                        .map(str::to_owned)
                        .ok_or_else(|| missing("id"))?,
                    parent: json_str(&o, "parent").map(str::to_owned),
                    start_ns: json_num(&o, "start_ns").ok_or_else(|| missing("start_ns"))? as u64,
                    end_ns: json_num(&o, "end_ns").ok_or_else(|| missing("end_ns"))? as u64,
                    calls: json_num(&o, "calls").unwrap_or(1.0) as u64,
                }),
                Some("metric") => t.metrics.push(TraceMetric {
                    name: json_str(&o, "name")
                        .map(str::to_owned)
                        .ok_or_else(|| missing("name"))?,
                    value: json_num(&o, "value").ok_or_else(|| missing("value"))?,
                    unit: json_str(&o, "unit").unwrap_or_default().to_owned(),
                }),
                _ => return Err(format!("line {}: unknown record type", i + 1)),
            }
        }
        Ok(t)
    }
}

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its own interval that its child spans cover (children are
/// clipped to the parent and overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<&str, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = &s.parent {
            children
                .entry(p.as_str())
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(s.id.as_str()) else {
                return dur;
            };
            kids.sort_unstable();
            let (mut covered, mut upto) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(upto), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// `srmbench report`: the per-layer self-time table, one recovery chain for
/// a sample lost ADU, and the stored `trace.*` metrics.
pub fn report(t: &Trace) -> String {
    let selfs = self_times(&t.spans);
    // (layer, name) -> (spans, calls, self ns)
    let mut rows: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in t.spans.iter().zip(&selfs) {
        let r = rows.entry((s.layer.as_str(), s.name.as_str())).or_default();
        r.0 += 1;
        r.1 += s.calls.max(1);
        r.2 += own;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<28} {:>9} {:>11} {:>14} {:>13}",
        "layer", "span", "spans", "calls", "self_ms", "self_ns/call"
    );
    for ((layer, name), (n, calls, own)) in &rows {
        let _ = writeln!(
            out,
            "{:<10} {:<28} {:>9} {:>11} {:>14.3} {:>13.1}",
            layer,
            name,
            n,
            calls,
            *own as f64 / 1e6,
            *own as f64 / *calls as f64
        );
    }

    // One recovery chain: the first ADU that has a repair span.
    let adu_of = |s: &Span| {
        s.id.rsplit_once(&format!("/{}", s.name))
            .map(|(a, _)| a.to_string())
    };
    let sample = t
        .spans
        .iter()
        .filter(|s| s.layer == "path" && s.name == "repair")
        .find_map(adu_of);
    match sample {
        None => out.push_str("\nrecovery chain: no ADU was lost in this trace\n"),
        Some(adu) => {
            let _ = writeln!(out, "\nrecovery chain for {adu} (ms on the run clock):");
            let mut chain: Vec<&Span> = t
                .spans
                .iter()
                .filter(|s| s.layer == "path" && s.id.starts_with(&format!("{adu}/")))
                .collect();
            chain.sort_by_key(|s| (s.end_ns, s.start_ns));
            for s in chain {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>11.3} -> {:>11.3}  (+{:.3} ms, caused by {})",
                    s.id.trim_start_matches(&format!("{adu}/")),
                    s.start_ns as f64 / 1e6,
                    s.end_ns as f64 / 1e6,
                    s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6,
                    s.parent
                        .as_deref()
                        .map_or("-", |p| p.trim_start_matches(&format!("{adu}/")))
                );
            }
        }
    }
    out.push('\n');
    for m in &t.metrics {
        let _ = writeln!(out, "{} = {} {}", m.name, m.value, m.unit);
    }
    if !t.metrics.iter().any(|m| m.name == "trace.accounted_share") {
        out.push_str("trace.accounted_share: not recorded in this trace\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: &str, parent: Option<&str>, a: u64, b: u64) -> Span {
        Span {
            layer: "t".into(),
            name: id.into(),
            id: id.into(),
            parent: parent.map(Into::into),
            start_ns: a,
            end_ns: b,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_clipped_children_once() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some("root"), 10, 30),
            span("b", Some("root"), 20, 50), // overlaps a: union is 10..50
            span("c", Some("root"), 90, 140), // clipped to 90..100
            span("after", Some("root"), 100, 120), // starts where root ends
            span("leaf", Some("a"), 12, 14),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(own[1], 20 - 2);
        assert_eq!(own[2], 30);
        assert_eq!(own[5], 2);
    }

    #[test]
    fn jsonl_round_trips_and_rejects_garbage() {
        let t = Trace {
            spans: vec![
                span("g1/s2/7/wire", Some("g1/s2/7/publish"), 5, 9),
                span("x\"y", None, 0, 1),
            ],
            metrics: vec![TraceMetric {
                name: "trace.accounted_share".into(),
                value: 0.625,
                unit: "share".into(),
            }],
        };
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert_eq!(Trace::read_jsonl(&buf[..]).unwrap(), t);
        assert!(Trace::read_jsonl(&b"{\"type\":\"span\"}\n"[..]).is_err());
        assert!(Trace::read_jsonl(&b"not json\n"[..]).is_err());
    }

    #[test]
    fn report_prints_a_chain_for_a_lost_adu() {
        let path = |name: &str, parent: Option<&str>, a: u64, b: u64| Span {
            layer: "path".into(),
            name: name.into(),
            id: format!("g1/s1/3/{name}"),
            parent: parent.map(|p| format!("g1/s1/3/{p}")),
            start_ns: a,
            end_ns: b,
            calls: 1,
        };
        let t = Trace {
            spans: vec![
                path("publish", None, 0, 10),
                path("request", Some("publish"), 10, 20_000_000),
                path("repair", Some("request"), 20_000_000, 45_000_000),
            ],
            metrics: vec![],
        };
        let r = report(&t);
        assert!(r.contains("recovery chain for g1/s1/3"), "{r}");
        assert!(r.contains("caused by request"), "{r}");
        assert!(r.contains("not recorded"), "{r}");
    }
}
