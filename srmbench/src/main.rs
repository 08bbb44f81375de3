//! `srmbench` — the repository's benchmark.
//!
//! ```text
//! srmbench --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE] [--out FILE]
//! srmbench --smoke
//! srmbench list [--benchmark-json]
//! srmbench compare A.jsonl B.jsonl
//! srmbench validate FILE
//! srmbench report TRACE.jsonl
//! ```
//!
//! A run prints every metric by name and unit and ends with one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`) as its last line;
//! `--out` appends that line, tagged with workload and seed, to a JSONL
//! file that `compare` and `validate` read. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod cpu;
mod live;
mod payload;
mod replay;
mod sim;
mod spec;
mod stats;
mod tap;
mod trace;

use spec::{MetricDef, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use srm_transport::control::Jv;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The run clock: nanoseconds since the process started measuring. Shared
/// by the generator, the collectors and the wiretap so their stamps compare.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sleep until `t_ns` on this clock (returns at once if it has passed).
    pub fn sleep_until(&self, t_ns: u64) {
        let now = self.now_ns();
        if t_ns > now {
            std::thread::sleep(Duration::from_nanos(t_ns - now));
        }
    }
}

/// A field of a parsed JSON object (the control plane's parser is the
/// repo's JSON reader at this level of the dependency graph).
fn json_get<'a>(o: &'a Jv, key: &str) -> Option<&'a Jv> {
    match o {
        Jv::O(fields) => fields.iter().find(|(n, _)| n == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A numeric field of a parsed JSON object.
fn json_num(o: &Jv, key: &str) -> Option<f64> {
    match json_get(o, key)? {
        Jv::N(n) => Some(*n),
        _ => None,
    }
}

/// A string field of a parsed JSON object.
fn json_str<'a>(o: &'a Jv, key: &str) -> Option<&'a str> {
    match json_get(o, key)? {
        Jv::S(s) => Some(s),
        _ => None,
    }
}

/// What one run produced, whatever the workload.
#[derive(Default)]
pub struct Outcome {
    /// Units of work tried: ADUs published, or loss-recovery rounds run.
    pub attempted: u64,
    /// ADUs missing somewhere, duplicated, damaged or refused; rounds that
    /// left a member unrecovered.
    pub failed: u64,
    /// Every checksum, count and accounting identity held.
    pub correct: bool,
    /// Why `correct` is false, and remarks on the run.
    pub notes: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans of a traced run.
    pub spans: Vec<trace::Span>,
    /// What a traced live cpu phase put on the wire (for the accounted
    /// share).
    pub mix: Option<live::FrameMix>,
}

struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Shorter set-up loops and replay batches (`--smoke`).
    quick: bool,
}

/// One run: the metrics the contract names for `--trace`, and the trace.
fn run(a: &RunArgs) -> Result<(Outcome, trace::Trace), String> {
    let clock = Clock::start();
    let mut o = match a.workload.live {
        Some(spec) => {
            let knobs = live::LiveKnobs {
                seconds: a.seconds,
                setups: if a.quick { 3 } else { spec::SETUP_REPEATS },
            };
            let run = if a.traced {
                live::run_traced
            } else {
                live::run_untraced
            };
            run(&spec, a.seed, knobs, clock).map_err(|e| format!("{}: {e}", a.workload.name))?
        }
        None => {
            let knobs = if a.quick {
                sim::SimKnobs {
                    seconds: a.seconds,
                    sessions: 4,
                    rounds: 10,
                }
            } else {
                sim::SimKnobs::full(a.seconds)
            };
            sim::run(a.seed, knobs, a.traced, clock)
        }
    };
    let mut trace = trace::Trace {
        spans: std::mem::take(&mut o.spans),
        metrics: Vec::new(),
    };
    if a.traced {
        replay::add_layer_metrics(&mut o.metrics, &mut trace, o.mix, a.seed, a.quick, clock)
            .map_err(|e| format!("layer replay: {e}"))?;
    }
    for name in ["trace.overhead_share", "trace.accounted_share"] {
        if let Some(v) = o.metrics.get(name) {
            trace.metrics.push(trace::TraceMetric {
                name: name.into(),
                value: *v,
                unit: "share".into(),
            });
        }
    }
    // The printed set is exactly the declared one: with --trace 0 every
    // end-to-end metric, with --trace 1 every per-layer metric (a layer the
    // workload does not exercise reports 0).
    let wanted: &[MetricDef] = if a.traced { PER_LAYER } else { &END_TO_END };
    let mut metrics = BTreeMap::new();
    for m in wanted {
        let v = o.metrics.get(m.name).copied().unwrap_or(0.0);
        if !v.is_finite() {
            o.correct = false;
            o.notes.push(format!("{} could not be measured", m.name));
        }
        metrics.insert(m.name, if v.is_finite() { v } else { 0.0 });
    }
    o.metrics = metrics;
    Ok((o, trace))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct,
        r.attempted.max(1),
        r.failed
    );
    for (i, (name, v)) in r.metrics.iter().enumerate() {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn print_run(a: &RunArgs, r: &Outcome) {
    println!(
        "# {} seed={} seconds={} trace={} — {}",
        a.workload.name,
        a.seed,
        a.seconds,
        u8::from(a.traced),
        a.workload.why
    );
    for n in &r.notes {
        println!("# {n}");
    }
    for (name, v) in &r.metrics {
        println!(
            "{name:<36} {v:>16.6} {}",
            spec::metric(name).map_or("", |m| m.unit)
        );
    }
    println!(
        "attempted {}  failed {}  correct {}",
        r.attempted, r.failed, r.correct
    );
    println!("{}", result_json(r));
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: srmbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--out FILE]\n\
         \x20      srmbench --smoke\n\
         \x20      srmbench list [--benchmark-json]\n\
         \x20      srmbench compare A.jsonl B.jsonl\n\
         \x20      srmbench validate FILE\n\
         \x20      srmbench report TRACE.jsonl",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn smoke() -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        let a = RunArgs {
            workload: w,
            seed: 1,
            seconds: 2.0,
            traced: false,
            quick: true,
        };
        let t = Instant::now();
        match run(&a) {
            Ok((r, _)) => {
                let complete = END_TO_END
                    .iter()
                    .all(|m| r.metrics.get(m.name).is_some_and(|v| *v > 0.0));
                let pass = r.correct && r.failed == 0 && complete;
                println!(
                    "smoke {:<12} {:>5.1}s  attempted {:>7}  failed {}  correct {}  metrics {}  {}",
                    w.name,
                    t.elapsed().as_secs_f64(),
                    r.attempted,
                    r.failed,
                    r.correct,
                    if complete { "complete" } else { "INCOMPLETE" },
                    if pass { "ok" } else { "FAIL" }
                );
                if !pass {
                    r.notes.iter().for_each(|n| println!("  # {n}"));
                }
                ok &= pass;
            }
            Err(e) => {
                println!("smoke {:<12} error: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--benchmark-json") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("end-to-end metrics (lower is better; bound = share of the parent's median):");
    for m in &END_TO_END {
        println!("  {:<20} {:<6} bound {}", m.name, m.unit, m.bound);
    }
    println!("per-layer metrics ({}):", PER_LAYER.len());
    for m in PER_LAYER {
        println!(
            "  {:<34} {:<6} {}",
            m.name,
            m.unit,
            if m.higher_better { "higher" } else { "lower" }
        );
    }
    println!("interactions (layer metric | should move | on | must stay flat on):");
    for i in &spec::INTERACTIONS {
        println!("  {} | {} | {} | {}", i.layer, i.moves, i.on, i.flat_on);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help") => return usage(),
        Some("list") => return list(&args[1..]),
        Some("--smoke") => return smoke(),
        Some("compare") => return compare::compare_cmd(&args[1..]),
        Some("validate") => return compare::validate_cmd(&args[1..]),
        Some("report") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("srmbench report: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            return match trace::Trace::read_jsonl(std::io::BufReader::new(file)) {
                Ok(t) => {
                    print!("{}", trace::report(&t));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("srmbench report: {path}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some(_) => {}
    }

    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, RUN_SECONDS as f64, false);
    let (mut trace_out, mut out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            eprintln!("srmbench: {flag} needs a value");
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => spec::workload(val)
                .map(|w| workload = Some(w))
                .ok_or("unknown workload"),
            "--seed" => val
                .parse()
                .map(|v| seed = v)
                .map_err(|_| "not a whole number"),
            "--seconds" => match val.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 600.0 => {
                    seconds = v;
                    Ok(())
                }
                _ => Err("not a number of seconds in (0, 600]"),
            },
            "--trace" => match val.as_str() {
                "0" => Ok(()),
                "1" => {
                    traced = true;
                    Ok(())
                }
                _ => Err("is 0 or 1"),
            },
            "--trace-out" => {
                trace_out = Some(val.clone());
                Ok(())
            }
            "--out" => {
                out = Some(val.clone());
                Ok(())
            }
            _ => Err("is not an option"),
        };
        if let Err(why) = parsed {
            eprintln!("srmbench: {flag} {val}: {why}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let a = RunArgs {
        workload,
        seed,
        seconds,
        traced,
        quick: false,
    };
    let (r, trace) = match run(&a) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("srmbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = trace_out {
        let written = std::fs::File::create(&path)
            .and_then(|f| trace.write_jsonl(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("srmbench: --trace-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = out {
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}\n",
            a.workload.name,
            a.seed,
            u8::from(a.traced),
            result_json(&r)
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("srmbench: --out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print_run(&a, &r);
    ExitCode::SUCCESS
}
