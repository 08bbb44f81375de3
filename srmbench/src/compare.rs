//! `srmbench compare` and `srmbench validate`: reading result files.
//!
//! A result file is JSONL, one line per run as `--out` appends them:
//! `{"workload": W, "seed": N, "trace": 0|1, "result": {...}}`.
//!
//! `compare A B` treats A as the parent and B as the change and prints one
//! row per workload × metric. The verdict follows the choosing-metrics
//! rules: *unresolved* when either side's own spread (quartile distance
//! over the parent's median) is wider than the metric's bound; *regressed*
//! when B's median is worse than A's by more than the bound; *improved*
//! only when B wins at least nine tenths of the run pairs (ties for
//! neither) and the medians differ by more than the parent's own quartile
//! distance; otherwise *unchanged*. `sim_fig4`'s four protocol metrics are
//! exact counts, so at equal seed they must be bit-identical.

use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::{json_get, json_num};
use srm_transport::control::{parse_json, Jv};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One run read back from a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLine {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--trace`.
    pub traced: bool,
    /// The run's `correct`.
    pub correct: bool,
    /// The run's `attempted`.
    pub attempted: u64,
    /// The run's `failed`.
    pub failed: u64,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parse one result line.
pub fn parse_line(line: &str) -> Result<RunLine, String> {
    let v = parse_json(line)?;
    let need = |k: &str| format!("missing or mistyped `{k}`");
    let Some(Jv::S(workload)) = json_get(&v, "workload") else {
        return Err(need("workload"));
    };
    let result = json_get(&v, "result").ok_or_else(|| need("result"))?;
    let Some(Jv::B(correct)) = json_get(result, "correct") else {
        return Err(need("correct"));
    };
    let Some(Jv::O(ms)) = json_get(result, "metrics") else {
        return Err(need("metrics"));
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in ms {
        let value =
            json_num(m, "value").ok_or_else(|| format!("metric {name}: no numeric value"))?;
        let Some(Jv::S(unit)) = json_get(m, "unit") else {
            return Err(format!("metric {name}: no unit"));
        };
        metrics.insert(name.clone(), (value, unit.clone()));
    }
    Ok(RunLine {
        workload: workload.clone(),
        seed: json_num(&v, "seed").ok_or_else(|| need("seed"))? as u64,
        traced: json_num(&v, "trace").ok_or_else(|| need("trace"))? != 0.0,
        correct: *correct,
        attempted: json_num(result, "attempted").ok_or_else(|| need("attempted"))? as u64,
        failed: json_num(result, "failed").ok_or_else(|| need("failed"))? as u64,
        metrics,
    })
}

fn read_file(path: &str) -> Result<Vec<RunLine>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// A verdict on one workload × metric pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by the nine-tenths-and-beyond-the-spread rule.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge parent runs `a` against change runs `b` (paired in file order).
pub fn judge(a: &[f64], b: &[f64], bound: f64, higher_better: bool) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1);
    let base = ma.abs().max(f64::MIN_POSITIVE);
    if iqr(a).max(iqr(b)) / base > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_better { ma - mb } else { mb - ma };
    if worse_by / base > bound {
        return Verdict::Regressed;
    }
    let better = |x: f64, y: f64| if higher_better { y > x } else { y < x };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| better(**x, **y)).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && -worse_by > iqr(a) {
        return Verdict::Improved;
    }
    Verdict::Unchanged
}

/// `sim_fig4` metrics that are pure functions of the seed.
const SIM_EXACT: [&str; 4] = [
    "adu_p50_rtt",
    "adu_p99_rtt",
    "frames_per_adu",
    "wire_bytes_per_adu",
];

/// The comparison table and whether it is clean (nothing regressed, no
/// exact count differed).
pub fn compare(a: &[RunLine], b: &[RunLine]) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut clean = true;
    let _ = writeln!(
        out,
        "{:<12} {:<19} {:>3} {:>12} {:>24} {:>7} {:>12} {:>24} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "n",
        "A median",
        "A quartiles",
        "spread",
        "B median",
        "B quartiles",
        "spread",
        "B/A",
        "bound"
    );
    let values = |runs: &[RunLine], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.get(m).map(|x| x.0))
            .collect()
    };
    for w in spec::WORKLOADS {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (va, vb) = (values(a, w.name, def.name), values(b, w.name, def.name));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                continue;
            };
            let q = |v: &[f64]| {
                quartiles(v)
                    .map_or_else(|| "-".to_string(), |(q1, q3)| format!("[{q1:.5}, {q3:.5}]"))
            };
            // Quartile distance over the side's own median: what has to stay
            // within the bound for the benchmark to count as steady.
            let spread = |v: &[f64], m: f64| {
                quartiles(v).map_or_else(
                    || "-".to_string(),
                    |(q1, q3)| format!("{:.2}%", (q3 - q1) / m.abs() * 100.0),
                )
            };
            let gated = def.bound > 0.0;
            let verdict = gated.then(|| judge(&va, &vb, def.bound, def.higher_better));
            clean &= verdict != Some(Verdict::Regressed);
            let _ = writeln!(
                out,
                "{:<12} {:<19} {:>3} {:>12.5} {:>24} {:>7} {:>12.5} {:>24} {:>7} {:>7.4} {:>6}  {}",
                w.name,
                def.name,
                va.len().min(vb.len()),
                ma,
                q(&va),
                spread(&va, ma),
                mb,
                q(&vb),
                spread(&vb, mb),
                if ma != 0.0 { mb / ma } else { f64::NAN },
                if gated {
                    format!("{}", def.bound)
                } else {
                    "-".into()
                },
                verdict.map_or("-", Verdict::label),
            );
        }
    }
    // Exact counts: same seed, same numbers, to the last bit.
    let sim = |runs: &[RunLine]| -> BTreeMap<u64, RunLine> {
        runs.iter()
            .filter(|r| r.workload == "sim_fig4" && !r.traced)
            .map(|r| (r.seed, r.clone()))
            .collect()
    };
    let (sa, sb) = (sim(a), sim(b));
    let mut checked = 0;
    for (seed, ra) in &sa {
        let Some(rb) = sb.get(seed) else { continue };
        for name in SIM_EXACT {
            let (x, y) = (
                ra.metrics.get(name).map(|m| m.0),
                rb.metrics.get(name).map(|m| m.0),
            );
            checked += 1;
            if x.map(f64::to_bits) != y.map(f64::to_bits) {
                clean = false;
                let _ = writeln!(
                    out,
                    "EXACT MISMATCH sim_fig4 seed {seed} {name}: {x:?} vs {y:?}"
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "sim_fig4 exact counts at equal seed: {checked} compared"
    );
    let bad: Vec<String> = a
        .iter()
        .chain(b)
        .filter(|r| !r.correct || r.failed > 0)
        .map(|r| format!("{} seed {}", r.workload, r.seed))
        .collect();
    if !bad.is_empty() {
        clean = false;
        let _ = writeln!(
            out,
            "runs with failures or correct=false: {}",
            bad.join(", ")
        );
    }
    (out, clean)
}

/// `srmbench compare A B`.
pub fn compare_cmd(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: srmbench compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    match (read_file(a), read_file(b)) {
        (Ok(ra), Ok(rb)) => {
            let (table, clean) = compare(&ra, &rb);
            print!("{table}");
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("srmbench compare: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Problems with one run line, empty when it is well formed.
pub fn problems(r: &RunLine) -> Vec<String> {
    let mut p = Vec::new();
    if spec::workload(&r.workload).is_none() {
        p.push(format!("unknown workload `{}`", r.workload));
    }
    if !r.correct {
        p.push("correct is false".into());
    }
    if r.attempted == 0 {
        p.push("attempted is 0".into());
    }
    let wanted: &[spec::MetricDef] = if r.traced { PER_LAYER } else { &END_TO_END };
    for def in wanted {
        match r.metrics.get(def.name) {
            None => p.push(format!("metric {} is missing", def.name)),
            Some((v, unit)) => {
                if unit != def.unit {
                    p.push(format!(
                        "metric {} has unit `{unit}`, not `{}`",
                        def.name, def.unit
                    ));
                }
                if !v.is_finite() || (!r.traced && *v <= 0.0) {
                    p.push(format!(
                        "metric {} = {v} is not a positive number",
                        def.name
                    ));
                }
            }
        }
    }
    for name in r
        .metrics
        .keys()
        .filter(|n| !wanted.iter().any(|d| d.name == n.as_str()))
    {
        p.push(format!(
            "metric {name} is not declared for --trace {}",
            u8::from(r.traced)
        ));
    }
    p
}

/// `srmbench validate FILE`.
pub fn validate_cmd(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: srmbench validate FILE");
        return ExitCode::from(2);
    };
    let runs = match read_file(path) {
        Ok(r) if !r.is_empty() => r,
        Ok(_) => {
            eprintln!("srmbench validate: {path}: no runs");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("srmbench validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (i, r) in runs.iter().enumerate() {
        for p in problems(r) {
            ok = false;
            println!("{path}:{}: {} seed {}: {p}", i + 1, r.workload, r.seed);
        }
    }
    println!(
        "{path}: {} runs, {}",
        runs.len(),
        if ok { "valid" } else { "INVALID" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rules() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0];
        // Same distribution: unchanged.
        assert_eq!(judge(&a, &a, 0.05, false), Verdict::Unchanged);
        // 10 % worse with a 5 % bound: regressed.
        let worse: Vec<f64> = a.iter().map(|x| x * 1.10).collect();
        assert_eq!(judge(&a, &worse, 0.05, false), Verdict::Regressed);
        // 3 % worse with a 5 % bound: within the bound.
        let slightly: Vec<f64> = a.iter().map(|x| x * 1.03).collect();
        assert_eq!(judge(&a, &slightly, 0.05, false), Verdict::Unchanged);
        // 10 % better on every pair, well beyond the parent's spread.
        let better: Vec<f64> = a.iter().map(|x| x * 0.90).collect();
        assert_eq!(judge(&a, &better, 0.05, false), Verdict::Improved);
        assert_eq!(
            judge(&a, &worse, 0.05, true),
            Verdict::Improved,
            "higher is better flips it"
        );
        // Better on the median but winning only 6 of 10 pairs: not claimed.
        let mixed = [9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 10.2, 10.2, 10.2, 10.2];
        assert_eq!(judge(&a, &mixed, 0.25, false), Verdict::Unchanged);
        // A spread wider than the bound resolves nothing.
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0];
        assert_eq!(judge(&noisy, &noisy, 0.05, false), Verdict::Unresolved);
        assert_eq!(judge(&[], &a, 0.05, false), Verdict::Unresolved);
    }

    fn line(workload: &str, seed: u64, frames: f64) -> String {
        let mut metrics = String::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let v = if m.name == "frames_per_adu" {
                frames
            } else {
                1.5
            };
            metrics += &format!(
                "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                m.unit
            );
        }
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"result\": {{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{{metrics}}}}}}}"
        )
    }

    #[test]
    fn lines_round_trip_and_validate() {
        let r = parse_line(&line("sim_fig4", 3, 4.25)).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.traced, r.attempted),
            ("sim_fig4", 3, false, 10)
        );
        assert_eq!(r.metrics["frames_per_adu"], (4.25, "count".to_string()));
        assert!(problems(&r).is_empty(), "{:?}", problems(&r));
        let mut broken = r.clone();
        broken.metrics.remove("setup_s");
        broken.metrics.insert("made_up".into(), (1.0, "x".into()));
        broken.correct = false;
        assert_eq!(problems(&broken).len(), 3);
        assert!(parse_line("{\"workload\": 3}").is_err());
    }

    #[test]
    fn sim_counts_must_match_bit_for_bit_at_equal_seed() {
        let a = vec![parse_line(&line("sim_fig4", 1, 4.25)).unwrap()];
        let same = vec![parse_line(&line("sim_fig4", 1, 4.25)).unwrap()];
        let off = vec![parse_line(&line("sim_fig4", 1, 4.250000001)).unwrap()];
        // Another seed may differ in the last digits (not by more than the bound).
        let other_seed = vec![parse_line(&line("sim_fig4", 2, 4.250000001)).unwrap()];
        assert!(compare(&a, &same).1);
        let (table, clean) = compare(&a, &off);
        assert!(!clean && table.contains("EXACT MISMATCH"), "{table}");
        assert!(
            compare(&a, &other_seed).1,
            "different seeds are not compared exactly"
        );
    }
}
