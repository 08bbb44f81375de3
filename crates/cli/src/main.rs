//! CLI entry point for `srm-sim`.

use srm_sim::{execute, Scenario};

const USAGE: &str = "usage: srm-sim [--json] [--trace FILE] <scenario.json>...";

fn main() {
    let mut json_out = false;
    let mut trace_out: Option<String> = None;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_out = true,
            "--trace" => {
                trace_out = args.next();
                if trace_out.is_none() {
                    eprintln!("--trace requires a file argument");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            }
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return;
            }
            f => files.push(f.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for f in files {
        if let Err(msg) = run_file(&f, trace_out.as_deref(), json_out) {
            eprintln!("{msg}");
            std::process::exit(1);
        }
    }
}

/// Parse and run one scenario file, write its trace when asked, and print
/// its report; the error is the line to print before exiting 1.
fn run_file(f: &str, trace_out: Option<&str>, json_out: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
    let scenario =
        Scenario::from_json(&text).map_err(|e| format!("{f}: invalid scenario: {e}"))?;
    let (report, timeline) =
        execute(&scenario, trace_out.is_some()).map_err(|e| format!("{f}: {e}"))?;
    if let (Some(path), Some(timeline)) = (trace_out, timeline) {
        std::fs::write(path, timeline.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: wrote {} events to {path}", timeline.len());
    }
    if json_out {
        println!("{}", report.to_json());
    } else {
        println!("== {f} ==");
        print!("{}", report.render());
    }
    Ok(())
}
