//! CLI entry point for `srm-sim`.

use obs::flags::{Cli, Command, Error, Flag};
use srm_sim::{execute, Scenario};

static CLI: Cli = Cli {
    bin: "srm-sim",
    commands: &[Command {
        name: "",
        about: "run each scenario file and print its traffic/recovery report",
        flags: &[
            Flag::switch("--json", "print each report as one JSON object"),
            Flag::value("--trace", "FILE", "write the run's obs timeline to FILE as JSONL (one scenario file only)"),
            Flag::positional("SCENARIO.json", "scenario files, run in order"),
        ],
    }],
    footer: String::new,
};

fn main() {
    CLI.run(|p| {
        let files = p.all("SCENARIO.json");
        if files.is_empty() {
            return Err(Error::Usage("no scenario file given".into()));
        }
        if files.len() > 1 && p.str("--trace").is_some() {
            return Err(Error::Usage("--trace takes one scenario file, got several".into()));
        }
        for f in files {
            if let Err(msg) = run_file(f, p.str("--trace"), p.on("--json")) {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        Ok(())
    })
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
