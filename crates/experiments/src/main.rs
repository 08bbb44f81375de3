//! CLI: regenerate the SRM paper's figures, dump recovery-episode traces,
//! and print observability reports.
//!
//! ```text
//! srm-experiments all [--quick] [--out results/]
//! srm-experiments fig3 fig5 --quick
//! srm-experiments list
//! srm-experiments trace --scenario chain-drop [--member N] [--adu ADU]
//!                       [--fault LABEL] [--chains] [--out FILE]
//! srm-experiments report [--scenario NAME]
//! srm-experiments monitor --monitor FILE [--stats FILE]... [--validate]
//! ```

use obs::flags::{int, Cli, Command, Error, Flag, Parsed};
use srm_experiments::monitor_cmd;
use srm_experiments::trace_cmd::{run_traced, TRACE_SCENARIOS};
use srm_experiments::{run_figure, RunOpts, FIGURES};
use std::path::Path;
use std::time::Instant;

static CLI: Cli = Cli {
    bin: "srm-experiments",
    commands: &[
        Command {
            name: "",
            about: "run figures (all of them when none is named) and print their tables",
            flags: &[
                Flag::switch("--quick", "reduced sizes and replicates").short("-q"),
                Flag::value("--threads", "N", "worker threads (default: the machine's cores)").short("-j"),
                Flag::value("--out", "DIR", "also write one CSV per table into DIR").short("-o"),
                Flag::positional("FIGURE", "a figure id, `all`, or `list` to print the ids"),
            ],
        },
        Command {
            name: "trace",
            about: "print (or write) a scenario's JSONL timeline, optionally filtered",
            flags: &[
                Flag::value("--scenario", "NAME", "the traced scenario (required)").short("-s"),
                Flag::value("--member", "N", "only this member's events").short("-m"),
                Flag::value("--adu", "ADU", "only this ADU's events, e.g. s6:s6/p0:0"),
                Flag::value("--fault", "LABEL", "only the events inside this fault's window"),
                Flag::switch("--chains", "print reconstructed recovery chains instead of JSONL"),
                Flag::value("--out", "FILE", "write to FILE instead of stdout").short("-o"),
            ],
        },
        Command {
            name: "report",
            about: "print counter and histogram tables for one traced scenario, or all of them",
            flags: &[Flag::value("--scenario", "NAME", "the traced scenario").short("-s")],
        },
        Command {
            name: "monitor",
            about: "validate and aggregate srm-node monitor and stats JSONL files",
            flags: &[
                Flag::value("--monitor", "FILE", "an `srm-node monitor --out` file").short("-m"),
                Flag::repeat("--stats", "FILE", "a `--stats-file` snapshot file"),
                Flag::switch("--validate", "exit 1 on any schema violation"),
            ],
        },
    ],
    footer: || format!("figures: {}\nscenarios: {}", FIGURES.join(" "), TRACE_SCENARIOS.join(" ")),
};

/// The `--scenario` value, if it names a traced scenario.
fn scenario(p: &Parsed) -> Result<Option<&str>, Error> {
    match p.str("--scenario") {
        Some(n) if !TRACE_SCENARIOS.contains(&n) => Err(Error::Usage(format!("--scenario: unknown scenario {n:?}"))),
        n => Ok(n),
    }
}

/// `trace`: print (or write) a scenario's JSONL timeline, optionally
/// filtered; `--chains` renders reconstructed recovery chains instead.
fn cmd_trace(p: &Parsed) -> Result<(), Error> {
    let name = scenario(p)?.ok_or_else(|| Error::Usage("--scenario is required".into()))?;
    let member = p.opt("--member", int::<u64, _>(..))?;
    let run = run_traced(name).expect("name pre-validated");
    let tl = run.timeline.filter(member, p.str("--adu"), p.str("--fault"));
    let text = if p.on("--chains") {
        let mut s = String::new();
        for c in tl.chains() {
            s.push_str(&c.render());
            s.push('\n');
        }
        s
    } else {
        tl.to_jsonl()
    };
    match p.str("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path} ({} events)", tl.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `report`: print counter/histogram summary tables for one scenario (or,
/// with no `--scenario`, all of them).
fn cmd_report(p: &Parsed) -> Result<(), Error> {
    let names = match scenario(p)? {
        Some(n) => vec![n],
        None => TRACE_SCENARIOS.to_vec(),
    };
    for name in names {
        let run = run_traced(name).expect("name pre-validated");
        println!("{}", run.summary.render(name));
    }
    Ok(())
}

/// `monitor`: validate and aggregate the wall-clock transport's JSONL
/// streams — `srm-node monitor --out` files and `--stats-file` snapshots —
/// into one report.  With `--validate`, any schema violation exits 1 (the
/// CI hook for the snapshot formats).
fn cmd_monitor(p: &Parsed) -> Result<(), Error> {
    let monitor_path = p.str("--monitor");
    let stats_paths = p.all("--stats");
    let validate = p.on("--validate");
    if monitor_path.is_none() && stats_paths.is_empty() {
        return Err(Error::Usage("monitor needs --monitor FILE and/or --stats FILE".into()));
    }
    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("could not read {path}: {e}");
            std::process::exit(1);
        })
    };
    let mut failed = false;
    let monitor = monitor_path.map(|p| {
        monitor_cmd::digest_monitor(&read(p)).unwrap_or_else(|e| {
            eprintln!("{p}: {e}");
            std::process::exit(1);
        })
    });
    let mut stats = Vec::new();
    for path in stats_paths {
        match monitor_cmd::digest_stats(&read(path)) {
            Ok(d) => {
                if validate && !d.non_monotone.is_empty() {
                    eprintln!("{path}: counters regressed: {}", d.non_monotone.join(","));
                    failed = true;
                }
                stats.push((path.clone(), d));
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }
    print!("{}", monitor_cmd::render(monitor.as_ref(), &stats));
    if validate && !failed {
        eprintln!("monitor: all files valid");
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// The figures: run each named one (all when none is named), print its
/// tables and write them under `--out`; a table that cannot be written
/// fails the run with exit 1 after every figure has run.
fn cmd_figures(p: &Parsed) -> Result<(), Error> {
    let threads = p.opt("--threads", int(..))?;
    let opts = RunOpts { quick: p.on("--quick"), threads: threads.unwrap_or(RunOpts::default().threads) };
    let mut figures: Vec<&str> = Vec::new();
    for name in p.all("FIGURE") {
        match name.as_str() {
            "all" => figures.extend(FIGURES),
            f if f == "list" || FIGURES.contains(&f) => figures.push(f),
            other => return Err(Error::Usage(format!("unknown figure {other:?}"))),
        }
    }
    if figures.contains(&"list") {
        for f in FIGURES {
            println!("{f}");
        }
        return Ok(());
    }
    if figures.is_empty() {
        figures.extend(FIGURES);
    }
    figures.dedup();

    let out_dir = p.str("--out").map(Path::new);
    let mut unwritten = 0;
    for &fig in &figures {
        let t0 = Instant::now();
        eprintln!("--- running {fig}{} ---", if opts.quick { " (quick)" } else { "" });
        let tables = run_figure(fig, &opts).expect("figure name pre-validated");
        for (i, t) in tables.iter().enumerate() {
            println!("{}", t.render());
            if let Some(dir) = out_dir {
                let name = if tables.len() == 1 {
                    fig.to_string()
                } else {
                    format!("{fig}_{}", (b'a' + i as u8) as char)
                };
                if let Err(e) = t.write_csv(dir, &name) {
                    eprintln!("error: could not write {name}.csv: {e}");
                    unwritten += 1;
                }
            }
        }
        eprintln!("--- {fig} done in {:.1}s ---", t0.elapsed().as_secs_f64());
    }
    if unwritten > 0 {
        eprintln!("srm-experiments: {unwritten} table(s) could not be written");
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    CLI.run(|p| match p.command() {
        "trace" => cmd_trace(p),
        "report" => cmd_report(p),
        "monitor" => cmd_monitor(p),
        _ => cmd_figures(p),
    })
}
