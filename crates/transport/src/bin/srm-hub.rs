//! `srm-hub` — host many SRM sessions in one process over one socket.
//!
//! ```text
//! srm-hub --bind 127.0.0.1:7500 --control 127.0.0.1:7600 --shards 4
//! echo '{"cmd":"create","group":1,"peers":["127.0.0.1:7401"]}' | srm-hub --bind 127.0.0.1:7500
//! ```
//!
//! The hub binds one UDP socket and demultiplexes inbound frames by group
//! id onto a fixed pool of reactors (the ones `srm-node` runs one of), each
//! hosting many SRM agents —
//! the paper's light-weight sessions (§I) made literal: adding a session
//! adds an agent, a timer wheel, and an RNG, never a socket or a thread.
//!
//! Control is line-JSON (see `srm_transport::control`): one command per
//! line on **stdin** and/or a local **TCP listener** (`--control`), one
//! reply line each. `bash` can drive the TCP surface with `/dev/tcp`
//! redirection — no client required:
//!
//! ```text
//! exec 3<>/dev/tcp/127.0.0.1/7600
//! echo '{"cmd":"create","group":3,"peers":["127.0.0.1:7401"],"rate":65536}' >&3
//! read -r reply <&3
//! ```
//!
//! `{"cmd":"stop"}` drains every group (final session message, WAL flush)
//! and exits the process; `--duration` bounds the run for scripts.

use obs::flags::{addr, int, positive_secs, secs, Cli, Command, Error, Flag, Parsed};
use srm_transport::control::serve;
use srm_transport::hub::{Hub, HubOptions};
use srm_transport::StatsSink;
use std::io::BufReader;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HUB: &[Flag] = &[
    Flag::value("--bind", "ADDR", "the shared UDP socket every hosted group sends and receives on (required)"),
    Flag::value("--control", "ADDR", "local TCP address for the line-JSON control plane; stdin always accepts it too"),
    Flag::value("--shards", "N", "shard reactor threads, 1..=64; groups hash onto them").default("4"),
    Flag::value("--seed", "N", "hub seed; each group's RNG derives from it").default("1"),
    Flag::value("--store", "DIR", "durable ADU stores: group G logs under DIR/G/"),
    Flag::value("--stats-file", "FILE", "append a metrics-snapshot JSONL line to FILE every --stats-interval"),
    Flag::value("--stats-interval", "SECS", "seconds between snapshots").default("1"),
    Flag::value("--duration", "SECS", "exit after this long (default: run until stop)"),
    Flag::switch("--quiet", "do not echo control replies to stderr"),
];

static CLI: Cli = Cli {
    bin: "srm-hub",
    commands: &[Command { name: "", about: "host many SRM sessions in one process over one socket", flags: HUB }],
    footer: || {
        "\
commands (one JSON object per line, one reply line each):
  {\"cmd\":\"create\",\"group\":G,\"peers\":[\"IP:PORT\",..],\"id\":N,\"members\":N,
   \"rate\":BYTES_PER_SEC,\"burst\":BYTES,\"dist_ms\":MS}
  {\"cmd\":\"join\", ...}    idempotent create
  {\"cmd\":\"send\",\"group\":G,\"text\":\"...\",\"count\":N}
  {\"cmd\":\"drain\",\"group\":G}
  {\"cmd\":\"stats\"}
  {\"cmd\":\"stop\"}         drain all groups and exit"
            .into()
    },
};

/// A runtime failure: say so and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("srm-hub: {msg}");
    std::process::exit(1);
}

fn main() {
    CLI.run(run)
}

fn run(p: &Parsed) -> Result<(), Error> {
    let bind = p.get("--bind", addr)?;
    let control = p.opt("--control", addr)?;
    let stats_file = p.str("--stats-file");
    let stats_interval = p.get("--stats-interval", positive_secs)?;
    let duration = p.opt("--duration", secs)?;
    let quiet = p.on("--quiet");
    let registry = stats_file.is_some().then(obs::MetricsRegistry::new);
    let opts = HubOptions {
        shards: p.get("--shards", int(1..=64))?,
        seed: p.get("--seed", int(..))?,
        metrics: registry.clone(),
        store_root: p.str("--store").map(PathBuf::from),
    };

    let hub = Hub::spawn(bind, opts).unwrap_or_else(|e| fail(&format!("cannot start on {bind}: {e}")));
    eprintln!(
        "srm-hub: {} shards on {}{}",
        hub.shards(),
        hub.local_addr(),
        match control {
            Some(c) => format!(", control on {c}"),
            None => ", control on stdin".to_string(),
        }
    );

    let quit = Arc::new(AtomicBool::new(false));

    let stats = registry.map(|reg| {
        let path = stats_file.expect("a registry means --stats-file");
        let interval = Duration::from_secs_f64(stats_interval);
        StatsSink::start(Path::new(path), reg, interval).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    });

    // TCP control surface: non-blocking accept loop so it can notice quit;
    // each connection gets its own serving thread.
    let tcp_thread = control.map(|addr| {
        let listener = TcpListener::bind(addr)
            .unwrap_or_else(|e| fail(&format!("cannot bind control {addr}: {e}")));
        listener
            .set_nonblocking(true)
            .expect("nonblocking accept is settable");
        let hub = hub.clone();
        let quit = Arc::clone(&quit);
        std::thread::spawn(move || {
            while !quit.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let hub = hub.clone();
                        let quit = Arc::clone(&quit);
                        std::thread::spawn(move || {
                            if let Ok(mut writer) = stream.try_clone() {
                                serve(&hub, BufReader::new(stream), &mut writer, &quit, quiet);
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(50)),
                }
            }
        })
    });

    // Stdin control surface. EOF does NOT quit (scripts often run the hub
    // with stdin closed); only `stop`, `--duration`, or a signal end it.
    {
        let hub = hub.clone();
        let quit = Arc::clone(&quit);
        std::thread::spawn(move || {
            serve(&hub, std::io::stdin().lock(), &mut std::io::stdout(), &quit, quiet)
        });
    }

    let deadline = duration.map(|d| Instant::now() + Duration::from_secs_f64(d));
    while !quit.load(Ordering::Relaxed) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Orderly exit: drain every still-hosted group (stop already did this;
    // drains are idempotent on an empty hub), then join the threads.
    hub.drain_all();
    let st = hub.stats();
    hub.shutdown();
    if let Some(t) = tcp_thread {
        quit.store(true, Ordering::Relaxed);
        let _ = t.join();
    }
    if let Some(sink) = stats {
        sink.finish();
    }
    let counts: Vec<String> = st.counters().iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!("srm-hub: done — groups_drained={} {}", hub.groups_drained(), counts.join(" "));
    Ok(())
}
