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

use srm_transport::control::serve;
use srm_transport::hub::{Hub, HubOptions};
use srm_transport::StatsSink;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: srm-hub --bind ADDR [--control ADDR] [--shards N] [--seed N]
               [--store DIR]
               [--stats-file FILE] [--stats-interval F]
               [--duration SECS] [--quiet]

  --bind A          the shared UDP socket every hosted group sends and
                    receives on (required)
  --control A       local TCP address for the line-JSON control plane;
                    stdin always accepts the same commands
  --shards N        shard reactor threads; groups hash onto them (default 4)
  --seed N          hub seed; each group's RNG derives from it (default 1)
  --store DIR       durable ADU stores: group G logs under DIR/G/
  --stats-file F    append a metrics-snapshot JSONL line to F every
                    --stats-interval seconds (flushed per line)
  --stats-interval  seconds between snapshots (default 1)
  --duration SECS   exit after this long (default: run until stop/EOF)
  --quiet           do not echo control replies to stderr

commands (one JSON object per line, one reply line each):
  {\"cmd\":\"create\",\"group\":G,\"peers\":[\"IP:PORT\",..],\"id\":N,\"members\":N,
   \"rate\":BYTES_PER_SEC,\"burst\":BYTES,\"dist_ms\":MS}
  {\"cmd\":\"join\", ...}    idempotent create
  {\"cmd\":\"send\",\"group\":G,\"text\":\"...\",\"count\":N}
  {\"cmd\":\"drain\",\"group\":G}
  {\"cmd\":\"stats\"}
  {\"cmd\":\"stop\"}         drain all groups and exit";

fn die(msg: &str) -> ! {
    eprintln!("srm-hub: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

struct Args {
    bind: SocketAddr,
    control: Option<SocketAddr>,
    shards: usize,
    seed: u64,
    store: Option<PathBuf>,
    stats_file: Option<String>,
    stats_interval: f64,
    duration: Option<f64>,
    quiet: bool,
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let mut bind = None;
    let mut control = None;
    let mut shards = 4usize;
    let mut seed = 1u64;
    let mut store = None;
    let mut stats_file = None;
    let mut stats_interval = 1.0f64;
    let mut duration = None;
    let mut quiet = false;
    let next = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        argv.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--bind" => {
                bind = Some(
                    next(&mut argv, "--bind")
                        .parse()
                        .unwrap_or_else(|_| die("--bind must be host:port")),
                )
            }
            "--control" => {
                control = Some(
                    next(&mut argv, "--control")
                        .parse()
                        .unwrap_or_else(|_| die("--control must be host:port")),
                )
            }
            "--shards" => {
                let n: usize = next(&mut argv, "--shards")
                    .parse()
                    .unwrap_or_else(|_| die("--shards must be an integer"));
                if !(1..=64).contains(&n) {
                    die("--shards must be in 1..=64");
                }
                shards = n;
            }
            "--seed" => {
                seed = next(&mut argv, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed must be an integer"))
            }
            "--store" => store = Some(PathBuf::from(next(&mut argv, "--store"))),
            "--stats-file" => stats_file = Some(next(&mut argv, "--stats-file")),
            "--stats-interval" => {
                stats_interval = next(&mut argv, "--stats-interval")
                    .parse()
                    .unwrap_or_else(|_| die("--stats-interval must be seconds"));
                if stats_interval <= 0.0 {
                    die("--stats-interval must be positive");
                }
            }
            "--duration" => {
                duration = Some(
                    next(&mut argv, "--duration")
                        .parse()
                        .unwrap_or_else(|_| die("--duration must be seconds")),
                )
            }
            "--quiet" => quiet = true,
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        bind: bind.unwrap_or_else(|| die("--bind is required")),
        control,
        shards,
        seed,
        store,
        stats_file,
        stats_interval,
        duration,
        quiet,
    }
}

fn main() {
    let args = parse_args();
    let registry = args.stats_file.is_some().then(obs::MetricsRegistry::new);
    let opts = HubOptions {
        shards: args.shards,
        seed: args.seed,
        metrics: registry.clone(),
        store_root: args.store.clone(),
    };

    let hub = match Hub::spawn(args.bind, opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("srm-hub: cannot start on {}: {e}", args.bind);
            std::process::exit(1);
        }
    };
    eprintln!(
        "srm-hub: {} shards on {}{}",
        hub.shards(),
        hub.local_addr(),
        match args.control {
            Some(c) => format!(", control on {c}"),
            None => ", control on stdin".to_string(),
        }
    );

    let quit = Arc::new(AtomicBool::new(false));

    let stats = registry.map(|reg| {
        let path = args.stats_file.as_deref().expect("a registry means --stats-file");
        let interval = Duration::from_secs_f64(args.stats_interval);
        StatsSink::start(Path::new(path), reg, interval).unwrap_or_else(|e| die(&format!("{path}: {e}")))
    });

    // TCP control surface: non-blocking accept loop so it can notice quit;
    // each connection gets its own serving thread.
    let tcp_thread = args.control.map(|addr| {
        let listener = TcpListener::bind(addr)
            .unwrap_or_else(|e| die(&format!("cannot bind control {addr}: {e}")));
        listener
            .set_nonblocking(true)
            .expect("nonblocking accept is settable");
        let hub = hub.clone();
        let quit = Arc::clone(&quit);
        let quiet = args.quiet;
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
        let quiet = args.quiet;
        std::thread::spawn(move || {
            serve(&hub, std::io::stdin().lock(), &mut std::io::stdout(), &quit, quiet)
        });
    }

    let deadline = args
        .duration
        .map(|d| Instant::now() + Duration::from_secs_f64(d.max(0.0)));
    while !quit.load(Ordering::Relaxed) {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Orderly exit: drain every still-hosted group (stop already did this;
    // drains are idempotent on an empty hub), then join the threads.
    let drained = hub.drain_all();
    let st = hub.stats();
    hub.shutdown();
    if let Some(t) = tcp_thread {
        quit.store(true, Ordering::Relaxed);
        let _ = t.join();
    }
    if let Some(sink) = stats {
        sink.finish();
    }
    eprintln!(
        "srm-hub: done — groups_drained={} frames_attempted={} frames_sent={} send_errors={} \
         rx_frames={} unjoined={} overflow={}",
        drained.groups,
        st.frames_attempted,
        st.frames_sent,
        st.send_errors,
        st.rx_frames,
        st.rx_unjoined_group,
        st.inbound_overflow
    );
}
