//! `srm-node` — run one SRM session member over live UDP sockets.
//!
//! ```text
//! srm-node join --id 2 --bind 127.0.0.1:7402 --peers 127.0.0.1:7401,127.0.0.1:7403
//! srm-node send --id 1 --bind 127.0.0.1:7401 --peers ... --text "draw a blue line"
//! srm-node join --id 3 --bind 0.0.0.0:7400 --mcast 239.66.66.0:7400
//! srm-node soak --nodes 4 --secs 6 --chaos "loss=0.15,burst=0.9@1s+2s"
//! ```
//!
//! `join` participates (receives, answers requests, repairs); `send`
//! additionally multicasts each `--text` as one ADU. Both run for
//! `--duration` seconds, print delivered ADUs, and with `--trace FILE`
//! write the node's obs timeline as JSONL. `--chaos SPEC` applies a
//! scripted chaos plan to the node's send path; `--chaos drop=data:0`
//! forces the loss of its first DATA frame, to watch SRM repair it.
//!
//! `monitor` joins the group **read-only**: it never sends a frame, and
//! reconstructs per-member health — highest-seq lag, RTT from timestamp
//! echoes, alive/suspect/dead, loss — purely from the session messages it
//! receives (Section III-A is the observability substrate). On a unicast
//! mesh the senders must list the monitor's address among their `--peers`;
//! with `--mcast` it simply joins the group address.
//!
//! `soak` runs the whole chaos-soak harness in-process: a 3–5 node
//! loopback mesh under a scripted chaos plan, asserting eventual delivery
//! after heal, zero reactor deaths, bounded queue growth, and full frame
//! accounting. Exit status 1 means an invariant was violated.
//!
//! ## Output files survive interruption
//!
//! std-only Rust has no signal handling, so instead of buffering output
//! until a clean exit, every sink is **incremental**: `--stats-file` lines
//! are flushed per interval, `--trace` chunks are drained from the reactor
//! and appended roughly once a second, and `monitor --out` flushes per
//! refresh. Killing the process (SIGINT included) loses at most the last
//! partial interval. For an *orderly* early exit, type `quit` on stdin:
//! the node leaves the session before `--duration`, drains every sink,
//! and flushes the WAL, losing nothing at all.
//!
//! ## Durability
//!
//! `--store DIR` appends every ADU this node holds to a CRC-framed
//! write-ahead log under DIR and replays it on the next start, so a
//! killed member restarts repair-capable instead of blank. Repairs for
//! payloads evicted from the in-memory cache (`--store-cache`) are
//! served from the log.

use bytes::Bytes;
use netsim::GroupId;
use obs::flags::{addr, int, positive_secs, secs, Cli, Command, Error, Flag, Parsed};
use srm_transport::{
    Envelope, GroupMonitor, Mode, Node, NodeOptions, SoakOptions, StatsSink, StoreOptions,
    WallClock,
};
use srm::{LivenessConfig, PageId, SourceId, SrmConfig};
use std::io::Write as _;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODE: &[Flag] = &[
    Flag::value("--id", "N", "this member's source id, a unique small integer (required)"),
    Flag::value("--bind", "ADDR", "local socket address, e.g. 127.0.0.1:7401 (required)"),
    Flag::value("--peers", "A,B,..", "comma-separated peer addresses: unicast mesh mode"),
    Flag::value("--mcast", "ADDR", "base multicast group address, e.g. 239.66.66.0:7400"),
    Flag::value("--group", "N", "SRM group id").default("1"),
    Flag::value("--members", "N", "expected session size, sets timer constants").default("3"),
    Flag::repeat("--text", "STRING", "send: multicast STRING as one ADU"),
    Flag::value("--duration", "SECS", "seconds to stay in the session").default("10"),
    Flag::value("--trace", "FILE", "write the obs timeline to FILE as JSONL, drained about once a second"),
    Flag::value("--seed", "N", "timer and chaos RNG seed (default derived from --id)"),
    Flag::value("--chaos", "SPEC", "scripted chaos, e.g. loss=0.1,dup=0.05,reorder=0.2:40ms,burst=0.9@1s+2s,\
                                    blackhole=2@1s+3s (peers 1-based into --peers); drop=data:N drops the Nth \
                                    (0-based) outgoing DATA frame"),
    Flag::value("--stats-file", "FILE", "append a metrics-snapshot JSONL line to FILE every --stats-interval"),
    Flag::value("--stats-interval", "SECS", "seconds between metric snapshots").default("1"),
    Flag::value("--store", "DIR", "log every ADU to a write-ahead log under DIR and rehydrate it on restart"),
    Flag::value("--fsync", "POLICY", "WAL fsync policy: always, never or every=N (default every=8)"),
    Flag::value("--store-cache", "N", "keep at most N payloads per stream in RAM, serve older repairs from the log"),
    Flag::value("--snapshot-every", "N", "compact the log every N appends (0 = never)"),
    Flag::switch("--quiet", "do not print delivered ADUs"),
];

const MONITOR: &[Flag] = &[
    Flag::value("--bind", "ADDR", "local socket address (required)"),
    Flag::value("--mcast", "ADDR", "base multicast group address to join"),
    Flag::value("--group", "N", "SRM group id").default("1"),
    Flag::value("--duration", "SECS", "seconds to observe, 0 = until killed").default("0"),
    Flag::value("--refresh", "SECS", "render the health table (and append an --out line) every SECS").default("1"),
    Flag::value("--out", "FILE", "append one monitor JSONL line per refresh to FILE"),
    Flag::switch("--quiet", "do not print the health table"),
];

const SOAK: &[Flag] = &[
    Flag::value("--nodes", "N", "mesh size, 2..=16").default("3"),
    Flag::value("--secs", "SECS", "scripted phase seconds, at least 0.1").default("6"),
    Flag::value("--adus", "N", "ADUs each member publishes").default("4"),
    Flag::value("--chaos", "SPEC", "scripted chaos spec, as for join"),
    Flag::value("--seed", "N", "base seed").default("1"),
    Flag::value("--settle", "SECS", "post-heal recovery budget in seconds").default("30"),
    Flag::value("--group", "N", "multicast group the mesh runs on").default("1"),
    Flag::value("--trace", "FILE", "write the soak's obs timeline to FILE as JSONL"),
];

static CLI: Cli = Cli {
    bin: "srm-node",
    commands: &[
        Command {
            name: "join|send",
            about: "join: receive, request and repair; send: also multicast each --text. Needs --peers or --mcast.",
            flags: NODE,
        },
        Command {
            name: "monitor",
            about: "observe the group passively: per-member health from its session messages, never a frame sent",
            flags: MONITOR,
        },
        Command {
            name: "soak",
            about: "run an in-process multi-node chaos soak and report its invariants (exit 1 if one breaks)",
            flags: SOAK,
        },
    ],
    footer: || {
        "Typing `quit` on stdin leaves the session early but cleanly: sinks drain and the WAL\n\
         flushes before exit. A monitored member is suspect after 3 nominal session intervals\n\
         of silence, dead after 8."
            .into()
    },
};

/// A runtime failure: say so and exit 1.
fn fail(msg: &str) -> ! {
    eprintln!("srm-node: {msg}");
    std::process::exit(1);
}

fn usage(msg: &str) -> Error {
    Error::Usage(msg.into())
}

/// `--mcast`, an IPv4 group address.
fn mcast(p: &Parsed) -> Result<Option<SocketAddrV4>, Error> {
    match p.opt("--mcast", addr)? {
        Some(SocketAddr::V6(_)) => Err(usage("--mcast must be an IPv4 group address")),
        Some(SocketAddr::V4(base)) => Ok(Some(base)),
        None => Ok(None),
    }
}

/// `--peers` xor `--mcast`, as the runtime's [`Mode`].
fn mode(p: &Parsed) -> Result<Mode, Error> {
    let peers = p.opt("--peers", |s| s.split(',').map(|a| addr(a.trim())).collect())?;
    match (peers, mcast(p)?) {
        (Some(peers), None) => Ok(Mode::Mesh { peers }),
        (None, Some(base)) => Ok(Mode::Multicast { base }),
        (Some(_), Some(_)) => Err(usage("--peers and --mcast are mutually exclusive")),
        (None, None) => Err(usage("one of --peers or --mcast is required")),
    }
}

/// The `--store` family; the tuning flags need `--store`.
fn store(p: &Parsed) -> Result<Option<StoreOptions>, Error> {
    let fsync = p.opt("--fsync", srm_store::FsyncPolicy::parse)?;
    let cache = p.opt("--store-cache", int(1usize..))?;
    let snapshot_every = p.opt("--snapshot-every", int::<u64, _>(..))?;
    let Some(dir) = p.str("--store") else {
        if fsync.is_some() || cache.is_some() || snapshot_every.is_some() {
            return Err(usage("--fsync/--store-cache/--snapshot-every require --store DIR"));
        }
        return Ok(None);
    };
    let mut so = StoreOptions::new(dir);
    if let Some(f) = fsync {
        so.config.fsync = f;
    }
    if let Some(n) = snapshot_every {
        // 0 disables snapshot-triggered compaction entirely.
        so.config.snapshot_every = (n > 0).then_some(n);
    }
    so.cache_per_stream = cache;
    Ok(Some(so))
}

/// Open `path` truncated for incremental appends, or fail.
fn create_sink(path: &str) -> std::fs::File {
    std::fs::File::create(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

/// Run the passive observer: receive, decode, feed the [`GroupMonitor`],
/// never send.  Exits 0 after `--duration` seconds (0 = run until killed).
fn run_monitor(p: &Parsed) -> Result<(), Error> {
    let bind = p.get("--bind", addr)?;
    let mcast = mcast(p)?;
    let group: u32 = p.get("--group", int(..))?;
    let duration = p.get("--duration", secs)?;
    let refresh = p.get("--refresh", positive_secs)?;
    let quiet = p.on("--quiet");
    let socket = UdpSocket::bind(bind).unwrap_or_else(|e| fail(&format!("cannot bind {bind}: {e}")));
    if let Some(base) = mcast {
        // Same group-id → group-address mapping the runtime uses.
        let ip = Ipv4Addr::from(u32::from(*base.ip()).wrapping_add(group));
        socket
            .join_multicast_v4(&ip, &Ipv4Addr::UNSPECIFIED)
            .unwrap_or_else(|e| fail(&format!("cannot join {ip}: {e}")));
    }
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout is settable");

    let clock = WallClock::new();
    let mut mon = GroupMonitor::new(LivenessConfig::default());
    let mut out = p.str("--out").map(create_sink);
    eprintln!(
        "srm-node: monitor on {bind} (group {group}), refresh {refresh:.1}s{}",
        if duration > 0.0 { format!(", running {duration:.1}s") } else { String::new() }
    );

    let started = Instant::now();
    let mut next_refresh = started + Duration::from_secs_f64(refresh);
    let mut buf = [0u8; 65_535];
    let mut decode_errors = 0u64;
    loop {
        match socket.recv_from(&mut buf) {
            Ok((n, _)) => match Envelope::decode(&buf[..n]) {
                Ok(env) if env.group == group => {
                    match srm::Message::decode(env.payload.clone()) {
                        Ok(msg) => {
                            if let Some(tr) = mon.observe(clock.now(), &msg) {
                                eprintln!("srm-node: monitor: m{} revived", tr.peer.0);
                            }
                        }
                        Err(_) => decode_errors += 1,
                    }
                }
                Ok(_) => {} // another group's traffic, not ours to judge
                Err(_) => decode_errors += 1,
            },
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => fail(&format!("recv: {e}")),
        }
        if Instant::now() >= next_refresh {
            next_refresh += Duration::from_secs_f64(refresh);
            let now = clock.now();
            for tr in mon.sweep(now) {
                let state = match tr.to {
                    srm::PeerState::Alive => "alive",
                    srm::PeerState::Suspect => "suspect",
                    srm::PeerState::Dead => "dead",
                };
                eprintln!("srm-node: monitor: m{} -> {state}", tr.peer.0);
            }
            if !quiet {
                print!("{}", mon.render_table(now));
            }
            if let Some(f) = &mut out {
                // Append-and-flush per refresh so a kill loses at most one
                // interval.
                let line = mon.to_json_line(now);
                if writeln!(f, "{line}").and_then(|()| f.flush()).is_err() {
                    fail("monitor --out: write failed");
                }
            }
        }
        if duration > 0.0 && started.elapsed() >= Duration::from_secs_f64(duration) {
            break;
        }
    }
    if decode_errors > 0 {
        eprintln!("srm-node: monitor: {decode_errors} undecodable datagram(s) ignored");
    }
    Ok(())
}

/// Run the soak harness, print the report, and exit (status 1 on any
/// invariant violation).
fn run_soak(p: &Parsed) -> Result<(), Error> {
    let defaults = SoakOptions::default();
    let opts = SoakOptions {
        nodes: p.get("--nodes", int(2..=16))?,
        duration: Duration::from_secs_f64(p.get("--secs", |s| match secs(s)? {
            v if v >= 0.1 => Ok(v),
            _ => Err(format!("must be at least 0.1, got {s}")),
        })?),
        adus_per_node: p.get("--adus", int(..))?,
        chaos: p.str("--chaos").map_or(defaults.chaos, String::from),
        seed: p.get("--seed", int(..))?,
        settle: Duration::from_secs_f64(p.get("--settle", secs)?),
        trace: p.on("--trace"),
        group: p.get("--group", int(..))?,
        liveness: defaults.liveness,
    };
    let trace_path = p.str("--trace");
    eprintln!(
        "srm-node: soak — {} nodes, {:.1}s scripted, chaos `{}`, seed {}",
        opts.nodes,
        opts.duration.as_secs_f64(),
        opts.chaos,
        opts.seed
    );
    let report = srm_transport::soak::run(&opts).unwrap_or_else(|e| fail(&format!("soak failed to run: {e}")));
    print!("{}", report.render());
    print!("{}", report.summary.render("chaos soak"));
    if let (Some(path), Some(tl)) = (trace_path, &report.timeline) {
        std::fs::write(path, tl.to_jsonl()).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
        eprintln!("srm-node: trace: wrote {} events to {path}", tl.len());
    }
    std::process::exit(if report.violations().is_empty() { 0 } else { 1 });
}

/// `join`/`send`: run one member for `--duration` seconds.
fn run_node(p: &Parsed) -> Result<(), Error> {
    let send_mode = p.command() == "send";
    // The envelope carries a member id in 32 bits.
    let id = p.get("--id", int(..=u64::from(u32::MAX)))?;
    let bind = p.get("--bind", addr)?;
    let mode = mode(p)?;
    let group = p.get("--group", int(..))?;
    let texts = p.all("--text");
    if send_mode && texts.is_empty() {
        return Err(usage("send needs at least one --text"));
    }
    let duration = p.get("--duration", secs)?;
    let trace = p.str("--trace");
    let stats_file = p.str("--stats-file");
    let stats_interval = p.get("--stats-interval", positive_secs)?;
    let quiet = p.on("--quiet");

    let source = SourceId(id);
    let mut opts = NodeOptions::new(source, GroupId(group), SrmConfig::fixed(p.get("--members", int(..))?));
    opts.trace = trace.is_some();
    let registry = stats_file.is_some().then(obs::MetricsRegistry::new);
    opts.metrics = registry.clone();
    if let Some(s) = p.opt("--seed", int(..))? {
        opts.seed = s;
    }
    if let Some(spec) = p.str("--chaos") {
        let peers = match &mode {
            Mode::Mesh { peers } => peers.clone(),
            Mode::Multicast { .. } => Vec::new(),
        };
        let plan = srm_transport::parse_spec(spec, &peers).map_err(|e| usage(&format!("--chaos: {e}")))?;
        opts.chaos = Some(plan);
        // Chaos without liveness tracking hides half the story.
        opts.liveness = Some(srm::LivenessConfig::default());
    }
    opts.store = store(p)?;

    let node = Node::spawn(bind, mode, opts).unwrap_or_else(|e| fail(&format!("cannot start on {bind}: {e}")));
    eprintln!("srm-node: member {id} on {bind} (group {group}), running {duration:.1}s");

    if send_mode {
        let page = PageId::new(source, 0);
        for t in texts {
            let name = node.send_data(page, Bytes::from(t.clone().into_bytes()));
            eprintln!("srm-node: sent {name}");
        }
    }

    let stats = registry.map(|reg| {
        let path = stats_file.expect("a registry means --stats-file");
        let interval = Duration::from_secs_f64(stats_interval);
        StatsSink::start(Path::new(path), reg, interval).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
    });

    let mut trace_sink = trace.map(create_sink);
    let mut trace_events = 0usize;
    // Drain the reactor's trace rings into the file roughly once a second.
    let drain_trace = |node: &srm_transport::NodeHandle,
                           sink: &mut Option<std::fs::File>,
                           total: &mut usize| {
        let Some(f) = sink.as_mut() else { return };
        let (member, events, transport) =
            node.exec(|a, _| (a.id.0, a.obs.take_events(), a.transport_obs.take_events()));
        let mut tl = obs::Timeline::new();
        tl.add_member(member, events);
        tl.add_transport(member, transport);
        if tl.is_empty() {
            return;
        }
        *total += tl.len();
        if write!(f, "{}", tl.to_jsonl()).and_then(|()| f.flush()).is_err() {
            eprintln!("srm-node: trace write failed");
        }
    };

    // `quit` on stdin requests an orderly early exit: the main loop ends,
    // sinks drain, and shutdown flushes the WAL — nothing is lost. EOF
    // alone does NOT quit (scripts often run nodes with stdin closed), so
    // the reader thread just parks until the process exits.
    let quit = Arc::new(AtomicBool::new(false));
    {
        let quit = Arc::clone(&quit);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match stdin.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let cmd = line.trim();
                        if cmd.eq_ignore_ascii_case("quit") || cmd.eq_ignore_ascii_case("q") {
                            quit.store(true, Ordering::Relaxed);
                            return;
                        }
                        if !cmd.is_empty() {
                            eprintln!("srm-node: unknown stdin command {cmd:?} (try `quit`)");
                        }
                    }
                }
            }
        });
    }

    let deadline = Instant::now() + Duration::from_secs_f64(duration);
    let mut next_drain = Instant::now() + Duration::from_secs(1);
    // Joiners follow the first page they see (the whiteboard model): their
    // session messages then report that page's state, which both drives
    // the group's gap detection and gives a passive monitor its lag signal.
    let mut following = send_mode;
    while Instant::now() < deadline && !quit.load(Ordering::Relaxed) {
        for d in node.take_delivered() {
            if !following {
                following = true;
                let page = d.name.page;
                node.exec(move |a, _| a.set_current_page(page));
            }
            if !quiet {
                let text = String::from_utf8_lossy(&d.payload);
                let how = if d.via_repair { "repair" } else { "data" };
                println!("{} [{how}] {text}", d.name);
            }
        }
        if Instant::now() >= next_drain {
            next_drain += Duration::from_secs(1);
            drain_trace(&node, &mut trace_sink, &mut trace_events);
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    if quit.load(Ordering::Relaxed) {
        eprintln!("srm-node: quit — leaving the session cleanly");
    }
    // Final trace drain while the reactor still answers exec.
    drain_trace(&node, &mut trace_sink, &mut trace_events);
    let mut agent = node.shutdown();
    let counts: Vec<String> = agent.metrics.counters().iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!("srm-node: done — {}", counts.join(" "));
    if let Some(ps) = agent.store().persistence_stats() {
        eprintln!(
            "srm-node: store — appends={} bytes={} fsyncs={} snapshots={} disk_reads={} segments={} live={}",
            ps.appends, ps.bytes_appended, ps.fsyncs, ps.snapshots, ps.reads, ps.segments, ps.live_records
        );
    }
    if let Some(f) = &mut trace_sink {
        // Whatever accumulated between the last drain and shutdown.
        let tl = srm::harvest_timeline([&mut agent], Vec::new());
        trace_events += tl.len();
        if write!(f, "{}", tl.to_jsonl()).and_then(|()| f.flush()).is_err() {
            eprintln!("srm-node: trace write failed");
            std::process::exit(1);
        }
        eprintln!(
            "srm-node: trace: wrote {} events to {}",
            trace_events,
            trace.unwrap_or("-")
        );
    }
    if let Some(sink) = stats {
        sink.finish();
        eprintln!("srm-node: stats: final snapshot flushed");
    }
    Ok(())
}

fn main() {
    CLI.run(|p| match p.command() {
        "monitor" => run_monitor(p),
        "soak" => run_soak(p),
        _ => run_node(p),
    })
}
