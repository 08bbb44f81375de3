//! Layer replay: one thread calls each layer's public functions on the
//! kinds of frame the workloads put on the wire, and reports the self time
//! per call. Plus the two outside-timing probes whose numbers are printed
//! and never gated: control RPCs against a live hub, and hand-off latency
//! and saturation goodput of a bare loopback pair.
//!
//! Every figure is the median over a few batches of `batch time ÷ calls`,
//! and every batch is one span in the trace (a span per call would cost
//! more than most of the calls it wrapped).

use crate::live::{pair_probe, FrameMix};
use crate::stats::median;
use crate::tap::Kind;
use crate::trace::{Span, Trace};
use crate::Clock;
use bytes::Bytes;
use netsim::generators::bounded_degree_tree;
use netsim::{
    flow, GroupId, NodeId, Packet, PacketBody, PacketId, SendOptions, SimDuration, SimTime,
    Simulator, TimerId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srm::wire::Echo;
use srm::{
    AduName, AduStore, Body, DataBody, Header, Message, PageId, Persistence, RequestBody, SeqNo,
    SessionBody, SourceId, SrmAgent, SrmConfig,
};
use srm_store::{DirBackend, DurableStore, FsyncPolicy, MemBackend, StoreConfig};
use srm_transport::chaos::DelayQueue;
use srm_transport::envelope::HEADER_LEN;
use srm_transport::{
    handle_line, make_backend, BatchOptions, BufferPool, ChaosPlan, ChaosState, Envelope,
    GroupSpec, Hub, HubOptions, RecvFrame, SendFrame, TimerWheel,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::net::UdpSocket;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const GROUP: GroupId = GroupId(1);
const ONE_WAY: SimDuration = SimDuration::from_millis(crate::spec::ONE_WAY_MS);

fn page() -> PageId {
    PageId::new(SourceId(1), 0)
}

fn name(source: u64, seq: u64) -> AduName {
    AduName::new(SourceId(source), page(), SeqNo(seq))
}

fn payload(len: usize) -> Bytes {
    Bytes::from(vec![0xA5u8; len])
}

/// The batch runner: times closures, records one span per batch.
struct Replay<'a> {
    clock: Clock,
    spans: &'a mut Vec<Span>,
    batches: usize,
    /// Divides every batch size (`--smoke`).
    shrink: u64,
    next_id: usize,
}

impl Replay<'_> {
    /// Run `batches` batches of `calls` calls (scaled down by `shrink`, kept
    /// a multiple of `unit`). `f(calls)` makes the calls and returns the
    /// time spent inside each of the `N` measured parts (set-up it does
    /// outside those times is free). Returns the median ns per call of
    /// each part, and records one span per part per batch.
    fn bench_parts<const N: usize>(
        &mut self,
        names: [&str; N],
        calls: u64,
        unit: u64,
        mut f: impl FnMut(u64) -> [Duration; N],
    ) -> [f64; N] {
        let calls = (calls / self.shrink / unit).max(1) * unit;
        let mut per_call = vec![Vec::with_capacity(self.batches); N];
        for _ in 0..self.batches {
            let mut start = self.clock.now_ns();
            let spent = f(calls);
            for (i, (name, spent)) in names.iter().zip(spent).enumerate() {
                per_call[i].push(spent.as_nanos() as f64 / calls as f64);
                self.next_id += 1;
                let end = start + spent.as_nanos() as u64;
                self.spans.push(Span {
                    layer: name.split('.').next().unwrap_or(name).to_string(),
                    name: name.to_string(),
                    id: format!("replay/{}", self.next_id),
                    parent: Some("replay".into()),
                    start_ns: start,
                    end_ns: end,
                    calls,
                });
                start = end;
            }
        }
        std::array::from_fn(|i| median(&per_call[i]).unwrap_or(0.0))
    }

    /// [`Replay::bench_parts`] for a single measured part.
    fn bench(&mut self, name: &str, calls: u64, mut f: impl FnMut(u64) -> Duration) -> f64 {
        self.bench_parts([name], calls, 1, |n| [f(n)])[0]
    }
}

/// Time `calls` back-to-back calls of `f`.
fn timed(calls: u64, mut f: impl FnMut(u64)) -> Duration {
    let t = Instant::now();
    for i in 0..calls {
        f(i);
    }
    t.elapsed()
}

/// The benchmark-owned `Driver`: a manual clock, a real [`TimerWheel`], a
/// seeded RNG, and a sink that keeps the last multicast payload.
struct BenchDriver {
    now: SimTime,
    wheel: TimerWheel,
    rng: StdRng,
    sent: u64,
    last: Option<(Bytes, SendOptions)>,
}

impl BenchDriver {
    fn new() -> Self {
        BenchDriver {
            now: SimTime::from_secs(1),
            wheel: TimerWheel::new(),
            rng: StdRng::seed_from_u64(7),
            sent: 0,
            last: None,
        }
    }
}

impl srm::Clock for BenchDriver {
    fn now(&self) -> SimTime {
        self.now
    }
    fn local_now(&self) -> SimTime {
        self.now
    }
}

impl srm::Transport for BenchDriver {
    fn multicast(&mut self, _group: GroupId, payload: Bytes, opts: SendOptions) {
        self.sent += 1;
        self.last = Some((payload, opts));
    }
    fn join(&mut self, _group: GroupId) {}
    fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerId {
        self.wheel.arm(self.now + delay, token)
    }
    fn cancel_timer(&mut self, id: TimerId) {
        self.wheel.cancel(id);
    }
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

fn agent(id: u64) -> (SrmAgent, BenchDriver) {
    let mut a = SrmAgent::new(SourceId(id), GROUP, SrmConfig::fixed(4));
    a.session_enabled = false;
    for peer in (1..=4).filter(|p| *p != id) {
        a.distances_mut().set_distance(SourceId(peer), ONE_WAY);
    }
    let mut d = BenchDriver::new();
    a.drive_start(&mut d);
    (a, d)
}

/// Wrap an encoded message the way the runtime does on receipt.
fn packet(src: u64, seq: u64, flow: u32, wire: Bytes) -> Packet {
    Packet::new(
        254,
        PacketBody {
            id: PacketId(seq),
            src: NodeId(src as u32),
            group: GROUP,
            dest: None,
            initial_ttl: 255,
            admin_scoped: false,
            flow,
            size: (HEADER_LEN + wire.len()) as u32,
            payload: wire,
        },
    )
}

fn message(sender: u64, body: Body) -> Message {
    Message {
        header: Header {
            sender: SourceId(sender),
            timestamp: SimTime::from_secs(1),
        },
        body,
    }
}

fn data_msg(source: u64, seq: u64, len: usize, is_repair: bool) -> Message {
    message(
        source,
        Body::Data(DataBody {
            name: name(source, seq),
            is_repair,
            answering: is_repair.then_some(SourceId(3)),
            dist_to_requestor: 0.0,
            payload: payload(len),
        }),
    )
}

/// A session message from member 2 reporting `sources` streams, each with
/// `highest` as its last sequence number, and an echo per other member.
fn session_msg(sources: u64, highest: u64) -> Message {
    message(
        2,
        Body::Session(SessionBody {
            page: page(),
            state: (1..=sources)
                .map(|s| (SourceId(s), SeqNo(highest)))
                .collect(),
            echoes: (1..sources)
                .map(|s| Echo {
                    peer: SourceId(s),
                    their_ts: SimTime::from_secs(1),
                    delay: SimDuration::from_millis(3),
                })
                .collect(),
            loss_rate: 0.02,
            loss_fingerprint: Vec::new(),
        }),
    )
}

fn wire_layer(r: &mut Replay<'_>, m: &mut BTreeMap<&'static str, f64>) {
    let request = message(
        3,
        Body::Request(RequestBody {
            name: name(1, 42),
            dist_to_source: 0.005,
        }),
    );
    let cases: [(&'static str, &'static str, Option<&'static str>, Message); 5] = [
        (
            "wire.data64_encode_ns",
            "wire.data64_decode_ns",
            Some("wire.data64_bytes"),
            data_msg(1, 42, 64, false),
        ),
        (
            "wire.data1k_encode_ns",
            "wire.data1k_decode_ns",
            None,
            data_msg(1, 42, 1024, false),
        ),
        (
            "wire.session4_encode_ns",
            "wire.session4_decode_ns",
            Some("wire.session4_bytes"),
            session_msg(4, 1000),
        ),
        (
            "wire.session64_encode_ns",
            "wire.session64_decode_ns",
            Some("wire.session64_bytes"),
            session_msg(64, 1000),
        ),
        (
            "wire.request_encode_ns",
            "wire.request_decode_ns",
            Some("wire.request_bytes"),
            request,
        ),
    ];
    for (enc, dec, bytes, msg) in cases {
        let mut scratch = Vec::with_capacity(2048);
        let v = r.bench(enc.trim_end_matches("_ns"), 200_000, |n| {
            timed(n, |_| {
                scratch.clear();
                black_box(&msg).encode_into(&mut scratch);
                black_box(&scratch);
            })
        });
        m.insert(enc, v);
        let wire = msg.encode();
        let v = r.bench(dec.trim_end_matches("_ns"), 200_000, |n| {
            timed(n, |_| {
                black_box(Message::decode(black_box(wire.clone())).expect("own encoding decodes"));
            })
        });
        m.insert(dec, v);
        if let Some(b) = bytes {
            m.insert(b, wire.len() as f64);
        }
    }
}

fn envelope_layer(r: &mut Replay<'_>, m: &mut BTreeMap<&'static str, f64>) {
    let env = Envelope {
        src: 1,
        group: 1,
        ttl: 255,
        initial_ttl: 255,
        admin_scoped: false,
        flow: flow::DATA,
        payload: data_msg(1, 42, 64, false).encode(),
    };
    let mut scratch = Vec::with_capacity(2048);
    let v = r.bench("envelope.encode", 500_000, |n| {
        timed(n, |_| {
            scratch.clear();
            black_box(&env).encode_into(&mut scratch);
            black_box(&scratch);
        })
    });
    m.insert("envelope.encode_ns", v);
    let wire = env.encode();
    let v = r.bench("envelope.decode_view", 500_000, |n| {
        timed(n, |_| {
            black_box(Envelope::decode_view(black_box(&wire)).expect("own encoding decodes"));
        })
    });
    m.insert("envelope.decode_view_ns", v);
    let v = r.bench("envelope.precheck", 500_000, |n| {
        timed(n, |_| {
            black_box(Envelope::precheck(black_box(&wire)).expect("own encoding passes"));
        })
    });
    m.insert("envelope.precheck_ns", v);
    m.insert("envelope.overhead_bytes", HEADER_LEN as f64);
}

fn batch_and_pool(
    r: &mut Replay<'_>,
    m: &mut BTreeMap<&'static str, f64>,
    frame_bytes: usize,
) -> io::Result<()> {
    // A data frame of the size the workload's frames had on average.
    let overhead = HEADER_LEN + data_msg(1, 42, 0, false).encoded_len();
    let frame = Envelope {
        src: 1,
        group: 1,
        ttl: 255,
        initial_ttl: 255,
        admin_scoped: false,
        flow: flow::DATA,
        payload: data_msg(1, 42, frame_bytes.saturating_sub(overhead), false).encode(),
    }
    .encode();
    for (portable, send_name, recv_name) in [
        (
            false,
            "batch.mmsg_send_frame_ns",
            "batch.mmsg_recv_frame_ns",
        ),
        (
            true,
            "batch.portable_send_frame_ns",
            "batch.portable_recv_frame_ns",
        ),
    ] {
        let opts = BatchOptions {
            force_portable: portable,
            ..BatchOptions::default()
        };
        let rx_sock = UdpSocket::bind("127.0.0.1:0")?;
        rx_sock.set_read_timeout(Some(Duration::from_millis(50)))?;
        let dest = rx_sock.local_addr()?;
        let mut tx = make_backend(UdpSocket::bind("127.0.0.1:0")?, &opts);
        let mut rx = make_backend(rx_sock, &opts);
        let pool = BufferPool::new(64, 64 * 1024);
        let frames: Vec<SendFrame<'_>> =
            (0..32).map(|_| SendFrame { dest, data: &frame }).collect();
        let (mut results, mut got) = (Vec::new(), Vec::<RecvFrame>::new());
        // One batch of 32 out, then the same 32 back in, alternately, so the
        // socket buffer never holds more than one batch.
        let names = [
            send_name.trim_end_matches("_ns"),
            recv_name.trim_end_matches("_ns"),
        ];
        let [send, recv] = r.bench_parts(names, 32 * 400, 32, |n| {
            let (mut sending, mut receiving) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..n / 32 {
                results.clear();
                let t = Instant::now();
                tx.send_batch(&frames, &mut results);
                sending += t.elapsed();
                let mut have = 0;
                while have < 32 {
                    got.clear();
                    let t = Instant::now();
                    let ok = rx.recv_batch(&pool, 32, &mut got).is_ok();
                    receiving += t.elapsed();
                    if !ok {
                        break; // a dropped loopback frame: give up on this batch
                    }
                    have += got.iter().map(RecvFrame::frame_count).sum::<usize>();
                }
            }
            [sending, receiving]
        });
        m.insert(send_name, send);
        m.insert(recv_name, recv);
    }
    let pool = BufferPool::new(64, 2048);
    let v = r.bench("pool.take_release", 1_000_000, |n| {
        timed(n, |_| drop(black_box(pool.try_take())))
    });
    m.insert("pool.take_release_ns", v);
    Ok(())
}

fn wheel_layer(r: &mut Replay<'_>, m: &mut BTreeMap<&'static str, f64>) {
    for (depth, arm, cancel, pop) in [
        (
            16u64,
            "wheel.arm_ns_d16",
            "wheel.cancel_ns_d16",
            "wheel.pop_ns_d16",
        ),
        (
            4096,
            "wheel.arm_ns_d4k",
            "wheel.cancel_ns_d4k",
            "wheel.pop_ns_d4k",
        ),
    ] {
        let mut rng = StdRng::seed_from_u64(depth);
        let far = SimTime::from_secs(1_000).as_nanos();
        let mut standing = || {
            let mut w = TimerWheel::new();
            for i in 0..depth {
                w.arm(
                    SimTime::from_nanos(far + rng.random_range(0..1_000_000_000u64)),
                    i,
                );
            }
            w
        };
        // Sixteen timers armed and then cancelled on top of `depth` standing
        // ones, over and over: the wheel stays at its depth.
        let mut w = standing();
        let mut rng2 = StdRng::seed_from_u64(depth + 1);
        let names = [
            format!("wheel.arm_d{depth}"),
            format!("wheel.cancel_d{depth}"),
        ];
        let [arm_ns, cancel_ns] = r.bench_parts([&names[0], &names[1]], 160_000, 16, |n| {
            let (mut arming, mut cancelling) = (Duration::ZERO, Duration::ZERO);
            let mut ids = Vec::with_capacity(16);
            for _ in 0..n / 16 {
                let at: Vec<SimTime> = (0..16)
                    .map(|_| SimTime::from_nanos(far + rng2.random_range(0..1_000_000_000u64)))
                    .collect();
                let t = Instant::now();
                for (i, at) in at.into_iter().enumerate() {
                    ids.push(w.arm(at, i as u64));
                }
                arming += t.elapsed();
                let t = Instant::now();
                for id in ids.drain(..) {
                    w.cancel(id);
                }
                // The wheel cancels lazily; looking at the head is what
                // retires a cancelled entry.
                black_box(w.next_deadline());
                cancelling += t.elapsed();
            }
            [arming, cancelling]
        });
        m.insert(arm, arm_ns);
        m.insert(cancel, cancel_ns);
        // Sixteen due timers popped from under `depth` standing ones.
        let mut w = standing();
        let [v] = r.bench_parts([&format!("wheel.pop_d{depth}")], 160_000, 16, |n| {
            let mut spent = Duration::ZERO;
            for _ in 0..n / 16 {
                for i in 0..16 {
                    w.arm(SimTime::from_nanos(i), i);
                }
                let t = Instant::now();
                while black_box(w.pop_expired(SimTime::from_secs(1))).is_some() {}
                spent += t.elapsed();
            }
            [spent]
        });
        m.insert(pop, v);
    }
}

fn agent_layer(r: &mut Replay<'_>, m: &mut BTreeMap<&'static str, f64>) {
    let v = r.bench("agent.send_data", 20_000, |n| {
        let (mut a, mut d) = agent(1);
        let p = payload(64);
        timed(n, |_| {
            black_box(a.send_data(&mut d, page(), p.clone()));
        })
    });
    m.insert("agent.send_data_ns", v);

    let data_packets = |n: u64, step: u64, offset: u64| -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let seq = i * step + offset;
                packet(1, seq, flow::DATA, data_msg(1, seq, 64, false).encode())
            })
            .collect()
    };
    let v = r.bench("agent.drive_data", 20_000, |n| {
        let (mut a, mut d) = agent(2);
        let pkts = data_packets(n, 1, 0);
        let spent = timed(n, |i| a.drive_packet(&mut d, &pkts[i as usize]));
        assert_eq!(
            a.take_delivered().len() as u64,
            n,
            "every in-order ADU is delivered"
        );
        spent
    });
    m.insert("agent.drive_data_ns", v);

    // Sequence 0 only, so the message reveals at most one gap per stream
    // once and every later copy is the steady-state "nothing new" case.
    let session = packet(2, 0, flow::SESSION, session_msg(4, 0).encode());
    let v = r.bench("agent.drive_session", 20_000, |n| {
        let (mut a, mut d) = agent(3);
        timed(n, |_| a.drive_packet(&mut d, &session))
    });
    m.insert("agent.drive_session_ns", v);

    let v = r.bench("agent.drive_request", 5_000, |n| {
        let (mut a, mut d) = agent(2);
        for p in data_packets(n, 1, 0) {
            a.drive_packet(&mut d, &p);
        }
        let requests: Vec<Packet> = (0..n)
            .map(|i| {
                let body = Body::Request(RequestBody {
                    name: name(1, i),
                    dist_to_source: 0.005,
                });
                packet(3, i, flow::REQUEST, message(3, body).encode())
            })
            .collect();
        let spent = timed(n, |i| a.drive_packet(&mut d, &requests[i as usize]));
        assert!(
            d.wheel.len() as u64 >= n,
            "every request for a held ADU arms a repair timer"
        );
        spent
    });
    m.insert("agent.drive_request_ns", v);

    // A receiver that got every odd ADU owes a request for every even one.
    let gappy = |n: u64| {
        let (mut a, mut d) = agent(2);
        for p in data_packets(n, 2, 1) {
            a.drive_packet(&mut d, &p);
        }
        a.take_delivered();
        (a, d)
    };
    let v = r.bench("agent.drive_repair", 5_000, |n| {
        let (mut a, mut d) = gappy(n);
        let repairs: Vec<Packet> = (0..n)
            .map(|i| packet(3, i, flow::REPAIR, data_msg(1, 2 * i, 64, true).encode()))
            .collect();
        let spent = timed(n, |i| a.drive_packet(&mut d, &repairs[i as usize]));
        assert_eq!(
            a.take_delivered().len() as u64,
            n,
            "every repair fills its gap"
        );
        spent
    });
    m.insert("agent.drive_repair_ns", v);

    let v = r.bench("agent.drive_timer", 5_000, |n| {
        let (mut a, mut d) = gappy(n);
        d.now = SimTime::from_secs(10);
        let before = d.sent;
        let mut fired = 0u64;
        let t = Instant::now();
        while fired < n {
            let Some(token) = d.wheel.pop_expired(d.now) else {
                break;
            };
            a.drive_timer(&mut d, token);
            fired += 1;
        }
        let spent = t.elapsed();
        assert!(d.sent > before, "fired request timers multicast requests");
        spent * (n as u32) / (fired.max(1) as u32)
    });
    m.insert("agent.drive_timer_ns", v);

    let v = r.bench("adustore.insert", 50_000, |n| {
        let mut s = AduStore::new();
        let p = payload(64);
        timed(n, |i| {
            black_box(s.insert(name(1, i), p.clone()));
        })
    });
    m.insert("adustore.insert_ns", v);
    let v = r.bench("adustore.fetch", 50_000, |n| {
        let mut s = AduStore::new();
        for i in 0..n {
            s.insert(name(1, i), payload(64));
        }
        timed(n, |i| {
            black_box(
                s.fetch(&name(1, (i * 7919) % n))
                    .expect("inserted ADUs are held"),
            );
        })
    });
    m.insert("adustore.fetch_ns", v);
}

/// A scratch directory inside the checkout (under the build directory, so
/// it is ignored and removed with it).
fn scratch_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("srmbench").join("target"));
    base.join(format!("srmbench-scratch-{}", std::process::id()))
}

fn store_layer(r: &mut Replay<'_>, m: &mut BTreeMap<&'static str, f64>) -> io::Result<()> {
    let cfg = |fsync| StoreConfig {
        fsync,
        ..StoreConfig::default()
    };
    let p = payload(64);
    let append = |s: &mut DurableStore, n: u64| {
        timed(n, |i| {
            assert!(s.persist(name(1, i), &p), "append succeeds");
        })
    };
    let v = r.bench("store.mem_append", 20_000, |n| {
        append(
            &mut DurableStore::new(Box::new(MemBackend::new()), cfg(FsyncPolicy::Never)),
            n,
        )
    });
    m.insert("store.mem_append_ns", v);

    let dir = scratch_dir();
    let mut run = 0;
    for (metric, fsync, calls) in [
        ("store.dir_append_never_ns", FsyncPolicy::Never, 4_000),
        ("store.dir_append_every8_ns", FsyncPolicy::EveryN(8), 800),
    ] {
        let v = r.bench(metric.trim_end_matches("_ns"), calls, |n| {
            run += 1;
            let backend = DirBackend::open(dir.join(run.to_string())).expect("scratch dir opens");
            append(&mut DurableStore::new(Box::new(backend), cfg(fsync)), n)
        });
        m.insert(metric, v);
    }
    let v = r.bench("store.dir_read", 4_000, |n| {
        run += 1;
        let backend = DirBackend::open(dir.join(run.to_string())).expect("scratch dir opens");
        let mut s = DurableStore::new(Box::new(backend), cfg(FsyncPolicy::Never));
        append(&mut s, n);
        timed(n, |i| {
            black_box(
                s.read(&name(1, (i * 7919) % n))
                    .expect("appended ADUs read back"),
            );
        })
    });
    m.insert("store.dir_read_ns", v);
    std::fs::remove_dir_all(&dir)?;

    let backend = MemBackend::new();
    let mut s = DurableStore::new(Box::new(backend.clone()), cfg(FsyncPolicy::Never));
    append(&mut s, 10_000);
    s.flush();
    let v = r.bench("store.rehydrate_10k", 1, |_| {
        let mut fresh = DurableStore::new(Box::new(backend.clone()), cfg(FsyncPolicy::Never));
        let t = Instant::now();
        let found = fresh.rehydrate();
        let spent = t.elapsed();
        assert_eq!(
            found.names.len(),
            10_000,
            "every flushed record is replayed"
        );
        spent
    });
    // One call per batch: the per-call figure is the whole replay, in ns.
    m.insert("store.rehydrate_10k_ms", v / 1e6);
    Ok(())
}

fn obs_chaos_netsim(r: &mut Replay<'_>, m: &mut BTreeMap<&'static str, f64>) {
    let reg = obs::MetricsRegistry::new();
    let (counter, hist) = (reg.counter("bench.counter"), reg.histogram("bench.hist"));
    let v = r.bench("obs.counter_inc", 2_000_000, |n| {
        timed(n, |_| black_box(&counter).inc())
    });
    m.insert("obs.counter_inc_ns", v);
    let v = r.bench("obs.hist_record", 2_000_000, |n| {
        timed(n, |i| black_box(&hist).record(1e-6 * (1 + i % 997) as f64))
    });
    m.insert("obs.hist_record_ns", v);

    let plan = ChaosPlan::new().loss(0.05).reorder(1.0, ONE_WAY);
    let mut state = ChaosState::new(plan, 11);
    let v = r.bench("chaos.verdict", 1_000_000, |n| {
        timed(n, |i| {
            black_box(state.verdict(SimTime::from_nanos(i)));
        })
    });
    m.insert("chaos.verdict_ns", v);
    // A frame in, the oldest out, with 32 standing: 5 ms of a 6 kframe/s
    // sender's traffic.
    let mut q = DelayQueue::new();
    let held = payload(145);
    for i in 0..32 {
        q.push(
            SimTime::from_nanos(i),
            GROUP,
            held.clone(),
            SendOptions::for_flow(flow::DATA),
        );
    }
    let v = r.bench("chaos.delayq_push_pop", 500_000, |n| {
        timed(n, |i| {
            q.push(
                SimTime::from_nanos(32 + i),
                GROUP,
                held.clone(),
                SendOptions::for_flow(flow::DATA),
            );
            black_box(q.pop_due(SimTime::MAX));
        })
    });
    m.insert("chaos.delayq_push_pop_ns", v);

    struct Sink;
    impl netsim::Application for Sink {
        fn on_packet(&mut self, _: &mut netsim::Ctx<'_>, _: &Packet) {}
        fn on_timer(&mut self, _: &mut netsim::Ctx<'_>, _: u64) {}
    }
    let mut sim: Simulator<Sink> = Simulator::new(bounded_degree_tree(1000, 4), 1);
    for i in (0..1000u32).step_by(5) {
        sim.install(NodeId(i), Sink);
        sim.join(NodeId(i), GROUP);
    }
    let p = payload(256);
    let mut events = 0u64;
    let ns_per_flood = r.bench("netsim.flood", 400, |n| {
        let before = sim.stats.events;
        let spent = timed(n, |_| {
            sim.send_from(NodeId(0), GROUP, p.clone(), SendOptions::default());
            sim.run_until_idle(SimTime::MAX);
        });
        events = (sim.stats.events - before) / n;
        spent
    });
    m.insert(
        "netsim.flood_events_per_s",
        events as f64 / ns_per_flood * 1e9,
    );
}

/// Control RPCs against a live hub hosting four sole-member groups.
fn hub_probe(r: &mut Replay<'_>, m: &mut BTreeMap<&'static str, f64>) -> io::Result<()> {
    let hub = Hub::spawn(
        "127.0.0.1:0".parse().expect("literal address"),
        HubOptions {
            shards: 2,
            ..HubOptions::default()
        },
    )?;
    let spec = |g: u32| GroupSpec {
        group: g,
        peers: Vec::new(),
        id: 1,
        members: 1,
        rate: None,
        burst: None,
        dist_ms: None,
    };
    let us = |v: f64| v / 1e3;
    let mut next = 0u32;
    let v = r.bench("hub.create", 32, |n| {
        timed(n, |_| {
            next += 1;
            hub.create(spec(next), false)
                .expect("a fresh group is created");
        })
    });
    m.insert("hub.create_us", us(v));
    // `hub.send_roundtrip_us` comes from the workload when it has a hub.
    let v = r.bench("hub.send", 400, |n| {
        timed(n, |i| {
            hub.send(1 + (i as u32 % next), "probe", 8)
                .expect("a hosted group accepts sends");
        })
    });
    m.entry("hub.send_roundtrip_us").or_insert(us(v));
    let v = r.bench("hub.stats", 400, |n| {
        timed(n, |_| drop(black_box(hub.stats())))
    });
    m.insert("hub.stats_roundtrip_us", us(v));
    let v = r.bench("control.handle_line", 400, |n| {
        timed(n, |_| {
            let reply = handle_line(&hub, r#"{"cmd":"send","group":1,"text":"probe","count":1}"#);
            assert!(reply.starts_with("{\"ok\":true"), "{reply}");
        })
    });
    m.insert("control.handle_line_us", us(v));
    let mut drained = 0u32;
    let v = r.bench("hub.drain", 8, |n| {
        timed(n, |_| {
            drained += 1;
            hub.drain(drained).expect("a hosted group drains");
        })
    });
    m.insert("hub.drain_us", us(v));
    hub.shutdown();
    Ok(())
}

/// How much of the measured CPU per ADU the replayed self times explain:
/// each frame the wiretap counted costs its sender one agent call, one
/// envelope encode, one slab and one batched send per destination, and
/// costs each receiver one batched receive, one slab, one envelope decode
/// (plus a precheck behind a hub) and one agent call.
fn accounted_us_per_adu(mix: &FrameMix, m: &BTreeMap<&'static str, f64>) -> f64 {
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let send_common = g("envelope.encode_ns")
        + g("pool.take_release_ns")
        + (mix.receivers + 1.0) * g("batch.mmsg_send_frame_ns");
    let recv_common = g("batch.mmsg_recv_frame_ns")
        + g("pool.take_release_ns")
        + g("envelope.decode_view_ns")
        + mix.hub_share * g("envelope.precheck_ns");
    let kinds = [
        (
            Kind::Data,
            g("agent.send_data_ns"),
            g("agent.drive_data_ns"),
        ),
        (
            Kind::Request,
            g("agent.drive_timer_ns"),
            g("agent.drive_request_ns"),
        ),
        (
            Kind::Repair,
            g("agent.drive_timer_ns") + g("adustore.fetch_ns"),
            g("agent.drive_repair_ns"),
        ),
        (
            Kind::Session,
            g("agent.drive_timer_ns"),
            g("agent.drive_session_ns"),
        ),
    ];
    let ns: f64 = kinds
        .iter()
        .map(|(kind, send, recv)| {
            mix.per_adu[*kind as usize]
                * (send + send_common + mix.receivers * (recv + recv_common))
        })
        .sum();
    ns / 1e3
}

/// Run the replay and the probes; add their metrics and spans.
pub fn add_layer_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    trace: &mut Trace,
    mix: Option<FrameMix>,
    seed: u64,
    quick: bool,
    clock: Clock,
) -> io::Result<()> {
    let start = clock.now_ns();
    let mut r = Replay {
        clock,
        spans: &mut trace.spans,
        batches: if quick { 2 } else { 5 },
        shrink: if quick { 20 } else { 1 },
        next_id: 0,
    };
    wire_layer(&mut r, m);
    envelope_layer(&mut r, m);
    batch_and_pool(&mut r, m, mix.map_or(145, |x| x.frame_bytes))?;
    wheel_layer(&mut r, m);
    agent_layer(&mut r, m);
    store_layer(&mut r, m)?;
    obs_chaos_netsim(&mut r, m);
    hub_probe(&mut r, m)?;
    trace.spans.push(Span {
        layer: "replay".into(),
        name: "replay".into(),
        id: "replay".into(),
        parent: None,
        start_ns: start,
        end_ns: clock.now_ns(),
        calls: 1,
    });
    let probe = pair_probe(seed, if quick { 1.0 } else { 3.0 }, clock)?;
    m.insert("runtime.exec_roundtrip_us", probe.exec_roundtrip_us);
    m.insert("runtime.handoff_p50_us", probe.handoff_p50_us);
    m.insert("runtime.handoff_p99_us", probe.handoff_p99_us);
    m.insert(
        "runtime.sat_goodput_adus_per_s",
        probe.sat_goodput_adus_per_s,
    );
    if let (Some(mix), Some(cpu)) = (mix, m.get("cpu_us_per_adu").copied()) {
        m.insert("trace.accounted_share", accounted_us_per_adu(&mix, m) / cpu);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_accounting_model_charges_senders_once_and_receivers_per_copy() {
        let mut m = BTreeMap::new();
        for (k, v) in [
            ("agent.send_data_ns", 100.0),
            ("agent.drive_data_ns", 200.0),
            ("envelope.encode_ns", 10.0),
            ("envelope.decode_view_ns", 20.0),
            ("envelope.precheck_ns", 5.0),
            ("pool.take_release_ns", 1.0),
            ("batch.mmsg_send_frame_ns", 1000.0),
            ("batch.mmsg_recv_frame_ns", 500.0),
        ] {
            m.insert(k, v);
        }
        let mut per_adu = [0.0; 5];
        per_adu[Kind::Data as usize] = 1.0;
        // One data frame to 3 receivers plus the tap, one of the three
        // behind a hub demux on average one time in three.
        let mix = FrameMix {
            per_adu,
            receivers: 3.0,
            hub_share: 0.0,
            frame_bytes: 145,
        };
        let send = 100.0 + 10.0 + 1.0 + 4.0 * 1000.0;
        let recv = 200.0 + 500.0 + 1.0 + 20.0;
        assert!((accounted_us_per_adu(&mix, &m) - (send + 3.0 * recv) / 1e3).abs() < 1e-9);
        let hub = FrameMix {
            hub_share: 1.0,
            ..mix
        };
        assert!(accounted_us_per_adu(&hub, &m) > accounted_us_per_adu(&mix, &m));
    }

    #[test]
    fn the_quick_replay_fills_every_layer_metric_it_owns() {
        let mut m = BTreeMap::new();
        let mut trace = Trace::default();
        add_layer_metrics(&mut m, &mut trace, None, 1, true, Clock::start()).expect("replay runs");
        let own = |n: &str| {
            ![
                "runtime.queue",
                "runtime.decode",
                "runtime.handle",
                "runtime.send_",
                "runtime.recv_",
            ]
            .iter()
            .any(|p| n.starts_with(p))
                && ![
                    "recovery.",
                    "traffic.",
                    "loadgen.",
                    "tap.",
                    "trace.",
                    "netsim.event",
                    "netsim.hops",
                    "pool.miss",
                    "runtime.inbound",
                    "runtime.pool",
                    "runtime.wheel",
                    "runtime.delayq",
                    "hub.demux",
                    "hub.inbound",
                    "hub.rx_",
                    "hub.quota",
                ]
                .iter()
                .any(|p| n.starts_with(p))
        };
        for def in crate::spec::PER_LAYER.iter().filter(|d| own(d.name)) {
            let v = m.get(def.name).copied().unwrap_or(-1.0);
            assert!(v > 0.0, "{} = {v}", def.name);
        }
        assert!(trace.spans.iter().any(|s| s.id == "replay"));
        assert!(
            trace
                .spans
                .iter()
                .filter(|s| s.parent.as_deref() == Some("replay"))
                .count()
                > 50
        );
    }
}
