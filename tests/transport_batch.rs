//! Backend-equivalence properties for the batched datapath.
//!
//! The whole point of `BatchSocket` is that the backend choice changes
//! *how many syscalls* move the bytes — `recvmmsg`/`sendmmsg`/UDP-GSO
//! versus one `recv_from`/`send_to` per frame — and nothing else. These
//! tests pin that contract from two angles:
//!
//! 1. **Socket-level byte equivalence** (proptest): a seeded, chaos-shaped
//!    frame schedule — loss, duplication, reorder, plus envelope
//!    truncations and bit flips landing at arbitrary points, including
//!    mid-batch — is pushed through a portable sender/receiver pair and an
//!    mmsg pair. After undoing GRO coalescing, the delivered frame
//!    sequences must be byte-identical, and every frame must decode (or
//!    fail to decode) identically.
//! 2. **Session-level equivalence**: the same seeded lossy session run
//!    over each backend must deliver the same ADU set with full frame
//!    accounting — the reactor-visible behaviour is backend-independent
//!    even under repair traffic.
//!
//! Timing note: UDP loopback between two bound sockets preserves order
//! and, at these volumes (well under the receive buffer), loses nothing,
//! so the byte-level test is deterministic. The session-level test asserts
//! outcome equality (delivered sets), not interleavings.

use bytes::Bytes;
use netsim::{GroupId, SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srm::{PageId, SourceId, SrmConfig};
use srm_transport::{
    make_backend, BatchOptions, BufferPool, ChaosPlan, ChaosState, Envelope, Harness, RecvFrame,
    SendFrame,
};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Build a chaos-shaped wire schedule: seeded envelopes (with equal-size
/// runs that form GSO batches and odd sizes that break them), then a
/// seeded [`ChaosState`] applying loss / duplication / reorder, then
/// deterministic truncation and bit-flip corruption. The output is the
/// exact byte sequence a sender will push — both backends get the same
/// schedule, so any divergence is the backend's fault.
fn wire_schedule(seed: u64, frames: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clean: Vec<Vec<u8>> = Vec::new();
    while clean.len() < frames {
        // Equal-size runs trigger the GSO path; singletons break it.
        let run = rng.random_range(1..12usize).min(frames - clean.len());
        let payload_len = rng.random_range(0..180usize);
        for _ in 0..run {
            let env = Envelope {
                src: rng.random_range(1..5u32),
                group: 1,
                ttl: 8,
                initial_ttl: 8,
                admin_scoped: false,
                flow: rng.random_range(0..4u32),
                payload: Bytes::from(vec![rng.random_range(0..=255u32) as u8; payload_len]),
            };
            clean.push(env.encode().to_vec());
        }
    }
    // Chaos-shape the schedule: the verdict stream is a pure function of
    // (seed, plan), so the shaped sequence is reproducible.
    let plan = ChaosPlan::new()
        .loss(0.1)
        .duplication(0.1)
        .reorder(0.2, SimDuration::from_millis(5));
    let mut chaos = ChaosState::new(plan, seed ^ 0xC4A05);
    let mut shaped: Vec<Vec<u8>> = Vec::new();
    let mut held: Vec<Vec<u8>> = Vec::new();
    for (i, f) in clean.into_iter().enumerate() {
        let v = chaos.verdict(t(i as u64));
        if !v.deliver {
            continue;
        }
        if v.delay.is_some() {
            // Reorder: hold back, flush later.
            held.push(f);
            continue;
        }
        if v.duplicate {
            shaped.push(f.clone());
        }
        shaped.push(f);
    }
    shaped.extend(held);
    // Corruption spanning batch boundaries: truncate or bit-flip a seeded
    // subset in place, so damaged frames sit amid GSO-able runs.
    for f in shaped.iter_mut() {
        if rng.random_bool(0.15) && !f.is_empty() {
            if rng.random_bool(0.5) {
                let cut = rng.random_range(0..f.len());
                f.truncate(cut);
            } else {
                let bit = rng.random_range(0..f.len() * 8);
                f[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
    shaped
}

/// Undo GRO coalescing: one logical frame per plain buffer, `seg_size`
/// strides through a coalesced one.
fn flatten(got: &[RecvFrame]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    for r in got {
        match r.seg_size as usize {
            0 => frames.push(r.buf.to_vec()),
            s => frames.extend(r.buf.chunks(s).map(|c| c.to_vec())),
        }
    }
    frames
}

/// Push `schedule` through a sender/receiver backend pair and collect the
/// delivered logical frames. `send_chunk` slices the schedule into
/// `send_batch` calls so corrupted frames land mid-batch, not aligned.
fn roundtrip(
    schedule: &[Vec<u8>],
    force_portable: bool,
    send_chunk: usize,
    recv_max: usize,
) -> Vec<Vec<u8>> {
    let opts = BatchOptions {
        force_portable,
        ..BatchOptions::default()
    };
    let a = UdpSocket::bind("127.0.0.1:0").unwrap();
    let b = UdpSocket::bind("127.0.0.1:0").unwrap();
    // The whole schedule fits the enlarged receive buffer, so sending
    // everything before draining loses nothing and keeps the drain logic
    // trivial (loopback preserves per-sender order).
    srm_transport::configure_socket_buffers(&b, 4 * 1024 * 1024);
    let to: SocketAddr = b.local_addr().unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut tx = make_backend(a, &opts);
    let mut rx = make_backend(b, &opts);
    // A small pool forces the pool-dry heap-copy fallback mid-run (the
    // received buffers are held, so slabs never recycle).
    let pool = BufferPool::new(4, 70_000);
    let mut results = Vec::new();
    let mut got: Vec<RecvFrame> = Vec::new();
    let total: usize = schedule.len();
    let mut received = 0usize;
    for chunk in schedule.chunks(send_chunk.max(1)) {
        let frames: Vec<SendFrame<'_>> =
            chunk.iter().map(|f| SendFrame { dest: to, data: f }).collect();
        results.clear();
        tx.send_batch(&frames, &mut results);
        assert!(results.iter().all(|r| r.is_ok()), "send failed: {results:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while received < total && Instant::now() < deadline {
        let before = got.len();
        match rx.recv_batch(&pool, recv_max, &mut got) {
            Ok(_) => {
                received += got[before..].iter().map(RecvFrame::frame_count).sum::<usize>();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => panic!("recv_batch failed: {e}"),
        }
    }
    assert_eq!(received, total, "frames lost on loopback");
    flatten(&got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The backend-equivalence contract, byte for byte: the same
    /// chaos-shaped, partially-corrupted schedule through both backends
    /// yields identical delivered frame sequences and identical envelope
    /// decode outcomes — GSO/GRO coalescing and `sendmmsg` chunking are
    /// invisible above the socket layer.
    #[test]
    fn backends_deliver_identical_frame_sequences(
        seed in 0u64..100_000,
        frames in 20usize..120,
        send_chunk in 1usize..40,
        recv_max in 1usize..16,
    ) {
        let schedule = wire_schedule(seed, frames);
        prop_assert!(!schedule.is_empty(), "all frames chaos-dropped (vanishingly unlikely)");
        let via_portable = roundtrip(&schedule, true, send_chunk, recv_max);
        let via_batched = roundtrip(&schedule, false, send_chunk, recv_max);
        prop_assert_eq!(&via_portable, &schedule, "portable backend altered the bytes");
        prop_assert_eq!(&via_batched, &schedule, "batched backend altered the bytes");
        // Decode equivalence rides along: same bytes, same envelope fate.
        for (p, b) in via_portable.iter().zip(via_batched.iter()) {
            prop_assert_eq!(Envelope::decode(p), Envelope::decode(b));
        }
    }
}

/// Run one seeded lossy session over a 2-node mesh and return the
/// delivered payload multiset plus the sender's stats.
fn lossy_session(force_portable: bool) -> (Vec<Vec<u8>>, srm_transport::TransportStats) {
    let cfg = SrmConfig::fixed(2);
    let h = Harness::loopback(2, GroupId(1), &cfg, |i, addrs, o| {
        o.batch.force_portable = force_portable;
        o.initial_distances.push((
            SourceId(if i == 0 { 2 } else { 1 }),
            SimDuration::from_millis(10),
        ));
        if i == 0 {
            o.chaos = Some(
                srm_transport::parse_spec("loss=0.2,dup=0.1,reorder=0.15:10ms", addrs)
                    .expect("valid spec"),
            );
        }
    })
    .expect("bind loopback mesh");
    let page = PageId::new(SourceId(1), 0);
    let mut names = Vec::new();
    for i in 0..40u8 {
        names.push(h.nodes[0].send_data(page, Bytes::from(vec![i; 48])));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut delivered = Vec::new();
    while delivered.len() < names.len() && Instant::now() < deadline {
        delivered.extend(h.nodes[1].take_delivered());
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = h.nodes[0].stats();
    drop(h.shutdown());
    let mut payloads: Vec<Vec<u8>> = delivered.iter().map(|d| d.payload.to_vec()).collect();
    payloads.sort();
    (payloads, stats)
}

/// Session-level equivalence: under seeded chaos loss/dup/reorder, both
/// backends must deliver the complete ADU set (SRM repairs whatever the
/// chaos dropped) with the frame-accounting invariant intact.
#[test]
fn lossy_session_delivers_same_set_on_both_backends() {
    let (portable, stats_p) = lossy_session(true);
    let (batched, stats_b) = lossy_session(false);
    assert_eq!(
        portable.len(),
        40,
        "portable backend failed to recover every ADU"
    );
    assert_eq!(portable, batched, "backends delivered different ADU sets");
    for (name, s) in [("portable", &stats_p), ("batched", &stats_b)] {
        assert!(s.frames_accounted(), "{name} backend leaks frames: {s:?}");
        assert_eq!(s.recv_deaths, 0, "{name} read path died");
    }
}
