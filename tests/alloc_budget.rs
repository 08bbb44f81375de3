//! The ADU fast path's allocation budget, as an exact count.
//!
//! A loopback pair with session messages off, so the only traffic is the
//! test's: 500-ADU bursts published through [`NodeHandle::exec`], the way
//! the benchmark's `pair_stream` cpu phase does. A counting global
//! allocator keeps one tally per thread, read from inside an `exec`
//! closure — which runs on the reactor thread — so the sender's and the
//! receiver's reactors are counted apart and nothing the test itself
//! allocates (payloads, closures, reply channels) gets in.
//!
//! CPU per ADU is gated by the benchmark with a 25 % bound on a noisy
//! machine; a heap allocation sneaking back into the per-frame path costs
//! less than that and would pass it. This count does not wander.

use bytes::Bytes;
use netsim::GroupId;
use srm::{PageId, SourceId, SrmConfig};
use srm_transport::batch::SEND_BATCH;
use srm_transport::{Harness, NodeHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Heap allocations made by this thread (`realloc` counts as one).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread being torn down may already have lost its slot.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed on as given.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BURST: u64 = 500;
const BURSTS: u64 = 8;
const ADUS: u64 = BURST * BURSTS;

/// The reactor thread's tally, read on that thread.
fn reactor_allocs(node: &NodeHandle) -> u64 {
    node.exec(|_, _| ALLOCS.with(Cell::get))
}

#[test]
fn a_burst_costs_a_fixed_number_of_allocations_per_adu() {
    let registry = obs::MetricsRegistry::new();
    let h = Harness::loopback(2, GroupId(7), &SrmConfig::fixed(2), |i, _, opts| {
        // No session messages: every frame on the wire is one of ours.
        opts.session_enabled = false;
        if i == 0 {
            opts.metrics = Some(registry.clone());
        }
    })
    .unwrap();
    let (tx, rx) = (&h.nodes[0], &h.nodes[1]);
    let page = PageId::new(SourceId(1), 0);
    let publish = |first: u64, n: u64| {
        let payloads: Vec<Bytes> = (first..first + n)
            .map(|i| Bytes::from(vec![i as u8; 64]))
            .collect();
        tx.exec(move |a, d| {
            for p in payloads {
                a.send_data(d, page, p);
            }
        });
    };
    let delivered = |upto: u64| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while rx.frames_received() < upto {
            assert!(
                Instant::now() < deadline,
                "burst not delivered: {} of {upto}",
                rx.frames_received()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    // Warm up: first chunk, first tree nodes, the delivery queue's first
    // doublings, scratch buffers at their working size.
    publish(0, BURST);
    delivered(BURST);
    assert_eq!(rx.take_delivered().len() as u64, BURST);

    let before = (reactor_allocs(tx), reactor_allocs(rx));
    for b in 1..=BURSTS {
        publish(b * BURST, BURST);
        delivered((b + 1) * BURST);
    }
    let sent = reactor_allocs(tx) - before.0;
    let received = reactor_allocs(rx) - before.1;
    assert_eq!(
        rx.take_delivered().len() as u64,
        ADUS,
        "no loss on loopback at this rate"
    );
    eprintln!(
        "allocations per ADU: sender {:.4}, receiver {:.4}",
        sent as f64 / ADUS as f64,
        received as f64 / ADUS as f64
    );

    // Both reactors, per 64 ADUs: a store chunk's slot array, allocated
    // small and grown once (2), and over the 63 chunks these bursts fill,
    // 10 nodes of the tree that indexes them. (The rate meter both feed
    // per data frame adds nothing: it keeps sub-window sums, not samples.)
    let store = 63 * 2 + 10;
    // Sender, per ADU: the encoded message (`Bytes`), and the `Arc` that
    // shares its encode slab across the fan-out.
    assert_eq!(sent, 2 * ADUS + store, "sender reactor, {ADUS} ADUs");
    // Receiver, per ADU: the packet body's `Arc`, and the one-name gap list
    // `note_exists` returns. Once: the delivery queue doubling from empty
    // to 4096 entries (11). Per received buffer: the shared copy its
    // frames' payloads are slices of — a burst is 15 batches of 32 and one
    // of 20, each one buffer where the kernel coalesces (UDP GRO), and one
    // buffer per frame where it does not.
    let buffers = received.checked_sub(2 * ADUS + store + 11);
    assert!(
        buffers == Some(BURSTS * BURST.div_ceil(32)) || buffers == Some(ADUS),
        "receiver reactor, {ADUS} ADUs: {received} allocations, {buffers:?} of them for buffers"
    );

    // The send queue never held more than one batch, so the 64-slab
    // encode pool (`POOL_SLABS`, which `batch.rs` holds above
    // `SEND_BATCH` at compile time) never ran dry.
    assert_eq!(tx.stats().max_sendq_len, SEND_BATCH as u64);
    tx.exec(|_, _| ()); // one more wakeup publishes the pool counters
    tx.exec(|_, _| ());
    assert_eq!(registry.counter("pool.misses").get(), 0);
    h.shutdown();
}
