//! The ADU fast path's allocation budget, as an exact count.
//!
//! A loopback pair with session messages off, so the only traffic is the
//! test's: 500-ADU bursts published through [`NodeHandle::exec`], the way
//! the benchmark's `pair_stream` cpu phase does. A counting global
//! allocator keeps one tally per thread, read from inside an `exec`
//! closure — which runs on the reactor thread — so the sender's and the
//! receiver's reactors are counted apart and nothing the test itself
//! allocates (payloads, closures, reply channels) gets in. The second
//! case receives the same bursts in a hub-hosted group, counted on its
//! shard's thread through [`HubHandle::exec`].
//!
//! CPU per ADU is gated by the benchmark with a 25 % bound on a noisy
//! machine; a heap allocation sneaking back into the per-frame path costs
//! less than that and would pass it. This count does not wander.

use bytes::Bytes;
use netsim::GroupId;
use srm::{PageId, SourceId, SrmConfig};
use srm_transport::batch::SEND_BATCH;
use srm_transport::hub::{Hub, HubHandle, HubOptions};
use srm_transport::{shard_of, Harness, Mode, Node, NodeHandle, NodeOptions};
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

/// `group`'s shard thread's tally, read on that thread.
fn shard_allocs(hub: &HubHandle, group: u32) -> u64 {
    hub.exec(group, |_, _| ALLOCS.with(Cell::get)).expect("the group is hosted")
}

/// Publish ADUs `first..first + n` of 64 bytes each on `tx`'s reactor.
fn publish(tx: &NodeHandle, first: u64, n: u64) {
    let page = PageId::new(SourceId(1), 0);
    let payloads: Vec<Bytes> = (first..first + n).map(|i| Bytes::from(vec![i as u8; 64])).collect();
    tx.exec(move |a, d| {
        for p in payloads {
            a.send_data(d, page, p);
        }
    });
}

/// Wait until `received()` reaches `upto`.
fn await_frames(upto: u64, received: impl Fn() -> u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while received() < upto {
        assert!(Instant::now() < deadline, "burst not delivered: {} of {upto}", received());
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Both reactors, per 64 ADUs: a store chunk's slot array, allocated
/// small and grown once (2), and over the 63 chunks these bursts fill,
/// 10 nodes of the tree that indexes them. (The rate meter both feed per
/// data frame adds nothing: it keeps sub-window sums, not samples.)
const STORE: u64 = 63 * 2 + 10;

/// Assert that a receiving reactor allocated, per ADU, only the packet
/// body's `Arc`, plus `once` allocations in all and, per received buffer,
/// the shared copy its frames' payloads are slices of: a burst is 15
/// batches of 32 and one of 20, each one buffer where the kernel
/// coalesces (UDP GRO), and one buffer per frame where it does not.
fn assert_receiver_budget(who: &str, received: u64, once: u64) {
    let buffers = received.checked_sub(ADUS + STORE + once);
    assert!(
        buffers == Some(BURSTS * BURST.div_ceil(32)) || buffers == Some(ADUS),
        "{who}, {ADUS} ADUs: {received} allocations, {buffers:?} of them for buffers"
    );
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
    // Warm up: first chunk, first tree nodes, the delivery queue's first
    // doublings, scratch buffers at their working size.
    publish(tx, 0, BURST);
    await_frames(BURST, || rx.frames_received());
    assert_eq!(rx.take_delivered().len() as u64, BURST);

    let before = (reactor_allocs(tx), reactor_allocs(rx));
    for b in 1..=BURSTS {
        publish(tx, b * BURST, BURST);
        await_frames((b + 1) * BURST, || rx.frames_received());
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

    // Sender, per ADU: the encoded message (`Bytes`), and the `Arc` that
    // shares its encode slab across the fan-out.
    assert_eq!(sent, 2 * ADUS + STORE, "sender reactor, {ADUS} ADUs");
    // Receiver: an in-order arrival's gap list is empty and allocates
    // nothing. Once: the delivery queue doubling from empty to 4096
    // entries (11).
    assert_receiver_budget("receiver reactor", received, 11);

    // The send queue never held more than one batch, so the 64-slab
    // encode pool (`POOL_SLABS`, which `batch.rs` holds above
    // `SEND_BATCH` at compile time) never ran dry.
    assert_eq!(tx.stats().max_sendq_len, SEND_BATCH as u64);
    tx.exec(|_, _| ()); // one more wakeup publishes the pool counters
    tx.exec(|_, _| ());
    assert_eq!(registry.counter("pool.misses").get(), 0);
    h.shutdown();
}

/// The same bursts into a hub-hosted group on the shard that does not read
/// the socket, so every buffer takes the forward hop `hub_groups4` takes.
/// A hub group counts its deliveries and discards them in place, so the
/// delivery queue keeps its allocation and costs nothing per frame.
#[test]
fn a_hub_group_receives_a_burst_at_a_fixed_number_of_allocations_per_adu() {
    const SHARDS: usize = 2;
    let group = (1..).find(|&g| shard_of(g, SHARDS) == 1).unwrap();
    let opts = HubOptions { shards: SHARDS, ..HubOptions::default() };
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), opts).unwrap();
    let member = |id: u64| {
        let mut o = NodeOptions::new(SourceId(id), GroupId(group), SrmConfig::fixed(2));
        o.session_enabled = false;
        o
    };
    let to_hub = Mode::Mesh { peers: vec![hub.local_addr()] };
    let tx = Node::spawn("127.0.0.1:0".parse().unwrap(), to_hub, member(1)).unwrap();
    let to_tx = Mode::Mesh { peers: vec![tx.local_addr()] };
    let created = hub.create_with(to_tx, member(2)).unwrap();
    assert_eq!(created.shard, 1);
    let received = || hub.exec(group, |a, _| a.metrics.data_received).unwrap();

    // Warm up as the node case does.
    publish(&tx, 0, BURST);
    await_frames(BURST, received);

    let before = shard_allocs(&hub, group);
    for b in 1..=BURSTS {
        publish(&tx, b * BURST, BURST);
        await_frames((b + 1) * BURST, received);
    }
    let allocs = shard_allocs(&hub, group) - before;
    let st = hub.stats();
    assert_eq!(st.groups[0].delivered, ADUS + BURST, "no loss on loopback at this rate");
    eprintln!("allocations per ADU: hub group {:.4}", allocs as f64 / ADUS as f64);
    assert_receiver_budget("hub group's shard", allocs, 0);
    drop(tx.shutdown());
    hub.shutdown();
}
