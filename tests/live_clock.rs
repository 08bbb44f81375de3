//! A live handler sees one clock reading, as a `netsim` handler sees one
//! event time: every `now()` and `local_now()` inside it returns the same
//! value, and the messages it sends carry that value as their timestamp.
//! Successive handlers on one reactor never see time go back, on a node
//! and on a hub shard walking the buffers the socket-reading shard
//! forwarded to it.

use bytes::Bytes;
use netsim::{flow, GroupId, SimDuration, SimTime};
use obs::{EventKind, RecordedEvent};
use srm::{AduName, Message, PageId, SeqNo, SourceId, SrmAgent, SrmConfig};
use srm_transport::hub::{Hub, HubOptions};
use srm_transport::{shard_of, ChaosPlan, Envelope, Mode, Node, NodeOptions};
use std::net::UdpSocket;
use std::time::{Duration, Instant};

const GROUP_SIZE: usize = 2;
const ADUS: u64 = 200;
const BURST: u64 = 20;

fn member(id: u64, group: u32) -> NodeOptions {
    let mut o = NodeOptions::new(SourceId(id), GroupId(group), SrmConfig::fixed(GROUP_SIZE));
    let peer = SourceId(3 - id);
    o.initial_distances = vec![(peer, SimDuration::from_millis(5))];
    o
}

/// A sender that loses four of its data frames, so the receiver detects
/// gaps, arms request timers and hears repairs across many handlers.
fn lossy_sender(group: u32) -> NodeOptions {
    let mut o = member(1, group);
    o.chaos = Some((0..4).fold(ChaosPlan::new(), |p, i| p.drop_nth(flow::DATA, 7 + 31 * i)));
    o
}

fn traced_receiver(group: u32) -> NodeOptions {
    let mut o = member(2, group);
    o.trace = true;
    o
}

fn publish(a: &mut SrmAgent, d: &mut dyn srm::Driver, first: u64) {
    let page = PageId::new(SourceId(1), 0);
    for i in first..first + BURST {
        a.send_data(d, page, Bytes::from(vec![i as u8; 32]));
    }
}

/// How many of the published ADUs `a` holds.
fn held(a: &mut SrmAgent, _: &mut dyn srm::Driver) -> u64 {
    let page = PageId::new(SourceId(1), 0);
    (0..ADUS).filter(|&q| a.store().has(&AduName::new(SourceId(1), page, SeqNo(q)))).count() as u64
}

/// The receiver's recovery events, in the order its handlers recorded
/// them, and how many its trace ring evicted.
fn events(a: &SrmAgent) -> (Vec<RecordedEvent>, u64) {
    (a.obs.events().copied().collect(), a.obs.dropped_events())
}

/// Publish `ADUS` in bursts through `send`, reading the receiving
/// reactor's handler clock through `now` between bursts, until
/// `delivered` reaches `ADUS`; the clock readings, in order.
fn run(
    send: impl Fn(u64),
    now: impl Fn() -> SimTime,
    delivered: impl Fn() -> u64,
) -> Vec<SimTime> {
    let mut readings = Vec::new();
    for first in (0..ADUS).step_by(BURST as usize) {
        send(first);
        readings.push(now());
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while delivered() < ADUS {
        assert!(Instant::now() < deadline, "only {} of {ADUS} delivered", delivered());
        readings.push(now());
        std::thread::sleep(Duration::from_millis(2));
    }
    readings
}

/// Handler clocks never go back, and the two events one handler records
/// for one gap (detected, request timer armed) carry one time.
fn assert_one_clock_per_handler(readings: &[SimTime], (events, evicted): (Vec<RecordedEvent>, u64)) {
    assert!(readings.is_sorted(), "a handler saw time go back: {readings:?}");
    assert_eq!(evicted, 0, "the trace ring kept every event");
    assert!(events.is_sorted_by_key(|e| e.at), "recorded times go back: {events:?}");
    let gaps: Vec<_> = events.iter().filter(|e| e.kind == EventKind::GapDetected).collect();
    assert!(gaps.len() >= 4, "the dropped frames were detected as gaps: {events:?}");
    for gap in gaps {
        let armed = events
            .iter()
            .find(|e| e.seq > gap.seq && e.adu == gap.adu)
            .expect("a detected gap arms a request timer");
        assert!(matches!(armed.kind, EventKind::RequestTimerSet { .. }), "{armed:?}");
        assert_eq!(armed.at, gap.at, "one handler, one clock reading");
    }
}

#[test]
fn every_clock_read_inside_one_handler_returns_one_value() {
    let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
    sink.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut opts = member(1, 3);
    opts.session_enabled = false;
    let to_sink = Mode::Mesh { peers: vec![sink.local_addr().unwrap()] };
    let node = Node::spawn("127.0.0.1:0".parse().unwrap(), to_sink, opts).unwrap();
    let page = PageId::new(SourceId(1), 0);
    let (at, reads) = node.exec(move |a, d| {
        let at = d.now();
        let mut reads = Vec::new();
        for i in 0..3u8 {
            std::thread::sleep(Duration::from_millis(2));
            a.send_data(d, page, Bytes::from(vec![i; 8]));
            reads.push((d.now(), d.local_now()));
        }
        (at, reads)
    });
    assert!(reads.iter().all(|&r| r == (at, at)), "{at:?}, then {reads:?}");
    // The agent's own reads: every message it sent is stamped with it.
    let mut buf = [0u8; 2048];
    for _ in 0..3 {
        let n = sink.recv(&mut buf).unwrap();
        let env = Envelope::decode(&buf[..n]).unwrap();
        assert_eq!(Message::decode(env.payload).unwrap().header.timestamp, at);
    }
    drop(node.shutdown());
}

#[test]
fn handlers_on_a_node_never_see_time_go_back() {
    let rx_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    let tx_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    let (rx_addr, tx_addr) = (rx_sock.local_addr().unwrap(), tx_sock.local_addr().unwrap());
    let rx = Node::spawn_on(rx_sock, Mode::Mesh { peers: vec![tx_addr] }, traced_receiver(3)).unwrap();
    let tx = Node::spawn_on(tx_sock, Mode::Mesh { peers: vec![rx_addr] }, lossy_sender(3)).unwrap();
    let readings = run(
        |first| tx.exec(move |a, d| publish(a, d, first)),
        || rx.exec(|_, d| d.now()),
        || rx.exec(held),
    );
    assert_one_clock_per_handler(&readings, rx.exec(|a, _| events(a)));
    drop(tx.shutdown());
    drop(rx.shutdown());
}

#[test]
fn a_hub_shard_walking_forwarded_buffers_never_sees_time_go_back() {
    const SHARDS: usize = 2;
    let group = (1..).find(|&g| shard_of(g, SHARDS) == 1).unwrap();
    let opts = HubOptions { shards: SHARDS, ..HubOptions::default() };
    let hub = Hub::spawn("127.0.0.1:0".parse().unwrap(), opts).unwrap();
    let to_hub = Mode::Mesh { peers: vec![hub.local_addr()] };
    let tx = Node::spawn("127.0.0.1:0".parse().unwrap(), to_hub, lossy_sender(group)).unwrap();
    let to_tx = Mode::Mesh { peers: vec![tx.local_addr()] };
    assert_eq!(hub.create_with(to_tx, traced_receiver(group)).unwrap().shard, 1);
    let on_hub = |f: fn(&mut SrmAgent, &mut dyn srm::Driver) -> u64| hub.exec(group, f).unwrap();
    let readings = run(
        |first| tx.exec(move |a, d| publish(a, d, first)),
        || SimTime::from_nanos(on_hub(|_, d| d.now().as_nanos())),
        || on_hub(held),
    );
    assert_one_clock_per_handler(&readings, hub.exec(group, |a, _| events(a)).unwrap());
    drop(tx.shutdown());
    hub.shutdown();
}
