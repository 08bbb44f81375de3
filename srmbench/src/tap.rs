//! The wiretap: a benchmark-owned UDP socket listed as one more, silent,
//! mesh peer of every sender, so it receives exactly one copy of every
//! multicast that reaches a fan-out. It never sends, so no agent learns of
//! it; it decodes with the same public [`Envelope`]/[`Message`] decoders
//! the runtime uses, so "a frame" here is what a member would accept.

use crate::Clock;
use bytes::Bytes;
use netsim::flow;
use srm::{AduName, Body, Message};
use srm_transport::{
    configure_socket_buffers, make_backend, BatchOptions, BufferPool, Envelope, RecvFrame,
};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Frame kinds the tap tells apart; the discriminant indexes the counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Original data.
    Data = 0,
    /// Repair request.
    Request = 1,
    /// Retransmitted data.
    Repair = 2,
    /// Session message.
    Session = 3,
    /// Anything else the protocol can emit (parity, page traffic).
    Other = 4,
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub struct TapFrame {
    /// What it is.
    pub kind: Kind,
    /// Sender's envelope id.
    pub src: u32,
    /// Multicast group.
    pub group: u32,
    /// Datagram bytes on the wire (envelope included).
    pub bytes: usize,
    /// The ADU it names, for data/request/repair frames when the inner
    /// message was decoded.
    pub name: Option<AduName>,
}

/// Decode one datagram. `deep` also decodes the inner SRM message, which
/// yields the ADU name and tells a repair from original data by the body
/// rather than the flow label; without it the envelope's flow label alone
/// classifies the frame.
pub fn classify(chunk: &[u8], deep: bool) -> Option<TapFrame> {
    let env = Envelope::decode_view(chunk).ok()?;
    let by_flow = match env.flow {
        flow::DATA => Kind::Data,
        flow::REQUEST => Kind::Request,
        flow::REPAIR => Kind::Repair,
        flow::SESSION => Kind::Session,
        _ => Kind::Other,
    };
    let mut frame = TapFrame {
        kind: by_flow,
        src: env.src,
        group: env.group,
        bytes: chunk.len(),
        name: None,
    };
    if deep {
        match Message::decode(Bytes::copy_from_slice(env.payload))
            .ok()?
            .body
        {
            Body::Data(d) => {
                frame.kind = if d.is_repair {
                    Kind::Repair
                } else {
                    Kind::Data
                };
                frame.name = Some(d.name);
            }
            Body::Request(r) => {
                frame.kind = Kind::Request;
                frame.name = Some(r.name);
            }
            Body::Session(_) => frame.kind = Kind::Session,
            _ => frame.kind = Kind::Other,
        }
    }
    Some(frame)
}

/// Cumulative counts, readable while the tap runs.
#[derive(Default)]
pub struct TapCounters {
    frames: [AtomicU64; 5],
    bytes: [AtomicU64; 5],
    undecodable: AtomicU64,
}

/// A point-in-time copy of [`TapCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapSnapshot {
    /// Frames by [`Kind`].
    pub frames: [u64; 5],
    /// Datagram bytes by [`Kind`].
    pub bytes: [u64; 5],
    /// Datagrams the envelope decoder rejected.
    pub undecodable: u64,
}

impl TapSnapshot {
    /// Frames of every kind.
    pub fn total_frames(&self) -> u64 {
        self.frames.iter().sum()
    }

    /// Bytes of every kind.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &TapSnapshot) -> TapSnapshot {
        let mut d = TapSnapshot::default();
        for i in 0..5 {
            d.frames[i] = self.frames[i] - earlier.frames[i];
            d.bytes[i] = self.bytes[i] - earlier.bytes[i];
        }
        d.undecodable = self.undecodable - earlier.undecodable;
        d
    }
}

/// First-hand record of one named frame, kept only while recording is on.
#[derive(Clone, Copy, Debug)]
pub struct Sighting {
    /// Arrival at the tap on the run clock.
    pub t_ns: u64,
    /// Data, request or repair.
    pub kind: Kind,
    /// The ADU named.
    pub name: AduName,
    /// Group the frame was addressed to (names repeat across groups).
    pub group: u32,
}

/// A running wiretap.
pub struct Tap {
    addr: SocketAddr,
    counters: Arc<TapCounters>,
    recording: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<Vec<Sighting>>>,
}

impl Tap {
    /// Bind a loopback socket and start counting. `own` registers the tap
    /// thread as benchmark-owned for CPU accounting.
    pub fn start(clock: Clock, own: Arc<crate::cpu::OwnThreads>) -> io::Result<Tap> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        let addr = sock.local_addr()?;
        let opts = BatchOptions::default();
        configure_socket_buffers(&sock, opts.socket_bufs);
        sock.set_read_timeout(Some(Duration::from_millis(10)))?;
        let counters = Arc::new(TapCounters::default());
        let recording = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let (c, r, s) = (
            Arc::clone(&counters),
            Arc::clone(&recording),
            Arc::clone(&stop),
        );
        let thread = thread::Builder::new()
            .name("bench-tap".into())
            .spawn(move || {
                own.register_current();
                let mut backend = make_backend(sock, &opts);
                let pool = BufferPool::new(256, 64 * 1024);
                let mut bufs: Vec<RecvFrame> = Vec::new();
                let mut seen = Vec::new();
                while !s.load(Ordering::Relaxed) {
                    bufs.clear();
                    if backend.recv_batch(&pool, 64, &mut bufs).is_err() {
                        continue; // read timeout: the stop-flag heartbeat
                    }
                    let t_ns = clock.now_ns();
                    let deep = r.load(Ordering::Relaxed);
                    for f in bufs.drain(..) {
                        let data: &[u8] = &f.buf;
                        let stride = match f.seg_size as usize {
                            0 => data.len().max(1),
                            n => n,
                        };
                        for chunk in data.chunks(stride) {
                            let Some(fr) = classify(chunk, deep) else {
                                c.undecodable.fetch_add(1, Ordering::Relaxed);
                                continue;
                            };
                            c.frames[fr.kind as usize].fetch_add(1, Ordering::Relaxed);
                            c.bytes[fr.kind as usize].fetch_add(fr.bytes as u64, Ordering::Relaxed);
                            if let Some(name) = fr.name {
                                seen.push(Sighting {
                                    t_ns,
                                    kind: fr.kind,
                                    name,
                                    group: fr.group,
                                });
                            }
                        }
                    }
                }
                seen
            })?;
        Ok(Tap {
            addr,
            counters,
            recording,
            stop,
            thread: Some(thread),
        })
    }

    /// The address senders list as a peer.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Turn per-ADU sighting records on or off (counting is always on).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Current cumulative counts.
    pub fn snapshot(&self) -> TapSnapshot {
        let mut s = TapSnapshot::default();
        for i in 0..5 {
            s.frames[i] = self.counters.frames[i].load(Ordering::Relaxed);
            s.bytes[i] = self.counters.bytes[i].load(Ordering::Relaxed);
        }
        s.undecodable = self.counters.undecodable.load(Ordering::Relaxed);
        s
    }

    /// Stop the thread, wait for it, and return what it recorded.
    pub fn finish(mut self) -> Vec<Sighting> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .take()
            .map(|t| t.join().expect("tap thread exits cleanly"))
            .unwrap_or_default()
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimTime;
    use srm::{DataBody, Header, PageId, RequestBody, SeqNo, SessionBody, SourceId};

    fn frame(flow: u32, body: Body) -> Vec<u8> {
        let msg = Message {
            header: Header {
                sender: SourceId(7),
                timestamp: SimTime::ZERO,
            },
            body,
        };
        Envelope {
            src: 7,
            group: 3,
            ttl: 255,
            initial_ttl: 255,
            admin_scoped: false,
            flow,
            payload: msg.encode(),
        }
        .encode()
        .to_vec()
    }

    fn name() -> AduName {
        AduName::new(SourceId(7), PageId::new(SourceId(1), 0), SeqNo(42))
    }

    fn data(is_repair: bool) -> Body {
        Body::Data(DataBody {
            name: name(),
            is_repair,
            answering: is_repair.then_some(SourceId(2)),
            dist_to_requestor: 0.0,
            payload: Bytes::from_static(b"payload"),
        })
    }

    #[test]
    fn all_four_kinds_decode_with_names_where_they_have_one() {
        let session = Body::Session(SessionBody {
            page: PageId::new(SourceId(1), 0),
            state: vec![(SourceId(7), SeqNo(42))],
            echoes: vec![],
            loss_rate: 0.0,
            loss_fingerprint: vec![],
        });
        let request = Body::Request(RequestBody {
            name: name(),
            dist_to_source: 0.005,
        });
        let cases = [
            (frame(flow::DATA, data(false)), Kind::Data, Some(name())),
            (frame(flow::REQUEST, request), Kind::Request, Some(name())),
            (frame(flow::REPAIR, data(true)), Kind::Repair, Some(name())),
            (frame(flow::SESSION, session), Kind::Session, None),
        ];
        for (wire, kind, want_name) in cases {
            let deep = classify(&wire, true).expect("decodes");
            assert_eq!(
                (deep.kind, deep.name, deep.bytes),
                (kind, want_name, wire.len())
            );
            assert_eq!((deep.src, deep.group), (7, 3));
            // The shallow pass agrees on the kind from the flow label alone.
            let shallow = classify(&wire, false).expect("decodes");
            assert_eq!((shallow.kind, shallow.name), (kind, None));
        }
    }

    #[test]
    fn garbage_and_truncation_are_rejected_not_miscounted() {
        assert!(classify(b"not an envelope", true).is_none());
        let wire = frame(flow::DATA, data(false));
        assert!(classify(&wire[..wire.len() - 3], true).is_none());
    }
}
