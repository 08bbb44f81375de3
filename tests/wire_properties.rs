//! Property tests for the wire formats: every representable message and
//! drawop survives encode → decode unchanged, and corrupted inputs never
//! panic (they fail cleanly). [`Message::decode`] is also held to a
//! reference decoder, the `Buf`-cursor one it replaced: the same `Ok`
//! message or the same [`WireError`] on any input.

use bytes::{Buf, Bytes};
use netsim::{SimDuration, SimTime};
use proptest::prelude::*;
use srm::wire::{
    Body, DataBody, Echo, Header, Message, PageRequestBody, RecoveryInviteBody, RequestBody,
    SessionBody, WireError,
};
use srm::{AduName, PageId, Parity, SeqNo, SourceId};
use srm_transport::Envelope;
use wb::{Color, DrawOp, OpKind, Point};

fn arb_name() -> impl Strategy<Value = AduName> {
    (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(s, pc, pn, q)| {
        AduName::new(SourceId(s), PageId::new(SourceId(pc), pn), SeqNo(q))
    })
}

// Times travel as integer nanoseconds, so every `u64` survives the wire.
fn arb_time() -> impl Strategy<Value = SimTime> {
    any::<u64>().prop_map(SimTime::from_nanos)
}

fn arb_header() -> impl Strategy<Value = Header> {
    (any::<u64>(), arb_time()).prop_map(|(s, t)| Header {
        sender: SourceId(s),
        timestamp: t,
    })
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        (
            arb_name(),
            any::<bool>(),
            prop::option::of(any::<u64>()),
            0.0f64..1e6,
            prop::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(name, is_repair, ans, d, payload)| {
                Body::Data(DataBody {
                    name,
                    is_repair,
                    answering: ans.map(SourceId),
                    dist_to_requestor: d,
                    payload: Bytes::from(payload),
                })
            }),
        (arb_name(), 0.0f64..1e6).prop_map(|(name, d)| Body::Request(RequestBody {
            name,
            dist_to_source: d,
        })),
        (
            any::<u64>(),
            any::<u32>(),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..20),
            prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
            0.0f32..1.0,
            prop::collection::vec(arb_name(), 0..8),
        )
            .prop_map(|(pc, pn, state, echoes, lr, fp)| {
                Body::Session(SessionBody {
                    page: PageId::new(SourceId(pc), pn),
                    state: state
                        .into_iter()
                        .map(|(s, q)| (SourceId(s), SeqNo(q)))
                        .collect(),
                    echoes: echoes
                        .into_iter()
                        .map(|(p, t, d)| Echo {
                            peer: SourceId(p),
                            their_ts: SimTime::from_nanos(t),
                            delay: SimDuration::from_nanos(d),
                        })
                        .collect(),
                    loss_rate: lr,
                    loss_fingerprint: fp,
                })
            }),
        (any::<u64>(), any::<u32>()).prop_map(|(pc, pn)| Body::PageRequest(PageRequestBody {
            page: PageId::new(SourceId(pc), pn),
        })),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..200),
        )
            .prop_map(|(s, pc, pn, bs, k, xor)| {
                Body::Parity(Parity {
                    source: SourceId(s),
                    page: PageId::new(SourceId(pc), pn),
                    block_start: SeqNo(bs),
                    k,
                    xor_len: xor.len() as u32,
                    xor_payload: Bytes::from(xor),
                })
            }),
        any::<u32>().prop_map(|g| Body::RecoveryInvite(RecoveryInviteBody { group: g })),
        Just(Body::PageCatalogRequest),
        prop::collection::vec((any::<u64>(), any::<u32>()), 0..20).prop_map(|pages| {
            Body::PageCatalog(
                pages
                    .into_iter()
                    .map(|(pc, pn)| PageId::new(SourceId(pc), pn))
                    .collect(),
            )
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn message_roundtrip(h in arb_header(), b in arb_body()) {
        let m = Message { header: h, body: b };
        let enc = m.encode();
        let dec = Message::decode(enc).expect("roundtrip decode");
        prop_assert_eq!(dec, m);
    }

    #[test]
    fn decode_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = Message::decode(Bytes::from(data)); // may Err, must not panic
    }

    #[test]
    fn decode_never_panics_on_truncation(h in arb_header(), b in arb_body(), cut in 0usize..600) {
        let m = Message { header: h, body: b };
        let enc = m.encode();
        let cut = cut.min(enc.len());
        let _ = Message::decode(enc.slice(0..cut));
    }

    // Real sockets feed the decoder bytes a router or a buggy peer may
    // have mangled: any single bit flip must decode cleanly (Ok or Err),
    // never panic, and never allocate absurdly (the MAX_LIST guard).
    #[test]
    fn decode_never_panics_on_bitflip(
        h in arb_header(),
        b in arb_body(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let m = Message { header: h, body: b };
        let mut bad = m.encode().to_vec();
        let i = pos.index(bad.len());
        bad[i] ^= 1 << bit;
        let _ = Message::decode(Bytes::from(bad));
    }
}

/// The decoder [`Message::decode`] replaced, kept as its reference: every
/// field through `Bytes`' `Buf` methods behind a length check, payloads
/// split off the buffer. Timestamps are read as integer nanoseconds, the
/// one intended change, pinned on its own by the wire unit test at 2⁶⁰ ns.
fn reference_decode(mut buf: Bytes) -> Result<Message, WireError> {
    fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
        if buf.len() < n {
            Err(WireError::Truncated)
        } else {
            Ok(())
        }
    }
    fn u8_(b: &mut Bytes) -> Result<u8, WireError> {
        need(b, 1).map(|_| b.get_u8())
    }
    fn u32_(b: &mut Bytes) -> Result<u32, WireError> {
        need(b, 4).map(|_| b.get_u32())
    }
    fn u64_(b: &mut Bytes) -> Result<u64, WireError> {
        need(b, 8).map(|_| b.get_u64())
    }
    fn f32_(b: &mut Bytes) -> Result<f32, WireError> {
        need(b, 4).map(|_| b.get_f32())
    }
    fn f64_(b: &mut Bytes) -> Result<f64, WireError> {
        need(b, 8).map(|_| b.get_f64())
    }
    fn page(b: &mut Bytes) -> Result<PageId, WireError> {
        Ok(PageId { creator: SourceId(u64_(b)?), number: u32_(b)? })
    }
    fn name(b: &mut Bytes) -> Result<AduName, WireError> {
        Ok(AduName { source: SourceId(u64_(b)?), page: page(b)?, seq: SeqNo(u64_(b)?) })
    }
    fn list_len(b: &mut Bytes) -> Result<usize, WireError> {
        match u32_(b)? as usize {
            n if n > 1 << 20 => Err(WireError::BadLength(n)),
            n => Ok(n),
        }
    }
    fn split(b: &mut Bytes, len: usize) -> Result<Bytes, WireError> {
        need(b, len).map(|_| b.split_to(len))
    }
    let header = Header {
        sender: SourceId(u64_(&mut buf)?),
        timestamp: SimTime::from_nanos(u64_(&mut buf)?),
    };
    let b = &mut buf;
    let body = match u8_(b)? {
        1 => {
            let name = name(b)?;
            let is_repair = u8_(b)? != 0;
            let answering = match u8_(b)? {
                0 => None,
                _ => Some(SourceId(u64_(b)?)),
            };
            let dist_to_requestor = f64_(b)?;
            let len = u32_(b)? as usize;
            let payload = split(b, len)?;
            Body::Data(DataBody { name, is_repair, answering, dist_to_requestor, payload })
        }
        2 => Body::Request(RequestBody { name: name(b)?, dist_to_source: f64_(b)? }),
        3 => {
            let page = page(b)?;
            let mut state = Vec::new();
            for _ in 0..list_len(b)? {
                state.push((SourceId(u64_(b)?), SeqNo(u64_(b)?)));
            }
            let mut echoes = Vec::new();
            for _ in 0..list_len(b)? {
                echoes.push(Echo {
                    peer: SourceId(u64_(b)?),
                    their_ts: SimTime::from_nanos(u64_(b)?),
                    delay: SimDuration::from_nanos(u64_(b)?),
                });
            }
            let loss_rate = f32_(b)?;
            let mut loss_fingerprint = Vec::new();
            for _ in 0..list_len(b)? {
                loss_fingerprint.push(name(b)?);
            }
            Body::Session(SessionBody { page, state, echoes, loss_rate, loss_fingerprint })
        }
        4 => Body::PageRequest(PageRequestBody { page: page(b)? }),
        5 => {
            let source = SourceId(u64_(b)?);
            let page = page(b)?;
            let block_start = SeqNo(u64_(b)?);
            let k = u8_(b)?;
            let xor_len = u32_(b)?;
            let len = u32_(b)? as usize;
            let xor_payload = split(b, len)?;
            Body::Parity(Parity { source, page, block_start, k, xor_len, xor_payload })
        }
        6 => Body::RecoveryInvite(RecoveryInviteBody { group: u32_(b)? }),
        7 => Body::PageCatalogRequest,
        8 => {
            let mut pages = Vec::new();
            for _ in 0..list_len(b)? {
                pages.push(page(b)?);
            }
            Body::PageCatalog(pages)
        }
        t => return Err(WireError::BadTag(t)),
    };
    Ok(Message { header, body })
}

/// Both decoders on `data`: the same message (compared by its encoding, so
/// a NaN distance compares by its bits) or the same error.
fn decoders_agree(data: &[u8]) -> Result<(), TestCaseError> {
    let canon = |r: Result<Message, WireError>| r.map(|m| m.encode());
    let got = canon(Message::decode(Bytes::copy_from_slice(data)));
    let want = canon(reference_decode(Bytes::copy_from_slice(data)));
    prop_assert_eq!(got, want, "input {:?}", data);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_agree_on_valid_messages(h in arb_header(), b in arb_body()) {
        let m = Message { header: h, body: b };
        let enc = m.encode();
        prop_assert_eq!(reference_decode(enc.clone()), Ok(m));
        decoders_agree(&enc)?;
    }

    #[test]
    fn decoders_agree_on_random_bytes(data in prop::collection::vec(any::<u8>(), 0..400)) {
        decoders_agree(&data)?;
    }

    // Random bytes behind a valid header and tag, so the bodies' field
    // reads and length checks are reached, not just the tag check.
    #[test]
    fn decoders_agree_on_random_bodies(
        head in prop::collection::vec(any::<u8>(), 16),
        tag in 0u8..10,
        body in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut data = head;
        data.push(tag);
        data.extend(body);
        decoders_agree(&data)?;
    }

    // Every proper prefix of a valid encoding is `Truncated` — no list
    // length or payload length read from it can be judged anything else —
    // and the reference agrees at every cut.
    #[test]
    fn every_proper_prefix_is_truncated(h in arb_header(), b in arb_body()) {
        let enc = Message { header: h, body: b }.encode();
        for cut in 0..enc.len() {
            prop_assert_eq!(Message::decode(enc.slice(..cut)), Err(WireError::Truncated), "cut {}", cut);
            decoders_agree(&enc[..cut])?;
        }
    }

    #[test]
    fn decoders_agree_on_bitflips(
        h in arb_header(),
        b in arb_body(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut bad = Message { header: h, body: b }.encode().to_vec();
        let i = pos.index(bad.len());
        bad[i] ^= 1 << bit;
        decoders_agree(&bad)?;
    }
}

// The transport envelope wraps every message on a real socket; it gets the
// same treatment as the message format it carries.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn envelope_roundtrip(
        src in any::<u32>(),
        group in any::<u32>(),
        ttl in any::<u8>(),
        initial_ttl in any::<u8>(),
        admin in any::<bool>(),
        flow in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let e = Envelope {
            src,
            group,
            ttl,
            initial_ttl,
            admin_scoped: admin,
            flow,
            payload: Bytes::from(payload),
        };
        prop_assert_eq!(Envelope::decode(&e.encode()).expect("roundtrip"), e);
    }

    #[test]
    fn envelope_decode_never_panics(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = Envelope::decode(&data);
    }
}

fn arb_point() -> impl Strategy<Value = Point> {
    (any::<i32>(), any::<i32>()).prop_map(|(x, y)| Point { x, y })
}

fn arb_color() -> impl Strategy<Value = Color> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color { r, g, b })
}

fn arb_op() -> impl Strategy<Value = DrawOp> {
    let kind = prop_oneof![
        (arb_point(), arb_point(), arb_color())
            .prop_map(|(from, to, color)| OpKind::Line { from, to, color }),
        (arb_point(), any::<u32>(), arb_color())
            .prop_map(|(center, radius, color)| OpKind::Circle { center, radius, color }),
        (arb_point(), "[a-zA-Z0-9 ]{0,50}", arb_color())
            .prop_map(|(at, text, color)| OpKind::Text { at, text, color }),
        arb_name().prop_map(|target| OpKind::Delete { target }),
        (arb_point(), arb_point(), arb_color())
            .prop_map(|(a, b, color)| OpKind::Rect { a, b, color }),
        (prop::collection::vec(arb_point(), 0..30), arb_color())
            .prop_map(|(points, color)| OpKind::Polyline { points, color }),
    ];
    (arb_time(), kind).prop_map(|(timestamp, kind)| DrawOp { timestamp, kind })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn drawop_roundtrip(op in arb_op()) {
        let enc = op.encode();
        let dec = DrawOp::decode(enc).expect("roundtrip");
        prop_assert_eq!(dec, op);
    }

    #[test]
    fn drawop_single_bitflip_detected(op in arb_op(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        let enc = op.encode();
        let i = pos.index(enc.len());
        let mut bad = enc.to_vec();
        bad[i] ^= 1 << bit;
        // Either the checksum catches it or a structural check does — but
        // it must never decode into a *different* op silently... with a
        // 64-bit FNV tag, silent acceptance of a flipped bit would be a
        // checksum bug for these sizes.
        if let Ok(got) = DrawOp::decode(Bytes::from(bad)) {
            prop_assert_eq!(got, op.clone());
        }
    }

    #[test]
    fn drawop_garbage_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = DrawOp::decode(Bytes::from(data));
    }
}
