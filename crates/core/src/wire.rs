//! Binary wire format for SRM messages.
//!
//! ALF says framing belongs to the application, so SRM defines its own
//! compact encoding rather than inheriting one from a transport. Every
//! message starts with a common header — "All packets for that group,
//! including session packets, include a Source-ID and a timestamp"
//! (Section III-A) — followed by a type-tagged body.
//!
//! All integers are big-endian. Distances are `f64` seconds. The format is
//! self-describing enough for robust decoding: decoders validate tags and
//! lengths and fail with [`WireError`] rather than panicking, so a corrupt
//! packet cannot take an agent down.

use crate::fec::Parity;
use crate::name::{AduName, PageId, SeqNo, SourceId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use netsim::{SimDuration, SimTime};
use std::fmt;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// Unknown message-type tag.
    BadTag(u8),
    /// A length field exceeds sane bounds.
    BadLength(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadLength(l) => write!(f, "implausible length field {l}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Common per-message header.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Header {
    /// The transmitting member.
    pub sender: SourceId,
    /// The sender's clock at transmission time (used for NTP-style distance
    /// estimation; clocks need not be synchronized).
    pub timestamp: SimTime,
}

/// One timestamp echo inside a session message (Section III-A).
///
/// "host B generates a session packet marked with (t1, Δ)", where t1 is the
/// time peer `peer` sent its last session packet and Δ is the time between
/// B receiving it and B sending this message.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Echo {
    /// The peer whose timestamp is echoed.
    pub peer: SourceId,
    /// The peer's send timestamp being echoed (t1).
    pub their_ts: SimTime,
    /// Time elapsed at the echoer between receipt and this send (Δ).
    pub delay: SimDuration,
}

/// Original data or a repair (retransmission by any holder).
#[derive(Clone, Debug, PartialEq)]
pub struct DataBody {
    /// The unique persistent name of the ADU.
    pub name: AduName,
    /// True for retransmissions.
    pub is_repair: bool,
    /// For two-step local recovery (Section VII-B3): the requestor this
    /// repair answers, so that requestor can re-multicast it.
    pub answering: Option<SourceId>,
    /// The replier's estimated distance (seconds) to the requestor it is
    /// answering; used by the adaptive algorithm's "duplicate from farther
    /// away" rule. Zero for original data.
    pub dist_to_requestor: f64,
    /// Application payload.
    pub payload: Bytes,
}

/// A repair request (Section III-B). Not addressed to any specific member.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestBody {
    /// The missing ADU.
    pub name: AduName,
    /// Requestor's estimated distance (seconds) to the ADU's original
    /// source. "requests include the requestor's estimated distance from
    /// the original source of the requested packet" (Section VII-A).
    pub dist_to_source: f64,
}

/// Periodic state announcement (Section III-A).
#[derive(Clone, Debug, PartialEq)]
pub struct SessionBody {
    /// The page whose state is being reported ("each member only reports
    /// the state of the page it is currently viewing").
    pub page: PageId,
    /// Highest sequence number received from each active source on `page`.
    pub state: Vec<(SourceId, SeqNo)>,
    /// Timestamp echoes for distance estimation.
    pub echoes: Vec<Echo>,
    /// Fraction of data for which a request timer was set (Section VII-B:
    /// "session messages could report a member's loss rate").
    pub loss_rate: f32,
    /// "the names of the last few local losses" — the loss fingerprint used
    /// to identify shared loss neighborhoods.
    pub loss_fingerprint: Vec<AduName>,
}

/// A request for the sequence-number state of a page ("a receiver browsing
/// over previous pages may issue page requests", Section III-A). Answered
/// with a [`SessionBody`] for that page.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRequestBody {
    /// The page whose state is wanted.
    pub page: PageId,
}

/// Any SRM message: header plus body.
#[derive(Clone, Debug, PartialEq)]
pub struct Message {
    /// Common header.
    pub header: Header,
    /// Type-specific body.
    pub body: Body,
}

/// Message bodies.
#[derive(Clone, Debug, PartialEq)]
pub enum Body {
    /// Data or repair.
    Data(DataBody),
    /// Repair request.
    Request(RequestBody),
    /// Session message.
    Session(SessionBody),
    /// Page-state request.
    PageRequest(PageRequestBody),
    /// Proactive XOR parity over a block of data ADUs (the FEC extension
    /// of Section VII-B / \[38\]).
    Parity(Parity),
    /// Invitation to join a separate local-recovery multicast group
    /// (Section VII-B2): "the initial requestor creates a separate
    /// multicast group for local recovery and invites other nearby members
    /// to join". Sent with limited scope; "nearby" is whoever the scoped
    /// invite reaches.
    RecoveryInvite(RecoveryInviteBody),
    /// A late joiner asking which pages exist ("If a receiver joins late,
    /// it may issue page requests to learn the existence of previous
    /// pages", Section III-A).
    PageCatalogRequest,
    /// Answer to a catalog request: the pages this member knows of.
    PageCatalog(Vec<PageId>),
}

/// Body of a recovery-group invitation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryInviteBody {
    /// The multicast group allocated for local recovery.
    pub group: u32,
}

const TAG_DATA: u8 = 1;
const TAG_REQUEST: u8 = 2;
const TAG_SESSION: u8 = 3;
const TAG_PAGE_REQUEST: u8 = 4;
const TAG_PARITY: u8 = 5;
const TAG_RECOVERY_INVITE: u8 = 6;
const TAG_PAGE_CATALOG_REQUEST: u8 = 7;
const TAG_PAGE_CATALOG: u8 = 8;

/// Refuse list lengths beyond this in decoding (corruption guard).
const MAX_LIST: usize = 1 << 20;

impl Message {
    /// Encode to bytes.
    ///
    /// Allocates exactly [`Message::encoded_len`] bytes. Hot paths that
    /// send repeatedly should prefer [`Message::encode_into`] with a
    /// reused scratch buffer.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Exact size of the encoding, without encoding it.
    pub fn encoded_len(&self) -> usize {
        const HEADER: usize = 16; // sender u64 + timestamp u64
        const NAME: usize = 28; // source u64 + page (u64 + u32) + seq u64
        const PAGE: usize = 12; // creator u64 + number u32
        HEADER
            + 1 // tag
            + match &self.body {
                Body::Data(d) => {
                    NAME + 1
                        + match d.answering {
                            Some(_) => 9,
                            None => 1,
                        }
                        + 8
                        + 4
                        + d.payload.len()
                }
                Body::Request(_) => NAME + 8,
                Body::Session(s) => {
                    PAGE + 4
                        + 16 * s.state.len()
                        + 4
                        + 24 * s.echoes.len()
                        + 4
                        + 4
                        + NAME * s.loss_fingerprint.len()
                }
                Body::PageRequest(_) => PAGE,
                Body::Parity(p) => 8 + PAGE + 8 + 1 + 4 + 4 + p.xor_payload.len(),
                Body::RecoveryInvite(_) => 4,
                Body::PageCatalogRequest => 0,
                Body::PageCatalog(pages) => 4 + PAGE * pages.len(),
            }
    }

    /// Encode by appending to any [`BufMut`] (e.g. a reused `Vec<u8>`
    /// scratch buffer cleared between sends, avoiding a fresh allocation
    /// per message).
    pub fn encode_into<B: BufMut>(&self, b: &mut B) {
        put_header(b, &self.header);
        match &self.body {
            Body::Data(d) => {
                b.put_u8(TAG_DATA);
                put_name(b, &d.name);
                b.put_u8(d.is_repair as u8);
                match d.answering {
                    Some(s) => {
                        b.put_u8(1);
                        b.put_u64(s.0);
                    }
                    None => b.put_u8(0),
                }
                b.put_f64(d.dist_to_requestor);
                b.put_u32(d.payload.len() as u32);
                b.put_slice(&d.payload);
            }
            Body::Request(r) => {
                b.put_u8(TAG_REQUEST);
                put_name(b, &r.name);
                b.put_f64(r.dist_to_source);
            }
            Body::Session(s) => {
                b.put_u8(TAG_SESSION);
                put_page(b, &s.page);
                b.put_u32(s.state.len() as u32);
                for (src, seq) in &s.state {
                    b.put_u64(src.0);
                    b.put_u64(seq.0);
                }
                b.put_u32(s.echoes.len() as u32);
                for e in &s.echoes {
                    b.put_u64(e.peer.0);
                    b.put_u64(e.their_ts.as_nanos());
                    b.put_u64(e.delay.as_nanos());
                }
                b.put_f32(s.loss_rate);
                b.put_u32(s.loss_fingerprint.len() as u32);
                for n in &s.loss_fingerprint {
                    put_name(b, n);
                }
            }
            Body::PageRequest(p) => {
                b.put_u8(TAG_PAGE_REQUEST);
                put_page(b, &p.page);
            }
            Body::Parity(p) => {
                b.put_u8(TAG_PARITY);
                b.put_u64(p.source.0);
                put_page(b, &p.page);
                b.put_u64(p.block_start.0);
                b.put_u8(p.k);
                b.put_u32(p.xor_len);
                b.put_u32(p.xor_payload.len() as u32);
                b.put_slice(&p.xor_payload);
            }
            Body::RecoveryInvite(i) => {
                b.put_u8(TAG_RECOVERY_INVITE);
                b.put_u32(i.group);
            }
            Body::PageCatalogRequest => {
                b.put_u8(TAG_PAGE_CATALOG_REQUEST);
            }
            Body::PageCatalog(pages) => {
                b.put_u8(TAG_PAGE_CATALOG);
                b.put_u32(pages.len() as u32);
                for p in pages {
                    put_page(b, p);
                }
            }
        }
    }

    /// Decode from bytes.
    ///
    /// Every field is read out of `buf`'s slice in place, with one length
    /// check per field; a data or parity payload is `buf` itself narrowed
    /// to it, so it shares the datagram's allocation. Bytes after the
    /// message are ignored.
    pub fn decode(buf: Bytes) -> Result<Message, WireError> {
        let mut r = Reader { rest: &buf[..] };
        let header = Header {
            sender: SourceId(r.u64()?),
            timestamp: r.time()?,
        };
        let body = match r.u8()? {
            TAG_DATA => {
                let name = r.name()?;
                let is_repair = r.u8()? != 0;
                let answering = match r.u8()? {
                    0 => None,
                    _ => Some(SourceId(r.u64()?)),
                };
                let dist_to_requestor = r.f64()?;
                let len = r.u32()? as usize;
                let after = r.skip(len)?;
                Body::Data(DataBody {
                    name,
                    is_repair,
                    answering,
                    dist_to_requestor,
                    payload: skipped(buf, len, after),
                })
            }
            TAG_REQUEST => Body::Request(RequestBody {
                name: r.name()?,
                dist_to_source: r.f64()?,
            }),
            TAG_SESSION => {
                let page = r.page()?;
                let n = r.list_len()?;
                let mut state = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    state.push((SourceId(r.u64()?), SeqNo(r.u64()?)));
                }
                let n = r.list_len()?;
                let mut echoes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    echoes.push(Echo {
                        peer: SourceId(r.u64()?),
                        their_ts: r.time()?,
                        delay: SimDuration::from_nanos(r.u64()?),
                    });
                }
                let loss_rate = r.f32()?;
                let n = r.list_len()?;
                let mut loss_fingerprint = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    loss_fingerprint.push(r.name()?);
                }
                Body::Session(SessionBody {
                    page,
                    state,
                    echoes,
                    loss_rate,
                    loss_fingerprint,
                })
            }
            TAG_PAGE_REQUEST => Body::PageRequest(PageRequestBody { page: r.page()? }),
            TAG_PARITY => {
                let source = SourceId(r.u64()?);
                let page = r.page()?;
                let block_start = SeqNo(r.u64()?);
                let k = r.u8()?;
                let xor_len = r.u32()?;
                let len = r.u32()? as usize;
                let after = r.skip(len)?;
                Body::Parity(Parity {
                    source,
                    page,
                    block_start,
                    k,
                    xor_len,
                    xor_payload: skipped(buf, len, after),
                })
            }
            TAG_RECOVERY_INVITE => Body::RecoveryInvite(RecoveryInviteBody { group: r.u32()? }),
            TAG_PAGE_CATALOG_REQUEST => Body::PageCatalogRequest,
            TAG_PAGE_CATALOG => {
                let n = r.list_len()?;
                let mut pages = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    pages.push(r.page()?);
                }
                Body::PageCatalog(pages)
            }
            t => return Err(WireError::BadTag(t)),
        };
        Ok(Message { header, body })
    }
}

fn put_header<B: BufMut>(b: &mut B, h: &Header) {
    b.put_u64(h.sender.0);
    b.put_u64(h.timestamp.as_nanos());
}

fn put_name<B: BufMut>(b: &mut B, n: &AduName) {
    b.put_u64(n.source.0);
    put_page(b, &n.page);
    b.put_u64(n.seq.0);
}

fn put_page<B: BufMut>(b: &mut B, p: &PageId) {
    b.put_u64(p.creator.0);
    b.put_u32(p.number);
}

/// The decode cursor: the unread rest of the buffer being decoded, read
/// one big-endian field at a time with one length check each. A short
/// read is the zero-sized [`Short`], which `?` turns into
/// [`WireError::Truncated`]: a field read then costs what an `Option`
/// does, where a `Result` carrying the whole `WireError` measured several
/// times slower.
struct Reader<'a> {
    rest: &'a [u8],
}

/// A field ran past the end of the buffer.
struct Short;

impl From<Short> for WireError {
    fn from(_: Short) -> WireError {
        WireError::Truncated
    }
}

impl Reader<'_> {
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], Short> {
        let (field, rest) = self.rest.split_first_chunk::<N>().ok_or(Short)?;
        self.rest = rest;
        Ok(*field)
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, Short> {
        Ok(self.take::<1>()?[0])
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, Short> {
        self.take().map(u32::from_be_bytes)
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, Short> {
        self.take().map(u64::from_be_bytes)
    }

    #[inline]
    fn f32(&mut self) -> Result<f32, Short> {
        self.take().map(f32::from_be_bytes)
    }

    #[inline]
    fn f64(&mut self) -> Result<f64, Short> {
        self.take().map(f64::from_be_bytes)
    }

    /// Timestamps travel as integer nanoseconds and are read as such.
    #[inline]
    fn time(&mut self) -> Result<SimTime, Short> {
        self.u64().map(SimTime::from_nanos)
    }

    #[inline]
    fn page(&mut self) -> Result<PageId, Short> {
        Ok(PageId {
            creator: SourceId(self.u64()?),
            number: self.u32()?,
        })
    }

    #[inline]
    fn name(&mut self) -> Result<AduName, Short> {
        Ok(AduName {
            source: SourceId(self.u64()?),
            page: self.page()?,
            seq: SeqNo(self.u64()?),
        })
    }

    /// A list's element count, refused beyond [`MAX_LIST`].
    fn list_len(&mut self) -> Result<usize, WireError> {
        match self.u32()? as usize {
            n if n > MAX_LIST => Err(WireError::BadLength(n)),
            n => Ok(n),
        }
    }

    /// Step over a `len`-byte payload, which [`skipped`] then cuts out;
    /// how many bytes follow it.
    #[inline]
    fn skip(&mut self, len: usize) -> Result<usize, Short> {
        self.rest = self.rest.get(len..).ok_or(Short)?;
        Ok(self.rest.len())
    }
}

/// `buf` narrowed to the `len` bytes a [`Reader`] over it just skipped,
/// `after` bytes before its end: the datagram's own allocation, with no
/// copy and no new reference to it.
fn skipped(mut buf: Bytes, len: usize, after: usize) -> Bytes {
    let end = buf.len() - after;
    buf.truncate(end);
    buf.advance(end - len);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: u64, p: u32, q: u64) -> AduName {
        AduName::new(SourceId(s), PageId::new(SourceId(s), p), SeqNo(q))
    }

    fn header() -> Header {
        Header {
            sender: SourceId(9),
            timestamp: SimTime::from_secs_f64(1.25),
        }
    }

    fn roundtrip(m: &Message) {
        let enc = m.encode();
        assert_eq!(
            enc.len(),
            m.encoded_len(),
            "encoded_len must be exact for {m:?}"
        );
        // Encoding into a plain Vec scratch buffer yields the same bytes.
        let mut scratch = Vec::new();
        m.encode_into(&mut scratch);
        assert_eq!(&scratch[..], &enc[..]);
        let dec = Message::decode(enc).expect("decode");
        assert_eq!(&dec, m);
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(&Message {
            header: header(),
            body: Body::Data(DataBody {
                name: name(1, 2, 3),
                is_repair: false,
                answering: None,
                dist_to_requestor: 0.0,
                payload: Bytes::from_static(b"a blue line"),
            }),
        });
    }

    #[test]
    fn repair_roundtrip() {
        roundtrip(&Message {
            header: header(),
            body: Body::Data(DataBody {
                name: name(1, 2, 3),
                is_repair: true,
                answering: Some(SourceId(4)),
                dist_to_requestor: 2.5,
                payload: Bytes::from_static(b"sector 5"),
            }),
        });
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(&Message {
            header: header(),
            body: Body::Request(RequestBody {
                name: name(7, 0, 99),
                dist_to_source: 4.0,
            }),
        });
    }

    #[test]
    fn session_roundtrip() {
        roundtrip(&Message {
            header: header(),
            body: Body::Session(SessionBody {
                page: PageId::new(SourceId(1), 4),
                state: vec![(SourceId(1), SeqNo(10)), (SourceId(2), SeqNo(0))],
                echoes: vec![Echo {
                    peer: SourceId(2),
                    their_ts: SimTime::from_secs(5),
                    delay: SimDuration::from_millis(250),
                }],
                loss_rate: 0.125,
                loss_fingerprint: vec![name(1, 4, 9), name(2, 4, 3)],
            }),
        });
    }

    /// Timestamps and echo delays are integer nanoseconds on the wire and
    /// come back exactly, far past the point (≈4.19·10¹⁵ ns) where a
    /// round trip through `f64` seconds starts to drift.
    #[test]
    fn nanosecond_timestamps_roundtrip_exactly_at_2_pow_60() {
        for n in [1u64 << 60, (1 << 60) + 1, u64::MAX] {
            roundtrip(&Message {
                header: Header {
                    sender: SourceId(9),
                    timestamp: SimTime::from_nanos(n),
                },
                body: Body::Session(SessionBody {
                    page: PageId::new(SourceId(1), 0),
                    state: vec![],
                    echoes: vec![Echo {
                        peer: SourceId(2),
                        their_ts: SimTime::from_nanos(n),
                        delay: SimDuration::from_nanos(n),
                    }],
                    loss_rate: 0.0,
                    loss_fingerprint: vec![],
                }),
            });
        }
    }

    #[test]
    fn page_catalog_roundtrips() {
        roundtrip(&Message {
            header: header(),
            body: Body::PageCatalogRequest,
        });
        roundtrip(&Message {
            header: header(),
            body: Body::PageCatalog(vec![
                PageId::new(SourceId(1), 0),
                PageId::new(SourceId(2), 7),
            ]),
        });
        roundtrip(&Message {
            header: header(),
            body: Body::PageCatalog(vec![]),
        });
    }

    #[test]
    fn recovery_invite_roundtrip() {
        roundtrip(&Message {
            header: header(),
            body: Body::RecoveryInvite(RecoveryInviteBody { group: 77 }),
        });
    }

    #[test]
    fn parity_roundtrip() {
        roundtrip(&Message {
            header: header(),
            body: Body::Parity(Parity {
                source: SourceId(3),
                page: PageId::new(SourceId(3), 1),
                block_start: SeqNo(8),
                k: 4,
                xor_len: 17,
                xor_payload: Bytes::from_static(b"\x01\x02\x03"),
            }),
        });
    }

    #[test]
    fn page_request_roundtrip() {
        roundtrip(&Message {
            header: header(),
            body: Body::PageRequest(PageRequestBody {
                page: PageId::new(SourceId(3), 2),
            }),
        });
    }

    #[test]
    fn truncated_fails_cleanly() {
        let m = Message {
            header: header(),
            body: Body::Request(RequestBody {
                name: name(7, 0, 99),
                dist_to_source: 4.0,
            }),
        };
        let enc = m.encode();
        for cut in 0..enc.len() {
            let r = Message::decode(enc.slice(0..cut));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let m = Message {
            header: header(),
            body: Body::PageRequest(PageRequestBody {
                page: PageId::new(SourceId(3), 2),
            }),
        };
        let mut enc = BytesMut::from(&m.encode()[..]);
        enc[16] = 200; // corrupt the tag byte (after the 16-byte header)
        assert_eq!(
            Message::decode(enc.freeze()),
            Err(WireError::BadTag(200))
        );
    }

    #[test]
    fn payload_length_is_validated() {
        let m = Message {
            header: header(),
            body: Body::Data(DataBody {
                name: name(1, 2, 3),
                is_repair: false,
                answering: None,
                dist_to_requestor: 0.0,
                payload: Bytes::from_static(b"xyz"),
            }),
        };
        let enc = m.encode();
        // Strip the final payload byte: the length field now overruns.
        let r = Message::decode(enc.slice(0..enc.len() - 1));
        assert_eq!(r, Err(WireError::Truncated));
    }
}
