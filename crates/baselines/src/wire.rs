//! Wire format shared by the baseline protocols.
//!
//! Deliberately minimal: a tag, a sequence number, and the speaking node.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use netsim::{NodeId, Packet};

/// Baseline protocol messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineMsg {
    /// Multicast data from the sender.
    Data {
        /// Sequence number.
        seq: u64,
    },
    /// Positive acknowledgment, unicast receiver → sender.
    Ack {
        /// Acknowledged sequence number.
        seq: u64,
        /// The acknowledging receiver.
        from: NodeId,
    },
    /// Negative acknowledgment, unicast receiver → sender.
    Nack {
        /// The missing sequence number.
        seq: u64,
        /// The complaining receiver.
        from: NodeId,
    },
    /// Retransmission, unicast sender → one receiver.
    Retx {
        /// Sequence number being retransmitted.
        seq: u64,
    },
}

const TAG_DATA: u8 = 1;
const TAG_ACK: u8 = 2;
const TAG_NACK: u8 = 3;
const TAG_RETX: u8 = 4;

impl BaselineMsg {
    /// Encode.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        match *self {
            BaselineMsg::Data { seq } => {
                b.put_u8(TAG_DATA);
                b.put_u64(seq);
            }
            BaselineMsg::Ack { seq, from } => {
                b.put_u8(TAG_ACK);
                b.put_u64(seq);
                b.put_u32(from.0);
            }
            BaselineMsg::Nack { seq, from } => {
                b.put_u8(TAG_NACK);
                b.put_u64(seq);
                b.put_u32(from.0);
            }
            BaselineMsg::Retx { seq } => {
                b.put_u8(TAG_RETX);
                b.put_u64(seq);
            }
        }
        b.freeze()
    }

    /// Decode; `None` on malformed input.
    pub fn decode(mut buf: Bytes) -> Option<BaselineMsg> {
        if buf.len() < 9 {
            return None;
        }
        let tag = buf.get_u8();
        let seq = buf.get_u64();
        Some(match tag {
            TAG_DATA => BaselineMsg::Data { seq },
            TAG_ACK => {
                if buf.len() < 4 {
                    return None;
                }
                BaselineMsg::Ack {
                    seq,
                    from: NodeId(buf.get_u32()),
                }
            }
            TAG_NACK => {
                if buf.len() < 4 {
                    return None;
                }
                BaselineMsg::Nack {
                    seq,
                    from: NodeId(buf.get_u32()),
                }
            }
            TAG_RETX => BaselineMsg::Retx { seq },
            _ => return None,
        })
    }

    /// Decode `pkt`'s payload through the slot every copy of it shares
    /// ([`Packet::decoded`]), so a multicast is decoded once however many
    /// receivers hear it.
    pub(crate) fn from_packet(pkt: &Packet) -> Option<BaselineMsg> {
        match pkt.decoded(|payload| BaselineMsg::decode(payload.clone())) {
            Some(msg) => *msg,
            None => BaselineMsg::decode(pkt.payload.clone()),
        }
    }
}

/// Flow labels for baseline traffic (distinct from SRM's).
pub mod flow {
    /// Multicast data.
    pub const DATA: u32 = 20;
    /// ACK control traffic.
    pub const ACK: u32 = 21;
    /// NACK control traffic.
    pub const NACK: u32 = 22;
    /// Unicast retransmissions.
    pub const RETX: u32 = 23;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        for m in [
            BaselineMsg::Data { seq: 7 },
            BaselineMsg::Ack {
                seq: 9,
                from: NodeId(3),
            },
            BaselineMsg::Nack {
                seq: 11,
                from: NodeId(5),
            },
            BaselineMsg::Retx { seq: 13 },
        ] {
            assert_eq!(BaselineMsg::decode(m.encode()), Some(m));
        }
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(BaselineMsg::decode(Bytes::from_static(&[1, 2, 3])), None);
        assert_eq!(
            BaselineMsg::decode(Bytes::from_static(&[9, 0, 0, 0, 0, 0, 0, 0, 0])),
            None
        );
        // ACK missing its node id.
        assert_eq!(
            BaselineMsg::decode(Bytes::from_static(&[2, 0, 0, 0, 0, 0, 0, 0, 1])),
            None
        );
    }
}
