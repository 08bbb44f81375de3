//! Drawing operations (Section II-C).
//!
//! "Each member drawing on the whiteboard produces a stream of drawing
//! operations, or drawops, that are timestamped and assigned sequence
//! numbers relative to the sender." Most drawops are idempotent and render
//! immediately on receipt; out-of-order arrivals are sorted by timestamp.
//! Deletes — which reference an earlier drawop by name — are "patched after
//! the fact, when the missing data arrives".
//!
//! Each encoded drawop carries an integrity tag (Section III-E warns that
//! corrupt data "can spread like a virus throughout the wb session" when
//! used to answer repairs), here an FNV-1a checksum standing in for the
//! paper's cryptographic signature.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use netsim::SimTime;
use srm::{AduName, PageId, SeqNo, SourceId};
use std::fmt;

/// A point in whiteboard coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point {
    /// Horizontal position.
    pub x: i32,
    /// Vertical position.
    pub y: i32,
}

/// An RGB color.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Color {
    /// Red.
    pub r: u8,
    /// Green.
    pub g: u8,
    /// Blue.
    pub b: u8,
}

impl Color {
    /// The paper's favorite example color.
    pub const BLUE: Color = Color { r: 0, g: 0, b: 255 };
    /// Red, for the circle that replaces the blue line.
    pub const RED: Color = Color { r: 255, g: 0, b: 0 };
    /// Black.
    pub const BLACK: Color = Color { r: 0, g: 0, b: 0 };
}

/// The drawable kinds of operation.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// A line segment ("a drawop to draw a blue line at a particular set of
    /// coordinates on a page").
    Line {
        /// Start point.
        from: Point,
        /// End point.
        to: Point,
        /// Stroke color.
        color: Color,
    },
    /// A circle.
    Circle {
        /// Center.
        center: Point,
        /// Radius.
        radius: u32,
        /// Stroke color.
        color: Color,
    },
    /// A text annotation.
    Text {
        /// Anchor point.
        at: Point,
        /// The text.
        text: String,
        /// Text color.
        color: Color,
    },
    /// Delete an earlier drawop by its persistent name ("to change a blue
    /// line to a red circle, a delete drawop for floyd:5 is sent, then a
    /// drawop for the circle").
    Delete {
        /// The drawop to remove.
        target: AduName,
    },
    /// An axis-aligned rectangle outline.
    Rect {
        /// One corner.
        a: Point,
        /// The opposite corner.
        b: Point,
        /// Stroke color.
        color: Color,
    },
    /// Free-hand drawing: a connected polyline ("one could send line
    /// drawings at 50 points/s for good interactive performance",
    /// Section IX-C).
    Polyline {
        /// The stroke's points, in drawing order.
        points: Vec<Point>,
        /// Stroke color.
        color: Color,
    },
}

/// A timestamped drawing operation — wb's ADU payload.
#[derive(Clone, Debug, PartialEq)]
pub struct DrawOp {
    /// Drawing time at the author, used to sort out-of-order arrivals.
    pub timestamp: SimTime,
    /// What to draw (or delete).
    pub kind: OpKind,
}

/// Decoding failure for a drawop payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrawOpError {
    /// Payload ended early.
    Truncated,
    /// Unknown kind tag.
    BadTag(u8),
    /// The integrity tag did not match — corrupt data must not be rendered
    /// or used to answer repairs.
    BadChecksum,
    /// Text was not valid UTF-8.
    BadText,
}

impl fmt::Display for DrawOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrawOpError::Truncated => write!(f, "drawop truncated"),
            DrawOpError::BadTag(t) => write!(f, "unknown drawop tag {t}"),
            DrawOpError::BadChecksum => write!(f, "drawop integrity check failed"),
            DrawOpError::BadText => write!(f, "drawop text not UTF-8"),
        }
    }
}

impl std::error::Error for DrawOpError {}

const TAG_LINE: u8 = 1;
const TAG_CIRCLE: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_DELETE: u8 = 4;
const TAG_RECT: u8 = 5;
const TAG_POLYLINE: u8 = 6;

/// Refuse polylines longer than this when decoding (corruption guard).
const MAX_POLYLINE: usize = 1 << 16;

impl DrawOp {
    /// Encode to an ADU payload, appending the integrity tag.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64);
        b.put_u64(self.timestamp.as_nanos());
        match &self.kind {
            OpKind::Line { from, to, color } => {
                b.put_u8(TAG_LINE);
                put_point(&mut b, from);
                put_point(&mut b, to);
                put_color(&mut b, color);
            }
            OpKind::Circle {
                center,
                radius,
                color,
            } => {
                b.put_u8(TAG_CIRCLE);
                put_point(&mut b, center);
                b.put_u32(*radius);
                put_color(&mut b, color);
            }
            OpKind::Text { at, text, color } => {
                b.put_u8(TAG_TEXT);
                put_point(&mut b, at);
                put_color(&mut b, color);
                b.put_u32(text.len() as u32);
                b.put_slice(text.as_bytes());
            }
            OpKind::Delete { target } => {
                b.put_u8(TAG_DELETE);
                b.put_u64(target.source.0);
                b.put_u64(target.page.creator.0);
                b.put_u32(target.page.number);
                b.put_u64(target.seq.0);
            }
            OpKind::Rect { a, b: corner, color } => {
                b.put_u8(TAG_RECT);
                put_point(&mut b, a);
                put_point(&mut b, corner);
                put_color(&mut b, color);
            }
            OpKind::Polyline { points, color } => {
                b.put_u8(TAG_POLYLINE);
                put_color(&mut b, color);
                b.put_u32(points.len() as u32);
                for p in points {
                    put_point(&mut b, p);
                }
            }
        }
        let sum = fnv1a(&b);
        b.put_u64(sum);
        b.freeze()
    }

    /// Decode and verify an ADU payload.
    pub fn decode(mut buf: Bytes) -> Result<DrawOp, DrawOpError> {
        if buf.len() < 8 + 1 + 8 {
            return Err(DrawOpError::Truncated);
        }
        // Verify the trailing checksum over everything before it.
        let body = buf.slice(0..buf.len() - 8);
        let expect = (&buf[buf.len() - 8..]).get_u64();
        if fnv1a(&body) != expect {
            return Err(DrawOpError::BadChecksum);
        }
        buf.truncate(body.len());
        let timestamp = SimTime::from_nanos(buf.get_u64());
        let tag = buf.get_u8();
        let kind = match tag {
            TAG_LINE => {
                need(&buf, 16 + 3)?;
                OpKind::Line {
                    from: get_point(&mut buf),
                    to: get_point(&mut buf),
                    color: get_color(&mut buf),
                }
            }
            TAG_CIRCLE => {
                need(&buf, 8 + 4 + 3)?;
                OpKind::Circle {
                    center: get_point(&mut buf),
                    radius: buf.get_u32(),
                    color: get_color(&mut buf),
                }
            }
            TAG_TEXT => {
                need(&buf, 8 + 3 + 4)?;
                let at = get_point(&mut buf);
                let color = get_color(&mut buf);
                let len = buf.get_u32() as usize;
                need(&buf, len)?;
                let text = String::from_utf8(buf.split_to(len).to_vec())
                    .map_err(|_| DrawOpError::BadText)?;
                OpKind::Text { at, text, color }
            }
            TAG_DELETE => {
                need(&buf, 28)?;
                OpKind::Delete {
                    target: AduName::new(
                        SourceId(buf.get_u64()),
                        PageId::new(SourceId(buf.get_u64()), buf.get_u32()),
                        SeqNo(buf.get_u64()),
                    ),
                }
            }
            TAG_RECT => {
                need(&buf, 16 + 3)?;
                OpKind::Rect {
                    a: get_point(&mut buf),
                    b: get_point(&mut buf),
                    color: get_color(&mut buf),
                }
            }
            TAG_POLYLINE => {
                need(&buf, 3 + 4)?;
                let color = get_color(&mut buf);
                let n = buf.get_u32() as usize;
                if n > MAX_POLYLINE {
                    return Err(DrawOpError::Truncated);
                }
                need(&buf, n * 8)?;
                let points = (0..n).map(|_| get_point(&mut buf)).collect();
                OpKind::Polyline { points, color }
            }
            t => return Err(DrawOpError::BadTag(t)),
        };
        Ok(DrawOp { timestamp, kind })
    }

    /// Whether this op is a delete (the non-idempotent, patched case).
    pub fn is_delete(&self) -> bool {
        matches!(self.kind, OpKind::Delete { .. })
    }
}

fn need(buf: &Bytes, n: usize) -> Result<(), DrawOpError> {
    if buf.len() < n {
        Err(DrawOpError::Truncated)
    } else {
        Ok(())
    }
}

fn put_point(b: &mut BytesMut, p: &Point) {
    b.put_i32(p.x);
    b.put_i32(p.y);
}

fn get_point(buf: &mut Bytes) -> Point {
    Point {
        x: buf.get_i32(),
        y: buf.get_i32(),
    }
}

fn put_color(b: &mut BytesMut, c: &Color) {
    b.put_u8(c.r);
    b.put_u8(c.g);
    b.put_u8(c.b);
}

fn get_color(buf: &mut Bytes) -> Color {
    Color {
        r: buf.get_u8(),
        g: buf.get_u8(),
        b: buf.get_u8(),
    }
}

/// FNV-1a over a byte slice (the integrity tag).
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> DrawOp {
        DrawOp {
            timestamp: SimTime::from_secs_f64(1.5),
            kind: OpKind::Line {
                from: Point { x: 0, y: 0 },
                to: Point { x: 10, y: -20 },
                color: Color::BLUE,
            },
        }
    }

    #[test]
    fn line_roundtrip() {
        let op = line();
        assert_eq!(DrawOp::decode(op.encode()).unwrap(), op);
    }

    #[test]
    fn circle_and_text_roundtrip() {
        let c = DrawOp {
            timestamp: SimTime::from_secs(2),
            kind: OpKind::Circle {
                center: Point { x: 5, y: 5 },
                radius: 9,
                color: Color::RED,
            },
        };
        assert_eq!(DrawOp::decode(c.encode()).unwrap(), c);
        let t = DrawOp {
            timestamp: SimTime::from_secs(3),
            kind: OpKind::Text {
                at: Point { x: 1, y: 2 },
                text: "sigcomm-slides.ps sector 5".into(),
                color: Color::BLACK,
            },
        };
        assert_eq!(DrawOp::decode(t.encode()).unwrap(), t);
    }

    #[test]
    fn delete_roundtrip() {
        let d = DrawOp {
            timestamp: SimTime::from_secs(4),
            kind: OpKind::Delete {
                target: AduName::new(
                    SourceId(5),
                    PageId::new(SourceId(5), 2),
                    SeqNo(5),
                ),
            },
        };
        assert_eq!(DrawOp::decode(d.encode()).unwrap(), d);
        assert!(d.is_delete());
        assert!(!line().is_delete());
    }

    #[test]
    fn rect_and_polyline_roundtrip() {
        let r = DrawOp {
            timestamp: SimTime::from_secs(5),
            kind: OpKind::Rect {
                a: Point { x: -3, y: 2 },
                b: Point { x: 10, y: 20 },
                color: Color::BLUE,
            },
        };
        assert_eq!(DrawOp::decode(r.encode()).unwrap(), r);
        let p = DrawOp {
            timestamp: SimTime::from_secs(6),
            kind: OpKind::Polyline {
                points: vec![
                    Point { x: 0, y: 0 },
                    Point { x: 3, y: 1 },
                    Point { x: 5, y: -2 },
                ],
                color: Color::RED,
            },
        };
        assert_eq!(DrawOp::decode(p.encode()).unwrap(), p);
        // Empty stroke is legal.
        let e = DrawOp {
            timestamp: SimTime::from_secs(7),
            kind: OpKind::Polyline {
                points: vec![],
                color: Color::BLACK,
            },
        };
        assert_eq!(DrawOp::decode(e.encode()).unwrap(), e);
    }

    #[test]
    fn corruption_is_detected() {
        let enc = line().encode();
        for i in 0..enc.len() {
            let mut bad = enc.to_vec();
            bad[i] ^= 0xff;
            let r = DrawOp::decode(Bytes::from(bad));
            assert!(r.is_err(), "flipping byte {i} must not decode cleanly");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let enc = line().encode();
        for cut in 0..enc.len() {
            assert!(DrawOp::decode(enc.slice(0..cut)).is_err());
        }
    }
}
