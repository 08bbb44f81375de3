//! What an ADU carries: its due time, its place in the stream, and a
//! checksum, so a receiver can tell *which* scheduled publication arrived,
//! how late, and whether the bytes survived.
//!
//! Node-published ADUs are binary. Hub-published ADUs go through the
//! control plane's `send`, which takes text and appends ` #i` when asked
//! for several, so theirs is hex text padded to the same total length.

use bytes::Bytes;

/// FNV-1a, 64 bit.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in parts.iter().flat_map(|p| p.iter()) {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const HEAD: usize = 24;

/// A `len`-byte payload (at least 24): due time, sequence index, checksum
/// over everything else, then seeded filler.
pub fn node_payload(len: usize, due_ns: u64, seq: u64, source: u64, seed: u64) -> Bytes {
    let mut v = vec![0u8; len.max(HEAD)];
    v[0..8].copy_from_slice(&due_ns.to_be_bytes());
    v[8..16].copy_from_slice(&seq.to_be_bytes());
    let mut x = seed ^ source.rotate_left(32) ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for chunk in v[HEAD..].chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_be_bytes()[..chunk.len()]);
    }
    let sum = fnv1a(&[&v[0..16], &source.to_be_bytes(), &v[HEAD..]]);
    v[16..24].copy_from_slice(&sum.to_be_bytes());
    Bytes::from(v)
}

/// Verify a node payload; returns `(due_ns, seq)` when the checksum holds.
pub fn check_node_payload(p: &[u8], source: u64) -> Option<(u64, u64)> {
    if p.len() < HEAD {
        return None;
    }
    let word = |i: usize| u64::from_be_bytes(p[i..i + 8].try_into().expect("8 bytes"));
    let sum = fnv1a(&[&p[0..16], &source.to_be_bytes(), &p[HEAD..]]);
    (sum == word(16)).then(|| (word(0), word(8)))
}

/// The text handed to `HubHandle::send(group, text, count)` so that each of
/// the `count > 1` ADUs it makes (`"{text} #{i}"`, `i` one digit) is `len`
/// bytes: 16 hex digits of due time, 16 of checksum, `x` padding.
pub fn hub_text(len: usize, due_ns: u64, group: u32) -> String {
    let sum = fnv1a(&[&due_ns.to_be_bytes(), &group.to_be_bytes()]);
    let mut s = format!("{due_ns:016x}{sum:016x}");
    while s.len() + 3 < len {
        s.push('x');
    }
    s
}

/// Verify a hub-published payload; returns its due time.
pub fn check_hub_payload(p: &[u8], group: u32) -> Option<u64> {
    let s = std::str::from_utf8(p).ok()?;
    let due = u64::from_str_radix(s.get(0..16)?, 16).ok()?;
    let sum = u64::from_str_radix(s.get(16..32)?, 16).ok()?;
    let rest = s.get(32..)?;
    let pad_ok = rest
        .trim_start_matches('x')
        .strip_prefix(" #")
        .is_none_or(|i| i.len() == 1);
    (pad_ok && sum == fnv1a(&[&due.to_be_bytes(), &group.to_be_bytes()])).then_some(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_payload_round_trips_and_detects_damage() {
        for len in [24, 64, 1024] {
            let p = node_payload(len, 123_456_789, 42, 3, 99);
            assert_eq!(p.len(), len);
            assert_eq!(check_node_payload(&p, 3), Some((123_456_789, 42)));
            assert_eq!(check_node_payload(&p, 4), None, "another source's ADU");
            let mut bad = p.to_vec();
            let last = bad.len() - 1;
            bad[last] ^= 1;
            assert_eq!(check_node_payload(&bad, 3), None);
        }
        assert_eq!(check_node_payload(b"short", 1), None);
        assert_ne!(
            node_payload(64, 1, 1, 1, 1),
            node_payload(64, 1, 1, 1, 2),
            "seeded filler"
        );
    }

    #[test]
    fn hub_payload_is_sized_for_the_control_planes_suffix() {
        let text = hub_text(64, 5_000_000, 2);
        let adu = format!("{text} #7");
        assert_eq!(adu.len(), 64);
        assert_eq!(check_hub_payload(adu.as_bytes(), 2), Some(5_000_000));
        assert_eq!(check_hub_payload(adu.as_bytes(), 3), None);
        assert_eq!(
            check_hub_payload(text.as_bytes(), 2),
            Some(5_000_000),
            "count == 1 form"
        );
        let mut bad = adu.into_bytes();
        bad[3] = b'f';
        assert_eq!(check_hub_payload(&bad, 2), None);
    }
}
