//! Internet checksum arithmetic: full one's-complement sums and the
//! RFC 1624 incremental update the rewrite engine uses.
//!
//! The NAT path changes at most 18 bytes of a frame (destination address
//! and port); recomputing a TCP checksum over a 1500-byte segment for that
//! would dominate the rewrite cost. RFC 1624 eqn. 3 updates the stored
//! checksum from only the changed words:
//!
//! ```text
//! HC' = ~(~HC + ~m + m')
//! ```
//!
//! computed in one's-complement arithmetic. `tests/properties.rs` proves
//! the incremental form bit-identical to a full recompute on random
//! headers (the representation of zero is the only theoretical divergence,
//! and it needs an all-zero checksummed span — impossible for real IP/TCP
//! headers, whose version field is never zero).

/// Fold a 32-bit accumulator into a 16-bit one's-complement sum.
#[inline]
fn fold(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

// srlint: hot-path begin
/// One's-complement sum of `data` interpreted as big-endian 16-bit words,
/// an odd trailing byte padded with zero (RFC 1071). This is the *sum*;
/// the checksum field stores its complement.
#[inline]
pub fn ones_sum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for w in chunks.by_ref() {
        let hi = w.first().copied().unwrap_or(0);
        let lo = w.get(1).copied().unwrap_or(0);
        sum += u32::from(u16::from_be_bytes([hi, lo]));
    }
    if let Some(&last) = chunks.remainder().first() {
        sum += u32::from(u16::from_be_bytes([last, 0]));
    }
    fold(sum)
}

/// Combine partial one's-complement sums (e.g. pseudo-header + segment).
#[inline]
pub fn combine(parts: &[u16]) -> u16 {
    let mut sum = 0u32;
    for &p in parts {
        sum += u32::from(p);
    }
    fold(sum)
}

/// Full checksum of one contiguous span.
#[inline]
pub fn checksum(data: &[u8]) -> u16 {
    !ones_sum(data)
}

/// RFC 1624 (eqn. 3) incremental update: the stored checksum `field`,
/// after the covered bytes `old` were replaced by `new`. `old` and `new`
/// must have the same even length.
#[inline]
pub fn incremental_update(field: u16, old: &[u8], new: &[u8]) -> u16 {
    debug_assert_eq!(old.len(), new.len());
    debug_assert_eq!(old.len() % 2, 0);
    // ~HC is the original one's-complement sum.
    let mut sum = u32::from(!field);
    let olds = old.chunks_exact(2);
    let news = new.chunks_exact(2);
    for (o, n) in olds.zip(news) {
        let ow = u16::from_be_bytes([
            o.first().copied().unwrap_or(0),
            o.get(1).copied().unwrap_or(0),
        ]);
        let nw = u16::from_be_bytes([
            n.first().copied().unwrap_or(0),
            n.get(1).copied().unwrap_or(0),
        ]);
        sum += u32::from(!ow);
        sum += u32::from(nw);
    }
    !fold(sum)
}
// srlint: hot-path end

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_ipv4_header_checksum() {
        // Classic example header (from RFC 1071 discussions): checksum
        // field zeroed for computation.
        let hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(checksum(&hdr), 0xb861);
        // A header carrying its own correct checksum sums to 0xffff.
        let mut full = hdr;
        full[10..12].copy_from_slice(&0xb861u16.to_be_bytes());
        assert_eq!(ones_sum(&full), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(
            ones_sum(&[0x12, 0x34, 0x56]),
            ones_sum(&[0x12, 0x34, 0x56, 0x00])
        );
    }

    #[test]
    fn incremental_matches_full_on_simple_change() {
        let mut data = vec![0u8; 40];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let before = checksum(&data);
        let old = [data[16], data[17], data[18], data[19]];
        let new = [0xde, 0xad, 0xbe, 0xef];
        data[16..20].copy_from_slice(&new);
        let full = checksum(&data);
        assert_eq!(incremental_update(before, &old, &new), full);
    }

    #[test]
    fn combine_is_order_independent() {
        let a = ones_sum(&[1, 2, 3, 4]);
        let b = ones_sum(&[9, 9, 200, 1]);
        assert_eq!(combine(&[a, b]), combine(&[b, a]));
        assert_eq!(combine(&[a, b]), ones_sum(&[1, 2, 3, 4, 9, 9, 200, 1]));
    }
}
