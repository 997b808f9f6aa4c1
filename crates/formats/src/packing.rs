//! The bit accessors of the M2XFP streams: 4-bit element codes, two per
//! byte, and 2-bit subgroup metadata fields, four per byte, both
//! LSB-first.
//!
//! The §5.2 layout itself (which stream holds what, and the byte order of
//! a serialized tensor) is stated once, by `PackedStreams` in
//! `m2xfp::format`; every stream it holds is written and read through
//! these four functions.
//!
//! ```
//! use m2x_formats::packing::{nibble_at, pack_nibbles_into};
//!
//! let mut packed = [0u8; 2];
//! pack_nibbles_into(&[0x3, 0xA, 0xF], &mut packed);
//! assert_eq!(packed, [0xA3, 0x0F]);
//! assert_eq!(nibble_at(&packed, 1), 0xA);
//! ```

/// Packs 4-bit codes into a caller-provided buffer, two per byte, low
/// nibble first.
///
/// Branch-free in the steady state: full pairs are combined with shift-or;
/// only a trailing odd code takes a separate path.
///
/// # Panics
///
/// Panics when `out` is shorter than `codes.len().div_ceil(2)` bytes.
pub fn pack_nibbles_into(codes: &[u8], out: &mut [u8]) {
    let nbytes = codes.len().div_ceil(2);
    assert!(out.len() >= nbytes, "output buffer too short");
    let (pairs, tail) = codes.split_at(codes.len() & !1);
    for (o, pair) in out.iter_mut().zip(pairs.chunks_exact(2)) {
        *o = (pair[0] & 0xF) | ((pair[1] & 0xF) << 4);
    }
    if let Some(&last) = tail.first() {
        out[nbytes - 1] = last & 0xF;
    }
}

/// Reads the `i`-th 4-bit code from a nibble-packed stream.
#[inline(always)]
pub fn nibble_at(bytes: &[u8], i: usize) -> u8 {
    (bytes[i >> 1] >> ((i & 1) * 4)) & 0xF
}

/// Reads the `i`-th 2-bit field from a bit-packed stream (LSB-first within
/// each byte) — the accessor for the M2XFP subgroup-metadata stream.
#[inline(always)]
pub fn two_bits_at(bytes: &[u8], i: usize) -> u8 {
    (bytes[i >> 2] >> ((i & 3) * 2)) & 0b11
}

/// Writes the `i`-th 2-bit field of a bit-packed stream. The target field
/// must currently be zero (streams are built append-only from zeroed
/// buffers).
#[inline(always)]
pub fn set_two_bits(bytes: &mut [u8], i: usize, v: u8) {
    debug_assert_eq!(two_bits_at(bytes, i), 0, "2-bit field {i} already set");
    bytes[i >> 2] |= (v & 0b11) << ((i & 3) * 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_back(packed: &[u8], n: usize) -> Vec<u8> {
        (0..n).map(|i| nibble_at(packed, i)).collect()
    }

    #[test]
    fn nibble_roundtrip() {
        // 32 codes fill the 128-bit element block of one group, as in the
        // paper.
        let codes: Vec<u8> = (0..32).map(|i| (i * 7) as u8 & 0xF).collect();
        let mut block = [0u8; 16];
        pack_nibbles_into(&codes, &mut block);
        assert_eq!(read_back(&block, 32), codes);
    }

    #[test]
    fn nibble_odd_count() {
        let codes = [0x1u8, 0x2, 0x3];
        let mut packed = [0u8; 2];
        pack_nibbles_into(&codes, &mut packed);
        assert_eq!(packed, [0x21, 0x03]);
        assert_eq!(read_back(&packed, 3), codes);
    }
}
