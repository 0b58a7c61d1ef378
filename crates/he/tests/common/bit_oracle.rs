//! The codec's reference: the bit-at-a-time packer and unpacker the
//! word-wise ones in `ciphertext.rs` replaced, kept verbatim as the
//! oracle for the wire layout. Shared by the integration tests
//! (`mod common`) and by `serial.rs`'s unit tests (`#[path]`), which
//! can reach key polynomials the public API does not expose.

/// Packs `values` at `bits` bits each, LSB first; bits of a value above
/// `bits` are ignored.
pub fn pack_bits(values: &[u64], bits: usize) -> Vec<u8> {
    let mut out = vec![0u8; (values.len() * bits).div_ceil(8)];
    let mut bitpos = 0usize;
    for &v in values {
        for b in 0..bits {
            if (v >> b) & 1 == 1 {
                out[(bitpos + b) / 8] |= 1 << ((bitpos + b) % 8);
            }
        }
        bitpos += bits;
    }
    out
}

/// Unpacks `count` values of `bits` bits each.
pub fn unpack_bits(bytes: &[u8], bits: usize, count: usize) -> Vec<u64> {
    let mut out = vec![0u64; count];
    let mut bitpos = 0usize;
    for slot in out.iter_mut() {
        let mut v = 0u64;
        for b in 0..bits {
            let p = bitpos + b;
            if (bytes[p / 8] >> (p % 8)) & 1 == 1 {
                v |= 1 << b;
            }
        }
        *slot = v;
        bitpos += bits;
    }
    out
}
