//! BFV ciphertexts.

use crate::context::Context;
use crate::keys::KeySeed;
use crate::modulus::Modulus;
use crate::poly::Poly;
use std::sync::Arc;

/// A size-2 BFV ciphertext `(c0, c1)` satisfying
/// `c0 + c1·s = Δ·m + e (mod q)`. Stored in NTT form.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) c0: Poly,
    pub(crate) c1: Poly,
}

impl Ciphertext {
    /// Builds a ciphertext from its two component polynomials.
    ///
    /// # Panics
    ///
    /// Panics if the polynomials are not both in NTT form.
    pub fn from_parts(c0: Poly, c1: Poly) -> Self {
        use crate::poly::PolyForm;
        assert_eq!(c0.form(), PolyForm::Ntt, "c0 must be in NTT form");
        assert_eq!(c1.form(), PolyForm::Ntt, "c1 must be in NTT form");
        Self { c0, c1 }
    }

    /// The first component polynomial.
    pub fn c0(&self) -> &Poly {
        &self.c0
    }

    /// The second component polynomial.
    pub fn c1(&self) -> &Poly {
        &self.c1
    }

    /// The context this ciphertext belongs to.
    pub fn context(&self) -> &Arc<Context> {
        self.c0.context()
    }

    /// Serialized size in bytes (matches
    /// [`EncryptionParams::ciphertext_bytes`]).
    ///
    /// [`EncryptionParams::ciphertext_bytes`]: crate::params::EncryptionParams::ciphertext_bytes
    pub fn byte_size(&self) -> usize {
        self.context().params().ciphertext_bytes()
    }

    /// Serializes the ciphertext to bytes: a 16-byte header followed by
    /// `c0` then `c1`, each modulus's residues bit-packed at that
    /// modulus's width (the size the paper's Table IV reports).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_size());
        write_header(&mut out, self.context());
        write_poly(&mut out, &self.c0);
        write_poly(&mut out, &self.c1);
        out
    }
}

/// A fresh symmetric encryption in the form the client uploads it in:
/// `c0`, and the seed its uniform `c1` is the expansion of — half a
/// [`Ciphertext`]. Made by
/// [`SymmetricEncryptor::encrypt`](crate::encryptor::SymmetricEncryptor::encrypt),
/// read back by [`Ciphertext::try_from_seeded_bytes`].
#[derive(Debug, Clone)]
pub struct SeededCiphertext {
    pub(crate) c0: Poly,
    pub(crate) seed: KeySeed,
}

impl SeededCiphertext {
    /// Serializes to [`EncryptionParams::seeded_ciphertext_bytes`]
    /// bytes: [`Ciphertext::to_bytes`]'s header and packed `c0`, then
    /// the 32-byte seed where `c1` would be.
    ///
    /// [`EncryptionParams::seeded_ciphertext_bytes`]: crate::params::EncryptionParams::seeded_ciphertext_bytes
    pub fn to_bytes(&self) -> Vec<u8> {
        let ctx = self.c0.context();
        let mut out = Vec::with_capacity(ctx.params().seeded_ciphertext_bytes());
        write_header(&mut out, ctx);
        write_poly(&mut out, &self.c0);
        out.extend_from_slice(&self.seed);
        out
    }
}

/// A result read at a few coefficients only, in the form a
/// coefficient-packed layer's results travel in: `c1` whole, in NTT
/// form, and `c0` in coefficient form at `positions` alone. Coefficient
/// `i` of the phase `c0 + c1·s` needs `c0[i]` and all of `c1`, so the
/// positions decrypt exactly as they would from the whole ciphertext
/// ([`Decryptor::decrypt_sparse`](crate::encryptor::Decryptor::decrypt_sparse)).
/// Made by
/// [`Evaluator::mask_result_sparse`](crate::evaluator::Evaluator::mask_result_sparse),
/// read back by [`SparseCiphertext::try_from_bytes`].
#[derive(Debug, Clone)]
pub struct SparseCiphertext {
    /// `c0`'s residues at the positions, one row of `positions.len()` a
    /// modulus.
    pub(crate) c0: Vec<u64>,
    pub(crate) c1: Poly,
    pub(crate) positions: Vec<usize>,
}

impl SparseCiphertext {
    /// `ct` with `c0` cut down to `positions` (one inverse transform of
    /// `c0`).
    ///
    /// # Panics
    ///
    /// Panics if a position is not below the degree.
    pub fn from_full(ct: &Ciphertext, positions: &[usize]) -> Self {
        let mut c0 = ct.c0.clone();
        c0.to_coeff();
        Self::gather(&c0, ct.c1.clone(), positions)
    }

    /// `c0` (in coefficient form) at `positions`, beside `c1`.
    pub(crate) fn gather(c0: &Poly, c1: Poly, positions: &[usize]) -> Self {
        use crate::poly::PolyForm;
        assert_eq!(c0.form(), PolyForm::Coeff, "c0 is read in coefficient form");
        assert_eq!(c1.form(), PolyForm::Ntt, "c1 must be in NTT form");
        let rows = c0.context().moduli_count();
        let c0 = (0..rows)
            .flat_map(|i| positions.iter().map(move |&p| c0.residues(i)[p]))
            .collect();
        Self {
            c0,
            c1,
            positions: positions.to_vec(),
        }
    }

    /// The coefficient indices `c0` is carried at, in blob order.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// `c0`'s residues modulo the `i`-th prime at the positions.
    pub fn c0_residues(&self, i: usize) -> &[u64] {
        let p = self.positions.len();
        &self.c0[i * p..(i + 1) * p]
    }

    /// The second component polynomial, whole.
    pub fn c1(&self) -> &Poly {
        &self.c1
    }

    /// The context this ciphertext belongs to.
    pub fn context(&self) -> &Arc<Context> {
        self.c1.context()
    }

    /// Serializes to
    /// [`EncryptionParams::sparse_ciphertext_bytes`](crate::params::EncryptionParams::sparse_ciphertext_bytes)
    /// bytes: [`Ciphertext::to_bytes`]'s header, `c1` packed as there,
    /// then per modulus `c0`'s residues at the positions, in position
    /// order, packed at that modulus's width, the section padded to a
    /// whole byte. The positions themselves are not written: both
    /// parties derive them from the layer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ctx = self.context();
        let mut out =
            Vec::with_capacity(ctx.params().sparse_ciphertext_bytes(self.positions.len()));
        write_header(&mut out, ctx);
        write_poly(&mut out, &self.c1);
        for (i, m) in ctx.moduli().iter().enumerate() {
            write_packed(&mut out, self.c0_residues(i), residue_bits(m));
        }
        out
    }
}

/// Appends the 16-byte ciphertext header: degree, then modulus count.
fn write_header(out: &mut Vec<u8>, ctx: &Context) {
    out.extend_from_slice(&(ctx.degree() as u64).to_le_bytes());
    out.extend_from_slice(&(ctx.moduli_count() as u64).to_le_bytes());
}

/// Wire width of one residue modulo `m`: the bit length of `m`.
pub(crate) fn residue_bits(m: &Modulus) -> usize {
    64 - m.value().leading_zeros() as usize
}

/// Appends one packed polynomial: per modulus, its residues at
/// [`residue_bits`] bits each, the section padded to a whole byte.
pub(crate) fn write_poly(out: &mut Vec<u8>, poly: &Poly) {
    for (i, m) in poly.context().moduli().iter().enumerate() {
        write_packed(out, poly.residues(i), residue_bits(m));
    }
}

/// Appends one byte-padded section: `values` at `bits` bits each.
pub(crate) fn write_packed(out: &mut Vec<u8>, values: &[u64], bits: usize) {
    let start = out.len();
    out.resize(start + (values.len() * bits).div_ceil(8), 0);
    pack_bits_into(values, bits, &mut out[start..]);
}

fn low_mask(bits: usize) -> u64 {
    assert!(bits <= 64, "at most 64 bits per value");
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Packs `values` into a byte stream at `bits` bits per value
/// (little-endian bit order). Bits of a value above `bits` are dropped.
pub fn pack_bits(values: &[u64], bits: usize) -> Vec<u8> {
    let mut out = vec![0u8; (values.len() * bits).div_ceil(8)];
    pack_bits_into(values, bits, &mut out);
    out
}

/// [`pack_bits`] into an existing buffer of exactly
/// `⌈values.len()·bits / 8⌉` bytes (overwrites every byte).
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64` or `out` has the wrong length.
pub fn pack_bits_into(values: &[u64], bits: usize, out: &mut [u8]) {
    assert!((1..=64).contains(&bits), "1 to 64 bits per value");
    assert_eq!(
        out.len(),
        (values.len() * bits).div_ceil(8),
        "packed buffer size"
    );
    PACK[bits - 1](values, out);
}

/// Unpacks `count` values of `bits` bits each from a byte stream.
pub fn unpack_bits(bytes: &[u8], bits: usize, count: usize) -> Vec<u64> {
    let mut out = vec![0u64; count];
    unpack_bits_into(bytes, bits, &mut out);
    out
}

/// Unpacks `out.len()` values of `bits` bits each into an existing
/// buffer (overwrites every element).
///
/// # Panics
///
/// Panics if `bits` is not in `1..=64` or `bytes` is shorter than the
/// packed values.
pub fn unpack_bits_into(bytes: &[u8], bits: usize, out: &mut [u64]) {
    unpack_bits_max(bytes, bits, out);
}

/// [`unpack_bits_into`] that also returns the largest value unpacked
/// (0 for none), so a validating reader gets its range check from the
/// same pass.
///
/// # Panics
///
/// As [`unpack_bits_into`].
pub fn unpack_bits_max(bytes: &[u8], bits: usize, out: &mut [u64]) -> u64 {
    assert!((1..=64).contains(&bits), "1 to 64 bits per value");
    let len = (out.len() * bits).div_ceil(8);
    assert!(bytes.len() >= len, "packed input too short");
    UNPACK[bits - 1](&bytes[..len], out)
}

// Eight values of `B` bits are exactly `B` bytes, so the codec moves
// them a group at a time through at most eight 64-bit words, every
// shift a constant of the width; a trailing partial group goes through
// the same code, zero-padded. `PACK` and `UNPACK` hold the code of each
// width `B` at `B − 1`.

/// Packs the eight values of `group` at `B` bits into `out`: all `B`
/// bytes of a whole group, or the leading bytes of a padded last one.
#[inline(always)]
fn pack8<const B: usize>(group: &[u64; 8], out: &mut [u8]) {
    let mask = low_mask(B);
    let mut words = [0u64; 8];
    for (k, &v) in group.iter().enumerate() {
        let (v, at) = (v & mask, k * B);
        let (w, shift) = (at / 64, at % 64);
        words[w] |= v << shift;
        if shift + B > 64 {
            words[w + 1] |= v >> (64 - shift);
        }
    }
    let mut bytes = [0u8; 64];
    for (b, w) in bytes.chunks_exact_mut(8).zip(words) {
        b.copy_from_slice(&w.to_le_bytes());
    }
    out.copy_from_slice(&bytes[..out.len()]);
}

/// Unpacks the `out.len() ≤ 8` values of `B` bits that lead `packed`
/// (at most one group's bytes), raising `max` to the largest.
#[inline(always)]
fn unpack8<const B: usize>(packed: &[u8], out: &mut [u64], max: &mut u64) {
    let mask = low_mask(B);
    let mut bytes = [0u8; 64];
    bytes[..packed.len()].copy_from_slice(packed);
    let mut words = [0u64; 8];
    for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
        *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
    }
    for (k, slot) in out.iter_mut().enumerate() {
        let at = k * B;
        let (w, shift) = (at / 64, at % 64);
        let mut v = words[w] >> shift;
        if shift + B > 64 {
            v |= words[w + 1] << (64 - shift);
        }
        *slot = v & mask;
        *max = (*max).max(*slot);
    }
}

/// [`pack_bits_into`] at `B` bits, `out` of the exact length.
fn pack_width<const B: usize>(values: &[u64], out: &mut [u8]) {
    let groups = values.chunks_exact(8);
    let tail = groups.remainder();
    let (whole, last) = out.split_at_mut(values.len() / 8 * B);
    for (group, dst) in groups.zip(whole.chunks_exact_mut(B)) {
        pack8::<B>(group.try_into().expect("a group of 8"), dst);
    }
    if !tail.is_empty() {
        let mut group = [0u64; 8];
        group[..tail.len()].copy_from_slice(tail);
        pack8::<B>(&group, last);
    }
}

/// [`unpack_bits_max`] at `B` bits, `bytes` of the exact length.
fn unpack_width<const B: usize>(bytes: &[u8], out: &mut [u64]) -> u64 {
    let mut max = 0;
    let whole = out.len() / 8 * B;
    let mut groups = out.chunks_exact_mut(8);
    for (group, packed) in (&mut groups).zip(bytes.chunks_exact(B)) {
        unpack8::<B>(packed, group, &mut max);
    }
    // The last byte's bits past the tail's values are not read.
    unpack8::<B>(&bytes[whole..], groups.into_remainder(), &mut max);
    max
}

macro_rules! width_tables {
    ($($b:literal)*) => {
        /// [`pack_width`] of every width `B`, at `B − 1`.
        const PACK: [fn(&[u64], &mut [u8]); 64] = [$(pack_width::<$b>),*];
        /// [`unpack_width`] of every width `B`, at `B − 1`.
        const UNPACK: [fn(&[u8], &mut [u64]) -> u64; 64] = [$(unpack_width::<$b>),*];
    };
}

width_tables!(
    1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62
    63 64
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::encryptor::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::{EncryptionParams, ParamLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn serialization_roundtrip() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(11);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, pk);
        let decryptor = Decryptor::new(&ctx, kg.secret_key().clone());

        let values: Vec<u64> = (0..100u64).collect();
        let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
        let bytes = ct.to_bytes();
        assert_eq!(bytes.len(), ctx.params().ciphertext_bytes());
        let ct2 = Ciphertext::try_from_bytes(&ctx, &bytes).expect("own ciphertext");
        let decoded = encoder.decode(&decryptor.decrypt(&ct2));
        assert_eq!(&decoded[..100], &values[..]);
    }
}
