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
fn write_packed(out: &mut Vec<u8>, values: &[u64], bits: usize) {
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
/// Panics if `bits > 64` or `out` has the wrong length.
pub fn pack_bits_into(values: &[u64], bits: usize, out: &mut [u8]) {
    let mask = low_mask(bits);
    assert_eq!(
        out.len(),
        (values.len() * bits).div_ceil(8),
        "packed buffer size"
    );
    // `fill < 64` bits are pending in `acc` between values; one more
    // value brings at most 127, so a u128 never overflows.
    let mut acc = 0u128;
    let mut fill = 0usize;
    let mut pos = 0usize;
    for &v in values {
        acc |= ((v & mask) as u128) << fill;
        fill += bits;
        if fill >= 64 {
            out[pos..pos + 8].copy_from_slice(&(acc as u64).to_le_bytes());
            pos += 8;
            acc >>= 64;
            fill -= 64;
        }
    }
    // The last, partial word: up to 8 bytes when 57..=63 bits pend.
    let tail = &mut out[pos..];
    let tail_len = tail.len();
    debug_assert_eq!(tail_len, fill.div_ceil(8));
    tail.copy_from_slice(&(acc as u64).to_le_bytes()[..tail_len]);
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
/// Panics if `bits > 64` or `bytes` is shorter than the packed values.
pub fn unpack_bits_into(bytes: &[u8], bits: usize, out: &mut [u64]) {
    unpack_bits_max(bytes, bits, out);
}

/// [`unpack_bits_into`] that also returns the largest value unpacked
/// (0 for none), so a validating reader gets its range check from the
/// same pass.
pub(crate) fn unpack_bits_max(bytes: &[u8], bits: usize, out: &mut [u64]) -> u64 {
    let mask = low_mask(bits);
    assert!(
        bytes.len() >= (out.len() * bits).div_ceil(8),
        "packed input too short"
    );
    // Refill 64 bits whenever fewer than `bits` are pending, so `acc`
    // holds under 128. The last word may be partial; its missing bytes
    // read as zero and lie past every bit the loop consumes.
    let mut acc = 0u128;
    let mut fill = 0usize;
    let mut words = bytes.chunks(8);
    let mut max = 0u64;
    for slot in out.iter_mut() {
        if fill < bits {
            let chunk = words.next().expect("length checked above");
            let word = <[u8; 8]>::try_from(chunk).unwrap_or_else(|_| {
                let mut padded = [0u8; 8];
                padded[..chunk.len()].copy_from_slice(chunk);
                padded
            });
            acc |= (u64::from_le_bytes(word) as u128) << fill;
            fill += 64;
        }
        let v = acc as u64 & mask;
        acc >>= bits;
        fill -= bits;
        max = max.max(v);
        *slot = v;
    }
    max
}

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
