//! Validated (non-panicking) serialization for HE objects that travel
//! on the wire: ciphertexts (a result's full form, a coefficient-packed
//! result's sparse form, an upload's seeded form), public keys, and
//! Galois rotation keys.
//!
//! The byte layouts reuse [`Ciphertext::to_bytes`]'s bit-packing (each
//! RNS modulus's residues packed at that modulus's width), and every
//! decoder rejects malformed input — wrong header, truncated payload,
//! trailing bytes, or residues outside `[0, q_i)` — with a
//! [`SerialError`] instead of panicking, so garbage received from a
//! network peer can never crash a session.
//!
//! `GaloisKeys` entries are written **sorted by Galois element** so the
//! encoding is deterministic (the in-memory store is a `HashMap` with
//! nondeterministic iteration order).

use crate::ciphertext::{residue_bits, unpack_bits_max, write_poly, Ciphertext, SparseCiphertext};
use crate::context::Context;
use crate::keys::{expand_seed, GaloisKeys, KeySeed, KeySwitchKey, PublicKey};
use crate::poly::{Poly, PolyForm};
use crate::pool;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors from validated HE deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerialError {
    /// Input shorter than its declared or implied layout.
    Truncated,
    /// Header fields (degree / modulus count) disagree with the context.
    HeaderMismatch,
    /// Total input length disagrees with the expected layout.
    LengthMismatch,
    /// A packed residue is not reduced modulo its RNS modulus.
    ResidueOutOfRange,
    /// Structural corruption (bad counts, trailing bytes, …).
    Malformed(String),
}

impl fmt::Display for SerialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerialError::Truncated => write!(f, "truncated HE object"),
            SerialError::HeaderMismatch => write!(f, "header does not match context"),
            SerialError::LengthMismatch => write!(f, "payload length mismatch"),
            SerialError::ResidueOutOfRange => write!(f, "residue not reduced mod q_i"),
            SerialError::Malformed(m) => write!(f, "malformed HE object: {m}"),
        }
    }
}

impl std::error::Error for SerialError {}

/// Reads one packed NTT-form polynomial, validating residue ranges.
fn read_poly(ctx: &Arc<Context>, bytes: &[u8], off: &mut usize) -> Result<Poly, SerialError> {
    let n = ctx.degree();
    let k = ctx.moduli_count();
    let mut data = pool::take(k * n);
    for (i, m) in ctx.moduli().iter().enumerate() {
        let bits = residue_bits(m);
        let section = (n * bits).div_ceil(8);
        let src = bytes
            .get(*off..*off + section)
            .ok_or(SerialError::Truncated)?;
        if unpack_bits_max(src, bits, &mut data[i * n..(i + 1) * n]) >= m.value() {
            return Err(SerialError::ResidueOutOfRange);
        }
        *off += section;
    }
    Ok(Poly::from_residues(ctx, data, PolyForm::Ntt))
}

/// Checks a ciphertext blob's 16-byte header against the context.
fn check_header(ctx: &Arc<Context>, bytes: &[u8]) -> Result<(), SerialError> {
    let (hdr_n, rest) = bytes.split_first_chunk().ok_or(SerialError::Truncated)?;
    let hdr_k = rest.first_chunk().ok_or(SerialError::Truncated)?;
    let header = (u64::from_le_bytes(*hdr_n), u64::from_le_bytes(*hdr_k));
    if header != (ctx.degree() as u64, ctx.moduli_count() as u64) {
        return Err(SerialError::HeaderMismatch);
    }
    Ok(())
}

impl Ciphertext {
    /// Deserializes a ciphertext produced by [`Ciphertext::to_bytes`]
    /// under the same context: header mismatches, truncation, trailing
    /// bytes, and unreduced residues are errors, never panics.
    pub fn try_from_bytes(ctx: &Arc<Context>, bytes: &[u8]) -> Result<Self, SerialError> {
        check_header(ctx, bytes)?;
        if bytes.len() != ctx.params().ciphertext_bytes() {
            return Err(SerialError::LengthMismatch);
        }
        let mut off = 16usize;
        let c0 = read_poly(ctx, bytes, &mut off)?;
        let c1 = read_poly(ctx, bytes, &mut off)?;
        if off != bytes.len() {
            return Err(SerialError::LengthMismatch);
        }
        Ok(Self::from_parts(c0, c1))
    }

    /// Deserializes an uploaded ciphertext, the bytes of a
    /// [`SeededCiphertext`](crate::ciphertext::SeededCiphertext): the
    /// same header, `c0` read as [`Ciphertext::try_from_bytes`] reads
    /// it, and `c1` re-expanded from the 32-byte seed behind it
    /// (`keys::expand_seed`, the rotation keys' PRG). The length must
    /// be exact, so a full-form ciphertext is refused, not read as a
    /// `c0` and whatever follows it.
    pub fn try_from_seeded_bytes(ctx: &Arc<Context>, bytes: &[u8]) -> Result<Self, SerialError> {
        check_header(ctx, bytes)?;
        if bytes.len() != ctx.params().seeded_ciphertext_bytes() {
            return Err(SerialError::LengthMismatch);
        }
        let mut off = 16usize;
        let c0 = read_poly(ctx, bytes, &mut off)?;
        let seed: &KeySeed = (bytes.get(off..))
            .and_then(<[u8]>::first_chunk)
            .ok_or(SerialError::Truncated)?;
        // Any seed is valid: its expansion is in range by construction.
        let c1 = expand_seed(ctx, seed, 1).swap_remove(0);
        Ok(Self::from_parts(c0, c1))
    }
}

impl SparseCiphertext {
    /// Deserializes a sparse result carrying `c0` at `positions`, the
    /// bytes of [`SparseCiphertext::to_bytes`]: the same header, a length
    /// that is exact for `positions.len()` (so a full-form result, or a
    /// sparse one for other positions, is a `LengthMismatch`), and every
    /// residue range-checked as [`Ciphertext::try_from_bytes`] checks it.
    ///
    /// # Panics
    ///
    /// Panics if a position is not below the degree (the positions are
    /// the reader's own, not the peer's).
    pub fn try_from_bytes(
        ctx: &Arc<Context>,
        bytes: &[u8],
        positions: &[usize],
    ) -> Result<Self, SerialError> {
        let n = ctx.degree();
        assert!(positions.iter().all(|&p| p < n), "positions below {n}");
        check_header(ctx, bytes)?;
        if bytes.len() != ctx.params().sparse_ciphertext_bytes(positions.len()) {
            return Err(SerialError::LengthMismatch);
        }
        let mut off = 16usize;
        let c1 = read_poly(ctx, bytes, &mut off)?;
        let p = positions.len();
        let mut c0 = vec![0u64; ctx.moduli_count() * p];
        for (row, m) in c0.chunks_exact_mut(p.max(1)).zip(ctx.moduli()) {
            let bits = residue_bits(m);
            let section = (p * bits).div_ceil(8);
            let src = bytes
                .get(off..off + section)
                .ok_or(SerialError::Truncated)?;
            if unpack_bits_max(src, bits, row) >= m.value() {
                return Err(SerialError::ResidueOutOfRange);
            }
            off += section;
        }
        Ok(Self {
            c0,
            c1,
            positions: positions.to_vec(),
        })
    }
}

/// Serializes a public key: packed `b` then `a`.
pub fn public_key_to_bytes(pk: &PublicKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * pk.b.context().params().poly_bytes());
    write_poly(&mut out, &pk.b);
    write_poly(&mut out, &pk.a);
    out
}

/// Deserializes a public key produced by [`public_key_to_bytes`].
pub fn public_key_from_bytes(ctx: &Arc<Context>, bytes: &[u8]) -> Result<PublicKey, SerialError> {
    if bytes.len() != 2 * ctx.params().poly_bytes() {
        return Err(SerialError::LengthMismatch);
    }
    let mut off = 0usize;
    let b = read_poly(ctx, bytes, &mut off)?;
    let a = read_poly(ctx, bytes, &mut off)?;
    Ok(PublicKey { b, a })
}

/// Serializes Galois keys deterministically: `[count u32]` then, per
/// entry **sorted by Galois element**, `[elt u64][digit_count u32]
/// [seed 32 B]` followed by the packed `b_i` of each key-switch digit.
/// The `a_i` are not written: the reader re-expands them from the seed
/// (`keys::expand_seed`), which halves the blob.
pub fn galois_keys_to_bytes(gk: &GaloisKeys) -> Vec<u8> {
    let mut elements: Vec<usize> = gk.elements().collect();
    elements.sort_unstable();
    // Exact size up front: the blob is megabytes and must not regrow.
    let key_bytes = |ksk: &KeySwitchKey| ksk.pairs[0].0.context().params().galois_key_bytes();
    let size = 4 + gk.keys.values().map(key_bytes).sum::<usize>();
    let mut out = Vec::with_capacity(size);
    out.extend_from_slice(&(elements.len() as u32).to_le_bytes());
    for elt in elements {
        let ksk = &gk.keys[&elt];
        write_galois_entry_header(&mut out, elt, ksk.pairs.len(), &ksk.seed);
        for (b, _) in &ksk.pairs {
            write_poly(&mut out, b);
        }
    }
    out
}

/// Appends the head of one Galois key entry: its element, its digit
/// count and its seed, the packed `b_i` to follow.
pub(crate) fn write_galois_entry_header(
    out: &mut Vec<u8>,
    elt: usize,
    digits: usize,
    seed: &KeySeed,
) {
    out.extend_from_slice(&(elt as u64).to_le_bytes());
    out.extend_from_slice(&(digits as u32).to_le_bytes());
    out.extend_from_slice(seed);
}

/// Deserializes Galois keys produced by [`galois_keys_to_bytes`].
pub fn galois_keys_from_bytes(ctx: &Arc<Context>, bytes: &[u8]) -> Result<GaloisKeys, SerialError> {
    let count = read_u32(bytes, 0)? as usize;
    // Sanity bound: no real key set has anywhere near this many entries.
    if count > 1 << 16 {
        return Err(SerialError::Malformed(format!(
            "implausible galois entry count {count}"
        )));
    }
    let mut off = 4usize;
    let mut keys = HashMap::with_capacity(count);
    for _ in 0..count {
        let elt = read_u64(bytes, off)? as usize;
        off += 8;
        // The element indexes the automorphism table built below.
        if elt % 2 != 1 || elt >= 2 * ctx.degree() {
            return Err(SerialError::Malformed(format!(
                "galois element {elt} is not an odd residue mod 2N"
            )));
        }
        let digits = read_u32(bytes, off)? as usize;
        off += 4;
        // One pair per RNS digit: the key switch pairs them one to one.
        if digits != ctx.moduli_count() {
            return Err(SerialError::Malformed(format!(
                "bad key-switch digit count {digits}"
            )));
        }
        let seed: KeySeed = *bytes
            .get(off..)
            .and_then(<[u8]>::first_chunk)
            .ok_or(SerialError::Truncated)?;
        off += seed.len();
        let b = (0..digits)
            .map(|_| read_poly(ctx, bytes, &mut off))
            .collect::<Result<Vec<_>, _>>()?;
        // Any seed is valid: its expansion is in range by construction.
        let ksk = KeySwitchKey::from_seeded(ctx, elt, seed, b);
        if keys.insert(elt, ksk).is_some() {
            return Err(SerialError::Malformed(format!(
                "duplicate galois element {elt}"
            )));
        }
    }
    if off != bytes.len() {
        return Err(SerialError::LengthMismatch);
    }
    Ok(GaloisKeys { keys })
}

fn read_u32(bytes: &[u8], off: usize) -> Result<u32, SerialError> {
    let s = bytes.get(off..off + 4).ok_or(SerialError::Truncated)?;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn read_u64(bytes: &[u8], off: usize) -> Result<u64, SerialError> {
    let s = bytes.get(off..off + 8).ok_or(SerialError::Truncated)?;
    Ok(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

/// The bit-at-a-time codec this module's layout was defined by, shared
/// with the integration tests.
#[cfg(test)]
#[path = "../tests/common/bit_oracle.rs"]
mod bit_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::encryptor::{Decryptor, Encryptor};
    use crate::evaluator::Evaluator;
    use crate::keys::KeyGenerator;
    use crate::params::{EncryptionParams, ParamLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> Arc<Context> {
        Context::new(EncryptionParams::new(ParamLevel::N4096))
    }

    #[test]
    fn public_key_roundtrip_encrypts() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let bytes = public_key_to_bytes(&pk);
        let pk2 = public_key_from_bytes(&ctx, &bytes).unwrap();
        let encoder = BatchEncoder::new(&ctx);
        let enc = Encryptor::new(&ctx, pk2);
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let ct = enc.encrypt(&encoder.encode(&[5, 6, 7]), &mut rng);
        assert_eq!(&encoder.decode(&dec.decrypt(&ct))[..3], &[5, 6, 7]);
    }

    #[test]
    fn galois_keys_roundtrip_is_deterministic_and_rotates() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let elts = [
            crate::encoding::galois_elt_from_step(1, ctx.degree()),
            crate::encoding::galois_elt_from_step(-2, ctx.degree()),
        ];
        let gk = kg.galois_keys(&elts, &mut rng);
        let bytes = galois_keys_to_bytes(&gk);
        // Deterministic despite HashMap storage.
        assert_eq!(bytes, galois_keys_to_bytes(&gk));
        let gk2 = galois_keys_from_bytes(&ctx, &bytes).unwrap();
        assert_eq!(bytes, galois_keys_to_bytes(&gk2));

        let encoder = BatchEncoder::new(&ctx);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let ev = Evaluator::new(&ctx);
        let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 97).collect();
        let ct = enc.encrypt(&encoder.encode(&values), &mut rng);
        let rot = ev.rotate_rows(&ct, 1, &gk2);
        let out = encoder.decode(&dec.decrypt(&rot));
        let expected = crate::encoding::rotate_slots_reference(&values, 1);
        assert_eq!(out, expected);
    }

    /// Key blobs are exactly what the bit loop wrote: `polys` in order,
    /// per modulus one byte-padded section at that modulus's width.
    fn oracle_polys(polys: &[&Poly]) -> Vec<u8> {
        let mut out = Vec::new();
        for poly in polys {
            for (i, m) in poly.context().moduli().iter().enumerate() {
                let bits = residue_bits(m);
                let section = bit_oracle::pack_bits(poly.residues(i), bits);
                let n = poly.residues(i).len();
                assert_eq!(bit_oracle::unpack_bits(&section, bits, n), poly.residues(i));
                out.extend_from_slice(&section);
            }
        }
        out
    }

    #[test]
    fn key_blobs_equal_oracle_packing() {
        for level in [ParamLevel::N4096, ParamLevel::N8192] {
            let ctx = Context::new(EncryptionParams::new(level));
            let mut rng = StdRng::seed_from_u64(6);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let pk = kg.public_key(&mut rng);
            assert_eq!(public_key_to_bytes(&pk), oracle_polys(&[&pk.b, &pk.a]));

            // Inserted out of order: entries are written sorted.
            let elts = [2 * ctx.degree() - 1, 3, 9];
            let gk = kg.galois_keys(&elts, &mut rng);
            let mut want = 3u32.to_le_bytes().to_vec();
            for elt in [3, 9, 2 * ctx.degree() - 1] {
                let pairs = &gk.keys[&elt].pairs;
                want.extend_from_slice(&(elt as u64).to_le_bytes());
                want.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
                want.extend_from_slice(&gk.keys[&elt].seed);
                for (b, _) in pairs {
                    want.extend_from_slice(&oracle_polys(&[b]));
                }
            }
            assert_eq!(galois_keys_to_bytes(&gk), want, "{level}");
        }
    }

    #[test]
    fn try_from_bytes_rejects_garbage() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let ct = enc.encrypt(&encoder.encode(&[1, 2]), &mut rng);
        let good = ct.to_bytes();
        assert!(Ciphertext::try_from_bytes(&ctx, &good).is_ok());
        // truncations
        for cut in [0usize, 7, 16, good.len() - 1] {
            assert!(Ciphertext::try_from_bytes(&ctx, &good[..cut]).is_err());
        }
        // header mismatch
        let mut bad = good.clone();
        bad[0] = 0xFF;
        assert!(matches!(
            Ciphertext::try_from_bytes(&ctx, &bad),
            Err(SerialError::HeaderMismatch)
        ));
        // unreduced residues (all bits set in the body)
        let mut bad = good;
        for b in bad.iter_mut().skip(16) {
            *b = 0xFF;
        }
        assert!(matches!(
            Ciphertext::try_from_bytes(&ctx, &bad),
            Err(SerialError::ResidueOutOfRange)
        ));
        // garbage keys never panic
        assert!(public_key_from_bytes(&ctx, &[1, 2, 3]).is_err());
        assert!(galois_keys_from_bytes(&ctx, &[0xFF; 64]).is_err());
        assert!(galois_keys_from_bytes(&ctx, &[]).is_err());
    }

    #[test]
    fn galois_entry_that_no_rotation_could_use_is_malformed() {
        // The element indexes an N-entry automorphism table and the
        // pairs are matched one to one with the k digits: a peer must
        // not get an entry past the reader that breaks either.
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(5);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let good = galois_keys_to_bytes(&kg.galois_keys(&[3], &mut rng));
        let malformed = |bytes: &[u8]| {
            matches!(
                galois_keys_from_bytes(&ctx, bytes),
                Err(SerialError::Malformed(_))
            )
        };
        let two_n = 2 * ctx.degree() as u64;
        for elt in [0, 4, two_n, two_n + 1, u64::MAX] {
            let mut bad = good.clone();
            bad[4..12].copy_from_slice(&elt.to_le_bytes());
            assert!(malformed(&bad), "element {elt}");
        }
        let mut bad = good.clone();
        bad[12..16].copy_from_slice(&(ctx.moduli_count() as u32 - 1).to_le_bytes());
        assert!(malformed(&bad), "short digit count");
        assert!(galois_keys_from_bytes(&ctx, &good).is_ok());
    }
}
