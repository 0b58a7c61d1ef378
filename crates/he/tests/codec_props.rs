//! The word-wise wire codec against the bit-at-a-time loop it replaced
//! (`common::bit_oracle`): identical bytes for every width, length and
//! input — including garbage above the value width, which both mask —
//! identical blobs for ciphertexts, and the same [`SerialError`] from
//! the validated readers for the same malformed input: truncation at
//! every section boundary, trailing bytes, a wrong header, and an
//! unreduced residue in the first or last slot of each modulus section.
//! The uploaded (seeded) ciphertext form is one of the blob kinds. The
//! sparse result form is bit-flip fuzzed: whatever the flips and
//! however the length is cut or grown, its reader answers with a
//! ciphertext, `ResidueOutOfRange` or a length error, and never panics.
//! A Galois key and an uploaded ciphertext are fuzzed the same way:
//! their readers answer with a typed error or with a value that writes
//! back to exactly the bytes read.
//!
//! Public-key and Galois-key blobs are compared against the oracle in
//! `serial.rs`'s unit tests, which can see the key polynomials.

mod common;

use common::bit_oracle;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::ciphertext::{
    pack_bits, pack_bits_into, unpack_bits, unpack_bits_into, unpack_bits_max, Ciphertext,
    SparseCiphertext,
};
use spot_he::context::Context;
use spot_he::encoding::BatchEncoder;
use spot_he::encryptor::{Encryptor, SymmetricEncryptor};
use spot_he::keys::{expand_seed, KeyGenerator};
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_he::serial::{
    galois_keys_from_bytes, galois_keys_to_bytes, public_key_from_bytes, public_key_to_bytes,
    SerialError,
};
use std::sync::Arc;

const LEVELS: [ParamLevel; 2] = [ParamLevel::N4096, ParamLevel::N8192];

/// Full-width random words: everything above `bits` is garbage the
/// packer must drop.
fn garbage(len: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<u64>()).collect()
}

fn assert_codec_matches_oracle(bits: usize, len: usize, seed: u64) {
    let tag = format!("bits={bits} len={len} seed={seed}");
    let values = garbage(len, seed);
    let want = bit_oracle::pack_bits(&values, bits);
    assert_eq!(pack_bits(&values, bits), want, "pack {tag}");
    // Every byte of a dirty buffer is overwritten, padding included.
    let mut dirty = vec![0xA5u8; want.len()];
    pack_bits_into(&values, bits, &mut dirty);
    assert_eq!(dirty, want, "pack_into {tag}");

    let mask = if bits == 64 {
        u64::MAX
    } else {
        (1 << bits) - 1
    };
    let masked: Vec<u64> = values.iter().map(|v| v & mask).collect();
    assert_eq!(
        bit_oracle::unpack_bits(&want, bits, len),
        masked,
        "oracle {tag}"
    );
    assert_eq!(unpack_bits(&want, bits, len), masked, "unpack {tag}");
    let mut dirty = vec![u64::MAX; len];
    unpack_bits_into(&want, bits, &mut dirty);
    assert_eq!(dirty, masked, "unpack_into {tag}");

    // The range check's maximum is the oracle's, and bytes past the
    // packed values (a longer buffer) are never read into a value.
    let mut longer = want.clone();
    longer.extend_from_slice(&[0xFF; 9]);
    let mut dirty = vec![u64::MAX; len];
    let max = unpack_bits_max(&longer, bits, &mut dirty);
    assert_eq!(dirty, masked, "unpack_max {tag}");
    assert_eq!(max, masked.iter().copied().max().unwrap_or(0), "max {tag}");
}

/// Every width against every short length (all phases of value against
/// word and byte boundaries) and the lengths around a 4096-slot row.
#[test]
fn every_width_matches_the_bit_loop() {
    for bits in 1..=64 {
        for len in (0..=130).chain(4093..=4099) {
            assert_codec_matches_oracle(bits, len, (bits * 10_000 + len) as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_width_and_length_matches_the_bit_loop(
        bits in 1usize..=64,
        len in 0usize..=4099,
        seed in 0u64..u64::MAX,
    ) {
        assert_codec_matches_oracle(bits, len, seed);
    }
}

fn ctx(level: ParamLevel) -> Arc<Context> {
    Context::new(EncryptionParams::new(level))
}

/// `(offset, length, bits, q_i)` of every modulus section of `polys`
/// packed polynomials starting at `start`.
fn sections(ctx: &Context, start: usize, polys: usize) -> Vec<(usize, usize, usize, u64)> {
    let mut off = start;
    let mut out = Vec::new();
    for _ in 0..polys {
        for m in ctx.moduli() {
            let bits = 64 - m.value().leading_zeros() as usize;
            let len = (ctx.degree() * bits).div_ceil(8);
            out.push((off, len, bits, m.value()));
            off += len;
        }
    }
    out
}

/// The validated polynomial reader as it was: section by section,
/// truncation before range.
fn oracle_read_polys(
    ctx: &Context,
    bytes: &[u8],
    start: usize,
    polys: usize,
) -> Result<usize, SerialError> {
    let mut end = start;
    for (off, len, bits, q) in sections(ctx, start, polys) {
        let src = bytes.get(off..off + len).ok_or(SerialError::Truncated)?;
        let residues = bit_oracle::unpack_bits(src, bits, ctx.degree());
        if residues.iter().any(|&v| v >= q) {
            return Err(SerialError::ResidueOutOfRange);
        }
        end = off + len;
    }
    Ok(end)
}

fn oracle_ciphertext(ctx: &Context, bytes: &[u8]) -> Result<(), SerialError> {
    let hdr = bytes.get(0..16).ok_or(SerialError::Truncated)?;
    let field = |i: usize| u64::from_le_bytes(hdr[8 * i..8 * i + 8].try_into().unwrap()) as usize;
    if (field(0), field(1)) != (ctx.degree(), ctx.moduli_count()) {
        return Err(SerialError::HeaderMismatch);
    }
    if bytes.len() != ctx.params().ciphertext_bytes() {
        return Err(SerialError::LengthMismatch);
    }
    oracle_read_polys(ctx, bytes, 16, 2).map(|_| ())
}

/// The uploaded form: the same header, an exact length, one polynomial
/// and 32 seed bytes, any value of which is valid.
fn oracle_seeded_ciphertext(ctx: &Context, bytes: &[u8]) -> Result<(), SerialError> {
    let hdr = bytes.get(0..16).ok_or(SerialError::Truncated)?;
    let field = |i: usize| u64::from_le_bytes(hdr[8 * i..8 * i + 8].try_into().unwrap()) as usize;
    if (field(0), field(1)) != (ctx.degree(), ctx.moduli_count()) {
        return Err(SerialError::HeaderMismatch);
    }
    if bytes.len() != 16 + ctx.params().poly_bytes() + SEED_BYTES {
        return Err(SerialError::LengthMismatch);
    }
    oracle_read_polys(ctx, bytes, 16, 1).map(|_| ())
}

/// What a seeded object keeps of its uniform polynomials.
const SEED_BYTES: usize = 32;

fn oracle_public_key(ctx: &Context, bytes: &[u8]) -> Result<(), SerialError> {
    if bytes.len() != 2 * ctx.params().poly_bytes() {
        return Err(SerialError::LengthMismatch);
    }
    oracle_read_polys(ctx, bytes, 0, 2).map(|_| ())
}

/// Element, digit count and seed in front of a Galois key's `b_i`.
const GALOIS_ENTRY_HEADER: usize = 8 + 4 + SEED_BYTES;

/// Blobs of these tests hold well-formed counts, so the `Malformed`
/// arms of the real reader are out of reach and not mirrored.
fn oracle_galois_keys(ctx: &Context, bytes: &[u8]) -> Result<(), SerialError> {
    let u32_at = |off: usize| {
        let s = bytes.get(off..off + 4).ok_or(SerialError::Truncated)?;
        Ok(u32::from_le_bytes(s.try_into().unwrap()) as usize)
    };
    let count = u32_at(0)?;
    let mut off = 4;
    for _ in 0..count {
        bytes.get(off..off + 8).ok_or(SerialError::Truncated)?;
        let digits = u32_at(off + 8)?;
        bytes
            .get(off + 12..off + GALOIS_ENTRY_HEADER)
            .ok_or(SerialError::Truncated)?;
        off = oracle_read_polys(ctx, bytes, off + GALOIS_ENTRY_HEADER, digits)?;
    }
    if off != bytes.len() {
        return Err(SerialError::LengthMismatch);
    }
    Ok(())
}

/// One blob kind: its real validated reader, the oracle reader, and
/// where its packed polynomials sit.
struct Blob {
    name: &'static str,
    good: Vec<u8>,
    real: fn(&Arc<Context>, &[u8]) -> Result<(), SerialError>,
    oracle: fn(&Context, &[u8]) -> Result<(), SerialError>,
    sections: Vec<(usize, usize, usize, u64)>,
}

impl Blob {
    fn check(&self, ctx: &Arc<Context>, bytes: &[u8], what: &str) -> Result<(), SerialError> {
        let got = (self.real)(ctx, bytes);
        assert_eq!(got, (self.oracle)(ctx, bytes), "{} {what}", self.name);
        got
    }
}

fn blobs(ctx: &Arc<Context>) -> Vec<Blob> {
    let mut rng = StdRng::seed_from_u64(77);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let pk = kg.public_key(&mut rng);
    let plain = BatchEncoder::new(ctx).encode(&[1, 2, 3, 4, 5]);
    let ct = Encryptor::new(ctx, pk.clone()).encrypt(&plain, &mut rng);
    let uploaded = SymmetricEncryptor::new(ctx, kg.secret_key().clone()).encrypt(&plain, &mut rng);
    // Two entries where the bit-loop oracle can afford it, so an entry
    // boundary lies inside the blob.
    let elements = [3, 2 * ctx.degree() - 1];
    let entries = if ctx.degree() <= 4096 { 2 } else { 1 };
    let gk = kg.galois_keys(&elements[..entries], &mut rng);
    let entry = ctx.params().galois_key_bytes();
    let gk_sections = (0..entries)
        .flat_map(|e| sections(ctx, 4 + e * entry + GALOIS_ENTRY_HEADER, ctx.moduli_count()))
        .collect();
    vec![
        Blob {
            name: "ciphertext",
            good: ct.to_bytes(),
            real: |ctx, b| Ciphertext::try_from_bytes(ctx, b).map(|_| ()),
            oracle: oracle_ciphertext,
            sections: sections(ctx, 16, 2),
        },
        Blob {
            name: "seeded ciphertext",
            good: uploaded.to_bytes(),
            real: |ctx, b| Ciphertext::try_from_seeded_bytes(ctx, b).map(|_| ()),
            oracle: oracle_seeded_ciphertext,
            sections: sections(ctx, 16, 1),
        },
        Blob {
            name: "public key",
            good: public_key_to_bytes(&pk),
            real: |ctx, b| public_key_from_bytes(ctx, b).map(|_| ()),
            oracle: oracle_public_key,
            sections: sections(ctx, 0, 2),
        },
        Blob {
            name: "galois keys",
            good: galois_keys_to_bytes(&gk),
            real: |ctx, b| galois_keys_from_bytes(ctx, b).map(|_| ()),
            oracle: oracle_galois_keys,
            sections: gk_sections,
        },
    ]
}

#[test]
fn ciphertext_bytes_equal_oracle_packing() {
    for level in LEVELS {
        let ctx = ctx(level);
        let blob = &blobs(&ctx)[0];
        let ct = Ciphertext::try_from_bytes(&ctx, &blob.good).expect("own ciphertext");
        let mut want = Vec::new();
        want.extend_from_slice(&(ctx.degree() as u64).to_le_bytes());
        want.extend_from_slice(&(ctx.moduli_count() as u64).to_le_bytes());
        for poly in [ct.c0(), ct.c1()] {
            for (i, m) in ctx.moduli().iter().enumerate() {
                let bits = 64 - m.value().leading_zeros() as usize;
                want.extend_from_slice(&bit_oracle::pack_bits(poly.residues(i), bits));
            }
        }
        assert_eq!(blob.good, want, "{level}");
        assert_eq!(ct.to_bytes(), want, "{level} after a round trip");
    }
}

#[test]
fn truncation_and_trailing_bytes_give_the_same_error() {
    for level in LEVELS {
        let ctx = ctx(level);
        for blob in blobs(&ctx) {
            assert_eq!(blob.check(&ctx, &blob.good, "intact"), Ok(()));
            // The last 32 bytes of a seeded ciphertext are its seed:
            // cut at its start, inside it and one byte short of its end.
            let end = blob.good.len();
            let mut cuts = vec![0, 1, 3, 4, 5, 8, 15, 16, 17];
            cuts.extend([end - SEED_BYTES, end - SEED_BYTES + 1, end - 1]);
            for &(off, len, ..) in &blob.sections {
                // A Galois key's entry header (element, digit count,
                // seed) ends where its first section starts: cut at its
                // start, after each field, and inside the seed.
                cuts.extend([
                    off.saturating_sub(GALOIS_ENTRY_HEADER),
                    off.saturating_sub(GALOIS_ENTRY_HEADER - 8),
                    off.saturating_sub(GALOIS_ENTRY_HEADER - 12),
                    off.saturating_sub(GALOIS_ENTRY_HEADER - 13),
                    off.saturating_sub(16),
                    off.saturating_sub(1),
                    off,
                    off + 1,
                    off + len - 1,
                ]);
            }
            for cut in cuts {
                let what = format!("cut to {cut} of {}", blob.good.len());
                let got = blob.check(&ctx, &blob.good[..cut], &what);
                assert!(got.is_err(), "{what}");
                if blob.name == "galois keys" {
                    assert_eq!(got, Err(SerialError::Truncated), "{what}");
                }
            }
            // Between those, the real reader alone (the bit loop is too
            // slow for it): no prefix of the blob parses or panics.
            for cut in (0..blob.good.len()).step_by(1021) {
                let got = (blob.real)(&ctx, &blob.good[..cut]);
                assert!(got.is_err(), "{} cut to {cut}", blob.name);
            }
            let mut long = blob.good.clone();
            long.push(0);
            assert_eq!(
                blob.check(&ctx, &long, "one trailing byte"),
                Err(SerialError::LengthMismatch)
            );
        }
    }
}

/// A ciphertext of another degree or modulus count is refused from its
/// header, in either form, whatever its length.
#[test]
fn a_wrong_header_is_a_header_mismatch() {
    for level in LEVELS {
        let ctx = ctx(level);
        for blob in blobs(&ctx)
            .iter()
            .filter(|b| b.name.ends_with("ciphertext"))
        {
            for field in [0, 8] {
                let mut bad = blob.good.clone();
                bad[field] ^= 1;
                let what = format!("header byte {field} flipped");
                assert_eq!(
                    blob.check(&ctx, &bad, &what),
                    Err(SerialError::HeaderMismatch),
                    "{} {what}",
                    blob.name
                );
            }
            // The other level's blob, whole: its header speaks first.
            let other = self::ctx(LEVELS[(level == LEVELS[0]) as usize]);
            let foreign = blobs(&other);
            let foreign = foreign.iter().find(|b| b.name == blob.name).unwrap();
            assert_eq!(
                blob.check(&ctx, &foreign.good, "the other level's blob"),
                Err(SerialError::HeaderMismatch),
                "{}",
                blob.name
            );
        }
    }
}

#[test]
fn unreduced_residue_in_first_or_last_slot_gives_the_same_error() {
    for level in LEVELS {
        let ctx = ctx(level);
        let n = ctx.degree();
        for blob in blobs(&ctx) {
            for (s, &(off, len, bits, q)) in blob.sections.iter().enumerate() {
                for slot in [0, n - 1] {
                    // `q - 1` is the largest residue the reader admits,
                    // `q` the smallest it must refuse.
                    for (planted, want) in
                        [(q - 1, Ok(())), (q, Err(SerialError::ResidueOutOfRange))]
                    {
                        let mut bad = blob.good.clone();
                        let mut residues = bit_oracle::unpack_bits(&bad[off..off + len], bits, n);
                        residues[slot] = planted;
                        bad[off..off + len]
                            .copy_from_slice(&bit_oracle::pack_bits(&residues, bits));
                        let what = format!("section {s} slot {slot} = {planted}");
                        assert_eq!(blob.check(&ctx, &bad, &what), want, "{} {what}", blob.name);
                        // Galois keys carry no total length, and their
                        // sections are read in order: a truncation
                        // behind the bad residue is never reached.
                        if want.is_err() && s + 1 < blob.sections.len() {
                            let what = format!("{what}, cut");
                            let got = blob.check(&ctx, &bad[..bad.len() - 1], &what);
                            if blob.name == "galois keys" {
                                assert_eq!(got, want, "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A masked result at N4096's two result primes, sent sparse at the 64
/// positions of an 8×8 Cheetah layer's output pixels (3×3 kernel).
fn sparse_blob() -> &'static (Arc<Context>, Vec<usize>, Vec<u8>) {
    static BLOB: std::sync::OnceLock<(Arc<Context>, Vec<usize>, Vec<u8>)> =
        std::sync::OnceLock::new();
    BLOB.get_or_init(|| {
        let ctx = ctx(ParamLevel::N4096);
        let mut rng = StdRng::seed_from_u64(78);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let plain = BatchEncoder::new(&ctx).encode(&[1, 2, 3, 4, 5]);
        let ct = Encryptor::new(&ctx, kg.public_key(&mut rng)).encrypt(&plain, &mut rng);
        let positions: Vec<usize> = (0..8)
            .flat_map(|y| (0..8).map(move |x| (y + 1) * 10 + x + 1))
            .collect();
        let evaluator = spot_he::evaluator::Evaluator::new(&ctx);
        let blob = evaluator
            .mask_result_sparse(ct, &plain, &positions)
            .to_bytes();
        (Arc::clone(ctx.result_context()), positions, blob)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bit_flipped_sparse_results_end_in_a_ciphertext_or_a_typed_error(
        flips in proptest::collection::vec((16usize..37_456, 0u8..8), 1..8),
        resize in -9isize..=9,
        keep_length in 0u8..4,
    ) {
        // Three cases in four keep the length, so the flips reach the
        // residue check.
        let resize = if keep_length > 0 { 0 } else { resize };
        let (rctx, positions, good) = sparse_blob();
        prop_assert_eq!(good.len(), 37_456);
        let mut bad = good.clone();
        for (byte, bit) in flips {
            bad[byte] ^= 1 << bit;
        }
        bad.resize((bad.len() as isize + resize) as usize, 0xFF);
        match SparseCiphertext::try_from_bytes(rctx, &bad, positions) {
            Ok(ct) => prop_assert_eq!(ct.to_bytes(), bad),
            Err(SerialError::ResidueOutOfRange) => prop_assert_eq!(resize, 0),
            Err(SerialError::LengthMismatch) => prop_assert_ne!(resize, 0),
            Err(other) => prop_assert!(false, "{other:?}"),
        }
    }
}

/// One N4096 key's blob and one uploaded ciphertext's, made once.
fn key_and_upload() -> &'static (Arc<Context>, Vec<u8>, Vec<u8>) {
    static BLOBS: std::sync::OnceLock<(Arc<Context>, Vec<u8>, Vec<u8>)> =
        std::sync::OnceLock::new();
    BLOBS.get_or_init(|| {
        let ctx = ctx(ParamLevel::N4096);
        let mut rng = StdRng::seed_from_u64(79);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let key = kg.galois_key_blob(2 * ctx.degree() - 1, &mut rng);
        let plain = BatchEncoder::new(&ctx).encode(&[1, 2, 3, 4, 5]);
        let upload = SymmetricEncryptor::new(&ctx, kg.secret_key().clone())
            .encrypt(&plain, &mut rng)
            .to_bytes();
        (ctx, key, upload)
    })
}

/// Flips bits of `good` at `flips` (offsets taken modulo the length),
/// then cuts or grows it by `resize` bytes of `0xFF`.
fn flipped(good: &[u8], flips: &[(usize, u8)], resize: isize) -> Vec<u8> {
    let mut bad = good.to_vec();
    for &(byte, bit) in flips {
        let at = byte % bad.len();
        bad[at] ^= 1 << bit;
    }
    bad.resize((bad.len() as isize + resize) as usize, 0xFF);
    bad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Flips anywhere in a one-key blob — count, element, digit count,
    /// seed or residues — and a cut or grown tail: the reader returns a
    /// typed error, or keys that serialise back to the same bytes (a
    /// flipped seed is a different key, and a valid one).
    #[test]
    fn bit_flipped_galois_keys_end_in_keys_or_a_typed_error(
        flips in proptest::collection::vec((0usize..200_000, 0u8..8), 1..8),
        low in proptest::collection::vec((0usize..48, 0u8..8), 0..2),
        resize in -9isize..=9,
        keep_length in 0u8..4,
    ) {
        let resize = if keep_length > 0 { 0 } else { resize };
        let (ctx, good, _) = key_and_upload();
        let bad = flipped(good, &[flips, low].concat(), resize);
        match galois_keys_from_bytes(ctx, &bad) {
            Ok(keys) => prop_assert!(galois_keys_to_bytes(&keys) == bad),
            Err(SerialError::Truncated | SerialError::LengthMismatch)
            | Err(SerialError::ResidueOutOfRange)
            | Err(SerialError::Malformed(_)) => {}
            Err(other) => prop_assert!(false, "{other:?}"),
        }
    }

    /// The same for an uploaded ciphertext: a value read back is the
    /// blob's `c0` beside the expansion of the blob's seed.
    #[test]
    fn bit_flipped_uploads_end_in_a_ciphertext_or_a_typed_error(
        flips in proptest::collection::vec((0usize..60_000, 0u8..8), 1..8),
        resize in -9isize..=9,
        keep_length in 0u8..4,
    ) {
        let resize = if keep_length > 0 { 0 } else { resize };
        let (ctx, _, good) = key_and_upload();
        let bad = flipped(good, &flips, resize);
        match Ciphertext::try_from_seeded_bytes(ctx, &bad) {
            Ok(ct) => {
                prop_assert_eq!(bad.len(), good.len());
                let c0_end = 16 + ctx.params().poly_bytes();
                prop_assert!(ct.to_bytes()[..c0_end] == bad[..c0_end]);
                let seed: [u8; 32] = bad[c0_end..].try_into().expect("32 seed bytes");
                prop_assert!(ct.c1().raw() == expand_seed(ctx, &seed, 1)[0].raw());
            }
            // The header is checked before the length.
            Err(SerialError::HeaderMismatch) => {}
            Err(SerialError::ResidueOutOfRange) => prop_assert_eq!(resize, 0),
            Err(SerialError::LengthMismatch) => prop_assert_ne!(resize, 0),
            Err(other) => prop_assert!(false, "{other:?}"),
        }
    }
}
