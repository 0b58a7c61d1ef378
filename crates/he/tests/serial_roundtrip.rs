//! Property tests for the validated wire serialization: encode→decode
//! identity for ciphertexts (fresh and mod-switched) and key material
//! at N = 4096 and N = 8192, plus rejection (never a panic) of
//! truncated and corrupted inputs. An uploaded ciphertext travels as
//! `c0` plus the seed of `c1`: what the reader rebuilds must decrypt to
//! the client's plaintext, and no two uploads may share a seed.
//!
//! Galois keys travel as a seed plus their `b_i`: the reader must
//! rebuild the generator's exact `(b_i, a_i)` pairs, rotate with them,
//! and expand a given seed to the same polynomials on every build
//! ([`SEED_EXPANSION_FNV`]). `keys::expand_seed` must equal the
//! `StdRng` loop that defines it for any seed, the all-zero one
//! included, at every level, and a key's whole blob is pinned at N8192
//! and N16384 ([`KEY_BLOB_FNV`]).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::encoding::{rotate_slots_reference, BatchEncoder};
use spot_he::encryptor::{Decryptor, Encryptor, SymmetricEncryptor};
use spot_he::evaluator::Evaluator;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_he::serial::{
    galois_keys_from_bytes, galois_keys_to_bytes, public_key_from_bytes, public_key_to_bytes,
};
use std::sync::{Arc, OnceLock};

fn ctx(level: ParamLevel) -> &'static Arc<Context> {
    static N4096: OnceLock<Arc<Context>> = OnceLock::new();
    static N8192: OnceLock<Arc<Context>> = OnceLock::new();
    match level {
        ParamLevel::N4096 => N4096.get_or_init(|| Context::new(EncryptionParams::new(level))),
        ParamLevel::N8192 => N8192.get_or_init(|| Context::new(EncryptionParams::new(level))),
        _ => unreachable!("test levels"),
    }
}

fn level_of(code: u8) -> ParamLevel {
    if code == 0 {
        ParamLevel::N4096
    } else {
        ParamLevel::N8192
    }
}

fn encrypt_random(ctx: &Arc<Context>, seed: u64) -> Ciphertext {
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let enc = Encryptor::new(ctx, kg.public_key(&mut rng));
    let encoder = BatchEncoder::new(ctx);
    let t = ctx.params().plain_modulus();
    let slots: Vec<u64> = (0..ctx.degree()).map(|i| (seed + i as u64) % t).collect();
    enc.encrypt(&encoder.encode(&slots), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn ciphertext_roundtrip_is_bit_identical(level in 0u8..2, seed in 0u64..1_000_000) {
        let ctx = ctx(level_of(level));
        let ct = encrypt_random(ctx, seed);
        let bytes = ct.to_bytes();
        let back = Ciphertext::try_from_bytes(ctx, &bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn seeded_ciphertext_roundtrips_to_its_plaintext(level in 0u8..2, seed in 0u64..1_000_000) {
        let ctx = ctx(level_of(level));
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx, &mut rng);
        let enc = SymmetricEncryptor::new(ctx, kg.secret_key().clone());
        let dec = Decryptor::new(ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(ctx);
        let t = ctx.params().plain_modulus();
        let slots: Vec<u64> = (0..ctx.degree()).map(|i| (seed + i as u64) % t).collect();
        let plain = encoder.encode(&slots);
        let bytes = enc.encrypt(&plain, &mut rng).to_bytes();
        prop_assert_eq!(bytes.len(), ctx.params().seeded_ciphertext_bytes());
        let back = Ciphertext::try_from_seeded_bytes(ctx, &bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(encoder.decode(&dec.decrypt(&back)), slots);
        // The header and `c0` are the full form's, byte for byte; the
        // seed sits where `c1` would start.
        let (head, tail) = bytes.split_at(bytes.len() - 32);
        prop_assert_eq!(&back.to_bytes()[..head.len()], head);
        // The same plaintext again: its own seed, so its own `c0`. The
        // full form is not a seeded blob, nor the other way round.
        let again = enc.encrypt(&plain, &mut rng).to_bytes();
        prop_assert_ne!(&again[head.len()..], tail);
        prop_assert_ne!(&again[16..head.len()], &head[16..]);
        prop_assert!(Ciphertext::try_from_seeded_bytes(ctx, &back.to_bytes()).is_err());
        prop_assert!(Ciphertext::try_from_bytes(ctx, &bytes).is_err());
    }

    #[test]
    fn modswitched_ciphertext_roundtrips_in_target_context(seed in 0u64..1_000_000) {
        // N8192's five primes go down to the two a result travels at.
        let src = ctx(ParamLevel::N8192);
        let ct = encrypt_random(src, seed);
        let sw = src.result_switch().expect("more than two primes");
        let small = sw.switch(ct);
        let bytes = small.to_bytes();
        let tgt = sw.target_context();
        prop_assert_eq!(bytes.len(), tgt.params().ciphertext_bytes());
        let back = Ciphertext::try_from_bytes(tgt, &bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(back.to_bytes(), bytes);
        // The switched blob no longer parses in the source context.
        prop_assert!(Ciphertext::try_from_bytes(src, &bytes).is_err());
    }

    #[test]
    fn key_material_roundtrips(
        level in 0u8..2,
        seed in 0u64..1_000_000,
        odd_halves in collection::vec(0usize..4096, 1..5),
    ) {
        let ctx = ctx(level_of(level));
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let pk_bytes = public_key_to_bytes(&pk);
        let pk2 = public_key_from_bytes(ctx, &pk_bytes)
            .map_err(|e| TestCaseError::fail(format!("pk decode: {e}")))?;
        prop_assert_eq!(public_key_to_bytes(&pk2), pk_bytes);

        // Any set of odd residues below 2N, in any order.
        let mut elements: Vec<usize> = odd_halves.iter().map(|h| 2 * h + 1).collect();
        elements.sort_unstable();
        elements.dedup();
        elements.reverse();
        let gk = kg.galois_keys(&elements, &mut rng);
        let gk_bytes = galois_keys_to_bytes(&gk);
        prop_assert_eq!(
            gk_bytes.len(),
            4 + elements.len() * ctx.params().galois_key_bytes()
        );
        let gk2 = galois_keys_from_bytes(ctx, &gk_bytes)
            .map_err(|e| TestCaseError::fail(format!("gk decode: {e}")))?;
        prop_assert_eq!(galois_keys_to_bytes(&gk2), gk_bytes);
        // The ingested set is the generator's, pair for pair: the b_i
        // as sent, the a_i re-expanded from the seed.
        prop_assert_eq!(gk2.len(), elements.len());
        for &g in &elements {
            let (sent, got) = (gk.pairs(g).expect("generated"), gk2.pairs(g).expect("ingested"));
            prop_assert_eq!(got.len(), ctx.moduli_count());
            for ((b, a), (b2, a2)) in sent.iter().zip(got) {
                prop_assert_eq!(b.raw(), b2.raw());
                prop_assert_eq!(a.raw(), a2.raw());
            }
        }
    }

    #[test]
    fn truncation_rejected_without_panic(level in 0u8..2, seed in 0u64..1_000_000, cut in 1usize..4096) {
        let ctx = ctx(level_of(level));
        let bytes = encrypt_random(ctx, seed).to_bytes();
        let cut = cut.min(bytes.len());
        prop_assert!(Ciphertext::try_from_bytes(ctx, &bytes[..bytes.len() - cut]).is_err());
        // Trailing garbage is a length mismatch, not a prefix parse.
        let mut extended = bytes.clone();
        extended.push(0);
        prop_assert!(Ciphertext::try_from_bytes(ctx, &extended).is_err());
    }

    #[test]
    fn garbage_bytes_rejected_without_panic(blob in collection::vec(0u8..=255, 0..4096)) {
        let c4 = ctx(ParamLevel::N4096);
        let _ = Ciphertext::try_from_bytes(c4, &blob);
        let _ = public_key_from_bytes(c4, &blob);
        let _ = galois_keys_from_bytes(c4, &blob);
        // Reaching here without a panic is the property; decoding
        // arbitrary bytes must fail closed.
        prop_assert!(Ciphertext::try_from_bytes(c4, &blob).is_err() || blob.len() == c4.params().ciphertext_bytes());
    }

    #[test]
    fn corrupted_residues_rejected_or_decode_to_valid_ct(seed in 0u64..1_000_000, flip in 16usize..4096) {
        let ctx = ctx(ParamLevel::N4096);
        let ct = encrypt_random(ctx, seed);
        let mut bytes = ct.to_bytes();
        let i = 16 + (flip % (bytes.len() - 16));
        bytes[i] ^= 0xFF;
        // A bit-flip either fails validation (residue out of range) or
        // still decodes to *some* structurally valid ciphertext that
        // re-serializes to the same bytes — never a panic, never an
        // out-of-range residue accepted.
        if let Ok(back) = Ciphertext::try_from_bytes(ctx, &bytes) {
            prop_assert_eq!(back.to_bytes(), bytes);
        }
    }
}

/// Decrypt-correctness across the wire: what the server decodes is the
/// same ciphertext the client encrypted.
#[test]
fn roundtripped_ciphertext_still_decrypts() {
    for level in [ParamLevel::N4096, ParamLevel::N8192] {
        let ctx = ctx(level);
        let mut rng = StdRng::seed_from_u64(4242);
        let kg = KeyGenerator::new(ctx, &mut rng);
        let enc = Encryptor::new(ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(ctx);
        let t = ctx.params().plain_modulus();
        let slots: Vec<u64> = (0..ctx.degree()).map(|i| (i as u64 * 31 + 7) % t).collect();
        let ct = enc.encrypt(&encoder.encode(&slots), &mut rng);
        let back = Ciphertext::try_from_bytes(ctx, &ct.to_bytes()).expect("roundtrip");
        assert_eq!(encoder.decode(&dec.decrypt(&back)), slots);
    }
}

/// Rotations under keys that crossed the wire are the rotations the
/// generator's own keys give: every step and the column swap decode to
/// the slot-rotation reference.
#[test]
fn ingested_keys_rotate_like_the_reference() {
    const STEPS: [i64; 4] = [1, -2, 7, 100];
    for level in [ParamLevel::N4096, ParamLevel::N8192] {
        let ctx = ctx(level);
        let mut rng = StdRng::seed_from_u64(515);
        let kg = KeyGenerator::new(ctx, &mut rng);
        let evaluator = Evaluator::new(ctx);
        let generated = kg.galois_keys(&evaluator.galois_elements(&STEPS, true), &mut rng);
        let ingested = galois_keys_from_bytes(ctx, &galois_keys_to_bytes(&generated))
            .expect("own keys deserialize");

        let enc = Encryptor::new(ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(ctx);
        let t = ctx.params().plain_modulus();
        let slots: Vec<u64> = (0..ctx.degree()).map(|i| (i as u64 * 13 + 5) % t).collect();
        let ct = enc.encrypt(&encoder.encode(&slots), &mut rng);
        for step in STEPS {
            let rotated = evaluator.rotate_rows(&ct, step, &ingested);
            assert_eq!(
                encoder.decode(&dec.decrypt(&rotated)),
                rotate_slots_reference(&slots, step),
                "{level} step {step}"
            );
        }
        let swapped = evaluator.rotate_columns(&ct, &ingested);
        let (top, bottom) = slots.split_at(ctx.degree() / 2);
        assert_eq!(
            encoder.decode(&dec.decrypt(&swapped)),
            [bottom, top].concat(),
            "{level} column swap"
        );
    }
}

/// FNV-1a-64 over the three uniform polynomials the seed `0, 1, …, 31`
/// expands to at N4096 (residues in digit, modulus, slot order, little
/// endian). Both parties must expand a seed identically, so the PRG
/// stream (`vendor/rand`'s `StdRng::from_seed` and `gen_range`) and the
/// order `sample_uniform` consumes it in are wire contract: a change
/// that moves this constant breaks interop with every deployed peer
/// and needs a `WIRE_VERSION` bump, not a re-record.
const SEED_EXPANSION_FNV: u64 = 0x72b3_9fc2_2474_73be;

#[test]
fn seed_expansion_is_pinned() {
    let ctx = ctx(ParamLevel::N4096);
    // The smallest valid blob around the fixed seed: one key, all-zero
    // b_i (zero bytes unpack to zero residues).
    let k = ctx.moduli_count();
    let mut blob = 1u32.to_le_bytes().to_vec();
    blob.extend_from_slice(&3u64.to_le_bytes());
    blob.extend_from_slice(&(k as u32).to_le_bytes());
    blob.extend((0..32).map(|i| i as u8));
    blob.resize(4 + ctx.params().galois_key_bytes(), 0);
    let keys = galois_keys_from_bytes(ctx, &blob).expect("hand-built blob");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (b, a) in keys.pairs(3).expect("element 3") {
        assert!(b.raw().iter().all(|&r| r == 0));
        for r in a.raw() {
            for byte in r.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    assert_eq!(h, SEED_EXPANSION_FNV, "got {h:#018x}");
}

/// `SEED_EXPANSION_FNV`'s hash, over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a-64 over the one-key blobs of the elements `3`, `2N − 1` and
/// that of step −8, made in that order from one `StdRng` seeded with
/// 39 after the secret key. `wire_golden.rs` never reaches these two
/// levels, and the serializer's oracle test stops at N8192; a key
/// generator or wire codec that moves a byte of a key there moves this.
const KEY_BLOB_FNV: [(ParamLevel, u64); 2] = [
    (ParamLevel::N8192, 0x38b0_88b5_7ede_61d7),
    (ParamLevel::N16384, 0xb957_32be_b026_7aa3),
];

#[test]
fn one_key_blobs_are_pinned_at_n8192_and_n16384() {
    for (level, want) in KEY_BLOB_FNV {
        let ctx = Context::new(EncryptionParams::new(level));
        let n = ctx.degree();
        let mut rng = StdRng::seed_from_u64(39);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let mut blobs = Vec::new();
        for g in [3, 2 * n - 1, spot_he::encoding::galois_elt_from_step(-8, n)] {
            let blob = galois_keys_to_bytes(&kg.galois_keys(&[g], &mut rng));
            assert_eq!(blob.len(), 4 + ctx.params().galois_key_bytes());
            blobs.extend_from_slice(&blob);
        }
        let h = fnv1a(&blobs);
        assert_eq!(h, want, "{level}: got {h:#018x}");
    }
}

/// What `keys::expand_seed` must produce: the `StdRng` stream on the
/// seed, `gen_range(0..q_i)` per residue, in polynomial, prime row,
/// coefficient order.
fn stdrng_expansion(ctx: &Context, seed: &[u8; 32], polys: usize) -> Vec<u64> {
    use rand::Rng;
    let mut prg = StdRng::from_seed(*seed);
    let mut out = Vec::with_capacity(polys * ctx.moduli_count() * ctx.degree());
    for _ in 0..polys {
        for m in ctx.moduli() {
            out.extend((0..ctx.degree()).map(|_| prg.gen_range(0..m.value())));
        }
    }
    out
}

fn assert_expansion_is_the_stdrng_stream(level: ParamLevel, seed: &[u8; 32], polys: usize) {
    let ctx = Context::new(EncryptionParams::new(level));
    let got: Vec<u64> = spot_he::keys::expand_seed(&ctx, seed, polys)
        .iter()
        .flat_map(|poly| poly.raw().iter().copied())
        .collect();
    assert!(
        got == stdrng_expansion(&ctx, seed, polys),
        "{level}, {polys} polys, seed {seed:?}"
    );
}

/// The all-zero seed (which the generator replaces by the state
/// `[1, 2, 3, 4]`) at every level, for every polynomial count a key
/// or an upload asks for.
#[test]
fn the_all_zero_seed_expands_to_the_stdrng_stream() {
    for level in ParamLevel::ALL {
        let k = level.coeff_modulus_bits().len();
        for polys in 1..=k {
            assert_expansion_is_the_stdrng_stream(level, &[0; 32], polys);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed, some of whose 64-bit words are zero, at any level and
    /// for `1..=k` polynomials.
    #[test]
    fn seed_expansion_is_the_stdrng_stream(
        level in 0usize..4,
        polys in 1usize..=9,
        words in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        zeroed in 0u8..16,
    ) {
        let level = ParamLevel::ALL[level];
        let polys = polys.min(level.coeff_modulus_bits().len());
        let mut seed = [0u8; 32];
        let words = [words.0, words.1, words.2, words.3];
        for (i, word) in words.iter().enumerate() {
            let word = if zeroed >> i & 1 == 1 { 0 } else { *word };
            seed[8 * i..8 * i + 8].copy_from_slice(&word.to_le_bytes());
        }
        assert_expansion_is_the_stdrng_stream(level, &seed, polys);
    }
}
