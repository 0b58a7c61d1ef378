//! RNS decryption against the big-integer decryption it replaced, kept
//! here as the oracle: coefficient-for-coefficient equality at all four
//! parameter levels on ciphertexts that decrypt to their plaintext
//! (fresh, rotated and multiplied, modulus-switched) and on ones that
//! do not (residue-tampered, wrong key, uniformly random), where the only
//! specification is "whatever `⌈t·x/q⌋ mod t` is". The uploaded form, a
//! symmetric encryption whose `c1` the reader expands from a seed, is
//! held to both: the oracle and its plaintext.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::encoding::BatchEncoder;
use spot_he::encryptor::{Decryptor, Encryptor, SymmetricEncryptor};
use spot_he::evaluator::Evaluator;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_he::poly::{Poly, PolyForm};
use std::sync::Arc;

/// `Decryptor::decrypt` as it was: per coefficient, a big-integer CRT
/// lift, `(t·|x| + ⌊q/2⌋) / q`, and the sign put back.
fn decrypt_oracle(ctx: &Context, dec: &Decryptor, ct: &Ciphertext) -> Vec<u64> {
    let t = ctx.params().plain_modulus();
    let phase = dec.phase(ct);
    let mut residues = vec![0u64; ctx.moduli_count()];
    (0..ctx.degree())
        .map(|j| {
            for (i, r) in residues.iter_mut().enumerate() {
                *r = phase.residues(i)[j];
            }
            let (mag, neg) = ctx.crt_lift_centered(&residues);
            let num = mag.mul_u64(t).add(ctx.q_half());
            let (m, _) = num.div_rem(ctx.q_big());
            let m = m.rem_u64(t);
            if neg && m != 0 {
                t - m
            } else {
                m
            }
        })
        .collect()
}

fn assert_exact(ctx: &Context, dec: &Decryptor, ct: &Ciphertext, what: &str) {
    assert_eq!(
        dec.decrypt(ct).coeffs(),
        &decrypt_oracle(ctx, dec, ct)[..],
        "{what} at N={}",
        ctx.degree()
    );
}

fn uniform_poly(ctx: &Arc<Context>, rng: &mut StdRng) -> Poly {
    let n = ctx.degree();
    let mut data = vec![0u64; n * ctx.moduli_count()];
    for (row, m) in data.chunks_mut(n).zip(ctx.moduli()) {
        for v in row {
            *v = rng.gen_range(0..m.value());
        }
    }
    Poly::from_residues(ctx, data, PolyForm::Ntt)
}

#[test]
fn rns_decrypt_equals_big_integer_decrypt_at_every_level() {
    for level in ParamLevel::ALL {
        let ctx = Context::new(EncryptionParams::new(level));
        let mut rng = StdRng::seed_from_u64(2024 + ctx.degree() as u64);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(&ctx);
        let ev = Evaluator::new(&ctx);
        let t = ctx.params().plain_modulus();
        let slots: Vec<u64> = (0..ctx.degree()).map(|_| rng.gen_range(0..t)).collect();

        let fresh = enc.encrypt(&encoder.encode(&slots), &mut rng);
        assert_exact(&ctx, &dec, &fresh, "fresh");
        assert_eq!(encoder.decode(&dec.decrypt(&fresh)), slots, "{level}");

        // Noise near the top of the budget: rounding decides more bits.
        let weights: Vec<u64> = (0..ctx.degree()).map(|_| rng.gen_range(0..t)).collect();
        let mut worked = ev.multiply_plain(&fresh, &encoder.encode(&weights));
        if level.supports_rotation() {
            let gk = kg.galois_keys(&ev.galois_elements(&[3], false), &mut rng);
            worked = ev.rotate_rows(&worked, 3, &gk);
        }
        assert_exact(&ctx, &dec, &worked, "multiplied and rotated");
        // Noise past the budget: decrypts to garbage, the same garbage.
        let spent = ev.multiply_plain(&worked, &encoder.encode(&weights));
        let spent = ev.multiply_plain(&spent, &encoder.encode(&weights));
        assert_exact(&ctx, &dec, &spent, "noise-exhausted");

        // Where results travel: the first two primes (N2048 has one, and
        // its results go as they are).
        if let Some(sw) = ctx.result_switch() {
            let small = sw.switch(fresh.clone());
            let tgt = sw.target_context();
            assert_eq!(tgt.moduli_count(), 2, "{level}");
            let small_dec = Decryptor::new(tgt, kg.secret_key().restricted_to(tgt));
            assert_exact(tgt, &small_dec, &small, "modulus-switched");
            let decoded = BatchEncoder::new(tgt).decode(&small_dec.decrypt(&small));
            assert_eq!(decoded, slots, "{level} switched");
        }

        // `from_parts` does not range-check: residues with every bit of
        // their wire width flipped, or set, reach the decryptor unreduced.
        let n = ctx.degree();
        let tamper = |poly: &Poly| {
            let mut data = poly.raw().to_vec();
            for (row, m) in data.chunks_mut(n).zip(ctx.moduli()) {
                let ones = u64::MAX >> m.value().leading_zeros();
                row[n / 2..n / 2 + 64].iter_mut().for_each(|v| *v ^= ones);
                row[..8].fill(ones);
            }
            Poly::from_residues(&ctx, data, PolyForm::Ntt)
        };
        let tampered = Ciphertext::from_parts(tamper(fresh.c0()), tamper(fresh.c1()));
        assert_exact(&ctx, &dec, &tampered, "residue-tampered");

        let other = KeyGenerator::new(&ctx, &mut rng);
        let wrong = Decryptor::new(&ctx, other.secret_key().clone());
        assert_exact(&ctx, &wrong, &fresh, "wrong key");

        let rounds = if ctx.degree() <= 4096 { 4 } else { 1 };
        for _ in 0..rounds {
            let random =
                Ciphertext::from_parts(uniform_poly(&ctx, &mut rng), uniform_poly(&ctx, &mut rng));
            assert_exact(&ctx, &dec, &random, "uniformly random");
        }
    }
}

/// What the server reads off an upload — `c0` as sent, `c1` expanded
/// from the seed — decrypts exactly, to every slot the client encrypted.
#[test]
fn seeded_symmetric_ciphertext_decrypts_to_its_plaintext_across_the_wire() {
    for level in [ParamLevel::N4096, ParamLevel::N8192] {
        let ctx = Context::new(EncryptionParams::new(level));
        let mut rng = StdRng::seed_from_u64(4096 + ctx.degree() as u64);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = SymmetricEncryptor::new(&ctx, kg.secret_key().clone());
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(&ctx);
        let t = ctx.params().plain_modulus();
        let slots: Vec<u64> = (0..ctx.degree()).map(|_| rng.gen_range(0..t)).collect();

        let sent = enc.encrypt(&encoder.encode(&slots), &mut rng).to_bytes();
        assert_eq!(sent.len(), ctx.params().seeded_ciphertext_bytes());
        let read = Ciphertext::try_from_seeded_bytes(&ctx, &sent).expect("own upload");
        assert_exact(&ctx, &dec, &read, "seeded symmetric");
        assert_eq!(encoder.decode(&dec.decrypt(&read)), slots, "{level}");
        // One error polynomial, no `u`: fresher than a public-key
        // encryption of the same slots.
        let public = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let full = public.encrypt(&encoder.encode(&slots), &mut rng);
        assert!(
            dec.noise_budget(&read) >= dec.noise_budget(&full),
            "{level}"
        );
    }
}
