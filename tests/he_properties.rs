//! Property tests for the BFV substrate: encryption correctness and the
//! homomorphisms (addition, plaintext multiplication, rotation) hold for
//! arbitrary slot vectors.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::he::encoding::rotate_slots_reference;
use spot::he::prelude::*;
use std::sync::Arc;

struct He {
    ctx: Arc<spot::he::context::Context>,
    encoder: BatchEncoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
    galois: GaloisKeys,
    rng: StdRng,
}

fn setup() -> He {
    let ctx = spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let pk = keygen.public_key(&mut rng);
    let evaluator = Evaluator::new(&ctx);
    let galois = keygen.galois_keys(&evaluator.galois_elements(&[1, 2, 16, -3], true), &mut rng);
    He {
        encoder: BatchEncoder::new(&ctx),
        encryptor: Encryptor::new(&ctx, pk),
        decryptor: Decryptor::new(&ctx, keygen.secret_key().clone()),
        evaluator,
        galois,
        rng,
        ctx,
    }
}

fn slot_vec(len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..1_000_000, len)
}

proptest! {
    // HE cases are expensive; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn encrypt_decrypt_roundtrip(values in slot_vec(64)) {
        let mut he = setup();
        let t = he.ctx.params().plain_modulus();
        let vals: Vec<u64> = values.iter().map(|&v| v % t).collect();
        let ct = he.encryptor.encrypt(&he.encoder.encode(&vals), &mut he.rng);
        let out = he.encoder.decode(&he.decryptor.decrypt(&ct));
        prop_assert_eq!(&out[..64], &vals[..]);
    }

    #[test]
    fn homomorphic_add_and_mult(a in slot_vec(32), b in slot_vec(32)) {
        let mut he = setup();
        let t = he.ctx.params().plain_modulus();
        let a: Vec<u64> = a.iter().map(|&v| v % t).collect();
        let b: Vec<u64> = b.iter().map(|&v| v % t).collect();
        let ca = he.encryptor.encrypt(&he.encoder.encode(&a), &mut he.rng);
        let cb = he.encryptor.encrypt(&he.encoder.encode(&b), &mut he.rng);
        let sum = he.evaluator.add(&ca, &cb);
        let prod = he.evaluator.multiply_plain(&ca, &he.encoder.encode(&b));
        let sum_out = he.encoder.decode(&he.decryptor.decrypt(&sum));
        let prod_out = he.encoder.decode(&he.decryptor.decrypt(&prod));
        for i in 0..32 {
            prop_assert_eq!(sum_out[i], (a[i] + b[i]) % t);
            prop_assert_eq!(prod_out[i], ((a[i] as u128 * b[i] as u128) % t as u128) as u64);
        }
    }

    #[test]
    fn rotation_semantics(values in slot_vec(128), step in prop_oneof![Just(1i64), Just(2), Just(16), Just(-3)]) {
        let mut he = setup();
        let t = he.ctx.params().plain_modulus();
        let mut vals: Vec<u64> = values.iter().map(|&v| v % t).collect();
        vals.resize(he.ctx.degree(), 0);
        let ct = he.encryptor.encrypt(&he.encoder.encode(&vals), &mut he.rng);
        let rot = he.evaluator.rotate_rows(&ct, step, &he.galois);
        prop_assert!(he.decryptor.noise_budget(&rot) > 5);
        let out = he.encoder.decode(&he.decryptor.decrypt(&rot));
        prop_assert_eq!(out, rotate_slots_reference(&vals, step));
    }

    #[test]
    fn masking_hides_and_reconstructs(values in slot_vec(16), mask in slot_vec(16)) {
        // server-side additive masking: decrypt(ct - r) + r == m (mod t)
        let mut he = setup();
        let t = he.ctx.params().plain_modulus();
        let vals: Vec<u64> = values.iter().map(|&v| v % t).collect();
        let r: Vec<u64> = mask.iter().map(|&v| v % t).collect();
        let ct = he.encryptor.encrypt(&he.encoder.encode(&vals), &mut he.rng);
        let masked = he.evaluator.sub_plain(&ct, &he.encoder.encode(&r));
        let share = he.encoder.decode(&he.decryptor.decrypt(&masked));
        for i in 0..16 {
            prop_assert_eq!((share[i] + r[i]) % t, vals[i]);
        }
    }
}

#[test]
fn serialization_is_bit_packed_and_lossless() {
    let mut he = setup();
    let vals: Vec<u64> = (0..256u64).collect();
    let ct = he.encryptor.encrypt(&he.encoder.encode(&vals), &mut he.rng);
    let bytes = ct.to_bytes();
    // bit-packed: well below 2 * k * N * 8 raw bytes
    assert!(bytes.len() < 2 * 3 * 4096 * 8);
    assert_eq!(bytes.len(), he.ctx.params().ciphertext_bytes());
    let restored =
        spot::he::ciphertext::Ciphertext::try_from_bytes(&he.ctx, &bytes).expect("own ciphertext");
    let out = he.encoder.decode(&he.decryptor.decrypt(&restored));
    assert_eq!(&out[..256], &vals[..]);
}

#[test]
fn noise_budget_degrades_monotonically() {
    let mut he = setup();
    let vals = vec![3u64; 16];
    let ct = he.encryptor.encrypt(&he.encoder.encode(&vals), &mut he.rng);
    let fresh = he.decryptor.noise_budget(&ct);
    let after_mult = he
        .decryptor
        .noise_budget(&he.evaluator.multiply_plain(&ct, &he.encoder.encode(&vals)));
    let after_rot = he
        .decryptor
        .noise_budget(&he.evaluator.rotate_rows(&ct, 1, &he.galois));
    assert!(fresh > after_mult, "mult must consume budget");
    assert!(fresh >= after_rot, "rotation must not gain budget");
    assert!(after_mult > 5, "one mult must leave usable budget");
}
