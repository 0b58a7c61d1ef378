//! Failure injection: the system must fail loudly (or degrade into
//! garbage that cannot be mistaken for a valid result), never silently
//! corrupt, when ciphertexts are tampered with, keys are mismatched, or
//! protocol inputs are malformed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::he::ciphertext::Ciphertext;
use spot::he::modswitch::ModSwitch;
use spot::he::poly::{Poly, PolyForm};
use spot::he::prelude::*;
use std::sync::Arc;

fn setup() -> (
    Arc<spot::he::context::Context>,
    KeyGenerator,
    BatchEncoder,
    Encryptor,
    Decryptor,
    StdRng,
) {
    let ctx = spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(123);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let pk = keygen.public_key(&mut rng);
    (
        Arc::clone(&ctx),
        KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(123)),
        BatchEncoder::new(&ctx),
        Encryptor::new(&ctx, pk),
        Decryptor::new(&ctx, keygen.secret_key().clone()),
        rng,
    )
}

/// `ct` with residues `at` of `c1` XORed with `mask`: what a flipped
/// wire byte would decode to if the reader did not range-check
/// (`try_from_bytes` does, so the test builds the residues itself).
fn tamper(ct: &Ciphertext, at: std::ops::Range<usize>, mask: u64) -> Ciphertext {
    let mut data = ct.c1().raw().to_vec();
    data[at].iter_mut().for_each(|v| *v ^= mask);
    let c1 = Poly::from_residues(ct.context(), data, PolyForm::Ntt);
    Ciphertext::from_parts(ct.c0().clone(), c1)
}

#[test]
fn tampered_ciphertext_decrypts_to_garbage_not_plaintext() {
    let (_ctx, _kg, encoder, encryptor, decryptor, mut rng) = setup();
    let values = vec![42u64; 128];
    let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
    // flip bits deep inside the payload
    let tampered = tamper(&ct, 100..116, 0xFFFF_FFFF);
    let decoded = encoder.decode(&decryptor.decrypt(&tampered));
    assert_ne!(
        &decoded[..128],
        &values[..],
        "tampering must not preserve plaintext"
    );
    // and the noise budget must collapse
    assert_eq!(decryptor.noise_budget(&tampered), 0);
}

#[test]
#[should_panic(expected = "missing Galois key")]
fn rotation_without_key_panics() {
    let (ctx, kg, encoder, encryptor, _, mut rng) = setup();
    let ev = Evaluator::new(&ctx);
    let gk = kg.galois_keys(&ev.galois_elements(&[1], false), &mut rng);
    let ct = encryptor.encrypt(&encoder.encode(&[1]), &mut rng);
    let _ = ev.rotate_rows(&ct, 7, &gk); // only step 1 has a key
}

#[test]
fn wrong_secret_key_yields_zero_budget() {
    let (ctx, _, encoder, encryptor, _, mut rng) = setup();
    let other = KeyGenerator::new(&ctx, &mut rng);
    let wrong = Decryptor::new(&ctx, other.secret_key().clone());
    let ct = encryptor.encrypt(&encoder.encode(&[9, 9, 9]), &mut rng);
    assert_eq!(wrong.noise_budget(&ct), 0);
}

#[test]
fn budget_exhaustion_is_detected_before_corruption() {
    // Repeated plaintext multiplications must drive the reported budget
    // to zero before (or at the same time as) results go wrong.
    let (ctx, _, encoder, encryptor, decryptor, mut rng) = setup();
    let t = ctx.params().plain_modulus();
    let big = encoder.encode(&[t - 1; 16]);
    let ev = Evaluator::new(&ctx);
    let mut ct = encryptor.encrypt(&encoder.encode(&[1u64; 16]), &mut rng);
    let mut expected = [1u64; 16];
    for round in 0..6 {
        ct = ev.multiply_plain(&ct, &big);
        for e in expected.iter_mut() {
            *e = ((*e as u128 * (t - 1) as u128) % t as u128) as u64;
        }
        let budget = decryptor.noise_budget(&ct);
        let decoded = encoder.decode(&decryptor.decrypt(&ct));
        let correct = decoded[..16] == expected[..];
        if budget > 0 {
            assert!(correct, "round {round}: budget {budget} but wrong result");
        }
        if !correct {
            assert_eq!(budget, 0, "round {round}: corruption with nonzero budget");
            return; // corruption was detected — test passes
        }
    }
}

#[test]
fn modswitch_of_tampered_ciphertext_stays_garbage() {
    let (ctx, kg, encoder, encryptor, _, mut rng) = setup();
    let values = vec![7u64; 32];
    let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
    let tampered = tamper(&ct, 40..41, 0x55);
    let switcher = ModSwitch::new(&ctx, 2);
    let small = switcher.switch(tampered);
    let dst = switcher.target_context();
    let dec = Decryptor::new(dst, kg.secret_key().restricted_to(dst));
    let decoded = BatchEncoder::new(dst).decode(&dec.decrypt(&small));
    assert_ne!(&decoded[..32], &values[..]);
}

#[test]
#[should_panic(expected = "larger than the overlap")]
fn patch_smaller_than_overlap_rejected() {
    use spot::core::patching::{decompose, PatchMode};
    use spot::tensor::Tensor;
    // k=5 tweaked overlap is 3: a 3x3 patch has zero stride
    let input = Tensor::zeros(1, 10, 10);
    let _ = decompose(&input, 3, 3, 5, PatchMode::Tweaked);
}
