//! The NTT-domain modulus switch against the coefficient-domain one it
//! replaced (`common::modswitch_oracle`), bit for bit:
//!
//! * down to two primes at N4096, N8192 and N16384 (one, three and
//!   seven dropped primes), on ciphertexts whose kept rows hold NTT
//!   residues `0` and `q_i − 1` among random ones and whose dropped row
//!   holds the coefficients `0`, `q_k − 1` and the centring boundary
//!   `⌊q_k/2⌋`, `⌊q_k/2⌋ + 1`;
//! * with a mask folded in: equal to the oracle switch followed by
//!   `sub_plain` in the target, the mask's own centring boundary
//!   (`⌊t/2⌋`, `⌊t/2⌋ + 1`) among its coefficients;
//! * the switch a context builds for its results is this one, down to
//!   [`RESULT_PRIMES`];
//! * its inverse on an upload: a seeded encryption at the result primes,
//!   read back and lifted, decrypts at the full modulus to the plaintext
//!   with the noise budget of the encryption error alone, at every level
//!   with more; at N2048, which has no result switch, the upload is the plain
//!   seeded encryption at its one prime.

mod common;

use common::modswitch_oracle::{self, prefix_context};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::encoding::Plaintext;
use spot_he::modswitch::{ModSwitch, RESULT_PRIMES};
use spot_he::poly::{Poly, PolyForm};
use spot_he::prelude::*;
use std::sync::{Arc, OnceLock};

const LEVELS: [ParamLevel; 3] = [ParamLevel::N4096, ParamLevel::N8192, ParamLevel::N16384];

/// Each level's context and its switch down to two primes, built once
/// per binary.
fn fixture(level: usize) -> &'static (Arc<Context>, ModSwitch) {
    static FIXTURES: [OnceLock<(Arc<Context>, ModSwitch)>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    FIXTURES[level].get_or_init(|| {
        let ctx = Context::new(EncryptionParams::new(LEVELS[level]));
        let switch = ModSwitch::new(&ctx, 2);
        (ctx, switch)
    })
}

/// A value below `q` that is often one of the `edges`, else uniform.
fn edgy(rng: &mut StdRng, q: u64, edges: &[u64]) -> u64 {
    match rng.gen_range(0..2 * edges.len()) {
        i if i < edges.len() => edges[i],
        _ => rng.gen_range(0..q),
    }
}

/// An NTT-form polynomial: kept rows drawn directly in NTT form, the
/// last row drawn in coefficient form and transformed, each with its
/// edge values.
fn edgy_poly(ctx: &Arc<Context>, rng: &mut StdRng) -> Poly {
    let (n, k) = (ctx.degree(), ctx.moduli_count());
    let mut data = vec![0u64; k * n];
    for (i, (row, m)) in data.chunks_exact_mut(n).zip(ctx.moduli()).enumerate() {
        let q = m.value();
        let edges = if i + 1 == k {
            vec![0, q - 1, q / 2, q / 2 + 1]
        } else {
            vec![0, q - 1]
        };
        row.iter_mut().for_each(|v| *v = edgy(rng, q, &edges));
        if i + 1 == k {
            ctx.ntt_tables()[i].forward(row);
        }
    }
    Poly::from_residues(ctx, data, PolyForm::Ntt)
}

fn edgy_ciphertext(ctx: &Arc<Context>, seed: u64) -> Ciphertext {
    let mut rng = StdRng::seed_from_u64(seed);
    Ciphertext::from_parts(edgy_poly(ctx, &mut rng), edgy_poly(ctx, &mut rng))
}

fn same(got: &Ciphertext, want: &Ciphertext) -> bool {
    got.context().params() == want.context().params()
        && got.c0().raw() == want.c0().raw()
        && got.c1().raw() == want.c1().raw()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ntt_domain_switch_equals_the_coefficient_domain_oracle(
        level in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let (ctx, switch) = fixture(level);
        let ct = edgy_ciphertext(ctx, seed);
        let want = modswitch_oracle::switch(&ct, 2);
        let got = switch.switch(ct);
        prop_assert!(same(&got, &want), "{}", LEVELS[level]);
    }

    #[test]
    fn folded_mask_equals_switch_then_sub_plain(level in 0usize..3, seed in 0u64..u64::MAX) {
        let (ctx, switch) = fixture(level);
        let ct = edgy_ciphertext(ctx, seed);
        let t = ctx.params().plain_modulus();
        let mut rng = StdRng::seed_from_u64(!seed);
        let coeffs = (0..ctx.degree())
            .map(|_| edgy(&mut rng, t, &[0, t - 1, t / 2, t / 2 + 1]))
            .collect();
        let mask = Plaintext::from_coeffs(coeffs);
        let switched = modswitch_oracle::switch(&ct, 2);
        let want = Evaluator::new(switched.context()).sub_plain(&switched, &mask);
        let got = switch.switch_masked(ct, &mask);
        prop_assert!(same(&got, &want), "{}", LEVELS[level]);
    }

    #[test]
    fn an_upload_at_the_result_primes_lifts_to_its_plaintext(
        level in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let (ctx, _) = fixture(level);
        let (rctx, switch) = (ctx.result_context(), ctx.result_switch().expect("three primes or more"));
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx, &mut rng);
        let small_key = kg.secret_key().restricted_to(rctx);
        let t = ctx.params().plain_modulus();
        let values: Vec<u64> = (0..ctx.degree())
            .map(|_| edgy(&mut rng, t, &[0, 1, t / 2, t / 2 + 1, t - 1]))
            .collect();
        let encoder = BatchEncoder::new(ctx);
        let encryptor = SymmetricEncryptor::new(rctx, small_key.clone());
        let upload = encryptor.encrypt(&encoder.encode(&values), &mut rng).to_bytes();
        prop_assert_eq!(upload.len(), rctx.params().seeded_ciphertext_bytes());
        let sent = Ciphertext::try_from_seeded_bytes(rctx, &upload).expect("own upload");
        let lifted = switch.lift(ctx, sent);
        prop_assert_eq!(lifted.context().params(), ctx.params());
        let decryptor = Decryptor::new(ctx, kg.secret_key().clone());
        prop_assert_eq!(encoder.decode(&decryptor.decrypt(&lifted)), values);
        // The headroom of the encryption error alone, an encryption of
        // zero at the two primes: scaling by `⌊q'/t⌋` would leave an error
        // of up to `t/2` on top, some twenty bits of the budget.
        let zero = encryptor.encrypt(&encoder.encode(&[]), &mut rng).to_bytes();
        let zero = Ciphertext::try_from_seeded_bytes(rctx, &zero).expect("own upload");
        let fresh = Decryptor::new(rctx, small_key).noise_budget(&zero);
        let budget = decryptor.noise_budget(&lifted);
        prop_assert!(
            budget + 1 >= fresh,
            "{}: {} bits after the lift, {} in a fresh encryption at two primes",
            LEVELS[level],
            budget,
            fresh
        );
    }
}

#[test]
fn at_one_prime_the_upload_is_the_plain_seeded_encryption() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N2048));
    assert!(ctx.result_switch().is_none());
    let rctx = ctx.result_context();
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(5));
    let plain = BatchEncoder::new(&ctx).encode(&[1, 2, 3]);
    let upload = SymmetricEncryptor::new(rctx, kg.secret_key().restricted_to(rctx))
        .encrypt(&plain, &mut StdRng::seed_from_u64(6));
    let plain_seeded = SymmetricEncryptor::new(&ctx, kg.secret_key().clone())
        .encrypt(&plain, &mut StdRng::seed_from_u64(6));
    assert_eq!(upload.to_bytes(), plain_seeded.to_bytes());
    assert_eq!(
        upload.to_bytes().len(),
        ctx.params().seeded_ciphertext_bytes()
    );
}

#[test]
fn a_contexts_result_switch_is_the_two_prime_switch() {
    assert_eq!(RESULT_PRIMES, 2);
    for level in 0..LEVELS.len() {
        let (ctx, switch) = fixture(level);
        let result = ctx.result_switch().expect("more than two primes");
        assert_eq!(
            result.target_context().params(),
            switch.target_context().params()
        );
        assert_eq!(
            result.target_context().params(),
            prefix_context(ctx, RESULT_PRIMES).params()
        );
        let ct = edgy_ciphertext(ctx, level as u64);
        assert!(same(&result.switch(ct.clone()), &switch.switch(ct)));
    }
}

/// One prime further, to a single prime: the same arithmetic, and the
/// oracle agrees there too.
#[test]
fn switching_on_down_to_one_prime_matches_the_oracle() {
    let (ctx, _) = fixture(0);
    let ct = edgy_ciphertext(ctx, 7);
    let one = ModSwitch::new(ctx, 1);
    assert!(same(
        &one.switch(ct.clone()),
        &modswitch_oracle::switch(&ct, 1)
    ));
}
