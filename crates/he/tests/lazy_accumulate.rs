//! The wide-accumulating inner products against the term-by-term
//! bodies they replaced (`common::eager_oracle`).
//!
//! `Evaluator::rotate_hoisted` and `Evaluator::dot_lifted` sum residue
//! products in `u128` and reduce once per coefficient. Modular
//! arithmetic is exact, so the result must equal, bit for bit, a
//! canonical multiply and add per term:
//!
//! * over random hoists and real keys at every rotation-capable level
//!   (2 / 4 / 8 digits: one per prime but the last), over every Galois
//!   element a 3×3 convolution asks for, and with every residue at
//!   `q − 1`, the largest sum;
//! * for 1..=40 terms of a tap sum, for the one-term
//!   `multiply_lifted`, and for several steps' tap sums in one
//!   `dot_lifted_steps` sweep, at 61-bit primes too;
//! * past the overflow bound: at 61-bit primes a `u128` holds about 64
//!   products, and 300 terms still come out exact;
//! * the bound itself against a big-integer computation.

mod common;

use common::{conv_steps, eager_oracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::bigint::BigUint;
use spot_he::encoding::{galois_elt_column_swap, galois_elt_from_step};
use spot_he::evaluator::HoistedCiphertext;
use spot_he::lazy;
use spot_he::modulus::Modulus;
use spot_he::ntt::galois_ntt_table;
use spot_he::poly::{Poly, PolyForm};
use spot_he::prelude::*;
use spot_he::primes::{is_prime, ntt_primes};
use std::sync::Arc;

const ROTATING_LEVELS: [ParamLevel; 3] = [ParamLevel::N4096, ParamLevel::N8192, ParamLevel::N16384];

/// A context of `k` 61-bit NTT primes: `max_terms` is about 64 there,
/// against 2^30 and more at every shipped level.
fn ctx_61_bit(k: usize) -> Arc<Context> {
    let level = ParamLevel::N4096;
    let moduli = ntt_primes(61, level.degree(), k);
    Context::new(EncryptionParams::with_explicit_moduli(
        level,
        moduli,
        spot_he::params::default_plain_modulus(),
    ))
}

/// An NTT-form polynomial with every residue drawn by `residue(q)`.
fn poly_with(ctx: &Arc<Context>, mut residue: impl FnMut(u64) -> u64) -> Poly {
    let n = ctx.degree();
    let mut data = vec![0u64; ctx.moduli_count() * n];
    for (row, m) in data.chunks_exact_mut(n).zip(ctx.moduli()) {
        row.fill_with(|| residue(m.value()));
    }
    Poly::from_residues(ctx, data, PolyForm::Ntt)
}

fn random_poly(ctx: &Arc<Context>, rng: &mut StdRng) -> Poly {
    poly_with(ctx, |q| rng.gen_range(0..q))
}

fn largest_poly(ctx: &Arc<Context>) -> Poly {
    poly_with(ctx, |q| q - 1)
}

fn random_ct(ctx: &Arc<Context>, rng: &mut StdRng) -> Ciphertext {
    Ciphertext::from_parts(random_poly(ctx, rng), random_poly(ctx, rng))
}

fn largest_hoist(ctx: &Arc<Context>) -> HoistedCiphertext {
    let digits = (0..ctx.params().key_switch_digits())
        .map(|_| largest_poly(ctx))
        .collect();
    HoistedCiphertext::from_parts(largest_poly(ctx), digits)
}

fn assert_same_bits(got: &Ciphertext, want: &Ciphertext, what: &str) {
    assert!(got.c0().raw() == want.c0().raw(), "{what}: c0 differs");
    assert!(got.c1().raw() == want.c1().raw(), "{what}: c1 differs");
}

/// `rotate_hoisted` by `g` against the oracle on the same hoist.
fn assert_rotation_matches_oracle(
    ctx: &Arc<Context>,
    hoisted: &HoistedCiphertext,
    g: usize,
    keys: &GaloisKeys,
    what: &str,
) {
    let got = Evaluator::new(ctx).rotate_hoisted(hoisted, g, keys);
    let table = galois_ntt_table(g, ctx.degree());
    let pairs = keys.pairs(g).expect("key generated above");
    let want = eager_oracle::rotate_hoisted(ctx, hoisted, &table, pairs);
    assert_same_bits(&got, &want, &format!("{what}, g={g}, N={}", ctx.degree()));
}

#[test]
fn rotations_equal_the_eager_key_switch_at_every_level() {
    for level in ROTATING_LEVELS {
        let ctx = Context::new(EncryptionParams::new(level));
        let n = ctx.degree();
        let mut rng = StdRng::seed_from_u64(41);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let evaluator = Evaluator::new(&ctx);
        let mut elements = evaluator.galois_elements(&[1, -17, (n / 4) as i64], true);
        elements.sort_unstable();
        let keys = keygen.galois_keys(&elements, &mut rng);
        // A real decomposition of a full-range ciphertext, digits that
        // are no ciphertext's (every row uniform), and the largest
        // residue everywhere.
        let hoists = [
            ("hoist", evaluator.hoist(&random_ct(&ctx, &mut rng))),
            (
                "uniform digits",
                HoistedCiphertext::from_parts(
                    random_poly(&ctx, &mut rng),
                    (0..ctx.params().key_switch_digits())
                        .map(|_| random_poly(&ctx, &mut rng))
                        .collect(),
                ),
            ),
            ("all q-1", largest_hoist(&ctx)),
        ];
        for (what, hoisted) in &hoists {
            for &g in &elements {
                assert_rotation_matches_oracle(&ctx, hoisted, g, &keys, what);
            }
        }
    }
}

#[test]
fn rotations_equal_the_eager_key_switch_for_every_conv_element() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(43);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let evaluator = Evaluator::new(&ctx);
    let elements = evaluator.galois_elements(&conv_steps(ctx.degree()), true);
    assert!(elements.contains(&galois_elt_column_swap(ctx.degree())));
    assert!(elements.contains(&galois_elt_from_step(-17, ctx.degree())));
    assert!(elements.len() > 40, "only {} elements", elements.len());
    let keys = keygen.galois_keys(&elements, &mut rng);
    let hoisted = evaluator.hoist(&random_ct(&ctx, &mut rng));
    for g in elements {
        assert_rotation_matches_oracle(&ctx, &hoisted, g, &keys, "conv element");
    }
}

/// `Σ ct_i ⊙ lifted_i` the way a convolution summed it before: every
/// product a ciphertext, added into the first.
fn fold_of_products(evaluator: &Evaluator, terms: &[(&Ciphertext, &Poly)]) -> Ciphertext {
    let mut products = terms
        .iter()
        .map(|(ct, lifted)| evaluator.multiply_lifted(ct, lifted));
    let mut acc = products.next().expect("at least one term");
    for product in products {
        evaluator.add_inplace(&mut acc, &product);
    }
    acc
}

#[test]
fn dot_lifted_equals_the_fold_of_products_for_1_to_40_terms() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(47);
    let evaluator = Evaluator::new(&ctx);
    let random: Vec<(Ciphertext, Poly)> = (0..40)
        .map(|_| (random_ct(&ctx, &mut rng), random_poly(&ctx, &mut rng)))
        .collect();
    let largest: Vec<(Ciphertext, Poly)> = (0..40)
        .map(|_| {
            let ct = Ciphertext::from_parts(largest_poly(&ctx), largest_poly(&ctx));
            (ct, largest_poly(&ctx))
        })
        .collect();
    for (what, operands) in [("random", &random), ("all q-1", &largest)] {
        let terms: Vec<(&Ciphertext, &Poly)> = operands.iter().map(|(ct, w)| (ct, w)).collect();
        for count in 1..=terms.len() {
            let got = evaluator.dot_lifted(&terms[..count]);
            let want = fold_of_products(&evaluator, &terms[..count]);
            assert_same_bits(&got, &want, &format!("{what}, {count} terms"));
        }
    }
}

/// Several giant steps' sums in one sweep are one `dot_lifted` per step
/// that has terms, bit for bit and in the tally, and nothing for a step
/// without: over shared, repeated and unused operands, and past the
/// overflow bound at 61-bit primes.
#[test]
fn dot_lifted_steps_is_one_dot_lifted_per_step_with_terms() {
    for (ctx, long) in [
        (Context::new(EncryptionParams::new(ParamLevel::N4096)), 40),
        (ctx_61_bit(2), 150),
    ] {
        let mut rng = StdRng::seed_from_u64(67);
        let cts: Vec<Ciphertext> = (0..6).map(|_| random_ct(&ctx, &mut rng)).collect();
        let weights: Vec<Poly> = (0..12).map(|_| random_poly(&ctx, &mut rng)).collect();
        let operands: Vec<&Ciphertext> = cts.iter().collect();
        let steps: Vec<Vec<(usize, &Poly)>> = vec![
            vec![(0, &weights[0]), (1, &weights[1]), (1, &weights[2])],
            vec![],
            vec![(5, &weights[3])],
            (0..long).map(|t| (t % 4, &weights[4 + t % 8])).collect(),
            vec![],
        ];
        let (swept, stepwise) = (Evaluator::new(&ctx), Evaluator::new(&ctx));
        let sums = swept.dot_lifted_steps(&operands, &steps);
        assert_eq!(sums.len(), steps.len());
        for (s, (sum, terms)) in sums.iter().zip(&steps).enumerate() {
            let terms: Vec<(&Ciphertext, &Poly)> =
                terms.iter().map(|&(x, w)| (&cts[x], w)).collect();
            match sum {
                None => assert!(terms.is_empty(), "step {s} has terms but no sum"),
                Some(sum) => {
                    assert_same_bits(sum, &stepwise.dot_lifted(&terms), &format!("step {s}"))
                }
            }
        }
        assert_eq!(swept.counts(), stepwise.counts());
        assert_eq!(swept.counts().mult_plain, 3 + 1 + long as u64);
    }
}

#[test]
fn multiply_lifted_equals_clone_and_multiply() {
    for level in ParamLevel::ALL {
        let ctx = Context::new(EncryptionParams::new(level));
        let mut rng = StdRng::seed_from_u64(53);
        let evaluator = Evaluator::new(&ctx);
        let operands = [
            (random_ct(&ctx, &mut rng), random_poly(&ctx, &mut rng)),
            (
                Ciphertext::from_parts(largest_poly(&ctx), largest_poly(&ctx)),
                largest_poly(&ctx),
            ),
        ];
        for (ct, lifted) in &operands {
            let got = evaluator.multiply_lifted(ct, lifted);
            let want = eager_oracle::multiply_lifted(ct, lifted);
            assert_same_bits(&got, &want, &format!("{level}"));
        }
    }
}

#[test]
fn tap_sum_folds_its_accumulators_past_the_overflow_bound() {
    let ctx = ctx_61_bit(2);
    for m in ctx.moduli() {
        assert!((60..=64).contains(&lazy::max_terms(m)), "{}", m.value());
    }
    let evaluator = Evaluator::new(&ctx);
    let ct = Ciphertext::from_parts(largest_poly(&ctx), largest_poly(&ctx));
    let lifted = largest_poly(&ctx);
    // (q − 1)² ≡ 1, so n all-(q − 1) terms sum to n exactly — and 300
    // of their products are four u128s' worth.
    for count in [1usize, 63, 64, 65, 128, 129, 300] {
        let terms = vec![(&ct, &lifted); count];
        let sum = evaluator.dot_lifted(&terms);
        for half in [sum.c0(), sum.c1()] {
            assert!(
                half.raw().iter().all(|&r| r == count as u64),
                "{count} terms"
            );
        }
    }
    // And on operands with no closed form: the fold of products again.
    let mut rng = StdRng::seed_from_u64(59);
    let operands: Vec<(Ciphertext, Poly)> = (0..150)
        .map(|_| (random_ct(&ctx, &mut rng), random_poly(&ctx, &mut rng)))
        .collect();
    let terms: Vec<(&Ciphertext, &Poly)> = operands.iter().map(|(ct, w)| (ct, w)).collect();
    let got = evaluator.dot_lifted(&terms);
    assert_same_bits(
        &got,
        &fold_of_products(&evaluator, &terms),
        "150 random terms",
    );
}

#[test]
fn key_switch_is_exact_at_the_largest_sum_a_u128_must_hold() {
    // Through the evaluator: all-(q − 1) digits against real keys whose
    // residues are uniform below 2^61, at the shipped digit counts
    // (k − 1 of k primes) and one.
    for k in [2usize, 3, 5, 9] {
        let ctx = ctx_61_bit(k);
        let mut rng = StdRng::seed_from_u64(61);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let g = galois_elt_from_step(1, ctx.degree());
        let keys = keygen.galois_keys(&[g], &mut rng);
        assert_rotation_matches_oracle(&ctx, &largest_hoist(&ctx), g, &keys, "61-bit, all q-1");
    }
    // On the row kernel: all-(q − 1) digits against all-(q − 1) keys,
    // from the monomorphised digit counts (2 / 4 / 8) and their
    // neighbours up to the last count the bound admits.
    // c0 + k·(q − 1)² ≡ k − 1 and k·(q − 1)² ≡ k.
    let q = ntt_primes(61, 4096, 1)[0];
    let m = Modulus::new(q);
    let n = 64;
    let table: Vec<u32> = (0..n as u32).rev().collect();
    let row = vec![q - 1; n];
    let most = lazy::max_terms(&m) - 1;
    for k in [1usize, 2, 3, 4, 5, 8, 9, most] {
        let digits = vec![(&row[..], &row[..], &row[..]); k];
        let (mut out0, mut out1) = (vec![0u64; n], vec![0u64; n]);
        lazy::key_switch_row(&m, &table, &row, &digits, &mut out0, &mut out1);
        assert!(out0.iter().all(|&r| r == k as u64 - 1), "{k} digits, c0");
        assert!(out1.iter().all(|&r| r == k as u64), "{k} digits, c1");
    }
}

#[test]
#[should_panic(expected = "overflow a u128")]
fn key_switch_refuses_more_digits_than_a_u128_holds() {
    let q = ntt_primes(61, 4096, 1)[0];
    let m = Modulus::new(q);
    let row = vec![q - 1; 8];
    let table: Vec<u32> = (0..8).collect();
    let digits = vec![(&row[..], &row[..], &row[..]); lazy::max_terms(&m)];
    let (mut out0, mut out1) = (vec![0u64; 8], vec![0u64; 8]);
    lazy::key_switch_row(&m, &table, &row, &digits, &mut out0, &mut out1);
}

#[test]
fn key_switch_row_gathers_through_the_table() {
    // One digit, unit keys: the sums are the gathered rows themselves.
    let m = Modulus::new(ntt_primes(36, 4096, 1)[0]);
    let n = 16usize;
    let table: Vec<u32> = (0..n as u32).map(|i| (5 * i + 3) % n as u32).collect();
    let c0: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let digit: Vec<u64> = (0..n as u64).map(|i| 7 * i + 1).collect();
    let (b, a) = (vec![2u64; n], vec![3u64; n]);
    let (mut out0, mut out1) = (vec![0u64; n], vec![0u64; n]);
    lazy::key_switch_row(&m, &table, &c0, &[(&digit, &b, &a)], &mut out0, &mut out1);
    for (i, &t) in table.iter().enumerate() {
        let t = t as usize;
        assert_eq!(out0[i], c0[t] + 2 * digit[t]);
        assert_eq!(out1[i], 3 * digit[t]);
    }
}

/// `⌊(2^128 − q) / (q − 1)²⌋` in arbitrary precision.
fn max_terms_reference(q: u64) -> BigUint {
    let room = BigUint::from_u64(1).shl(128).sub(&BigUint::from_u64(q));
    let product = BigUint::from_u64(q - 1).mul_u64(q - 1);
    room.div_rem(&product).0
}

#[test]
fn max_terms_is_the_big_integer_bound() {
    let mut primes: Vec<u64> = ParamLevel::ALL
        .into_iter()
        .flat_map(|level| EncryptionParams::new(level).coeff_moduli().to_vec())
        .collect();
    assert_eq!(primes.len(), 1 + 3 + 5 + 9);
    primes.extend(ntt_primes(61, 4096, 3));
    // The largest prime `Modulus::new` admits, and the largest value.
    let below_2_62 = (1u64 << 62) - 1;
    primes.push(
        (0..)
            .map(|d| below_2_62 - d)
            .find(|&c| is_prime(c))
            .unwrap(),
    );
    primes.push(below_2_62);
    for q in primes {
        let m = Modulus::new(q);
        let got = lazy::max_terms(&m);
        assert_eq!(
            BigUint::from_u64(got as u64),
            max_terms_reference(q),
            "q = {q}"
        );
        assert!(got >= 16, "q = {q}: {got}");
        // What the bound promises: that many products on top of one
        // reduced residue fit, and one more product need not.
        let product = (q as u128 - 1) * (q as u128 - 1);
        let full = (got as u128)
            .checked_mul(product)
            .and_then(|sum| sum.checked_add(q as u128 - 1));
        assert!(full.is_some(), "q = {q}");
        assert!(full.unwrap().checked_add(product).is_none(), "q = {q}");
    }
    // The shipped levels are nowhere near it.
    let widest = EncryptionParams::new(ParamLevel::N16384).coeff_moduli()[8];
    assert!(lazy::max_terms(&Modulus::new(widest)) >= 1 << 30);
}
