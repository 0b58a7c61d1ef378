//! Hoisted rotations against the coefficient-domain path they replaced.
//!
//! `Evaluator::hoist` + `rotate_hoisted` apply the Galois automorphism
//! as an index permutation of NTT-form residues and share one digit
//! decomposition across rotations. The oracle here is the old order of
//! operations built from public pieces: the automorphism on
//! coefficients (`common::coeff_galois`, the library's old body), then
//! decompose, then transform.
//!
//! * the coefficient-domain oracle is an automorphism group action
//!   (identity, composition);
//! * the index table equals the oracle + `to_ntt` for every Galois
//!   element a convolution asks for and for random odd elements;
//! * hoisted rotations decode to the slot-rotation reference;
//! * rotating by a block step `B` over and over walks the lane: `j`
//!   rotations decode to one rotation by `j·B`, round to the identity
//!   (what the conv engine's Horner giant steps rest on);
//! * `n` rotations from one hoist are bit-identical to `n` independent
//!   `rotate_rows` calls;
//! * every kernel backend produces the same bits;
//! * the noise budget stays within one bit of the oracle's;
//! * a ciphertext whose `c1` is full (a rotation's output, so the
//!   hoist's rounding to a multiple of the last prime is not a no-op)
//!   rotates through a key of `k − 1` digits to the slot reference, at
//!   N4096, N8192 and N16384, with headroom at most one bit below a
//!   lifted upload's rotation (whose `c1` is a multiple of that prime
//!   already).

mod common;

use common::coeff_galois::apply_galois;
use common::conv_steps;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::arch;
use spot_he::encoding::{
    galois_elt_column_swap, galois_elt_from_step, rotate_slots_reference, swap_rows_reference,
};
use spot_he::ntt::galois_ntt_table;
use spot_he::poly::{Poly, PolyForm};
use spot_he::prelude::*;
use std::sync::Arc;

const LEVELS: [ParamLevel; 2] = [ParamLevel::N4096, ParamLevel::N8192];

fn ctx(level: ParamLevel) -> Arc<Context> {
    Context::new(EncryptionParams::new(level))
}

/// A full-range coefficient-form polynomial.
fn random_poly(ctx: &Arc<Context>, seed: u64) -> Poly {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ctx.degree();
    let mut data = vec![0u64; ctx.moduli_count() * n];
    for (row, m) in data.chunks_exact_mut(n).zip(ctx.moduli()) {
        for x in row {
            *x = rng.gen_range(0..m.value());
        }
    }
    Poly::from_residues(ctx, data, PolyForm::Coeff)
}

#[test]
fn coefficient_oracle_is_a_group_action() {
    let ctx = ctx(ParamLevel::N4096);
    let n = ctx.degree();
    let p = random_poly(&ctx, 11);
    assert_eq!(apply_galois(&p, 1).raw(), p.raw(), "identity element");
    // Applying g then h equals applying g·h mod 2N.
    let (g, h) = (3usize, 5usize);
    let stepwise = apply_galois(&apply_galois(&p, g), h);
    assert_eq!(stepwise.raw(), apply_galois(&p, (g * h) % (2 * n)).raw());
}

fn assert_table_matches_coefficient_form(ctx: &Arc<Context>, poly: &Poly, g: usize) {
    let mut want = apply_galois(poly, g);
    want.to_ntt();
    let mut ntt = poly.clone();
    ntt.to_ntt();
    let got = ntt.apply_galois_ntt(&galois_ntt_table(g, ctx.degree()));
    assert_eq!(got.raw(), want.raw(), "g={g} N={}", ctx.degree());
}

#[test]
fn index_table_matches_coefficient_automorphism_for_every_conv_element() {
    for level in LEVELS {
        let ctx = ctx(level);
        let poly = random_poly(&ctx, 5);
        let evaluator = Evaluator::new(&ctx);
        let elements = evaluator.galois_elements(&conv_steps(ctx.degree()), true);
        assert!(elements.contains(&galois_elt_column_swap(ctx.degree())));
        assert!(elements.len() > 40, "only {} elements", elements.len());
        for g in elements {
            assert_table_matches_coefficient_form(&ctx, &poly, g);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_table_matches_coefficient_automorphism_for_any_odd_element(
        half in 0usize..8192,
        seed in 0u64..u64::MAX,
    ) {
        for level in LEVELS {
            let ctx = ctx(level);
            let g = (2 * half + 1) % (2 * ctx.degree());
            assert_table_matches_coefficient_form(&ctx, &random_poly(&ctx, seed), g);
        }
    }
}

struct Setup {
    ctx: Arc<Context>,
    encoder: BatchEncoder,
    decryptor: Decryptor,
    evaluator: Evaluator,
    keys: GaloisKeys,
    values: Vec<u64>,
    ct: Ciphertext,
}

const STEPS: [i64; 8] = [-17, -16, -15, -1, 1, 15, 16, 17];

fn setup(level: ParamLevel) -> Setup {
    let ctx = ctx(level);
    let mut rng = StdRng::seed_from_u64(21);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let encoder = BatchEncoder::new(&ctx);
    let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
    let evaluator = Evaluator::new(&ctx);
    let keys = keygen.galois_keys(&evaluator.galois_elements(&STEPS, true), &mut rng);
    let t = ctx.params().plain_modulus();
    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * i + 3) % t).collect();
    let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
    Setup {
        decryptor: Decryptor::new(&ctx, keygen.secret_key().clone()),
        ctx,
        encoder,
        evaluator,
        keys,
        values,
        ct,
    }
}

/// The eight `STEPS` rotations and the column swap from one hoist.
fn rotate_all_hoisted(s: &Setup) -> Vec<Ciphertext> {
    let n = s.ctx.degree();
    let hoisted = s.evaluator.hoist(&s.ct);
    let mut elements: Vec<usize> = STEPS.iter().map(|&k| galois_elt_from_step(k, n)).collect();
    elements.push(galois_elt_column_swap(n));
    elements
        .iter()
        .map(|&g| s.evaluator.rotate_hoisted(&hoisted, g, &s.keys))
        .collect()
}

#[test]
fn hoisted_rotations_decode_to_the_slot_reference() {
    for level in LEVELS {
        let s = setup(level);
        let rotated = rotate_all_hoisted(&s);
        let decode = |ct: &Ciphertext| s.encoder.decode(&s.decryptor.decrypt(ct));
        for (ct, &step) in rotated.iter().zip(&STEPS) {
            assert_eq!(
                decode(ct),
                rotate_slots_reference(&s.values, step),
                "{level} step {step}"
            );
        }
        assert_eq!(
            decode(&rotated[STEPS.len()]),
            swap_rows_reference(&s.values),
            "{level} column swap"
        );
    }
}

/// A lane of `blocks` channel blocks rotated by one block at a time,
/// each rotation on the result of the last and all by the same key:
/// after `j` of them the slots are where a single rotation by `j`
/// blocks puts them, and after `blocks` of them back where they began.
#[test]
fn repeated_block_steps_compose_and_wrap_round_the_lane() {
    for level in LEVELS {
        let ctx = ctx(level);
        let (n, lane) = (ctx.degree(), (ctx.degree() / 2) as i64);
        let mut rng = StdRng::seed_from_u64(22);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
        let (encoder, evaluator) = (BatchEncoder::new(&ctx), Evaluator::new(&ctx));
        let t = ctx.params().plain_modulus();
        let values: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % t).collect();
        let x = Encryptor::new(&ctx, keygen.public_key(&mut rng))
            .encrypt(&encoder.encode(&values), &mut rng);
        let decode = |ct: &Ciphertext| encoder.decode(&decryptor.decrypt(ct));
        for blocks in [4i64, 16] {
            let step = lane / blocks;
            let (one, two) = (
                galois_elt_from_step(step, n),
                galois_elt_from_step(2 * step, n),
            );
            let keys = keygen.galois_keys(&[one, two], &mut rng);
            let twice_at_once = evaluator.rotate_hoisted(&evaluator.hoist(&x), two, &keys);
            let mut walked = x.clone();
            for j in 1..=blocks {
                walked = evaluator.rotate_hoisted(&evaluator.hoist(&walked), one, &keys);
                let want = match (j * step) % lane {
                    0 => values.clone(),
                    by => rotate_slots_reference(&values, by),
                };
                assert_eq!(decode(&walked), want, "{level} {blocks} blocks, step {j}");
                if j == 2 {
                    assert_eq!(decode(&walked), decode(&twice_at_once), "{level}");
                }
            }
            assert!(
                decryptor.noise_budget(&walked) > 0,
                "{level} {blocks} blocks"
            );
        }
    }
}

#[test]
fn rotations_from_one_hoist_equal_independent_rotations() {
    for level in LEVELS {
        let s = setup(level);
        let shared = rotate_all_hoisted(&s);
        for (ct, &step) in shared.iter().zip(&STEPS) {
            let alone = s.evaluator.rotate_rows(&s.ct, step, &s.keys);
            assert_eq!(ct.to_bytes(), alone.to_bytes(), "{level} step {step}");
        }
        let alone = s.evaluator.rotate_columns(&s.ct, &s.keys);
        assert_eq!(shared[STEPS.len()].to_bytes(), alone.to_bytes());
    }
}

/// The only test in this binary that re-points the global dispatch;
/// the others are indifferent to which bit-identical backend they run.
#[test]
fn every_kernel_backend_rotates_to_the_same_bits() {
    let dispatched = arch::active_name();
    let mut names = vec!["scalar", arch::tuned_best().name];
    names.extend(arch::available().iter().map(|k| k.name));
    for level in LEVELS {
        let s = setup(level);
        let runs: Vec<Vec<Vec<u8>>> = names
            .iter()
            .map(|name| {
                arch::force(name).expect("backend reported available");
                rotate_all_hoisted(&s)
                    .iter()
                    .map(|c| c.to_bytes())
                    .collect()
            })
            .collect();
        for (name, run) in names.iter().zip(&runs) {
            assert!(run == &runs[0], "{level}: {name} differs from scalar");
        }
    }
    arch::force(dispatched).expect("restore the startup dispatch");
}

/// `c1 − δ` for a coefficient-form `c1`, one coefficient at a time in
/// signed arithmetic: `δ` is the coefficient's residue modulo the last
/// prime, centred, and every row loses it.
fn round_to_last_prime(c1: &Poly) -> Poly {
    let ctx = c1.context();
    let k = ctx.moduli_count();
    let q_last = ctx.moduli()[k - 1].value() as i128;
    let mut data = c1.raw().to_vec();
    let n = ctx.degree();
    for c in 0..n {
        let x = c1.residues(k - 1)[c] as i128;
        let delta = if x > q_last / 2 { x - q_last } else { x };
        for (j, m) in ctx.moduli().iter().enumerate() {
            let q = m.value() as i128;
            data[j * n + c] = (data[j * n + c] as i128 - delta).rem_euclid(q) as u64;
        }
    }
    Poly::from_residues(ctx, data, PolyForm::Coeff)
}

/// The path `rotate_hoisted` replaced: automorphism on coefficients
/// first, then the digit decomposition of the rotated `c1`, rounded to
/// a multiple of the last prime (the rounding commutes with the
/// automorphism, which only permutes and negates coefficients).
fn rotate_in_coefficient_form(s: &Setup, g: usize) -> Ciphertext {
    let (ctx, n) = (&s.ctx, s.ctx.degree());
    let rotated = |p: &Poly| {
        let mut p = p.clone();
        p.to_coeff();
        apply_galois(&p, g)
    };
    let mut acc0 = rotated(s.ct.c0());
    acc0.to_ntt();
    let mut acc1 = Poly::zero(ctx, PolyForm::Ntt);
    let c1 = round_to_last_prime(&rotated(s.ct.c1()));
    assert!(c1.residues(ctx.moduli_count() - 1).iter().all(|&r| r == 0));
    let pairs = s.keys.pairs(g).expect("key present");
    for (i, (b_i, a_i)) in pairs.iter().enumerate() {
        let mut data = vec![0u64; ctx.moduli_count() * n];
        for (row, m) in data.chunks_exact_mut(n).zip(ctx.moduli()) {
            for (x, &c) in row.iter_mut().zip(c1.residues(i)) {
                *x = m.reduce(c);
            }
        }
        let mut digit = Poly::from_residues(ctx, data, PolyForm::Coeff);
        digit.to_ntt();
        for (acc, key) in [(&mut acc0, b_i), (&mut acc1, a_i)] {
            let mut product = digit.clone();
            product.mul_assign_ntt(key);
            acc.add_assign(&product);
        }
    }
    Ciphertext::from_parts(acc0, acc1)
}

#[test]
fn noise_budget_is_within_one_bit_of_the_coefficient_path() {
    for level in LEVELS {
        let s = setup(level);
        let fresh = s.decryptor.noise_budget(&s.ct);
        for step in [1i64, -16, 17] {
            let g = galois_elt_from_step(step, s.ctx.degree());
            let oracle = rotate_in_coefficient_form(&s, g);
            let hoisted = s.evaluator.rotate_rows(&s.ct, step, &s.keys);
            // Different encryptions of the same rotated plaintext …
            assert_ne!(hoisted.to_bytes(), oracle.to_bytes());
            assert_eq!(
                s.decryptor.decrypt(&hoisted).coeffs(),
                s.decryptor.decrypt(&oracle).coeffs()
            );
            // … with the same noise.
            let (got, want) = (
                s.decryptor.noise_budget(&hoisted),
                s.decryptor.noise_budget(&oracle),
            );
            assert!(
                got.abs_diff(want) <= 1 && got > 0,
                "{level} step {step}: hoisted {got} bits, oracle {want} bits (fresh {fresh})"
            );
        }
    }
}

const ALL_LEVELS: [ParamLevel; 3] = [ParamLevel::N4096, ParamLevel::N8192, ParamLevel::N16384];

/// Each level's context, its keys (secret, and two rotation keys of
/// `k − 1` digits) and the client's encryptor at the result primes,
/// built once per binary.
struct Fixture {
    ctx: Arc<Context>,
    encoder: BatchEncoder,
    decryptor: Decryptor,
    uploader: SymmetricEncryptor,
    keys: GaloisKeys,
}

/// The steps [`a_full_c1_rotates_through_k_minus_1_digits`] rotates by.
const FULL_STEPS: [i64; 2] = [1, -16];

fn fixture(level: usize) -> &'static Fixture {
    static FIXTURES: [std::sync::OnceLock<Fixture>; 3] = [
        std::sync::OnceLock::new(),
        std::sync::OnceLock::new(),
        std::sync::OnceLock::new(),
    ];
    FIXTURES[level].get_or_init(|| {
        let ctx = ctx(ALL_LEVELS[level]);
        let mut rng = StdRng::seed_from_u64(31);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let elements = Evaluator::new(&ctx).galois_elements(&FULL_STEPS, false);
        let rctx = ctx.result_context();
        Fixture {
            encoder: BatchEncoder::new(&ctx),
            decryptor: Decryptor::new(&ctx, keygen.secret_key().clone()),
            uploader: SymmetricEncryptor::new(rctx, keygen.secret_key().restricted_to(rctx)),
            keys: keygen.galois_keys(&elements, &mut rng),
            ctx,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// An upload at the result primes, lifted, has a `c1` that is zero
    /// modulo the last prime; its rotation's is not, so rotating that
    /// rotation exercises the rounding. A digit dropped without it
    /// loses `d_{k−1}·g_{k−1}·s(X^g)` and decrypts to garbage.
    #[test]
    fn a_full_c1_rotates_through_k_minus_1_digits(seed in 0u64..u64::MAX, first in 0usize..2) {
        for (level, name) in ALL_LEVELS.iter().enumerate() {
            let f = fixture(level);
            let (k, evaluator) = (f.ctx.moduli_count(), Evaluator::new(&f.ctx));
            for g in f.keys.elements() {
                prop_assert_eq!(f.keys.pairs(g).expect("held").len(), k - 1);
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let t = f.ctx.params().plain_modulus();
            let values: Vec<u64> = (0..f.ctx.degree()).map(|_| rng.gen_range(0..t)).collect();
            let rctx = f.ctx.result_context();
            let sent = f.uploader.encrypt(&f.encoder.encode(&values), &mut rng).to_bytes();
            let sent = Ciphertext::try_from_seeded_bytes(rctx, &sent).expect("own upload");
            let upload = (f.ctx.result_switch().expect("three primes or more")).lift(&f.ctx, sent);
            let (a, b) = (FULL_STEPS[first], FULL_STEPS[1 - first]);
            let last_row = |ct: &Ciphertext| ct.c1().residues(k - 1).iter().any(|&r| r != 0);
            prop_assert!(!last_row(&upload), "{name}");
            let once = evaluator.rotate_rows(&upload, a, &f.keys);
            prop_assert!(last_row(&once), "{name}: a rotation's c1 is full");
            let twice = evaluator.rotate_rows(&once, b, &f.keys);
            let want = rotate_slots_reference(&rotate_slots_reference(&values, a), b);
            prop_assert_eq!(f.encoder.decode(&f.decryptor.decrypt(&twice)), want, "{}", name);
            let (got, upload) = (
                f.decryptor.noise_budget(&twice),
                f.decryptor.noise_budget(&once),
            );
            prop_assert!(
                got + 1 >= upload,
                "{name}: full c1 {got} bits, lifted upload's rotation {upload} bits"
            );
        }
    }
}
