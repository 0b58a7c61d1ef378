//! The sparse result form against the whole ciphertext, bit for bit:
//!
//! * decrypting a [`SparseCiphertext`] gives exactly the full
//!   decryption's coefficients at its positions, on random two-prime
//!   ciphertexts of N4096, N8192 and N16384, for position sets that hold
//!   `0` and `N − 1` among random ones and for the positions a Cheetah
//!   layer's share reads (a strided layer and one whose channels take
//!   several input ciphertexts);
//! * its blob reads back to the same result, at the exact length
//!   [`EncryptionParams::sparse_ciphertext_bytes`] states;
//! * the server's sparse switch ([`ModSwitch::switch_masked_sparse`],
//!   `c0` leaving the switch in coefficient form) is the full masked
//!   switch cut down to the positions, and decrypts like it;
//! * the noise budget read at every position is the whole ciphertext's.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::encoding::Plaintext;
use spot_he::modswitch::ModSwitch;
use spot_he::poly::{Poly, PolyForm};
use spot_he::prelude::*;
use std::sync::{Arc, OnceLock};

const LEVELS: [ParamLevel; 3] = [ParamLevel::N4096, ParamLevel::N8192, ParamLevel::N16384];

/// Each level's context, one secret key, and a decryptor of results
/// under its row prefix, built once per binary.
struct Fixture {
    ctx: Arc<Context>,
    keygen: KeyGenerator,
    decryptor: Decryptor,
}

fn fixture(level: usize) -> &'static Fixture {
    static FIXTURES: [OnceLock<Fixture>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    FIXTURES[level].get_or_init(|| {
        let ctx = Context::new(EncryptionParams::new(LEVELS[level]));
        let keygen = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(level as u64));
        let rctx = ctx.result_context();
        let decryptor = Decryptor::new(rctx, keygen.secret_key().restricted_to(rctx));
        Fixture {
            ctx,
            keygen,
            decryptor,
        }
    })
}

fn switch(f: &Fixture) -> &ModSwitch {
    f.ctx.result_switch().expect("more than two primes")
}

/// The coefficients a Cheetah layer's share reads of every result: each
/// output pixel's kernel centre in the halo-padded map, one chunk of
/// channels in (`spot_core::cheetah`'s layout, restated).
fn cheetah_positions(
    n: usize,
    (h, w, c_in, k, stride): (usize, usize, usize, usize, usize),
) -> Vec<usize> {
    let (hp, wp) = (h + k - 1, w + k - 1);
    let chunk = (n / (hp * wp)).div_ceil(2).min(c_in);
    let (base, pad) = ((chunk - 1) * hp * wp, (k - 1) / 2);
    (0..h.div_ceil(stride))
        .flat_map(|y| {
            (0..w.div_ceil(stride)).map(move |x| base + (y * stride + pad) * wp + x * stride + pad)
        })
        .collect()
}

/// Position set `kind` at degree `n`: the two ends among random ones, a
/// strided Cheetah layer, or a Cheetah layer of several chunks.
fn positions(kind: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    match kind {
        0 => {
            let mut p = vec![0, n - 1];
            p.extend((0..rng.gen_range(0..64)).map(|_| rng.gen_range(0..n)));
            p
        }
        // 8x8, 4 channels, 3x3 at stride 2: 16 positions one chunk in.
        1 => cheetah_positions(n, (8, 8, 4, 3, 2)),
        // 16x16, 16 channels, 3x3: six channels a chunk at N4096.
        _ => cheetah_positions(n, (16, 16, 16, 3, 1)),
    }
}

/// A polynomial with uniformly random NTT residues.
fn uniform(ctx: &Arc<Context>, rng: &mut StdRng) -> Poly {
    let n = ctx.degree();
    let data = (ctx.moduli().iter())
        .flat_map(|m| {
            (0..n)
                .map(|_| rng.gen_range(0..m.value()))
                .collect::<Vec<_>>()
        })
        .collect();
    Poly::from_residues(ctx, data, PolyForm::Ntt)
}

/// A uniformly random ciphertext at the level's two result primes.
fn random_result(f: &Fixture, rng: &mut StdRng) -> Ciphertext {
    let rctx = f.ctx.result_context();
    Ciphertext::from_parts(uniform(rctx, rng), uniform(rctx, rng))
}

fn at(coeffs: &[u64], positions: &[usize]) -> Vec<u64> {
    positions.iter().map(|&p| coeffs[p]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sparse_decryption_equals_the_full_one_at_the_positions(
        level in 0usize..3,
        kind in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let f = fixture(level);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = f.ctx.degree();
        let positions = positions(kind, n, &mut rng);
        let ct = random_result(f, &mut rng);
        let want = at(f.decryptor.decrypt(&ct).coeffs(), &positions);

        let sparse = SparseCiphertext::from_full(&ct, &positions);
        prop_assert_eq!(&f.decryptor.decrypt_sparse(&sparse), &want, "{}", LEVELS[level]);

        let blob = sparse.to_bytes();
        let rctx = f.ctx.result_context();
        prop_assert_eq!(rctx.params(), &f.ctx.params().result_params());
        prop_assert_eq!(blob.len(), rctx.params().sparse_ciphertext_bytes(positions.len()));
        let read = SparseCiphertext::try_from_bytes(rctx, &blob, &positions).expect("own blob");
        prop_assert_eq!(read.to_bytes(), blob);
        prop_assert_eq!(&f.decryptor.decrypt_sparse(&read), &want);
    }

    #[test]
    fn the_sparse_switch_is_the_full_switch_at_the_positions(
        level in 0usize..3,
        kind in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let f = fixture(level);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = f.ctx.degree();
        let positions = positions(kind, n, &mut rng);
        let ct = Ciphertext::from_parts(uniform(&f.ctx, &mut rng), uniform(&f.ctx, &mut rng));
        let t = f.ctx.params().plain_modulus();
        let mask = Plaintext::from_coeffs((0..n).map(|_| rng.gen_range(0..t)).collect());

        let full = switch(f).switch_masked(ct.clone(), &mask);
        let sparse = switch(f).switch_masked_sparse(ct, &mask, &positions);
        prop_assert_eq!(sparse.c1().raw(), full.c1().raw());
        let mut c0 = full.c0().clone();
        c0.to_coeff();
        for i in 0..c0.context().moduli_count() {
            prop_assert_eq!(sparse.c0_residues(i), &at(c0.residues(i), &positions)[..]);
        }
        let want = at(f.decryptor.decrypt(&full).coeffs(), &positions);
        prop_assert_eq!(f.decryptor.decrypt_sparse(&sparse), want);
    }
}

/// Read at every position, a result's sparse noise budget is its whole
/// budget.
#[test]
fn noise_budget_at_every_position_is_the_whole_budget() {
    let f = fixture(0);
    let mut rng = StdRng::seed_from_u64(5);
    let encryptor = Encryptor::new(&f.ctx, f.keygen.public_key(&mut rng));
    let values: Vec<u64> = (0..f.ctx.degree() as u64).collect();
    let ct = encryptor.encrypt(&Plaintext::from_coeffs(values), &mut rng);
    let result = switch(f).switch(ct);
    let all: Vec<usize> = (0..f.ctx.degree()).collect();
    let sparse = SparseCiphertext::from_full(&result, &all);
    let budget = f.decryptor.noise_budget(&result);
    assert!(budget > 0);
    assert_eq!(f.decryptor.noise_budget_sparse(&sparse), budget);
    // Fewer positions never report less headroom than the whole.
    let few = SparseCiphertext::from_full(&result, &[0, 17, f.ctx.degree() - 1]);
    assert!(f.decryptor.noise_budget_sparse(&few) >= budget);
}
