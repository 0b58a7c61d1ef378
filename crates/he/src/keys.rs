//! Key material: secret key, public key, and Galois (rotation) keys.
//!
//! The secret key is a uniform ternary polynomial. Galois keys are
//! RNS-decomposition key-switching keys (GHS style, one digit per
//! coefficient prime but the last): digit `i` encrypts `g_i · s(X^g)`
//! under `s`, where `g_i = (q/q_i)·[(q/q_i)^{-1}]_{q_i}` is the CRT
//! gadget. The last prime needs no digit because the hoist rounds `c1`
//! to a multiple of it first ([`crate::evaluator::Evaluator::hoist`]).
//!
//! The uniform half `a_i` of every key-switch pair is the output of a
//! PRG on a 32-byte [`KeySeed`] (`expand_seed`): a key is written from
//! its seed straight to its wire form, the seed plus the `b_i` only
//! ([`crate::serial`]), one RNS row at a time
//! ([`KeyGenerator::galois_key_blob`]).

use crate::ciphertext::{residue_bits, write_packed};
use crate::context::Context;
use crate::ntt::galois_ntt_table;
use crate::poly::{Poly, PolyForm};
use crate::pool;
use crate::prg::SeedRows;
use crate::serial::{galois_keys_from_bytes, write_galois_entry_header};
use rand::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// Samples a uniform ternary polynomial (coefficients in `{-1, 0, 1}`),
/// coefficient form.
pub(crate) fn sample_ternary<R: Rng>(ctx: &Arc<Context>, rng: &mut R) -> Poly {
    let n = ctx.degree();
    let coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range(-1i64..=1)).collect();
    Poly::from_signed_coeffs(ctx, &coeffs)
}

/// `x.count_ones()` for every byte. The default x86-64 target has no
/// POPCNT instruction, so `count_ones` compiles to a bit-twiddle that
/// costs more than the draw it counts.
const POPCOUNT: [i8; 256] = {
    let mut table = [0i8; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = (byte as u8).count_ones() as i8;
        byte += 1;
    }
    table
};

/// One centered-binomial sample (η = 8, σ = 2) from one draw: the
/// popcount of its low byte less that of its second byte.
fn cbd<R: Rng>(rng: &mut R) -> i8 {
    let bits: u16 = rng.gen();
    POPCOUNT[(bits & 0xFF) as usize] - POPCOUNT[(bits >> 8) as usize]
}

/// Samples a centered-binomial error polynomial (η = 8, σ = 2),
/// coefficient form.
pub(crate) fn sample_error<R: Rng>(ctx: &Arc<Context>, rng: &mut R) -> Poly {
    let coeffs: Vec<i64> = (0..ctx.degree()).map(|_| i64::from(cbd(rng))).collect();
    Poly::from_signed_coeffs(ctx, &coeffs)
}

/// Samples a uniform polynomial over the full RNS space, NTT form.
pub(crate) fn sample_uniform<R: Rng>(ctx: &Arc<Context>, rng: &mut R) -> Poly {
    let n = ctx.degree();
    let k = ctx.moduli_count();
    // Every element is written below, so a dirty pooled buffer is fine.
    let mut data = pool::take(k * n);
    for (i, m) in ctx.moduli().iter().enumerate() {
        for j in 0..n {
            data[i * n + j] = rng.gen_range(0..m.value());
        }
    }
    Poly::from_residues(ctx, data, PolyForm::Ntt)
}

/// What the uniform polynomials of one key-switching key, or the `c1`
/// of one uploaded ciphertext, expand from.
pub type KeySeed = [u8; 32];

/// The first `polys` uniform polynomials of `seed`'s stream, NTT form:
/// `sample_uniform` over `StdRng::from_seed(seed)`, one after the
/// other — the `k − 1` digits `a_0..a_{k-2}` of a key-switching key, the one
/// `c1` of a seeded ciphertext. Whoever makes a seeded object and
/// whoever reads it both call this, so its output for a given seed is
/// part of the wire format; `prg::SeedRows` draws it a prime row at a
/// time through the dispatched row body.
pub fn expand_seed(ctx: &Arc<Context>, seed: &KeySeed, polys: usize) -> Vec<Poly> {
    let n = ctx.degree();
    let mut rows = SeedRows::new(seed, n);
    let mut expand = || {
        // Every element is written below, so a dirty pooled buffer is fine.
        let mut data = pool::take(ctx.moduli_count() * n);
        for (row, m) in data.chunks_exact_mut(n).zip(ctx.moduli()) {
            rows.next_row(m.value(), row);
        }
        Poly::from_residues(ctx, data, PolyForm::Ntt)
    };
    (0..polys).map(|_| expand()).collect()
}

/// The secret key (ternary polynomial, stored in NTT form).
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: Poly,
}

impl SecretKey {
    /// The same secret in `target`, whose primes are the first
    /// `target.moduli_count()` of this key's: the key's first NTT rows as
    /// they are (same primes, same transform tables) — what decrypts a
    /// ciphertext switched down to those primes.
    ///
    /// # Panics
    ///
    /// Panics if `target`'s degree differs or its primes are not a
    /// prefix of the key's.
    pub fn restricted_to(&self, target: &Arc<Context>) -> SecretKey {
        let own = self.s.context();
        let keep = target.moduli_count();
        assert_eq!(target.degree(), own.degree(), "degree mismatch");
        assert_eq!(
            target.params().coeff_moduli(),
            &own.params().coeff_moduli()[..keep],
            "target primes are not a prefix of the key's"
        );
        let len = keep * own.degree();
        let mut rows = pool::take(len);
        rows.copy_from_slice(&self.s.raw()[..len]);
        SecretKey {
            s: Poly::from_residues(target, rows, PolyForm::Ntt),
        }
    }
}

/// The public key `(b, a)` with `b = -(a·s + e)`, stored in NTT form.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pub(crate) b: Poly,
    pub(crate) a: Poly,
}

/// The key-switching key of one Galois element `g`: for each RNS digit
/// `i` (one per prime but the last), a pair `(b_i, a_i)` with
/// `b_i = -(a_i·s + e_i) + g_i·s(X^g)`, all in NTT form.
#[derive(Debug, Clone)]
pub struct KeySwitchKey {
    pub(crate) pairs: Vec<(Poly, Poly)>,
    /// The seed every `a_i` above is [`expand_seed`]'s output for: all
    /// of them that is serialized.
    pub(crate) seed: KeySeed,
    /// `X → X^g` as an index table over NTT-form residues. Derived from
    /// `g` alone wherever a key is generated or deserialized; never
    /// part of the serialized key.
    pub(crate) ntt_table: Vec<u32>,
}

impl KeySwitchKey {
    /// The key for Galois element `g` whose serialized form is `seed`
    /// and `b`: re-expands the `a_i` and rebuilds the index table.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not hold one polynomial per key-switch digit,
    /// or `g` is not an odd element of `[1, 2N)`.
    pub(crate) fn from_seeded(ctx: &Arc<Context>, g: usize, seed: KeySeed, b: Vec<Poly>) -> Self {
        let digits = ctx.params().key_switch_digits();
        assert_eq!(b.len(), digits, "one b_i per key-switch digit");
        Self {
            pairs: (b.into_iter())
                .zip(expand_seed(ctx, &seed, digits))
                .collect(),
            seed,
            ntt_table: galois_ntt_table(g, ctx.degree()),
        }
    }
}

/// Galois keys: a key-switching key per Galois element.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    pub(crate) keys: HashMap<usize, KeySwitchKey>,
}

impl GaloisKeys {
    /// The Galois elements keys exist for.
    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        self.keys.keys().copied()
    }

    /// Whether a key exists for `galois_elt`.
    pub fn contains(&self, galois_elt: usize) -> bool {
        self.keys.contains_key(&galois_elt)
    }

    /// The key-switch pairs `(b_i, a_i)` held for `galois_elt`, one per
    /// key-switch digit, in NTT form.
    pub fn pairs(&self, galois_elt: usize) -> Option<&[(Poly, Poly)]> {
        self.keys.get(&galois_elt).map(|ksk| ksk.pairs.as_slice())
    }

    /// Moves every key of `more` into this set, replacing a key already
    /// held for the same element.
    pub fn extend(&mut self, more: GaloisKeys) {
        self.keys.extend(more.keys);
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no keys are held.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Generates secret/public/Galois keys for a context.
#[derive(Debug)]
pub struct KeyGenerator {
    ctx: Arc<Context>,
    sk: SecretKey,
}

impl KeyGenerator {
    /// Generates a fresh secret key.
    pub fn new<R: Rng>(ctx: &Arc<Context>, rng: &mut R) -> Self {
        let mut s = sample_ternary(ctx, rng);
        s.to_ntt();
        Self {
            ctx: Arc::clone(ctx),
            sk: SecretKey { s },
        }
    }

    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Generates the public key.
    pub fn public_key<R: Rng>(&self, rng: &mut R) -> PublicKey {
        let a = sample_uniform(&self.ctx, rng);
        let mut e = sample_error(&self.ctx, rng);
        e.to_ntt();
        // b = -(a*s + e)
        let mut b = a.clone();
        b.mul_assign_ntt(&self.sk.s);
        b.add_assign(&e);
        b.neg_assign();
        PublicKey { b, a }
    }

    /// Generates Galois keys for the given Galois elements: per
    /// element, in the order given, [`Self::galois_key_blob`]'s bytes
    /// read back as the server reads them.
    ///
    /// # Panics
    ///
    /// Panics if the parameter level does not support rotation (fewer than
    /// two RNS primes leave no room for key-switching noise).
    pub fn galois_keys<R: Rng>(&self, elements: &[usize], rng: &mut R) -> GaloisKeys {
        let mut keys = GaloisKeys::default();
        for &g in elements {
            let blob = self.galois_key_blob(g, rng);
            keys.extend(
                galois_keys_from_bytes(&self.ctx, &blob).expect("a key read back as written"),
            );
        }
        keys
    }

    /// The key of Galois element `g` as the wire carries it: the bytes
    /// [`galois_keys_to_bytes`](crate::serial::galois_keys_to_bytes)
    /// writes for a set of that one key. `rng` yields the key's 32-byte
    /// seed and then its `k − 1` error polynomials, one per digit.
    ///
    /// The blob is written one prime row at a time, and no polynomial
    /// of the key is ever whole: per digit `i` the error `e_i` is
    /// sampled once, and per prime `j` row `j` of `a_i` is expanded
    /// from the seed, row `j` of `e_i` transformed, and row `j` of
    /// `b_i = -(a_i·s + e_i) + g_i·s(X^g)` made by the dispatched
    /// kernels' row passes and packed into the blob. The CRT gadget
    /// `g_i` is 1 mod `q_i` and 0 mod every other prime, so its term is
    /// row `i` of `s(X^g)`, read off the NTT form of `s` through the
    /// index table the key's rotations use, in row `i` only.
    ///
    /// # Panics
    ///
    /// Panics as [`Self::galois_keys`] does, and if `g` is not an odd
    /// element of `[1, 2N)`.
    pub fn galois_key_blob<R: Rng>(&self, g: usize, rng: &mut R) -> Vec<u8> {
        let ctx = &self.ctx;
        assert!(
            ctx.params().level().supports_rotation(),
            "parameter level {} does not support rotations",
            ctx.params().level()
        );
        let (n, digits) = (ctx.degree(), ctx.params().key_switch_digits());
        let mut seed = KeySeed::default();
        rng.fill_bytes(&mut seed);
        let mut out = Vec::with_capacity(4 + ctx.params().galois_key_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        write_galois_entry_header(&mut out, g, digits, &seed);
        let table = galois_ntt_table(g, n);
        let kernels = crate::arch::kernels();
        let mut rows = SeedRows::new(&seed, n);
        // Every element of the three is written before it is read.
        let (mut a, mut e, mut shifted) = (pool::take(n), pool::take(n), pool::take(n));
        for i in 0..digits {
            // `8 − e_i`'s coefficients are residues modulo every prime:
            // row j of `−e_i` is a copy with 8 taken off modulo q_j.
            shifted.fill_with(|| (8 - cbd(rng)) as u64);
            // One polynomial's transform, as `Poly::to_ntt` counts it.
            spot_trace::count(spot_trace::Counter::NttFwd, 1);
            for (j, (m, tables)) in ctx.moduli().iter().zip(ctx.ntt_tables()).enumerate() {
                let (q, s) = (m.value(), self.sk.s.residues(j));
                rows.next_row(q, &mut a);
                e.copy_from_slice(&shifted);
                (kernels.add_scalar)(m, &mut e, q - 8);
                tables.forward(&mut e);
                (kernels.pointwise_mul)(m, &mut a, s);
                (kernels.pointwise_sub)(m, &mut e, &a);
                if i == j {
                    for (r, &t) in a.iter_mut().zip(&table) {
                        *r = s[t as usize];
                    }
                    (kernels.pointwise_add)(m, &mut e, &a);
                }
                write_packed(&mut out, &e, residue_bits(m));
            }
        }
        for buf in [a, e, shifted] {
            pool::recycle(buf);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EncryptionParams, ParamLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn public_key_relation_holds() {
        // b + a*s should equal -e (small).
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        let mut check = pk.a.clone();
        check.mul_assign_ntt(&kg.secret_key().s);
        check.add_assign(&pk.b);
        check.to_coeff();
        // every coefficient small when centered
        for j in 0..ctx.degree() {
            let residues: Vec<u64> = (0..ctx.moduli_count())
                .map(|i| check.residues(i)[j])
                .collect();
            let (mag, _) = ctx.crt_lift_centered(&residues);
            assert!(mag.bits() <= 6, "error coefficient too large: {mag}");
        }
    }

    #[test]
    fn ternary_and_error_distributions_bounded() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(2);
        let t = sample_ternary(&ctx, &mut rng);
        let m0 = ctx.moduli()[0];
        for &c in t.residues(0) {
            assert!(c == 0 || c == 1 || c == m0.value() - 1);
        }
        let e = sample_error(&ctx, &mut rng);
        for &c in e.residues(0) {
            let centered = if c > m0.value() / 2 {
                m0.value() - c
            } else {
                c
            };
            assert!(centered <= 8, "CBD sample out of range");
        }
    }

    #[test]
    fn galois_keys_for_requested_elements() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(3);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[3, 9, 8191], &mut rng);
        assert_eq!(gk.len(), 3);
        assert!(gk.contains(3) && gk.contains(9) && gk.contains(8191));
        assert!(!gk.contains(27));
    }

    #[test]
    fn uniform_half_is_the_seed_expansion_and_seeds_differ() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(3);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[3, 9], &mut rng);
        for g in [3, 9] {
            let ksk = &gk.keys[&g];
            let digits = ctx.params().key_switch_digits();
            let expanded = expand_seed(&ctx, &ksk.seed, digits);
            assert_eq!(ksk.pairs.len(), digits);
            for ((_, a_i), want) in ksk.pairs.iter().zip(&expanded) {
                assert_eq!(a_i.raw(), want.raw(), "element {g}");
            }
        }
        assert_ne!(gk.keys[&3].seed, gk.keys[&9].seed);
    }

    #[test]
    #[should_panic]
    fn rotation_keys_rejected_at_n2048() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N2048));
        let mut rng = StdRng::seed_from_u64(4);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let _ = kg.galois_keys(&[3], &mut rng);
    }
}
