//! Key material: secret key, public key, and Galois (rotation) keys.
//!
//! The secret key is a uniform ternary polynomial. Galois keys are
//! RNS-decomposition key-switching keys (one digit per coefficient prime,
//! GHS style): digit `i` encrypts `g_i · s(X^g)` under `s`, where
//! `g_i = (q/q_i)·[(q/q_i)^{-1}]_{q_i}` is the CRT gadget.
//!
//! The uniform half `a_i` of every key-switch pair is the output of a
//! PRG on a 32-byte [`KeySeed`] (`expand_seed`): a key is generated
//! from its seed, keeps it, and is serialized as the seed plus the
//! `b_i` only ([`crate::serial`]).

use crate::context::Context;
use crate::ntt::galois_ntt_table;
use crate::poly::{Poly, PolyForm};
use crate::pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Samples a uniform ternary polynomial (coefficients in `{-1, 0, 1}`),
/// coefficient form.
pub(crate) fn sample_ternary<R: Rng>(ctx: &Arc<Context>, rng: &mut R) -> Poly {
    let n = ctx.degree();
    let coeffs: Vec<i64> = (0..n).map(|_| rng.gen_range(-1i64..=1)).collect();
    Poly::from_signed_coeffs(ctx, &coeffs)
}

/// Samples a centered-binomial error polynomial (η = 8, σ = 2),
/// coefficient form.
pub(crate) fn sample_error<R: Rng>(ctx: &Arc<Context>, rng: &mut R) -> Poly {
    let n = ctx.degree();
    let coeffs: Vec<i64> = (0..n)
        .map(|_| {
            let bits: u16 = rng.gen();
            let a = (bits & 0xFF).count_ones() as i64;
            let b = (bits >> 8).count_ones() as i64;
            a - b
        })
        .collect();
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
/// [`sample_uniform`] over `StdRng::from_seed(seed)`, one after the
/// other — the `k` digits `a_0..a_{k-1}` of a key-switching key, the one
/// `c1` of a seeded ciphertext. Whoever makes a seeded object and
/// whoever reads it both call this, so its output for a given seed is
/// part of the wire format.
pub(crate) fn expand_seed(ctx: &Arc<Context>, seed: &KeySeed, polys: usize) -> Vec<Poly> {
    let mut prg = StdRng::from_seed(*seed);
    (0..polys).map(|_| sample_uniform(ctx, &mut prg)).collect()
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
/// `i`, a pair `(b_i, a_i)` with `b_i = -(a_i·s + e_i) + g_i·s(X^g)`,
/// all in NTT form.
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
    /// Panics if `b` does not hold one polynomial per RNS digit, or `g`
    /// is not an odd element of `[1, 2N)`.
    pub(crate) fn from_seeded(ctx: &Arc<Context>, g: usize, seed: KeySeed, b: Vec<Poly>) -> Self {
        assert_eq!(b.len(), ctx.moduli_count(), "one b_i per RNS digit");
        Self {
            pairs: (b.into_iter())
                .zip(expand_seed(ctx, &seed, ctx.moduli_count()))
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
    /// RNS digit, in NTT form.
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

    /// Generates Galois keys for the given Galois elements. Per element,
    /// in the order given, `rng` yields the key's 32-byte seed and then
    /// its `k` error polynomials; the `a_i` come from the seed.
    ///
    /// # Panics
    ///
    /// Panics if the parameter level does not support rotation (fewer than
    /// two RNS primes leave no room for key-switching noise).
    pub fn galois_keys<R: Rng>(&self, elements: &[usize], rng: &mut R) -> GaloisKeys {
        assert!(
            self.ctx.params().level().supports_rotation(),
            "parameter level {} does not support rotations",
            self.ctx.params().level()
        );
        let add = crate::arch::kernels().pointwise_add;
        let mut keys = HashMap::new();
        for &g in elements {
            let mut seed = KeySeed::default();
            rng.fill_bytes(&mut seed);
            // s' = s(X^g), read off the NTT form of s through the same
            // index table the key carries for its rotations.
            let ntt_table = galois_ntt_table(g, self.ctx.degree());
            let s_auto = self.sk.s.apply_galois_ntt(&ntt_table);
            let pairs = expand_seed(&self.ctx, &seed, self.ctx.moduli_count())
                .into_iter()
                .enumerate()
                .map(|(i, a_i)| {
                    let mut e_i = sample_error(&self.ctx, rng);
                    e_i.to_ntt();
                    // b_i = -(a_i*s + e_i) + g_i * s'. The CRT gadget
                    // g_i is 1 mod q_i and 0 mod every other prime, so
                    // the last term is row i of s' added to row i.
                    let mut b_i = a_i.clone();
                    b_i.mul_assign_ntt(&self.sk.s);
                    b_i.add_assign(&e_i);
                    b_i.neg_assign();
                    add(
                        &self.ctx.moduli()[i],
                        b_i.residues_mut(i),
                        s_auto.residues(i),
                    );
                    (b_i, a_i)
                })
                .collect();
            keys.insert(
                g,
                KeySwitchKey {
                    pairs,
                    seed,
                    ntt_table,
                },
            );
        }
        GaloisKeys { keys }
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
            let expanded = expand_seed(&ctx, &ksk.seed, ctx.moduli_count());
            assert_eq!(ksk.pairs.len(), ctx.moduli_count());
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
