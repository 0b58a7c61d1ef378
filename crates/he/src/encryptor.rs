//! Encryption and decryption.
//!
//! Decryption computes `m = ⌈t·x/q⌋ mod t` for each coefficient `x` of
//! `c0 + c1·s` without leaving RNS: with `y_i = [x_i·(q/q_i)^{-1}]_{q_i}`,
//! `x ≡ Σ y_i·(q/q_i) (mod q)`, so `t·x/q ≡ Σ y_i·t/q_i (mod t)` as real
//! numbers, and the sum is taken in 64.64 fixed point. `q` is odd, so the
//! exact value is never a half-integer; a coefficient whose fixed-point
//! sum is too close to one to tell falls back to an exact big-integer CRT
//! lift, which makes the result bit-exact on every input — the
//! correctness tests of the convolution schemes rely on that.

use crate::bigint::BigUint;
use crate::ciphertext::{Ciphertext, SeededCiphertext, SparseCiphertext};
use crate::context::Context;
use crate::encoding::Plaintext;
use crate::keys::{expand_seed, sample_error, sample_ternary, KeySeed, PublicKey, SecretKey};
use crate::poly::Poly;
use crate::pool;
use rand::Rng;
use std::sync::Arc;

/// Encrypts plaintexts under a public key.
#[derive(Debug)]
pub struct Encryptor {
    ctx: Arc<Context>,
    pk: PublicKey,
}

impl Encryptor {
    /// Creates an encryptor.
    pub fn new(ctx: &Arc<Context>, pk: PublicKey) -> Self {
        Self {
            ctx: Arc::clone(ctx),
            pk,
        }
    }

    /// Encrypts a plaintext: `(b·u + e0 + Δ·m, a·u + e1)`.
    pub fn encrypt<R: Rng>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        spot_trace::count(spot_trace::Counter::Encrypt, 1);
        let ctx = &self.ctx;
        let mut u = sample_ternary(ctx, rng);
        u.to_ntt();
        let mut e0 = sample_error(ctx, rng);
        e0.to_ntt();
        let mut e1 = sample_error(ctx, rng);
        e1.to_ntt();

        let dm = pt.lift_scaled(ctx);

        let mut c0 = self.pk.b.clone();
        c0.mul_assign_ntt(&u);
        c0.add_assign(&e0);
        c0.add_assign(&dm);

        let mut c1 = self.pk.a.clone();
        c1.mul_assign_ntt(&u);
        c1.add_assign(&e1);

        Ciphertext { c0, c1 }
    }
}

/// Encrypts plaintexts under the secret key, in the seeded form: what
/// the party that holds `s` uploads (no public key to make or keep, one
/// error polynomial an encryption, half the bytes).
#[derive(Debug)]
pub struct SymmetricEncryptor {
    ctx: Arc<Context>,
    sk: SecretKey,
}

impl SymmetricEncryptor {
    /// Creates a symmetric encryptor.
    pub fn new(ctx: &Arc<Context>, sk: SecretKey) -> Self {
        Self {
            ctx: Arc::clone(ctx),
            sk,
        }
    }

    /// Encrypts to `(-(a·s) + e + Δ·m, a)` with `a` the expansion of a
    /// fresh 32-byte seed, and keeps the seed in `a`'s place. `rng`
    /// yields the seed and then the error polynomial: every encryption
    /// draws its own seed, since two ciphertexts over one `a` would
    /// give away the difference of their plaintexts.
    pub fn encrypt<R: Rng>(&self, pt: &Plaintext, rng: &mut R) -> SeededCiphertext {
        spot_trace::count(spot_trace::Counter::Encrypt, 1);
        let ctx = &self.ctx;
        let mut seed = KeySeed::default();
        rng.fill_bytes(&mut seed);
        let mut e = sample_error(ctx, rng);
        e.to_ntt();
        // One polynomial asked for, one returned.
        let mut c0 = expand_seed(ctx, &seed, 1).swap_remove(0);
        c0.mul_assign_ntt(&self.sk.s);
        c0.neg_assign();
        c0.add_assign(&e);
        c0.add_assign(&pt.lift_scaled(ctx));
        SeededCiphertext { c0, seed }
    }
}

/// Decrypts ciphertexts with the secret key and reports noise budgets.
#[derive(Debug)]
pub struct Decryptor {
    ctx: Arc<Context>,
    sk: SecretKey,
}

impl Decryptor {
    /// Creates a decryptor.
    pub fn new(ctx: &Arc<Context>, sk: SecretKey) -> Self {
        Self {
            ctx: Arc::clone(ctx),
            sk,
        }
    }

    /// Computes the phase `c0 + c1·s` in coefficient form: `Δ·m + e`
    /// for a well-formed ciphertext.
    pub fn phase(&self, ct: &Ciphertext) -> Poly {
        let mut acc = ct.c1.clone();
        acc.mul_assign_ntt(&self.sk.s);
        acc.add_assign(&ct.c0);
        acc.to_coeff();
        acc
    }

    /// Decrypts a ciphertext.
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        spot_trace::count(spot_trace::Counter::Decrypt, 1);
        self.round_phase(&self.phase(ct))
    }

    /// Decrypts a sparse result at its positions only: the plaintext
    /// coefficients there, in position order — exactly what
    /// [`Decryptor::decrypt`] of the whole ciphertext gives at them.
    /// `c1·s` is formed and transformed back whole, but only the
    /// positions are added to `c0` and rounded. One decryption.
    pub fn decrypt_sparse(&self, ct: &SparseCiphertext) -> Vec<u64> {
        spot_trace::count(spot_trace::Counter::Decrypt, 1);
        let phase = self.sparse_phase(ct);
        let p = ct.positions().len();
        let mut residues = vec![0u64; self.ctx.moduli_count()];
        (0..p)
            .map(|o| {
                for (r, row) in residues.iter_mut().zip(phase.chunks_exact(p)) {
                    *r = row[o];
                }
                self.round(&residues)
            })
            .collect()
    }

    /// The phase `c0 + c1·s` at a sparse result's positions: one row of
    /// `positions.len()` residues a modulus, each reduced.
    fn sparse_phase(&self, ct: &SparseCiphertext) -> Vec<u64> {
        let mut acc = ct.c1.clone();
        acc.mul_assign_ntt(&self.sk.s);
        acc.to_coeff();
        let moduli = self.ctx.moduli().iter().enumerate();
        moduli
            .flat_map(|(i, m)| {
                let row = acc.residues(i);
                (ct.positions().iter().zip(ct.c0_residues(i)))
                    .map(move |(&pos, &c0)| m.add(row[pos], c0))
            })
            .collect()
    }

    /// Maps every phase coefficient `x` to `⌈t·x/q⌋ mod t`.
    fn round_phase(&self, phase: &Poly) -> Plaintext {
        let ctx = &self.ctx;
        let rows: Vec<&[u64]> = (0..ctx.moduli_count()).map(|i| phase.residues(i)).collect();
        // Every coefficient is written below, so a dirty pooled buffer is
        // fine; the buffer recycles when the Plaintext drops.
        let mut coeffs = pool::take(ctx.degree());
        let mut residues = vec![0u64; rows.len()];
        for (j, coeff) in coeffs.iter_mut().enumerate() {
            for (r, row) in residues.iter_mut().zip(&rows) {
                *r = row[j];
            }
            *coeff = self.round(&residues);
        }
        Plaintext::from_coeffs(coeffs)
    }

    /// `⌈t·x/q⌋ mod t` of one phase coefficient, from its residues.
    fn round(&self, residues: &[u64]) -> u64 {
        round_scaled_rns(&self.ctx, residues)
            .unwrap_or_else(|| round_scaled_exact(&self.ctx, residues))
    }

    /// The invariant noise budget in bits, SEAL-style: the number of bits
    /// of headroom before noise would corrupt decryption. Returns 0 when
    /// the ciphertext is no longer decryptable.
    pub fn noise_budget(&self, ct: &Ciphertext) -> u32 {
        let phase = self.phase(ct);
        let k = self.ctx.moduli_count();
        self.budget_of(
            (0..self.ctx.degree()).map(|j| (0..k).map(|i| phase.residues(i)[j]).collect()),
        )
    }

    /// [`Decryptor::noise_budget`] of a sparse result, over the
    /// coefficients it carries: the headroom of every value the client
    /// reads from it.
    pub fn noise_budget_sparse(&self, ct: &SparseCiphertext) -> u32 {
        let phase = self.sparse_phase(ct);
        let p = ct.positions().len();
        self.budget_of((0..p).map(|o| phase.chunks_exact(p).map(|row| row[o]).collect()))
    }

    /// `log2(q / (2·max|noise|))` over phase coefficients given by their
    /// residues, with `noise = centred(t·phase mod q)`.
    fn budget_of(&self, coefficients: impl Iterator<Item = Vec<u64>>) -> u32 {
        let ctx = &self.ctx;
        let t = ctx.params().plain_modulus();
        let q = ctx.q_big();
        let mut max_noise = BigUint::zero();
        for residues in coefficients {
            let (mag, _) = ctx.crt_lift_centered(&residues);
            let scaled = mag.mul_u64(t);
            let (_, mut r) = scaled.div_rem(q);
            // center r in (-q/2, q/2]
            if &r > ctx.q_half() {
                r = q.sub(&r);
            }
            if r > max_noise {
                max_noise = r;
            }
        }
        if max_noise.is_zero() {
            return q.bits();
        }
        let noise_bits = max_noise.bits();
        q.bits().saturating_sub(noise_bits + 1)
    }
}

/// `⌈t·x/q⌋ mod t` from the residues `x_i` of `x`, or `None` where fixed
/// point cannot decide the rounding — or the parameters have no
/// [`Context::rns_scale`].
///
/// With `y_i = [x_i·(q/q_i)^{-1}]_{q_i}`, term `i` is
/// `y_i·⌊t·2^128/q_i⌋ / 2^64`, truncated twice, so it underestimates
/// `y_i·t/q_i · 2^64` by less than 2 and the sum `s` by less than `2k`:
/// the exact value rounds like `s` unless the fraction of `s` lies in
/// `[1/2 − 2k·2^-64, 1/2)`.
fn round_scaled_rns(ctx: &Context, residues: &[u64]) -> Option<u64> {
    let scale = ctx.rns_scale()?;
    let crt = ctx.moduli().iter().zip(ctx.punctured_inv());
    let s: u128 = residues
        .iter()
        .zip(crt)
        .zip(scale)
        .map(|((&x, (m, &inv)), &(hi, lo))| {
            let y = m.mul(x, inv) as u128;
            y * hi as u128 + ((y * lo as u128) >> 64)
        })
        .sum();
    let frac = s as u64;
    let half = 1u64 << 63;
    if (half - 2 * residues.len() as u64..half).contains(&frac) {
        return None;
    }
    let t = ctx.plain_modulus();
    let m = t.reduce((s >> 64) as u64) + (frac >> 63);
    Some(if m == t.value() { 0 } else { m })
}

/// `⌈t·x/q⌋ mod t` by exact big-integer CRT lift of the residues `x_i`.
fn round_scaled_exact(ctx: &Context, residues: &[u64]) -> u64 {
    let t = ctx.params().plain_modulus();
    let (mag, neg) = ctx.crt_lift_centered(residues);
    // m = round(t * mag / q) with sign
    let num = mag.mul_u64(t).add(ctx.q_half());
    let (m, _) = num.div_rem(ctx.q_big());
    let m = m.rem_u64(t);
    if neg && m != 0 {
        t - m
    } else {
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::keys::{sample_uniform, KeyGenerator};
    use crate::params::{EncryptionParams, ParamLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(level: ParamLevel) -> (Arc<Context>, KeyGenerator, StdRng) {
        let ctx = Context::new(EncryptionParams::new(level));
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        (ctx, kg, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip_all_levels() {
        for level in [ParamLevel::N2048, ParamLevel::N4096] {
            let (ctx, kg, mut rng) = setup(level);
            let pk = kg.public_key(&mut rng);
            let encoder = BatchEncoder::new(&ctx);
            let encryptor = Encryptor::new(&ctx, pk);
            let decryptor = Decryptor::new(&ctx, kg.secret_key().clone());
            let t = ctx.params().plain_modulus();
            let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| (i * 997) % t).collect();
            let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
            let decoded = encoder.decode(&decryptor.decrypt(&ct));
            assert_eq!(decoded, values, "level {level}");
        }
    }

    #[test]
    fn symmetric_encrypt_decrypt() {
        let (ctx, kg, mut rng) = setup(ParamLevel::N4096);
        let encoder = BatchEncoder::new(&ctx);
        let enc = SymmetricEncryptor::new(&ctx, kg.secret_key().clone());
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let values: Vec<u64> = (0..50u64).map(|i| i * i).collect();
        let sent = enc.encrypt(&encoder.encode(&values), &mut rng).to_bytes();
        assert_eq!(sent.len(), ctx.params().seeded_ciphertext_bytes());
        let ct = Ciphertext::try_from_seeded_bytes(&ctx, &sent).expect("own ciphertext");
        let decoded = encoder.decode(&dec.decrypt(&ct));
        assert_eq!(&decoded[..50], &values[..]);
    }

    #[test]
    fn fresh_noise_budget_is_large() {
        let (ctx, kg, mut rng) = setup(ParamLevel::N4096);
        let pk = kg.public_key(&mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, pk);
        let decryptor = Decryptor::new(&ctx, kg.secret_key().clone());
        let ct = encryptor.encrypt(&encoder.encode(&[1, 2, 3]), &mut rng);
        let budget = decryptor.noise_budget(&ct);
        // 109-bit q, 20-bit t: expect roughly 50-80 bits fresh budget.
        assert!(budget > 40, "budget {budget} too small");
        assert!(budget < ctx.q_big().bits());
        let _ = ctx;
    }

    #[test]
    fn wrong_key_fails_to_decrypt() {
        let (ctx, kg, mut rng) = setup(ParamLevel::N4096);
        let pk = kg.public_key(&mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, pk);
        let other = KeyGenerator::new(&ctx, &mut rng);
        let decryptor = Decryptor::new(&ctx, other.secret_key().clone());
        let values = vec![7u64; 10];
        let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
        let decoded = encoder.decode(&decryptor.decrypt(&ct));
        assert_ne!(&decoded[..10], &values[..]);
        assert_eq!(decryptor.noise_budget(&ct), 0);
    }

    /// Residues of `t^{-1}·c mod q`, the `x` with `t·x ≡ c (mod q)`.
    fn scaled_to(ctx: &Context, c: &BigUint) -> Vec<u64> {
        let t = ctx.params().plain_modulus();
        ctx.moduli()
            .iter()
            .map(|m| {
                let t_inv = m.inv(t).expect("t is prime to every q_i");
                m.mul(t_inv, c.rem_u64(m.value()))
            })
            .collect()
    }

    #[test]
    fn ambiguity_band_falls_back_to_the_exact_path_and_agrees() {
        // N2048's 54-bit q puts 1/(2q) at 2^9 fixed-point ulps: too far
        // from the boundary to be ambiguous, rightly.
        for level in [ParamLevel::N4096, ParamLevel::N8192, ParamLevel::N16384] {
            let (ctx, kg, mut rng) = setup(level);
            let t = ctx.params().plain_modulus();
            // t·x/q = integer + 1/2 ∓ 1/(2q): the two values nearest a
            // tie that an odd q allows, far inside 2k·2^-64 of it.
            let below = scaled_to(&ctx, ctx.q_half());
            let above = scaled_to(&ctx, &ctx.q_half().add(&BigUint::from_u64(1)));
            assert_eq!(round_scaled_rns(&ctx, &below), None, "{level}");
            // ⌊t·x/q⌋ mod t by big integers: the tie-breaker's reference.
            let floor = |residues: &[u64]| {
                let (mag, neg) = ctx.crt_lift_centered(residues);
                let x = if neg { ctx.q_big().sub(&mag) } else { mag };
                x.mul_u64(t).div_rem(ctx.q_big()).0.rem_u64(t)
            };
            let (down, up) = (floor(&below), (floor(&above) + 1) % t);
            assert_eq!(round_scaled_exact(&ctx, &below), down, "{level}");
            assert_eq!(round_scaled_exact(&ctx, &above), up, "{level}");
            if let Some(m) = round_scaled_rns(&ctx, &above) {
                assert_eq!(m, up, "{level}");
            }

            // The same two coefficients inside a phase polynomial, among
            // ordinary ones: the fallback is per coefficient.
            let n = ctx.degree();
            let mut phase = sample_uniform(&ctx, &mut rng);
            phase.reinterpret_form(crate::poly::PolyForm::Coeff);
            for (i, (&lo, &hi)) in below.iter().zip(&above).enumerate() {
                phase.residues_mut(i)[0] = lo;
                phase.residues_mut(i)[n - 1] = hi;
            }
            let decryptor = Decryptor::new(&ctx, kg.secret_key().clone());
            let got = decryptor.round_phase(&phase);
            for j in 0..n {
                let residues: Vec<u64> = (0..ctx.moduli_count())
                    .map(|i| phase.residues(i)[j])
                    .collect();
                assert_eq!(
                    got.coeffs()[j],
                    round_scaled_exact(&ctx, &residues),
                    "{level} coefficient {j}"
                );
            }
            assert_eq!((got.coeffs()[0], got.coeffs()[n - 1]), (down, up));
        }
    }

    #[test]
    fn unreduced_residues_round_like_the_exact_path() {
        // `Ciphertext::from_parts` admits residues ≥ q_i, and lazy NTT
        // arithmetic may leave them so in the phase.
        for level in ParamLevel::ALL {
            let (ctx, _, mut rng) = setup(level);
            for _ in 0..2000 {
                let residues: Vec<u64> = ctx.moduli().iter().map(|_| rng.gen()).collect();
                if let Some(m) = round_scaled_rns(&ctx, &residues) {
                    assert_eq!(
                        m,
                        round_scaled_exact(&ctx, &residues),
                        "{level} {residues:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn large_plain_modulus_decrypts_by_the_exact_path() {
        // t above the q_i: the fixed-point sum could overflow, so the
        // context offers no scale table and every coefficient is exact.
        let t = crate::primes::prime_at_least(1 << 40, 4096);
        let params = EncryptionParams::with_plain_modulus(ParamLevel::N4096, t);
        let ctx = Context::new(params);
        assert!(ctx.rns_scale().is_none());
        let mut rng = StdRng::seed_from_u64(8);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let enc = Encryptor::new(&ctx, kg.public_key(&mut rng));
        let dec = Decryptor::new(&ctx, kg.secret_key().clone());
        let encoder = BatchEncoder::new(&ctx);
        let values: Vec<u64> = (0..64u64).map(|i| t - 1 - i).collect();
        let ct = enc.encrypt(&encoder.encode(&values), &mut rng);
        assert_eq!(&encoder.decode(&dec.decrypt(&ct))[..64], &values[..]);
    }
}
