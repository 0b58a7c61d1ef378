//! Shared precomputed state for one BFV parameter set.
//!
//! A [`Context`] owns everything expensive to compute once per parameter
//! set: NTT tables per coefficient prime, the plaintext-modulus NTT tables
//! used by batching, CRT/RNS reconstruction constants, `Δ = ⌊q/t⌋` in RNS
//! form, and the key-switching gadget values.

use crate::bigint::BigUint;
use crate::modswitch::{ModSwitch, RESULT_PRIMES};
use crate::modulus::Modulus;
use crate::ntt::NttTables;
use crate::params::EncryptionParams;
use std::sync::{Arc, OnceLock};

/// Precomputed context for a parameter set. Create once and share via
/// [`Arc`].
#[derive(Debug)]
pub struct Context {
    params: EncryptionParams,
    moduli: Vec<Modulus>,
    ntt_tables: Vec<NttTables>,
    plain_modulus: Modulus,
    plain_ntt: NttTables,
    /// Big-integer q = product of coefficient moduli.
    q_big: BigUint,
    /// q/2 (for centering).
    q_half: BigUint,
    /// Δ = floor(q/t) as residues mod each q_i.
    delta_mod_qi: Vec<u64>,
    /// CRT: punctured products q_i_hat = q / q_i (bigint).
    punctured: Vec<BigUint>,
    /// [(q/q_i)^{-1}]_{q_i}.
    punctured_inv: Vec<u64>,
    /// `⌊t·2^128/q_i⌋` as `(high, low)` limbs: `t/q_i` with 128
    /// fractional bits, for RNS decryption. `None` when `t` is not small
    /// against the `q_i` (see [`Context::rns_scale`]).
    rns_scale: Option<Vec<(u64, u64)>>,
    /// Key-switch gadget g_i = (q/q_i) * [(q/q_i)^{-1}]_{q_i} mod q_j, for
    /// each digit i and modulus j: `gadget[i][j]`.
    gadget: Vec<Vec<u64>>,
    /// Slot index map for batching (see encoding module).
    slot_index_map: Vec<usize>,
    /// The switch down to the primes a result travels at, built on
    /// first use; `None` inside at [`RESULT_PRIMES`] primes or fewer.
    result_switch: OnceLock<Option<ModSwitch>>,
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl Context {
    /// Builds the context for the given parameters.
    #[allow(clippy::needless_range_loop)]
    pub fn new(params: EncryptionParams) -> Arc<Self> {
        let n = params.degree();
        let moduli: Vec<Modulus> = params
            .coeff_moduli()
            .iter()
            .map(|&q| Modulus::new(q))
            .collect();
        let ntt_tables: Vec<NttTables> = params
            .coeff_moduli()
            .iter()
            .map(|&q| NttTables::new(q, n))
            .collect();
        let plain_modulus = Modulus::new(params.plain_modulus());
        let plain_ntt = NttTables::new(params.plain_modulus(), n);

        // q as bigint
        let mut q_big = BigUint::from_u64(1);
        for &q in params.coeff_moduli() {
            q_big = q_big.mul_u64(q);
        }
        let (q_half, _) = q_big.div_rem(&BigUint::from_u64(2));

        // delta = floor(q / t)
        let (delta, _) = q_big.div_rem(&BigUint::from_u64(params.plain_modulus()));
        let delta_mod_qi: Vec<u64> = params
            .coeff_moduli()
            .iter()
            .map(|&q| delta.rem_u64(q))
            .collect();

        // CRT constants
        let k = moduli.len();
        let mut punctured = Vec::with_capacity(k);
        let mut punctured_inv = Vec::with_capacity(k);
        for i in 0..k {
            let mut p = BigUint::from_u64(1);
            for (j, &q) in params.coeff_moduli().iter().enumerate() {
                if j != i {
                    p = p.mul_u64(q);
                }
            }
            let inv = moduli[i]
                .inv(p.rem_u64(moduli[i].value()))
                .expect("moduli are distinct primes, inverse exists");
            punctured.push(p);
            punctured_inv.push(inv);
        }

        // Two-limb long division of t·2^128 by q_i (t, q_i < 2^62, so
        // t·2^64 and rem·2^64 fit a u128).
        let scale_limbs: Vec<(u128, u128)> = params
            .coeff_moduli()
            .iter()
            .map(|&q| {
                let (num, q) = ((params.plain_modulus() as u128) << 64, q as u128);
                (num / q, ((num % q) << 64) / q)
            })
            .collect();
        // A term is below (high + 1)·2^64 for any 64-bit multiplier, so
        // this is when the sum of all k terms fits a u128.
        let sum_fits = scale_limbs.iter().map(|&(hi, _)| hi + 1).sum::<u128>() <= 1 << 64;
        let rns_scale = sum_fits.then(|| {
            scale_limbs
                .iter()
                .map(|&(hi, lo)| (hi as u64, lo as u64))
                .collect()
        });

        // gadget[i][j] = (q/q_i) * inv_i mod q_j
        let mut gadget = Vec::with_capacity(k);
        for i in 0..k {
            let gi_scaled = punctured[i].mul_u64(punctured_inv[i]);
            let row: Vec<u64> = params
                .coeff_moduli()
                .iter()
                .map(|&qj| gi_scaled.rem_u64(qj))
                .collect();
            gadget.push(row);
        }

        // Batching slot index map (SEAL's matrix representation): slot i of
        // row 0 lives at bit-reversed index of (3^i - 1)/2, slot i of row 1
        // at bit-reversed index of (2n - 3^i - 1)/2.
        let two_n = 2 * n;
        let logn = n.trailing_zeros();
        let mut slot_index_map = vec![0usize; n];
        let mut pos = 1usize;
        for i in 0..n / 2 {
            let index1 = (pos - 1) / 2;
            let index2 = (two_n - pos - 1) / 2;
            slot_index_map[i] = bit_reverse(index1, logn);
            slot_index_map[i + n / 2] = bit_reverse(index2, logn);
            pos = (pos * 3) % two_n;
        }

        Arc::new(Self {
            params,
            moduli,
            ntt_tables,
            plain_modulus,
            plain_ntt,
            q_big,
            q_half,
            delta_mod_qi,
            punctured,
            punctured_inv,
            rns_scale,
            gadget,
            slot_index_map,
            result_switch: OnceLock::new(),
        })
    }

    /// The encryption parameters.
    pub fn params(&self) -> &EncryptionParams {
        &self.params
    }

    /// Polynomial degree `N`.
    pub fn degree(&self) -> usize {
        self.params.degree()
    }

    /// Number of RNS coefficient moduli.
    pub fn moduli_count(&self) -> usize {
        self.moduli.len()
    }

    /// The RNS moduli.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// NTT tables per coefficient modulus.
    pub fn ntt_tables(&self) -> &[NttTables] {
        &self.ntt_tables
    }

    /// The plaintext modulus as a [`Modulus`].
    pub fn plain_modulus(&self) -> &Modulus {
        &self.plain_modulus
    }

    /// NTT tables over the plaintext modulus (used by batching).
    pub fn plain_ntt(&self) -> &NttTables {
        &self.plain_ntt
    }

    /// `q` as a big integer.
    pub fn q_big(&self) -> &BigUint {
        &self.q_big
    }

    /// `q/2` as a big integer.
    pub fn q_half(&self) -> &BigUint {
        &self.q_half
    }

    /// `Δ = ⌊q/t⌋ mod q_i` for each modulus.
    pub fn delta_mod_qi(&self) -> &[u64] {
        &self.delta_mod_qi
    }

    /// CRT punctured products `q / q_i`.
    pub fn punctured(&self) -> &[BigUint] {
        &self.punctured
    }

    /// `[(q/q_i)^{-1}]_{q_i}`.
    pub fn punctured_inv(&self) -> &[u64] {
        &self.punctured_inv
    }

    /// `⌊t·2^128/q_i⌋` per modulus as `(high, low)` 64-bit limbs, or
    /// `None` if the parameters are outside what RNS decryption
    /// supports: the sum over `i` of `y_i·t/q_i` in 64.64 fixed point
    /// must fit a `u128` for any 64-bit `y_i`.
    pub(crate) fn rns_scale(&self) -> Option<&[(u64, u64)]> {
        self.rns_scale.as_deref()
    }

    /// Key-switch gadget residues `gadget[i][j] = g_i mod q_j`.
    pub fn gadget(&self) -> &[Vec<u64>] {
        &self.gadget
    }

    /// Batching slot index map: slot `i` of the plaintext vector lives at
    /// coefficient-NTT position `slot_index_map[i]`.
    pub fn slot_index_map(&self) -> &[usize] {
        &self.slot_index_map
    }

    /// The switch every result takes before it leaves the server: down
    /// to this level's first [`RESULT_PRIMES`] primes. Built once, on
    /// first use, and shared by every session on this context; `None` at
    /// a level with no more primes than that, whose results travel as
    /// they are.
    pub fn result_switch(&self) -> Option<&ModSwitch> {
        self.result_switch
            .get_or_init(|| {
                (self.moduli_count() > RESULT_PRIMES).then(|| ModSwitch::new(self, RESULT_PRIMES))
            })
            .as_ref()
    }

    /// The context a result travels, is read and is decrypted in: the
    /// target of [`Context::result_switch`], or this context where there
    /// is none.
    pub fn result_context(self: &Arc<Self>) -> &Arc<Context> {
        self.result_switch().map_or(self, ModSwitch::target_context)
    }

    /// Reconstructs the centered big-integer value of one coefficient from
    /// its RNS residues, returning `(magnitude, is_negative)`.
    pub fn crt_lift_centered(&self, residues: &[u64]) -> (BigUint, bool) {
        debug_assert_eq!(residues.len(), self.moduli.len());
        let mut acc = BigUint::zero();
        for (i, &r) in residues.iter().enumerate() {
            let term = self.punctured[i].mul_u64(self.moduli[i].mul(r, self.punctured_inv[i]));
            acc = acc.add(&term);
        }
        let (_, mut acc) = acc.div_rem(&self.q_big);
        if acc > self.q_half {
            acc = self.q_big.sub(&acc);
            (acc, true)
        } else {
            (acc, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EncryptionParams, ParamLevel};

    #[test]
    fn crt_lift_small_values() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        // value 42 in all residues
        let residues: Vec<u64> = ctx.moduli().iter().map(|_| 42u64).collect();
        let (v, neg) = ctx.crt_lift_centered(&residues);
        assert!(!neg);
        assert_eq!(v, BigUint::from_u64(42));
        // value -7: q_i - 7 in each residue
        let residues: Vec<u64> = ctx.moduli().iter().map(|m| m.value() - 7).collect();
        let (v, neg) = ctx.crt_lift_centered(&residues);
        assert!(neg);
        assert_eq!(v, BigUint::from_u64(7));
    }

    #[test]
    fn delta_times_t_close_to_q() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let t = ctx.params().plain_modulus();
        // delta = floor(q/t) => q - delta*t < t. Verify via first modulus residue
        // of delta: reconstruct delta from its residues (it fits the CRT range).
        let (delta, neg) = ctx.crt_lift_centered(ctx.delta_mod_qi());
        // delta is huge (about q/t ~ 2^89) and positive when centered? It is
        // less than q/2, so not negative.
        assert!(!neg);
        let dt = delta.mul_u64(t);
        let diff = ctx.q_big().sub(&dt);
        assert!(diff < BigUint::from_u64(t));
    }

    #[test]
    fn slot_map_is_permutation() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut seen = vec![false; ctx.degree()];
        for &p in ctx.slot_index_map() {
            assert!(!seen[p], "slot index map not injective");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gadget_sums_to_identity() {
        // sum_i g_i * x_i where x_i = x mod q_i reconstructs x mod q.
        // Check for x = 123456789 using residue arithmetic mod each q_j.
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let x = 123_456_789u64;
        for (j, mj) in ctx.moduli().iter().enumerate() {
            let mut acc = 0u64;
            for i in 0..ctx.moduli_count() {
                let xi = x % ctx.moduli()[i].value();
                acc = mj.add(acc, mj.mul(ctx.gadget()[i][j], mj.reduce(xi)));
            }
            assert_eq!(acc, mj.reduce(x));
        }
    }

    #[test]
    fn gadget_is_the_crt_indicator() {
        // Key generation adds row i of s' instead of multiplying by
        // g_i: that is only g_i·s' while g_i is 1 mod q_i and 0 mod
        // every other prime.
        for level in [ParamLevel::N4096, ParamLevel::N8192] {
            let ctx = Context::new(EncryptionParams::new(level));
            for (i, row) in ctx.gadget().iter().enumerate() {
                for (j, &g) in row.iter().enumerate() {
                    assert_eq!(g, u64::from(i == j), "{level} g_{i} mod q_{j}");
                }
            }
        }
    }
}
