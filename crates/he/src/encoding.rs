//! SIMD batch encoding (the "packing" in packed HE).
//!
//! With a plaintext modulus `t ≡ 1 (mod 2N)`, the plaintext ring
//! `Z_t[X]/(X^N+1)` splits into `N` slots arranged as a `2 × N/2` matrix.
//! Ring addition/multiplication act element-wise on slots, and Galois
//! automorphisms rotate the two rows cyclically (`x ↦ x^{3^k}`) or swap
//! them (`x ↦ x^{2N−1}`) — exactly the SIMD semantics GAZELLE-style HE
//! convolutions rely on.

use crate::context::Context;
use crate::poly::Poly;
use crate::pool;
use std::sync::Arc;

/// A plaintext polynomial over `Z_t` in coefficient form.
#[derive(Debug, PartialEq, Eq)]
pub struct Plaintext {
    coeffs: Vec<u64>,
}

impl Clone for Plaintext {
    fn clone(&self) -> Self {
        let mut coeffs = pool::take(self.coeffs.len());
        coeffs.copy_from_slice(&self.coeffs);
        Self { coeffs }
    }
}

impl Drop for Plaintext {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.coeffs));
    }
}

impl Plaintext {
    /// Creates a plaintext from raw mod-`t` coefficients.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Self { coeffs }
    }

    /// The mod-`t` coefficients.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Whether every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Lifts the plaintext into the RNS ciphertext space with centered
    /// representatives (coefficients above `t/2` become negative) and
    /// converts to NTT form, ready for [`Evaluator::multiply_plain`].
    ///
    /// [`Evaluator::multiply_plain`]: crate::evaluator::Evaluator::multiply_plain
    pub fn lift(&self, ctx: &Arc<Context>) -> Poly {
        let t = ctx.params().plain_modulus();
        let half = t / 2;
        let signed: Vec<i64> = self
            .coeffs
            .iter()
            .map(|&c| {
                if c > half {
                    c as i64 - t as i64
                } else {
                    c as i64
                }
            })
            .collect();
        let mut p = Poly::from_signed_coeffs(ctx, &signed);
        p.to_ntt();
        p
    }

    /// Lifts the plaintext scaled by `q/t` and rounded, `⌈q·m/t⌋` (what
    /// an encryption carries, and what adding a plaintext to a
    /// ciphertext adds), in NTT form: `Δ·m` with `Δ = ⌊q/t⌋`, plus the
    /// rounding term `⌈(q mod t)·m/t⌋`, added in coefficient form before
    /// the one forward transform. The rounding is what lets an
    /// encryption at a prefix `q'` of the primes be multiplied up to `q`
    /// ([`ModSwitch::lift`]) with the error it had: `⌊q'/t⌋·m` is off by
    /// up to `t/2`, which the dropped primes' product would multiply.
    ///
    /// [`ModSwitch::lift`]: crate::modswitch::ModSwitch::lift
    pub fn lift_scaled(&self, ctx: &Arc<Context>) -> Poly {
        let n = ctx.degree();
        let rounding = self.scaling_rounding(ctx);
        // Every element is written below, so a dirty buffer is fine.
        let mut rows = pool::take(ctx.moduli_count() * n);
        let kernels = crate::arch::kernels();
        let moduli = ctx.moduli().iter().zip(ctx.delta_mod_qi());
        for (row, (q, &delta)) in rows.chunks_exact_mut(n).zip(moduli) {
            // The term and `m` are below `t`, so below each `q_i`.
            row.copy_from_slice(&rounding);
            (kernels.mul_add_scalar)(q, row, &self.coeffs, delta, q.shoup(delta));
        }
        pool::recycle(rounding);
        let mut p = Poly::from_residues(ctx, rows, crate::poly::PolyForm::Coeff);
        p.to_ntt();
        p
    }

    /// The rounding term of [`Plaintext::lift_scaled`] at `ctx`'s
    /// modulus, `⌈(q mod t)·m/t⌋` a coefficient, each below `t`.
    ///
    /// # Panics
    ///
    /// Panics if the coefficient count is not `ctx`'s degree.
    pub(crate) fn scaling_rounding(&self, ctx: &Context) -> Vec<u64> {
        let t = ctx.params().plain_modulus();
        assert_eq!(
            self.coeffs.len(),
            ctx.degree(),
            "plaintext coefficient count"
        );
        // `⌈x/t⌋ = ⌊(x + ⌊t/2⌋)/t⌋` (no ties, `t` is odd) for `x < t²`,
        // as a product with `⌈2^64/t⌉`: off by less than `x/2^64`, which
        // is below `1/t`, the least distance to the next integer.
        let (rho, half) = (ctx.q_mod_t(), t / 2);
        let inv = (1u128 << 64).div_ceil(t as u128);
        let mut rounding = pool::take(ctx.degree());
        for (r, &m) in rounding.iter_mut().zip(&self.coeffs) {
            *r = (((rho * m + half) as u128 * inv) >> 64) as u64;
        }
        rounding
    }
}

/// Encodes/decodes slot vectors to/from plaintext polynomials.
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    ctx: Arc<Context>,
}

impl BatchEncoder {
    /// Creates an encoder bound to a context.
    pub fn new(ctx: &Arc<Context>) -> Self {
        Self {
            ctx: Arc::clone(ctx),
        }
    }

    /// Number of SIMD slots (`N`).
    pub fn slot_count(&self) -> usize {
        self.ctx.degree()
    }

    /// Encodes up to `N` slot values (`mod t`) into a plaintext; missing
    /// slots are zero.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > N` or any value `>= t`.
    pub fn encode(&self, values: &[u64]) -> Plaintext {
        let n = self.ctx.degree();
        assert!(values.len() <= n, "too many values for slot count");
        let t = self.ctx.params().plain_modulus();
        let map = self.ctx.slot_index_map();
        let mut m = pool::take_zeroed(n);
        for (i, &v) in values.iter().enumerate() {
            assert!(
                v < t,
                "slot value {v} out of range for plaintext modulus {t}"
            );
            m[map[i]] = v;
        }
        // Values currently sit in NTT-evaluation order; inverse transform
        // over Z_t yields the plaintext polynomial coefficients.
        self.ctx.plain_ntt().inverse(&mut m);
        Plaintext::from_coeffs(m)
    }

    /// Decodes a plaintext back into its `N` slot values.
    pub fn decode(&self, pt: &Plaintext) -> Vec<u64> {
        let n = self.ctx.degree();
        let mut m = pt.coeffs().to_vec();
        assert_eq!(m.len(), n, "plaintext length mismatch");
        self.ctx.plain_ntt().forward(&mut m);
        let map = self.ctx.slot_index_map();
        (0..n).map(|i| m[map[i]]).collect()
    }
}

/// Returns the Galois element implementing a row rotation by `steps`
/// (positive = rotate left) for degree `n`.
///
/// # Panics
///
/// Panics if `|steps| >= n/2` or `steps == 0`.
pub fn galois_elt_from_step(steps: i64, n: usize) -> usize {
    let row = (n / 2) as i64;
    assert!(
        steps != 0 && steps.abs() < row,
        "rotation step out of range"
    );
    let s = steps.rem_euclid(row) as u64; // negative k => row - |k|
    let two_n = 2 * n;
    // 3^s mod 2n
    let mut g: usize = 1;
    let mut base: usize = 3;
    let mut e = s;
    while e > 0 {
        if e & 1 == 1 {
            g = (g * base) % two_n;
        }
        base = (base * base) % two_n;
        e >>= 1;
    }
    g
}

/// Returns the Galois element swapping the two slot rows (`x ↦ x^{2N−1}`).
pub fn galois_elt_column_swap(n: usize) -> usize {
    2 * n - 1
}

/// Applies the slot permutation that the Galois element for `steps`
/// induces, on a plain slot vector — the reference semantics rotations are
/// tested against: `out[i] = in[(i + steps) mod row]` within each row.
pub fn rotate_slots_reference(slots: &[u64], steps: i64) -> Vec<u64> {
    let n = slots.len();
    let row = n / 2;
    let mut out = vec![0u64; n];
    for r in 0..2 {
        for i in 0..row {
            let src = ((i as i64 + steps).rem_euclid(row as i64)) as usize;
            out[r * row + i] = slots[r * row + src];
        }
    }
    out
}

/// Reference semantics of the column swap: rows exchanged.
pub fn swap_rows_reference(slots: &[u64]) -> Vec<u64> {
    let row = slots.len() / 2;
    let mut out = slots[row..].to_vec();
    out.extend_from_slice(&slots[..row]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EncryptionParams, ParamLevel};

    fn setup() -> (Arc<Context>, BatchEncoder) {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let enc = BatchEncoder::new(&ctx);
        (ctx, enc)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (ctx, enc) = setup();
        let t = ctx.params().plain_modulus();
        let values: Vec<u64> = (0..enc.slot_count() as u64)
            .map(|i| (i * 31 + 7) % t)
            .collect();
        let pt = enc.encode(&values);
        assert_eq!(enc.decode(&pt), values);
    }

    #[test]
    fn plaintext_mul_is_slotwise() {
        // Multiplying plaintext polynomials multiplies slots element-wise.
        let (ctx, enc) = setup();
        let n = ctx.degree();
        let a: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % 89).collect();
        let pa = enc.encode(&a);
        let pb = enc.encode(&b);
        // multiply polynomials mod t via the plaintext NTT
        let mut fa = pa.coeffs().to_vec();
        let mut fb = pb.coeffs().to_vec();
        ctx.plain_ntt().forward(&mut fa);
        ctx.plain_ntt().forward(&mut fb);
        let tm = ctx.plain_modulus();
        let prod: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| tm.mul(x, y)).collect();
        let mut prod = prod;
        ctx.plain_ntt().inverse(&mut prod);
        let decoded = enc.decode(&Plaintext::from_coeffs(prod));
        let expected: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| tm.mul(x, y)).collect();
        assert_eq!(decoded, expected);
    }

    /// Applies a Galois automorphism to a `Plaintext` (over `Z_t`) — used by
    /// the tests below to verify slot-rotation semantics without encryption.
    #[allow(clippy::needless_range_loop)]
    fn apply_galois_plain(ctx: &Arc<Context>, pt: &Plaintext, g: usize) -> Plaintext {
        let n = ctx.degree();
        let two_n = 2 * n;
        let t = ctx.plain_modulus();
        let src = pt.coeffs();
        let mut dst = vec![0u64; n];
        for j in 0..n {
            let idx = (j * g) % two_n;
            let v = src[j];
            if idx < n {
                dst[idx] = t.add(dst[idx], v);
            } else {
                dst[idx - n] = t.sub(dst[idx - n], v);
            }
        }
        Plaintext::from_coeffs(dst)
    }

    #[test]
    fn galois_rotates_rows_left() {
        let (ctx, enc) = setup();
        let n = ctx.degree();
        let values: Vec<u64> = (0..n as u64).collect();
        let pt = enc.encode(&values);
        for steps in [1i64, 2, 5, -1, -3] {
            let g = galois_elt_from_step(steps, n);
            let rotated = apply_galois_plain(&ctx, &pt, g);
            let decoded = enc.decode(&rotated);
            assert_eq!(
                decoded,
                rotate_slots_reference(&values, steps),
                "step {steps}"
            );
        }
    }

    #[test]
    fn galois_swaps_columns() {
        let (ctx, enc) = setup();
        let n = ctx.degree();
        let values: Vec<u64> = (0..n as u64).collect();
        let pt = enc.encode(&values);
        let g = galois_elt_column_swap(n);
        let swapped = apply_galois_plain(&ctx, &pt, g);
        assert_eq!(enc.decode(&swapped), swap_rows_reference(&values));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_value() {
        let (ctx, enc) = setup();
        let t = ctx.params().plain_modulus();
        let _ = enc.encode(&[t]);
    }
}
