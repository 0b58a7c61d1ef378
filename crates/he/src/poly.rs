//! RNS polynomials in `Z_q[X]/(X^N + 1)`.
//!
//! A [`Poly`] stores one residue vector per coefficient prime
//! (residue-major layout) and tracks whether it is in coefficient or
//! NTT (evaluation) representation. All ring operations required by BFV
//! are provided: addition, subtraction, negation, pointwise (NTT-domain)
//! multiplication, scalar multiplication and Galois automorphisms.

use crate::context::Context;
use crate::pool;
use std::sync::Arc;

/// Representation of a polynomial's residues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolyForm {
    /// Coefficient representation.
    Coeff,
    /// NTT (evaluation) representation.
    Ntt,
}

/// An RNS polynomial bound to a [`Context`].
#[derive(Debug)]
pub struct Poly {
    ctx: Arc<Context>,
    /// `moduli_count * degree` residues, residue-major.
    data: Vec<u64>,
    form: PolyForm,
}

impl Clone for Poly {
    fn clone(&self) -> Self {
        let mut data = pool::take(self.data.len());
        data.copy_from_slice(&self.data);
        Self {
            ctx: Arc::clone(&self.ctx),
            data,
            form: self.form,
        }
    }
}

impl Drop for Poly {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.data));
    }
}

impl Poly {
    /// The zero polynomial in the given form.
    pub fn zero(ctx: &Arc<Context>, form: PolyForm) -> Self {
        Self {
            ctx: Arc::clone(ctx),
            data: pool::take_zeroed(ctx.moduli_count() * ctx.degree()),
            form,
        }
    }

    /// Builds a polynomial from raw residues (residue-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != moduli_count * degree`.
    pub fn from_residues(ctx: &Arc<Context>, data: Vec<u64>, form: PolyForm) -> Self {
        assert_eq!(data.len(), ctx.moduli_count() * ctx.degree());
        Self {
            ctx: Arc::clone(ctx),
            data,
            form,
        }
    }

    /// Builds a polynomial from signed coefficients, reducing each into
    /// every RNS modulus (coefficient form).
    pub fn from_signed_coeffs(ctx: &Arc<Context>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.degree());
        let n = ctx.degree();
        let k = ctx.moduli_count();
        // Every element is written below, so a dirty pooled buffer is fine.
        let mut data = pool::take(k * n);
        let max_abs = coeffs.iter().map(|c| c.unsigned_abs()).max().unwrap_or(0);
        for (row, m) in data.chunks_exact_mut(n).zip(ctx.moduli()) {
            let q = m.value();
            if max_abs < q {
                // Key, error and plaintext coefficients: already inside
                // (-q, q), so a negative one only needs q added. No
                // branch on the (random) sign.
                for (r, &c) in row.iter_mut().zip(coeffs) {
                    *r = (c as u64).wrapping_add(q & ((c >> 63) as u64));
                }
            } else {
                for (r, &c) in row.iter_mut().zip(coeffs) {
                    let mag = m.reduce(c.unsigned_abs());
                    *r = if c >= 0 { mag } else { m.sub(0, mag) };
                }
            }
        }
        Self {
            ctx: Arc::clone(ctx),
            data,
            form: PolyForm::Coeff,
        }
    }

    /// The context this polynomial belongs to.
    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    /// Current representation.
    pub fn form(&self) -> PolyForm {
        self.form
    }

    /// Residues for modulus index `i`.
    pub fn residues(&self, i: usize) -> &[u64] {
        let n = self.ctx.degree();
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable residues for modulus index `i`.
    pub fn residues_mut(&mut self, i: usize) -> &mut [u64] {
        let n = self.ctx.degree();
        &mut self.data[i * n..(i + 1) * n]
    }

    /// Raw residue storage.
    pub fn raw(&self) -> &[u64] {
        &self.data
    }

    /// The residue storage, taken out of the polynomial (a pooled buffer:
    /// hand it back with [`pool::recycle`] or to another polynomial).
    pub(crate) fn into_residues(mut self) -> Vec<u64> {
        std::mem::take(&mut self.data)
    }

    /// Converts to NTT form in place (no-op if already NTT).
    pub fn to_ntt(&mut self) {
        if self.form == PolyForm::Ntt {
            return;
        }
        spot_trace::count(spot_trace::Counter::NttFwd, 1);
        let ctx = Arc::clone(&self.ctx);
        for (i, tables) in ctx.ntt_tables().iter().enumerate() {
            tables.forward(self.residues_mut(i));
        }
        self.form = PolyForm::Ntt;
    }

    /// Converts to coefficient form in place (no-op if already coeff).
    pub fn to_coeff(&mut self) {
        if self.form == PolyForm::Coeff {
            return;
        }
        spot_trace::count(spot_trace::Counter::NttInv, 1);
        let ctx = Arc::clone(&self.ctx);
        for (i, tables) in ctx.ntt_tables().iter().enumerate() {
            tables.inverse(self.residues_mut(i));
        }
        self.form = PolyForm::Coeff;
    }

    pub(crate) fn assert_compatible(&self, other: &Poly) {
        assert!(
            Arc::ptr_eq(&self.ctx, &other.ctx) || self.ctx.params() == other.ctx.params(),
            "polynomials from different contexts"
        );
        assert_eq!(self.form, other.form, "polynomial form mismatch");
    }

    /// `self += other` (element-wise in either form).
    pub fn add_assign(&mut self, other: &Poly) {
        self.assert_compatible(other);
        let ctx = Arc::clone(&self.ctx);
        let n = ctx.degree();
        let kernels = crate::arch::kernels();
        for (i, m) in ctx.moduli().iter().enumerate() {
            let dst = &mut self.data[i * n..(i + 1) * n];
            let src = &other.data[i * n..(i + 1) * n];
            (kernels.pointwise_add)(m, dst, src);
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Poly) {
        self.assert_compatible(other);
        let ctx = Arc::clone(&self.ctx);
        let n = ctx.degree();
        let kernels = crate::arch::kernels();
        for (i, m) in ctx.moduli().iter().enumerate() {
            let dst = &mut self.data[i * n..(i + 1) * n];
            let src = &other.data[i * n..(i + 1) * n];
            (kernels.pointwise_sub)(m, dst, src);
        }
    }

    /// `self = -self`.
    pub fn neg_assign(&mut self) {
        let ctx = Arc::clone(&self.ctx);
        let n = ctx.degree();
        for (i, m) in ctx.moduli().iter().enumerate() {
            for d in &mut self.data[i * n..(i + 1) * n] {
                *d = m.neg(*d);
            }
        }
    }

    /// `self *= other`, pointwise; both must be in NTT form.
    ///
    /// # Panics
    ///
    /// Panics if either polynomial is in coefficient form.
    pub fn mul_assign_ntt(&mut self, other: &Poly) {
        assert_eq!(self.form, PolyForm::Ntt, "lhs must be in NTT form");
        self.assert_compatible(other);
        let ctx = Arc::clone(&self.ctx);
        let n = ctx.degree();
        let kernels = crate::arch::kernels();
        for (i, m) in ctx.moduli().iter().enumerate() {
            let dst = &mut self.data[i * n..(i + 1) * n];
            let src = &other.data[i * n..(i + 1) * n];
            (kernels.pointwise_mul)(m, dst, src);
        }
    }

    /// Relabels the representation without transforming the residues.
    ///
    /// Escape hatch for buffer-reuse patterns: a caller that overwrites
    /// every residue of an NTT-form scratch polynomial with fresh
    /// coefficient data must relabel it `Coeff` before calling
    /// [`Poly::to_ntt`] again. The caller is responsible for the data
    /// actually matching `form`.
    pub fn reinterpret_form(&mut self, form: PolyForm) {
        self.form = form;
    }

    /// Applies a Galois automorphism to an NTT-form polynomial as the
    /// index permutation `table` (see [`crate::ntt::galois_ntt_table`]):
    /// every residue row becomes `out[i] = in[table[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in coefficient form, `table` is not
    /// `degree` long, or an entry is out of range.
    pub fn apply_galois_ntt(&self, table: &[u32]) -> Poly {
        assert_eq!(self.form, PolyForm::Ntt, "index form needs NTT form");
        let n = self.ctx.degree();
        // Every element is written below, so a dirty pooled buffer is fine.
        let mut data = pool::take(self.data.len());
        for (dst, src) in data.chunks_exact_mut(n).zip(self.data.chunks_exact(n)) {
            permute_row(dst, src, table);
        }
        Poly::from_residues(&self.ctx, data, PolyForm::Ntt)
    }
}

/// `dst[i] = src[table[i]]` over one residue row.
///
/// # Panics
///
/// Panics if the three lengths differ or an entry is out of range.
fn permute_row(dst: &mut [u64], src: &[u64], table: &[u32]) {
    assert!(dst.len() == src.len() && table.len() == src.len());
    for (d, &j) in dst.iter_mut().zip(table) {
        *d = src[j as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::params::{EncryptionParams, ParamLevel};

    fn ctx() -> Arc<Context> {
        Context::new(EncryptionParams::new(ParamLevel::N4096))
    }

    #[test]
    fn ntt_roundtrip_preserves_poly() {
        let ctx = ctx();
        let coeffs: Vec<i64> = (0..ctx.degree() as i64)
            .map(|i| (i * 7) % 1000 - 500)
            .collect();
        let orig = Poly::from_signed_coeffs(&ctx, &coeffs);
        let mut p = orig.clone();
        p.to_ntt();
        p.to_coeff();
        assert_eq!(p.raw(), orig.raw());
    }

    #[test]
    fn signed_coeffs_reduce_the_same_at_any_magnitude() {
        // Small inputs take the branch-free path, one large coefficient
        // sends the whole polynomial down the reducing one.
        let ctx = ctx();
        let n = ctx.degree();
        let small: Vec<i64> = (0..n as i64).map(|i| (i * 31) % 17 - 8).collect();
        let mut large = small.clone();
        large[0] = i64::MIN;
        large[1] = i64::MAX;
        for coeffs in [&small, &large] {
            let p = Poly::from_signed_coeffs(&ctx, coeffs);
            for (i, m) in ctx.moduli().iter().enumerate() {
                let want: Vec<u64> = coeffs
                    .iter()
                    .map(|&c| (c as i128).rem_euclid(m.value() as i128) as u64)
                    .collect();
                assert_eq!(p.residues(i), want);
            }
        }
    }

    #[test]
    fn add_then_sub_is_identity() {
        let ctx = ctx();
        let a = Poly::from_signed_coeffs(&ctx, &vec![3i64; ctx.degree()]);
        let b = Poly::from_signed_coeffs(&ctx, &vec![-5i64; ctx.degree()]);
        let mut c = a.clone();
        c.add_assign(&b);
        c.sub_assign(&b);
        assert_eq!(c.raw(), a.raw());
    }

    #[test]
    fn ntt_mul_is_ring_mul() {
        // (1 + x) * (1 - x) = 1 - x^2
        let ctx = ctx();
        let n = ctx.degree();
        let mut a_coeffs = vec![0i64; n];
        a_coeffs[0] = 1;
        a_coeffs[1] = 1;
        let mut b_coeffs = vec![0i64; n];
        b_coeffs[0] = 1;
        b_coeffs[1] = -1;
        let mut a = Poly::from_signed_coeffs(&ctx, &a_coeffs);
        let mut b = Poly::from_signed_coeffs(&ctx, &b_coeffs);
        a.to_ntt();
        b.to_ntt();
        a.mul_assign_ntt(&b);
        a.to_coeff();
        let mut expected = vec![0i64; n];
        expected[0] = 1;
        expected[2] = -1;
        let e = Poly::from_signed_coeffs(&ctx, &expected);
        assert_eq!(a.raw(), e.raw());
    }
}
