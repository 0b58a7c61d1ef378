//! The Galois automorphism in the coefficient domain, as the library
//! applied it before rotations moved to NTT-form index tables
//! (`Poly::apply_galois_ntt`): the oracle those tables are held to.

use spot_he::poly::{Poly, PolyForm};

/// Applies `X -> X^g` (odd `g`, `1 <= g < 2N`) to a coefficient-form
/// polynomial: coefficient `j` moves to `j·g mod 2N`, with the
/// negacyclic sign rule `X^N = -1`.
///
/// # Panics
///
/// Panics if the polynomial is in NTT form or `g` is even.
pub fn apply_galois(p: &Poly, g: usize) -> Poly {
    assert_eq!(p.form(), PolyForm::Coeff, "galois requires coeff form");
    assert_eq!(g % 2, 1, "galois element must be odd");
    let ctx = p.context();
    let n = ctx.degree();
    let mut out = Poly::zero(ctx, PolyForm::Coeff);
    for (i, m) in ctx.moduli().iter().enumerate() {
        let dst = out.residues_mut(i);
        for (j, &v) in p.residues(i).iter().enumerate() {
            let idx = (j * g) % (2 * n);
            if idx < n {
                dst[idx] = m.add(dst[idx], v);
            } else {
                dst[idx - n] = m.sub(dst[idx - n], v);
            }
        }
    }
    out
}
