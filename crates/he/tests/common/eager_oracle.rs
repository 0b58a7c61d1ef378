//! The evaluator's two inner products as they were before
//! `spot_he::lazy`: one canonical multiply and one canonical add per
//! term, every intermediate a full polynomial. Kept as the oracle the
//! wide-accumulating bodies must equal bit for bit.

use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::evaluator::HoistedCiphertext;
use spot_he::poly::{Poly, PolyForm};
use std::sync::Arc;

/// `(σ(c0) + Σ σ(d_i)·b_i, Σ σ(d_i)·a_i)`: every row gathered through
/// `table` into a polynomial of its own, then multiplied and added.
pub fn rotate_hoisted(
    ctx: &Arc<Context>,
    hoisted: &HoistedCiphertext,
    table: &[u32],
    pairs: &[(Poly, Poly)],
) -> Ciphertext {
    let mut acc0 = hoisted.c0().apply_galois_ntt(table);
    let mut acc1 = Poly::zero(ctx, PolyForm::Ntt);
    for (digit, (b_i, a_i)) in hoisted.digits().iter().zip(pairs) {
        let gathered = digit.apply_galois_ntt(table);
        for (acc, key) in [(&mut acc0, b_i), (&mut acc1, a_i)] {
            let mut product = gathered.clone();
            product.mul_assign_ntt(key);
            acc.add_assign(&product);
        }
    }
    Ciphertext::from_parts(acc0, acc1)
}

/// Clone the ciphertext, multiply both halves in place.
pub fn multiply_lifted(a: &Ciphertext, lifted: &Poly) -> Ciphertext {
    let (mut c0, mut c1) = (a.c0().clone(), a.c1().clone());
    c0.mul_assign_ntt(lifted);
    c1.mul_assign_ntt(lifted);
    Ciphertext::from_parts(c0, c1)
}
