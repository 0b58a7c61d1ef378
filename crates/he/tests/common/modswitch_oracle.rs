//! The coefficient-domain modulus switch the NTT-domain one replaced,
//! kept as the oracle it is tested against: per dropped prime, the whole
//! polynomial back to coefficients, one scalar divide-and-round per
//! coefficient and kept prime, and every kept row forward again.

use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::params::EncryptionParams;
use spot_he::poly::{Poly, PolyForm};
use std::sync::Arc;

/// `src`'s parameters with only its first `keep` primes.
pub fn prefix_context(src: &Context, keep: usize) -> Arc<Context> {
    let params = src.params();
    Context::new(EncryptionParams::with_explicit_moduli(
        params.level(),
        params.coeff_moduli()[..keep].to_vec(),
        params.plain_modulus(),
    ))
}

/// Drops the last prime `q_k` of `p`:
/// `c'_j = (c_j − [c]_{q_k} mod q_j)·q_k^{-1} mod q_j` per coefficient,
/// with `[c]_{q_k}` centred. `dst` is `p`'s context without that prime.
pub fn switch_poly(dst: &Arc<Context>, p: &Poly) -> Poly {
    let mut p = p.clone();
    p.to_coeff();
    let src = p.context();
    let n = src.degree();
    let k = src.moduli_count();
    let qk = src.moduli()[k - 1];
    let half = qk.value() / 2;
    let mut data = vec![0u64; (k - 1) * n];
    for j in 0..k - 1 {
        let mj = &dst.moduli()[j];
        let qk_inv = mj.inv(qk.value() % mj.value()).expect("moduli coprime");
        let last = p.residues(k - 1);
        let cur = p.residues(j);
        for i in 0..n {
            // centred representative of c mod q_k
            let r = last[i];
            let (r_mod, negative) = if r > half {
                (qk.value() - r, true)
            } else {
                (r, false)
            };
            let r_j = mj.reduce(r_mod);
            let adjusted = if negative {
                mj.add(cur[i], r_j)
            } else {
                mj.sub(cur[i], r_j)
            };
            data[j * n + i] = mj.mul(adjusted, qk_inv);
        }
    }
    let mut out = Poly::from_residues(dst, data, PolyForm::Coeff);
    out.to_ntt();
    out
}

/// `ct` switched down to its first `keep` primes one prime at a time,
/// through contexts of the oracle's own making; the result lives in the
/// last of them.
pub fn switch(ct: &Ciphertext, keep: usize) -> Ciphertext {
    let src = Arc::clone(ct.context());
    let (mut c0, mut c1) = (ct.c0().clone(), ct.c1().clone());
    for k in (keep..src.moduli_count()).rev() {
        let dst = prefix_context(&src, k);
        c0 = switch_poly(&dst, &c0);
        c1 = switch_poly(&dst, &c1);
    }
    Ciphertext::from_parts(c0, c1)
}
