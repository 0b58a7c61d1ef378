//! Modulus switching: rescaling a ciphertext from `q = q_0…q_{k-1}` down
//! to a prefix `q_0…q_{l-1}` of its primes by dividing, with rounding,
//! by each dropped prime in turn, last prime first.
//!
//! This is how every result leaves the server: after masking, a result
//! is switched down to its level's first [`RESULT_PRIMES`] primes
//! ([`Context::result_switch`], [`crate::evaluator::Evaluator::mask_result`])
//! and the client deserialises and decrypts it there — one RNS
//! component less on the wire per dropped prime, at the cost of a
//! rounding term far below the noise already in a result. SEAL-style
//! systems reach the compact sizes the paper's Table IV reports the
//! same way. One step is exact in RNS:
//!
//! ```text
//! c'_j = (c_j − [c]_{q_k} mod q_j) · q_k^{-1}  (mod q_j)
//! ```
//!
//! with `[c]_{q_k}` centred, so the rounding error is at most 1/2.
//!
//! The switch runs in the NTT domain and transforms each row once: the
//! rows to drop go back to coefficients (one inverse row transform
//! each) and take every step there, and each kept row sums the steps'
//! corrections in coefficient form, at their weights, and is transformed
//! forward once (one forward row transform each); the division is then
//! one pointwise subtract-and-scale against the row as it came in. The
//! centring needs no branch: a dropped row carries `⌊q/2⌋` from its
//! inverse transform on, and the offsets come back out of each sum as
//! one constant. A mask rides the sum for free: adding `Πq mod q_j`
//! times its scaled form `⌈q'·r/t⌋ = Δ'·r + ⌈(q' mod t)·r/t⌋` to it
//! yields the switched ciphertext minus `⌈q'·r/t⌋`, which is
//! `sub_plain(r)` in the target, with no transform of its own.
//! At N4096 that is one inverse and two forward row transforms a
//! polynomial, where switching in coefficient form took five.
//!
//! Every upload comes the other way ([`ModSwitch::lift`]): the client
//! encrypts at the same primes, and the server multiplies each
//! ciphertext by the dropped primes' product `P`, which is
//! `P mod q_j` on each kept row and zero on each dropped one, so the
//! lift costs one scalar pass a kept row and no transform. A fresh
//! encryption `⌈q'·m/t⌋ + e` at `q'` becomes `⌈q·m/t⌋ + e'` at
//! `q = P·q'` with `|e'| ≤ P·(|e| + 1/2) + 1/2`: the same noise against
//! the modulus, so the upload keeps the headroom it had at `q'`.

use crate::ciphertext::{Ciphertext, SparseCiphertext};
use crate::context::Context;
use crate::encoding::Plaintext;
use crate::modulus::Modulus;
use crate::params::EncryptionParams;
use crate::poly::{Poly, PolyForm};
use crate::pool;
use std::sync::Arc;

/// The primes a result keeps on its way to the client: a level with
/// more sends its results at its first two. Two primes of 36 bits or
/// more leave every benchmark shape the noise budget it had at the full
/// modulus; one leaves 8 bits, under the 10 every shape must keep.
pub const RESULT_PRIMES: usize = 2;

/// A switch from a source context down to a prefix of its primes.
#[derive(Debug)]
pub struct ModSwitch {
    dst: Arc<Context>,
    /// The source's moduli count.
    from: usize,
    /// Per row to drop (`keep ≤ i < from`, at `i − keep`): the offset it
    /// carries from its inverse transform on. It is `⌊q_i/2⌋` when the
    /// row is the one dropped, which puts the centred value plus that
    /// offset in `[0, q_i)`; worked back through the steps before it
    /// (`E = E'·q + ⌊q/2⌋`), so no step adds a constant of its own.
    offsets: Vec<u64>,
    /// Per step, the dropped prime's inverse mod each row still to drop
    /// below it (`q^{-1} mod q_i`, `keep ≤ i`), with its Shoup constant.
    inverses: Vec<Vec<(u64, u64)>>,
    /// Per step and kept prime `j`: the product of the primes dropped
    /// before the step, mod `q_j` — the weight of the step's correction
    /// in the kept row's sum.
    weights: Vec<Vec<u64>>,
    /// Per kept prime `j`: `−Σ ⌊q/2⌋·weight mod q_j`, every step's
    /// centring offset taken back out of the sum at once.
    unoffset: Vec<u64>,
    /// Per kept prime `j`: `(Πq)·Δ' mod q_j` over the dropped primes,
    /// with `Δ' = ⌊q'/t⌋` the target's scale: adding it times `r` to the
    /// sum subtracts `Δ'·r` from the result (and [`ModSwitch::lift`]'s
    /// factor times `r`'s rounding term subtracts the rest of `⌈q'·r/t⌋`).
    mask_weight: Vec<u64>,
    /// Per kept prime `j`: `−(Πq)^{-1} mod q_j`, with its Shoup constant:
    /// `(sum − c_j)` times it is the output row.
    scale: Vec<(u64, u64)>,
    /// Per kept prime `j`: `Πq mod q_j` over the dropped primes, with its
    /// Shoup constant: the lift's factor, and the weight of a mask's
    /// rounding term in the sum.
    lift: Vec<(u64, u64)>,
}

impl ModSwitch {
    /// Builds the switch from `src` down to its first `keep` primes; the
    /// target context is built here, so hold on to the switch (a
    /// context builds its own result switch once, on first use).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= keep < src.moduli_count()`.
    pub fn new(src: &Context, keep: usize) -> Self {
        let from = src.moduli_count();
        assert!(
            (1..from).contains(&keep),
            "a switch keeps between one and {} of {from} primes, not {keep}",
            from - 1
        );
        let params = src.params();
        let dst = Context::new(EncryptionParams::with_explicit_moduli(
            params.level(),
            params.coeff_moduli()[..keep].to_vec(),
            params.plain_modulus(),
        ));
        let moduli = src.moduli();
        let (q, half) = (
            |p: usize| moduli[p].value(),
            |p: usize| moduli[p].value() / 2,
        );
        // `value mod m` for any u64.
        let at = |m: &Modulus, value: u64| m.reduce(value);
        // The dropped primes in the order they go, the last first.
        let dropped: Vec<usize> = (keep..from).rev().collect();
        let offsets = (keep..from)
            .map(|i| {
                let m = &moduli[i];
                (i + 1..from).fold(at(m, half(i)), |e, p| {
                    m.add(m.mul(e, at(m, q(p))), at(m, half(p)))
                })
            })
            .collect();
        let inverses = (dropped.iter())
            .map(|&p| {
                (moduli[keep..p].iter())
                    .map(|m| {
                        let inv = m.inv(at(m, q(p))).expect("moduli coprime");
                        (inv, m.shoup(inv))
                    })
                    .collect()
            })
            .collect();
        let kept = &moduli[..keep];
        let weights: Vec<Vec<u64>> = (0..dropped.len())
            .map(|s| {
                (kept.iter())
                    .map(|m| dropped[..s].iter().fold(1, |w, &p| m.mul(w, at(m, q(p)))))
                    .collect()
            })
            .collect();
        let unoffset = (kept.iter().enumerate())
            .map(|(j, m)| {
                let sum = (dropped.iter().zip(&weights))
                    .fold(0, |acc, (&p, w)| m.add(acc, m.mul(at(m, half(p)), w[j])));
                m.neg(sum)
            })
            .collect();
        // The product of every dropped prime, mod each kept one.
        let all: Vec<u64> = (kept.iter())
            .map(|m| dropped.iter().fold(1, |w, &p| m.mul(w, at(m, q(p)))))
            .collect();
        let mask_weight = (kept.iter().zip(&all).zip(dst.delta_mod_qi()))
            .map(|((m, &prod), &delta)| m.mul(prod, delta))
            .collect();
        let scale = (kept.iter().zip(&all))
            .map(|(m, &prod)| {
                let w = m.neg(m.inv(prod).expect("moduli coprime"));
                (w, m.shoup(w))
            })
            .collect();
        let lift = (kept.iter().zip(&all))
            .map(|(m, &prod)| (prod, m.shoup(prod)))
            .collect();
        Self {
            dst,
            from,
            offsets,
            inverses,
            weights,
            unoffset,
            mask_weight,
            scale,
            lift,
        }
    }

    /// The destination (smaller-modulus) context.
    pub fn target_context(&self) -> &Arc<Context> {
        &self.dst
    }

    /// Switches a ciphertext down to [`ModSwitch::target_context`],
    /// where it decrypts under the row prefix of the same secret key
    /// ([`crate::keys::SecretKey::restricted_to`]).
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not at the source context's primes.
    pub fn switch(&self, ct: Ciphertext) -> Ciphertext {
        let (c0, c1) = self.switch_with(ct, None, PolyForm::Ntt);
        Ciphertext::from_parts(c0, c1)
    }

    /// [`ModSwitch::switch`] and then `sub_plain(mask)` in the target, in
    /// one pass: the mask is folded into the kept rows' corrections and
    /// costs no transform.
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not at the source context's primes or `mask`
    /// has a coefficient count other than the degree.
    pub fn switch_masked(&self, ct: Ciphertext, mask: &Plaintext) -> Ciphertext {
        let (c0, c1) = self.switch_with(ct, Some(mask), PolyForm::Ntt);
        Ciphertext::from_parts(c0, c1)
    }

    /// [`ModSwitch::switch_masked`], sent sparse: `c1` whole and `c0` at
    /// `positions` only. `c0` comes out of the switch in coefficient
    /// form at no extra transform — each kept row is transformed once
    /// either way, here `c_j` back instead of its correction sum forward.
    ///
    /// # Panics
    ///
    /// As [`ModSwitch::switch_masked`], or if a position is not below
    /// the degree.
    pub fn switch_masked_sparse(
        &self,
        ct: Ciphertext,
        mask: &Plaintext,
        positions: &[usize],
    ) -> SparseCiphertext {
        let (c0, c1) = self.switch_with(ct, Some(mask), PolyForm::Coeff);
        SparseCiphertext::gather(&c0, c1, positions)
    }

    /// A fresh encryption at [`ModSwitch::target_context`] multiplied up
    /// to `src`, the context the switch goes down from: every kept row
    /// times the dropped primes' product, every dropped row zero. It
    /// decrypts under the full secret key to the plaintext it decrypted
    /// to at the target, if it was encrypted with rounded scaling
    /// ([`Plaintext::lift_scaled`]); the module doc has the noise.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not at the switch's source primes or `ct` not
    /// at its target's.
    pub fn lift(&self, src: &Arc<Context>, ct: Ciphertext) -> Ciphertext {
        let keep = self.dst.moduli_count();
        assert_eq!(src.moduli_count(), self.from, "lift to another level");
        assert_eq!(
            &src.params().coeff_moduli()[..keep],
            self.dst.params().coeff_moduli(),
            "the switch's target primes are not a prefix of the source's"
        );
        assert_eq!(
            ct.context().params().coeff_moduli(),
            self.dst.params().coeff_moduli(),
            "ciphertext not at the switch's target primes"
        );
        let n = src.degree();
        let kernels = crate::arch::kernels();
        let lift_poly = |poly: Poly| {
            assert_eq!(poly.form(), PolyForm::Ntt, "ciphertexts are in NTT form");
            let mut rows = pool::take(self.from * n);
            let (kept, dropped) = rows.split_at_mut(keep * n);
            kept.copy_from_slice(poly.raw());
            let moduli = src.moduli().iter().zip(&self.lift);
            for (row, (m, &(w, ws))) in kept.chunks_exact_mut(n).zip(moduli) {
                (kernels.mul_scalar)(m, row, w, ws);
            }
            dropped.fill(0);
            Poly::from_residues(src, rows, PolyForm::Ntt)
        };
        let Ciphertext { c0, c1 } = ct;
        Ciphertext::from_parts(lift_poly(c0), lift_poly(c1))
    }

    /// The switched `(c0, c1)`, `c0` in form `c0_form` and `c1` in NTT
    /// form.
    fn switch_with(
        &self,
        ct: Ciphertext,
        mask: Option<&Plaintext>,
        c0_form: PolyForm,
    ) -> (Poly, Poly) {
        spot_trace::count(spot_trace::Counter::ModSwitch, 1);
        let src = Arc::clone(ct.context());
        assert_eq!(src.moduli_count(), self.from, "ciphertext at another level");
        assert_eq!(
            &src.params().coeff_moduli()[..self.dst.moduli_count()],
            self.dst.params().coeff_moduli(),
            "target primes are not a prefix of the ciphertext's"
        );
        let n = src.degree();
        // A row of corrections or of the scaled mask: every element is
        // written before it is read, so a dirty buffer is fine.
        let mut scratch = pool::take(n);
        // The mask's coefficients and its rounding term at the target.
        let mask = mask.map(|mask| (mask.coeffs(), mask.scaling_rounding(&self.dst)));
        let Ciphertext { c0, c1 } = ct;
        let folded = mask
            .as_ref()
            .map(|(coeffs, rounding)| (*coeffs, &rounding[..]));
        let c0 = self.switch_poly(&src, c0, &mut scratch, folded, c0_form);
        let c1 = self.switch_poly(&src, c1, &mut scratch, None, PolyForm::Ntt);
        pool::recycle(scratch);
        if let Some((_, rounding)) = mask {
            pool::recycle(rounding);
        }
        (c0, c1)
    }

    /// One polynomial down to the target, in form `out`, `mask` (its
    /// coefficients and their rounding term) folded in.
    fn switch_poly(
        &self,
        src: &Context,
        poly: Poly,
        scratch: &mut [u64],
        mask: Option<(&[u64], &[u64])>,
        out: PolyForm,
    ) -> Poly {
        assert_eq!(poly.form(), PolyForm::Ntt, "ciphertexts are in NTT form");
        let kernels = crate::arch::kernels();
        let (n, keep, moduli) = (src.degree(), self.dst.moduli_count(), src.moduli());
        let mut rows = poly.into_residues();
        // The rows to drop, to coefficient form, each with its offset.
        for (i, &offset) in (keep..self.from).zip(&self.offsets) {
            let row = &mut rows[i * n..(i + 1) * n];
            src.ntt_tables()[i].inverse(row);
            (kernels.add_scalar)(&moduli[i], row, offset);
        }
        // Each kept row's sum of corrections, in coefficient form. Every
        // row is written by the first step, so a dirty buffer is fine.
        let mut sums = pool::take(keep * n);
        for (s, p) in (keep..self.from).rev().enumerate() {
            let (below, rest) = rows.split_at_mut(p * n);
            // The dropped row: its centred value plus `⌊q/2⌋`.
            let (last, bound) = (&rest[..n], moduli[p].value());
            // The rows still to drop take the step now: (row − value)·q^{-1},
            // their offsets carried along.
            for (i, &(w, ws)) in (keep..p).zip(&self.inverses[s]) {
                let m = &moduli[i];
                let value = lifted(m, bound, last, scratch);
                (kernels.sub_mul_scalar)(m, &mut below[i * n..(i + 1) * n], value, w, ws);
            }
            for (j, (sum, m)) in sums.chunks_exact_mut(n).zip(moduli).enumerate() {
                if s == 0 {
                    // Weight 1; the offsets come out here.
                    sum.copy_from_slice(lifted(m, bound, last, scratch));
                    (kernels.add_scalar)(m, sum, self.unoffset[j]);
                } else {
                    let w = self.weights[s][j];
                    let value = lifted(m, bound, last, scratch);
                    (kernels.mul_add_scalar)(m, sum, value, w, m.shoup(w));
                }
            }
        }
        for (j, (sum, m)) in sums.chunks_exact_mut(n).zip(moduli).enumerate() {
            if let Some((coeffs, rounding)) = mask {
                // Both below `t`, which every prime exceeds.
                let w = self.mask_weight[j];
                (kernels.mul_add_scalar)(m, sum, coeffs, w, m.shoup(w));
                let (w, ws) = self.lift[j];
                (kernels.mul_add_scalar)(m, sum, rounding, w, ws);
            }
            // One transform a kept row either way: the sum forward to
            // meet `c_j` in NTT form, or `c_j` back to meet the sum.
            let row = &mut rows[j * n..(j + 1) * n];
            match out {
                PolyForm::Ntt => src.ntt_tables()[j].forward(sum),
                PolyForm::Coeff => src.ntt_tables()[j].inverse(row),
            }
            // (sum − c_j)·(−(Πq)^{-1}) = (c_j − sum)·(Πq)^{-1}.
            let (w, ws) = self.scale[j];
            (kernels.sub_mul_scalar)(m, sum, row, w, ws);
        }
        pool::recycle(rows);
        Poly::from_residues(&self.dst, sums, out)
    }
}

/// `src`'s values, all below `bound`, as residues below `4·m`, which
/// every kernel reading them takes: `src` itself where they already are,
/// else Barrett-reduced into `scratch`.
fn lifted<'a>(m: &Modulus, bound: u64, src: &'a [u64], scratch: &'a mut [u64]) -> &'a [u64] {
    if bound <= 4 * m.value() {
        return src;
    }
    (crate::arch::kernels().reduce)(m, scratch, src);
    scratch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::BatchEncoder;
    use crate::encryptor::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::ParamLevel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn switched_ciphertext_still_decrypts() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(9);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));

        let values: Vec<u64> = (0..512u64).collect();
        let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);

        let switcher = ModSwitch::new(&ctx, 2);
        let small = switcher.switch(ct);

        // decrypt under the same secret polynomial in the small context
        let dst = switcher.target_context();
        let decryptor = Decryptor::new(dst, keygen.secret_key().restricted_to(dst));
        let out = BatchEncoder::new(dst).decode(&decryptor.decrypt(&small));
        assert_eq!(&out[..512], &values[..]);
    }

    #[test]
    fn switching_shrinks_serialization() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let big = ctx.params().ciphertext_bytes();
        let small = ctx.result_context().params().ciphertext_bytes();
        assert_eq!((big, small), (111_632, 73_744));
    }

    #[test]
    fn switch_preserves_homomorphic_results() {
        // mask-and-send after a multiply: switch the final ciphertext
        // down to the result primes, the client still recovers the
        // masked product.
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N8192));
        let mut rng = StdRng::seed_from_u64(10);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
        let evaluator = crate::evaluator::Evaluator::new(&ctx);

        let a: Vec<u64> = (1..=64u64).collect();
        let b: Vec<u64> = (0..64u64).map(|i| 2 * i + 1).collect();
        let r: Vec<u64> = (0..64u64).map(|i| 1000 * i + 7).collect();
        let ct = encryptor.encrypt(&encoder.encode(&a), &mut rng);
        let prod = evaluator.multiply_plain(&ct, &encoder.encode(&b));

        let small = evaluator.mask_result(prod, &encoder.encode(&r));
        let dst = ctx.result_context();
        assert_eq!(small.context().moduli_count(), RESULT_PRIMES);
        let decryptor = Decryptor::new(dst, keygen.secret_key().restricted_to(dst));
        let out = BatchEncoder::new(dst).decode(&decryptor.decrypt(&small));
        let t = ctx.params().plain_modulus();
        for i in 0..64 {
            assert_eq!(out[i], (a[i] * b[i] + t - r[i]) % t);
        }
    }

    #[test]
    fn the_result_switch_is_built_once_and_only_above_two_primes() {
        let n4096 = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let first = n4096.result_context();
        assert!(Arc::ptr_eq(first, n4096.result_context()));
        assert_eq!(first.moduli_count(), 2);
        assert!(first.result_switch().is_none());
        let n2048 = Context::new(EncryptionParams::new(ParamLevel::N2048));
        assert!(Arc::ptr_eq(n2048.result_context(), &n2048));
    }

    #[test]
    #[should_panic]
    fn single_modulus_cannot_switch() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N2048));
        let _ = ModSwitch::new(&ctx, 1);
    }
}
