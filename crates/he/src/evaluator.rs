//! Homomorphic evaluation: Add, plaintext Mult, and Rot — the three
//! operations the paper's convolution schemes are built from (Sec. II-B).
//!
//! Every evaluator keeps its own tally of the three ([`OpCounts`],
//! [`Evaluator::counts`]): the count a report prints is the count that
//! instance executed.

use crate::ciphertext::{Ciphertext, SparseCiphertext};
use crate::context::Context;
use crate::encoding::{galois_elt_column_swap, galois_elt_from_step, Plaintext};
use crate::keys::GaloisKeys;
use crate::lazy::{OperandRows, StepOut, StepTerm};
use crate::poly::{Poly, PolyForm};
use crate::pool;
use spot_trace::{count, Counter};
use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A tally of HE operations by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Number of additions.
    pub add: u64,
    /// Number of plaintext multiplications.
    pub mult_plain: u64,
    /// Number of rotations.
    pub rotate: u64,
    /// Number of encryptions.
    pub encrypt: u64,
    /// Number of decryptions.
    pub decrypt: u64,
}

impl OpCounts {
    /// Adds another tally into this one (all fields are commutative
    /// sums, so merge order never affects the result).
    pub fn merge(&mut self, other: &OpCounts) {
        self.add += other.add;
        self.mult_plain += other.mult_plain;
        self.rotate += other.rotate;
        self.encrypt += other.encrypt;
        self.decrypt += other.decrypt;
    }

    /// This tally taken `n` times.
    pub fn times(&self, n: u64) -> OpCounts {
        OpCounts {
            add: self.add * n,
            mult_plain: self.mult_plain * n,
            rotate: self.rotate * n,
            encrypt: self.encrypt * n,
            decrypt: self.decrypt * n,
        }
    }
}

/// A ciphertext decomposed for rotation by [`Evaluator::hoist`]: `c0`
/// and the `k` RNS digits of `c1`, all in NTT form. Roughly `(k+1)/2`
/// ciphertexts of memory; it decrypts to nothing by itself.
#[derive(Debug, Clone)]
pub struct HoistedCiphertext {
    c0: Poly,
    digits: Vec<Poly>,
}

impl HoistedCiphertext {
    /// Builds a decomposition from its parts, as [`Evaluator::hoist`]
    /// would return them.
    ///
    /// # Panics
    ///
    /// Panics if a polynomial is not in NTT form or there is not one
    /// digit per RNS prime.
    pub fn from_parts(c0: Poly, digits: Vec<Poly>) -> Self {
        assert_eq!(
            digits.len(),
            c0.context().moduli_count(),
            "one digit per prime"
        );
        for poly in digits.iter().chain([&c0]) {
            assert_eq!(poly.form(), PolyForm::Ntt, "hoisted parts are in NTT form");
        }
        Self { c0, digits }
    }

    /// The undecomposed first component.
    pub fn c0(&self) -> &Poly {
        &self.c0
    }

    /// The RNS digits of the second component, one per prime.
    pub fn digits(&self) -> &[Poly] {
        &self.digits
    }
}

/// Evaluates homomorphic operations on ciphertexts, and counts the ones
/// it evaluated.
#[derive(Debug)]
pub struct Evaluator {
    ctx: Arc<Context>,
    add: AtomicU64,
    mult_plain: AtomicU64,
    rotate: AtomicU64,
}

impl Evaluator {
    /// Creates an evaluator for a context, its tally at zero.
    pub fn new(ctx: &Arc<Context>) -> Self {
        Self {
            ctx: Arc::clone(ctx),
            add: AtomicU64::new(0),
            mult_plain: AtomicU64::new(0),
            rotate: AtomicU64::new(0),
        }
    }

    /// The one place an HE operation is counted: the trace counter and
    /// this evaluator's tally move together. Relaxed, because a tally
    /// publishes nothing else; additions commute, so threads sharing the
    /// evaluator sum exactly.
    fn tally(&self, op: Counter, n: u64) {
        count(op, n);
        let field = match op {
            Counter::AddOps => &self.add,
            Counter::MultPlain => &self.mult_plain,
            Counter::Rotate => &self.rotate,
            other => unreachable!("{other:?} is not an OpCounts field"),
        };
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// The additions, plaintext multiplications and rotations this
    /// evaluator has run since it was built (an evaluator never encrypts
    /// or decrypts). Exact once the threads that used it are joined.
    pub fn counts(&self) -> OpCounts {
        OpCounts {
            add: self.add.load(Ordering::Relaxed),
            mult_plain: self.mult_plain.load(Ordering::Relaxed),
            rotate: self.rotate.load(Ordering::Relaxed),
            ..OpCounts::default()
        }
    }

    /// `a + b`.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        self.add_inplace(&mut out, b);
        out
    }

    /// `a += b`.
    pub fn add_inplace(&self, a: &mut Ciphertext, b: &Ciphertext) {
        self.tally(Counter::AddOps, 1);
        a.c0.add_assign(&b.c0);
        a.c1.add_assign(&b.c1);
    }

    /// `a - b`.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.tally(Counter::AddOps, 1);
        let mut out = a.clone();
        out.c0.sub_assign(&b.c0);
        out.c1.sub_assign(&b.c1);
        out
    }

    /// Subtracts an encoded plaintext from a ciphertext.
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.tally(Counter::AddOps, 1);
        let mut dm = pt.lift_scaled(&self.ctx);
        dm.neg_assign();
        let mut out = a.clone();
        out.c0.add_assign(&dm);
        out
    }

    /// What the client is sent for a result: `ct − mask`, at the primes
    /// results travel at ([`Context::result_context`]). Above those the
    /// mask rides the modulus switch ([`ModSwitch::switch_masked`]) and
    /// costs no transform; either way it is the one addition it counts
    /// as.
    ///
    /// [`ModSwitch::switch_masked`]: crate::modswitch::ModSwitch::switch_masked
    pub fn mask_result(&self, ct: Ciphertext, mask: &Plaintext) -> Ciphertext {
        match self.ctx.result_switch() {
            Some(switch) => {
                self.tally(Counter::AddOps, 1);
                switch.switch_masked(ct, mask)
            }
            None => self.sub_plain(&ct, mask),
        }
    }

    /// [`Evaluator::mask_result`] in the form a coefficient-packed
    /// result is sent in: `c1` whole and `c0` at `positions` only
    /// ([`SparseCiphertext`]). Above the result primes `c0` leaves the
    /// switch in coefficient form at no extra transform
    /// ([`ModSwitch::switch_masked_sparse`]); at them it takes one
    /// inverse transform.
    ///
    /// [`ModSwitch::switch_masked_sparse`]: crate::modswitch::ModSwitch::switch_masked_sparse
    pub fn mask_result_sparse(
        &self,
        ct: Ciphertext,
        mask: &Plaintext,
        positions: &[usize],
    ) -> SparseCiphertext {
        match self.ctx.result_switch() {
            Some(switch) => {
                self.tally(Counter::AddOps, 1);
                switch.switch_masked_sparse(ct, mask, positions)
            }
            None => SparseCiphertext::from_full(&self.sub_plain(&ct, mask), positions),
        }
    }

    /// Multiplies a ciphertext by an encoded plaintext (SIMD slot-wise).
    ///
    /// For repeated use of the same plaintext, pre-lift it with
    /// [`Plaintext::lift`] and call [`Evaluator::multiply_lifted`].
    pub fn multiply_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let lifted = pt.lift(&self.ctx);
        self.multiply_lifted(a, &lifted)
    }

    /// Multiplies by a pre-lifted (NTT-form) plaintext: the one-term
    /// [`Evaluator::dot_lifted`].
    ///
    /// # Panics
    ///
    /// Panics if the lifted plaintext is not in NTT form.
    pub fn multiply_lifted(&self, a: &Ciphertext, lifted: &Poly) -> Ciphertext {
        self.dot_lifted(&[(a, lifted)])
    }

    /// The inner product `Σ ct_i ⊙ lifted_i` of ciphertexts with
    /// pre-lifted (NTT-form) plaintexts, held by reference or behind an
    /// `Arc`: the one-step [`Evaluator::dot_lifted_steps`].
    /// Bit-identical to multiplying every term and adding the products,
    /// and counted like it (`n` plaintext multiplications, `n − 1`
    /// additions).
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty, a plaintext is not in NTT form, or a
    /// term belongs to another context.
    pub fn dot_lifted<P: Borrow<Poly>>(&self, terms: &[(&Ciphertext, P)]) -> Ciphertext {
        assert!(!terms.is_empty(), "an inner product needs a term");
        let operands: Vec<&Ciphertext> = terms.iter().map(|&(ct, _)| ct).collect();
        let step: Vec<(usize, &Poly)> = (terms.iter().enumerate())
            .map(|(x, (_, lifted))| (x, lifted.borrow()))
            .collect();
        let sums = self.dot_lifted_steps(&operands, &[step]);
        (sums.into_iter().next().flatten()).expect("a step with terms has a sum")
    }

    /// Every step's inner product over one set of operands:
    /// `S_s = Σ operands[x] ⊙ lifted` over the terms `(x, lifted)` of
    /// step `s` — what a convolution's giant steps sum over the input's
    /// tap positions. `None` for a step with no terms. Bit-identical to
    /// one [`Evaluator::dot_lifted`] per step that has terms, and
    /// counted like them, but every prime row of every step is summed in
    /// one sweep (the dispatched `dot_steps` kernel,
    /// [`crate::lazy::dot_steps`] in scalar): each output coefficient is
    /// accumulated unreduced and reduced once, the operands are read
    /// from cache by every step after the first, and no product
    /// ciphertext is ever materialised.
    ///
    /// # Panics
    ///
    /// Panics if a term names a missing operand, a plaintext is not in
    /// NTT form, or an operand or a plaintext belongs to another
    /// context.
    pub fn dot_lifted_steps<P: Borrow<Poly>>(
        &self,
        operands: &[&Ciphertext],
        steps: &[Vec<(usize, P)>],
    ) -> Vec<Option<Ciphertext>> {
        let mut sums: Vec<Option<Ciphertext>> = (steps.iter())
            .map(|terms| (!terms.is_empty()).then(|| self.empty_ciphertext()))
            .collect();
        let Some(out) = sums.iter().flatten().next() else {
            return sums;
        };
        for (x, lifted) in steps.iter().flatten() {
            let (ct, lifted) = (operands[*x], lifted.borrow());
            assert_eq!(lifted.form(), PolyForm::Ntt, "plaintext must be lifted");
            for poly in [&ct.c0, &ct.c1, &out.c0] {
                poly.assert_compatible(lifted);
            }
        }
        for terms in steps.iter().filter(|terms| !terms.is_empty()) {
            self.tally(Counter::MultPlain, terms.len() as u64);
            self.tally(Counter::AddOps, terms.len() as u64 - 1);
        }
        let dot_steps = crate::arch::kernels().dot_steps;
        for (j, m) in self.ctx.moduli().iter().enumerate() {
            let rows: Vec<OperandRows<'_>> = (operands.iter())
                .map(|ct| (ct.c0.residues(j), ct.c1.residues(j)))
                .collect();
            let terms: Vec<Vec<StepTerm<'_>>> = (steps.iter().filter(|terms| !terms.is_empty()))
                .map(|step| (step.iter().map(|(x, w)| (*x, w.borrow().residues(j)))).collect())
                .collect();
            let terms: Vec<&[StepTerm<'_>]> = terms.iter().map(Vec::as_slice).collect();
            let mut outs: Vec<StepOut<'_>> = (sums.iter_mut().flatten())
                .map(|sum| (sum.c0.residues_mut(j), sum.c1.residues_mut(j)))
                .collect();
            dot_steps(m, &rows, &terms, &mut outs);
        }
        sums
    }

    /// An NTT-form ciphertext of unspecified residues, for a caller
    /// that writes every row.
    fn empty_ciphertext(&self) -> Ciphertext {
        let len = self.ctx.moduli_count() * self.ctx.degree();
        let poly = || Poly::from_residues(&self.ctx, pool::take(len), PolyForm::Ntt);
        Ciphertext {
            c0: poly(),
            c1: poly(),
        }
    }

    /// Decomposes `a` for rotation: `c0` as it is and `c1` as its `k`
    /// RNS digits (digit `i` is `c1 mod q_i`, lifted to every modulus),
    /// each in NTT form. This is all the transform work of a key switch
    /// — one inverse polynomial NTT and `k − 1` forward row NTTs per
    /// digit — and none of it depends on the Galois element, so any
    /// number of [`Evaluator::rotate_hoisted`] calls can share one
    /// decomposition.
    pub fn hoist(&self, a: &Ciphertext) -> HoistedCiphertext {
        count(Counter::KsDecompose, 1);
        let ctx = &self.ctx;
        let (k, n) = (ctx.moduli_count(), ctx.degree());
        let reduce = crate::arch::kernels().reduce;
        assert_eq!(a.c1.form(), PolyForm::Ntt, "ciphertexts are in NTT form");
        let mut c1 = a.c1.clone();
        c1.to_coeff();
        let digits = (0..k)
            .map(|i| {
                let q_i = ctx.moduli()[i].value();
                let src = c1.residues(i);
                // Every row is written below, so a dirty buffer is fine.
                let mut data = pool::take(k * n);
                for (j, (dst, m)) in data.chunks_exact_mut(n).zip(ctx.moduli()).enumerate() {
                    if j == i {
                        // The digit *is* c1 mod q_i: under its own prime
                        // its NTT row is the one c1 came in with.
                        dst.copy_from_slice(a.c1.residues(i));
                        continue;
                    }
                    if q_i <= m.value() {
                        // Residues mod q_i are already reduced mod the
                        // (equal or larger) target modulus.
                        dst.copy_from_slice(src);
                    } else {
                        reduce(m, dst, src);
                    }
                    ctx.ntt_tables()[j].forward(dst);
                }
                // One polynomial transform, whichever rows it skipped.
                count(Counter::NttFwd, 1);
                Poly::from_residues(ctx, data, PolyForm::Ntt)
            })
            .collect();
        HoistedCiphertext {
            c0: a.c0.clone(),
            digits,
        }
    }

    /// Applies the Galois automorphism `X → X^g` to a hoisted ciphertext
    /// and key-switches back to the canonical key — the one key-switch
    /// body every rotation goes through.
    ///
    /// In NTT form the automorphism only reorders evaluation points
    /// (the key's table, see [`crate::ntt::galois_ntt_table`]), and it
    /// commutes with the digit decomposition, so the rotation is
    /// `(σ(c0) + Σ σ(d_i)·b_i, Σ σ(d_i)·a_i)` with no transform at all:
    /// per prime row, the dispatched `key_switch_row` kernel
    /// ([`crate::lazy::key_switch_row`] in scalar) reads `c0` and the digits
    /// through the table and reduces each output coefficient once.
    ///
    /// # Panics
    ///
    /// Panics if `keys` holds no key for `g`: the caller's bug, never a
    /// peer's doing — a caller whose keys arrive from a peer looks the
    /// set up (or waits for it) first and passes the set it found.
    pub fn rotate_hoisted(
        &self,
        hoisted: &HoistedCiphertext,
        g: usize,
        keys: &GaloisKeys,
    ) -> Ciphertext {
        self.tally(Counter::Rotate, 1);
        count(Counter::KeySwitch, 1);
        let ksk = keys
            .keys
            .get(&g)
            .unwrap_or_else(|| panic!("missing Galois key for element {g}"));
        assert_eq!(
            hoisted.digits.len(),
            ksk.pairs.len(),
            "one key pair per digit"
        );
        let mut out = self.empty_ciphertext();
        let key_switch_row = crate::arch::kernels().key_switch_row;
        let mut rows = Vec::with_capacity(ksk.pairs.len());
        for (j, m) in self.ctx.moduli().iter().enumerate() {
            rows.clear();
            rows.extend(
                hoisted
                    .digits
                    .iter()
                    .zip(&ksk.pairs)
                    .map(|(digit, (b, a))| (digit.residues(j), b.residues(j), a.residues(j))),
            );
            key_switch_row(
                m,
                &ksk.ntt_table,
                hoisted.c0.residues(j),
                &rows,
                out.c0.residues_mut(j),
                out.c1.residues_mut(j),
            );
        }
        out
    }

    /// Applies the Galois automorphism `X → X^g` to a ciphertext and
    /// key-switches back to the canonical key. To rotate one ciphertext
    /// several ways, [`Evaluator::hoist`] it once instead.
    ///
    /// # Panics
    ///
    /// Panics if no Galois key for `g` is present.
    pub fn apply_galois(&self, a: &Ciphertext, g: usize, keys: &GaloisKeys) -> Ciphertext {
        self.rotate_hoisted(&self.hoist(a), g, keys)
    }

    /// Rotates both slot rows left by `steps` (negative = right).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`, `|steps| >= N/2`, or the key is missing.
    pub fn rotate_rows(&self, a: &Ciphertext, steps: i64, keys: &GaloisKeys) -> Ciphertext {
        let g = galois_elt_from_step(steps, self.ctx.degree());
        self.apply_galois(a, g, keys)
    }

    /// Swaps the two slot rows.
    pub fn rotate_columns(&self, a: &Ciphertext, keys: &GaloisKeys) -> Ciphertext {
        let g = galois_elt_column_swap(self.ctx.degree());
        self.apply_galois(a, g, keys)
    }

    /// The Galois elements needed to support `rotate_rows` for each step
    /// in `steps` plus (optionally) the column swap.
    pub fn galois_elements(&self, steps: &[i64], include_column_swap: bool) -> Vec<usize> {
        let n = self.ctx.degree();
        let mut elts: Vec<usize> = steps
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| galois_elt_from_step(s, n))
            .collect();
        if include_column_swap {
            elts.push(galois_elt_column_swap(n));
        }
        elts.sort_unstable();
        elts.dedup();
        elts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{rotate_slots_reference, swap_rows_reference, BatchEncoder};
    use crate::encryptor::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::{EncryptionParams, ParamLevel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Setup {
        ctx: Arc<Context>,
        encoder: BatchEncoder,
        encryptor: Encryptor,
        decryptor: Decryptor,
        evaluator: Evaluator,
        kg: KeyGenerator,
        rng: StdRng,
    }

    fn setup() -> Setup {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(7);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let pk = kg.public_key(&mut rng);
        Setup {
            encoder: BatchEncoder::new(&ctx),
            encryptor: Encryptor::new(&ctx, pk),
            decryptor: Decryptor::new(&ctx, kg.secret_key().clone()),
            evaluator: Evaluator::new(&ctx),
            kg,
            rng,
            ctx,
        }
    }

    #[test]
    fn add_is_slotwise() {
        let mut s = setup();
        let t = s.ctx.params().plain_modulus();
        let a: Vec<u64> = (0..256u64).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..256u64).map(|i| t - 1 - i).collect();
        let ca = s.encryptor.encrypt(&s.encoder.encode(&a), &mut s.rng);
        let cb = s.encryptor.encrypt(&s.encoder.encode(&b), &mut s.rng);
        let sum = s.evaluator.add(&ca, &cb);
        let out = s.encoder.decode(&s.decryptor.decrypt(&sum));
        for i in 0..256 {
            assert_eq!(out[i], (a[i] + b[i]) % t);
        }
    }

    #[test]
    fn multiply_plain_is_slotwise() {
        let mut s = setup();
        let t = s.ctx.params().plain_modulus();
        let a: Vec<u64> = (0..128u64).map(|i| i + 1).collect();
        let b: Vec<u64> = (0..128u64).map(|i| 2 * i + 5).collect();
        let ca = s.encryptor.encrypt(&s.encoder.encode(&a), &mut s.rng);
        let prod = s.evaluator.multiply_plain(&ca, &s.encoder.encode(&b));
        let budget = s.decryptor.noise_budget(&prod);
        assert!(budget > 10, "noise budget exhausted: {budget}");
        let out = s.encoder.decode(&s.decryptor.decrypt(&prod));
        for i in 0..128 {
            assert_eq!(out[i], (a[i] * b[i]) % t, "slot {i}");
        }
        // slots where b is zero (beyond 128) must be zero
        assert!(out[128..].iter().all(|&v| v == 0));
    }

    #[test]
    fn rotation_matches_reference() {
        let mut s = setup();
        let n = s.ctx.degree();
        let values: Vec<u64> = (0..n as u64).map(|i| i % 1000).collect();
        let ct = s.encryptor.encrypt(&s.encoder.encode(&values), &mut s.rng);
        let steps_list = [1i64, 7, -2];
        let elts = s.evaluator.galois_elements(&steps_list, true);
        let gk = s.kg.galois_keys(&elts, &mut s.rng);
        for steps in steps_list {
            let rot = s.evaluator.rotate_rows(&ct, steps, &gk);
            assert!(s.decryptor.noise_budget(&rot) > 10);
            let out = s.encoder.decode(&s.decryptor.decrypt(&rot));
            assert_eq!(out, rotate_slots_reference(&values, steps), "step {steps}");
        }
        let swapped = s.evaluator.rotate_columns(&ct, &gk);
        let out = s.encoder.decode(&s.decryptor.decrypt(&swapped));
        assert_eq!(out, swap_rows_reference(&values));
    }

    #[test]
    fn mult_then_rotate_then_add_chain() {
        // The exact shape of a GAZELLE-style convolution step.
        let mut s = setup();
        let t = s.ctx.params().plain_modulus();
        let values: Vec<u64> = (0..64u64).map(|i| i + 1).collect();
        let weights: Vec<u64> = vec![3u64; 64];
        let ct = s.encryptor.encrypt(&s.encoder.encode(&values), &mut s.rng);
        let elts = s.evaluator.galois_elements(&[1], false);
        let gk = s.kg.galois_keys(&elts, &mut s.rng);
        let prod = s.evaluator.multiply_plain(&ct, &s.encoder.encode(&weights));
        let rot = s.evaluator.rotate_rows(&prod, 1, &gk);
        let sum = s.evaluator.add(&prod, &rot);
        assert!(s.decryptor.noise_budget(&sum) > 10);
        let out = s.encoder.decode(&s.decryptor.decrypt(&sum));
        for i in 0..63 {
            assert_eq!(out[i], (3 * values[i] + 3 * values[i + 1]) % t);
        }
    }

    #[test]
    fn sub_plain_masks_share() {
        // Server-side additive masking: ct - r, client decrypts m - r.
        let mut s = setup();
        let t = s.ctx.params().plain_modulus();
        let values = vec![100u64; 16];
        let mask = vec![30u64; 16];
        let ct = s.encryptor.encrypt(&s.encoder.encode(&values), &mut s.rng);
        let masked = s.evaluator.sub_plain(&ct, &s.encoder.encode(&mask));
        let out = s.encoder.decode(&s.decryptor.decrypt(&masked));
        for i in 0..16 {
            assert_eq!((out[i] + mask[i]) % t, values[i]);
        }
    }

    #[test]
    fn threads_sharing_an_evaluator_tally_exactly() {
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 5;
        let mut s = setup();
        let values: Vec<u64> = (0..64u64).collect();
        let plain = s.encoder.encode(&values);
        let ct = s.encryptor.encrypt(&plain, &mut s.rng);
        let lifted = plain.lift(&s.ctx);
        let gk =
            s.kg.galois_keys(&s.evaluator.galois_elements(&[1], false), &mut s.rng);
        let idle = Evaluator::new(&s.ctx);
        assert_eq!(s.evaluator.counts(), OpCounts::default());
        // All eight start together, so the tallies really interleave.
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let ev = &s.evaluator;
                    start.wait();
                    for _ in 0..ROUNDS {
                        // 3 mult_plain + 2 add, 1 rotate, then 1 add each.
                        let dot = ev.dot_lifted(&[(&ct, &lifted); 3]);
                        let rot = ev.rotate_rows(&dot, 1, &gk);
                        let sum = ev.add(&dot, &rot);
                        ev.sub_plain(&sum, &plain);
                    }
                });
            }
        });
        let runs = THREADS * ROUNDS;
        let want = OpCounts {
            add: 4 * runs,
            mult_plain: 3 * runs,
            rotate: runs,
            ..OpCounts::default()
        };
        assert_eq!(s.evaluator.counts(), want);
        // The tally is per instance, not per context or per process.
        assert_eq!(idle.counts(), OpCounts::default());
    }
}
