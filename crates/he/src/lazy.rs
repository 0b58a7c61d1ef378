//! Lazy wide accumulation: inner products of residue rows summed in
//! `u128` and reduced once per output coefficient.
//!
//! The two server hot loops — the key-switch digit sum of a rotation
//! and the tap sum of a convolution — are both `Σ_t x_t[i]·y_t[i] mod q`
//! over canonical residues. A product of two residues is below
//! `(q−1)² < 2^124`, so [`max_terms`] of them fit a `u128` on top of a
//! reduced value, and [`Modulus::reduce_u128`] is exact for any `u128`:
//! the one reduction at the end yields the same canonical residue as a
//! reduction after every term.
//!
//! [`dot_steps`] and [`key_switch_row`] are the scalar bodies of the
//! [`crate::arch`] table's two inner-product entries, and the
//! reference every other body is tested against. The `scalar`, `avx2`,
//! `avx2+scalar` and `neon` tables run them as they are (AVX2 and NEON
//! have no 64×64→128 multiply); the `avx512ifma` table sums 52-bit
//! product halves instead and falls back to them above its prime
//! bound. Callers go through `arch::kernels()`.

use crate::modulus::Modulus;

/// The number of residue products modulo `m` that can be added to one
/// reduced residue in a `u128` without overflow:
/// `⌊(2^128 − q) / (q−1)²⌋`. At least 16 for any [`Modulus`] (`q < 2^62`),
/// `2^30` at 49-bit primes.
pub fn max_terms(m: &Modulus) -> usize {
    let q = m.value() as u128;
    let room = u128::MAX - (q - 1); // 2^128 − q
    usize::try_from(room / ((q - 1) * (q - 1))).unwrap_or(usize::MAX)
}

/// One digit of a key switch on one prime row: the digit's residues
/// and the two key rows `(b, a)` it multiplies.
pub type DigitRows<'a> = (&'a [u64], &'a [u64], &'a [u64]);

/// One prime row of a key switch under the Galois automorphism `table`
/// (`σ(x)[i] = x[table[i]]` on NTT-form rows):
///
/// ```text
/// out0[i] = c0[t] + Σ_d digit_d[t]·b_d[i]      t = table[i]
/// out1[i] =         Σ_d digit_d[t]·a_d[i]
/// ```
///
/// The automorphism is the gather index, so no permuted copy of any
/// row is ever made, and both sums of a coefficient stay in registers
/// across the digit loop: the body is monomorphised over the digit
/// counts of the shipped levels (3 / 5 / 9) and runs on the slice for
/// any other.
///
/// # Panics
///
/// Panics if the rows are not all `table.len()` long, a table entry is
/// out of range, or `digits.len() + 1` exceeds [`max_terms`].
pub fn key_switch_row(
    m: &Modulus,
    table: &[u32],
    c0: &[u64],
    digits: &[DigitRows<'_>],
    out0: &mut [u64],
    out1: &mut [u64],
) {
    let n = table.len();
    assert!(c0.len() == n && out0.len() == n && out1.len() == n);
    assert!(digits
        .iter()
        .all(|(x, b, a)| x.len() == n && b.len() == n && a.len() == n));
    assert!(
        digits.len() < max_terms(m),
        "{} digits overflow a u128 modulo {}",
        digits.len(),
        m.value()
    );
    match digits.len() {
        3 => key_switch_body(m, table, c0, rows::<3>(digits), out0, out1),
        5 => key_switch_body(m, table, c0, rows::<5>(digits), out0, out1),
        9 => key_switch_body(m, table, c0, rows::<9>(digits), out0, out1),
        _ => key_switch_body(m, table, c0, digits, out0, out1),
    }
}

/// The digit rows as an array by value (`digits.len()` is `K`).
fn rows<'a, const K: usize>(digits: &[DigitRows<'a>]) -> [DigitRows<'a>; K] {
    digits.try_into().expect("matched on the length")
}

/// The key-switch row loop, generic over how the digit rows are held:
/// an array by value (digit loop unrolled, row pointers in registers)
/// or a slice.
#[inline(always)]
fn key_switch_body<'a, D: AsRef<[DigitRows<'a>]>>(
    m: &Modulus,
    table: &[u32],
    c0: &[u64],
    digits: D,
    out0: &mut [u64],
    out1: &mut [u64],
) {
    let digits = digits.as_ref();
    let outs = out0.iter_mut().zip(out1.iter_mut());
    for (i, ((o0, o1), &t)) in outs.zip(table).enumerate() {
        let t = t as usize;
        let mut s0 = c0[t] as u128;
        let mut s1 = 0u128;
        for &(x, b, a) in digits {
            let x = x[t] as u128;
            s0 += x * b[i] as u128;
            s1 += x * a[i] as u128;
        }
        *o0 = m.reduce_u128(s0);
        *o1 = m.reduce_u128(s1);
    }
}

/// One operand of a tap sum on one prime row: a ciphertext's `c0` and
/// `c1` rows.
pub type OperandRows<'a> = (&'a [u64], &'a [u64]);

/// One term of a step's tap sum: the index of the operand it
/// multiplies and the plaintext row both of the operand's rows are
/// multiplied by.
pub type StepTerm<'a> = (usize, &'a [u64]);

/// One step's output rows, `(out0, out1)`.
pub type StepOut<'a> = (&'a mut [u64], &'a mut [u64]);

/// Coefficients per tile of [`dot_steps`]: the `u128` accumulator
/// tile (8 KiB) stays in L1 while every term streams by, and the
/// operands' tiles stay in cache while every step reads them.
const TILE: usize = 512;

/// The row length of a [`dot_steps`] call, after checking its shape:
/// every operand and plaintext row and every output is that long, every
/// term names an operand, and there is one output pair per step.
///
/// # Panics
///
/// Panics if any of those does not hold.
pub(crate) fn check_steps(
    operands: &[OperandRows<'_>],
    steps: &[&[StepTerm<'_>]],
    outs: &[StepOut<'_>],
) -> usize {
    assert_eq!(steps.len(), outs.len(), "one output pair per step");
    let n = (outs.first().map(|(o0, _)| o0.len()))
        .or(operands.first().map(|(x0, _)| x0.len()))
        .unwrap_or(0);
    assert!(outs.iter().all(|(o0, o1)| o0.len() == n && o1.len() == n));
    assert!(operands
        .iter()
        .all(|(x0, x1)| x0.len() == n && x1.len() == n));
    assert!(
        (steps.iter().copied().flatten()).all(|&(x, w)| x < operands.len() && w.len() == n),
        "a term names a missing operand or a short plaintext row"
    );
    n
}

/// One prime row of every step's tap sum in one sweep: for each step
/// `s` with terms `(x, w)`,
/// `outs[s].0[i] = Σ c0_x[i]·w[i]`, `outs[s].1[i] = Σ c1_x[i]·w[i]`,
/// zero for a step with no terms. The sweep goes tile by tile of 512
/// coefficients and, within a tile, step by step, so the operands'
/// tiles are read from cache by every step after the first; each sum
/// is accumulated unreduced and folded through
/// [`Modulus::reduce_u128`] every [`max_terms`] terms, so any number of
/// terms is exact. A single inner product is the one-step call.
///
/// # Panics
///
/// Panics if there is not one output pair per step, a term names a
/// missing operand, or a row is not as long as the others.
pub fn dot_steps(
    m: &Modulus,
    operands: &[OperandRows<'_>],
    steps: &[&[StepTerm<'_>]],
    outs: &mut [StepOut<'_>],
) {
    let n = check_steps(operands, steps, outs);
    let fold_every = max_terms(m);
    let mut acc = [0u128; TILE];
    for start in (0..n).step_by(TILE) {
        let at = start..(start + TILE).min(n);
        for (terms, (out0, out1)) in steps.iter().zip(outs.iter_mut()) {
            let (o0, o1) = (&mut out0[at.clone()], &mut out1[at.clone()]);
            if terms.is_empty() {
                o0.fill(0);
                o1.fill(0);
                continue;
            }
            let halves = terms
                .iter()
                .map(|&(x, w)| (&operands[x].0[at.clone()], &w[at.clone()]));
            dot_tile(m, fold_every, halves, &mut acc, o0);
            let halves = terms
                .iter()
                .map(|&(x, w)| (&operands[x].1[at.clone()], &w[at.clone()]));
            dot_tile(m, fold_every, halves, &mut acc, o1);
        }
    }
}

/// `out[i] = Σ_t x_t[i]·w_t[i] mod q` over one tile. The first term
/// starts the sums (no zeroing pass) and the last one's products join
/// them on their way through the reduction, so a single term is a
/// plain pointwise multiply that never touches `acc`.
#[inline(always)]
fn dot_tile<'a>(
    m: &Modulus,
    fold_every: usize,
    terms: impl ExactSizeIterator<Item = (&'a [u64], &'a [u64])>,
    acc: &mut [u128; TILE],
    out: &mut [u64],
) {
    let acc = &mut acc[..out.len()];
    let last = terms.len() - 1;
    for (t, (x, w)) in terms.enumerate() {
        if t > 0 && t % fold_every == 0 {
            for s in acc.iter_mut() {
                *s = m.reduce_u128(*s) as u128;
            }
        }
        let products = x.iter().zip(w).map(|(&x, &w)| x as u128 * w as u128);
        match (t == 0, t == last) {
            (true, false) => acc.iter_mut().zip(products).for_each(|(s, p)| *s = p),
            (false, false) => acc.iter_mut().zip(products).for_each(|(s, p)| *s += p),
            (true, true) => {
                for (o, p) in out.iter_mut().zip(products) {
                    *o = m.reduce_u128(p);
                }
            }
            (false, true) => {
                for ((o, &s), p) in out.iter_mut().zip(acc.iter()).zip(products) {
                    *o = m.reduce_u128(s + p);
                }
            }
        }
    }
}
