//! AVX-512 IFMA backend: 8×64-bit lanes whose modular products run on
//! the 52-bit multiply-add unit.
//!
//! `_mm512_madd52lo_epu64(a, b, c)` adds to each lane of `a` the low 52
//! bits of the 104-bit product of the low 52 bits of `b` and `c`;
//! `_mm512_madd52hi_epu64` adds the high 52 bits. A product built from
//! them is exact only while its operands fit 52 bits, so every entry
//! checks `p < 2^50` — the lazy `[0, 4p)` NTT values then stay below
//! 2^52 — and above that bound falls through, call by call, to the
//! `avx2+scalar` table's entry (N2048's 54-bit prime takes that path).
//! Every output is the canonical `[0, p)` residue, as under every other
//! table, so the choice never moves a byte.
//!
//! * **Shoup multiplies** ([`V64::mul_shoup_lazy`]: every NTT butterfly
//!   and `mul_scalar`). The 52-bit Shoup constant is the stored 64-bit
//!   one shifted, `⌊w·2^52/p⌋ = ⌊⌊w·2^64/p⌋ / 2^12⌋`, so the NTT tables
//!   serve both multipliers. `q = hi52(x·ws)` is the quotient estimate
//!   and `x·w − q·p ∈ [0, 2p)` the low 52 bits of
//!   `lo52(x·w) + lo52(q·(2^52 − p))`: three multiply-adds and a mask.
//!   The lazy value may differ from the 64-bit estimate's by `p`; the
//!   butterflies' `[0, 4p)` / `[0, 2p)` windows hold for both.
//! * **Inner products** (the tap sums [`dot_steps`] and the key-switch
//!   digit sum [`key_switch_row`]). Each product of two residues is
//!   split into its low and high 52-bit halves, and the halves are
//!   summed in two u64 lanes. The sums fold through one vector
//!   reduction ([`reduce_split`]) before either can overflow
//!   ([`fold_every`]), and each output coefficient takes one more.
//! * **The seed expansion** ([`expand_row`]) keeps the eight lane
//!   generators' states in four registers, one xoshiro256++ word per
//!   register, draws eight steps, takes each draw's `gen_range` high
//!   word from four 32×32-bit products (AVX-512F alone, any 64-bit
//!   `q`), and transposes the 8×8 block so each lane's eight draws
//!   store as one vector into its chunk of the row.
//! * **The pointwise product and the digit lift** are the one-term
//!   cases of that reduction: a product's two halves, or a full 64-bit
//!   value read as `(x >> 52)·2^52 + (x mod 2^52)`. The lane type has
//!   no 64×64 product, so the generic Montgomery and Barrett kernels
//!   (`vec::V64Wide`) do not apply.
//!
//! The `unsafe` obligations are the AVX2 backend's: every intrinsic
//! requires AVX-512F (and the multiply-adds IFMA), which [`detected`]
//! proves before [`super::available`] lists this table, and every load
//! and store stays inside its slice — `chunks_exact` in the generic
//! kernels, a lane mask on the last partial chunk of the others, and
//! table entries checked below the row length before a gather.

use super::vec::{self, V64};
use super::{avx2, Kernels};
use crate::lazy::{self, DigitRows, OperandRows, StepOut, StepTerm};
use crate::modulus::Modulus;
use crate::prg::{self, Jump, LaneStates, State, LANES};
use std::arch::x86_64::*;

/// Every entry runs this table's kernel below this modulus and falls
/// through to [`avx2::KERNELS`]'s entry at or above it. (The add and the
/// subtract, which multiply nothing, keep the one rule.)
const P_LIMIT: u64 = 1 << 50;

const MASK52: i64 = (1 << 52) - 1;

/// Whether this CPU runs the table: AVX-512F and IFMA for its own
/// kernels, and AVX2 for the entries it falls through to.
pub(crate) fn detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512ifma")
        && is_x86_feature_detected!("avx2")
}

/// Eight u64 lanes in one AVX-512 register.
#[derive(Copy, Clone)]
struct W(__m512i);

/// Two registers' worth of 64-bit lanes, shuffled by `idx` (lanes 0–7
/// index `a`, 8–15 index `b`).
#[inline(always)]
fn permute2(a: W, b: W, idx: [i64; 8]) -> W {
    // SAFETY: AVX-512F checked at dispatch time.
    unsafe {
        let [i0, i1, i2, i3, i4, i5, i6, i7] = idx;
        let idx = _mm512_setr_epi64(i0, i1, i2, i3, i4, i5, i6, i7);
        W(_mm512_permutex2var_epi64(a.0, idx, b.0))
    }
}

/// `x·w mod p` lazily in `[0, 2p)`, for `x < 2^52`, `w < p < 2^50`,
/// `ws = ⌊w·2^52/p⌋` and `neg_p = 2^52 − p`.
#[inline(always)]
fn shoup52(x: __m512i, w: __m512i, ws: __m512i, neg_p: __m512i) -> __m512i {
    // SAFETY: AVX-512F and IFMA checked at dispatch time.
    unsafe {
        let zero = _mm512_setzero_si512();
        let q = _mm512_madd52hi_epu64(zero, x, ws);
        let r = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, x, w), q, neg_p);
        _mm512_and_si512(r, _mm512_set1_epi64(MASK52))
    }
}

impl V64 for W {
    const LANES: usize = 8;

    #[inline(always)]
    unsafe fn load(ptr: *const u64) -> Self {
        // SAFETY: caller guarantees 8 readable u64s; loadu has no
        // alignment requirement. AVX-512F checked at dispatch time.
        W(unsafe { _mm512_loadu_epi64(ptr as *const i64) })
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut u64) {
        // SAFETY: caller guarantees 8 writable u64s; storeu has no
        // alignment requirement. AVX-512F checked at dispatch time.
        unsafe { _mm512_storeu_epi64(ptr as *mut i64, self.0) }
    }

    #[inline(always)]
    fn splat(x: u64) -> Self {
        // SAFETY: AVX-512F checked at dispatch time.
        W(unsafe { _mm512_set1_epi64(x as i64) })
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX-512F checked at dispatch time.
        W(unsafe { _mm512_add_epi64(self.0, o.0) })
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX-512F checked at dispatch time.
        W(unsafe { _mm512_sub_epi64(self.0, o.0) })
    }

    #[inline(always)]
    fn cond_sub(self, m: Self) -> Self {
        // SAFETY: AVX-512F checked at dispatch time.
        unsafe {
            // self − m wraps above self exactly when self < m, so the
            // unsigned minimum picks the right one (for any self, m).
            W(_mm512_min_epu64(self.0, _mm512_sub_epi64(self.0, m.0)))
        }
    }

    #[inline(always)]
    fn mul_shoup_lazy(self, w: Self, ws: Self, p: Self) -> Self {
        // Every caller's `self` is below 4p < 2^52 (the entries check
        // p < 2^50).
        // SAFETY: AVX-512F checked at dispatch time.
        unsafe {
            let neg_p = _mm512_sub_epi64(_mm512_set1_epi64(1 << 52), p.0);
            W(shoup52(self.0, w.0, _mm512_srli_epi64::<12>(ws.0), neg_p))
        }
    }

    #[inline(always)]
    fn deinterleave_pairs(self, o: Self) -> (Self, Self) {
        (
            permute2(self, o, [0, 2, 4, 6, 8, 10, 12, 14]),
            permute2(self, o, [1, 3, 5, 7, 9, 11, 13, 15]),
        )
    }

    #[inline(always)]
    fn interleave_pairs(self, o: Self) -> (Self, Self) {
        (
            permute2(self, o, [0, 8, 1, 9, 2, 10, 3, 11]),
            permute2(self, o, [4, 12, 5, 13, 6, 14, 7, 15]),
        )
    }

    #[inline(always)]
    fn deinterleave_quads(self, o: Self) -> (Self, Self) {
        (
            permute2(self, o, [0, 1, 4, 5, 8, 9, 12, 13]),
            permute2(self, o, [2, 3, 6, 7, 10, 11, 14, 15]),
        )
    }

    #[inline(always)]
    fn interleave_quads(self, o: Self) -> (Self, Self) {
        (
            permute2(self, o, [0, 1, 8, 9, 2, 3, 10, 11]),
            permute2(self, o, [4, 5, 12, 13, 6, 7, 14, 15]),
        )
    }

    #[inline(always)]
    fn deinterleave_octs(self, o: Self) -> (Self, Self) {
        (
            permute2(self, o, [0, 1, 2, 3, 8, 9, 10, 11]),
            permute2(self, o, [4, 5, 6, 7, 12, 13, 14, 15]),
        )
    }

    #[inline(always)]
    fn interleave_octs(self, o: Self) -> (Self, Self) {
        // The 256-bit halves swap back the way they came.
        self.deinterleave_octs(o)
    }

    #[inline(always)]
    unsafe fn load_dup<const T: usize>(ptr: *const u64) -> Self {
        // SAFETY: the mask reads exactly the 8 / T values the caller
        // vouches for (masked-off lanes are not accessed). AVX-512F
        // checked at dispatch time.
        unsafe {
            let v = _mm512_maskz_loadu_epi64(((1u32 << (8 / T)) - 1) as u8, ptr as *const i64);
            if T == 1 {
                return W(v);
            }
            let lane = |l: i64| l / T as i64;
            let idx = _mm512_setr_epi64(
                lane(0),
                lane(1),
                lane(2),
                lane(3),
                lane(4),
                lane(5),
                lane(6),
                lane(7),
            );
            W(_mm512_permutexvar_epi64(idx, v))
        }
    }
}

/// The generic kernel `$generic` at 8 lanes below [`P_LIMIT`], and the
/// `avx2+scalar` table's entry of the same name at or above it.
macro_rules! ifma_kernel {
    ($name:ident, $generic:ident, ($m:ident $(, $arg:ident : $ty:ty)*)) => {
        fn $name($m: &Modulus $(, $arg: $ty)*) {
            #[target_feature(enable = "avx512f,avx512ifma")]
            unsafe fn vector($m: &Modulus $(, $arg: $ty)*) {
                vec::$generic::<W>($m $(, $arg)*)
            }
            if $m.value() >= P_LIMIT {
                return (avx2::KERNELS.$name)($m $(, $arg)*);
            }
            // SAFETY: this table is only installed after `detected()`
            // returned true.
            unsafe { vector($m $(, $arg)*) }
        }
    };
}

ifma_kernel!(
    ntt_forward,
    ntt_forward_v,
    (m, roots: &[u64], roots_shoup: &[u64], a: &mut [u64])
);
ifma_kernel!(
    ntt_inverse,
    ntt_inverse_v,
    (m, roots: &[u64], roots_shoup: &[u64], inv_degree: u64, inv_degree_shoup: u64,
     a: &mut [u64])
);
ifma_kernel!(pointwise_add, pointwise_add_v, (m, dst: &mut [u64], src: &[u64]));
ifma_kernel!(pointwise_sub, pointwise_sub_v, (m, dst: &mut [u64], src: &[u64]));
ifma_kernel!(
    mul_scalar,
    mul_scalar_v,
    (m, dst: &mut [u64], scalar_val: u64, shoup: u64)
);
ifma_kernel!(add_scalar, add_scalar_v, (m, row: &mut [u64], c: u64));
ifma_kernel!(
    sub_mul_scalar,
    sub_mul_scalar_v,
    (m, dst: &mut [u64], src: &[u64], w: u64, ws: u64)
);
ifma_kernel!(
    mul_add_scalar,
    mul_add_scalar_v,
    (m, dst: &mut [u64], src: &[u64], w: u64, ws: u64)
);

/// `dst[i] = dst[i]·src[i] mod p` over the common length: the product's
/// two 52-bit halves, reduced once.
fn pointwise_mul(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    if m.value() >= P_LIMIT {
        return (avx2::KERNELS.pointwise_mul)(m, dst, src);
    }
    // SAFETY: this table is only installed after `detected()` returned
    // true.
    unsafe { pointwise_mul_impl(m, dst, src) }
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn pointwise_mul_impl(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    let f = Fold::new(m);
    let n = dst.len().min(src.len());
    let zero = _mm512_setzero_si512();
    for i in (0..n).step_by(8) {
        let k = lanes(i, n);
        // SAFETY: i < n, both rows are at least n long, and k masks the
        // lanes past n.
        unsafe {
            let (a, b) = (chunk(dst, i, k), chunk(src, i, k));
            let (h, l) = (
                _mm512_madd52hi_epu64(zero, a, b),
                _mm512_madd52lo_epu64(zero, a, b),
            );
            store_chunk(dst, i, k, reduce_split(h, l, &f));
        }
    }
}

/// `dst[i] = src[i] mod p` over the common length, for any 64-bit
/// `src[i]`: its bits from 52 up are the high half of a split sum.
fn reduce(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    if m.value() >= P_LIMIT {
        return (avx2::KERNELS.reduce)(m, dst, src);
    }
    // SAFETY: this table is only installed after `detected()` returned
    // true.
    unsafe { reduce_impl(m, dst, src) }
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce_impl(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    let f = Fold::new(m);
    let n = dst.len().min(src.len());
    let zero = _mm512_setzero_si512();
    for i in (0..n).step_by(8) {
        let k = lanes(i, n);
        // SAFETY: i < n, both rows are at least n long, and k masks the
        // lanes past n.
        unsafe { store_chunk(dst, i, k, reduce_split(zero, chunk(src, i, k), &f)) }
    }
}

/// Terms an accumulator pair takes between folds at prime `p`. Each
/// product of two residues below `2^b` has a low half below 2^52 and a
/// high half below `2^(2b−52)`: 4095 low halves fit a u64 on top of a
/// residue, and `2^(103−2b)` high halves (32 at 49 bits) keep their sum
/// under 2^51, which leaves the fold's Shoup multiply room for the low
/// sum's carry ([`reduce_split`]).
fn fold_every(p: u64) -> usize {
    let bits = 64 - p.leading_zeros() as usize;
    (1 << (103 - 2 * bits).min(12)).min(4095)
}

/// Per-modulus constants of [`reduce_split`].
struct Fold {
    p: __m512i,
    two_p: __m512i,
    /// `2^52 − p`.
    neg_p: __m512i,
    one: __m512i,
    /// `⌊2^52/p⌋`, the Shoup constant of 1.
    one_shoup: __m512i,
    /// `2^52 mod p` and its Shoup constant.
    r52: __m512i,
    r52_shoup: __m512i,
}

impl Fold {
    #[inline(always)]
    fn new(m: &Modulus) -> Self {
        let p = m.value();
        let r52 = (1u64 << 52) % p;
        let splat = |x: u64| W::splat(x).0;
        Fold {
            p: splat(p),
            two_p: splat(2 * p),
            neg_p: splat((1 << 52) - p),
            one: splat(1),
            one_shoup: splat((1 << 52) / p),
            r52: splat(r52),
            r52_shoup: splat((((r52 as u128) << 52) / p as u128) as u64),
        }
    }
}

/// `h·2^52 + l mod p`, canonical, for `h < 2^51` and any 64-bit `l`.
#[inline(always)]
fn reduce_split(h: __m512i, l: __m512i, f: &Fold) -> __m512i {
    // SAFETY: AVX-512F checked at dispatch time.
    unsafe {
        // Move l's bits above 52 into h: h < 2^51 + 2^12 < 2^52.
        let h = _mm512_add_epi64(h, _mm512_srli_epi64::<52>(l));
        let l = _mm512_and_si512(l, _mm512_set1_epi64(MASK52));
        // h·2^52 ≡ h·(2^52 mod p) and l ≡ l·1, each lazily in [0, 2p).
        let s = _mm512_add_epi64(
            shoup52(h, f.r52, f.r52_shoup, f.neg_p),
            shoup52(l, f.one, f.one_shoup, f.neg_p),
        );
        W(s).cond_sub(W(f.two_p)).cond_sub(W(f.p)).0
    }
}

/// The lane mask of the 8-coefficient chunk at `i` of an `n`-long row.
#[inline(always)]
fn lanes(i: usize, n: usize) -> __mmask8 {
    match n - i {
        8.. => 0xFF,
        left => (1u8 << left) - 1,
    }
}

/// Masked load of the 8-coefficient chunk at `i` of `row`.
///
/// # Safety
/// `i < row.len()` and `k` covers only lanes below `row.len() − i`.
#[inline(always)]
unsafe fn chunk(row: &[u64], i: usize, k: __mmask8) -> __m512i {
    // SAFETY: masked-off lanes are not accessed; the caller vouches for
    // the rest. AVX-512F checked at dispatch time.
    unsafe { _mm512_maskz_loadu_epi64(k, row.as_ptr().add(i) as *const i64) }
}

/// Masked store of `v` to the 8-coefficient chunk at `i` of `row`.
///
/// # Safety
/// As for [`chunk`].
#[inline(always)]
unsafe fn store_chunk(row: &mut [u64], i: usize, k: __mmask8, v: __m512i) {
    // SAFETY: as for the load.
    unsafe { _mm512_mask_storeu_epi64(row.as_mut_ptr().add(i) as *mut i64, k, v) }
}

/// Masked gather of `row[idx[l]]` into lane `l`.
///
/// # Safety
/// Every index of a lane in `k` must be below `row.len()`.
#[inline(always)]
unsafe fn gather(row: &[u64], idx: __m256i, k: __mmask8) -> __m512i {
    // SAFETY: masked-off lanes are not accessed; the caller vouches for
    // the rest. AVX-512F checked at dispatch time.
    unsafe {
        _mm512_mask_i32gather_epi64::<8>(_mm512_setzero_si512(), k, idx, row.as_ptr() as *const i64)
    }
}

/// Coefficients per tile of [`dot_steps`]: the operands' two rows of a
/// tile (8 KiB each) stay in L1/L2 while every step's plaintexts stream
/// past them.
const TILE: usize = 512;

/// How far ahead of its use, in coefficients, [`dot_steps`] prefetches a
/// plaintext row: sixteen cache lines.
const PREFETCH: usize = 128;

/// [`lazy::dot_steps`] on the 52-bit multiply-adds: tile by tile, step
/// by step, per chunk of 8 coefficients, both outputs' split sums stay
/// in registers across every term of the step, and each term's
/// plaintext is prefetched [`PREFETCH`] coefficients ahead.
fn dot_steps(
    m: &Modulus,
    operands: &[OperandRows<'_>],
    steps: &[&[StepTerm<'_>]],
    outs: &mut [StepOut<'_>],
) {
    if m.value() >= P_LIMIT {
        return lazy::dot_steps(m, operands, steps, outs);
    }
    lazy::check_steps(operands, steps, outs);
    // SAFETY: this table is only installed after `detected()` returned
    // true, and every row is the outputs' length and every term's
    // operand index in range (checked above).
    unsafe { dot_steps_impl(m, operands, steps, outs) }
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn dot_steps_impl(
    m: &Modulus,
    operands: &[OperandRows<'_>],
    steps: &[&[StepTerm<'_>]],
    outs: &mut [StepOut<'_>],
) {
    let f = Fold::new(m);
    let fold = fold_every(m.value());
    let n = outs.first().map_or(0, |(o0, _)| o0.len());
    let zero = _mm512_setzero_si512();
    for start in (0..n).step_by(TILE) {
        let end = (start + TILE).min(n);
        for (terms, (out0, out1)) in steps.iter().zip(outs.iter_mut()) {
            for i in (start..end).step_by(8) {
                let k = lanes(i, n);
                let (mut h0, mut l0, mut h1, mut l1) = (zero, zero, zero, zero);
                for (c, block) in terms.chunks(fold).enumerate() {
                    if c > 0 {
                        (h0, l0) = (zero, reduce_split(h0, l0, &f));
                        (h1, l1) = (zero, reduce_split(h1, l1, &f));
                    }
                    for &(x, w) in block {
                        let (x0, x1) = operands[x];
                        // A prefetch is a hint that never faults, so its
                        // address may run past the row.
                        _mm_prefetch::<_MM_HINT_T0>(
                            w.as_ptr().wrapping_add(i + PREFETCH) as *const i8
                        );
                        // SAFETY: i < n, every row is n long, and k
                        // masks the lanes past n.
                        let (x0, x1, w) =
                            unsafe { (chunk(x0, i, k), chunk(x1, i, k), chunk(w, i, k)) };
                        l0 = _mm512_madd52lo_epu64(l0, x0, w);
                        h0 = _mm512_madd52hi_epu64(h0, x0, w);
                        l1 = _mm512_madd52lo_epu64(l1, x1, w);
                        h1 = _mm512_madd52hi_epu64(h1, x1, w);
                    }
                }
                // SAFETY: as for the loads.
                unsafe {
                    store_chunk(out0, i, k, reduce_split(h0, l0, &f));
                    store_chunk(out1, i, k, reduce_split(h1, l1, &f));
                }
            }
        }
    }
}

/// [`lazy::key_switch_row`] on the 52-bit multiply-adds: `c0` and the
/// digits are gathered through the table 8 coefficients at a time, and
/// both outputs' split sums stay in registers across the digit loop. A
/// digit count past [`fold_every`] takes the scalar body.
fn key_switch_row(
    m: &Modulus,
    table: &[u32],
    c0: &[u64],
    digits: &[DigitRows<'_>],
    out0: &mut [u64],
    out1: &mut [u64],
) {
    if m.value() >= P_LIMIT || digits.len() > fold_every(m.value()) {
        return lazy::key_switch_row(m, table, c0, digits, out0, out1);
    }
    let n = table.len();
    assert!(c0.len() == n && out0.len() == n && out1.len() == n);
    assert!(digits
        .iter()
        .all(|(x, b, a)| x.len() == n && b.len() == n && a.len() == n));
    // The gather reads c0 and the digits at these indices as i32.
    let bound = n.min(1 << 31);
    assert!(
        table.iter().all(|&t| (t as usize) < bound),
        "Galois table entry out of range"
    );
    // SAFETY: this table is only installed after `detected()` returned
    // true, every row is `n` long and every table entry below `n`
    // (asserted above).
    unsafe { key_switch_row_impl(m, table, c0, digits, out0, out1) }
}

#[target_feature(enable = "avx512f,avx512ifma")]
fn key_switch_row_impl(
    m: &Modulus,
    table: &[u32],
    c0: &[u64],
    digits: &[DigitRows<'_>],
    out0: &mut [u64],
    out1: &mut [u64],
) {
    let f = Fold::new(m);
    let n = table.len();
    let zero = _mm512_setzero_si512();
    for i in (0..n).step_by(8) {
        let k = lanes(i, n);
        // SAFETY: i < n, every row is n long, k masks the lanes past n,
        // and the gathered indices are table entries below n.
        unsafe {
            // The chunk's 8 table entries, in the low half of a masked
            // 16-lane load.
            let at = table.as_ptr().add(i) as *const i32;
            let idx = _mm512_castsi512_si256(_mm512_maskz_loadu_epi32(k as __mmask16, at));
            let (mut l0, mut h0, mut l1, mut h1) = (gather(c0, idx, k), zero, zero, zero);
            for &(x, b, a) in digits {
                let x = gather(x, idx, k);
                let (b, a) = (chunk(b, i, k), chunk(a, i, k));
                l0 = _mm512_madd52lo_epu64(l0, x, b);
                h0 = _mm512_madd52hi_epu64(h0, x, b);
                l1 = _mm512_madd52lo_epu64(l1, x, a);
                h1 = _mm512_madd52hi_epu64(h1, x, a);
            }
            store_chunk(out0, i, k, reduce_split(h0, l0, &f));
            store_chunk(out1, i, k, reduce_split(h1, l1, &f));
        }
    }
}

/// [`crate::prg::expand_row`] by [`LANES`] generators in the eight
/// 64-bit lanes of a register. Rows whose chunks are not a multiple of
/// eight long take the scalar body.
fn expand_row(state: &mut State, jump: &Jump, q: u64, row: &mut [u64]) {
    if !row.len().is_multiple_of(8 * LANES) {
        return prg::expand_row(state, jump, q, row);
    }
    let mut lanes = prg::lane_starts(state, jump, row.len());
    // SAFETY: this table is only installed after `detected()` returned
    // true; the row length is checked above.
    unsafe { expand_lanes(&mut lanes, q, row) };
    // The last lane stopped where the row ends.
    *state = lanes[LANES - 1];
}

/// The high words of `x·q`, lane by lane, from 32×32-bit products:
/// `q_lo`, `q_hi` hold `q`'s two halves in each lane's low half.
#[inline(always)]
fn mul_hi(x: __m512i, q_lo: __m512i, q_hi: __m512i) -> __m512i {
    // SAFETY: AVX-512F checked at dispatch time.
    unsafe {
        let x_hi = _mm512_srli_epi64::<32>(x);
        let ll = _mm512_mul_epu32(x, q_lo);
        let lh = _mm512_mul_epu32(x, q_hi);
        let hl = _mm512_mul_epu32(x_hi, q_lo);
        let hh = _mm512_mul_epu32(x_hi, q_hi);
        // Neither sum can carry out of 64 bits: a 32×32-bit product
        // plus a 32-bit word.
        let mid = _mm512_add_epi64(hl, _mm512_srli_epi64::<32>(ll));
        let mid2 = _mm512_add_epi64(
            lh,
            _mm512_and_si512(mid, _mm512_set1_epi64(u32::MAX as i64)),
        );
        _mm512_add_epi64(
            _mm512_add_epi64(hh, _mm512_srli_epi64::<32>(mid)),
            _mm512_srli_epi64::<32>(mid2),
        )
    }
}

#[target_feature(enable = "avx512f")]
fn expand_lanes(lanes: &mut LaneStates, q: u64, row: &mut [u64]) {
    // The stores below rely on it.
    assert!(row.len().is_multiple_of(8 * LANES), "whole vectors a chunk");
    let c = row.len() / LANES;
    let word = |w: usize| {
        let [l0, l1, l2, l3, l4, l5, l6, l7] = lanes.map(|s| s[w] as i64);
        _mm512_setr_epi64(l0, l1, l2, l3, l4, l5, l6, l7)
    };
    let (mut s0, mut s1, mut s2, mut s3) = (word(0), word(1), word(2), word(3));
    let q_lo = _mm512_set1_epi64(q as i64);
    let q_hi = _mm512_set1_epi64((q >> 32) as i64);
    let idx = |i: [i64; 8]| _mm512_setr_epi64(i[0], i[1], i[2], i[3], i[4], i[5], i[6], i[7]);
    let (quad_lo, quad_hi) = (
        idx([0, 1, 8, 9, 4, 5, 12, 13]),
        idx([2, 3, 10, 11, 6, 7, 14, 15]),
    );
    let (half_lo, half_hi) = (
        idx([0, 1, 2, 3, 8, 9, 10, 11]),
        idx([4, 5, 6, 7, 12, 13, 14, 15]),
    );
    for i in (0..c).step_by(8) {
        // Draw k of every lane, for k = 0..8.
        let draws: [__m512i; 8] = std::array::from_fn(|_| {
            let result = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s0, s3)), s0);
            let t = _mm512_slli_epi64::<17>(s1);
            s2 = _mm512_xor_si512(s2, s0);
            s3 = _mm512_xor_si512(s3, s1);
            s1 = _mm512_xor_si512(s1, s2);
            s0 = _mm512_xor_si512(s0, s3);
            s2 = _mm512_xor_si512(s2, t);
            s3 = _mm512_rol_epi64::<45>(s3);
            mul_hi(result, q_lo, q_hi)
        });
        // Transpose: pairs, then quads, then halves, so column l holds
        // lane l's draws k = 0..8.
        let pair = |k: usize| {
            (
                _mm512_unpacklo_epi64(draws[k], draws[k + 1]),
                _mm512_unpackhi_epi64(draws[k], draws[k + 1]),
            )
        };
        let [(p0, p1), (p2, p3), (p4, p5), (p6, p7)] = [0, 2, 4, 6].map(pair);
        let quad = |a, b| {
            (
                _mm512_permutex2var_epi64(a, quad_lo, b),
                _mm512_permutex2var_epi64(a, quad_hi, b),
            )
        };
        let ((u0, u2), (u1, u3)) = (quad(p0, p2), quad(p1, p3));
        let ((u4, u6), (u5, u7)) = (quad(p4, p6), quad(p5, p7));
        let half = |a, b| {
            (
                _mm512_permutex2var_epi64(a, half_lo, b),
                _mm512_permutex2var_epi64(a, half_hi, b),
            )
        };
        let ((c0, c4), (c1, c5)) = (half(u0, u4), half(u1, u5));
        let ((c2, c6), (c3, c7)) = (half(u2, u6), half(u3, u7));
        for (l, column) in [c0, c1, c2, c3, c4, c5, c6, c7].into_iter().enumerate() {
            // SAFETY: l·c + i + 8 ≤ (l + 1)·c ≤ row.len(), as c is a
            // multiple of 8 and i < c.
            unsafe { _mm512_storeu_epi64(row.as_mut_ptr().add(l * c + i) as *mut i64, column) }
        }
    }
    let mut words = [[0u64; 8]; 4];
    for (w, s) in words.iter_mut().zip([s0, s1, s2, s3]) {
        // SAFETY: 8 writable u64s.
        unsafe { _mm512_storeu_epi64(w.as_mut_ptr() as *mut i64, s) }
    }
    for (l, state) in lanes.iter_mut().enumerate() {
        *state = [words[0][l], words[1][l], words[2][l], words[3][l]];
    }
}

/// The IFMA kernel table (install only after [`detected`]).
pub static KERNELS: Kernels = Kernels {
    name: "avx512ifma",
    dispatch_event: "simd_dispatch=avx512ifma",
    ntt_forward,
    ntt_inverse,
    pointwise_mul,
    pointwise_add,
    pointwise_sub,
    mul_scalar,
    reduce,
    add_scalar,
    sub_mul_scalar,
    mul_add_scalar,
    dot_steps,
    key_switch_row,
    expand_row,
};
