//! AVX2 backend: 4×64-bit lanes.
//!
//! x86_64 has no 64×64→128 vector multiply below AVX-512, so the
//! `mul_lo`/`mul_hi` primitives are composed from `vpmuludq` 32×32→64
//! partial products (the standard schoolbook split). Everything else is
//! native 64-bit lane arithmetic; unsigned comparisons use the
//! sign-bit-flip trick over the signed `vpcmpgtq`.
//!
//! The kernel bodies live in [`super::vec`]; this module only
//! implements the lane primitives and the `#[target_feature(enable =
//! "avx2")]` entry points. The `unsafe` obligations are exactly:
//!
//! 1. every intrinsic requires AVX2, which [`super::available`] proves
//!    at runtime before this table can be selected, and
//! 2. `load`/`store` pointer validity, guaranteed by the
//!    `chunks_exact` iteration in the generic kernels.

use super::vec::{self, V64Wide, V64};
use super::Kernels;
use crate::modulus::Modulus;
use crate::prg::{self, Jump, LaneStates, State, LANES};
use std::arch::x86_64::*;

/// Four u64 lanes in one AVX2 register.
#[derive(Copy, Clone)]
struct W(__m256i);

#[inline(always)]
fn sign() -> __m256i {
    // SAFETY: AVX2 is available whenever this backend runs (checked at
    // dispatch time before the table is installed).
    unsafe { _mm256_set1_epi64x(i64::MIN) }
}

/// Zero-cost optimization barrier: emits no instructions but hides the
/// value's producer from LLVM. Without it, the combiner recognizes the
/// `mul_hi` schoolbook partial products as a 64-bit vector mulhi and —
/// AVX2 having no such instruction — *scalarizes* it into four
/// `vpextrq`/`mul`/`vinserti128` round trips, which measures ~35%
/// slower than the vpmuludq form it replaced (seen on the inverse-NTT
/// butterfly; the forward butterfly happened to escape the fold).
/// # Safety
/// Requires AVX2 (the `ymm_reg` operand class), which every caller in
/// this module guarantees via the dispatch-time feature check.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn opaque(v: __m256i) -> __m256i {
    let mut v = v;
    // SAFETY: comment-only asm template; emits no instructions and only
    // pins the value to a ymm register.
    unsafe {
        std::arch::asm!(
            "/* {0} */",
            inout(ymm_reg) v,
            options(pure, nomem, nostack, preserves_flags)
        );
    }
    v
}

/// All-ones mask per lane where `a < b` (unsigned).
#[inline(always)]
fn lt_u64(a: __m256i, b: __m256i) -> __m256i {
    // SAFETY: AVX2 checked at dispatch time.
    unsafe {
        let s = sign();
        _mm256_cmpgt_epi64(_mm256_xor_si256(b, s), _mm256_xor_si256(a, s))
    }
}

impl V64 for W {
    const LANES: usize = 4;

    #[inline(always)]
    unsafe fn load(ptr: *const u64) -> Self {
        // SAFETY: caller guarantees 4 readable u64s; loadu has no
        // alignment requirement. AVX2 checked at dispatch time.
        W(unsafe { _mm256_loadu_si256(ptr as *const __m256i) })
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut u64) {
        // SAFETY: caller guarantees 4 writable u64s; storeu has no
        // alignment requirement. AVX2 checked at dispatch time.
        unsafe { _mm256_storeu_si256(ptr as *mut __m256i, self.0) }
    }

    #[inline(always)]
    fn splat(x: u64) -> Self {
        // SAFETY: AVX2 checked at dispatch time.
        W(unsafe { _mm256_set1_epi64x(x as i64) })
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX2 checked at dispatch time.
        W(unsafe { _mm256_add_epi64(self.0, o.0) })
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX2 checked at dispatch time.
        W(unsafe { _mm256_sub_epi64(self.0, o.0) })
    }

    #[inline(always)]
    fn cond_sub(self, m: Self) -> Self {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            // t = self - m is negative as i64 exactly when self < m
            // (using the trait contract m < 2^63, self < m + 2^63), so
            // one signed compare against zero replaces the sign-flipped
            // unsigned compare: add m back in the underflowed lanes.
            let t = _mm256_sub_epi64(self.0, m.0);
            let under = _mm256_cmpgt_epi64(_mm256_setzero_si256(), t);
            W(_mm256_add_epi64(t, _mm256_and_si256(under, m.0)))
        }
    }

    #[inline(always)]
    fn mul_shoup_lazy(self, w: Self, ws: Self, p: Self) -> Self {
        vec::mul_shoup_lazy_wide(self, w, ws, p)
    }

    #[inline(always)]
    fn deinterleave_pairs(self, o: Self) -> (Self, Self) {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            // unpck interleaves within 128-bit halves: lo = [a0 b0 a2 b2],
            // hi = [a1 b1 a3 b3]; the 0xD8 permute ([q0 q2 q1 q3]) then
            // straightens them into [a0 a2 b0 b2] / [a1 a3 b1 b3].
            let lo = _mm256_unpacklo_epi64(self.0, o.0);
            let hi = _mm256_unpackhi_epi64(self.0, o.0);
            (
                W(_mm256_permute4x64_epi64::<0xD8>(lo)),
                W(_mm256_permute4x64_epi64::<0xD8>(hi)),
            )
        }
    }

    #[inline(always)]
    fn interleave_pairs(self, o: Self) -> (Self, Self) {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            // Inverse of deinterleave_pairs: pre-permute each input to
            // [q0 q2 q1 q3], then unpck recombines adjacent pairs.
            let e = _mm256_permute4x64_epi64::<0xD8>(self.0);
            let d = _mm256_permute4x64_epi64::<0xD8>(o.0);
            (
                W(_mm256_unpacklo_epi64(e, d)),
                W(_mm256_unpackhi_epi64(e, d)),
            )
        }
    }

    #[inline(always)]
    fn deinterleave_quads(self, o: Self) -> (Self, Self) {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            // Gather the low 128-bit halves into one register and the
            // high halves into the other.
            (
                W(_mm256_permute2x128_si256::<0x20>(self.0, o.0)),
                W(_mm256_permute2x128_si256::<0x31>(self.0, o.0)),
            )
        }
    }

    #[inline(always)]
    fn interleave_quads(self, o: Self) -> (Self, Self) {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            // Self-inverse permutation pair: same shuffles as
            // deinterleave_quads.
            (
                W(_mm256_permute2x128_si256::<0x20>(self.0, o.0)),
                W(_mm256_permute2x128_si256::<0x31>(self.0, o.0)),
            )
        }
    }
}

impl V64Wide for W {
    #[inline(always)]
    fn mul_lo(self, o: Self) -> Self {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            // vpmuludq reads the low 32 bits of each 64-bit lane.
            let ll = _mm256_mul_epu32(self.0, o.0);
            let lh = _mm256_mul_epu32(self.0, _mm256_srli_epi64(o.0, 32));
            let hl = _mm256_mul_epu32(_mm256_srli_epi64(self.0, 32), o.0);
            let cross = _mm256_add_epi64(lh, hl);
            W(_mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32)))
        }
    }

    #[inline(always)]
    fn mul_hi(self, o: Self) -> Self {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            let a_hi = _mm256_srli_epi64(self.0, 32);
            let b_hi = _mm256_srli_epi64(o.0, 32);
            let ll = _mm256_mul_epu32(self.0, o.0);
            let lh = _mm256_mul_epu32(self.0, b_hi);
            let hl = _mm256_mul_epu32(a_hi, o.0);
            // SAFETY: AVX2 checked at dispatch time (see `opaque`).
            let hh = opaque(_mm256_mul_epu32(a_hi, b_hi));
            let m32 = _mm256_set1_epi64x(0xFFFF_FFFF);
            // mid ≤ 3·(2^32 − 1) — no lane overflow.
            let mid = _mm256_add_epi64(
                _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, m32)),
                _mm256_and_si256(hl, m32),
            );
            W(_mm256_add_epi64(
                _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
                _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)),
            ))
        }
    }

    #[inline(always)]
    fn mul_wide(self, o: Self) -> (Self, Self) {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            // Shares the four 32×32 partial products between both halves.
            let a_hi = _mm256_srli_epi64(self.0, 32);
            let b_hi = _mm256_srli_epi64(o.0, 32);
            let ll = _mm256_mul_epu32(self.0, o.0);
            let lh = _mm256_mul_epu32(self.0, b_hi);
            let hl = _mm256_mul_epu32(a_hi, o.0);
            let hh = _mm256_mul_epu32(a_hi, b_hi);
            let m32 = _mm256_set1_epi64x(0xFFFF_FFFF);
            let mid = _mm256_add_epi64(
                _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, m32)),
                _mm256_and_si256(hl, m32),
            );
            let hi = _mm256_add_epi64(
                _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
                _mm256_add_epi64(_mm256_srli_epi64(hl, 32), _mm256_srli_epi64(mid, 32)),
            );
            let cross = _mm256_add_epi64(lh, hl);
            let lo = _mm256_add_epi64(ll, _mm256_slli_epi64(cross, 32));
            (W(hi), W(lo))
        }
    }

    #[inline(always)]
    fn add_nonzero_bit(self, o: Self) -> Self {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            let zero_mask = _mm256_cmpeq_epi64(o.0, _mm256_setzero_si256());
            let bit = _mm256_andnot_si256(zero_mask, _mm256_set1_epi64x(1));
            W(_mm256_add_epi64(self.0, bit))
        }
    }

    #[inline(always)]
    fn add_with_carry(self, o: Self) -> (Self, Self) {
        // SAFETY: AVX2 checked at dispatch time.
        unsafe {
            let sum = _mm256_add_epi64(self.0, o.0);
            // Unsigned overflow iff sum < either addend.
            let carry = _mm256_srli_epi64(lt_u64(sum, self.0), 63);
            (W(sum), W(carry))
        }
    }
}

macro_rules! avx2_kernel {
    ($wrapper:ident, $impl_fn:ident, $generic:ident, ($($arg:ident : $ty:ty),*)) => {
        #[target_feature(enable = "avx2")]
        unsafe fn $impl_fn($($arg: $ty),*) {
            vec::$generic::<W>($($arg),*)
        }
        fn $wrapper($($arg: $ty),*) {
            // SAFETY: this kernel table is only installed after
            // `is_x86_feature_detected!("avx2")` returned true.
            unsafe { $impl_fn($($arg),*) }
        }
    };
}

avx2_kernel!(
    ntt_forward,
    ntt_forward_impl,
    ntt_forward_v,
    (m: &Modulus, roots: &[u64], roots_shoup: &[u64], a: &mut [u64])
);
avx2_kernel!(
    ntt_inverse,
    ntt_inverse_impl,
    ntt_inverse_v,
    (m: &Modulus, roots: &[u64], roots_shoup: &[u64], inv_degree: u64,
     inv_degree_shoup: u64, a: &mut [u64])
);
avx2_kernel!(
    pointwise_mul,
    pointwise_mul_impl,
    pointwise_mul_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
avx2_kernel!(
    pointwise_add,
    pointwise_add_impl,
    pointwise_add_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
avx2_kernel!(
    pointwise_sub,
    pointwise_sub_impl,
    pointwise_sub_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
avx2_kernel!(
    mul_scalar,
    mul_scalar_impl,
    mul_scalar_v,
    (m: &Modulus, dst: &mut [u64], scalar_val: u64, shoup: u64)
);
avx2_kernel!(
    reduce,
    reduce_impl,
    reduce_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
avx2_kernel!(
    add_scalar,
    add_scalar_impl,
    add_scalar_v,
    (m: &Modulus, row: &mut [u64], c: u64)
);
avx2_kernel!(
    sub_mul_scalar,
    sub_mul_scalar_impl,
    sub_mul_scalar_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64)
);
avx2_kernel!(
    mul_add_scalar,
    mul_add_scalar_impl,
    mul_add_scalar_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64)
);

/// Each lane rotated left by `L` bits (`R = 64 − L`).
#[inline(always)]
fn rol<const L: i32, const R: i32>(x: __m256i) -> __m256i {
    // SAFETY: AVX2 checked at dispatch time.
    unsafe { _mm256_or_si256(_mm256_slli_epi64::<L>(x), _mm256_srli_epi64::<R>(x)) }
}

/// [`crate::prg::expand_row`] by [`LANES`] generators, four to a
/// register and the eight in two rounds: each step draws four lanes at
/// once, `gen_range`'s high word comes from four 32×32-bit products,
/// and every four steps a 4×4 transpose stores each lane's four draws
/// as one vector into its chunk. Rows whose chunks are not a multiple
/// of four long take the scalar body.
fn expand_row(state: &mut State, jump: &Jump, q: u64, row: &mut [u64]) {
    if !row.len().is_multiple_of(4 * LANES) {
        return prg::expand_row(state, jump, q, row);
    }
    let mut lanes = prg::lane_starts(state, jump, row.len());
    // SAFETY: this kernel table is only installed after
    // `is_x86_feature_detected!("avx2")` returned true; the row length
    // is checked above.
    unsafe { expand_lanes(&mut lanes, q, row) };
    // The last lane stopped where the row ends.
    *state = lanes[LANES - 1];
}

#[target_feature(enable = "avx2")]
fn expand_lanes(lanes: &mut LaneStates, q: u64, row: &mut [u64]) {
    // The stores below rely on it.
    assert!(row.len().is_multiple_of(4 * LANES), "whole vectors a chunk");
    let c = row.len() / LANES;
    let (q_lo, q_hi) = (W::splat(q).0, W::splat(q >> 32).0);
    let low32 = W::splat(u32::MAX as u64).0;
    for (quad, chunks) in lanes.chunks_exact_mut(4).zip(row.chunks_exact_mut(4 * c)) {
        let word = |w: usize| {
            let [a, b, d, e] = [0, 1, 2, 3].map(|l| quad[l][w] as i64);
            _mm256_setr_epi64x(a, b, d, e)
        };
        let (mut s0, mut s1, mut s2, mut s3) = (word(0), word(1), word(2), word(3));
        for i in (0..c).step_by(4) {
            // Draw k of the four lanes, for k = 0..4.
            let [d0, d1, d2, d3]: [__m256i; 4] = std::array::from_fn(|_| {
                let result = _mm256_add_epi64(rol::<23, 41>(_mm256_add_epi64(s0, s3)), s0);
                let t = _mm256_slli_epi64::<17>(s1);
                s2 = _mm256_xor_si256(s2, s0);
                s3 = _mm256_xor_si256(s3, s1);
                s1 = _mm256_xor_si256(s1, s2);
                s0 = _mm256_xor_si256(s0, s3);
                s2 = _mm256_xor_si256(s2, t);
                s3 = rol::<45, 19>(s3);
                // The high words of `result·q`: neither sum carries out
                // of 64 bits, a 32×32-bit product plus a 32-bit word.
                let result_hi = _mm256_srli_epi64::<32>(result);
                let ll = _mm256_mul_epu32(result, q_lo);
                let lh = _mm256_mul_epu32(result, q_hi);
                let hl = _mm256_mul_epu32(result_hi, q_lo);
                let hh = _mm256_mul_epu32(result_hi, q_hi);
                let mid = _mm256_add_epi64(hl, _mm256_srli_epi64::<32>(ll));
                let mid2 = _mm256_add_epi64(lh, _mm256_and_si256(mid, low32));
                _mm256_add_epi64(
                    _mm256_add_epi64(hh, _mm256_srli_epi64::<32>(mid)),
                    _mm256_srli_epi64::<32>(mid2),
                )
            });
            let (t0, t1) = (_mm256_unpacklo_epi64(d0, d1), _mm256_unpackhi_epi64(d0, d1));
            let (t2, t3) = (_mm256_unpacklo_epi64(d2, d3), _mm256_unpackhi_epi64(d2, d3));
            let columns = [
                _mm256_permute2x128_si256::<0x20>(t0, t2),
                _mm256_permute2x128_si256::<0x20>(t1, t3),
                _mm256_permute2x128_si256::<0x31>(t0, t2),
                _mm256_permute2x128_si256::<0x31>(t1, t3),
            ];
            for (l, column) in columns.into_iter().enumerate() {
                // SAFETY: l·c + i + 4 ≤ (l + 1)·c ≤ chunks.len(), as c
                // is a multiple of 4 and i < c.
                unsafe { W(column).store(chunks.as_mut_ptr().add(l * c + i)) }
            }
        }
        let mut words = [[0u64; 4]; 4];
        for (w, s) in words.iter_mut().zip([s0, s1, s2, s3]) {
            // SAFETY: 4 writable u64s.
            unsafe { W(s).store(w.as_mut_ptr()) }
        }
        for (l, state) in quad.iter_mut().enumerate() {
            *state = [words[0][l], words[1][l], words[2][l], words[3][l]];
        }
    }
}

/// The AVX2 kernel table (install only after runtime detection). The
/// two inner products keep the scalar `u128` bodies: AVX2 has no
/// 64×64→128 multiply.
pub static KERNELS: Kernels = Kernels {
    name: "avx2",
    dispatch_event: "simd_dispatch=avx2",
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
    dot_steps: crate::lazy::dot_steps,
    key_switch_row: crate::lazy::key_switch_row,
    expand_row,
};

/// Per-op tuned table: AVX2 where the vector path wins, scalar where
/// the measured baseline (`BENCH_heops.json`) shows it behind. Plain
/// Barrett with the native 64-bit `mul` beats the vpmuludq schoolbook
/// on `pointwise_mul` and the key-switch digit lift (~0.7× under
/// AVX2), so those two entries keep the scalar kernels. Selected by
/// `auto` dispatch on CPUs without AVX-512 IFMA, and the table the IFMA
/// entries fall through to above their prime bound; `SPOT_SIMD=avx2`
/// still forces the uniform vector table for A/B measurement.
pub static TUNED: Kernels = Kernels {
    name: "avx2+scalar",
    dispatch_event: "simd_dispatch=avx2+scalar",
    ntt_forward,
    ntt_inverse,
    pointwise_mul: super::scalar::pointwise_mul,
    pointwise_add,
    pointwise_sub,
    mul_scalar,
    reduce: super::scalar::reduce,
    add_scalar,
    sub_mul_scalar,
    mul_add_scalar,
    dot_steps: crate::lazy::dot_steps,
    key_switch_row: crate::lazy::key_switch_row,
    expand_row,
};
