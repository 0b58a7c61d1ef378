//! NEON backend: 2×64-bit lanes (aarch64).
//!
//! NEON has native unsigned 64-bit compare/select but, like AVX2, no
//! 64×64→128 vector multiply; `mul_lo`/`mul_hi` are composed from
//! `vmull_u32` 32×32→64 partial products on the narrowed halves.
//!
//! The kernel bodies live in [`super::vec`]; this module only
//! implements the lane primitives and the `#[target_feature(enable =
//! "neon")]` entry points. Safety obligations are the same as the AVX2
//! backend's: NEON presence is proven by runtime detection before this
//! table can be installed, and `load`/`store` pointer validity comes
//! from the `chunks_exact` iteration in the generic kernels.
//!
//! Note: x86 CI runners never compile this module (`cfg(target_arch =
//! "aarch64")`), so keep the intrinsic surface minimal and mirrored on
//! `avx2.rs` when changing it.

use super::vec::{self, V64Wide, V64};
use super::Kernels;
use crate::modulus::Modulus;
use std::arch::aarch64::*;

/// Two u64 lanes in one NEON register.
#[derive(Copy, Clone)]
struct W(uint64x2_t);

impl V64 for W {
    const LANES: usize = 2;

    #[inline(always)]
    unsafe fn load(ptr: *const u64) -> Self {
        // SAFETY: caller guarantees 2 readable u64s; NEON checked at
        // dispatch time.
        W(unsafe { vld1q_u64(ptr) })
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut u64) {
        // SAFETY: caller guarantees 2 writable u64s; NEON checked at
        // dispatch time.
        unsafe { vst1q_u64(ptr, self.0) }
    }

    #[inline(always)]
    fn splat(x: u64) -> Self {
        // SAFETY: NEON checked at dispatch time.
        W(unsafe { vdupq_n_u64(x) })
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: NEON checked at dispatch time.
        W(unsafe { vaddq_u64(self.0, o.0) })
    }

    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: NEON checked at dispatch time.
        W(unsafe { vsubq_u64(self.0, o.0) })
    }

    #[inline(always)]
    fn cond_sub(self, m: Self) -> Self {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            // t = self - m underflows exactly when self < m (trait
            // contract: m < 2^63, self < m + 2^63), so the sign bit of
            // t selects the lanes that need m added back.
            let t = vsubq_u64(self.0, m.0);
            let under = vreinterpretq_u64_s64(vshrq_n_s64::<63>(vreinterpretq_s64_u64(t)));
            W(vaddq_u64(t, vandq_u64(under, m.0)))
        }
    }

    #[inline(always)]
    fn mul_shoup_lazy(self, w: Self, ws: Self, p: Self) -> Self {
        vec::mul_shoup_lazy_wide(self, w, ws, p)
    }

    #[inline(always)]
    fn deinterleave_pairs(self, o: Self) -> (Self, Self) {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            // [a0 a1], [b0 b1] -> evens [a0 b0], odds [a1 b1].
            (
                W(vcombine_u64(vget_low_u64(self.0), vget_low_u64(o.0))),
                W(vcombine_u64(vget_high_u64(self.0), vget_high_u64(o.0))),
            )
        }
    }

    #[inline(always)]
    fn interleave_pairs(self, o: Self) -> (Self, Self) {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            // evens [e0 e1], odds [o0 o1] -> [e0 o0], [e1 o1].
            (
                W(vcombine_u64(vget_low_u64(self.0), vget_low_u64(o.0))),
                W(vcombine_u64(vget_high_u64(self.0), vget_high_u64(o.0))),
            )
        }
    }
}

impl V64Wide for W {
    #[inline(always)]
    fn mul_lo(self, o: Self) -> Self {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            let a_lo = vmovn_u64(self.0);
            let a_hi = vshrn_n_u64::<32>(self.0);
            let b_lo = vmovn_u64(o.0);
            let b_hi = vshrn_n_u64::<32>(o.0);
            let ll = vmull_u32(a_lo, b_lo);
            // Lane wrap in the cross sum only affects bits >= 64 of the
            // true product; the low 32 bits we shift up are exact.
            let cross = vmlal_u32(vmull_u32(a_lo, b_hi), a_hi, b_lo);
            W(vaddq_u64(ll, vshlq_n_u64::<32>(cross)))
        }
    }

    #[inline(always)]
    fn mul_hi(self, o: Self) -> Self {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            let a_lo = vmovn_u64(self.0);
            let a_hi = vshrn_n_u64::<32>(self.0);
            let b_lo = vmovn_u64(o.0);
            let b_hi = vshrn_n_u64::<32>(o.0);
            let ll = vmull_u32(a_lo, b_lo);
            let lh = vmull_u32(a_lo, b_hi);
            let hl = vmull_u32(a_hi, b_lo);
            let hh = vmull_u32(a_hi, b_hi);
            let m32 = vdupq_n_u64(0xFFFF_FFFF);
            // mid ≤ 3·(2^32 − 1) — no lane overflow.
            let mid = vaddq_u64(
                vaddq_u64(vshrq_n_u64::<32>(ll), vandq_u64(lh, m32)),
                vandq_u64(hl, m32),
            );
            W(vaddq_u64(
                vaddq_u64(hh, vshrq_n_u64::<32>(lh)),
                vaddq_u64(vshrq_n_u64::<32>(hl), vshrq_n_u64::<32>(mid)),
            ))
        }
    }

    #[inline(always)]
    fn mul_wide(self, o: Self) -> (Self, Self) {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            // Shares the four 32×32 partial products between both halves.
            let a_lo = vmovn_u64(self.0);
            let a_hi = vshrn_n_u64::<32>(self.0);
            let b_lo = vmovn_u64(o.0);
            let b_hi = vshrn_n_u64::<32>(o.0);
            let ll = vmull_u32(a_lo, b_lo);
            let lh = vmull_u32(a_lo, b_hi);
            let hl = vmull_u32(a_hi, b_lo);
            let hh = vmull_u32(a_hi, b_hi);
            let m32 = vdupq_n_u64(0xFFFF_FFFF);
            let mid = vaddq_u64(
                vaddq_u64(vshrq_n_u64::<32>(ll), vandq_u64(lh, m32)),
                vandq_u64(hl, m32),
            );
            let hi = vaddq_u64(
                vaddq_u64(hh, vshrq_n_u64::<32>(lh)),
                vaddq_u64(vshrq_n_u64::<32>(hl), vshrq_n_u64::<32>(mid)),
            );
            let cross = vaddq_u64(lh, hl);
            let lo = vaddq_u64(ll, vshlq_n_u64::<32>(cross));
            (W(hi), W(lo))
        }
    }

    #[inline(always)]
    fn add_nonzero_bit(self, o: Self) -> Self {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            let zero_mask = vceqzq_u64(o.0);
            let bit = vbicq_u64(vdupq_n_u64(1), zero_mask);
            W(vaddq_u64(self.0, bit))
        }
    }

    #[inline(always)]
    fn add_with_carry(self, o: Self) -> (Self, Self) {
        // SAFETY: NEON checked at dispatch time.
        unsafe {
            let sum = vaddq_u64(self.0, o.0);
            // Unsigned overflow iff sum < either addend.
            let carry = vshrq_n_u64::<63>(vcltq_u64(sum, self.0));
            (W(sum), W(carry))
        }
    }
}

macro_rules! neon_kernel {
    ($wrapper:ident, $impl_fn:ident, $generic:ident, ($($arg:ident : $ty:ty),*)) => {
        #[target_feature(enable = "neon")]
        unsafe fn $impl_fn($($arg: $ty),*) {
            vec::$generic::<W>($($arg),*)
        }
        fn $wrapper($($arg: $ty),*) {
            // SAFETY: this kernel table is only installed after
            // `is_aarch64_feature_detected!("neon")` returned true.
            unsafe { $impl_fn($($arg),*) }
        }
    };
}

neon_kernel!(
    ntt_forward,
    ntt_forward_impl,
    ntt_forward_v,
    (m: &Modulus, roots: &[u64], roots_shoup: &[u64], a: &mut [u64])
);
neon_kernel!(
    ntt_inverse,
    ntt_inverse_impl,
    ntt_inverse_v,
    (m: &Modulus, roots: &[u64], roots_shoup: &[u64], inv_degree: u64,
     inv_degree_shoup: u64, a: &mut [u64])
);
neon_kernel!(
    pointwise_mul,
    pointwise_mul_impl,
    pointwise_mul_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
neon_kernel!(
    pointwise_add,
    pointwise_add_impl,
    pointwise_add_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
neon_kernel!(
    pointwise_sub,
    pointwise_sub_impl,
    pointwise_sub_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
neon_kernel!(
    mul_scalar,
    mul_scalar_impl,
    mul_scalar_v,
    (m: &Modulus, dst: &mut [u64], scalar_val: u64, shoup: u64)
);
neon_kernel!(
    reduce,
    reduce_impl,
    reduce_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64])
);
neon_kernel!(
    add_scalar,
    add_scalar_impl,
    add_scalar_v,
    (m: &Modulus, row: &mut [u64], c: u64)
);
neon_kernel!(
    sub_mul_scalar,
    sub_mul_scalar_impl,
    sub_mul_scalar_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64)
);
neon_kernel!(
    mul_add_scalar,
    mul_add_scalar_impl,
    mul_add_scalar_v,
    (m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64)
);

/// The NEON kernel table (install only after runtime detection).
pub static KERNELS: Kernels = Kernels {
    name: "neon",
    dispatch_event: "simd_dispatch=neon",
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
    expand_row: crate::prg::expand_row,
};
