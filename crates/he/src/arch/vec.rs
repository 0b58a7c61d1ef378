//! ISA-generic vector kernels.
//!
//! The hot loops are written **once** here, generically over the
//! minimal [`V64`] lane trait (a handful of 64-bit lane primitives, and
//! [`V64Wide`]'s 64×64 products for the two kernels that need them);
//! `avx2.rs` / `neon.rs` / `avx512ifma.rs` only implement those
//! primitives and wrap the generic kernels in `#[target_feature]` entry
//! points. Everything is
//! `#[inline(always)]` so that each instantiation is compiled inside
//! its backend's `#[target_feature]` wrapper and picks up the wider
//! instruction set.
//!
//! ## Arithmetic strategy
//!
//! * **NTT butterflies** use the same lazy Shoup form as the scalar
//!   path (values in `[0, 4p)` forward / `[0, 2p)` inverse); the Shoup
//!   multiply ([`V64::mul_shoup_lazy`]) vectorizes as one 64×64 high
//!   product and two low products ([`mul_shoup_lazy_wide`]), or as
//!   three 52-bit multiply-adds on the IFMA backend. Stages whose group
//!   half-length `t` is below the lane width shuffle `LANES / t` groups
//!   into one x and one y register; only a row shorter than two
//!   registers takes the scalar butterfly helpers — same math, same
//!   lazy windows.
//! * **Pointwise products** have no precomputed per-element Shoup
//!   constant, so the scalar path's 128-bit Barrett would need four
//!   high products per element. Instead the vector path lifts one
//!   operand into Montgomery form with a single Shoup multiply by
//!   `2^64 mod p` (a per-modulus constant) and reduces the wide product
//!   with one Montgomery REDC. The result is the canonical `[0, p)`
//!   residue, hence bit-identical to scalar Barrett.
//! * **Digit reduction** (`x mod p` for full-range `x`) vectorizes the
//!   scalar Barrett quotient exactly (same `q`, same conditional
//!   subtraction), so even the pre-reduction values match.
//!
//! Bounds used below (all enforced by `Modulus::new`): `p < 2^62`, so
//! `4p < 2^64` and every `u + 2p - v` stays inside u64. The IFMA
//! backend's entries add `p < 2^50`, so that `4p < 2^52`.

use super::scalar;
use crate::modulus::Modulus;

/// Minimal 64-bit-lane SIMD vector interface.
///
/// Implementations must be lane-wise and wrapping (mod 2^64) where the
/// scalar counterpart wraps. `load`/`store` contracts: the pointer must
/// be valid for `LANES` u64 reads/writes (no alignment requirement).
pub(crate) trait V64: Copy {
    /// Lane count (a power of two).
    const LANES: usize;
    /// Loads `LANES` consecutive u64 values.
    ///
    /// # Safety
    /// `ptr` must be valid for reading `LANES` u64s.
    unsafe fn load(ptr: *const u64) -> Self;
    /// Stores `LANES` consecutive u64 values.
    ///
    /// # Safety
    /// `ptr` must be valid for writing `LANES` u64s.
    unsafe fn store(self, ptr: *mut u64);
    /// Broadcasts one value to every lane.
    fn splat(x: u64) -> Self;
    /// Lane-wise wrapping addition.
    fn add(self, o: Self) -> Self;
    /// Lane-wise wrapping subtraction.
    fn sub(self, o: Self) -> Self;
    /// Lane-wise `if self >= m { self - m } else { self }`.
    ///
    /// Contract (narrower than full unsigned compare, which lets
    /// backends use a signed sign-bit test): requires `m < 2^63` and
    /// `self < m + 2^63`. Every call site here satisfies this because
    /// `p < 2^62`, so even the widest intermediate (`[0, 4p)` against
    /// `2p`) fits.
    fn cond_sub(self, m: Self) -> Self;
    /// Lazy Shoup multiply `self · w mod p`, result in `[0, 2p)`, with
    /// `ws = ⌊w·2^64/p⌋` (mirrors `Modulus::mul_shoup_lazy`; `w < p`).
    /// Backends with 64×64 lane products run [`mul_shoup_lazy_wide`],
    /// valid for any 64-bit `self`; a narrower multiplier must fit the
    /// values the kernels here pass, which are all below `4p`.
    fn mul_shoup_lazy(self, w: Self, ws: Self, p: Self) -> Self;
    /// Splits two registers holding `2*LANES` consecutive values
    /// `(x0, y0, x1, y1, …)` into `(evens, odds)`: `(x0, x1, …)` and
    /// `(y0, y1, …)`. Used by the `t = 1` NTT tail stage.
    fn deinterleave_pairs(self, o: Self) -> (Self, Self);
    /// Inverse of [`V64::deinterleave_pairs`]: merges `(x0, x1, …)` and
    /// `(y0, y1, …)` back into `(x0, y0, x1, y1)` / `(x2, y2, x3, y3)`.
    fn interleave_pairs(self, o: Self) -> (Self, Self);
    /// Splits two registers holding `2*LANES` consecutive values
    /// `(x0, x1, y0, y1, x2, x3, y2, y3, …)` at 128-bit granularity into
    /// `(x0, x1, x2, x3, …)` and `(y0, y1, y2, y3, …)`. Used by the
    /// `t = 2` NTT tail stage, which only runs when `LANES >= 4`; 2-lane
    /// backends never call it and keep this default.
    fn deinterleave_quads(self, o: Self) -> (Self, Self) {
        let _ = o;
        unreachable!("quad shuffles are only used by backends of 4 or more lanes")
    }
    /// Inverse of [`V64::deinterleave_quads`].
    fn interleave_quads(self, o: Self) -> (Self, Self) {
        let _ = o;
        unreachable!("quad shuffles are only used by backends of 4 or more lanes")
    }
    /// Splits two registers holding `(x0 … x3, y0 … y3, x4 … x7,
    /// y4 … y7)` at 256-bit granularity into `(x0 … x7)` and
    /// `(y0 … y7)`. Used by the `t = 4` NTT tail stage, which only runs
    /// when `LANES == 8`.
    fn deinterleave_octs(self, o: Self) -> (Self, Self) {
        let _ = o;
        unreachable!("oct shuffles are only used by 8-lane backends")
    }
    /// Inverse of [`V64::deinterleave_octs`].
    fn interleave_octs(self, o: Self) -> (Self, Self) {
        let _ = o;
        unreachable!("oct shuffles are only used by 8-lane backends")
    }
    /// Loads `LANES / T` consecutive values, each repeated across `T`
    /// adjacent lanes: the twiddles of a tail stage whose groups are
    /// `T` lanes wide.
    ///
    /// # Safety
    /// `ptr` must be valid for reading `LANES / T` u64s.
    #[inline(always)]
    unsafe fn load_dup<const T: usize>(ptr: *const u64) -> Self {
        if T == 1 {
            // SAFETY: LANES / 1 readable u64s, as the caller vouches.
            return unsafe { Self::load(ptr) };
        }
        let mut lanes = [0u64; 8];
        for (l, lane) in lanes[..Self::LANES].iter_mut().enumerate() {
            // SAFETY: l / T < LANES / T, which the caller vouches for.
            *lane = unsafe { *ptr.add(l / T) };
        }
        // SAFETY: `lanes` holds 8 >= LANES u64s.
        unsafe { Self::load(lanes.as_ptr()) }
    }
}

/// 64×64-bit lane products, composed from 32×32 partial products on
/// every backend that has them: what the Montgomery pointwise product
/// and the Barrett digit lift need beyond [`V64`]. The IFMA backend
/// multiplies on its 52-bit unit instead and does not implement them.
pub(crate) trait V64Wide: V64 {
    /// Lane-wise low 64 bits of the 128-bit product.
    fn mul_lo(self, o: Self) -> Self;
    /// Lane-wise high 64 bits of the 128-bit product.
    fn mul_hi(self, o: Self) -> Self;
    /// Lane-wise full product as `(high, low)`. Backends may override
    /// to share the 32-bit partial products of both halves.
    #[inline(always)]
    fn mul_wide(self, o: Self) -> (Self, Self) {
        (self.mul_hi(o), self.mul_lo(o))
    }
    /// Lane-wise `self + (o != 0 ? 1 : 0)` (the REDC low-half carry).
    fn add_nonzero_bit(self, o: Self) -> Self;
    /// Lane-wise `(self + o mod 2^64, carry ∈ {0, 1})`.
    fn add_with_carry(self, o: Self) -> (Self, Self);
}

/// [`V64::mul_shoup_lazy`] on 64×64 lane products: one high product
/// and two low ones, valid for any 64-bit `x` as long as `w < p`.
#[inline(always)]
pub(crate) fn mul_shoup_lazy_wide<T: V64Wide>(x: T, w: T, ws: T, p: T) -> T {
    let q = x.mul_hi(ws);
    x.mul_lo(w).sub(q.mul_lo(p))
}

/// Montgomery product step shared by the pointwise kernels:
/// `a * b mod p` as the canonical `[0, p)` residue, for `a` arbitrary
/// and `b < p`. Lifts `a` by `2^64 mod p` (Shoup), REDCs the wide
/// product back down, and fully reduces.
#[inline(always)]
fn mont_mul_v<T: V64Wide>(a: T, b: T, p: T, rp: T, rps: T, neg_inv: T) -> T {
    let am = mul_shoup_lazy_wide(a, rp, rps, p); // [0, 2p), ≡ a·2^64 (mod p)
    let (hi, lo) = am.mul_wide(b); // am·b < 2p² < p·2^64
    let m = lo.mul_lo(neg_inv);
    // t = (am·b + m·p) / 2^64: the low halves cancel exactly, carrying
    // 1 into the high half iff the low half was non-zero.
    let t = hi.add(m.mul_hi(p)).add_nonzero_bit(lo); // [0, 2p)
    t.cond_sub(p)
}

/// A stage whose group half-length `t` is below the lane width (1, 2
/// or 4): [`tail_stage_t`] with `t` as a constant.
#[inline(always)]
fn tail_stage<T: V64, const FWD: bool>(
    t: usize,
    stage_roots: &[u64],
    stage_shoup: &[u64],
    a: &mut [u64],
    p_v: T,
    two_p_v: T,
) {
    match t {
        1 => tail_stage_t::<T, FWD, 1>(stage_roots, stage_shoup, a, p_v, two_p_v),
        2 => tail_stage_t::<T, FWD, 2>(stage_roots, stage_shoup, a, p_v, two_p_v),
        _ => tail_stage_t::<T, FWD, 4>(stage_roots, stage_shoup, a, p_v, two_p_v),
    }
}

/// Vectorized stage for a group half-length `TT < LANES`: each block of
/// `2·LANES` elements holds `LANES / TT` groups `(x_0 … x_{TT−1},
/// y_0 … y_{TT−1})`, which the backend's pair / quad / oct shuffles
/// split into one x and one y register, and each group's twiddle fills
/// its `TT` lanes ([`V64::load_dup`]; at `TT = 1` the twiddles are
/// contiguous in the stage slice and load directly). `FWD` selects the
/// butterfly direction. Requires `a.len() >= 2 * LANES`.
#[inline(always)]
fn tail_stage_t<T: V64, const FWD: bool, const TT: usize>(
    stage_roots: &[u64],
    stage_shoup: &[u64],
    a: &mut [u64],
    p_v: T,
    two_p_v: T,
) {
    let n = a.len();
    debug_assert!(TT < T::LANES && n >= 2 * T::LANES);
    debug_assert_eq!(stage_roots.len(), n / (2 * TT));
    let mut g = 0; // group index; group g owns elements 2·TT·g .. 2·TT·(g + 1)
    while 2 * TT * g < n {
        // SAFETY: g is a multiple of LANES/TT, so the block starts at a
        // multiple of 2·LANES, and n is one too (both are powers of two
        // and n >= 2·LANES): the block's 2·LANES elements are in bounds,
        // and so are the twiddles g .. g + LANES/TT <= n/(2·TT), the
        // stage slice length.
        unsafe {
            let base = a.as_mut_ptr().add(2 * TT * g);
            let v0 = T::load(base);
            let v1 = T::load(base.add(T::LANES));
            let (x, y) = match TT {
                1 => v0.deinterleave_pairs(v1),
                2 => v0.deinterleave_quads(v1),
                _ => v0.deinterleave_octs(v1),
            };
            let w_v = T::load_dup::<TT>(stage_roots.as_ptr().add(g));
            let ws_v = T::load_dup::<TT>(stage_shoup.as_ptr().add(g));
            let (rx, ry) = if FWD {
                let u = x.cond_sub(two_p_v); // [0, 2p)
                let v = y.mul_shoup_lazy(w_v, ws_v, p_v);
                (u.add(v), u.add(two_p_v).sub(v)) // [0, 4p)
            } else {
                // x, y in [0, 2p).
                (
                    x.add(y).cond_sub(two_p_v),
                    x.add(two_p_v).sub(y).mul_shoup_lazy(w_v, ws_v, p_v),
                )
            };
            let (r0, r1) = match TT {
                1 => rx.interleave_pairs(ry),
                2 => rx.interleave_quads(ry),
                _ => rx.interleave_octs(ry),
            };
            r0.store(base);
            r1.store(base.add(T::LANES));
        }
        g += T::LANES / TT;
    }
}

#[inline(always)]
pub(crate) fn ntt_forward_v<T: V64>(
    m: &Modulus,
    roots: &[u64],
    roots_shoup: &[u64],
    a: &mut [u64],
) {
    let p = m.value();
    let two_p = 2 * p;
    let p_v = T::splat(p);
    let two_p_v = T::splat(two_p);
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    let mut t = n;
    let mut size = 1usize;
    while size < n {
        t >>= 1;
        let stage_roots = &roots[size..2 * size];
        let stage_shoup = &roots_shoup[size..2 * size];
        if t >= T::LANES {
            for i in 0..size {
                let w_v = T::splat(stage_roots[i]);
                let ws_v = T::splat(stage_shoup[i]);
                let (lo, hi) = a[2 * i * t..2 * i * t + 2 * t].split_at_mut(t);
                // t and LANES are powers of two, so the chunks are exact.
                for (xc, yc) in lo
                    .chunks_exact_mut(T::LANES)
                    .zip(hi.chunks_exact_mut(T::LANES))
                {
                    // SAFETY: chunks_exact guarantees both chunks hold
                    // exactly LANES u64s.
                    unsafe {
                        let u = T::load(xc.as_ptr()).cond_sub(two_p_v); // [0, 2p)
                        let v = T::load(yc.as_ptr()).mul_shoup_lazy(w_v, ws_v, p_v);
                        u.add(v).store(xc.as_mut_ptr()); // [0, 4p)
                        u.add(two_p_v).sub(v).store(yc.as_mut_ptr()); // (0, 4p)
                    }
                }
            }
        } else if n >= 2 * T::LANES {
            tail_stage::<T, true>(t, stage_roots, stage_shoup, a, p_v, two_p_v);
        } else {
            for i in 0..size {
                let w = stage_roots[i];
                let ws = stage_shoup[i];
                let (lo, hi) = a[2 * i * t..2 * i * t + 2 * t].split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    scalar::fwd_butterfly(m, x, y, w, ws, two_p);
                }
            }
        }
        size <<= 1;
    }
    // Single full-reduction pass: [0, 4p) -> [0, p).
    let split = n - n % T::LANES;
    let (main, rest) = a.split_at_mut(split);
    for chunk in main.chunks_exact_mut(T::LANES) {
        // SAFETY: chunks_exact guarantees LANES u64s.
        unsafe {
            T::load(chunk.as_ptr())
                .cond_sub(two_p_v)
                .cond_sub(p_v)
                .store(chunk.as_mut_ptr());
        }
    }
    for x in rest.iter_mut() {
        *x = scalar::reduce_4p(p, two_p, *x);
    }
}

/// One vector-width inverse butterfly at `xp`/`yp`.
///
/// # Safety
/// Both pointers must be valid for `T::LANES` u64 reads and writes.
#[inline(always)]
unsafe fn inv_butterfly_chunk<T: V64>(
    xp: *mut u64,
    yp: *mut u64,
    w_v: T,
    ws_v: T,
    p_v: T,
    two_p_v: T,
) {
    // SAFETY: forwarded to the caller.
    unsafe {
        let u = T::load(xp);
        let v = T::load(yp);
        // u, v in [0, 2p).
        u.add(v).cond_sub(two_p_v).store(xp); // [0, 2p)
        u.add(two_p_v)
            .sub(v)
            .mul_shoup_lazy(w_v, ws_v, p_v)
            .store(yp); // [0, 2p)
    }
}

#[inline(always)]
pub(crate) fn ntt_inverse_v<T: V64>(
    m: &Modulus,
    roots: &[u64],
    roots_shoup: &[u64],
    inv_degree: u64,
    inv_degree_shoup: u64,
    a: &mut [u64],
) {
    let p = m.value();
    let two_p = 2 * p;
    let p_v = T::splat(p);
    let two_p_v = T::splat(two_p);
    let n = a.len();
    debug_assert!(n.is_power_of_two());
    let mut t = 1usize;
    let mut size = n >> 1;
    while size >= 1 {
        let stage_roots = &roots[size..2 * size];
        let stage_shoup = &roots_shoup[size..2 * size];
        if t >= T::LANES {
            for i in 0..size {
                let w_v = T::splat(stage_roots[i]);
                let ws_v = T::splat(stage_shoup[i]);
                let (lo, hi) = a[2 * i * t..2 * i * t + 2 * t].split_at_mut(t);
                // Manual 4× unroll: four independent chunk chains per
                // iteration hide the Shoup multiply's latency (LLVM
                // unrolls the forward stage loop on its own but leaves
                // this one rolled, which measures ~25% slower).
                let xp = lo.as_mut_ptr();
                let yp = hi.as_mut_ptr();
                let chunks = t / T::LANES; // exact: both are powers of two
                let mut c = 0;
                while c + 4 <= chunks {
                    // SAFETY: (c + 3) * LANES + LANES <= t, so every
                    // pointer stays within the t-element halves.
                    unsafe {
                        for j in c..c + 4 {
                            inv_butterfly_chunk(
                                xp.add(j * T::LANES),
                                yp.add(j * T::LANES),
                                w_v,
                                ws_v,
                                p_v,
                                two_p_v,
                            );
                        }
                    }
                    c += 4;
                }
                while c < chunks {
                    // SAFETY: c * LANES + LANES <= t.
                    unsafe {
                        inv_butterfly_chunk(
                            xp.add(c * T::LANES),
                            yp.add(c * T::LANES),
                            w_v,
                            ws_v,
                            p_v,
                            two_p_v,
                        );
                    }
                    c += 1;
                }
            }
        } else if n >= 2 * T::LANES {
            tail_stage::<T, false>(t, stage_roots, stage_shoup, a, p_v, two_p_v);
        } else {
            for i in 0..size {
                let w = stage_roots[i];
                let ws = stage_shoup[i];
                let (lo, hi) = a[2 * i * t..2 * i * t + 2 * t].split_at_mut(t);
                for (x, y) in lo.iter_mut().zip(hi.iter_mut()) {
                    scalar::inv_butterfly(m, x, y, w, ws, two_p);
                }
            }
        }
        t <<= 1;
        size >>= 1;
    }
    // N^{-1} scaling doubles as the final full reduction to [0, p).
    let w_v = T::splat(inv_degree);
    let ws_v = T::splat(inv_degree_shoup);
    let split = n - n % T::LANES;
    let (main, rest) = a.split_at_mut(split);
    for chunk in main.chunks_exact_mut(T::LANES) {
        // SAFETY: chunks_exact guarantees LANES u64s.
        unsafe {
            T::load(chunk.as_ptr())
                .mul_shoup_lazy(w_v, ws_v, p_v)
                .cond_sub(p_v)
                .store(chunk.as_mut_ptr());
        }
    }
    for x in rest.iter_mut() {
        *x = m.mul_shoup(*x, inv_degree, inv_degree_shoup);
    }
}

#[inline(always)]
pub(crate) fn pointwise_mul_v<T: V64Wide>(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    let (neg_inv, rp, rps) = m.montgomery();
    if m.value() & 1 == 0 {
        // Montgomery needs an odd modulus; every BFV modulus is an odd
        // prime, but stay total for exotic callers.
        return scalar::pointwise_mul(m, dst, src);
    }
    let p_v = T::splat(m.value());
    let rp_v = T::splat(rp);
    let rps_v = T::splat(rps);
    let neg_inv_v = T::splat(neg_inv);
    let split = dst.len() - dst.len() % T::LANES;
    let (main, rest) = dst.split_at_mut(split);
    for (dc, sc) in main
        .chunks_exact_mut(T::LANES)
        .zip(src.chunks_exact(T::LANES))
    {
        // SAFETY: chunks_exact guarantees both chunks hold LANES u64s.
        unsafe {
            let a = T::load(dc.as_ptr());
            let b = T::load(sc.as_ptr());
            mont_mul_v(a, b, p_v, rp_v, rps_v, neg_inv_v).store(dc.as_mut_ptr());
        }
    }
    scalar::pointwise_mul(m, rest, &src[split..]);
}

#[inline(always)]
pub(crate) fn pointwise_add_v<T: V64>(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    let p_v = T::splat(m.value());
    let split = dst.len() - dst.len() % T::LANES;
    let (main, rest) = dst.split_at_mut(split);
    for (dc, sc) in main
        .chunks_exact_mut(T::LANES)
        .zip(src.chunks_exact(T::LANES))
    {
        // SAFETY: chunks_exact guarantees both chunks hold LANES u64s.
        unsafe {
            T::load(dc.as_ptr())
                .add(T::load(sc.as_ptr()))
                .cond_sub(p_v)
                .store(dc.as_mut_ptr());
        }
    }
    scalar::pointwise_add(m, rest, &src[split..]);
}

#[inline(always)]
pub(crate) fn pointwise_sub_v<T: V64>(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    let p_v = T::splat(m.value());
    let split = dst.len() - dst.len() % T::LANES;
    let (main, rest) = dst.split_at_mut(split);
    for (dc, sc) in main
        .chunks_exact_mut(T::LANES)
        .zip(src.chunks_exact(T::LANES))
    {
        // SAFETY: chunks_exact guarantees both chunks hold LANES u64s.
        unsafe {
            // d + p - s ∈ (0, 2p) for reduced inputs; one cond-sub
            // lands on the canonical residue.
            T::load(dc.as_ptr())
                .add(p_v)
                .sub(T::load(sc.as_ptr()))
                .cond_sub(p_v)
                .store(dc.as_mut_ptr());
        }
    }
    scalar::pointwise_sub(m, rest, &src[split..]);
}

#[inline(always)]
pub(crate) fn mul_scalar_v<T: V64>(m: &Modulus, dst: &mut [u64], scalar_val: u64, shoup: u64) {
    let p_v = T::splat(m.value());
    let w_v = T::splat(scalar_val);
    let ws_v = T::splat(shoup);
    let split = dst.len() - dst.len() % T::LANES;
    let (main, rest) = dst.split_at_mut(split);
    for dc in main.chunks_exact_mut(T::LANES) {
        // SAFETY: chunks_exact guarantees LANES u64s.
        unsafe {
            T::load(dc.as_ptr())
                .mul_shoup_lazy(w_v, ws_v, p_v)
                .cond_sub(p_v)
                .store(dc.as_mut_ptr());
        }
    }
    scalar::mul_scalar(m, rest, scalar_val, shoup);
}

#[inline(always)]
pub(crate) fn reduce_v<T: V64Wide>(m: &Modulus, dst: &mut [u64], src: &[u64]) {
    let (bhi, blo) = m.barrett();
    let p_v = T::splat(m.value());
    let bhi_v = T::splat(bhi);
    let blo_v = T::splat(blo);
    let split = dst.len() - dst.len() % T::LANES;
    let (main, rest) = dst.split_at_mut(split);
    for (dc, sc) in main
        .chunks_exact_mut(T::LANES)
        .zip(src.chunks_exact(T::LANES))
    {
        // SAFETY: chunks_exact guarantees both chunks hold LANES u64s.
        unsafe {
            let x = T::load(sc.as_ptr());
            // Exactly the scalar Barrett quotient for a 64-bit input
            // (x_hi = 0): q = hi64(x·b_hi) + carry(hi64(x·b_lo) + lo64(x·b_hi)).
            let ll_hi = x.mul_hi(blo_v);
            let lh_lo = x.mul_lo(bhi_v);
            let lh_hi = x.mul_hi(bhi_v);
            let (_, carry) = ll_hi.add_with_carry(lh_lo);
            let q = lh_hi.add(carry);
            x.sub(q.mul_lo(p_v)).cond_sub(p_v).store(dc.as_mut_ptr());
        }
    }
    scalar::reduce(m, rest, &src[split..]);
}

#[inline(always)]
pub(crate) fn add_scalar_v<T: V64>(m: &Modulus, row: &mut [u64], c: u64) {
    let p_v = T::splat(m.value());
    let two_p_v = T::splat(2 * m.value());
    let c_v = T::splat(c);
    let split = row.len() - row.len() % T::LANES;
    let (main, rest) = row.split_at_mut(split);
    for chunk in main.chunks_exact_mut(T::LANES) {
        // SAFETY: chunks_exact guarantees LANES u64s.
        unsafe {
            // [0, 4p) -> [0, p), then + c < 2p -> [0, p).
            T::load(chunk.as_ptr())
                .cond_sub(two_p_v)
                .cond_sub(p_v)
                .add(c_v)
                .cond_sub(p_v)
                .store(chunk.as_mut_ptr());
        }
    }
    scalar::add_scalar(m, rest, c);
}

#[inline(always)]
pub(crate) fn sub_mul_scalar_v<T: V64>(m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64) {
    let p_v = T::splat(m.value());
    let two_p_v = T::splat(2 * m.value());
    let w_v = T::splat(w);
    let ws_v = T::splat(ws);
    let split = dst.len() - dst.len() % T::LANES;
    let (main, rest) = dst.split_at_mut(split);
    for (dc, sc) in main
        .chunks_exact_mut(T::LANES)
        .zip(src.chunks_exact(T::LANES))
    {
        // SAFETY: chunks_exact guarantees both chunks hold LANES u64s.
        unsafe {
            // s -> [0, p); d + p - s ∈ (0, 2p), inside every backend's
            // lazy Shoup window.
            let s = T::load(sc.as_ptr()).cond_sub(two_p_v).cond_sub(p_v);
            T::load(dc.as_ptr())
                .add(p_v)
                .sub(s)
                .mul_shoup_lazy(w_v, ws_v, p_v)
                .cond_sub(p_v)
                .store(dc.as_mut_ptr());
        }
    }
    scalar::sub_mul_scalar(m, rest, &src[split..], w, ws);
}

#[inline(always)]
pub(crate) fn mul_add_scalar_v<T: V64>(m: &Modulus, dst: &mut [u64], src: &[u64], w: u64, ws: u64) {
    let p_v = T::splat(m.value());
    let two_p_v = T::splat(2 * m.value());
    let w_v = T::splat(w);
    let ws_v = T::splat(ws);
    let split = dst.len() - dst.len() % T::LANES;
    let (main, rest) = dst.split_at_mut(split);
    for (dc, sc) in main
        .chunks_exact_mut(T::LANES)
        .zip(src.chunks_exact(T::LANES))
    {
        // SAFETY: chunks_exact guarantees both chunks hold LANES u64s.
        unsafe {
            // s -> [0, p), s·w -> [0, p); d + s·w < 2p -> [0, p).
            let sw = T::load(sc.as_ptr())
                .cond_sub(two_p_v)
                .cond_sub(p_v)
                .mul_shoup_lazy(w_v, ws_v, p_v)
                .cond_sub(p_v);
            T::load(dc.as_ptr())
                .add(sw)
                .cond_sub(p_v)
                .store(dc.as_mut_ptr());
        }
    }
    scalar::mul_add_scalar(m, rest, &src[split..], w, ws);
}
