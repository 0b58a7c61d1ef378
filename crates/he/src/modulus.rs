//! 64-bit prime modulus arithmetic with Barrett reduction.
//!
//! Every coefficient and plaintext modulus in the BFV scheme is a prime
//! below 2^62. [`Modulus`] precomputes a Barrett constant so that modular
//! multiplication costs one `u128` widening multiply plus a correction,
//! and exposes the handful of modular helpers the rest of the crate needs
//! (exponentiation, inversion, primitive roots).

/// A prime modulus below 2^62 with precomputed Barrett reduction constants.
///
/// # Examples
///
/// ```
/// use spot_he::modulus::Modulus;
/// let m = Modulus::new(65537);
/// assert_eq!(m.mul(65536, 65536), 1); // (-1)^2 = 1 mod 65537
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// floor(2^128 / value), stored as (high, low) 64-bit limbs.
    barrett_hi: u64,
    barrett_lo: u64,
    /// `-value^{-1} mod 2^64` (value is an odd prime), for Montgomery REDC.
    mont_neg_inv: u64,
    /// `2^64 mod value`, with its Shoup constant: multiplying by this
    /// lifts an operand into Montgomery form in one Shoup multiply.
    mont_r: u64,
    mont_r_shoup: u64,
}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Panics
    ///
    /// Panics if `value` is 0, 1, or >= 2^62.
    pub fn new(value: u64) -> Self {
        assert!(value > 1, "modulus must be > 1");
        assert!(value < (1u64 << 62), "modulus must be < 2^62");
        // Compute floor(2^128 / value) via 128-bit long division in two steps.
        let hi = (u128::MAX / value as u128) as u64;
        // remainder of 2^128 - 1 division trick: compute precisely.
        // 2^128 / v = floor(((2^128 - 1) - (v - 1)) / v) + adjustment; easier:
        // q = (2^128 - 1) / v; r = (2^128 - 1) % v; if r == v - 1 { q + 1 } else { q }
        let q = u128::MAX / value as u128;
        let r = u128::MAX % value as u128;
        let q = if r == value as u128 - 1 { q + 1 } else { q };
        let _ = hi;
        // Montgomery constants. Newton iteration doubles the number of
        // correct low bits per step: value*x ≡ 1 (mod 2) for odd value,
        // so six steps reach 2^64.
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(value.wrapping_mul(inv)));
        }
        let mont_r = ((1u128 << 64) % value as u128) as u64;
        let mut out = Self {
            value,
            barrett_hi: (q >> 64) as u64,
            barrett_lo: q as u64,
            mont_neg_inv: inv.wrapping_neg(),
            mont_r,
            mont_r_shoup: 0,
        };
        out.mont_r_shoup = out.shoup(mont_r);
        out
    }

    /// The modulus value.
    #[inline(always)]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The Barrett constant `floor(2^128 / value)` as (high, low) limbs.
    #[inline(always)]
    #[cfg(target_arch = "aarch64")]
    pub(crate) fn barrett(&self) -> (u64, u64) {
        (self.barrett_hi, self.barrett_lo)
    }

    /// Montgomery constants `(-value^{-1} mod 2^64, 2^64 mod value,
    /// shoup(2^64 mod value))`. Only meaningful for odd moduli.
    #[inline(always)]
    #[cfg(target_arch = "aarch64")]
    pub(crate) fn montgomery(&self) -> (u64, u64, u64) {
        (self.mont_neg_inv, self.mont_r, self.mont_r_shoup)
    }

    /// Reduces a 64-bit value (already < 2^62 * anything) modulo the modulus.
    #[inline(always)]
    pub fn reduce(&self, x: u64) -> u64 {
        self.reduce_u128(x as u128)
    }

    /// Reduces a 128-bit value modulo the modulus using Barrett reduction.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // Barrett: q = floor(x * floor(2^128/m) / 2^128), r = x - q*m, then
        // one conditional subtraction.
        let xlo = x as u64;
        let xhi = (x >> 64) as u64;
        // x * barrett = (xhi*2^64 + xlo) * (bhi*2^64 + blo); we need bits >= 2^128.
        let lo_lo = (xlo as u128) * (self.barrett_lo as u128);
        let lo_hi = (xlo as u128) * (self.barrett_hi as u128);
        let hi_lo = (xhi as u128) * (self.barrett_lo as u128);
        let hi_hi = (xhi as u128) * (self.barrett_hi as u128);
        let mid = (lo_lo >> 64) + (lo_hi & 0xFFFF_FFFF_FFFF_FFFF) + (hi_lo & 0xFFFF_FFFF_FFFF_FFFF);
        let q = hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
        let r = x.wrapping_sub(q.wrapping_mul(self.value as u128)) as u64;
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Modular addition; inputs must already be reduced.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction; inputs must already be reduced.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation; input must already be reduced.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication; inputs must already be reduced.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat's little theorem (modulus must be prime).
    ///
    /// Returns `None` if `a == 0 (mod m)`.
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return None;
        }
        Some(self.pow(a, self.value - 2))
    }

    /// Precomputes a Shoup representation of `operand` for fast repeated
    /// multiplication by a constant: `floor(operand * 2^64 / m)`.
    #[inline]
    pub fn shoup(&self, operand: u64) -> u64 {
        (((operand as u128) << 64) / self.value as u128) as u64
    }

    /// Multiplies `x` by a constant `operand` given its Shoup precomputation.
    ///
    /// Fully reduced: result is in `[0, m)`.
    #[inline(always)]
    pub fn mul_shoup(&self, x: u64, operand: u64, operand_shoup: u64) -> u64 {
        let r = self.mul_shoup_lazy(x, operand, operand_shoup);
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Lazy Shoup multiplication: skips the final conditional subtraction,
    /// returning a value in `[0, 2m)`.
    ///
    /// Valid for *any* 64-bit `x` (not just reduced inputs) as long as
    /// `operand < m`: the quotient estimate `q = floor(x * shoup / 2^64)`
    /// is off by at most one, so `x*operand - q*m` lands in `[0, 2m)`,
    /// which fits in 64 bits because `m < 2^62`. This is the workhorse of
    /// the lazy-reduction NTT butterflies.
    #[inline(always)]
    pub fn mul_shoup_lazy(&self, x: u64, operand: u64, operand_shoup: u64) -> u64 {
        let q = ((x as u128 * operand_shoup as u128) >> 64) as u64;
        x.wrapping_mul(operand)
            .wrapping_sub(q.wrapping_mul(self.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrett_matches_naive() {
        let m = Modulus::new((0x3FFF_FFFF_FFFF_F001 % (1 << 61)) | 1);
        // use a few fixed primes instead
        for &p in &[65537u64, 1032193, 0x1FFF_FFFF_FFE0_0001 | 5] {
            let m = Modulus::new(p | 1);
            for i in 0..1000u64 {
                let a = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let b = i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
                assert_eq!(
                    m.reduce_u128(a as u128 * b as u128),
                    ((a as u128 * b as u128) % m.value() as u128) as u64
                );
            }
        }
        let _ = m;
    }

    #[test]
    fn add_sub_neg() {
        let m = Modulus::new(97);
        assert_eq!(m.add(96, 5), 4);
        assert_eq!(m.sub(3, 5), 95);
        assert_eq!(m.neg(0), 0);
        assert_eq!(m.neg(1), 96);
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(65537);
        assert_eq!(m.pow(3, 65536), 1); // Fermat
        let inv = m.inv(12345).unwrap();
        assert_eq!(m.mul(12345, inv), 1);
        assert_eq!(m.inv(0), None);
    }

    #[test]
    fn shoup_matches_mul() {
        let m = Modulus::new(1032193);
        let c = 777_777 % m.value();
        let cs = m.shoup(c);
        for x in (0..m.value()).step_by(9871) {
            assert_eq!(m.mul_shoup(x, c, cs), m.mul(x, c));
        }
    }

    #[test]
    fn shoup_lazy_congruent_and_bounded_for_unreduced_inputs() {
        let m = Modulus::new(1032193);
        let c = 777_777 % m.value();
        let cs = m.shoup(c);
        // x ranges far beyond [0, m): lazy result must stay in [0, 2m)
        // and agree with the exact product modulo m.
        for i in 0..5000u64 {
            let x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let r = m.mul_shoup_lazy(x, c, cs);
            assert!(r < 2 * m.value(), "lazy result out of [0, 2m): {r}");
            assert_eq!(m.reduce(r), m.reduce_u128(x as u128 * c as u128));
        }
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_modulus() {
        let _ = Modulus::new(1);
    }

    // ---- boundary-operand property tests -------------------------------
    //
    // The SIMD kernels in `crate::arch` assume exactly the contracts
    // proved here: `mul_shoup_lazy` stays in [0, 2p) for *any* 64-bit x,
    // and the lazy butterflies keep their [0, 4p) / [0, 2p) windows even
    // at the extreme operands 0, p-1, 2p-1, 4p-1.

    use crate::arch::scalar::{fwd_butterfly, inv_butterfly};
    use proptest::prelude::*;

    /// Test primes: small, mid, and a 62-bit prime where 4p-1 is within
    /// one bit of u64::MAX (tightest lazy window).
    const PRIMES: [u64; 3] = [1032193, 0x07FF_FFFF_FFFC_A001, 0x3FFF_FFFF_FFFF_F001];

    /// Boundary picks plus a seed-derived filler, clamped below `bound`.
    fn pick(sel: usize, seed: u64, p: u64, bound: u64) -> u64 {
        let edges = [0, 1, p - 1, p, 2 * p - 1, 2 * p, 4 * p - 1, u64::MAX];
        let v = if sel < edges.len() {
            edges[sel]
        } else {
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        v % bound
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn mul_shoup_lazy_bounded_and_congruent_at_boundaries(
            p_sel in 0usize..3,
            x_sel in 0usize..9,
            w_sel in 0usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let p = PRIMES[p_sel];
            let m = Modulus::new(p);
            // Any 64-bit x is legal (no clamp); the operand must be
            // canonical.
            let edges = [0, 1, p - 1, p, 2 * p - 1, 2 * p, 4 * p - 1, u64::MAX];
            let x = if x_sel < 8 { edges[x_sel] } else { seed };
            let w = pick(w_sel, seed.rotate_left(17), p, p);
            let ws = m.shoup(w);
            let r = m.mul_shoup_lazy(x, w, ws);
            prop_assert!(r < 2 * p, "lazy result {} outside [0, 2p) for p={}", r, p);
            prop_assert_eq!(m.reduce(r), m.reduce_u128(x as u128 * w as u128));
        }

        #[test]
        fn fwd_butterfly_preserves_4p_window_and_values(
            p_sel in 0usize..3,
            x_sel in 0usize..9,
            y_sel in 0usize..9,
            w_sel in 0usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let p = PRIMES[p_sel];
            let m = Modulus::new(p);
            // Stage inputs live in [0, 4p) (incl. 4p-1 at the 62-bit prime).
            let mut x = pick(x_sel, seed, p, 4 * p);
            let mut y = pick(y_sel, seed.rotate_left(31), p, 4 * p);
            let w = pick(w_sel, seed.rotate_left(47), p, p);
            let (x0, y0) = (x, y);
            fwd_butterfly(&m, &mut x, &mut y, w, m.shoup(w), 2 * p);
            prop_assert!(x < 4 * p, "fwd x' {} outside [0, 4p)", x);
            prop_assert!(y < 4 * p, "fwd y' {} outside [0, 4p)", y);
            let wy = m.reduce_u128(y0 as u128 * w as u128);
            prop_assert_eq!(m.reduce(x), m.add(m.reduce(x0), wy));
            prop_assert_eq!(m.reduce(y), m.sub(m.reduce(x0), wy));
        }

        #[test]
        fn inv_butterfly_preserves_2p_window_and_values(
            p_sel in 0usize..3,
            x_sel in 0usize..9,
            y_sel in 0usize..9,
            w_sel in 0usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let p = PRIMES[p_sel];
            let m = Modulus::new(p);
            // Inverse-stage inputs live in [0, 2p).
            let mut x = pick(x_sel, seed, p, 2 * p);
            let mut y = pick(y_sel, seed.rotate_left(31), p, 2 * p);
            let w = pick(w_sel, seed.rotate_left(47), p, p);
            let (x0, y0) = (x, y);
            inv_butterfly(&m, &mut x, &mut y, w, m.shoup(w), 2 * p);
            prop_assert!(x < 2 * p, "inv x' {} outside [0, 2p)", x);
            prop_assert!(y < 2 * p, "inv y' {} outside [0, 2p)", y);
            prop_assert_eq!(m.reduce(x), m.add(m.reduce(x0), m.reduce(y0)));
            let diff = m.sub(m.reduce(x0), m.reduce(y0));
            prop_assert_eq!(m.reduce(y), m.reduce_u128(diff as u128 * w as u128));
        }
    }
}
