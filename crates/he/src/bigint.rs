//! Minimal unsigned big-integer arithmetic for CRT reconstruction and
//! BFV decryption rounding.
//!
//! The coefficient modulus `q` is a product of at most nine 62-bit primes
//! (≤ 558 bits), so a tiny little-endian `u64`-limb integer with schoolbook
//! operations is ample. Division uses binary long division: exactness
//! matters more than speed here, because decryption only comes this way
//! for the rare coefficient its RNS fixed-point rounding cannot decide
//! (see `encryptor.rs`), and noise budgets are a diagnostic.

/// An arbitrary-precision unsigned integer (little-endian 64-bit limbs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: vec![] }
    }

    /// Constructs from a single 64-bit value.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of significant bits.
    pub fn bits(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => (self.limbs.len() as u32 - 1) * 64 + (64 - hi.leading_zeros()),
        }
    }

    /// Approximate log2 of the value (for noise-budget estimates).
    ///
    /// Returns 0.0 for zero.
    pub fn log2(&self) -> f64 {
        let n = self.limbs.len();
        if n == 0 {
            return 0.0;
        }
        let hi = self.limbs[n - 1] as f64;
        let next = if n >= 2 {
            self.limbs[n - 2] as f64
        } else {
            0.0
        };
        ((n - 1) as f64 - 1.0) * 64.0 + (hi * 2f64.powi(64) + next).log2()
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u128;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = *self.limbs.get(i).unwrap_or(&0) as u128;
            let b = *other.limbs.get(i).unwrap_or(&0) as u128;
            let s = a + b + carry;
            out.push(s as u64);
            carry = s >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        let mut r = Self { limbs: out };
        r.trim();
        r
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i128;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i128;
            let b = *other.limbs.get(i).unwrap_or(&0) as i128;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1i128 << 64;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u64);
        }
        let mut r = Self { limbs: out };
        r.trim();
        r
    }

    /// `self * small`.
    pub fn mul_u64(&self, small: u64) -> Self {
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let p = l as u128 * small as u128 + carry;
            out.push(p as u64);
            carry = p >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        let mut r = Self { limbs: out };
        r.trim();
        r
    }

    /// Full product `self * other`.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = Self { limbs: out };
        r.trim();
        r
    }

    /// Left shift by `sh` bits.
    pub fn shl(&self, sh: u32) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = (sh / 64) as usize;
        let bit_shift = sh % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = Self { limbs: out };
        r.trim();
        r
    }

    /// Quotient and remainder `(self / div, self % div)` via binary long
    /// division.
    ///
    /// # Panics
    ///
    /// Panics if `div` is zero.
    pub fn div_rem(&self, div: &Self) -> (Self, Self) {
        assert!(!div.is_zero(), "division by zero");
        if self < div {
            return (Self::zero(), self.clone());
        }
        let shift = self.bits() - div.bits();
        let mut rem = self.clone();
        let mut quo_limbs = vec![0u64; (shift as usize / 64) + 1];
        let mut d = div.shl(shift);
        let mut i = shift as i64;
        while i >= 0 {
            if rem >= d {
                rem = rem.sub(&d);
                quo_limbs[(i as usize) / 64] |= 1u64 << (i as usize % 64);
            }
            d = d.shr1();
            i -= 1;
        }
        let mut q = Self { limbs: quo_limbs };
        q.trim();
        (q, rem)
    }

    fn shr1(&self) -> Self {
        let mut out = vec![0u64; self.limbs.len()];
        let mut carry = 0u64;
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            out[i] = (l >> 1) | (carry << 63);
            carry = l & 1;
        }
        let mut r = Self { limbs: out };
        r.trim();
        r
    }

    /// `self mod small`, for a 62-bit modulus.
    pub fn rem_u64(&self, small: u64) -> u64 {
        let mut rem = 0u128;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 64) | l as u128) % small as u128;
        }
        rem as u64
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                std::cmp::Ordering::Equal => continue,
                o => return o,
            }
        }
        std::cmp::Ordering::Equal
    }
}

impl std::fmt::Display for BigUint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // hex output, simple and sufficient for debugging
        write!(f, "0x")?;
        for (i, l) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:016x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_u64(u64::MAX).mul_u64(u64::MAX);
        let b = BigUint::from_u64(12345);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_div_roundtrip() {
        let a = BigUint::from_u64(0xDEAD_BEEF_CAFE_BABE).mul_u64(0x1234_5678_9ABC_DEF0);
        let d = BigUint::from_u64(0xFFFF_FFF1);
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r < d);
    }

    #[test]
    fn rem_u64_matches_div_rem() {
        let a = BigUint::from_u64(u64::MAX)
            .mul_u64(987654321)
            .add(&BigUint::from_u64(42));
        let m = 1_000_003u64;
        let (_, r) = a.div_rem(&BigUint::from_u64(m));
        assert_eq!(a.rem_u64(m), r.limbs.first().copied().unwrap_or(0));
    }

    #[test]
    fn shl_is_mul_by_power_of_two() {
        let a = BigUint::from_u64(0xABCD);
        assert_eq!(
            a.shl(64),
            BigUint {
                limbs: vec![0, 0xABCD]
            }
        );
        assert_eq!(a.shl(4), BigUint::from_u64(0xABCD0));
    }

    #[test]
    fn bits_counts() {
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::from_u64(1).bits(), 1);
        assert_eq!(BigUint::from_u64(255).bits(), 8);
        assert_eq!(BigUint::from_u64(1).shl(100).bits(), 101);
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5).shl(64);
        let b = BigUint::from_u64(u64::MAX);
        assert!(a > b);
        assert!(BigUint::zero() < b);
    }
}
