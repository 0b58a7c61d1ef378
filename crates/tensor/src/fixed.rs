//! Fixed-point encoding of real-valued network weights/activations.
//!
//! Secure inference runs over `Z_t` with `t ≈ 2^20`. Values are encoded
//! with a power-of-two scale; after each multiplication the scale doubles
//! and must be truncated back (done on secret shares in `spot-proto`).

/// A fixed-point scale: values are stored as `round(x * 2^frac_bits)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedScale {
    frac_bits: u32,
}

impl FixedScale {
    /// Creates a scale with the given fractional bit count.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits >= 30` (would overflow the plaintext space
    /// after one multiplication).
    pub fn new(frac_bits: u32) -> Self {
        assert!(
            frac_bits < 30,
            "fractional bits too large for Z_t arithmetic"
        );
        Self { frac_bits }
    }

    /// Fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The multiplier `2^frac_bits`.
    pub fn factor(&self) -> i64 {
        1i64 << self.frac_bits
    }

    /// Encodes a real value.
    pub fn encode(&self, x: f64) -> i64 {
        (x * self.factor() as f64).round() as i64
    }

    /// Decodes an integer back to a real value.
    pub fn decode(&self, v: i64) -> f64 {
        v as f64 / self.factor() as f64
    }

    /// Truncates a product back to single scale (arithmetic shift, the
    /// plaintext analogue of the two-party truncation protocol).
    pub fn truncate(&self, v: i64) -> i64 {
        v >> self.frac_bits
    }
}

impl Default for FixedScale {
    /// 6 fractional bits — the precision regime CrypTFlow2-style
    /// inference uses with a 20-bit plaintext modulus.
    fn default() -> Self {
        Self::new(6)
    }
}

/// Maps a signed value into `Z_t` (two's-complement style).
pub fn to_field(v: i64, t: u64) -> u64 {
    v.rem_euclid(t as i64) as u64
}

/// Maps a `Z_t` element back to the centered signed value in
/// `(-t/2, t/2]`.
pub fn from_field(v: u64, t: u64) -> i64 {
    if v > t / 2 {
        v as i64 - t as i64
    } else {
        v as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let s = FixedScale::new(8);
        for x in [-3.5f64, 0.0, 0.125, 2.75] {
            assert!((s.decode(s.encode(x)) - x).abs() < 1.0 / 256.0);
        }
    }

    #[test]
    fn product_scale() {
        let s = FixedScale::new(8);
        let a = s.encode(1.5);
        let b = s.encode(2.0);
        assert!((s.decode(s.truncate(a * b)) - 3.0).abs() < 0.02);
    }

    #[test]
    fn field_roundtrip() {
        let t = 1_032_193u64;
        for v in [-500_000i64, -1, 0, 1, 500_000] {
            assert_eq!(from_field(to_field(v, t), t), v);
        }
    }

    #[test]
    fn field_wraps_negative() {
        let t = 97u64;
        assert_eq!(to_field(-1, t), 96);
        assert_eq!(from_field(96, t), -1);
    }
}
