//! BFV encryption parameter sets.
//!
//! Parameter levels mirror the SEAL 128-bit-security defaults the paper
//! uses (Table IV / Table VI): polynomial modulus degree
//! `N ∈ {2048, 4096, 8192, 16384}` with total coefficient-modulus sizes of
//! 54, 109, 218 and 438 bits respectively, and a common plaintext modulus
//! `t ≈ 2^20` chosen prime with `t ≡ 1 (mod 32768)` so SIMD batching works
//! at every level.

use crate::primes::{ntt_primes, prime_at_least};

/// The four parameter levels evaluated in the paper (Table IV).
///
/// Smaller levels have fewer slots but much cheaper HE operations — the
/// flexibility SPOT's structure patching exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParamLevel {
    /// `N = 2048`, 54-bit `q`. Supports encrypt/add/plain-mult only
    /// (no rotation keys fit the noise budget at this size).
    N2048,
    /// `N = 4096`, 109-bit `q` — the smallest rotation-capable level and
    /// SPOT's workhorse.
    N4096,
    /// `N = 8192`, 218-bit `q` — CrypTFlow2's minimum practical level.
    N8192,
    /// `N = 16384`, 438-bit `q`.
    N16384,
}

impl ParamLevel {
    /// All levels, smallest first.
    pub const ALL: [ParamLevel; 4] = [
        ParamLevel::N2048,
        ParamLevel::N4096,
        ParamLevel::N8192,
        ParamLevel::N16384,
    ];

    /// Polynomial modulus degree `N` (equal to the SIMD slot count `S'`).
    pub fn degree(self) -> usize {
        match self {
            ParamLevel::N2048 => 2048,
            ParamLevel::N4096 => 4096,
            ParamLevel::N8192 => 8192,
            ParamLevel::N16384 => 16384,
        }
    }

    /// Bit sizes of the coefficient-modulus primes (SEAL-style defaults,
    /// 128-bit security per the HE standard).
    pub fn coeff_modulus_bits(self) -> &'static [u32] {
        match self {
            ParamLevel::N2048 => &[54],
            ParamLevel::N4096 => &[36, 36, 37],
            ParamLevel::N8192 => &[43, 43, 44, 44, 44],
            ParamLevel::N16384 => &[48, 48, 48, 49, 49, 49, 49, 49, 49],
        }
    }

    /// Total coefficient modulus size in bits (the `co_mod` column of
    /// Table VI).
    pub fn total_coeff_bits(self) -> u32 {
        self.coeff_modulus_bits().iter().sum()
    }

    /// Whether rotations (Galois key switching) are supported at this level.
    pub fn supports_rotation(self) -> bool {
        !matches!(self, ParamLevel::N2048)
    }
}

impl std::fmt::Display for ParamLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "D={}", self.degree())
    }
}

/// Fully resolved encryption parameters: degree, concrete coefficient
/// primes and the plaintext modulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptionParams {
    level: ParamLevel,
    degree: usize,
    coeff_moduli: Vec<u64>,
    plain_modulus: u64,
}

/// The shared plaintext modulus: smallest prime `>= 2^20` congruent to
/// `1 mod 32768`, so batching works for every supported degree.
pub fn default_plain_modulus() -> u64 {
    prime_at_least(1 << 20, 16384)
}

impl EncryptionParams {
    /// Builds the standard parameters for a level with the default
    /// plaintext modulus.
    pub fn new(level: ParamLevel) -> Self {
        Self::with_plain_modulus(level, default_plain_modulus())
    }

    /// Builds parameters with a custom plaintext modulus.
    ///
    /// # Panics
    ///
    /// Panics if `plain_modulus` is not congruent to `1 mod 2N` (batching
    /// would be impossible).
    pub fn with_plain_modulus(level: ParamLevel, plain_modulus: u64) -> Self {
        let degree = level.degree();
        assert_eq!(
            plain_modulus % (2 * degree as u64),
            1,
            "plaintext modulus must be 1 mod 2N for batching"
        );
        let mut coeff_moduli = Vec::new();
        // Group requested bit sizes and draw distinct primes per size.
        let bits_list = level.coeff_modulus_bits();
        let mut by_size: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
        for &b in bits_list {
            *by_size.entry(b).or_insert(0) += 1;
        }
        for (&bits, &count) in &by_size {
            coeff_moduli.extend(ntt_primes(bits, degree, count));
        }
        Self {
            level,
            degree,
            coeff_moduli,
            plain_modulus,
        }
    }

    /// Builds parameters from an explicit list of coefficient moduli
    /// (used by modulus switching to derive reduced parameter sets).
    ///
    /// # Panics
    ///
    /// Panics if `moduli` is empty or the plaintext modulus is not
    /// `1 mod 2N`.
    pub fn with_explicit_moduli(level: ParamLevel, moduli: Vec<u64>, plain_modulus: u64) -> Self {
        let degree = level.degree();
        assert!(!moduli.is_empty(), "need at least one coefficient modulus");
        assert_eq!(
            plain_modulus % (2 * degree as u64),
            1,
            "plaintext modulus must be 1 mod 2N for batching"
        );
        Self {
            level,
            degree,
            coeff_moduli: moduli,
            plain_modulus,
        }
    }

    /// The parameter level.
    pub fn level(&self) -> ParamLevel {
        self.level
    }

    /// Polynomial modulus degree `N`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// SIMD slot count (equals `N` for BFV batching).
    pub fn slot_count(&self) -> usize {
        self.degree
    }

    /// The RNS coefficient moduli.
    pub fn coeff_moduli(&self) -> &[u64] {
        &self.coeff_moduli
    }

    /// The plaintext modulus `t`.
    pub fn plain_modulus(&self) -> u64 {
        self.plain_modulus
    }

    /// Serialized bytes of one polynomial: residues bit-packed at each
    /// modulus's width.
    pub fn poly_bytes(&self) -> usize {
        self.coeff_moduli
            .iter()
            .map(|&q| (self.degree * (64 - q.leading_zeros() as usize)).div_ceil(8))
            .sum()
    }

    /// Serialized size of one ciphertext in bytes (2 polynomials,
    /// residues bit-packed at each modulus's width, plus a 16-byte
    /// header) — comparable to the paper's Table IV sizes.
    pub fn ciphertext_bytes(&self) -> usize {
        2 * self.poly_bytes() + 16
    }

    /// Serialized size of one fresh symmetric ciphertext as the client
    /// uploads it: the 16-byte header, `c0`, and the 32-byte seed `c1`
    /// expands from.
    pub fn seeded_ciphertext_bytes(&self) -> usize {
        16 + self.poly_bytes() + 32
    }

    /// The parameters results travel at: the first
    /// [`RESULT_PRIMES`](crate::modswitch::RESULT_PRIMES) primes, or all
    /// of them at a level with fewer: the parameters of
    /// [`Context::result_context`](crate::context::Context::result_context).
    pub fn result_params(&self) -> Self {
        let keep = self.coeff_moduli.len().min(crate::modswitch::RESULT_PRIMES);
        Self {
            coeff_moduli: self.coeff_moduli[..keep].to_vec(),
            ..self.clone()
        }
    }

    /// Serialized size of one sparse result carrying `positions`
    /// coefficients of `c0`
    /// ([`SparseCiphertext`](crate::ciphertext::SparseCiphertext)): the
    /// 16-byte header, `c1` packed whole, then per modulus the
    /// `positions` residues of `c0` at that modulus's width, the section
    /// padded to a whole byte.
    pub fn sparse_ciphertext_bytes(&self, positions: usize) -> usize {
        let c0: usize = (self.coeff_moduli.iter())
            .map(|&q| (positions * (64 - q.leading_zeros() as usize)).div_ceil(8))
            .sum();
        16 + self.poly_bytes() + c0
    }

    /// Serialized size of one Galois key inside a key blob: element
    /// (8 B), digit count (4 B), the 32-byte seed of its uniform
    /// polynomials, and one packed `b_i` per RNS prime. A blob of `n`
    /// keys is `4 + n · galois_key_bytes()` long.
    pub fn galois_key_bytes(&self) -> usize {
        8 + 4 + 32 + self.coeff_moduli.len() * self.poly_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::is_prime;

    #[test]
    fn levels_have_expected_sizes() {
        assert_eq!(ParamLevel::N4096.degree(), 4096);
        assert_eq!(ParamLevel::N4096.total_coeff_bits(), 109);
        assert_eq!(ParamLevel::N8192.total_coeff_bits(), 218);
        assert_eq!(ParamLevel::N16384.total_coeff_bits(), 438);
        assert_eq!(ParamLevel::N2048.total_coeff_bits(), 54);
    }

    #[test]
    fn params_build_with_valid_primes() {
        for level in [ParamLevel::N2048, ParamLevel::N4096, ParamLevel::N8192] {
            let p = EncryptionParams::new(level);
            assert_eq!(p.coeff_moduli().len(), level.coeff_modulus_bits().len());
            for &q in p.coeff_moduli() {
                assert!(is_prime(q));
                assert_eq!(q % (2 * p.degree() as u64), 1);
            }
            assert!(is_prime(p.plain_modulus()));
            // all moduli distinct
            let mut sorted = p.coeff_moduli().to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), p.coeff_moduli().len());
        }
    }

    #[test]
    fn rotation_support() {
        assert!(!ParamLevel::N2048.supports_rotation());
        assert!(ParamLevel::N4096.supports_rotation());
    }

    #[test]
    fn ciphertext_sizes_scale_with_level() {
        let small = EncryptionParams::new(ParamLevel::N4096).ciphertext_bytes();
        let big = EncryptionParams::new(ParamLevel::N8192).ciphertext_bytes();
        assert!(big > 2 * small);
        // Same order of magnitude as the paper's Table IV (131697 B at D=4096).
        assert!((100_000..300_000).contains(&small));
    }
}
