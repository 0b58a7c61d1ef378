//! Negacyclic number-theoretic transform over `Z_p[X]/(X^N + 1)`.
//!
//! Standard Cooley–Tukey / Gentleman–Sande butterflies with the
//! `psi`-twisted ordering (Longa–Naehrig): the forward transform maps
//! coefficients to evaluations at odd powers of the primitive `2N`-th root
//! of unity, so pointwise products correspond to negacyclic convolution.
//! Twiddles are precomputed with Shoup constants for fast constant
//! multiplication.

use crate::modulus::Modulus;
use crate::primes::primitive_root;

/// Precomputed tables for the negacyclic NTT of a fixed degree and prime.
#[derive(Debug, Clone)]
pub struct NttTables {
    modulus: Modulus,
    degree: usize,
    /// Powers of psi in bit-reversed order (forward transform).
    root_powers: Vec<u64>,
    root_powers_shoup: Vec<u64>,
    /// Powers of psi^{-1} in bit-reversed order (inverse transform).
    inv_root_powers: Vec<u64>,
    inv_root_powers_shoup: Vec<u64>,
    /// N^{-1} mod p, with Shoup constant.
    inv_degree: u64,
    inv_degree_shoup: u64,
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// The Galois automorphism `X → X^g` as an index table over NTT-form
/// residues: `out[i] = in[table[i]]`.
///
/// [`NttTables::forward`] leaves `a(ψ^{2·bitrev(i)+1})` at position
/// `i`, and `(σ_g a)(ψ^e) = a(ψ^{e·g})`, so position `i` of the image
/// reads the position `j` with `2·bitrev(j)+1 ≡ (2·bitrev(i)+1)·g
/// (mod 2N)`. The exponents are the same for every prime, so one table
/// serves all residue rows. No sign rule and no arithmetic: the
/// evaluation points are only visited in a different order.
///
/// # Panics
///
/// Panics if `degree` is not a power of two or `g` is not an odd
/// element of `[1, 2·degree)`.
pub fn galois_ntt_table(g: usize, degree: usize) -> Vec<u32> {
    assert!(degree.is_power_of_two(), "degree must be a power of two");
    assert!(g % 2 == 1 && g < 2 * degree, "bad galois element {g}");
    // With r = bitrev(i) the congruence reads bitrev(j) = r·g + (g−1)/2
    // (mod N): walk r upward, adding g, and scatter through one
    // bit-reversal table built by rev[r] = rev[r/2]/2 + (r mod 2)·N/2.
    let mut rev = vec![0u32; degree];
    for r in 1..degree {
        rev[r] = (rev[r >> 1] >> 1) | if r & 1 == 1 { (degree >> 1) as u32 } else { 0 };
    }
    let mut table = vec![0u32; degree];
    let mut source = (g - 1) / 2;
    for &i in &rev {
        table[i as usize] = rev[source & (degree - 1)];
        source += g;
    }
    table
}

impl NttTables {
    /// Builds NTT tables for `degree` (a power of two) modulo prime `p`
    /// with `p ≡ 1 (mod 2*degree)`.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is not a power of two or the congruence fails.
    pub fn new(p: u64, degree: usize) -> Self {
        assert!(degree.is_power_of_two(), "degree must be a power of two");
        assert_eq!(
            p % (2 * degree as u64),
            1,
            "prime must be 1 mod 2*degree for the negacyclic NTT"
        );
        let modulus = Modulus::new(p);
        let psi = primitive_root(p, 2 * degree as u64);
        let psi_inv = modulus.inv(psi).expect("psi invertible");
        let bits = degree.trailing_zeros();

        let mut root_powers = vec![0u64; degree];
        let mut inv_root_powers = vec![0u64; degree];
        let mut acc = 1u64;
        let mut acc_inv = 1u64;
        // powers stored at bit-reversed indices
        let mut fwd = vec![0u64; degree];
        let mut inv = vec![0u64; degree];
        for i in 0..degree {
            fwd[i] = acc;
            inv[i] = acc_inv;
            acc = modulus.mul(acc, psi);
            acc_inv = modulus.mul(acc_inv, psi_inv);
        }
        for i in 0..degree {
            root_powers[i] = fwd[bit_reverse(i, bits)];
            inv_root_powers[i] = inv[bit_reverse(i, bits)];
        }

        let root_powers_shoup = root_powers.iter().map(|&w| modulus.shoup(w)).collect();
        let inv_root_powers_shoup = inv_root_powers.iter().map(|&w| modulus.shoup(w)).collect();
        let inv_degree = modulus.inv(degree as u64).expect("degree invertible");
        let inv_degree_shoup = modulus.shoup(inv_degree);
        Self {
            modulus,
            degree,
            root_powers,
            root_powers_shoup,
            inv_root_powers,
            inv_root_powers_shoup,
            inv_degree,
            inv_degree_shoup,
        }
    }

    /// The modulus these tables were built for.
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The transform degree `N`.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// In-place forward negacyclic NTT (coefficients -> evaluations, in
    /// bit-reversed evaluation order).
    ///
    /// Uses SEAL-style lazy reduction (Longa–Naehrig): butterfly values
    /// are kept in `[0, 4p)` throughout the stages — each butterfly does
    /// one conditional subtraction of `2p` plus a lazy Shoup multiply in
    /// `[0, 2p)` — and a single reduction pass at the end maps the array
    /// back to `[0, p)`. This trades the two conditional corrections per
    /// butterfly of the textbook form for roughly half that, which is
    /// where most of the transform time goes.
    ///
    /// The loop body lives behind the [`crate::arch`] kernel dispatch:
    /// the scalar reference and the vectorized (AVX2/NEON) butterflies
    /// are bit-identical, so the dispatched choice never changes the
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != degree`.
    pub fn forward(&self, a: &mut [u64]) {
        self.forward_with(crate::arch::kernels(), a);
    }

    /// [`NttTables::forward`] on an explicit kernel table instead of the
    /// dispatched one — lets tests and benches compare backends
    /// side-by-side without touching the global dispatch state.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != degree`.
    pub fn forward_with(&self, kernels: &crate::arch::Kernels, a: &mut [u64]) {
        assert_eq!(a.len(), self.degree);
        (kernels.ntt_forward)(&self.modulus, &self.root_powers, &self.root_powers_shoup, a);
    }

    /// In-place inverse negacyclic NTT (evaluations -> coefficients).
    ///
    /// Lazy-reduction form: butterfly values stay in `[0, 2p)` (the sum
    /// gets one conditional subtraction of `2p`, the difference goes
    /// through a lazy Shoup multiply), and the final `N^{-1}` scaling
    /// pass performs the full reduction to `[0, p)`.
    ///
    /// Like [`NttTables::forward`], the butterflies run on the
    /// [`crate::arch`]-dispatched kernel.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != degree`.
    pub fn inverse(&self, a: &mut [u64]) {
        self.inverse_with(crate::arch::kernels(), a);
    }

    /// [`NttTables::inverse`] on an explicit kernel table instead of the
    /// dispatched one.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != degree`.
    pub fn inverse_with(&self, kernels: &crate::arch::Kernels, a: &mut [u64]) {
        assert_eq!(a.len(), self.degree);
        (kernels.ntt_inverse)(
            &self.modulus,
            &self.inv_root_powers,
            &self.inv_root_powers_shoup,
            self.inv_degree,
            self.inv_degree_shoup,
            a,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::ntt_primes;

    #[allow(clippy::needless_range_loop)]
    fn naive_negacyclic(a: &[u64], b: &[u64], p: u64) -> Vec<u64> {
        let n = a.len();
        let m = Modulus::new(p);
        let mut out = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let prod = m.mul(a[i], b[j]);
                let k = i + j;
                if k < n {
                    out[k] = m.add(out[k], prod);
                } else {
                    out[k - n] = m.sub(out[k - n], prod);
                }
            }
        }
        out
    }

    #[test]
    fn roundtrip() {
        for degree in [8usize, 64, 1024] {
            let p = ntt_primes(30, degree, 1)[0];
            let tables = NttTables::new(p, degree);
            let orig: Vec<u64> = (0..degree as u64).map(|i| (i * 37 + 11) % p).collect();
            let mut a = orig.clone();
            tables.forward(&mut a);
            tables.inverse(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn roundtrip_at_max_prime_size() {
        // 62-bit prime: 4p sits right under 2^64, the tightest case for
        // the lazy-reduction [0, 4p) intermediate values.
        let degree = 256usize;
        let p = ntt_primes(62, degree, 1)[0];
        let tables = NttTables::new(p, degree);
        let orig: Vec<u64> = (0..degree as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % p)
            .collect();
        let mut a = orig.clone();
        tables.forward(&mut a);
        for &x in &a {
            assert!(x < p, "forward output must be fully reduced");
        }
        tables.inverse(&mut a);
        for &x in &a {
            assert!(x < p, "inverse output must be fully reduced");
        }
        assert_eq!(a, orig);
    }

    #[test]
    fn pointwise_is_negacyclic_convolution() {
        let degree = 32usize;
        let p = ntt_primes(30, degree, 1)[0];
        let m = Modulus::new(p);
        let tables = NttTables::new(p, degree);
        let a: Vec<u64> = (0..degree as u64).map(|i| (i * i + 3) % p).collect();
        let b: Vec<u64> = (0..degree as u64).map(|i| (7 * i + 1) % p).collect();
        let expected = naive_negacyclic(&a, &b, p);
        let mut fa = a.clone();
        let mut fb = b.clone();
        tables.forward(&mut fa);
        tables.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        tables.inverse(&mut fc);
        assert_eq!(fc, expected);
    }

    #[test]
    fn x_times_x_pow_n_minus_1_wraps_negatively() {
        // (X) * (X^{N-1}) = X^N = -1 in the negacyclic ring.
        let degree = 16usize;
        let p = ntt_primes(30, degree, 1)[0];
        let tables = NttTables::new(p, degree);
        let mut a = vec![0u64; degree];
        a[1] = 1;
        let mut b = vec![0u64; degree];
        b[degree - 1] = 1;
        let m = Modulus::new(p);
        tables.forward(&mut a);
        tables.forward(&mut b);
        let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
        tables.inverse(&mut c);
        let mut expected = vec![0u64; degree];
        expected[0] = p - 1;
        assert_eq!(c, expected);
    }
}
