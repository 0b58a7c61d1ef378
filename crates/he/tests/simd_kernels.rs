//! Bit-identity property tests for the `spot_he::arch` kernel dispatch.
//!
//! Every vectorized backend the host can run (AVX2 on x86_64, NEON on
//! aarch64) must produce *byte-for-byte* the same output as the scalar
//! reference for every kernel in the table — same lazy-reduction
//! ranges, same final canonical form. The tests compare backends by
//! calling the kernel tables directly (no global `force`), so they are
//! safe under the parallel test runner.
//!
//! Coverage knobs the ISSUE calls out explicitly:
//! - N = 4096 and N = 8192, every RNS prime of each level;
//! - a 62-bit prime (4p just under 2^64 — the tightest lazy window);
//! - boundary coefficients 0 / 1 / p-1 sprinkled into random rows;
//! - `reduce` fed raw u64 values up to `u64::MAX` (incl. 2p-1, 4p-1);
//! - lengths that are not a multiple of the vector width (remainder
//!   loops).

use proptest::prelude::*;
use spot_he::arch::{self, Kernels};
use spot_he::modulus::Modulus;
use spot_he::ntt::NttTables;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_he::primes::ntt_primes;
use std::sync::OnceLock;

/// Every backend this host can run, scalar first.
fn backends() -> Vec<&'static Kernels> {
    arch::available()
}

/// `(prime, tables)` for both test levels' full RNS bases plus one
/// 62-bit prime, built once — table construction dominates test time
/// otherwise.
fn all_tables() -> &'static Vec<NttTables> {
    static TABLES: OnceLock<Vec<NttTables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Vec::new();
        for level in [ParamLevel::N4096, ParamLevel::N8192] {
            let params = EncryptionParams::new(level);
            let degree = params.degree();
            for &p in params.coeff_moduli() {
                tables.push(NttTables::new(p, degree));
            }
        }
        // 4p sits right under 2^64: the tightest case for the [0, 4p)
        // lazy intermediates and the vector cond_sub contract.
        tables.push(NttTables::new(ntt_primes(62, 4096, 1)[0], 4096));
        tables
    })
}

/// Deterministic row in `[0, p)` with boundary values 0 / 1 / p-1
/// planted at seed-dependent positions.
fn row(p: u64, n: usize, seed: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n as u64)
        .map(|i| {
            (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed * 0x3C6E_F372))
                % p
        })
        .collect();
    for (k, &edge) in [0u64, 1, p - 1].iter().enumerate() {
        let idx = (seed as usize).wrapping_mul(31).wrapping_add(k * 7) % n;
        v[idx] = edge;
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn ntt_forward_and_inverse_are_bit_identical_across_backends(seed in 0u64..1_000_000) {
        for tables in all_tables() {
            let p = tables.modulus().value();
            let orig = row(p, tables.degree(), seed);

            let mut fwd_scalar = orig.clone();
            tables.forward_with(arch::scalar_kernels(), &mut fwd_scalar);
            let mut inv_scalar = fwd_scalar.clone();
            tables.inverse_with(arch::scalar_kernels(), &mut inv_scalar);
            prop_assert_eq!(&inv_scalar, &orig, "scalar roundtrip broken at p={}", p);

            for k in backends() {
                let mut fwd = orig.clone();
                tables.forward_with(k, &mut fwd);
                prop_assert_eq!(&fwd, &fwd_scalar, "forward {} != scalar at p={}", k.name, p);
                let mut inv = fwd_scalar.clone();
                tables.inverse_with(k, &mut inv);
                prop_assert_eq!(&inv, &inv_scalar, "inverse {} != scalar at p={}", k.name, p);
            }
        }
    }

    #[test]
    fn pointwise_kernels_are_bit_identical_across_backends(
        seed in 0u64..1_000_000,
        // Deliberately not a multiple of any vector width most of the
        // time: exercises the remainder loops.
        n in 1usize..130,
    ) {
        for &p in &[
            ntt_primes(30, 2048, 1)[0],
            ntt_primes(50, 4096, 1)[0],
            ntt_primes(62, 4096, 1)[0],
        ] {
            let m = Modulus::new(p);
            let a = row(p, n, seed);
            let b = row(p, n, seed.wrapping_add(1));
            let s = b[0];
            let ss = m.shoup(s);

            let scalar = arch::scalar_kernels();
            let mut mul_ref = a.clone();
            (scalar.pointwise_mul)(&m, &mut mul_ref, &b);
            let mut add_ref = a.clone();
            (scalar.pointwise_add)(&m, &mut add_ref, &b);
            let mut sub_ref = a.clone();
            (scalar.pointwise_sub)(&m, &mut sub_ref, &b);
            let mut smul_ref = a.clone();
            (scalar.mul_scalar)(&m, &mut smul_ref, s, ss);

            for k in backends() {
                let mut mul = a.clone();
                (k.pointwise_mul)(&m, &mut mul, &b);
                prop_assert_eq!(&mul, &mul_ref, "pointwise_mul {} at p={}", k.name, p);
                let mut add = a.clone();
                (k.pointwise_add)(&m, &mut add, &b);
                prop_assert_eq!(&add, &add_ref, "pointwise_add {} at p={}", k.name, p);
                let mut sub = a.clone();
                (k.pointwise_sub)(&m, &mut sub, &b);
                prop_assert_eq!(&sub, &sub_ref, "pointwise_sub {} at p={}", k.name, p);
                let mut smul = a.clone();
                (k.mul_scalar)(&m, &mut smul, s, ss);
                prop_assert_eq!(&smul, &smul_ref, "mul_scalar {} at p={}", k.name, p);
            }
        }
    }

    #[test]
    fn reduce_kernel_is_bit_identical_on_raw_u64_inputs(
        seed in 0u64..1_000_000,
        n in 1usize..130,
    ) {
        for &p in &[ntt_primes(30, 2048, 1)[0], ntt_primes(62, 4096, 1)[0]] {
            let m = Modulus::new(p);
            // Raw 64-bit inputs: the key-switch digit lift reduces
            // residues from a *larger* modulus, so feed the whole range
            // plus the lazy-window edges 2p-1 and 4p-1.
            let mut src: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(seed))
                .collect();
            for (k, edge) in [0u64, p - 1, 2 * p - 1, (2 * p - 1).saturating_mul(2), u64::MAX]
                .into_iter()
                .enumerate()
            {
                let idx = (seed as usize).wrapping_mul(17).wrapping_add(k * 5) % n;
                src[idx] = edge;
            }

            let mut dst_ref = vec![0u64; n];
            (arch::scalar_kernels().reduce)(&m, &mut dst_ref, &src);
            for (i, &x) in dst_ref.iter().enumerate() {
                prop_assert_eq!(x, src[i] % p, "scalar reduce wrong at p={}", p);
            }
            for k in backends() {
                let mut dst = vec![0u64; n];
                (k.reduce)(&m, &mut dst, &src);
                prop_assert_eq!(&dst, &dst_ref, "reduce {} at p={}", k.name, p);
            }
        }
    }
}

/// On x86_64 the AVX2 backend must actually be in the comparison set on
/// any machine new enough to run CI — otherwise the bit-identity tests
/// above silently compare scalar against nothing.
#[test]
fn vector_backend_is_exercised_where_expected() {
    let names: Vec<&str> = backends().iter().map(|k| k.name).collect();
    assert!(names.contains(&"scalar"));
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        assert!(names.contains(&"avx2"), "avx2 detected but not listed");
    }
    #[cfg(target_arch = "aarch64")]
    assert!(names.contains(&"neon"), "aarch64 always has NEON");
}
