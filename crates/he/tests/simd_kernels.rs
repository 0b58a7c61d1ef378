//! Bit-identity property tests for the `spot_he::arch` kernel dispatch.
//!
//! Every vectorized backend the host can run (AVX2 and AVX-512 IFMA on
//! x86_64, NEON on aarch64) must produce *byte-for-byte* the same
//! output as the scalar reference for every kernel in the table — the
//! same final canonical form. The tests compare backends by
//! calling the kernel tables directly (no global `force`), so they are
//! safe under the parallel test runner.
//!
//! Coverage:
//! - N = 4096 and N = 8192, every RNS prime of each level;
//! - a 62-bit prime (4p just under 2^64 — the tightest lazy window),
//!   which the IFMA entries hand to the AVX2 / scalar ones;
//! - boundary coefficients 0 / 1 / p-1 sprinkled into random rows;
//! - `reduce` fed raw u64 values up to `u64::MAX` (incl. 2p-1, 4p-1),
//!   and the modulus switch's `add_scalar` / `sub_mul_scalar` /
//!   `mul_add_scalar` rows lazy up to 4p-1;
//! - lengths that are not a multiple of the vector width (remainder
//!   loops and masked chunks);
//! - the two inner products at and past the IFMA table's fold points,
//!   at N16384's 49-bit primes with 8 digits, and at N2048's 54-bit
//!   prime, which falls back to the scalar bodies;
//! - the multi-step tap sum over rows that end inside a tile, with
//!   empty steps, steps over different operand subsets and repeated
//!   operands, and a convolution's sixteen giant steps of eighteen terms,
//!   every step also held to a term-by-term oracle;
//! - the seed expansion's row bodies, draws and end states, at bounds
//!   up to `u64::MAX` and lane chunks off the vector widths.

use proptest::prelude::*;
use spot_he::arch::{self, Kernels};
use spot_he::lazy::{DigitRows, OperandRows, StepTerm};
use spot_he::modulus::Modulus;
use spot_he::ntt::{galois_ntt_table, NttTables};
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
            // The modulus switch's row steps read lazily reduced rows:
            // `a` lifted by 0..=3 multiples of p, 4p - 1 included.
            let lazy: Vec<u64> = (a.iter().enumerate())
                .map(|(i, &v)| if i == n / 2 { 4 * p - 1 } else { v + (i as u64 % 4) * p })
                .collect();
            let mut adds_ref = lazy.clone();
            (scalar.add_scalar)(&m, &mut adds_ref, s);
            for (i, &x) in adds_ref.iter().enumerate() {
                prop_assert_eq!(x, (lazy[i] % p + s) % p, "scalar add_scalar wrong at p={}", p);
            }
            let mut muladd_ref = b.clone();
            (scalar.mul_add_scalar)(&m, &mut muladd_ref, &lazy, s, ss);
            for (i, &x) in muladd_ref.iter().enumerate() {
                let want = (b[i] as u128 + (lazy[i] % p) as u128 * s as u128) % p as u128;
                prop_assert_eq!(x, want as u64, "scalar mul_add_scalar wrong at p={}", p);
            }
            let mut submul_ref = b.clone();
            (scalar.sub_mul_scalar)(&m, &mut submul_ref, &lazy, s, ss);
            for (i, &x) in submul_ref.iter().enumerate() {
                let diff = (b[i] + p - lazy[i] % p) % p;
                prop_assert_eq!(x, m.mul(diff, s), "scalar sub_mul_scalar wrong at p={}", p);
            }

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
                let mut adds = lazy.clone();
                (k.add_scalar)(&m, &mut adds, s);
                prop_assert_eq!(&adds, &adds_ref, "add_scalar {} at p={}", k.name, p);
                let mut submul = b.clone();
                (k.sub_mul_scalar)(&m, &mut submul, &lazy, s, ss);
                prop_assert_eq!(&submul, &submul_ref, "sub_mul_scalar {} at p={}", k.name, p);
                let mut muladd = b.clone();
                (k.mul_add_scalar)(&m, &mut muladd, &lazy, s, ss);
                prop_assert_eq!(&muladd, &muladd_ref, "mul_add_scalar {} at p={}", k.name, p);
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

    #[test]
    fn inner_products_are_bit_identical_across_backends(
        seed in 0u64..1_000_000,
        n in 1usize..40,
    ) {
        // Term and digit counts at and past the IFMA fold points: 32
        // products at 49 bits, 8 just below 2^50; N2048's 54-bit prime
        // is past the IFMA bound and takes the scalar bodies.
        for (p, counts) in [
            (level_moduli(ParamLevel::N4096)[0], &[1usize, 2, 3, 4, 8, 9, 40][..]),
            (level_moduli(ParamLevel::N16384)[8], &[1, 9, 31, 32, 33, 64, 65, 200]),
            (ntt_primes(50, 4096, 1)[0], &[1, 5, 8, 9, 16, 17, 100]),
            (level_moduli(ParamLevel::N2048)[0], &[1, 3, 9, 40]),
        ] {
            let m = Modulus::new(p);
            // Random rows with 0 / 1 / p − 1 planted, and one of p − 1
            // everywhere: the largest products.
            let mut pool: Vec<Vec<u64>> = (0..5).map(|r| row(p, n, seed + r)).collect();
            pool.push(vec![p - 1; n]);
            let table: Vec<u32> = (0..n).map(|i| ((7 * i + seed as usize) % n) as u32).collect();
            let operands = pool_operands(&pool);
            for &count in counts {
                check_dot_steps(&m, &operands, &[pool_step(&pool, count, 0)])?;
                check_dot_steps(&m, &pool_operands(&pool[5..]), &[pool_step(&pool[5..], count, 0)])?;
                check_dot_steps(&m, &operands, &mixed_steps(&pool, count))?;
                check_key_switch_row(&m, &table, &pool, count)?;
                check_key_switch_row(&m, &table, &pool[5..], count)?;
            }
        }
    }
}

/// The IFMA table's 52-bit low halves fold every 4095 terms: 12,000
/// random products overflow a u64 without a fold, and products whose
/// low halves are all ones, 2^52 − 1, overflow one after 4096 terms on
/// top of the residue a fold restarts from.
#[test]
fn tap_sums_fold_their_low_halves_every_4095_terms() {
    for p in [
        level_moduli(ParamLevel::N4096)[0],
        level_moduli(ParamLevel::N8192)[4],
    ] {
        let m = Modulus::new(p);
        let pool: Vec<Vec<u64>> = (0..5).map(|r| row(p, 11, r)).collect();
        let operands = pool_operands(&pool);
        for count in [4094, 4095, 4096, 8190, 8191, 12_000] {
            check_dot_steps(&m, &operands, &[pool_step(&pool, count, 0)]).unwrap();
        }
        // Steps on either side of the fold point in one sweep.
        let steps: Vec<Vec<StepTerm<'_>>> = [4095, 1, 4096, 0, 8191]
            .iter()
            .enumerate()
            .map(|(s, &count)| pool_step(&pool, count, s))
            .collect();
        check_dot_steps(&m, &operands, &steps).unwrap();
        let (x, w) = low_half_all_ones(p);
        let (xs, ws) = (vec![x; 9], vec![w; 9]);
        for count in [4095, 4096, 8190, 8191, 8192, 12_285, 12_286] {
            check_dot_steps(&m, &[(&xs[..], &xs[..])], &[vec![(0, &ws[..]); count]]).unwrap();
        }
    }
}

/// Residues `x, w < p` whose product has all 52 low bits set: `x` odd
/// and `w = −x⁻¹ mod 2^52`, for the first `x` that puts `w` below `p`.
fn low_half_all_ones(p: u64) -> (u64, u64) {
    (3..p)
        .step_by(2)
        .find_map(|x: u64| {
            // x⁻¹ mod 2^64 by Newton's iteration: x·x ≡ 1 (mod 8) for
            // odd x, and each step doubles the correct low bits.
            let mut inv = x;
            for _ in 0..5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
            }
            let w = inv.wrapping_neg() & ((1 << 52) - 1);
            (w < p).then_some((x, w))
        })
        .expect("some odd x < p has its w below p")
}

/// A 49-bit key switch the way N16384 rotates: its nine primes, eight
/// digits (one per prime but the last), and a real Galois table, on
/// random and on all-`p − 1` rows.
#[test]
fn key_switch_rows_are_bit_identical_at_n16384() {
    let n = ParamLevel::N16384.degree();
    let table = galois_ntt_table(3, n);
    for (i, p) in level_moduli(ParamLevel::N16384).into_iter().enumerate() {
        let m = Modulus::new(p);
        let mut pool: Vec<Vec<u64>> = (0..5).map(|r| row(p, n, 10 * i as u64 + r)).collect();
        pool.push(vec![p - 1; n]);
        check_key_switch_row(&m, &table, &pool, 8).unwrap();
        check_key_switch_row(&m, &table, &pool[5..], 8).unwrap();
    }
}

fn level_moduli(level: ParamLevel) -> Vec<u64> {
    EncryptionParams::new(level).coeff_moduli().to_vec()
}

/// Row `t`-th of a term or digit, cycling through `pool`.
fn pick(pool: &[Vec<u64>], t: usize, shift: usize) -> &[u64] {
    &pool[(t + shift) % pool.len()]
}

/// `pool`'s rows as tap-sum operands: operand `i` is rows `i` and
/// `i + 1`, cycling.
fn pool_operands(pool: &[Vec<u64>]) -> Vec<OperandRows<'_>> {
    (0..pool.len())
        .map(|i| (pick(pool, i, 0), pick(pool, i, 1)))
        .collect()
}

/// A step of `count` terms over [`pool_operands`], cycling through the
/// operands from `first`, each times the row two on from its operand's.
fn pool_step(pool: &[Vec<u64>], count: usize, first: usize) -> Vec<StepTerm<'_>> {
    (0..count)
        .map(|t| ((t + first) % pool.len(), pick(pool, t + first, 2)))
        .collect()
}

/// Steps of about `count` terms that share [`pool_operands`] unevenly:
/// all of them from two starts, none, every other one, and one operand
/// over and over.
fn mixed_steps(pool: &[Vec<u64>], count: usize) -> Vec<Vec<StepTerm<'_>>> {
    let every_other = (0..count).map(|t| ((2 * t) % pool.len(), pick(pool, t, 3)));
    let repeated = (0..count).map(|t| (1, pick(pool, t, 0)));
    vec![
        pool_step(pool, count, 0),
        Vec::new(),
        pool_step(pool, count + 1, 3),
        every_other.collect(),
        repeated.collect(),
    ]
}

/// A multi-step tap sum on every backend, against the scalar body, and
/// the scalar body against every step summed term by term. The outputs
/// start out as garbage, so a coefficient or an empty step a kernel does
/// not write shows.
fn check_dot_steps(
    m: &Modulus,
    operands: &[OperandRows<'_>],
    steps: &[Vec<StepTerm<'_>>],
) -> TestCaseResult {
    let n = operands[0].0.len();
    let p = m.value();
    let steps: Vec<&[StepTerm<'_>]> = steps.iter().map(Vec::as_slice).collect();
    let run = |k: &Kernels| {
        let mut rows = vec![(vec![u64::MAX; n], vec![u64::MAX; n]); steps.len()];
        let mut outs: Vec<_> = (rows.iter_mut())
            .map(|(o0, o1)| (&mut o0[..], &mut o1[..]))
            .collect();
        (k.dot_steps)(m, operands, &steps, &mut outs);
        rows
    };
    let want = run(arch::scalar_kernels());
    for (s, (terms, (want0, want1))) in steps.iter().zip(&want).enumerate() {
        // The sum over `c0` (`half` 0) or `c1` (`half` 1).
        let oracle = |half: usize| -> Vec<u64> {
            (0..n)
                .map(|i| {
                    (terms.iter()).fold(0u64, |acc, &(x, w)| {
                        let (x0, x1) = operands[x];
                        let x = if half == 0 { x0 } else { x1 };
                        let product = x[i] as u128 * w[i] as u128;
                        m.add(acc, (product % p as u128) as u64)
                    })
                })
                .collect()
        };
        prop_assert_eq!(want0, &oracle(0), "scalar step {} c0 at p={}", s, p);
        prop_assert_eq!(want1, &oracle(1), "scalar step {} c1 at p={}", s, p);
    }
    for k in backends() {
        let got = run(k);
        for (s, (got, want)) in got.iter().zip(&want).enumerate() {
            let terms = steps[s].len();
            prop_assert_eq!(
                &got.0,
                &want.0,
                "dot_steps {} step {} c0, {} terms, n={} at p={}",
                k.name,
                s,
                terms,
                n,
                p
            );
            prop_assert_eq!(
                &got.1,
                &want.1,
                "dot_steps {} step {} c1, {} terms, n={} at p={}",
                k.name,
                s,
                terms,
                n,
                p
            );
        }
    }
    Ok(())
}

/// The tiled sweep over rows a tile does not divide, and over the shape
/// a paper-sized layer sums: sixteen giant steps of eighteen terms over
/// eighteen tap positions (two versions × nine taps), 288 distinct
/// plaintexts, at a full N4096 row and at rows that end inside a tile.
#[test]
fn multi_step_tap_sums_are_bit_identical_over_ragged_tiles() {
    for (p, lengths) in [
        (
            level_moduli(ParamLevel::N4096)[0],
            &[4096usize, 1061, 513][..],
        ),
        (level_moduli(ParamLevel::N16384)[8], &[700, 512]),
        (level_moduli(ParamLevel::N2048)[0], &[1061]),
    ] {
        let m = Modulus::new(p);
        for &n in lengths {
            let positions: Vec<Vec<u64>> = (0..19).map(|r| row(p, n, r)).collect();
            let weights: Vec<Vec<u64>> = (0..288).map(|r| row(p, n, 100 + r)).collect();
            let operands = pool_operands(&positions[..18]);
            let steps: Vec<Vec<StepTerm<'_>>> = (0..16)
                .map(|j| (0..18).map(|t| (t, &weights[18 * j + t][..])).collect())
                .collect();
            check_dot_steps(&m, &operands, &steps).unwrap();
            check_dot_steps(&m, &pool_operands(&positions), &mixed_steps(&positions, 18)).unwrap();
        }
    }
}

/// A key switch of `count` digits drawn from `pool` through `table` on
/// every backend, against the scalar body.
fn check_key_switch_row(
    m: &Modulus,
    table: &[u32],
    pool: &[Vec<u64>],
    count: usize,
) -> TestCaseResult {
    let n = table.len();
    let digits: Vec<DigitRows<'_>> = (0..count)
        .map(|d| (pick(pool, d, 1), pick(pool, d, 2), pick(pool, d, 3)))
        .collect();
    let c0 = pick(pool, count, 0);
    let (mut want0, mut want1) = (vec![0u64; n], vec![0u64; n]);
    (arch::scalar_kernels().key_switch_row)(m, table, c0, &digits, &mut want0, &mut want1);
    for k in backends() {
        let (mut got0, mut got1) = (vec![0u64; n], vec![0u64; n]);
        (k.key_switch_row)(m, table, c0, &digits, &mut got0, &mut got1);
        let p = m.value();
        prop_assert_eq!(
            &got0,
            &want0,
            "key_switch_row {} c0, {} digits at p={}",
            k.name,
            count,
            p
        );
        prop_assert_eq!(
            &got1,
            &want1,
            "key_switch_row {} c1, {} digits at p={}",
            k.name,
            count,
            p
        );
    }
    Ok(())
}

/// On x86_64 the AVX2 backend, and the IFMA one wherever the CPU has
/// it, must actually be in the comparison set — otherwise the
/// bit-identity tests above silently compare scalar against nothing.
#[test]
fn vector_backend_is_exercised_where_expected() {
    let names: Vec<&str> = backends().iter().map(|k| k.name).collect();
    assert!(names.contains(&"scalar"));
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        assert!(names.contains(&"avx2"), "avx2 detected but not listed");
    }
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
        assert!(
            names.contains(&"avx512ifma"),
            "avx512ifma detected but not listed"
        );
    }
    #[cfg(target_arch = "aarch64")]
    assert!(names.contains(&"neon"), "aarch64 always has NEON");
}

/// The seed expansion's row bodies: every table's draws and end state
/// equal the scalar body's, from random states and the all-zero one,
/// at bounds of every width the wire uses and past it (the draw's high
/// word is taken for any 64-bit bound), for rows whose lane chunks are
/// and are not a multiple of either vector width — those take the
/// scalar body inside the vector entries.
#[test]
fn seed_rows_are_bit_identical_across_backends() {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use spot_he::prg::{self, Jump, State, LANES};
    let mut rng = StdRng::seed_from_u64(43);
    let bounds = [
        2,
        97,
        (1 << 36) - 5,
        ntt_primes(49, 16384, 1)[0],
        1 << 54,
        u64::MAX,
    ];
    for chunk in [1, 3, 4, 8, 12, 40, 64, 512, 2048] {
        let jump = Jump::new(chunk);
        for (b, &q) in bounds.iter().enumerate() {
            let start: State = if b == 0 {
                [0; 4]
            } else {
                [0; 4].map(|_| rng.next_u64())
            };
            let mut want_state = start;
            let mut want = vec![0u64; chunk * LANES];
            prg::expand_row(&mut want_state, &jump, q, &mut want);
            assert!(want.iter().all(|&v| v < q));
            for k in backends() {
                let mut state = start;
                let mut got = vec![u64::MAX; chunk * LANES];
                (k.expand_row)(&mut state, &jump, q, &mut got);
                assert!(got == want, "{} draws, chunk {chunk}, q {q}", k.name);
                assert_eq!(state, want_state, "{} end state, chunk {chunk}", k.name);
            }
        }
    }
}
