//! Runtime-dispatched SIMD kernels for the HE hot loops.
//!
//! The inner loops of the crate that a vector unit can run — the
//! forward/inverse NTT butterflies, the pointwise polynomial ops, the
//! key-switch digit lift, the modulus switch's row steps, the seed
//! expansion's generators, and the two widest server loops, the
//! key-switch digit sum and the convolution tap sum — are routed
//! through a single [`Kernels`] table of function pointers selected
//! **once** at startup. The two inner products' scalar bodies are
//! [`crate::lazy`]'s `u128` accumulations; only a backend with a wide
//! multiplier (`avx512ifma`) replaces them.
//!
//! * CPU features are detected at runtime (`AVX2` and `AVX-512 IFMA` on
//!   x86_64, `NEON` on aarch64); dispatch granularity is **per op**:
//!   `auto` installs the fastest kernel for each table entry, not one
//!   uniform backend. On IFMA hosts that is the `avx512ifma` table,
//!   whose 52-bit multiply-adds run every entry at primes below 2^50
//!   and fall through to `avx2+scalar`'s entry above. On AVX2 hosts
//!   without IFMA it is the mixed `avx2+scalar` table — the measured
//!   baseline shows scalar Barrett ahead on `pointwise_mul` and the
//!   key-switch digit lift (~0.7× under AVX2), so those entries keep
//!   the scalar kernels while the NTTs and the add/sub loops vectorize.
//! * The `SPOT_SIMD` environment variable overrides detection:
//!   `off`/`scalar` force the scalar kernels, `auto` (or unset) picks
//!   the tuned per-op table, and a backend name (`avx2`, `neon`,
//!   `avx2+scalar`, `avx512ifma`) forces that table — falling back to
//!   scalar with a warning if the CPU does not support it.
//! * Every backend is bit-identical to the scalar path: all kernels
//!   produce canonical `[0, p)` residues at their boundaries, so the
//!   choice of backend can never change any ciphertext, share, or
//!   trace-counter value (verified by `tests/simd_kernels.rs`).
//!
//! The decision is logged once to stderr
//! (`[spot-he] simd dispatch: kernel=… requested=… available=…`) and
//! mirrored as a `spot-trace` instant event so exported traces record
//! which kernel the HE spans ran on.
//!
//! Vector kernels are written once, generically over the minimal
//! [`vec::V64`] lane trait; per-ISA `unsafe` is confined to the ~12
//! primitive lane ops in `avx2.rs` / `neon.rs` / `avx512ifma.rs`, plus
//! the IFMA table's own kernels (the two inner products, the pointwise
//! product and the digit lift). See DESIGN.md §11 for the safety
//! argument and the recipe for adding a new ISA.

use crate::lazy::{DigitRows, OperandRows, StepOut, StepTerm};
use crate::modulus::Modulus;
use crate::prg::{Jump, State};
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Once;

pub(crate) mod scalar;
pub(crate) mod vec;

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512ifma;
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon;

/// In-place forward negacyclic NTT over one residue row.
/// `(modulus, root_powers, root_powers_shoup, values)`.
pub type NttFn = fn(&Modulus, &[u64], &[u64], &mut [u64]);
/// In-place inverse NTT: `(modulus, inv_root_powers, inv_root_powers_shoup,
/// inv_degree, inv_degree_shoup, values)`.
pub type NttInvFn = fn(&Modulus, &[u64], &[u64], u64, u64, &mut [u64]);
/// Element-wise `dst[i] = dst[i] op src[i] mod p`.
pub type BinFn = fn(&Modulus, &mut [u64], &[u64]);
/// Element-wise `dst[i] = dst[i] * scalar mod p` with the scalar's
/// Shoup constant precomputed by the caller.
pub type MulScalarFn = fn(&Modulus, &mut [u64], u64, u64);
/// Element-wise Barrett reduction `dst[i] = src[i] mod p`.
pub type ReduceFn = fn(&Modulus, &mut [u64], &[u64]);
/// Element-wise `row[i] = (row[i] mod p + c) mod p` for `row[i] < 4p`
/// and `c < p`.
pub type AddScalarFn = fn(&Modulus, &mut [u64], u64);
/// Element-wise `dst[i] = (dst[i] − (src[i] mod p))·w mod p` for
/// `dst[i] < p`, `src[i] < 4p`, with `w`'s Shoup constant precomputed by
/// the caller.
pub type SubMulScalarFn = fn(&Modulus, &mut [u64], &[u64], u64, u64);
/// Element-wise `dst[i] = (dst[i] + (src[i] mod p)·w) mod p` for
/// `dst[i] < p`, `src[i] < 4p`, with `w`'s Shoup constant precomputed by
/// the caller.
pub type MulAddScalarFn = fn(&Modulus, &mut [u64], &[u64], u64, u64);
/// One prime row of every giant step's tap sum of a convolution,
/// `(modulus, operands, steps, outs)`: step `s` sums its terms
/// `(operand, plaintext row)` into `outs[s]`. The scalar body is
/// [`crate::lazy::dot_steps`]; a single inner product is one step.
pub type DotStepsFn = fn(&Modulus, &[OperandRows<'_>], &[&[StepTerm<'_>]], &mut [StepOut<'_>]);
/// One prime row of a key switch under a Galois gather, `(modulus,
/// table, c0, digits, out0, out1)`; the scalar body is
/// [`crate::lazy::key_switch_row`].
pub type KeySwitchRowFn = fn(&Modulus, &[u32], &[u64], &[DigitRows<'_>], &mut [u64], &mut [u64]);

/// One prime row of a seed's stream, `(state, jump, q, row)`: the next
/// `row.len()` draws from `state`, each below `q`, and `state` left
/// where they end; `jump` is `row.len() / LANES` draws, for bodies that
/// run the row's chunks side by side. The scalar body is
/// [`crate::prg::expand_row`].
pub type ExpandRowFn = fn(&mut State, &Jump, u64, &mut [u64]);

/// A complete set of hot-loop kernels for one backend.
///
/// All kernels take inputs already reduced into the range the scalar
/// reference requires (`[0, p)` for pointwise operands, `[0, 4p)`
/// mid-NTT) and produce canonical `[0, p)` outputs, which is what makes
/// backends interchangeable bit-for-bit.
#[derive(Debug)]
pub struct Kernels {
    /// Stable backend name (`"scalar"`, `"avx2"`, `"avx2+scalar"`,
    /// `"avx512ifma"`, `"neon"`).
    pub name: &'static str,
    /// The trace instant event that records this table as the dispatch
    /// decision: `simd_dispatch=<name>`.
    pub dispatch_event: &'static str,
    /// Forward negacyclic NTT (lazy `[0, 4p)` butterflies, fully
    /// reduced output).
    pub ntt_forward: NttFn,
    /// Inverse negacyclic NTT (lazy `[0, 2p)` butterflies, the
    /// `N^{-1}` scaling pass fully reduces).
    pub ntt_inverse: NttInvFn,
    /// Pointwise modular multiplication.
    pub pointwise_mul: BinFn,
    /// Pointwise modular addition.
    pub pointwise_add: BinFn,
    /// Pointwise modular subtraction.
    pub pointwise_sub: BinFn,
    /// Multiplication by a per-modulus scalar constant.
    pub mul_scalar: MulScalarFn,
    /// Barrett reduction of a residue row into a smaller modulus (the
    /// key-switch digit lift).
    pub reduce: ReduceFn,
    /// Addition of a constant to a lazily reduced row (the modulus
    /// switch's centring offsets).
    pub add_scalar: AddScalarFn,
    /// Subtraction of a lazily reduced row, then multiplication by a
    /// constant (the modulus switch's divide step).
    pub sub_mul_scalar: SubMulScalarFn,
    /// Addition of a lazily reduced row times a constant (the modulus
    /// switch's weighted correction sums).
    pub mul_add_scalar: MulAddScalarFn,
    /// The tap sums `Σ_t ct_t ⊙ w_t` of any number of steps over one
    /// set of operands, on one prime row, in one sweep.
    pub dot_steps: DotStepsFn,
    /// The key-switch digit sum of one prime row, read through the
    /// Galois table.
    pub key_switch_row: KeySwitchRowFn,
    /// One prime row of a seed's uniform polynomials, its chunks drawn
    /// by up to [`crate::prg::LANES`] generators at once.
    pub expand_row: ExpandRowFn,
}

static ACTIVE: AtomicPtr<Kernels> = AtomicPtr::new(ptr::null_mut());
static INIT: Once = Once::new();

/// The scalar reference kernels (always available).
pub fn scalar_kernels() -> &'static Kernels {
    &scalar::KERNELS
}

/// Every backend the current CPU supports, scalar first.
pub fn available() -> Vec<&'static Kernels> {
    let mut v: Vec<&'static Kernels> = vec![&scalar::KERNELS];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        v.push(&avx2::KERNELS);
    }
    #[cfg(target_arch = "x86_64")]
    if avx512ifma::detected() {
        v.push(&avx512ifma::KERNELS);
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        v.push(&neon::KERNELS);
    }
    v
}

/// The fastest backend the current CPU supports.
pub fn best_available() -> &'static Kernels {
    available().last().expect("scalar backend always present")
}

/// The table `auto` dispatch installs: the fastest uniform backend with
/// per-op substitutions wherever the measured baseline
/// (`BENCH_heops.json`) shows a different kernel ahead. On x86_64 with
/// AVX-512 IFMA that is the `avx512ifma` table, which is ahead on every
/// entry; with AVX2 alone it is the mixed `avx2+scalar` table (scalar
/// Barrett wins on `pointwise_mul` and the key-switch digit lift);
/// elsewhere no op-level loss has been measured and the uniform best
/// table is returned.
pub fn tuned_best() -> &'static Kernels {
    #[cfg(target_arch = "x86_64")]
    if avx512ifma::detected() {
        return &avx512ifma::KERNELS;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return &avx2::TUNED;
    }
    best_available()
}

fn choose(requested: &str) -> (&'static Kernels, bool) {
    match requested {
        "off" | "scalar" => (&scalar::KERNELS, true),
        "" | "auto" => (tuned_best(), true),
        #[cfg(target_arch = "x86_64")]
        "avx2+scalar" if std::arch::is_x86_feature_detected!("avx2") => (&avx2::TUNED, true),
        name => match available().into_iter().find(|k| k.name == name) {
            Some(k) => (k, true),
            None => (&scalar::KERNELS, false),
        },
    }
}

fn install(kernels: &'static Kernels, requested: &str, honoured: bool) {
    ACTIVE.store(kernels as *const Kernels as *mut Kernels, Ordering::Release);
    let names: Vec<&str> = available().iter().map(|k| k.name).collect();
    eprintln!(
        "[spot-he] simd dispatch: kernel={} requested={} available={}{}",
        kernels.name,
        if requested.is_empty() {
            "auto"
        } else {
            requested
        },
        names.join(","),
        if honoured {
            ""
        } else {
            " (requested backend unsupported; using scalar)"
        }
    );
    // Mirror the decision into exported traces so HE spans/counters can
    // be attributed to the kernel that produced them.
    spot_trace::instant(spot_trace::Cat::He, kernels.dispatch_event);
}

/// The active kernel table, dispatching on first use.
///
/// The first call reads `SPOT_SIMD` and the CPU's feature flags, logs
/// the decision, and caches it; later calls are a single atomic load.
#[inline]
pub fn kernels() -> &'static Kernels {
    let p = ACTIVE.load(Ordering::Acquire);
    if !p.is_null() {
        // SAFETY: ACTIVE only ever holds pointers to the 'static kernel
        // tables installed by `install`.
        return unsafe { &*p };
    }
    INIT.call_once(|| {
        let requested = std::env::var("SPOT_SIMD").unwrap_or_default();
        let (k, honoured) = choose(requested.trim());
        install(k, requested.trim(), honoured);
    });
    let p = ACTIVE.load(Ordering::Acquire);
    // SAFETY: as above; `install` has run (either in this call_once or a
    // concurrent one that completed first).
    unsafe { &*p }
}

/// The name of the currently dispatched backend (dispatches if needed).
pub fn active_name() -> &'static str {
    kernels().name
}

/// Re-points the dispatch at a named backend at runtime.
///
/// Intended for benchmarks and tests that measure both paths in one
/// process; production code should rely on [`kernels`] + `SPOT_SIMD`.
/// Returns an error naming the available backends if `name` is not
/// supported on this CPU.
pub fn force(name: &str) -> Result<&'static Kernels, String> {
    // Run the normal first-use dispatch first so logs stay ordered.
    let _ = kernels();
    let (k, honoured) = choose(name);
    if !honoured {
        return Err(format!(
            "backend {name:?} not available (have: {})",
            available()
                .iter()
                .map(|k| k.name)
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    install(k, name, true);
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        let avail = available();
        assert_eq!(avail[0].name, "scalar");
        assert!(!avail.is_empty());
    }

    #[test]
    fn force_scalar_and_back() {
        let k = force("scalar").unwrap();
        assert_eq!(k.name, "scalar");
        assert_eq!(active_name(), "scalar");
        let best = best_available();
        let k = force(best.name).unwrap();
        assert_eq!(k.name, best.name);
        assert!(force("no-such-backend").is_err());
    }

    #[test]
    fn choose_honours_off_and_auto() {
        assert_eq!(choose("off").0.name, "scalar");
        assert_eq!(choose("scalar").0.name, "scalar");
        assert_eq!(choose("auto").0.name, tuned_best().name);
        assert_eq!(choose("").0.name, tuned_best().name);
        let (k, honoured) = choose("riscv-vector");
        assert_eq!(k.name, "scalar");
        assert!(!honoured);
    }

    #[test]
    fn every_table_traces_its_own_name() {
        let mut tables = available();
        tables.push(tuned_best());
        for k in tables {
            assert_eq!(k.dispatch_event, format!("simd_dispatch={}", k.name));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tuned_table_mixes_backends_per_op() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let (t, honoured) = choose("avx2+scalar");
        assert!(honoured);
        assert_eq!(t.name, "avx2+scalar");
        // `auto` takes the IFMA table wherever the CPU has it, and
        // exactly the mixed AVX2 table everywhere else.
        let auto = if avx512ifma::detected() {
            "avx512ifma"
        } else {
            "avx2+scalar"
        };
        assert_eq!(tuned_best().name, auto);
        // The two measured-loss entries fall back to scalar; the NTTs
        // keep the vector kernels.
        assert_eq!(
            t.pointwise_mul as usize,
            scalar::KERNELS.pointwise_mul as usize
        );
        assert_eq!(t.reduce as usize, scalar::KERNELS.reduce as usize);
        assert_ne!(t.ntt_forward as usize, scalar::KERNELS.ntt_forward as usize);
        assert_eq!(t.ntt_forward as usize, avx2::KERNELS.ntt_forward as usize);
    }
}
