//! Machine-readable HE hot-loop baseline: `BENCH_heops.json`.
//!
//! Measures every operation the `crates/he/src/arch` kernel dispatch
//! accelerates — forward/inverse NTT, pointwise multiply, the
//! key-switch digit lift, ciphertext rotation, a nine-term tap sum and
//! one full lane-MIMO convolution — under both
//! the scalar reference kernels and the table `auto` dispatches
//! (`avx512ifma` on CPUs with AVX-512 IFMA, `avx2+scalar` on other
//! AVX2 CPUs; `SPOT_SIMD` picks another), **in the same process and
//! run** (via `spot_he::arch::force`) so the two columns are directly
//! comparable.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p spot-bench --bin bench_heops            # human table
//! cargo run --release -p spot-bench --bin bench_heops -- --json  # BENCH_heops.json to stdout
//! ```
//!
//! The JSON schema is stable (`spot-bench-heops/v1`): consumers may rely
//! on `schema`, `host`,
//! `entries[].{op,level,kernel,reps,mean_us,median_us,min_us}`,
//! `speedups` and `ratios`. New fields may be added; existing ones won't change
//! meaning. The `conv_batched_b{B}` entries report one full in-process
//! SPOT conv session carrying `B` images *per image* (total / B), so
//! they read directly as throughput-per-image. The client-side rows
//! (`ct_to_bytes`, `ct_from_bytes`, `galois_serialize`,
//! `galois_deserialize`, `decrypt`) are what a tiny client pays per
//! ciphertext and per Galois key outside the HE math; the Galois rows
//! are **per key** (blob time / keys in the blob). `encrypt_seeded`,
//! `ct_seeded_bytes` and `ct_from_seeded_bytes` are the upload's own
//! form — a symmetric encryption at the level's two result primes,
//! written as `c0` and the seed of `c1`, read back by expanding the seed
//! and lifted to the full modulus — beside the full-form rows.
//! `ks_decompose` is the step-independent part of a rotation
//! (`Evaluator::hoist`) and `rotate_hoisted8` eight rotations sharing
//! one; `taps3x3_composed` is the same eight tap positions the way the
//! conv engine reaches them with four keys — two row moves and two
//! column moves from the input's hoist, then each moved row hoisted and
//! moved twice more: three hoists and eight hoisted rotations.
//! `dot_lifted9` is a 3×3 kernel's tap sum as one inner product
//! (`Evaluator::dot_lifted`) and `mult_add9` the same sum as nine
//! `multiply_lifted` and eight `add_inplace`. At N4096,
//! `dot_steps16x18` is the sixteen giant steps of eighteen terms a
//! 32 → 32 SPOT layer sums per input ciphertext, over eighteen tap
//! positions and 288 distinct plaintexts, in one
//! `Evaluator::dot_lifted_steps` sweep, and `dot_lifted18x16` the same
//! sums as sixteen `dot_lifted` calls. `mod_switch` is the switch every
//! result takes down to its level's first two primes, mask folded in,
//! **per polynomial** (a result's time / 2). The client's
//! `decrypt_result` is `decrypt` of such a result, under the row prefix
//! of the key. At N4096, `ct_from_sparse_bytes64` and
//! `decrypt_result_sparse64` are the same result as a coefficient-packed
//! layer sends it — `c1` and `c0` at 64 positions — read back and
//! decrypted at those positions only. `seed_expand3` is one key's `k`
//! uniform polynomials expanded from their seed (`keys::expand_seed`,
//! the dispatched row body) and `seed_expand3_stdrng` the `StdRng` loop
//! that defines them; `galois_key_bytes` is one key written from seed
//! to wire bytes (`KeyGenerator::galois_key_blob`, what a session
//! sends), per key. The groups `mult_add9` / `dot_lifted9`,
//! `dot_steps16x18` / `dot_lifted18x16`,
//! `decrypt_result` / `decrypt_result_sparse64`, `seed_expand3` /
//! `seed_expand3_stdrng` and `rotate` / `rotate_hoisted8` /
//! `taps3x3_composed` are timed alternately, so a spell of slow machine
//! falls on every side of their ratios alike.
//!
//! `ratios` holds every row of [`spot_bench::check::RATIOS`], which
//! names the two measurements each divides, and `bench_check` holds
//! them to that table's ceilings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_bench::check::{Quantity, RATIOS};
use spot_bench::timing::{time_alternately_us, time_us, time_us_on};
use spot_core::executor::Executor;
use spot_core::heconv::{ConvRequest, HeConvEngine, KernelCache};
use spot_core::layout::LaneLayout;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot_core::spot::blocking;
use spot_he::arch;
use spot_he::keys::{expand_seed, KeySeed};
use spot_he::prelude::*;
use spot_he::serial::{galois_keys_from_bytes, galois_keys_to_bytes};
use spot_tensor::tensor::Tensor;
use std::sync::Arc;

struct Entry {
    op: &'static str,
    level: &'static str,
    kernel: &'static str,
    reps: usize,
    mean_us: f64,
    median_us: f64,
    min_us: f64,
}

impl Entry {
    /// `reps` calls timed as `(mean, median, min)` µs, each call
    /// standing for `per` of `op`.
    fn new(
        (op, level, kernel): (&'static str, &'static str, &'static str),
        reps: usize,
        (mean, median, min): (f64, f64, f64),
        per: f64,
    ) -> Self {
        Entry {
            op,
            level,
            kernel,
            reps,
            mean_us: mean / per,
            median_us: median / per,
            min_us: min / per,
        }
    }
}

/// All measurements for one kernel backend (must already be forced).
fn measure_kernel(kernel: &'static str, entries: &mut Vec<Entry>) {
    let k = arch::kernels();
    assert_eq!(k.name, kernel, "backend must be forced before measuring");

    for (level, level_name, reps) in [
        (ParamLevel::N4096, "N4096", 200usize),
        (ParamLevel::N8192, "N8192", 100),
    ] {
        let ctx = Context::new(EncryptionParams::new(level));
        let n = ctx.degree();
        let tables = &ctx.ntt_tables()[0];
        let m = tables.modulus();
        let p = m.value();
        let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9 + 17) % p).collect();

        let mut push =
            |op, reps, timed| entries.push(Entry::new((op, level_name, kernel), reps, timed, 1.0));

        let mut a = coeffs.clone();
        push(
            "ntt_forward",
            reps,
            time_us(reps, || tables.forward(&mut a)),
        );
        push(
            "ntt_inverse",
            reps,
            time_us(reps, || tables.inverse(&mut a)),
        );

        // Pointwise product of two residue rows (the mult-plain core).
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % p).collect();
        let mut d = coeffs.clone();
        push(
            "pointwise_mul",
            reps,
            time_us(reps, || (arch::kernels().pointwise_mul)(m, &mut d, &b)),
        );

        let mut d2 = coeffs.clone();
        push(
            "pointwise_add",
            reps,
            time_us(reps, || (arch::kernels().pointwise_add)(m, &mut d2, &b)),
        );
        let s = p / 3;
        let ss = m.shoup(s);
        let mut d3 = coeffs.clone();
        push(
            "mul_scalar",
            reps,
            time_us(reps, || (arch::kernels().mul_scalar)(m, &mut d3, s, ss)),
        );

        // The key-switch digit lift: Barrett reduction of a residue
        // row into a smaller modulus.
        let small = spot_he::modulus::Modulus::new((1u64 << 30) - 35); // 2^30-35 is prime
        let mut lifted = vec![0u64; n];
        push(
            "keyswitch_digit_lift",
            reps,
            time_us(reps, || {
                (arch::kernels().reduce)(&small, &mut lifted, &coeffs)
            }),
        );

        // Full rotation: Galois automorphism + key switch.
        let mut rng = StdRng::seed_from_u64(1);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
        let evaluator = Evaluator::new(&ctx);
        let values: Vec<u64> = (0..n as u64)
            .map(|i| i % ctx.params().plain_modulus())
            .collect();
        let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);

        // A 3×3 kernel's tap sum over nine operands, term by term
        // through the single-op API and as one inner product, timed
        // alternately.
        let operands: Vec<(Ciphertext, spot_he::poly::Poly)> = (0..9u64)
            .map(|tap| {
                let weights: Vec<u64> = values.iter().map(|v| (v + tap) % 97).collect();
                (
                    encryptor.encrypt(&encoder.encode(&values), &mut rng),
                    encoder.encode(&weights).lift(&ctx),
                )
            })
            .collect();
        let terms: Vec<(&Ciphertext, &spot_he::poly::Poly)> =
            operands.iter().map(|(ct, lifted)| (ct, lifted)).collect();
        let [term_by_term, lazy] = time_alternately_us(
            reps,
            [
                &mut || {
                    let mut terms = operands.iter();
                    let (first, lifted) = terms.next().expect("nine operands");
                    let mut acc = evaluator.multiply_lifted(first, lifted);
                    for (ct, lifted) in terms {
                        evaluator.add_inplace(&mut acc, &evaluator.multiply_lifted(ct, lifted));
                    }
                    std::hint::black_box(acc);
                },
                &mut || {
                    std::hint::black_box(evaluator.dot_lifted(&terms));
                },
            ],
        );
        push("mult_add9", reps, term_by_term);
        push("dot_lifted9", reps, lazy);

        // A paper-shaped layer's giant steps over one input ciphertext
        // (SPOT at 32 → 32): sixteen steps of eighteen terms over the
        // same eighteen tap positions, 288 distinct plaintexts, as one
        // sweep and as one inner product a step, timed alternately.
        // At the served level only: the plaintexts alone are 28 MB.
        if level == ParamLevel::N4096 {
            let positions: Vec<Ciphertext> = (0..18)
                .map(|_| encryptor.encrypt(&encoder.encode(&values), &mut rng))
                .collect();
            let weights: Vec<spot_he::poly::Poly> = (0..288u64)
                .map(|k| {
                    let weights: Vec<u64> = values.iter().map(|v| (v + k) % 97).collect();
                    encoder.encode(&weights).lift(&ctx)
                })
                .collect();
            let operands: Vec<&Ciphertext> = positions.iter().collect();
            let steps: Vec<Vec<(usize, &spot_he::poly::Poly)>> = (weights.chunks(18))
                .map(|step| step.iter().enumerate().collect())
                .collect();
            let stepwise: Vec<Vec<(&Ciphertext, &spot_he::poly::Poly)>> = (steps.iter())
                .map(|step| step.iter().map(|&(x, w)| (operands[x], w)).collect())
                .collect();
            let [swept, one_by_one] = time_alternately_us(
                reps / 5,
                [
                    &mut || {
                        std::hint::black_box(evaluator.dot_lifted_steps(&operands, &steps));
                    },
                    &mut || {
                        for terms in &stepwise {
                            std::hint::black_box(evaluator.dot_lifted(terms));
                        }
                    },
                ],
            );
            push("dot_steps16x18", reps / 5, swept);
            push("dot_lifted18x16", reps / 5, one_by_one);
        }

        // One key's `k` uniform polynomials from its seed, and the
        // `StdRng` loop that defines them, timed alternately.
        let seed: KeySeed = std::array::from_fn(|i| i as u8);
        let k = ctx.moduli_count();
        let mut residues = vec![0u64; k * k * n];
        let [lanes, stdrng] = time_alternately_us(
            reps,
            [
                &mut || {
                    std::hint::black_box(expand_seed(&ctx, &seed, k));
                },
                &mut || {
                    let mut prg = StdRng::from_seed(seed);
                    for (row, m) in residues
                        .chunks_exact_mut(n)
                        .zip(ctx.moduli().iter().cycle())
                    {
                        row.fill_with(|| prg.gen_range(0..m.value()));
                    }
                    std::hint::black_box(&residues);
                },
            ],
        );
        push("seed_expand3", reps, lanes);
        push("seed_expand3_stdrng", reps, stdrng);

        // The switch every result takes before it leaves the server,
        // its mask folded in, per polynomial (a result has two).
        let switch = ctx.result_switch().expect("more than two primes");
        let mask = encoder.encode(&values);
        let (mean, median, min) = time_us_on(
            reps,
            || ct.clone(),
            |ct| {
                std::hint::black_box(switch.switch_masked(ct, &mask));
            },
        );
        push("mod_switch", reps, (mean / 2.0, median / 2.0, min / 2.0));

        if level.supports_rotation() {
            let rot_reps = reps / 10;
            // Eight steps: the non-centre taps of a 3×3 kernel, each
            // with a key of its own as in a convolution.
            let elements = evaluator.galois_elements(&[1, 2, 3, 4, 5, 6, 7, 8], false);
            let gk = keygen.galois_keys(&elements, &mut rng);
            // One rotation; eight sharing one key-switch decomposition;
            // and the same eight tap positions from four of the keys —
            // rows and the centre row's columns from the input's hoist,
            // the other columns from one hoist per moved row. Timed
            // alternately: `bench_check` gates two ratios among them.
            let (rows, cols) = (&elements[..2], &elements[2..4]);
            let [single, hoisted8, composed] = time_alternately_us(
                rot_reps,
                [
                    &mut || {
                        std::hint::black_box(evaluator.rotate_rows(&ct, 1, &gk));
                    },
                    &mut || {
                        let hoisted = evaluator.hoist(&ct);
                        for &g in &elements {
                            std::hint::black_box(evaluator.rotate_hoisted(&hoisted, g, &gk));
                        }
                    },
                    &mut || {
                        let hoisted = evaluator.hoist(&ct);
                        for &g in cols {
                            std::hint::black_box(evaluator.rotate_hoisted(&hoisted, g, &gk));
                        }
                        for &row in rows {
                            let moved =
                                evaluator.hoist(&evaluator.rotate_hoisted(&hoisted, row, &gk));
                            for &g in cols {
                                std::hint::black_box(evaluator.rotate_hoisted(&moved, g, &gk));
                            }
                        }
                    },
                ],
            );
            push("rotate", rot_reps, single);
            push("rotate_hoisted8", rot_reps, hoisted8);
            push("taps3x3_composed", rot_reps, composed);
            // The part of a rotation that does not depend on the step.
            push(
                "ks_decompose",
                rot_reps,
                time_us(rot_reps, || {
                    std::hint::black_box(evaluator.hoist(&ct));
                }),
            );
        }
    }

    // One cached lane-MIMO convolution ciphertext (the serving hot path).
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(3);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
    let (c_in, c_out, h, w) = (8usize, 8usize, 8usize, 8usize);
    let blk = blocking(c_in, c_out);
    let layout = LaneLayout::new(ctx.degree() / 2, blk.lane_blocks, h, w);
    let kernel_t = spot_tensor::tensor::Kernel::random(c_out, c_in, 3, 3, 4, 11);
    let walk = blk.walk(layout, (c_in, c_out), (3, 3));
    let req = ConvRequest {
        walk: &walk,
        kernel: &kernel_t,
        cache_tag: 0,
    };
    let galois = Arc::new(keygen.galois_keys(&walk.elements(), &mut rng));
    let engine = HeConvEngine::new(&ctx, &galois, KernelCache::new());
    let encoder = BatchEncoder::new(&ctx);
    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 97).collect();
    let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);
    let conv = || {
        engine
            .conv_one_ct(&ct, &req)
            .expect("the key set is complete")
    };
    conv(); // warm the kernel cache
    let reps = 10;
    let timed = time_us(reps, || {
        std::hint::black_box(conv());
    });
    entries.push(Entry::new(
        ("conv_one_ct", "N4096", kernel),
        reps,
        timed,
        1.0,
    ));
}

/// Cross-image batching throughput: one full in-process SPOT conv
/// session carrying `B` images of a low-occupancy layer (2×8×8 → 4
/// channels fills well under half the N4096 slots), reported **per
/// image** (total session time / B). The rotation and key-switch
/// schedule runs once for the whole batch, so per-image time drops
/// roughly as 1/B.
fn measure_batched(kernel: &'static str, entries: &mut Vec<Entry>) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(5);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let kernel_t = spot_tensor::tensor::Kernel::random(4, 2, 3, 3, 3, 7);
    let backend = ExecBackend::Phased(Executor::serial());
    for (b, op) in [
        (1usize, "conv_batched_b1"),
        (2, "conv_batched_b2"),
        (4, "conv_batched_b4"),
    ] {
        let inputs: Vec<Tensor> = (0..b as u64)
            .map(|i| Tensor::random(2, 8, 8, 5, 9 + i))
            .collect();
        let spec = LayerSpec::for_layer(
            SchemeKind::Spot,
            &inputs[0],
            &kernel_t,
            1,
            (4, 4),
            PatchMode::Tweaked,
        );
        let reps = 5;
        let timed = time_us(reps, || {
            let mut r = StdRng::seed_from_u64(11);
            std::hint::black_box(
                run_in_process(&ctx, &keygen, spec, &inputs, &kernel_t, &backend, &mut r)
                    .expect("batched conv session"),
            );
        });
        entries.push(Entry::new((op, "N4096", kernel), reps, timed, b as f64));
    }
}

/// The tiny client's per-ciphertext and per-key costs around the HE
/// math: the wire codec both ways (the validated readers, as the
/// session layer calls them) and decryption. Only `decrypt` touches a
/// dispatched kernel (its NTTs), so one pass under the production
/// dispatch is the whole story.
///
/// Returns the serialised lengths [`RATIOS`] divides, as
/// `(name, level, bytes)`: a one-key blob (`galois_key`) and its `k`
/// packed digit polynomials (`digit_polys`, the half of a rotation key
/// no seed can replace), and an uploaded ciphertext (`seeded_ct`) and
/// a full-form ciphertext of the level (`ct`).
fn measure_client_side(
    kernel: &'static str,
    entries: &mut Vec<Entry>,
) -> Vec<(&'static str, &'static str, f64)> {
    let mut byte_counts = Vec::new();
    for (level, level_name, reps) in [
        (ParamLevel::N4096, "N4096", 100usize),
        (ParamLevel::N8192, "N8192", 50),
    ] {
        let ctx = Context::new(EncryptionParams::new(level));
        let mut rng = StdRng::seed_from_u64(13);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
        let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
        let evaluator = Evaluator::new(&ctx);
        let values: Vec<u64> = (0..ctx.degree() as u64)
            .map(|i| i % ctx.params().plain_modulus())
            .collect();
        let plain = encoder.encode(&values);
        let ct = encryptor.encrypt(&plain, &mut rng);
        let ct_blob = ct.to_bytes();
        // An upload: encrypted at the result primes, read back there and
        // lifted to the full modulus, as a session does.
        let rctx = ctx.result_context();
        let uploader = SymmetricEncryptor::new(rctx, keygen.secret_key().restricted_to(rctx));
        let switch = ctx
            .result_switch()
            .expect("a result switch at N4096 and N8192");
        let seeded = uploader.encrypt(&plain, &mut rng);
        let seeded_blob = seeded.to_bytes();
        let keys = 4usize;
        let elements = evaluator.galois_elements(&[1, 2, 3, 4], false);
        let gk = keygen.galois_keys(&elements, &mut rng);
        assert_eq!(gk.len(), keys);
        let gk_blob = galois_keys_to_bytes(&gk);
        let one_key = galois_keys_to_bytes(&keygen.galois_keys(&elements[..1], &mut rng));
        for (name, bytes) in [
            ("seeded_ct", seeded_blob.len()),
            ("ct", ct_blob.len()),
            ("galois_key", one_key.len()),
            (
                "digit_polys",
                ctx.moduli_count() * ctx.params().poly_bytes(),
            ),
        ] {
            byte_counts.push((name, level_name, bytes as f64));
        }

        let mut push = |op, reps, per: usize, timed| {
            entries.push(Entry::new(
                (op, level_name, kernel),
                reps,
                timed,
                per as f64,
            ))
        };
        push(
            "ct_to_bytes",
            reps,
            1,
            time_us(reps, || {
                std::hint::black_box(ct.to_bytes());
            }),
        );
        push(
            "ct_from_bytes",
            reps,
            1,
            time_us(reps, || {
                std::hint::black_box(
                    Ciphertext::try_from_bytes(&ctx, &ct_blob).expect("own ciphertext"),
                );
            }),
        );
        push(
            "encrypt_seeded",
            reps,
            1,
            time_us(reps, || {
                std::hint::black_box(uploader.encrypt(&plain, &mut rng));
            }),
        );
        push(
            "ct_seeded_bytes",
            reps,
            1,
            time_us(reps, || {
                std::hint::black_box(seeded.to_bytes());
            }),
        );
        push(
            "ct_from_seeded_bytes",
            reps,
            1,
            time_us(reps, || {
                let read = Ciphertext::try_from_seeded_bytes(rctx, &seeded_blob);
                std::hint::black_box(switch.lift(&ctx, read.expect("own upload")));
            }),
        );
        push(
            "galois_keygen",
            reps / 2,
            keys,
            time_us(reps / 2, || {
                std::hint::black_box(keygen.galois_keys(&elements, &mut rng));
            }),
        );
        push(
            "galois_key_bytes",
            reps / 2,
            keys,
            time_us(reps / 2, || {
                for &g in &elements {
                    std::hint::black_box(keygen.galois_key_blob(g, &mut rng));
                }
            }),
        );
        push(
            "galois_serialize",
            reps / 2,
            keys,
            time_us(reps / 2, || {
                std::hint::black_box(galois_keys_to_bytes(&gk));
            }),
        );
        push(
            "galois_deserialize",
            reps / 2,
            keys,
            time_us(reps / 2, || {
                std::hint::black_box(galois_keys_from_bytes(&ctx, &gk_blob).expect("own keys"));
            }),
        );
        push(
            "decrypt",
            reps,
            1,
            time_us(reps, || {
                std::hint::black_box(decryptor.decrypt(&ct));
            }),
        );
        // What the client decrypts of a result: the masked result at
        // the level's first two primes, under the row prefix of its key.
        let rctx = ctx.result_context();
        let result = evaluator.mask_result(ct.clone(), &plain);
        let result_decryptor = Decryptor::new(rctx, keygen.secret_key().restricted_to(rctx));
        let mut decrypt_result = || {
            std::hint::black_box(result_decryptor.decrypt(&result));
        };
        if level != ParamLevel::N4096 {
            push("decrypt_result", reps, 1, time_us(reps, decrypt_result));
            continue;
        }
        // A coefficient-packed result as it travels: `c1` whole and `c0`
        // at 64 positions (TinyCnn conv1's 8×8 output pixels under
        // Cheetah), read back and decrypted there only.
        let positions: Vec<usize> = (0..8)
            .flat_map(|y| (0..8).map(move |x| (y + 1) * 10 + x + 1))
            .collect();
        let sparse = evaluator.mask_result_sparse(ct.clone(), &plain, &positions);
        let sparse_blob = sparse.to_bytes();
        push(
            "ct_from_sparse_bytes64",
            reps,
            1,
            time_us(reps, || {
                std::hint::black_box(
                    SparseCiphertext::try_from_bytes(rctx, &sparse_blob, &positions)
                        .expect("own result"),
                );
            }),
        );
        // Alternated, since `bench_check` gates their ratio.
        let [whole, sparse] = time_alternately_us(
            reps,
            [&mut decrypt_result, &mut || {
                std::hint::black_box(result_decryptor.decrypt_sparse(&sparse));
            }],
        );
        push("decrypt_result", reps, 1, whole);
        push("decrypt_result_sparse64", reps, 1, sparse);
    }
    byte_counts
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    spot_trace::json::escape_into(&mut out, s);
    out
}

fn emit_json(dispatched: &str, entries: &[Entry], byte_counts: &[(&str, &str, f64)]) {
    let avail: Vec<String> = (arch::available().iter())
        .map(|k| format!("\"{}\"", k.name))
        .collect();
    println!("{{");
    println!("  \"schema\": \"spot-bench-heops/v1\",");
    println!(
        "  \"generated_by\": \"cargo run --release -p spot-bench --bin bench_heops -- --json\","
    );
    println!(
        "  \"caveats\": \"Measured on a single CPU core inside a shared container; \
         absolute times are noisy and machine-dependent. Compare kernels within one \
         file only — both columns come from the same run and process. \
         min_us is the more stable statistic on shared hardware.\","
    );
    println!("  \"host\": {{");
    println!("    \"arch\": \"{}\",", json_escape(std::env::consts::ARCH));
    println!("    \"available_kernels\": [{}],", avail.join(", "));
    println!("    \"dispatched\": \"{}\"", json_escape(dispatched));
    println!("  }},");
    println!("  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        println!(
            "    {{\"op\": \"{}\", \"level\": \"{}\", \"kernel\": \"{}\", \
             \"reps\": {}, \"mean_us\": {:.3}, \"median_us\": {:.3}, \"min_us\": {:.3}}}{}",
            e.op,
            e.level,
            e.kernel,
            e.reps,
            e.mean_us,
            e.median_us,
            e.min_us,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    println!("  ],");
    // Scalar-vs-dispatched ratios (scalar min / simd min), per op+level.
    let lines: Vec<String> = (entries.iter().filter(|e| e.kernel != "scalar"))
        .filter_map(|e| {
            let s = (entries.iter())
                .find(|s| s.kernel == "scalar" && s.op == e.op && s.level == e.level)?;
            let speedup = s.min_us / e.min_us;
            Some(format!("    \"{}/{}\": {speedup:.2}", e.op, e.level))
        })
        .collect();
    println!("  \"speedup_scalar_over\": \"min_us ratios: scalar / dispatched\",");
    println!("  \"speedups\": {{");
    println!("{}", lines.join(",\n"));
    println!("  }},");
    let measured = |side, level: &str| match side {
        Quantity::MinUs(op, times) => (entries.iter())
            .find(|e| e.kernel == dispatched && e.op == op && e.level == level)
            .map(|e| times * e.min_us),
        Quantity::Bytes(name) => (byte_counts.iter())
            .find(|&&(n, l, _)| n == name && l == level)
            .map(|&(_, _, bytes)| bytes),
    };
    let lines: Vec<String> = (RATIOS.iter())
        .flat_map(|row| row.levels.iter().map(move |level| (row, level)))
        .filter_map(|(row, level)| {
            let value = row.format(row.value(level, measured)?);
            Some(format!("    \"{}/{level}\": {value}", row.name))
        })
        .collect();
    let bytes = RATIOS
        .iter()
        .filter(|row| matches!(row.of, Quantity::Bytes(_)));
    let bytes: Vec<&str> = bytes.map(|row| row.name).collect();
    println!(
        "  \"ratios_of\": \"min_us ratios within this run, dispatched kernels; \
         serialised byte counts for {}\",",
        bytes.join(" and ")
    );
    println!("  \"ratios\": {{");
    println!("{}", lines.join(",\n"));
    println!("  }}");
    println!("}}");
}

fn emit_table(entries: &[Entry]) {
    println!(
        "{:<22} {:<6} {:<11} {:>8} {:>12} {:>12} {:>12}",
        "op", "level", "kernel", "reps", "mean_us", "median_us", "min_us"
    );
    for e in entries {
        println!(
            "{:<22} {:<6} {:<11} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            e.op, e.level, e.kernel, e.reps, e.mean_us, e.median_us, e.min_us
        );
    }
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // Resolve the normal startup dispatch first so the file records what
    // production would pick on this host.
    let dispatched = arch::active_name();

    let mut entries = Vec::new();
    for k in ["scalar", dispatched] {
        arch::force(k).expect("backend reported available");
        measure_kernel(k, &mut entries);
        if k == dispatched {
            break; // dispatched == scalar: one pass is the whole story
        }
    }
    arch::force(dispatched).expect("restore dispatched backend");
    // Batching amortization is a protocol property, not a kernel one:
    // measure it once under the production dispatch.
    measure_batched(dispatched, &mut entries);
    let byte_counts = measure_client_side(dispatched, &mut entries);

    if json {
        emit_json(dispatched, &entries, &byte_counts);
    } else {
        emit_table(&entries);
    }
}
