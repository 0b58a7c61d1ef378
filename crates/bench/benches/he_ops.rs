//! Criterion benchmarks of the raw BFV primitives — the measured
//! counterpart of the paper's Table IV. Run with `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::heconv::{ConvRequest, HeConvEngine, KernelCache};
use spot_core::layout::LaneLayout;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot_core::spot::blocking;
use spot_he::prelude::*;
use spot_he::serial::{galois_keys_from_bytes, galois_keys_to_bytes};
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::Arc;

fn bench_level(c: &mut Criterion, level: ParamLevel) {
    let ctx = Context::new(EncryptionParams::new(level));
    let mut rng = StdRng::seed_from_u64(1);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let pk = keygen.public_key(&mut rng);
    let encoder = BatchEncoder::new(&ctx);
    let encryptor = Encryptor::new(&ctx, pk);
    let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
    let evaluator = Evaluator::new(&ctx);
    let values: Vec<u64> = (0..ctx.degree() as u64)
        .map(|i| i % ctx.params().plain_modulus())
        .collect();
    let pt = encoder.encode(&values);
    let lifted = pt.lift(&ctx);
    let ct = encryptor.encrypt(&pt, &mut rng);
    let ct2 = encryptor.encrypt(&pt, &mut rng);

    let mut group = c.benchmark_group(format!("he/{level}"));
    group.sample_size(10);
    group.bench_function("encrypt", |b| b.iter(|| encryptor.encrypt(&pt, &mut rng)));
    group.bench_function("decrypt", |b| b.iter(|| decryptor.decrypt(&ct)));
    group.bench_function("mult_plain", |b| {
        b.iter(|| evaluator.multiply_lifted(&ct, &lifted))
    });
    group.bench_function("add", |b| b.iter(|| evaluator.add(&ct, &ct2)));
    // A 3×3 kernel's tap sum: term by term, then as one inner product.
    let operands: Vec<(Ciphertext, spot_he::poly::Poly)> = (0..9u64)
        .map(|tap| {
            let weights: Vec<u64> = values.iter().map(|v| (v + tap) % 97).collect();
            (
                encryptor.encrypt(&pt, &mut rng),
                encoder.encode(&weights).lift(&ctx),
            )
        })
        .collect();
    group.bench_function("mult_add9", |b| {
        b.iter(|| {
            let mut terms = operands.iter();
            let (first, lifted) = terms.next().expect("nine operands");
            let mut acc = evaluator.multiply_lifted(first, lifted);
            for (ct, lifted) in terms {
                evaluator.add_inplace(&mut acc, &evaluator.multiply_lifted(ct, lifted));
            }
            acc
        })
    });
    let terms: Vec<(&Ciphertext, &spot_he::poly::Poly)> =
        operands.iter().map(|(ct, lifted)| (ct, lifted)).collect();
    group.bench_function("dot_lifted9", |b| b.iter(|| evaluator.dot_lifted(&terms)));
    if level.supports_rotation() {
        // Eight steps with a key each: a 3×3 kernel's non-centre taps.
        let elements = evaluator.galois_elements(&[1, 2, 3, 4, 5, 6, 7, 8], false);
        let gk = keygen.galois_keys(&elements, &mut rng);
        group.bench_function("rotate", |b| b.iter(|| evaluator.rotate_rows(&ct, 1, &gk)));
        group.bench_function("ks_decompose", |b| b.iter(|| evaluator.hoist(&ct)));
        group.bench_function("rotate_hoisted8", |b| {
            b.iter(|| {
                let hoisted = evaluator.hoist(&ct);
                for &g in &elements {
                    criterion::black_box(evaluator.rotate_hoisted(&hoisted, g, &gk));
                }
            })
        });
    }
    group.bench_function("encode", |b| b.iter(|| encoder.encode(&values)));
    group.finish();
}

/// The wire codec around one ciphertext and one Galois key — what the
/// tiny client pays per upload on top of `he/*/encrypt`, and the server
/// per ingest. `he/*/decrypt` is the matching download-side line.
fn bench_codec(c: &mut Criterion, level: ParamLevel) {
    let ctx = Context::new(EncryptionParams::new(level));
    let mut rng = StdRng::seed_from_u64(13);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let encoder = BatchEncoder::new(&ctx);
    let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
    let evaluator = Evaluator::new(&ctx);
    let ct = encryptor.encrypt(&encoder.encode(&[1, 2, 3]), &mut rng);
    let ct_blob = ct.to_bytes();
    let gk = keygen.galois_keys(&evaluator.galois_elements(&[1], false), &mut rng);
    let gk_blob = galois_keys_to_bytes(&gk);

    let mut group = c.benchmark_group(format!("codec/{level}"));
    group.sample_size(20);
    group.bench_function("ct_to_bytes", |b| b.iter(|| ct.to_bytes()));
    group.bench_function("ct_from_bytes", |b| {
        b.iter(|| Ciphertext::try_from_bytes(&ctx, &ct_blob).expect("own ciphertext"))
    });
    group.bench_function("galois_serialize_one_key", |b| {
        b.iter(|| galois_keys_to_bytes(&gk))
    });
    group.bench_function("galois_deserialize_one_key", |b| {
        b.iter(|| galois_keys_from_bytes(&ctx, &gk_blob).expect("own keys"))
    });
    group.finish();
}

/// Raw transform cost at each degree — the dominant term inside every
/// ciphertext operation, benchmarked in isolation so lazy-reduction
/// changes in the butterfly loops are directly visible.
fn bench_ntt(c: &mut Criterion, level: ParamLevel) {
    let ctx = Context::new(EncryptionParams::new(level));
    let n = ctx.degree();
    let tables = &ctx.ntt_tables()[0];
    let p = tables.modulus().value();
    let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9 + 17) % p).collect();

    let mut group = c.benchmark_group(format!("ntt/{level}"));
    group.sample_size(20);
    group.bench_function("forward", |b| {
        let mut a = coeffs.clone();
        b.iter(|| {
            tables.forward(&mut a);
        })
    });
    group.bench_function("inverse", |b| {
        let mut a = coeffs.clone();
        b.iter(|| {
            tables.inverse(&mut a);
        })
    });
    group.finish();
}

/// The kernel-dispatch hot loops below the NTT: pointwise residue-row
/// multiply and the key-switch digit lift (Barrett reduction into a
/// foreign modulus). Benchmarked per dispatched kernel table so
/// `SPOT_SIMD=off cargo bench` vs `cargo bench` isolates the SIMD win.
fn bench_kernel_loops(c: &mut Criterion, level: ParamLevel) {
    let ctx = Context::new(EncryptionParams::new(level));
    let n = ctx.degree();
    let tables = &ctx.ntt_tables()[0];
    let m = tables.modulus();
    let p = m.value();
    let a: Vec<u64> = (0..n as u64).map(|i| (i * 0x9e37_79b9 + 17) % p).collect();
    let b_row: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % p).collect();
    let kernels = spot_he::arch::kernels();

    let mut group = c.benchmark_group(format!("kernels/{}/{level}", kernels.name));
    group.sample_size(20);
    group.bench_function("pointwise_mul", |b| {
        let mut d = a.clone();
        b.iter(|| (kernels.pointwise_mul)(m, &mut d, &b_row))
    });
    group.bench_function("keyswitch_digit_lift", |b| {
        // The digit lift reduces a residue row into a *different* (here
        // smaller) modulus, exactly like Evaluator::hoist.
        let small = spot_he::modulus::Modulus::new((1u64 << 30) - 35);
        let mut d = vec![0u64; n];
        b.iter(|| (kernels.reduce)(&small, &mut d, &a))
    });
    group.finish();
}

/// Steady-state cost of one lane-MIMO convolution: every kernel
/// combination is already encoded and lifted in the engine's cache.
fn bench_conv_cache(c: &mut Criterion) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(3);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));

    let (c_in, c_out, h, w) = (8usize, 8usize, 8usize, 8usize);
    let blk = blocking(c_in, c_out);
    let layout = LaneLayout::new(ctx.degree() / 2, blk.lane_blocks, h, w);
    let kernel = Kernel::random(c_out, c_in, 3, 3, 4, 11);
    let walk = blk.walk(layout, (c_in, c_out), (3, 3));
    let req = ConvRequest {
        walk: &walk,
        kernel: &kernel,
        cache_tag: 0,
    };
    let galois = Arc::new(keygen.galois_keys(&walk.elements(), &mut rng));
    let engine = HeConvEngine::new(&ctx, &galois, KernelCache::new());

    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 97).collect();
    let encoder = BatchEncoder::new(&ctx);
    let ct = encryptor.encrypt(&encoder.encode(&values), &mut rng);

    let mut group = c.benchmark_group("conv/spot_8ch_8x8");
    group.sample_size(10);
    // Warm the cache outside the timed region: steady-state layers see
    // only hits.
    let conv = || {
        engine
            .conv_one_ct(&ct, &req)
            .expect("the key set is complete")
    };
    conv();
    group.bench_function("one_ct_cached", |b| b.iter(conv));
    group.finish();
}

/// End-to-end SPOT secure convolution at 1 vs 4 server threads — the
/// executor's parallel phase covers the per-ciphertext conv work, so
/// this shows the real (not simulated) scaling of the worker pool.
fn bench_executor_threads(c: &mut Criterion) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let input = Tensor::random(8, 12, 12, 6, 21);
    let kernel = Kernel::random(8, 8, 3, 3, 4, 22);
    let mut kg_rng = StdRng::seed_from_u64(9);
    let keygen = KeyGenerator::new(&ctx, &mut kg_rng);

    let spec = LayerSpec::for_layer(
        SchemeKind::Spot,
        &input,
        &kernel,
        1,
        (6, 6),
        PatchMode::Tweaked,
    );
    let inputs = std::slice::from_ref(&input);

    let mut group = c.benchmark_group("conv/spot_e2e_8ch_12x12");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let backend = ExecBackend::Phased(Executor::new(threads));
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(10);
                run_in_process(&ctx, &keygen, spec, inputs, &kernel, &backend, &mut rng)
            })
        });
    }
    group.finish();
}

fn he_ops(c: &mut Criterion) {
    bench_level(c, ParamLevel::N4096);
    bench_level(c, ParamLevel::N8192);
    bench_codec(c, ParamLevel::N4096);
    bench_codec(c, ParamLevel::N8192);
    bench_ntt(c, ParamLevel::N4096);
    bench_ntt(c, ParamLevel::N8192);
    bench_kernel_loops(c, ParamLevel::N4096);
    bench_kernel_loops(c, ParamLevel::N8192);
    bench_conv_cache(c);
    bench_executor_threads(c);
}

criterion_group!(benches, he_ops);
criterion_main!(benches);
