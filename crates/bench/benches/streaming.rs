//! Criterion comparison of the phased two-phase driver (encrypt all →
//! convolve all) against the streaming pipeline runtime on a real
//! layer, for every scheme. The streamed SPOT run overlaps client
//! encryption with server convolution, so its wall time approaches
//! `max(client, server)` instead of their sum.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::inference::ExecBackend;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, LayerSpec, SchemeKind};
use spot_core::stream::StreamConfig;
use spot_he::prelude::*;
use spot_tensor::tensor::{Kernel, Tensor};

fn streaming_vs_phased(c: &mut Criterion) {
    let ctx = spot_he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(2);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(8, 16, 16, 6, 1);
    let kernel = Kernel::random(8, 8, 3, 3, 4, 2);
    let threads = 4;
    let channel_capacity = 3; // tiny-client ciphertext budget

    let mut group = c.benchmark_group("streaming_vs_phased/16x16x8->8");
    group.sample_size(10);
    let inputs = std::slice::from_ref(&input);
    for scheme in SchemeKind::ALL {
        let spec = LayerSpec::for_layer(scheme, &input, &kernel, 1, (4, 4), PatchMode::Tweaked);
        group.bench_function(format!("{}/phased", scheme.label()), |b| {
            b.iter(|| {
                run_in_process(
                    &ctx,
                    &keygen,
                    spec,
                    inputs,
                    &kernel,
                    &ExecBackend::Phased(Executor::new(threads)),
                    &mut rng,
                )
            })
        });
        group.bench_function(format!("{}/streamed", scheme.label()), |b| {
            b.iter(|| {
                run_in_process(
                    &ctx,
                    &keygen,
                    spec,
                    inputs,
                    &kernel,
                    &ExecBackend::Streaming(StreamConfig::new(
                        Executor::new(threads),
                        channel_capacity,
                    )),
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, streaming_vs_phased);
criterion_main!(benches);
