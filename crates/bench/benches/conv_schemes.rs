//! Criterion benchmarks of the three secure-convolution schemes under
//! real HE on a scaled-down layer — the measured counterpart of the
//! per-block microbenchmarks (Tables VII–IX run through the calibrated
//! simulator; this measures the actual implementations).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot_he::prelude::*;
use spot_tensor::tensor::{Kernel, Tensor};

fn conv_schemes(c: &mut Criterion) {
    let ctx = spot_he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(2);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(8, 8, 8, 6, 1);
    let kernel = Kernel::random(8, 8, 3, 3, 4, 2);

    let mut group = c.benchmark_group("secure-conv/8x8x8->8");
    group.sample_size(10);
    let backend = ExecBackend::Phased(Executor::serial());
    let inputs = std::slice::from_ref(&input);
    for (name, scheme) in [
        ("channelwise", SchemeKind::Channelwise),
        ("cheetah", SchemeKind::Cheetah),
        ("spot-tweaked", SchemeKind::Spot),
    ] {
        let spec = LayerSpec::for_layer(scheme, &input, &kernel, 1, (4, 4), PatchMode::Tweaked);
        group.bench_function(name, |b| {
            b.iter(|| run_in_process(&ctx, &keygen, spec, inputs, &kernel, &backend, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(benches, conv_schemes);
criterion_main!(benches);
