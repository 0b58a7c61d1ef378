//! Ablation benchmarks over the design choices DESIGN.md calls out,
//! driven through the (cheap) planner + simulator:
//!
//! * overlap tweaking vs vanilla patching,
//! * patch-size sweep,
//! * parameter-level sweep,
//! * server thread-count sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use spot_core::inference::plan_conv_at_level;
use spot_core::patching::PatchMode;
use spot_core::session::SchemeKind;
use spot_core::{select, spot};
use spot_he::params::ParamLevel;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::sim::{simulate_conv, SimConfig};
use spot_tensor::models::ConvShape;

fn ablations(c: &mut Criterion) {
    let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
    let cfg = SimConfig::with_client(DeviceProfile::iot_k27());

    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);

    // Overlap tweaking vs vanilla patching (same level).
    for mode in [PatchMode::Tweaked, PatchMode::Vanilla] {
        let label = match mode {
            PatchMode::Tweaked => "overlap/tweaked",
            PatchMode::Vanilla => "overlap/vanilla",
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let choice = select::select_patch(&shape, ParamLevel::N8192, mode).unwrap();
                let plan = spot::plan(&shape, ParamLevel::N8192, choice.patch, mode, true);
                simulate_conv(&plan, &cfg).timing.total_s
            })
        });
    }

    // Patch-size sweep at a fixed level.
    for patch in [(4usize, 4usize), (8, 4), (8, 8)] {
        group.bench_function(format!("patch/{}x{}", patch.0, patch.1), |b| {
            b.iter(|| {
                let plan = spot::plan(&shape, ParamLevel::N8192, patch, PatchMode::Tweaked, true);
                simulate_conv(&plan, &cfg).timing.total_s
            })
        });
    }

    // Parameter-level sweep for SPOT.
    for level in [ParamLevel::N4096, ParamLevel::N8192, ParamLevel::N16384] {
        group.bench_function(format!("level/{level}"), |b| {
            b.iter(|| {
                plan_conv_at_level(&shape, SchemeKind::Spot, level, true)
                    .map(|p| simulate_conv(&p, &cfg).timing.total_s)
            })
        });
    }

    // Server thread-count sweep.
    for threads in [1usize, 4, 16] {
        group.bench_function(format!("server-threads/{threads}"), |b| {
            b.iter(|| {
                let mut cfg = SimConfig::with_client(DeviceProfile::iot_k27());
                cfg.server.threads = threads;
                let p =
                    plan_conv_at_level(&shape, SchemeKind::Spot, ParamLevel::N4096, true).unwrap();
                simulate_conv(&p, &cfg).timing.total_s
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablations);
criterion_main!(benches);
