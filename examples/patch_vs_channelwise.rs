//! Head-to-head on real hardware (this machine, real HE): SPOT's
//! structure patching versus channel-wise packing versus Cheetah's
//! coefficient encoding on the same convolution — wall-clock time,
//! operation counts, and ciphertext counts.
//!
//! Unlike the simulator-driven tables, everything here is actually
//! executed under BFV, so it doubles as a cross-check that all three
//! schemes produce identical (correct) results.
//!
//! Run with: `cargo run --release --example patch_vs_channelwise`

use rand::SeedableRng;
use spot::core::executor::Executor;
use spot::core::patching::PatchMode;
use spot::core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot::he::prelude::*;
use spot::tensor::{conv2d, Kernel, Tensor};
use std::time::Instant;

fn main() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let keygen = KeyGenerator::new(&ctx, &mut rng);

    // A scaled-down ResNet-style layer that fits real HE comfortably.
    let input = Tensor::random(16, 16, 16, 8, 21);
    let kernel = Kernel::random(32, 16, 3, 3, 4, 22);
    let expected = conv2d(&input, &kernel, 1);
    println!("layer: 16x16, 16 -> 32 channels, 3x3 kernel, N = 4096\n");
    println!(
        "{:<28} {:>8} {:>7} {:>7} {:>7} {:>6} {:>6}",
        "scheme", "time", "Mult", "Rot", "Add", "in-ct", "out-ct"
    );

    let backend = ExecBackend::Phased(Executor::serial());
    for (label, scheme, mode) in [
        (
            "channel-wise (CrypTFlow2)",
            SchemeKind::Channelwise,
            PatchMode::Vanilla,
        ),
        (
            "coefficient (Cheetah)",
            SchemeKind::Cheetah,
            PatchMode::Vanilla,
        ),
        (
            "SPOT (vanilla patching)",
            SchemeKind::Spot,
            PatchMode::Vanilla,
        ),
        (
            "SPOT (overlap tweaking)",
            SchemeKind::Spot,
            PatchMode::Tweaked,
        ),
    ] {
        let spec = LayerSpec::for_layer(scheme, &input, &kernel, 1, (4, 4), mode);
        let inputs = std::slice::from_ref(&input);
        let t0 = Instant::now();
        let res = run_in_process(&ctx, &keygen, spec, inputs, &kernel, &backend, &mut rng)
            .expect("in-process session")
            .into_result();
        let elapsed = t0.elapsed();
        assert_eq!(res.reconstruct(), expected);
        println!(
            "{:<28} {:>7.2}s {:>7} {:>7} {:>7} {:>6} {:>6}",
            label,
            elapsed.as_secs_f64(),
            res.counts.mult_plain,
            res.counts.rotate,
            res.counts.add,
            res.input_cts,
            res.output_cts
        );
    }

    println!("\nall four secure results equal the plaintext convolution.");
    println!(
        "note: wall-clock times here reflect THIS machine's single-core BFV;\n\
         the paper-shape comparisons (device scaling, threading, links) come\n\
         from the calibrated simulator — see crates/bench."
    );
}
