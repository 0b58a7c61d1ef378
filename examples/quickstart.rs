//! Quickstart: one secure SPOT convolution, end to end.
//!
//! The client encrypts a small feature map as overlap-tweaked patches,
//! the server convolves each arriving ciphertext independently and
//! returns masked shares, and the client assembles its share of the
//! result — which, combined with the server's share, equals the
//! plaintext convolution exactly.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::SeedableRng;
use spot::core::executor::Executor;
use spot::core::patching::PatchMode;
use spot::core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot::he::prelude::*;
use spot::tensor::{conv2d, Kernel, Tensor};

fn main() {
    // 1. Cryptographic setup at the smallest rotation-capable level.
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    println!(
        "BFV context: N = {}, |q| = {} bits, t = {}",
        ctx.degree(),
        ctx.params().level().total_coeff_bits(),
        ctx.params().plain_modulus()
    );

    // 2. The client's private input and the server's private model.
    let input = Tensor::random(8, 16, 16, 10, 7);
    let kernel = Kernel::random(16, 8, 3, 3, 5, 8);
    println!(
        "input: {}x{}x{}, kernel: {} -> {} channels, 3x3",
        input.channels(),
        input.height(),
        input.width(),
        kernel.in_channels(),
        kernel.out_channels()
    );

    // 3. SPOT secure convolution: 4x4 patches, overlap tweaking.
    //    Client and server run as two session halves over an in-process
    //    transport, exchanging the real serialized frames.
    let spec = LayerSpec::for_layer(
        SchemeKind::Spot,
        &input,
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
    );
    let backend = ExecBackend::Phased(Executor::serial());
    let inputs = std::slice::from_ref(&input);
    let result = run_in_process(&ctx, &keygen, spec, inputs, &kernel, &backend, &mut rng)
        .expect("in-process session")
        .into_result();
    println!(
        "SPOT: {} input ciphertexts -> {} output ciphertexts",
        result.input_cts, result.output_cts
    );
    println!(
        "server HE ops: {} Mult, {} Rot, {} Add",
        result.counts.mult_plain, result.counts.rotate, result.counts.add
    );

    // 4. Verify against the plaintext reference.
    let expected = conv2d(&input, &kernel, 1);
    assert_eq!(result.reconstruct(), expected);
    println!("reconstructed shares match the plaintext convolution — OK");
}
