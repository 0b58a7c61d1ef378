//! Thread-count determinism: every secure convolution scheme must
//! produce **bit-identical** results whether the server's parallel conv
//! executor runs on one thread or eight. The protocol draws all
//! randomness on the calling thread in a fixed order; the parallel
//! phase is pure, and outputs are reassembled in job order — so shares,
//! op counts, and ciphertext tallies must match exactly, not just
//! reconstruct to the same plaintext.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::core::channelwise::SecureConvResult;
use spot::core::executor::Executor;
use spot::core::patching::PatchMode;
use spot::core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot::he::prelude::*;
use spot::tensor::{conv2d, Kernel, Tensor};
use std::sync::Arc;

fn ctx() -> Arc<spot::he::context::Context> {
    spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096))
}

/// Runs the layer under a fresh deterministic rng/keygen per thread
/// count and asserts the two results are bit-identical in every field.
fn assert_identical(
    seed: u64,
    scheme: SchemeKind,
    input: &Tensor,
    kernel: &Kernel,
    patch: (usize, usize),
    mode: PatchMode,
) -> SecureConvResult {
    let ctx = ctx();
    let run = |threads: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let spec = LayerSpec::for_layer(scheme, input, kernel, 1, patch, mode);
        let backend = ExecBackend::Phased(Executor::new(threads));
        let inputs = std::slice::from_ref(input);
        run_in_process(&ctx, &keygen, spec, inputs, kernel, &backend, &mut rng)
            .expect("in-process session")
            .into_result()
    };
    let serial = run(1);
    let parallel = run(8);
    assert_eq!(serial.client_share, parallel.client_share);
    assert_eq!(serial.server_share, parallel.server_share);
    assert_eq!(serial.counts, parallel.counts);
    assert_eq!(serial.input_cts, parallel.input_cts);
    assert_eq!(serial.output_cts, parallel.output_cts);
    assert_eq!(serial.modulus, parallel.modulus);
    serial
}

#[test]
fn spot_vanilla_is_thread_count_invariant() {
    let input = Tensor::random(4, 12, 12, 6, 11);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 12);
    let res = assert_identical(
        41,
        SchemeKind::Spot,
        &input,
        &kernel,
        (5, 5),
        PatchMode::Vanilla,
    );
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}

#[test]
fn spot_tweaked_is_thread_count_invariant() {
    let input = Tensor::random(4, 12, 12, 6, 21);
    let kernel = Kernel::random(8, 4, 3, 3, 4, 22);
    let res = assert_identical(
        42,
        SchemeKind::Spot,
        &input,
        &kernel,
        (4, 4),
        PatchMode::Tweaked,
    );
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}

#[test]
fn channelwise_is_thread_count_invariant() {
    let input = Tensor::random(8, 8, 8, 6, 31);
    let kernel = Kernel::random(4, 8, 3, 3, 4, 32);
    let res = assert_identical(
        43,
        SchemeKind::Channelwise,
        &input,
        &kernel,
        (0, 0),
        PatchMode::Vanilla,
    );
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}

#[test]
fn cheetah_is_thread_count_invariant() {
    let input = Tensor::random(16, 16, 16, 4, 51);
    let kernel = Kernel::random(4, 16, 3, 3, 3, 52);
    let res = assert_identical(
        44,
        SchemeKind::Cheetah,
        &input,
        &kernel,
        (0, 0),
        PatchMode::Vanilla,
    );
    assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
}
