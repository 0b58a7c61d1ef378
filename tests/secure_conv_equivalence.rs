//! Cross-crate integration: every secure convolution scheme — channel-
//! wise (CrypTFlow2), coefficient-encoded (Cheetah), and SPOT with both
//! patch modes — must produce shares reconstructing to the exact
//! plaintext convolution, across channel regimes (`C_o > C_i`,
//! `C_o = C_i`, `C_o < C_i`), kernel sizes, and strides, under real BFV.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::core::channelwise::SecureConvResult;
use spot::core::executor::Executor;
use spot::core::patching::PatchMode;
use spot::core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot::core::stream::StreamConfig;
use spot::he::prelude::*;
use spot::tensor::{conv2d, Kernel, Tensor};
use std::sync::Arc;

fn ctx() -> Ctx {
    spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096))
}

type Ctx = Arc<spot::he::context::Context>;

fn run(
    ctx: &Ctx,
    keygen: &KeyGenerator,
    spec: LayerSpec,
    input: &Tensor,
    kernel: &Kernel,
    rng: &mut StdRng,
) -> SecureConvResult {
    let backend = ExecBackend::Phased(Executor::serial());
    let inputs = std::slice::from_ref(input);
    run_in_process(ctx, keygen, spec, inputs, kernel, &backend, rng)
        .expect("in-process session")
        .into_result()
}

/// One of the two baselines, single-threaded.
fn baseline(
    ctx: &Ctx,
    keygen: &KeyGenerator,
    scheme: SchemeKind,
    input: &Tensor,
    kernel: &Kernel,
    stride: usize,
    rng: &mut StdRng,
) -> SecureConvResult {
    let spec = LayerSpec::for_layer(scheme, input, kernel, stride, (0, 0), PatchMode::Vanilla);
    run(ctx, keygen, spec, input, kernel, rng)
}

/// SPOT with the given patch configuration, single-threaded.
fn spot_conv(
    ctx: &Ctx,
    keygen: &KeyGenerator,
    input: &Tensor,
    kernel: &Kernel,
    stride: usize,
    (patch, mode): ((usize, usize), PatchMode),
    rng: &mut StdRng,
) -> SecureConvResult {
    let spec = LayerSpec::for_layer(SchemeKind::Spot, input, kernel, stride, patch, mode);
    run(ctx, keygen, spec, input, kernel, rng)
}

proptest! {
    // Real-HE cases: keep small and few.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn all_schemes_agree_with_reference(
        ci_log in 1usize..4,
        co_log in 1usize..4,
        k in prop_oneof![Just(1usize), Just(3)],
        stride in 1usize..3,
        seed in 0u64..100,
    ) {
        let ci = 1 << ci_log;
        let co = 1 << co_log;
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(ci, 8, 8, 6, seed);
        let kernel = Kernel::random(co, ci, k, k, 4, seed + 1);
        let expected = conv2d(&input, &kernel, stride);

        let cw = baseline(&ctx, &keygen, SchemeKind::Channelwise, &input, &kernel, stride, &mut rng);
        prop_assert_eq!(cw.reconstruct(), expected.clone());

        let ch = baseline(&ctx, &keygen, SchemeKind::Cheetah, &input, &kernel, stride, &mut rng);
        prop_assert_eq!(ch.reconstruct(), expected.clone());
        prop_assert_eq!(ch.counts.rotate, 0);

        let sp = spot_conv(&ctx, &keygen, &input, &kernel, stride, ((4, 4), PatchMode::Tweaked), &mut rng);
        prop_assert_eq!(sp.reconstruct(), expected);
    }
}

#[test]
fn spot_shares_leak_nothing_obvious() {
    // The client share alone must look unrelated to the true output:
    // re-running with a different RNG changes the share but not the
    // reconstruction.
    let ctx = ctx();
    let mut rng1 = StdRng::seed_from_u64(1);
    let mut rng2 = StdRng::seed_from_u64(2);
    let kg1 = KeyGenerator::new(&ctx, &mut rng1);
    let kg2 = KeyGenerator::new(&ctx, &mut rng2);
    let input = Tensor::random(4, 8, 8, 6, 5);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 6);
    let a = spot_conv(
        &ctx,
        &kg1,
        &input,
        &kernel,
        1,
        ((4, 4), PatchMode::Tweaked),
        &mut rng1,
    );
    let b = spot_conv(
        &ctx,
        &kg2,
        &input,
        &kernel,
        1,
        ((4, 4), PatchMode::Tweaked),
        &mut rng2,
    );
    assert_ne!(a.client_share, b.client_share, "shares must be randomized");
    assert_eq!(a.reconstruct(), b.reconstruct());
}

#[test]
fn spot_vanilla_and_tweaked_agree() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(33);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(2, 10, 10, 6, 7);
    let kernel = Kernel::random(4, 2, 3, 3, 4, 8);
    let v = spot_conv(
        &ctx,
        &keygen,
        &input,
        &kernel,
        1,
        ((5, 5), PatchMode::Vanilla),
        &mut rng,
    );
    let t = spot_conv(
        &ctx,
        &keygen,
        &input,
        &kernel,
        1,
        ((5, 5), PatchMode::Tweaked),
        &mut rng,
    );
    assert_eq!(v.reconstruct(), t.reconstruct());
    // tweaking reduces total duplicated input footprint: fewer or equal cts
    assert!(
        t.input_cts <= v.input_cts + 4,
        "tweaked {} vs vanilla {}",
        t.input_cts,
        v.input_cts
    );
}

/// A seam class rides in the patches' last ciphertext where all its
/// pieces fit in the positions still free there: every class on 8×8
/// 2 → 4, the vertical strips alone on 12×12 8 → 8, the horizontal
/// strips alone on 8×19 8 → 8 (so the client puts its pieces back in
/// decomposition order), none on 16×16 32 → 32, and vanilla patching
/// has no seams. Every share still
/// reconstructs exactly, for one image and for a batch wider than the
/// layer's capacity, which runs in rounds (the last one partial), phased
/// and streamed.
#[test]
fn riding_seam_classes_reconstruct_exactly() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(90);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let tweaked = ((4, 4), PatchMode::Tweaked);
    let vanilla = ((4, 4), PatchMode::Vanilla);
    // (c_in, c_out, (h, w), patching, batch, rounds, input cts a round)
    let cases = [
        (2, 4, (8, 8), tweaked, 1, 1, 1),
        // 25 of 128 positions an image: capacity 5, rounds of 5 and 1.
        (2, 4, (8, 8), tweaked, 6, 2, 1),
        (8, 8, (12, 12), tweaked, 1, 1, 3),
        // 28 of 32 positions: capacity 1, where the parent refused 2.
        (8, 8, (12, 12), tweaked, 2, 2, 3),
        (8, 8, (8, 19), tweaked, 1, 1, 3),
        (32, 32, (16, 16), tweaked, 1, 1, 7),
        (2, 4, (8, 8), vanilla, 1, 1, 1),
    ];
    let backends = [
        ExecBackend::Phased(Executor::serial()),
        ExecBackend::Streaming(StreamConfig::new(Executor::new(2), 2)),
    ];
    for (seed, &(ci, co, (h, w), (patch, mode), batch, rounds, per_round)) in (100..).zip(&cases) {
        let inputs: Vec<Tensor> = (0..batch as u64)
            .map(|b| Tensor::random(ci, h, w, 6, seed + 10 * b))
            .collect();
        let kernel = Kernel::random(co, ci, 3, 3, 4, seed);
        let spec = LayerSpec::for_layer(SchemeKind::Spot, &inputs[0], &kernel, 1, patch, mode);
        for backend in &backends {
            let case = format!("{ci}->{co} on {h}x{w} {mode:?}, batch {batch}, {backend:?}");
            let out = run_in_process(&ctx, &keygen, spec, &inputs, &kernel, backend, &mut rng)
                .expect(&case);
            assert_eq!(out.results.len(), batch, "{case}");
            for (input, res) in inputs.iter().zip(&out.results) {
                assert_eq!(res.reconstruct(), conv2d(input, &kernel, 1), "{case}");
                assert_eq!(res.input_cts, rounds * per_round, "{case}");
            }
        }
    }
}

#[test]
fn non_square_and_padded_shapes() {
    // Non-power-of-two spatial dims and channel counts exercise padding.
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(44);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(3, 7, 9, 6, 9);
    let kernel = Kernel::random(5, 3, 3, 3, 4, 10);
    let expected = conv2d(&input, &kernel, 1);
    let cw = baseline(
        &ctx,
        &keygen,
        SchemeKind::Channelwise,
        &input,
        &kernel,
        1,
        &mut rng,
    );
    assert_eq!(cw.reconstruct(), expected);
    let sp = spot_conv(
        &ctx,
        &keygen,
        &input,
        &kernel,
        1,
        ((4, 4), PatchMode::Tweaked),
        &mut rng,
    );
    assert_eq!(sp.reconstruct(), expected);
}

#[test]
fn deep_channel_folding_co_much_less_than_ci() {
    // C_o << C_i exercises the concatenated-diagonal folding path.
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(55);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(16, 4, 4, 5, 11);
    let kernel = Kernel::random(2, 16, 3, 3, 3, 12);
    let expected = conv2d(&input, &kernel, 1);
    // Channel-wise packing holds all sixteen channels in one ciphertext
    // and returns the two outputs in one result, without folding.
    let scheme = SchemeKind::Channelwise;
    let cw = baseline(&ctx, &keygen, scheme, &input, &kernel, 1, &mut rng);
    assert_eq!(cw.reconstruct(), expected);
    let sp = spot_conv(
        &ctx,
        &keygen,
        &input,
        &kernel,
        1,
        ((4, 4), PatchMode::Tweaked),
        &mut rng,
    );
    assert_eq!(sp.reconstruct(), expected);
}

#[test]
fn wide_output_layer_takes_baby_steps_before_the_taps() {
    // C_o >> C_i: sixteen output groups make giant steps the dominant
    // rotation cost, so the BSGS split pre-rotates the input by a baby
    // step — the only regime where a convolution hoists more than its
    // column-swap versions.
    use spot::core::heconv::bsgs_split;
    use spot::core::spot::blocking;
    let blk = blocking(8, 128);
    let split = bsgs_split(blk.diagonals, blk.out_groups, 2, 9);
    assert_eq!(split, (2, 2), "baby and giant steps both in play");

    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(56);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(8, 4, 4, 5, 15);
    let kernel = Kernel::random(128, 8, 3, 3, 3, 16);
    let sp = spot_conv(
        &ctx,
        &keygen,
        &input,
        &kernel,
        1,
        ((4, 4), PatchMode::Tweaked),
        &mut rng,
    );
    assert_eq!(sp.reconstruct(), conv2d(&input, &kernel, 1));
    // One column swap, a baby step and eight taps on each of the two
    // versions' two positions, one giant step per output group.
    assert_eq!(sp.counts.rotate, 1 + 2 * (1 + 2 * 8) + 16);
}

#[test]
fn spot_works_at_n8192() {
    // Exercise a bigger parameter level end to end (5 RNS primes,
    // deeper key-switching) — SPOT's cost-aware planner sometimes picks
    // this level for channel-heavy layers.
    let ctx8 = spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N8192));
    let mut rng = StdRng::seed_from_u64(77);
    let keygen = KeyGenerator::new(&ctx8, &mut rng);
    let input = Tensor::random(4, 8, 8, 6, 13);
    let kernel = Kernel::random(8, 4, 3, 3, 4, 14);
    let sp = spot_conv(
        &ctx8,
        &keygen,
        &input,
        &kernel,
        1,
        ((8, 4), PatchMode::Tweaked),
        &mut rng,
    );
    assert_eq!(sp.reconstruct(), conv2d(&input, &kernel, 1));
}

/// A single-channel input, under SPOT and under channel-wise packing.
/// SPOT splits the channels across the lanes like any other layer's,
/// with lane 1 empty. Channel-wise packing keeps the one channel in lane
/// 0 alone, one output channel a result, at the smallest level where a
/// channel fits a lane.
fn single_channel(size: usize, c_out: usize, seed: u64) {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(seed);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(1, size, size, 6, seed + 1);
    let kernel = Kernel::random(c_out, 1, 3, 3, 4, seed + 2);
    let expected = conv2d(&input, &kernel, 1);
    let sp = spot_conv(
        &ctx,
        &keygen,
        &input,
        &kernel,
        1,
        ((4, 4), PatchMode::Tweaked),
        &mut rng,
    );
    assert_eq!(sp.reconstruct(), expected);

    let level = if size * size <= 2048 {
        ParamLevel::N4096
    } else {
        ParamLevel::N8192
    };
    let ctx = spot::he::context::Context::new(EncryptionParams::new(level));
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let scheme = SchemeKind::Channelwise;
    let cw = baseline(&ctx, &keygen, scheme, &input, &kernel, 1, &mut rng);
    assert_eq!(cw.reconstruct(), expected);
    assert_eq!(
        (cw.input_cts, cw.output_cts),
        (1, c_out.next_power_of_two())
    );
}

#[test]
fn single_channel_input_lane_contained_path() {
    single_channel(8, 4, 88);
}

/// 169 patches: more than the 128 positions of one ciphertext, so the
/// main class spills into a second. A lane-major position model put
/// the spill-over pieces in lane 1, which the channel maps leave empty
/// for one channel, and those pieces convolved to zero.
#[test]
fn single_channel_input_with_more_patches_than_a_ciphertext_holds() {
    single_channel(40, 2, 89);
}

/// One output channel folds, and every class past the first ciphertext's
/// positions still reconstructs.
#[test]
fn single_channel_input_to_a_single_channel() {
    single_channel(64, 1, 90);
}
