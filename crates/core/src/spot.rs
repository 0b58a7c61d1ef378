//! The SPOT secure convolution: structure patching pipelining with patch
//! overlap tweaking (Sec. III-A/III-B of the paper).
//!
//! The input is sliced into pieces spanning **all** input channels
//! ([`crate::patching`]); every piece — main patches and the tweaked
//! scheme's auxiliary seam pieces — is packed into ciphertext lanes in
//! channel-major order and convolved *independently* on the server
//! ([`crate::heconv`]): one input ciphertext suffices to produce final
//! output values for its pieces, so results stream back to the client
//! with no cross-ciphertext stall. The client assembles its share of the
//! convolution arithmetically (add patch and corner shares, subtract
//! strip shares) exactly as in Fig. 10.
//!
//! Kernel blocking follows Fig. 7 ([`blocking`]): when `C_o ≥ C_i` the
//! kernels split into `C_o/C_i` blocks of size `C_i` (one output
//! ciphertext each); when `C_o < C_i` the diagonals are concatenated
//! across `C_i` and the partial sums folded with `log2(C_i/C_o)`
//! rotate-and-add steps.
//!
//! The packing itself is the one tiled packing ([`crate::tile`]) with
//! SPOT's decomposition as the tile's pieces and all of a piece's
//! channels in one group; this module supplies the rule and the plan.

use crate::error::SpotError;
use crate::layout::next_pow2;
use crate::patching::PatchMode;
use crate::tile::{Blocking, Cut, Packing};
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::{ConvPlan, OutputDependency};
use spot_tensor::models::ConvShape;

/// SPOT's alignment rule for `c_in → c_out` channels (Fig. 7): a
/// piece's channels, padded to at least two, split across both lanes —
/// which gives each patch the full `N / C_i` slot budget of the paper's
/// Table VI (lane 1 empty for a single-channel input) — in one channel
/// group, aligned baby-step/giant-step. When `C_o ≥ C_i` the kernels
/// split into `C_o/C_i` blocks of size `C_i` (one output ciphertext
/// each); when `C_o < C_i` the diagonals are concatenated across `C_i`
/// and the partial sums folded with `log2(C_i/C_o)` rotate-and-add
/// steps, the cross-lane half covered by the column-swapped products.
pub fn blocking(c_in: usize, c_out: usize) -> Blocking {
    let ci_pad = next_pow2(c_in).max(2);
    let co_pad = next_pow2(c_out);
    let lane_blocks = ci_pad / 2;
    let mut fold_steps = Vec::new();
    let mut step = lane_blocks / 2;
    while co_pad < ci_pad && step >= co_pad {
        fold_steps.push(step);
        step /= 2;
    }
    Blocking {
        lanes: 2,
        lane_blocks,
        in_groups: 1,
        out_groups: (co_pad / ci_pad).max(1),
        out_period: co_pad.min(ci_pad),
        diagonals: co_pad.min(lane_blocks),
        fold_steps,
        bsgs: true,
    }
}

/// The layer planned under SPOT: its patches and seam pieces, all of a
/// piece's channels in one group.
pub(crate) fn packing(
    shape: &ConvShape,
    level: ParamLevel,
    patch: (usize, usize),
    mode: PatchMode,
) -> Result<Packing, SpotError> {
    let blk = blocking(shape.c_in, shape.c_out);
    Packing::new(shape, level, blk, Cut::Patches(patch, mode))
}

/// Builds the SPOT execution plan for the simulator: the plan of the
/// layer's packing, the one the wire runs. The server's work is its
/// ciphertext classes' walks, each taken once per ciphertext of the
/// class (a seam class riding in the patches' last ciphertext runs no
/// walk of its own), and one masking subtraction per result.
///
/// # Panics
///
/// Panics where the wire would refuse the layer (a patch no larger than
/// the overlap, pieces that do not fit a lane, too many ciphertexts).
pub fn plan(
    shape: &ConvShape,
    level: ParamLevel,
    patch: (usize, usize),
    mode: PatchMode,
    with_relu: bool,
) -> ConvPlan {
    try_plan(shape, level, patch, mode, with_relu)
        .unwrap_or_else(|e| panic!("SPOT cannot plan {shape} at {level}: {e}"))
}

/// [`plan`], or the wire's refusal of the layer.
pub(crate) fn try_plan(
    shape: &ConvShape,
    level: ParamLevel,
    patch: (usize, usize),
    mode: PatchMode,
    with_relu: bool,
) -> Result<ConvPlan, SpotError> {
    let packing = packing(shape, level, patch, mode)?;
    let facts = &packing.facts;
    let mut input_ops = packing.walk_ops();
    input_ops.add += facts.output_cts as u64;
    let useful: usize = (packing.probe.classes.iter())
        .map(|(class, pieces)| pieces.len() * shape.c_in * class.h * class.w)
        .sum();
    let useful_slots = useful / facts.input_cts.max(1);
    let params = spot_he::params::EncryptionParams::new(level);
    // Assembly: every piece output element is added/subtracted once into
    // the client share (and once server-side, charged to the server for
    // free — it is negligible there).
    let assembly = (shape.width * shape.height * shape.c_out) as u64 * 2;
    Ok(ConvPlan {
        scheme: "SPOT",
        level,
        input_cts: facts.input_cts,
        output_cts: facts.output_cts,
        input_ops,
        finalize_ops: OpCounts::default(),
        dependency: OutputDependency::PerInput,
        assembly_elements: assembly,
        relu_elements: if with_relu {
            shape.output_elements()
        } else {
            0
        },
        ciphertext_bytes: params.ciphertext_bytes(),
        result_bytes: params.result_params().ciphertext_bytes(),
        useful_input_slots: useful_slots,
        useful_output_slots: useful_slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channelwise::SecureConvResult;
    use crate::session::{run_phased, LayerSpec, SchemeKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::context::Context;
    use spot_he::keys::KeyGenerator;
    use spot_he::params::EncryptionParams;
    use spot_tensor::conv::conv2d;
    use spot_tensor::tensor::{Kernel, Tensor};
    use std::sync::Arc;

    fn ctx4096() -> Arc<Context> {
        Context::new(EncryptionParams::new(ParamLevel::N4096))
    }

    fn run(
        ctx: &Arc<Context>,
        kg: &KeyGenerator,
        input: &Tensor,
        kernel: &Kernel,
        stride: usize,
        mode: PatchMode,
        rng: &mut StdRng,
    ) -> SecureConvResult {
        let spec = LayerSpec::for_layer(SchemeKind::Spot, input, kernel, stride, (4, 4), mode);
        run_phased(ctx, kg, spec, input, kernel, rng)
    }

    #[test]
    fn blocking_cases() {
        // C_o >= C_i: split lanes, diagonals over per-lane blocks
        let b = blocking(4, 16);
        assert_eq!(b.lane_blocks, 2);
        assert_eq!(b.out_groups, 4);
        assert_eq!(b.diagonals, 2);
        assert!(b.fold_steps.is_empty());
        // C_o < C_i: per-lane folding
        let b = blocking(16, 4);
        assert_eq!(b.lane_blocks, 8);
        assert_eq!(b.out_groups, 1);
        assert_eq!(b.diagonals, 4);
        assert_eq!(b.fold_steps, vec![4]);
        // C_o == C_i
        let b = blocking(8, 8);
        assert_eq!(b.out_groups, 1);
        assert_eq!(b.diagonals, 4);
        assert!(b.fold_steps.is_empty());
        // single-channel input: padded to two channels, split like the
        // rest with lane 1 empty
        let b = blocking(1, 4);
        assert_eq!(
            (b.channels_per_ct(), b.lane_blocks, b.out_groups),
            (2, 1, 2)
        );
        assert_eq!(
            b.in_maps(0, 1),
            [
                vec![vec![Some(0)], vec![None]],
                vec![vec![None], vec![Some(0)]]
            ]
        );
    }

    #[test]
    fn spot_tweaked_matches_reference() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(1000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 11);
        let kernel = Kernel::random(4, 4, 3, 3, 4, 12);
        let res = run(&ctx, &kg, &input, &kernel, 1, PatchMode::Tweaked, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_co_greater_than_ci() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(2000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 21);
        let kernel = Kernel::random(8, 2, 3, 3, 4, 22);
        let res = run(&ctx, &kg, &input, &kernel, 1, PatchMode::Tweaked, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_co_less_than_ci_folding() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(3000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(8, 8, 8, 8, 31);
        let kernel = Kernel::random(2, 8, 3, 3, 4, 32);
        let res = run(&ctx, &kg, &input, &kernel, 1, PatchMode::Tweaked, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_1x1_kernel() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(4000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 41);
        let kernel = Kernel::random(8, 4, 1, 1, 4, 42);
        let res = run(&ctx, &kg, &input, &kernel, 1, PatchMode::Tweaked, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_vanilla_mode() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(5000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 51);
        let kernel = Kernel::random(2, 2, 3, 3, 4, 52);
        let res = run(&ctx, &kg, &input, &kernel, 1, PatchMode::Vanilla, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn spot_stride_2() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(6000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 61);
        let kernel = Kernel::random(2, 2, 3, 3, 4, 62);
        let res = run(&ctx, &kg, &input, &kernel, 2, PatchMode::Tweaked, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 2));
    }

    #[test]
    fn geometry_counts() {
        let shape = ConvShape::new(8, 8, 4, 4, 3, 1);
        let planned =
            packing(&shape, ParamLevel::N4096, (4, 4), PatchMode::Tweaked).expect("plans");
        // classes: 9 patches, 6 vsegs, 6 hsegs, 4 corners
        assert_eq!(planned.probe.classes.len(), 4);
        assert_eq!(planned.probe.classes[0].1.len(), 9);
        let facts = &planned.facts;
        assert!(facts.input_cts >= 1);
        assert_eq!(facts.output_cts, facts.input_cts * planned.blk.out_groups);
    }

    /// Table VI's patch for the paper's 56×56×64 layer at N4096: the
    /// split layout puts 32 of the 64 channels in each lane, and 32
    /// blocks of 8×8 fill a lane exactly, so the layer plans — one
    /// piece a ciphertext. Pieces that need more than a lane are a
    /// typed refusal, before anything is decomposed.
    #[test]
    fn a_split_layout_plans_what_fills_a_lane_and_refuses_what_does_not() {
        let shape = ConvShape::new(56, 56, 64, 64, 3, 1);
        let level = ParamLevel::N4096;
        let choice = crate::select::select_patch(&shape, level, PatchMode::Tweaked);
        assert_eq!(choice.map(|c| c.patch), Some((8, 8)));
        let planned = packing(&shape, level, (8, 8), PatchMode::Tweaked).expect("fits");
        assert_eq!(planned.classes[0].images.layout.groups, 1);
        // 8 × 8 patches, one a ciphertext; 56 strips of 8×1 and of 1×8,
        // eight a ciphertext; 49 single pixels in one.
        let cts: Vec<usize> = planned.classes.iter().map(|class| class.cts).collect();
        assert_eq!(cts, [64, 7, 7, 1]);
        assert_eq!(planned.facts.input_cts, 79);
        let refused = packing(&shape, level, (16, 16), PatchMode::Tweaked).err();
        assert!(
            matches!(&refused, Some(SpotError::Protocol(why)) if why.contains("do not fit a lane")),
            "{refused:?}"
        );
    }

    /// Pieces whose 32 blocks fill a lane exactly — what the check on
    /// padded channels instead of lane blocks refused — convolve right.
    #[test]
    fn spot_lane_filling_pieces() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(7000);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(64, 8, 8, 4, 71);
        let kernel = Kernel::random(64, 64, 3, 3, 3, 72);
        let spec = LayerSpec::for_layer(
            SchemeKind::Spot,
            &input,
            &kernel,
            1,
            (8, 8),
            PatchMode::Tweaked,
        );
        let res = run_phased(&ctx, &kg, spec, &input, &kernel, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn plan_streams_per_input() {
        let shape = ConvShape::new(16, 16, 16, 16, 3, 1);
        let p = plan(&shape, ParamLevel::N4096, (4, 4), PatchMode::Tweaked, true);
        assert_eq!(p.dependency, OutputDependency::PerInput);
        assert_eq!(p.finalize_ops, OpCounts::default());
        assert!(p.assembly_elements > 0);
    }
}
