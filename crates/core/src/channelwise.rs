//! Channel-wise HE packing — the CrypTFlow2/GAZELLE baseline.
//!
//! Each ciphertext packs whole feature-map channels (`C_n = ⌊S'/HW⌋` per
//! the paper's Sec. III intro): channel `c` occupies one contiguous
//! power-of-two block of a lane. The convolution is the classic
//! SISO/MIMO rotation scheme; because every output channel needs *all*
//! input channels, the per-ciphertext partial results must be summed
//! across input ciphertexts — the cross-ciphertext dependency that
//! causes the linear computation stall on tiny clients.
//!
//! The packing itself is the one tiled packing ([`crate::tile`]) with
//! the whole map as the tile's one piece and the channels split into
//! groups; this module supplies CrypTFlow2's alignment rule
//! ([`blocking`]) and the plan.

use crate::error::SpotError;
use crate::layout::next_pow2;
use crate::tile::{Blocking, Cut, Fill, Packing};
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::{ConvPlan, OutputDependency};
use spot_tensor::fixed::{from_field, to_field};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::Tensor;

/// CrypTFlow2's alignment rule for `shape` at `level`: channel `c`
/// occupies one power-of-two block of `HW` slots, `min(lane / HW,
/// C_i/2)` blocks a lane, over both lanes (one lane for a
/// single-channel input), and the channels split into as many groups
/// of that size as they fill. The output-rotation algorithm takes the
/// diagonals one block at a time (no BSGS, no folds), with outputs in
/// groups of the same size.
pub fn blocking(shape: &ConvShape, level: ParamLevel) -> Blocking {
    let lane = level.degree() / 2;
    let s = next_pow2(shape.width * shape.height);
    let ci_pad = next_pow2(shape.c_in);
    let lane_blocks = (lane / s).min(ci_pad.div_ceil(2)).max(1);
    let lanes = if ci_pad >= 2 { 2 } else { 1 };
    let per_ct = lanes * lane_blocks;
    Blocking {
        lanes,
        lane_blocks,
        in_groups: ci_pad.div_ceil(per_ct),
        out_groups: next_pow2(shape.c_out).div_ceil(per_ct),
        out_period: per_ct,
        diagonals: lane_blocks,
        fold_steps: Vec::new(),
        bsgs: false,
    }
}

/// The layer planned under channel-wise packing: the whole map, its
/// channels in groups; a channel must fit one lane.
pub(crate) fn packing(shape: &ConvShape, level: ParamLevel) -> Result<Packing, SpotError> {
    let fill = Fill::Slots(blocking(shape, level));
    Packing::new(shape, level, fill, Cut::Whole)
}

/// Result of a functional secure convolution: additive shares of the
/// output plus the recorded server operation counts.
#[derive(Debug)]
pub struct SecureConvResult {
    /// The client's additive share of the (strided) output tensor.
    pub client_share: Tensor,
    /// The server's additive share.
    pub server_share: Tensor,
    /// Recorded HE operations.
    pub counts: OpCounts,
    /// Number of input ciphertexts the client produced.
    pub input_cts: usize,
    /// Number of output ciphertexts returned.
    pub output_cts: usize,
    /// The plaintext modulus shares live in.
    pub modulus: u64,
}

impl SecureConvResult {
    /// Reconstructs the plain output: adds the shares modulo `t` and
    /// recenters (testing convenience).
    pub fn reconstruct(&self) -> Tensor {
        let t = self.modulus;
        self.client_share
            .add(&self.server_share)
            .map(|v| from_field(to_field(v, t), t))
    }
}

/// Builds the execution plan for the simulator from the layer's
/// packing: the server's work is one walk per input ciphertext,
/// then the cross-ciphertext sums and one masking subtraction per
/// result once every input is in. A feature map larger than a lane is
/// planned as fragments — bands of whole rows, each one channel of its
/// own (counts only; the functional path requires `HW_pad ≤ N/2`).
///
/// # Panics
///
/// Panics if a band of `⌈H / fragments⌉` rows does not fit a lane.
pub fn plan(shape: &ConvShape, level: ParamLevel, with_relu: bool) -> ConvPlan {
    let lane = level.degree() / 2;
    let fragments = (next_pow2(shape.width * shape.height) / lane).max(1);
    let band = ConvShape {
        c_in: shape.c_in * fragments,
        c_out: shape.c_out * fragments,
        height: shape.height.div_ceil(fragments),
        ..*shape
    };
    let packing = packing(&band, level)
        .unwrap_or_else(|e| panic!("channel-wise packing cannot plan {shape} at {level}: {e}"));
    let (per_ct, facts) = (blocking(&band, level).channels_per_ct(), &packing.facts);
    let finalize = OpCounts {
        add: ((facts.input_cts as u64 - 1) * facts.output_cts as u64) + facts.output_cts as u64,
        ..OpCounts::default()
    };
    let params = spot_he::params::EncryptionParams::new(level);
    ConvPlan {
        scheme: "CrypTFlow2 (channel-wise)",
        level,
        input_cts: facts.input_cts,
        output_cts: facts.output_cts,
        input_ops: packing.walk_ops(),
        finalize_ops: finalize,
        dependency: OutputDependency::AllInputs,
        assembly_elements: 0,
        relu_elements: if with_relu {
            shape.output_elements()
        } else {
            0
        },
        ciphertext_bytes: params.ciphertext_bytes(),
        result_bytes: params.result_params().ciphertext_bytes(),
        useful_input_slots: (per_ct * shape.width * shape.height / fragments).min(level.degree()),
        useful_output_slots: (per_ct * shape.out_width() * shape.out_height() / fragments)
            .min(level.degree()),
    }
}

/// The smallest parameter level channel-wise packing can use for a
/// shape: one channel must fit a lane (the paper's Observation 2 —
/// CrypTFlow2 cannot shrink parameters below the channel size, and uses
/// at least `N = 8192`).
pub fn minimum_level(shape: &ConvShape) -> ParamLevel {
    let s = next_pow2(shape.width * shape.height);
    for level in [ParamLevel::N8192, ParamLevel::N16384] {
        if s <= level.degree() / 2 {
            return level;
        }
    }
    // 224×224 and beyond: stuck at the largest level with fragmentation.
    ParamLevel::N16384
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patching::PatchMode;
    use crate::session::{run_phased, LayerSpec, SchemeKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::context::Context;
    use spot_he::keys::KeyGenerator;
    use spot_he::params::EncryptionParams;
    use spot_tensor::conv::conv2d;
    use spot_tensor::tensor::Kernel;
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
        rng: &mut StdRng,
    ) -> SecureConvResult {
        let spec = LayerSpec::for_layer(
            SchemeKind::Channelwise,
            input,
            kernel,
            stride,
            (0, 0),
            PatchMode::Vanilla,
        );
        run_phased(ctx, kg, spec, input, kernel, rng)
    }

    #[test]
    fn geometry_small_map() {
        // 16x16 map (256 slots), lane 2048 at N4096: 8 channels per lane
        let shape = ConvShape::new(16, 16, 16, 16, 3, 1);
        let packing = packing(&shape, ParamLevel::N4096).expect("plans");
        let images = packing.classes[0].images.expect("slots");
        assert_eq!(images.layout.piece_slots, 256);
        let blk = blocking(&shape, ParamLevel::N4096);
        assert_eq!(blk.lane_blocks, 8);
        assert_eq!(blk.channels_per_ct(), 16);
        assert_eq!(packing.facts.input_cts, 1);
        assert_eq!(packing.facts.output_cts, 1);
    }

    #[test]
    fn geometry_many_channels() {
        let shape = ConvShape::new(16, 16, 64, 32, 3, 1);
        let packing = packing(&shape, ParamLevel::N4096).expect("plans");
        assert_eq!(blocking(&shape, ParamLevel::N4096).channels_per_ct(), 16);
        assert_eq!(packing.facts.input_cts, 4);
        assert_eq!(packing.facts.output_cts, 2);
    }

    /// A single-channel input fills one lane only, one channel group
    /// and one output channel a ciphertext.
    #[test]
    fn geometry_single_channel() {
        let shape = ConvShape::new(8, 8, 1, 4, 3, 1);
        let packing = packing(&shape, ParamLevel::N4096).expect("plans");
        let blk = blocking(&shape, ParamLevel::N4096);
        assert_eq!((blk.lanes, blk.lane_blocks), (1, 1));
        assert_eq!(packing.facts.input_cts, 1);
        assert_eq!(packing.facts.output_cts, 4);
        let groups = packing.walks[0].groups();
        assert_eq!(groups[3].out_ch, [vec![Some(3)], vec![None]]);
    }

    #[test]
    fn secure_conv_matches_reference_3x3() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(100);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 1);
        let kernel = Kernel::random(4, 4, 3, 3, 4, 2);
        let res = run(&ctx, &kg, &input, &kernel, 1, &mut rng);
        let expected = conv2d(&input, &kernel, 1);
        assert_eq!(res.reconstruct(), expected);
    }

    #[test]
    fn secure_conv_matches_reference_1x1() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(200);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(8, 4, 4, 8, 3);
        let kernel = Kernel::random(16, 8, 1, 1, 4, 4);
        let res = run(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn secure_conv_stride_2() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(300);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(2, 8, 8, 8, 5);
        let kernel = Kernel::random(2, 2, 3, 3, 4, 6);
        let res = run(&ctx, &kg, &input, &kernel, 2, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 2));
    }

    #[test]
    fn secure_conv_multi_ct_inputs() {
        // 32 input channels at 8x8 (64 slots): lane 2048 → 16/lane? blocks
        // limited by ci/2 = 16; channels_per_ct = 32 → 1 input ct. Use a
        // bigger map to force multiple cts: 16x16 → 8 blocks, 16 ch/ct.
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(500);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(32, 16, 16, 4, 9);
        let kernel = Kernel::random(8, 32, 3, 3, 3, 10);
        let res = run(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert!(
            res.input_cts > 1,
            "want multi-ct input, got {}",
            res.input_cts
        );
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn recorded_counts_match_plan() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(400);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(8, 8, 8, 8, 7);
        let kernel = Kernel::random(8, 8, 3, 3, 4, 8);
        let res = run(&ctx, &kg, &input, &kernel, 1, &mut rng);
        let shape = ConvShape::new(8, 8, 8, 8, 3, 1);
        let p = plan(&shape, ParamLevel::N4096, false);
        assert_eq!(p.input_cts, res.input_cts);
        assert_eq!(p.output_cts, res.output_cts);
        let total = p.total_server_ops();
        assert_eq!(total.mult_plain, res.counts.mult_plain);
        assert_eq!(total.rotate, res.counts.rotate);
        assert_eq!(total.add, res.counts.add);
    }

    #[test]
    fn minimum_levels() {
        assert_eq!(
            minimum_level(&ConvShape::new(56, 56, 64, 64, 3, 1)),
            ParamLevel::N8192
        );
        assert_eq!(
            minimum_level(&ConvShape::new(112, 112, 64, 64, 3, 1)),
            ParamLevel::N16384
        );
    }

    #[test]
    fn plan_fragments_large_maps() {
        let shape = ConvShape::new(224, 224, 3, 64, 3, 1);
        let p = plan(&shape, ParamLevel::N16384, true);
        assert!(p.input_cts >= 2, "fragmented input cts = {}", p.input_cts);
        assert_eq!(p.dependency, OutputDependency::AllInputs);
        assert_eq!(p.relu_elements, 224 * 224 * 64);
    }
}
