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
//! [`Packing`] is this scheme's side of the session driver's interface
//! ([`crate::session::ConvScheme`]): plan, pack, convolve, share.

use crate::error::SpotError;
use crate::heconv::{ConvRequest, ConvWalk, GroupSpec};
use crate::layout::{next_pow2, BatchLayout, ChannelMap, LaneLayout};
use crate::session::{first_uses, lift, ConvScheme, PlanFacts, ServerKit, MAX_BATCH};
use spot_he::ciphertext::Ciphertext;
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::{ConvPlan, OutputDependency};
use spot_tensor::fixed::{from_field, to_field};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::Tensor;
use std::sync::Arc;

/// Geometry of a channel-wise packing for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelwiseGeometry {
    /// Slots per channel block (power of two ≥ `H·W`).
    pub channel_slots: usize,
    /// Channel blocks per lane.
    pub blocks_per_lane: usize,
    /// Channels per ciphertext (both lanes).
    pub channels_per_ct: usize,
    /// Number of input ciphertexts.
    pub input_cts: usize,
    /// Number of output ciphertexts.
    pub output_cts: usize,
    /// Whether both lanes carry (distinct) channels.
    pub both_lanes: bool,
}

/// Computes the packing geometry for a layer shape at a parameter level.
///
/// # Panics
///
/// Panics if one channel does not fit a lane (`HW_pad > N/2`); large
/// feature maps must be handled by the planner's fragment model.
pub fn geometry(shape: &ConvShape, level: ParamLevel) -> ChannelwiseGeometry {
    let lane = level.degree() / 2;
    let s = next_pow2(shape.width * shape.height);
    assert!(
        s <= lane,
        "channel of {}x{} does not fit a lane of {} slots",
        shape.height,
        shape.width,
        lane
    );
    let ci_pad = next_pow2(shape.c_in);
    let co_pad = next_pow2(shape.c_out);
    let max_per_lane = lane / s;
    let blocks = max_per_lane.min(ci_pad.div_ceil(2)).max(1);
    let both_lanes = ci_pad >= 2;
    let channels_per_ct = if both_lanes { 2 * blocks } else { 1 };
    let input_cts = ci_pad.div_ceil(channels_per_ct);
    let output_cts = co_pad.div_ceil(channels_per_ct);
    ChannelwiseGeometry {
        channel_slots: s,
        blocks_per_lane: blocks,
        channels_per_ct,
        input_cts,
        output_cts,
        both_lanes,
    }
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

/// Channel placement for ciphertext `ct` of a tensor with `channels`
/// channels: `map[lane][block]` is the channel packed there, if any.
/// Input and output ciphertexts follow the same rule.
fn channel_map(geo: &ChannelwiseGeometry, ct: usize, channels: usize) -> ChannelMap {
    let mut map = vec![vec![None; geo.blocks_per_lane]; 2];
    for (lane, row) in map.iter_mut().enumerate() {
        if lane == 1 && !geo.both_lanes {
            break;
        }
        for (b, slot) in row.iter_mut().enumerate() {
            let ch = ct * geo.channels_per_ct + lane * geo.blocks_per_lane + b;
            if ch < channels {
                *slot = Some(ch);
            }
        }
    }
    map
}

/// One layer planned under channel-wise packing.
pub(crate) struct Packing {
    shape: ConvShape,
    geo: ChannelwiseGeometry,
    /// One image occupies piece position 0 across both lanes and every
    /// channel block, so every further position can carry another
    /// queued image: the masked kernel plaintexts already confine each
    /// position's convolution to its own region.
    images: BatchLayout,
    /// What the engine does to each input ciphertext, in upload order.
    pub(crate) walks: Vec<ConvWalk>,
    facts: PlanFacts,
}

impl Packing {
    /// Plans `shape` at `level`; a channel must fit one lane.
    pub(crate) fn new(shape: &ConvShape, level: ParamLevel) -> Result<Self, SpotError> {
        let lane = level.degree() / 2;
        LaneLayout::try_new(lane, 1, shape.height, shape.width)?;
        let geo = geometry(shape, level);
        let layout = LaneLayout::new(lane, geo.blocks_per_lane, shape.height, shape.width);
        let groups: Arc<[GroupSpec]> = (0..geo.output_cts)
            .map(|k| GroupSpec {
                out_ch: channel_map(&geo, k, shape.c_out),
            })
            .collect();
        // Input ciphertext `j` and, with channels in both lanes, its
        // column-swapped twin; CrypTFlow2's published output-rotation
        // algorithm takes the diagonals one block at a time (no BSGS),
        // which the engine's Horner walk takes by one key.
        let walks: Vec<ConvWalk> = (0..geo.input_cts)
            .map(|j| {
                let map = channel_map(&geo, j, shape.c_in);
                let swapped = geo.both_lanes.then(|| vec![map[1].clone(), map[0].clone()]);
                let in_maps = std::iter::once(map).chain(swapped).collect();
                let diagonals = geo.blocks_per_lane;
                let k = (shape.k_h, shape.k_w);
                let groups = Arc::clone(&groups);
                ConvWalk::new(layout, in_maps, groups, diagonals, Vec::new(), k, false)
            })
            .collect();
        let images = BatchLayout::new(layout, 1);
        Ok(Self {
            shape: *shape,
            geo,
            images,
            facts: PlanFacts {
                dependency: OutputDependency::AllInputs,
                input_cts: geo.input_cts,
                output_cts: geo.output_cts,
                jobs: geo.input_cts,
                galois_elements: first_uses(walks.iter().enumerate()),
                batch_capacity: images.capacity().min(MAX_BATCH),
                coeff_packed: false,
            },
            walks,
        })
    }
}

impl ConvScheme for Packing {
    fn facts(&self) -> &PlanFacts {
        &self.facts
    }

    fn batch_layout(&self, _result: usize) -> Option<BatchLayout> {
        Some(self.images)
    }

    fn pack(
        &self,
        images: &[Tensor],
        t: u64,
        emit: &mut dyn FnMut(Vec<u64>) -> Result<(), SpotError>,
    ) -> Result<(), SpotError> {
        let layout = &self.images.layout;
        for walk in &self.walks {
            let rows: Vec<Vec<u64>> = (images.iter())
                .map(|img| {
                    let mut slots = vec![0u64; 2 * layout.lane_size];
                    layout.scatter(walk.in_map(), 0, img, t, &mut slots);
                    slots
                })
                .collect();
            emit(self.images.pack_images(&rows))?;
        }
        Ok(())
    }

    fn convolve(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        inputs: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, SpotError> {
        kit.engine.conv_one_ct(
            &inputs[job],
            &ConvRequest {
                walk: &self.walks[job],
                kernel: kit.kernel,
                cache_tag: job,
            },
        )
    }

    /// Every output ciphertext needs every input's partial product:
    /// accumulate in input order, as a serial run would, and release
    /// the sums after the last input.
    fn collect(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        outs: Vec<Ciphertext>,
        acc: &mut Vec<Ciphertext>,
    ) -> Vec<Ciphertext> {
        if acc.is_empty() {
            *acc = outs;
        } else {
            for (sum, partial) in acc.iter_mut().zip(&outs) {
                kit.engine.evaluator().add_inplace(sum, partial);
            }
        }
        if job + 1 == self.facts.jobs {
            std::mem::take(acc)
        } else {
            Vec::new()
        }
    }

    fn share(&self, rows: Vec<Vec<u64>>, t: u64, center: bool) -> Tensor {
        let (shape, layout) = (&self.shape, &self.images.layout);
        let mut share = Tensor::zeros(shape.c_out, shape.out_height(), shape.out_width());
        // Every input's walk produces the same output groups.
        for (row, group) in rows.iter().zip(self.walks[0].groups()) {
            let read = |v| lift(v, t, center);
            layout.gather(&group.out_ch, 0, shape.stride, row, read, &mut share);
        }
        share
    }
}

/// Builds the execution plan for the simulator from the layer's
/// [`Packing`]: the server's work is one walk per input ciphertext,
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
    let packing = Packing::new(&band, level)
        .unwrap_or_else(|e| panic!("channel-wise packing cannot plan {shape} at {level}: {e}"));
    let (geo, facts) = (&packing.geo, &packing.facts);
    let mut input_ops = OpCounts::default();
    for walk in &packing.walks {
        input_ops.merge(&walk.ops());
    }
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
        input_ops,
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
        useful_input_slots: (geo.channels_per_ct * shape.width * shape.height / fragments)
            .min(level.degree()),
        useful_output_slots: (geo.channels_per_ct * shape.out_width() * shape.out_height()
            / fragments)
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
        let geo = geometry(&shape, ParamLevel::N4096);
        assert_eq!(geo.channel_slots, 256);
        assert_eq!(geo.blocks_per_lane, 8);
        assert_eq!(geo.channels_per_ct, 16);
        assert_eq!(geo.input_cts, 1);
        assert_eq!(geo.output_cts, 1);
    }

    #[test]
    fn geometry_many_channels() {
        let shape = ConvShape::new(16, 16, 64, 32, 3, 1);
        let geo = geometry(&shape, ParamLevel::N4096);
        assert_eq!(geo.channels_per_ct, 16);
        assert_eq!(geo.input_cts, 4);
        assert_eq!(geo.output_cts, 2);
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
