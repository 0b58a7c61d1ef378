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
//! Kernel blocking follows Fig. 7: when `C_o ≥ C_i` the kernels split
//! into `C_o/C_i` blocks of size `C_i` (one output ciphertext each);
//! when `C_o < C_i` the diagonals are concatenated across `C_i` and the
//! partial sums folded with `log2(C_i/C_o)` rotate-and-add steps.
//!
//! [`Packing`] is this scheme's side of the session driver's interface
//! ([`crate::session::ConvScheme`]): plan, pack, convolve, share.

use crate::error::SpotError;
use crate::heconv::{ConvRequest, ConvWalk, GroupSpec};
use crate::layout::{next_pow2, BatchLayout, ChannelMap, LaneLayout};
use crate::patching::{assemble, decompose, grid_len, overlap_for, Decomposition, PatchMode};
use crate::session::{first_uses, ConvScheme, PlanFacts, ServerKit, MAX_BATCH};
use spot_he::ciphertext::Ciphertext;
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::{ConvPlan, OutputDependency};
use spot_tensor::fixed::from_field;
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::Tensor;

/// Kernel blocking configuration derived from channel counts (Fig. 7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocking {
    /// Padded input channels, at least two: a piece's channels split
    /// across the two lanes, which gives each patch the full `N / C_i`
    /// slot budget of the paper's Table VI (lane 1 empty for a
    /// single-channel input).
    pub ci_pad: usize,
    /// Padded output channels.
    pub co_pad: usize,
    /// Channel blocks **per lane** (`ci_pad/2`).
    pub lane_blocks: usize,
    /// Diagonal count per group.
    pub diagonals: usize,
    /// Output groups (result ciphertexts per input ciphertext).
    pub out_groups: usize,
    /// Fold steps (per-lane block shifts) applied after alignment.
    pub fold_steps: Vec<usize>,
}

/// Computes the kernel blocking for the given channel counts.
pub fn blocking(c_in: usize, c_out: usize) -> Blocking {
    let ci_pad = next_pow2(c_in).max(2);
    let co_pad = next_pow2(c_out);
    let lane_blocks = ci_pad / 2;
    if co_pad >= ci_pad {
        Blocking {
            ci_pad,
            co_pad,
            lane_blocks,
            diagonals: lane_blocks,
            out_groups: (co_pad / ci_pad).max(1),
            fold_steps: Vec::new(),
        }
    } else {
        // C_o < C_i: concatenated diagonals + per-lane tree folding; the
        // cross-lane half is covered by the column-swapped products.
        let mut fold_steps = Vec::new();
        let mut step = lane_blocks / 2;
        while step >= co_pad {
            fold_steps.push(step);
            step /= 2;
        }
        Blocking {
            ci_pad,
            co_pad,
            lane_blocks,
            diagonals: co_pad.min(lane_blocks),
            out_groups: 1,
            fold_steps,
        }
    }
}

/// Builds the output-group specs for a blocking (one per result
/// ciphertext), mapping lane blocks to output channels per Fig. 7.
pub fn spot_group_specs(blk: &Blocking, c_out: usize) -> Vec<GroupSpec> {
    let b_lane = blk.lane_blocks;
    let mut groups = Vec::with_capacity(blk.out_groups);
    for g in 0..blk.out_groups {
        let mut out_ch = vec![vec![None; b_lane]; 2];
        for (lane, row) in out_ch.iter_mut().enumerate() {
            for (b, slot) in row.iter_mut().enumerate() {
                let ch = if blk.co_pad >= blk.ci_pad {
                    // C_o ≥ C_i: out channels split across lanes per group
                    g * blk.ci_pad + lane * b_lane + b
                } else {
                    // folding: out channels repeat with period co_pad
                    (lane * b_lane + b) % blk.co_pad
                };
                if ch < c_out {
                    *slot = Some(ch);
                }
            }
        }
        groups.push(GroupSpec { out_ch });
    }
    groups
}

/// Builds the input channel maps for a blocking: channel `c` in lane
/// `c / lane_blocks`, block `c % lane_blocks`, and the lane-swapped
/// twin that takes the cross-lane products.
pub fn spot_in_maps(blk: &Blocking, c_in: usize) -> Vec<ChannelMap> {
    let b_lane = blk.lane_blocks;
    let map: ChannelMap = (0..2)
        .map(|lane| {
            (0..b_lane)
                .map(|b| Some(lane * b_lane + b).filter(|&ch| ch < c_in))
                .collect()
        })
        .collect();
    let swapped = vec![map[1].clone(), map[0].clone()];
    vec![map, swapped]
}

/// Most ciphertexts the main patch class of a served layer may need.
/// The paper's largest layers stay near a thousand; a hello asking for
/// more is refused from its dimensions alone, before anything sized by
/// them is allocated. Seam classes never outnumber the main class.
const MAX_INPUT_CTS: usize = 4096;

/// The piece structure of a shape: it depends only on spatial dims, so
/// a channel-less probe decomposition serves (and holds no pixel data).
fn probe(shape: &ConvShape, patch: (usize, usize), mode: PatchMode) -> Decomposition {
    let empty = Tensor::zeros(0, shape.height, shape.width);
    decompose(&empty, patch.0, patch.1, shape.k_h, mode)
}

/// One piece class of a planned layer.
struct ClassPlan {
    /// What the engine does to each of the class's ciphertexts.
    walk: ConvWalk,
    /// Ciphertexts the class's pieces fill.
    cts: usize,
    /// How a batch's images interleave in one class ciphertext: an
    /// image's pieces occupy the first `pieces` positions, so spare
    /// positions carry further images with the rotation and key-switch
    /// counts unchanged (the masked kernel plaintexts already confine
    /// every position's convolution to its own piece). When the class
    /// spills over several ciphertexts each is fully occupied by the
    /// single image, so the stride clamps to every position: capacity
    /// 1, pack/unpack the identity.
    images: BatchLayout,
}

/// The per-class plans of `shape`'s decomposition, in its class order.
fn class_plans(
    blk: &Blocking,
    lane: usize,
    shape: &ConvShape,
    probe: &Decomposition,
) -> Vec<ClassPlan> {
    let channels = (shape.c_in, shape.c_out);
    (probe.classes.iter())
        .map(|(class, pieces)| {
            let layout = LaneLayout::new(lane, blk.lane_blocks, class.h, class.w);
            ClassPlan {
                walk: blk.walk(layout, channels, (shape.k_h, shape.k_w)),
                cts: pieces.len().div_ceil(layout.groups),
                images: BatchLayout::new(layout, pieces.len().clamp(1, layout.groups)),
            }
        })
        .collect()
}

impl Blocking {
    /// The walk of a piece class packed in `layout` under this blocking,
    /// for a `c_in → c_out` kernel of `k_h × k_w`: baby-step/giant-step
    /// alignment over the blocking's diagonals, then its folds.
    pub fn walk(
        &self,
        layout: LaneLayout,
        (c_in, c_out): (usize, usize),
        k: (usize, usize),
    ) -> ConvWalk {
        let (in_maps, groups) = (spot_in_maps(self, c_in), spot_group_specs(self, c_out));
        let folds = self.fold_steps.clone();
        ConvWalk::new(
            layout,
            in_maps,
            groups.into(),
            self.diagonals,
            folds,
            k,
            true,
        )
    }
}

/// One layer planned under SPOT structure patching.
pub(crate) struct Packing {
    shape: ConvShape,
    patch: (usize, usize),
    mode: PatchMode,
    blk: Blocking,
    probe: Decomposition,
    classes: Vec<ClassPlan>,
    /// Class of each input ciphertext, in upload order.
    ct_class: Vec<usize>,
    facts: PlanFacts,
}

impl Packing {
    /// Plans `shape` at `level` for the given patch configuration. The
    /// spec may come straight off the wire: everything is validated
    /// from the dimensions before the decomposition is built.
    pub(crate) fn new(
        shape: &ConvShape,
        level: ParamLevel,
        patch: (usize, usize),
        mode: PatchMode,
    ) -> Result<Self, SpotError> {
        let lane = level.degree() / 2;
        let blk = blocking(shape.c_in, shape.c_out);
        let overlap = overlap_for(mode, shape.k_h);
        if patch.0 <= overlap || patch.1 <= overlap {
            return Err(SpotError::Protocol(format!(
                "patch {}x{} is not larger than the overlap {overlap}",
                patch.0, patch.1
            )));
        }
        // Every seam piece is no larger than a main patch.
        let main = LaneLayout::try_new(lane, blk.lane_blocks, patch.0, patch.1)?;
        let patches =
            grid_len(shape.height, patch.0, overlap) * grid_len(shape.width, patch.1, overlap);
        let main_cts = patches.div_ceil(main.groups);
        if main_cts > MAX_INPUT_CTS {
            return Err(SpotError::Protocol(format!(
                "layer needs {main_cts} patch ciphertexts, over the limit of {MAX_INPUT_CTS}"
            )));
        }
        let probe = probe(shape, patch, mode);
        let classes = class_plans(&blk, lane, shape, &probe);
        let ct_class: Vec<usize> = (classes.iter().enumerate())
            .flat_map(|(ci, class)| std::iter::repeat_n(ci, class.cts))
            .collect();
        // Jobs run class by class in upload order, so that is also the
        // order the classes' keys are first asked for, and a class's
        // first ciphertext is the first job to use what the class adds.
        let first_cts = classes.iter().scan(0, |next, class| {
            let first = *next;
            *next += class.cts;
            Some(first)
        });
        let galois_elements = first_uses(first_cts.zip(classes.iter().map(|class| &class.walk)));
        // A class spilling over one ciphertext has no spare positions to
        // scatter another image into; otherwise the tightest class
        // bounds the batch.
        let batch_capacity = if classes.iter().all(|class| class.cts == 1) {
            (classes.iter())
                .map(|class| class.images.capacity())
                .fold(MAX_BATCH, usize::min)
        } else {
            1
        };
        Ok(Self {
            shape: *shape,
            patch,
            mode,
            facts: PlanFacts {
                dependency: OutputDependency::PerInput,
                input_cts: ct_class.len(),
                output_cts: ct_class.len() * blk.out_groups,
                jobs: ct_class.len(),
                galois_elements,
                batch_capacity,
                coeff_packed: false,
            },
            blk,
            probe,
            classes,
            ct_class,
        })
    }

    /// Gathers class `ci`'s rows (ciphertext-major, group-minor; one
    /// party's decoded results or masks) into per-piece share tensors:
    /// piece `p` sits at position `p mod G` of ciphertext `p / G`, and
    /// each result row holds the output channels of its group's map.
    fn class_share(&self, ci: usize, rows: &[Vec<u64>], t: u64) -> Vec<Tensor> {
        let walk = &self.classes[ci].walk;
        let (layout, groups) = (walk.layout(), walk.groups());
        let (class, pieces) = &self.probe.classes[ci];
        let mut class_out = vec![Tensor::zeros(self.shape.c_out, class.h, class.w); pieces.len()];
        for (r, row) in rows.iter().enumerate() {
            let (ct, group) = (r / groups.len(), &groups[r % groups.len()]);
            let at_ct = class_out.iter_mut().skip(ct * layout.groups);
            for (position, out) in at_ct.take(layout.groups).enumerate() {
                layout.gather(&group.out_ch, position, 1, row, |v| from_field(v, t), out);
            }
        }
        class_out
    }
}

impl ConvScheme for Packing {
    fn facts(&self) -> &PlanFacts {
        &self.facts
    }

    fn input_class(&self, j: usize) -> usize {
        self.ct_class[j]
    }

    fn batch_layout(&self, result: usize) -> Option<BatchLayout> {
        Some(self.classes[self.ct_class[result / self.blk.out_groups]].images)
    }

    fn pack(
        &self,
        images: &[Tensor],
        t: u64,
        emit: &mut dyn FnMut(Vec<u64>) -> Result<(), SpotError>,
    ) -> Result<(), SpotError> {
        let decomps: Vec<Decomposition> = (images.iter())
            .map(|img| decompose(img, self.patch.0, self.patch.1, self.shape.k_h, self.mode))
            .collect();
        for (ci, class) in self.classes.iter().enumerate() {
            let (layout, map) = (class.walk.layout(), class.walk.in_map());
            for ct in 0..class.cts {
                // Per image, this ciphertext's pieces, one a position;
                // the batch capacity guarantees a single ciphertext per
                // class when images share slots.
                let rows: Vec<Vec<u64>> = (decomps.iter())
                    .map(|d| {
                        let mut slots = vec![0u64; 2 * layout.lane_size];
                        let pieces = d.classes[ci].1.iter().skip(ct * layout.groups);
                        for (position, piece) in pieces.take(layout.groups).enumerate() {
                            layout.scatter(map, position, &piece.data, t, &mut slots);
                        }
                        slots
                    })
                    .collect();
                emit(class.images.pack_images(&rows))?;
            }
        }
        Ok(())
    }

    fn convolve(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        inputs: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, SpotError> {
        let ci = self.ct_class[job];
        let req = ConvRequest {
            walk: &self.classes[ci].walk,
            kernel: kit.kernel,
            // The layouts differ between classes, so each class keeps
            // its own kernel plaintexts.
            cache_tag: ci,
        };
        kit.engine.conv_one_ct(&inputs[0], &req)
    }

    /// Both parties center: the signed piece assembly (add patch and
    /// corner shares, subtract strip shares) works on centered values,
    /// so `center` changes nothing here.
    fn share(&self, rows: Vec<Vec<u64>>, t: u64, _center: bool) -> Tensor {
        let shape = &self.shape;
        let mut pieces = Vec::new();
        let mut rest = rows.as_slice();
        for (ci, class) in self.classes.iter().enumerate() {
            let (class_rows, tail) = rest.split_at(class.cts * self.blk.out_groups);
            pieces.extend(self.class_share(ci, class_rows, t));
            rest = tail;
        }
        let full = assemble(&self.probe, &pieces, shape.height, shape.width);
        Tensor::from_fn(
            shape.c_out,
            shape.out_height(),
            shape.out_width(),
            |c, y, x| full.at(c, y * shape.stride, x * shape.stride),
        )
    }
}

/// Builds the SPOT execution plan for the simulator: the plan of the
/// layer's [`Packing`], the one the wire runs. The server's work is its
/// piece classes' walks, each taken once per ciphertext of the class,
/// and one masking subtraction per result.
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
    let packing = Packing::new(shape, level, patch, mode)?;
    let facts = &packing.facts;
    let mut input_ops = OpCounts {
        add: facts.output_cts as u64,
        ..OpCounts::default()
    };
    for class in &packing.classes {
        input_ops.merge(&class.walk.ops().times(class.cts as u64));
    }
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
        assert_eq!((b.ci_pad, b.lane_blocks, b.out_groups), (2, 1, 2));
        assert_eq!(
            spot_in_maps(&b, 1),
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
        let packing =
            Packing::new(&shape, ParamLevel::N4096, (4, 4), PatchMode::Tweaked).expect("plans");
        // classes: 9 patches, 6 vsegs, 6 hsegs, 4 corners
        assert_eq!(packing.probe.classes.len(), 4);
        assert_eq!(packing.probe.classes[0].1.len(), 9);
        let facts = &packing.facts;
        assert!(facts.input_cts >= 1);
        assert_eq!(facts.output_cts, facts.input_cts * packing.blk.out_groups);
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
        let packing = Packing::new(&shape, level, (8, 8), PatchMode::Tweaked).expect("fits");
        assert_eq!(packing.classes[0].walk.layout().groups, 1);
        // 8 × 8 patches, one a ciphertext; 56 strips of 8×1 and of 1×8,
        // eight a ciphertext; 49 single pixels in one.
        let cts: Vec<usize> = packing.classes.iter().map(|class| class.cts).collect();
        assert_eq!(cts, [64, 7, 7, 1]);
        assert_eq!(packing.facts.input_cts, 79);
        let refused = Packing::new(&shape, level, (16, 16), PatchMode::Tweaked).err();
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
