//! The one packing of both SIMD schemes: a ciphertext carries a *tile*,
//! some pieces of the feature map times one group of its channels.
//!
//! The paper's Sec. III contrasts two ways of filling a ciphertext, and
//! they differ only in the tile:
//!
//! * **Channel-wise packing** (CrypTFlow2/GAZELLE) cuts the map as one
//!   whole piece and splits its channels into groups of `⌊S'/HW⌋`, one
//!   ciphertext each. Every output channel needs every input channel, so
//!   a result waits for all of a piece's channel groups: the
//!   cross-ciphertext stall of the tiny client.
//! * **SPOT** cuts the map into patches and seam pieces
//!   ([`crate::patching`]) and keeps all of a piece's channels in one
//!   group, so every ciphertext yields final results on its own.
//!
//! `Packing` builds one walk per (piece class, channel group), packs
//! class by class, then piece ciphertext, then channel group, and its
//! `collect` sums a result's partials
//! over the channel groups of its own piece ciphertext: a single group
//! passes straight through, the whole-map tile waits for every input.
//! What each scheme still supplies is its alignment rule, a [`Blocking`]
//! (`spot::blocking`, `channelwise::blocking`), because the rule is what
//! the paper compares.

use crate::error::SpotError;
use crate::heconv::{ConvRequest, ConvWalk, GroupSpec};
use crate::layout::{BatchLayout, ChannelMap, LaneLayout};
use crate::patching::{
    assemble, decompose, grid_len, overlap_for, whole, Decomposition, PatchMode,
};
use crate::session::{first_uses, lift, ConvScheme, PlanFacts, ServerKit, MAX_BATCH};
use spot_he::ciphertext::Ciphertext;
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::OutputDependency;
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::Tensor;
use std::sync::Arc;

/// How a scheme aligns the channel blocks of one tile: which channel
/// sits in each `(lane, block)` of an input and of a result, and how the
/// block diagonals are walked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blocking {
    /// Lanes that carry channels: two, or one where channel-wise
    /// packing holds a single-channel input.
    pub lanes: usize,
    /// Channel blocks per lane.
    pub lane_blocks: usize,
    /// Channel groups an input splits into, one ciphertext each.
    pub in_groups: usize,
    /// Output groups (result ciphertexts per piece ciphertext).
    pub out_groups: usize,
    /// Output channels repeat across a result's blocks with this period:
    /// the channels per ciphertext, or `C_o` padded where partial sums
    /// fold (Fig. 7 (b)).
    pub out_period: usize,
    /// Diagonal count per group.
    pub diagonals: usize,
    /// Fold steps (per-lane block shifts) applied after alignment.
    pub fold_steps: Vec<usize>,
    /// Baby-step/giant-step alignment, or one block at a time.
    pub bsgs: bool,
}

impl Blocking {
    /// Channels one ciphertext holds, over its lanes.
    pub fn channels_per_ct(&self) -> usize {
        self.lanes * self.lane_blocks
    }

    /// Channel `first + (lane · B + block) mod period` in each block of
    /// a carrying lane, where it is below `channels`.
    fn channel_map(&self, first: usize, period: usize, channels: usize) -> ChannelMap {
        (0..2)
            .map(|lane| {
                (0..self.lane_blocks)
                    .map(|b| Some(first + (lane * self.lane_blocks + b) % period))
                    .map(|ch| ch.filter(|&ch| lane < self.lanes && ch < channels))
                    .collect()
            })
            .collect()
    }

    /// The input maps of channel group `group`: its channels in lane
    /// order, and with both lanes carrying, the lane-swapped twin that
    /// takes the cross-lane products.
    pub(crate) fn in_maps(&self, group: usize, c_in: usize) -> Vec<ChannelMap> {
        let per_ct = self.channels_per_ct();
        let map = self.channel_map(group * per_ct, per_ct, c_in);
        let swapped = (self.lanes == 2).then(|| vec![map[1].clone(), map[0].clone()]);
        std::iter::once(map).chain(swapped).collect()
    }

    /// The output groups, one result ciphertext each.
    pub(crate) fn group_specs(&self, c_out: usize) -> Vec<GroupSpec> {
        (0..self.out_groups)
            .map(|g| GroupSpec {
                out_ch: self.channel_map(g * self.channels_per_ct(), self.out_period, c_out),
            })
            .collect()
    }

    /// The walk of channel group 0 packed in `layout`, for a `c_in →
    /// c_out` kernel of `k_h × k_w`.
    pub fn walk(
        &self,
        layout: LaneLayout,
        (c_in, c_out): (usize, usize),
        k: (usize, usize),
    ) -> ConvWalk {
        self.group_walk(layout, 0, c_in, self.group_specs(c_out).into(), k)
    }

    fn group_walk(
        &self,
        layout: LaneLayout,
        group: usize,
        c_in: usize,
        groups: Arc<[GroupSpec]>,
        k: (usize, usize),
    ) -> ConvWalk {
        let in_maps = self.in_maps(group, c_in);
        let folds = self.fold_steps.clone();
        ConvWalk::new(layout, in_maps, groups, self.diagonals, folds, k, self.bsgs)
    }
}

/// How a tile cuts the feature map into pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cut {
    /// The whole map, one piece (channel-wise packing).
    Whole,
    /// SPOT's patches of this size, and in tweaked mode their seams.
    Patches((usize, usize), PatchMode),
}

impl Cut {
    fn decompose(self, input: &Tensor, k: usize) -> Decomposition {
        match self {
            Cut::Whole => whole(input, k),
            Cut::Patches((ph, pw), mode) => decompose(input, ph, pw, k, mode),
        }
    }
}

/// Most ciphertexts the main piece class of a served layer may need.
/// The paper's largest layers stay near a thousand; a hello asking for
/// more is refused from its dimensions alone, before anything sized by
/// them is allocated. Seam classes never outnumber the main class.
const MAX_INPUT_CTS: usize = 4096;

/// One piece class of a planned layer.
pub(crate) struct ClassPlan {
    /// Piece ciphertexts the class's pieces fill.
    pub(crate) cts: usize,
    /// How a batch's images interleave in one class ciphertext: an
    /// image's pieces occupy the first `pieces` positions, so spare
    /// positions carry further images with the rotation and key-switch
    /// counts unchanged (the masked kernel plaintexts already confine
    /// every position's convolution to its own piece). When the class
    /// spills over several piece ciphertexts each is fully occupied by
    /// the single image, so the stride clamps to every position:
    /// capacity 1, pack/unpack the identity.
    pub(crate) images: BatchLayout,
}

/// One layer planned under a tile.
pub(crate) struct Packing {
    shape: ConvShape,
    cut: Cut,
    pub(crate) blk: Blocking,
    /// The piece structure: it depends only on spatial dims, so a
    /// channel-less probe decomposition serves (and holds no pixels).
    pub(crate) probe: Decomposition,
    pub(crate) classes: Vec<ClassPlan>,
    /// One walk per (class, channel group), class-major: the walk index
    /// is also the job's kernel-cache tag.
    pub(crate) walks: Vec<ConvWalk>,
    /// Class of each piece ciphertext, in upload order.
    piece_class: Vec<usize>,
    pub(crate) facts: PlanFacts,
}

impl Packing {
    /// Plans `shape` at `level` under `blk`, cut by `cut`. The spec may
    /// come straight off the wire: everything is validated from the
    /// dimensions before the decomposition is built.
    pub(crate) fn new(
        shape: &ConvShape,
        level: ParamLevel,
        blk: Blocking,
        cut: Cut,
    ) -> Result<Self, SpotError> {
        let lane = level.degree() / 2;
        let (main, patches) = match cut {
            Cut::Whole => ((shape.height, shape.width), 1),
            Cut::Patches(patch, mode) => {
                let overlap = overlap_for(mode, shape.k_h);
                if patch.0 <= overlap || patch.1 <= overlap {
                    return Err(SpotError::Protocol(format!(
                        "patch {}x{} is not larger than the overlap {overlap}",
                        patch.0, patch.1
                    )));
                }
                let rows = grid_len(shape.height, patch.0, overlap);
                (patch, rows * grid_len(shape.width, patch.1, overlap))
            }
        };
        // Every seam piece is no larger than a main patch.
        let layout = LaneLayout::try_new(lane, blk.lane_blocks, main.0, main.1)?;
        let main_cts = patches.div_ceil(layout.groups) * blk.in_groups;
        if main_cts > MAX_INPUT_CTS {
            return Err(SpotError::Protocol(format!(
                "layer needs {main_cts} ciphertexts for its main pieces, over the limit of {MAX_INPUT_CTS}"
            )));
        }
        let probe = cut.decompose(&Tensor::zeros(0, shape.height, shape.width), shape.k_h);
        let groups: Arc<[GroupSpec]> = blk.group_specs(shape.c_out).into();
        let k = (shape.k_h, shape.k_w);
        let mut classes = Vec::new();
        let mut walks = Vec::new();
        for (class, pieces) in &probe.classes {
            let layout = LaneLayout::new(lane, blk.lane_blocks, class.h, class.w);
            walks
                .extend((0..blk.in_groups).map(|group| {
                    blk.group_walk(layout, group, shape.c_in, Arc::clone(&groups), k)
                }));
            classes.push(ClassPlan {
                cts: pieces.len().div_ceil(layout.groups),
                images: BatchLayout::new(layout, pieces.len().clamp(1, layout.groups)),
            });
        }
        let piece_class: Vec<usize> = (classes.iter().enumerate())
            .flat_map(|(ci, class)| std::iter::repeat_n(ci, class.cts))
            .collect();
        // Jobs run class by class, piece ciphertext by piece ciphertext,
        // in upload order: a walk's first job is its channel group's
        // job in its class's first piece ciphertext, and that is also
        // the order the walks' keys are first asked for.
        let first_jobs = classes.iter().scan(0, |next, class| {
            let first = *next;
            *next += class.cts * blk.in_groups;
            Some((0..blk.in_groups).map(move |group| first + group))
        });
        let galois_elements = first_uses(first_jobs.flatten().zip(&walks));
        if !galois_elements.is_empty() && !level.supports_rotation() {
            return Err(SpotError::Protocol(format!(
                "the layer's plan rotates, and parameter level {level} does not support rotations"
            )));
        }
        // A class spilling over one piece ciphertext has no spare
        // positions to scatter another image into; otherwise the
        // tightest class bounds the batch.
        let batch_capacity = if classes.iter().all(|class| class.cts == 1) {
            (classes.iter())
                .map(|class| class.images.capacity())
                .fold(MAX_BATCH, usize::min)
        } else {
            1
        };
        Ok(Self {
            facts: PlanFacts {
                dependency: match cut {
                    Cut::Whole => OutputDependency::AllInputs,
                    Cut::Patches(..) => OutputDependency::PerInput,
                },
                input_cts: piece_class.len() * blk.in_groups,
                output_cts: piece_class.len() * blk.out_groups,
                jobs: piece_class.len() * blk.in_groups,
                galois_elements,
                batch_capacity,
                coeff_packed: false,
            },
            shape: *shape,
            cut,
            blk,
            probe,
            classes,
            walks,
            piece_class,
        })
    }

    /// The server's HE work on one round's inputs: every walk, once per
    /// piece ciphertext of its class.
    pub(crate) fn walk_ops(&self) -> OpCounts {
        let mut ops = OpCounts::default();
        for (w, walk) in self.walks.iter().enumerate() {
            let class = &self.classes[w / self.blk.in_groups];
            ops.merge(&walk.ops().times(class.cts as u64));
        }
        ops
    }

    /// The walk job `job` runs: its piece ciphertext's class, its
    /// channel group.
    fn walk_of(&self, job: usize) -> usize {
        let groups = self.blk.in_groups;
        self.piece_class[job / groups] * groups + job % groups
    }

    /// Gathers class `ci`'s rows (piece-ciphertext-major, group-minor;
    /// one party's decoded results or masks) into per-piece share
    /// tensors: piece `p` sits at position `p mod G` of piece
    /// ciphertext `p / G`, and each result row holds the output
    /// channels of its group's map.
    fn class_share(&self, ci: usize, rows: &[Vec<u64>], read: impl Fn(u64) -> i64) -> Vec<Tensor> {
        let layout = &self.classes[ci].images.layout;
        let groups = self.walks[ci * self.blk.in_groups].groups();
        let (class, pieces) = &self.probe.classes[ci];
        let mut class_out = vec![Tensor::zeros(self.shape.c_out, class.h, class.w); pieces.len()];
        for (r, row) in rows.iter().enumerate() {
            let (ct, group) = (r / groups.len(), &groups[r % groups.len()]);
            let at_ct = class_out.iter_mut().skip(ct * layout.groups);
            for (position, out) in at_ct.take(layout.groups).enumerate() {
                layout.gather(&group.out_ch, position, 1, row, &read, out);
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
        self.piece_class[j / self.blk.in_groups]
    }

    fn batch_layout(&self, result: usize) -> Option<BatchLayout> {
        Some(self.classes[self.piece_class[result / self.blk.out_groups]].images)
    }

    fn pack(
        &self,
        images: &[Tensor],
        t: u64,
        emit: &mut dyn FnMut(Vec<u64>) -> Result<(), SpotError>,
    ) -> Result<(), SpotError> {
        let decomps: Vec<Decomposition> = (images.iter())
            .map(|img| self.cut.decompose(img, self.shape.k_h))
            .collect();
        let per_class = self.walks.chunks(self.blk.in_groups);
        for (ci, (class, walks)) in self.classes.iter().zip(per_class).enumerate() {
            let layout = &class.images.layout;
            for ct in 0..class.cts {
                for walk in walks {
                    // Per image, this ciphertext's pieces, one a position;
                    // the batch capacity guarantees a single piece
                    // ciphertext per class when images share slots.
                    let rows: Vec<Vec<u64>> = (decomps.iter())
                        .map(|d| {
                            let mut slots = vec![0u64; 2 * layout.lane_size];
                            let pieces = d.classes[ci].1.iter().skip(ct * layout.groups);
                            for (position, piece) in pieces.take(layout.groups).enumerate() {
                                layout.scatter(walk.in_map(), position, &piece.data, t, &mut slots);
                            }
                            slots
                        })
                        .collect();
                    emit(class.images.pack_images(&rows))?;
                }
            }
        }
        Ok(())
    }

    /// Job `job` reads its own input, the only one it is handed under
    /// [`OutputDependency::PerInput`].
    fn convolve(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        inputs: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, SpotError> {
        let input = match self.facts.dependency {
            OutputDependency::PerInput => &inputs[0],
            OutputDependency::AllInputs => &inputs[job],
        };
        let walk = self.walk_of(job);
        let req = ConvRequest {
            walk: &self.walks[walk],
            kernel: kit.kernel,
            cache_tag: walk,
        };
        kit.engine.conv_one_ct(input, &req)
    }

    /// A piece ciphertext's results are the sums of its channel groups'
    /// partials: accumulate them in job order, as a serial run would,
    /// and release the sums after the last group. A single group passes
    /// straight through.
    fn collect(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        outs: Vec<Ciphertext>,
        acc: &mut Vec<Ciphertext>,
    ) -> Vec<Ciphertext> {
        let group = job % self.blk.in_groups;
        if group == 0 {
            *acc = outs;
        } else {
            for (sum, partial) in acc.iter_mut().zip(&outs) {
                kit.engine.evaluator().add_inplace(sum, partial);
            }
        }
        if group + 1 == self.blk.in_groups {
            std::mem::take(acc)
        } else {
            Vec::new()
        }
    }

    /// Gathers every class's pieces, assembles them and takes the
    /// stride. SPOT's signed piece assembly (add patch and corner
    /// shares, subtract strip shares) works on centred values, so there
    /// both parties centre; the whole map's one piece is read as asked.
    fn share(&self, rows: Vec<Vec<u64>>, t: u64, center: bool) -> Tensor {
        let shape = &self.shape;
        let center = center || self.cut != Cut::Whole;
        let mut pieces = Vec::new();
        let mut rest = rows.as_slice();
        for (ci, class) in self.classes.iter().enumerate() {
            let (class_rows, tail) = rest.split_at(class.cts * self.blk.out_groups);
            pieces.extend(self.class_share(ci, class_rows, |v| lift(v, t, center)));
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
