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
//! `Packing` builds one walk per (ciphertext class, channel group), packs
//! class by class, then piece ciphertext, then channel group, and its
//! `collect` sums a result's partials
//! over the channel groups of its own piece ciphertext: a single group
//! passes straight through, the whole-map tile waits for every input.
//! What each scheme still supplies is its alignment rule, a [`Blocking`]
//! (`spot::blocking`, `channelwise::blocking`), because the rule is what
//! the paper compares.
//!
//! A seam class whose pieces all fit in the positions the main patches
//! leave free in their last ciphertext *rides* there instead of taking
//! ciphertexts of its own (the overlap tweak's auxiliary ciphertexts,
//! paid only where the patches leave no room). A riding piece sits at
//! the top-left of a patch-sized frame: the zeros around it are its
//! "same" padding, because the patches' kernel plaintexts already mask
//! every tap to the frame, so the main walk convolves it unchanged.

use crate::error::SpotError;
use crate::heconv::{ConvRequest, ConvWalk, GroupSpec};
use crate::layout::{BatchLayout, ChannelMap, LaneLayout, Piece};
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

/// One ciphertext class of a planned layer: a piece class with its own
/// ciphertexts and walks, and the seam classes riding in them.
pub(crate) struct ClassPlan {
    /// Piece ciphertexts the class's pieces fill.
    pub(crate) cts: usize,
    /// The decomposition's piece classes whose pieces fill those
    /// ciphertexts, in position order: the class itself, then any seam
    /// class riding in its last ciphertext.
    pub(crate) members: Vec<usize>,
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
    /// One walk per (ciphertext class, channel group), class-major: the
    /// walk index is also the job's kernel-cache tag.
    pub(crate) walks: Vec<ConvWalk>,
    /// Ciphertext class of each piece ciphertext, in upload order.
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
        let held = |members: &[usize]| -> usize {
            members.iter().map(|&m| probe.classes[m].1.len()).sum()
        };
        let mut classes: Vec<ClassPlan> = Vec::new();
        let mut walks = Vec::new();
        for (m, (class, pieces)) in probe.classes.iter().enumerate() {
            // A seam class rides in the main class's last ciphertext when
            // all of its pieces fit in the positions still free there:
            // no ciphertext is added and the main walk is unchanged.
            if let Some(main) = classes.first_mut() {
                let layout = main.images.layout;
                if held(&main.members) + pieces.len() <= main.cts * layout.groups {
                    main.members.push(m);
                    let stride = held(&main.members).min(layout.groups);
                    main.images = BatchLayout::new(layout, stride);
                    continue;
                }
            }
            let layout = LaneLayout::new(lane, blk.lane_blocks, class.h, class.w);
            walks
                .extend((0..blk.in_groups).map(|group| {
                    blk.group_walk(layout, group, shape.c_in, Arc::clone(&groups), k)
                }));
            classes.push(ClassPlan {
                cts: pieces.len().div_ceil(layout.groups),
                members: vec![m],
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

    /// The pieces of `d` that fill class `ci`'s ciphertexts, in
    /// position order: its members' pieces one after the other.
    fn class_pieces<'a>(
        &'a self,
        ci: usize,
        d: &'a Decomposition,
    ) -> impl Iterator<Item = &'a Piece> {
        (self.classes[ci].members.iter()).flat_map(move |&m| &d.classes[m].1)
    }

    /// Gathers class `ci`'s rows (piece-ciphertext-major, group-minor;
    /// one party's decoded results or masks) into per-piece share
    /// tensors, each of its own piece class's dimensions: piece `p`
    /// sits at position `p mod G` of piece ciphertext `p / G`, and each
    /// result row holds the output channels of its group's map.
    fn class_share(&self, ci: usize, rows: &[Vec<u64>], read: impl Fn(u64) -> i64) -> Vec<Tensor> {
        let layout = &self.classes[ci].images.layout;
        let groups = self.walks[ci * self.blk.in_groups].groups();
        let mut class_out: Vec<Tensor> = (self.class_pieces(ci, &self.probe))
            .map(|p| Tensor::zeros(self.shape.c_out, p.data.height(), p.data.width()))
            .collect();
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

    /// The decomposition class of the input's ciphertext class: a
    /// seam class keeps its number on the wire whether or not another
    /// rides with it.
    fn input_class(&self, j: usize) -> usize {
        self.classes[self.piece_class[j / self.blk.in_groups]].members[0]
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
                    // Per image, this ciphertext's pieces, one a position,
                    // a riding piece at the top-left of its frame; the
                    // batch capacity guarantees a single piece ciphertext
                    // per class when images share slots.
                    let rows: Vec<Vec<u64>> = (decomps.iter())
                        .map(|d| {
                            let mut slots = vec![0u64; 2 * layout.lane_size];
                            let pieces = self.class_pieces(ci, d).skip(ct * layout.groups);
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

    /// Gathers every class's pieces, puts them back in decomposition
    /// order (a riding class's from its host's rows), assembles them
    /// and takes the stride. SPOT's signed piece assembly (add patch and
    /// corner shares, subtract strip shares) works on centred values, so
    /// there both parties centre; the whole map's one piece is read as
    /// asked.
    fn share(&self, rows: Vec<Vec<u64>>, t: u64, center: bool) -> Tensor {
        let shape = &self.shape;
        let center = center || self.cut != Cut::Whole;
        let mut by_class = vec![Vec::new(); self.probe.classes.len()];
        let mut rest = rows.as_slice();
        for (ci, class) in self.classes.iter().enumerate() {
            let (class_rows, tail) = rest.split_at(class.cts * self.blk.out_groups);
            let mut pieces = self
                .class_share(ci, class_rows, |v| lift(v, t, center))
                .into_iter();
            for &m in &class.members {
                by_class[m] = pieces
                    .by_ref()
                    .take(self.probe.classes[m].1.len())
                    .collect();
            }
            rest = tail;
        }
        let full = assemble(&self.probe, &by_class.concat(), shape.height, shape.width);
        Tensor::from_fn(
            shape.c_out,
            shape.out_height(),
            shape.out_width(),
            |c, y, x| full.at(c, y * shape.stride, x * shape.stride),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patching::PatchMode;
    use crate::spot;

    /// `(members, cts)` of every ciphertext class of a 4×4-patched layer.
    fn ciphertext_classes(shape: ConvShape, mode: PatchMode) -> Vec<(Vec<usize>, usize)> {
        let packing = spot::packing(&shape, ParamLevel::N4096, (4, 4), mode).expect("plans");
        (packing.classes.iter())
            .map(|class| (class.members.clone(), class.cts))
            .collect()
    }

    /// A seam class rides in the patches' last ciphertext exactly when
    /// all of its pieces fit in the positions still free there, in
    /// decomposition order; a layer whose seams do not fit plans as it
    /// did.
    #[test]
    fn seam_classes_ride_where_their_pieces_fit() {
        // 9 patches of 128 positions: the 6 + 6 strips and 4 corners
        // ride, where each class had a ciphertext of its own.
        let tiny = ConvShape::new(8, 8, 2, 4, 3, 1);
        assert_eq!(
            ciphertext_classes(tiny, PatchMode::Tweaked),
            [(vec![0, 1, 2, 3], 1)]
        );
        // 16 patches of 32 positions: the 12 vertical strips fill 12 of
        // the 16 free ones; neither the 12 horizontal strips nor the 9
        // corners fit in the 4 left. Four ciphertexts become three.
        let wide = ConvShape::new(12, 12, 8, 8, 3, 1);
        assert_eq!(
            ciphertext_classes(wide, PatchMode::Tweaked),
            [(vec![0, 1], 1), (vec![2], 1), (vec![3], 1)]
        );
        // A wide map: 18 patches of 32 positions leave 14 free, too few
        // for the 15 vertical strips but enough for the 12 horizontal
        // ones, which ride ahead of the strips' own ciphertext.
        let flat = ConvShape {
            width: 19,
            ..ConvShape::new(8, 8, 8, 8, 3, 1)
        };
        assert_eq!(
            ciphertext_classes(flat, PatchMode::Tweaked),
            [(vec![0, 2], 1), (vec![1], 1), (vec![3], 1)]
        );
        // 25 patches over four ciphertexts of 8 leave 7 free; every seam
        // class has at least 16 pieces.
        let deep = ConvShape::new(16, 16, 32, 32, 3, 1);
        assert_eq!(
            ciphertext_classes(deep, PatchMode::Tweaked),
            [(vec![0], 4), (vec![1], 1), (vec![2], 1), (vec![3], 1)]
        );
        // Vanilla patching has no seams.
        assert_eq!(ciphertext_classes(tiny, PatchMode::Vanilla), [(vec![0], 1)]);
    }

    /// A riding class costs its host's capacity, not a ciphertext: an
    /// image of TinyCnn's conv1 takes 25 of the 128 positions, its
    /// upload one seam-free wire class, and its walk is the patches'.
    #[test]
    fn riders_share_the_host_walk_and_batch_layout() {
        let shape = ConvShape::new(8, 8, 2, 4, 3, 1);
        let packing =
            spot::packing(&shape, ParamLevel::N4096, (4, 4), PatchMode::Tweaked).expect("plans");
        assert_eq!(packing.walks.len(), 1);
        assert_eq!(packing.classes[0].images.stride, 9 + 6 + 6 + 4);
        assert_eq!(packing.facts.batch_capacity, 128 / 25);
        assert_eq!((packing.facts.input_cts, packing.facts.output_cts), (1, 2));
        assert_eq!(packing.input_class(0), 0);
        // The 12x12 layer's horizontal strips keep their wire class.
        let wide = ConvShape::new(12, 12, 8, 8, 3, 1);
        let packing =
            spot::packing(&wide, ParamLevel::N4096, (4, 4), PatchMode::Tweaked).expect("plans");
        let classes: Vec<usize> = (0..3).map(|j| packing.input_class(j)).collect();
        assert_eq!(classes, [0, 2, 3]);
    }
}
