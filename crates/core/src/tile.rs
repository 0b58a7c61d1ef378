//! The one packing of all three schemes, two fills: a ciphertext
//! carries a *tile*, some pieces of the feature map times one group of
//! its channels, filled as SIMD slots or as polynomial coefficients.
//!
//! The paper's Sec. III contrasts three ways of filling a ciphertext,
//! and they differ only in the tile and its fill:
//!
//! * **Channel-wise packing** (CrypTFlow2/GAZELLE) cuts the map as one
//!   whole piece and splits its channels into groups of `⌊S'/HW⌋`, one
//!   ciphertext each, filled as slots. Every output channel needs every
//!   input channel, so a result waits for all of a piece's channel
//!   groups: the cross-ciphertext stall of the tiny client.
//! * **Cheetah** (Huang et al.) cuts the map as one whole piece too and
//!   splits its channels into chunks, filled as coefficients: a chunk's
//!   channels ascending at the halo-padded channel stride, each kernel
//!   descending, so one ring product convolves the chunk with no
//!   rotation. A result still needs every chunk: the same stall.
//! * **SPOT** cuts the map into patches and seam pieces
//!   ([`crate::patching`]) and keeps all of a piece's channels in one
//!   group, filled as slots, so every ciphertext yields final results
//!   on its own.
//!
//! `Packing` reads the grid once for all three: the ciphertext classes,
//! the facts, the stride and the assembly. It branches on the `Fill`
//! only where the encodings differ: the row fill in `pack`, `convolve`,
//! `collect`, the one-result read in `share`, the result positions and
//! the batch layout. Under slots it builds one walk per (ciphertext
//! class, channel group), packs class by class, then piece ciphertext,
//! then channel group, and its `collect` sums a result's partials over
//! the channel groups of its own piece ciphertext: a single group
//! passes straight through, the whole-map tile waits for every input.
//! Under coefficients a job is one result, which sums its output
//! channel's ring products over the chunks itself, and `collect` passes
//! it straight through, so each result is masked and sent while the
//! next is computed. What each scheme still supplies is its rule — a
//! [`Blocking`] (`spot::blocking`, `channelwise::blocking`) or Cheetah's
//! [`CheetahGeometry`] (`cheetah::geometry`) — because the rule is what
//! the paper compares.
//!
//! A seam class whose pieces all fit in the positions the main patches
//! leave free in their last ciphertext *rides* there instead of taking
//! ciphertexts of its own (the overlap tweak's auxiliary ciphertexts,
//! paid only where the patches leave no room). A riding piece sits at
//! the top-left of a patch-sized frame: the zeros around it are its
//! "same" padding, because the patches' kernel plaintexts already mask
//! every tap to the frame, so the main walk convolves it unchanged.

use crate::cheetah::CheetahGeometry;
use crate::error::SpotError;
use crate::heconv::{ConvRequest, ConvWalk, GroupSpec};
use crate::layout::{BatchLayout, ChannelMap, LaneLayout, Piece};
use crate::patching::{
    assemble, decompose, grid_len, overlap_for, whole, Decomposition, PatchMode,
};
use crate::session::{first_uses, lift, PlanFacts, ServerKit, MAX_BATCH};
use spot_he::ciphertext::Ciphertext;
use spot_he::encoding::Plaintext;
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::OutputDependency;
use spot_tensor::fixed::to_field;
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

/// How a tile's piece ciphertext × channel group is filled: the one
/// place the encodings differ.
pub(crate) enum Fill {
    /// SIMD slots, aligned by the scheme's blocking: SPOT and
    /// channel-wise packing.
    Slots(Blocking),
    /// Polynomial coefficients (Cheetah): the group's channels
    /// ascending at the halo-padded channel stride, each kernel
    /// descending, so one ring product convolves every channel of the
    /// group and rotates nothing.
    Coeffs(CheetahGeometry),
}

impl Fill {
    /// The slot layout pieces of `h × w` fill in a ring of degree `n`,
    /// or `None` under the coefficient fill, one piece a ciphertext; or
    /// the typed refusal of pieces that do not fit, from the dimensions
    /// alone.
    fn layout(&self, n: usize, (h, w): (usize, usize)) -> Result<Option<LaneLayout>, SpotError> {
        match self {
            Fill::Slots(blk) => LaneLayout::try_new(n / 2, blk.lane_blocks, h, w).map(Some),
            Fill::Coeffs(geo) if geo.channel_coeffs > n => Err(SpotError::Protocol(format!(
                "feature map does not fit the ring at D={n}"
            ))),
            Fill::Coeffs(_) => Ok(None),
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
    /// capacity 1, pack/unpack the identity. `None` under the
    /// coefficient fill, which shares no slots: a batch is its images in
    /// sequence.
    pub(crate) images: Option<BatchLayout>,
}

impl ClassPlan {
    /// Pieces one of the class's ciphertexts holds.
    fn positions(&self) -> usize {
        self.images.map_or(1, |images| images.layout.groups)
    }
}

/// One layer planned under a tile and its fill.
pub(crate) struct Packing {
    shape: ConvShape,
    cut: Cut,
    fill: Fill,
    /// The ring degree: the length of every row.
    degree: usize,
    /// Channel groups an input splits into, one ciphertext each.
    in_groups: usize,
    /// Result ciphertexts per piece ciphertext.
    out_groups: usize,
    /// The piece structure: it depends only on spatial dims, so a
    /// channel-less probe decomposition serves (and holds no pixels).
    pub(crate) probe: Decomposition,
    pub(crate) classes: Vec<ClassPlan>,
    /// One walk per (ciphertext class, channel group), class-major: the
    /// walk index is also the job's kernel-cache tag. Empty under the
    /// coefficient fill, which walks nothing.
    pub(crate) walks: Vec<ConvWalk>,
    /// Ciphertext class of each piece ciphertext, in upload order.
    piece_class: Vec<usize>,
    /// Under the coefficient fill, where output pixel `(y, x)` lands in
    /// every result, at `y·out_w + x`: the coefficients the share reads
    /// and the wire carries.
    positions: Option<Vec<usize>>,
    pub(crate) facts: PlanFacts,
}

impl Packing {
    /// Plans `shape` at `level` filled by `fill`, cut by `cut`. The
    /// spec may come straight off the wire: everything is validated from
    /// the dimensions before the decomposition is built.
    pub(crate) fn new(
        shape: &ConvShape,
        level: ParamLevel,
        fill: Fill,
        cut: Cut,
    ) -> Result<Self, SpotError> {
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
        let (in_groups, out_groups) = match &fill {
            Fill::Slots(blk) => (blk.in_groups, blk.out_groups),
            Fill::Coeffs(geo) => (geo.input_cts, geo.output_cts),
        };
        // Every seam piece is no larger than a main patch.
        let n = level.degree();
        let main_cts = patches.div_ceil(fill.layout(n, main)?.map_or(1, |l| l.groups)) * in_groups;
        if main_cts > MAX_INPUT_CTS {
            return Err(SpotError::Protocol(format!(
                "layer needs {main_cts} ciphertexts for its main pieces, over the limit of {MAX_INPUT_CTS}"
            )));
        }
        let probe = cut.decompose(&Tensor::zeros(0, shape.height, shape.width), shape.k_h);
        let held = |members: &[usize]| -> usize {
            members.iter().map(|&m| probe.classes[m].1.len()).sum()
        };
        let mut classes: Vec<ClassPlan> = Vec::new();
        for (m, (class, pieces)) in probe.classes.iter().enumerate() {
            // A seam class rides in the main class's last ciphertext when
            // all of its pieces fit in the positions still free there:
            // no ciphertext is added and the main walk is unchanged.
            if let Some((Some(host), main)) = classes.first_mut().map(|c| (c.images, c)) {
                let layout = host.layout;
                if held(&main.members) + pieces.len() <= main.cts * layout.groups {
                    main.members.push(m);
                    let stride = held(&main.members).min(layout.groups);
                    main.images = Some(BatchLayout::new(layout, stride));
                    continue;
                }
            }
            let layout = fill.layout(n, (class.h, class.w))?;
            let positions = layout.map_or(1, |layout| layout.groups);
            classes.push(ClassPlan {
                cts: pieces.len().div_ceil(positions),
                members: vec![m],
                images: layout.map(|l| BatchLayout::new(l, pieces.len().clamp(1, positions))),
            });
        }
        let piece_cts = classes.iter().map(|class| class.cts).sum::<usize>();
        // One job per channel group of a piece ciphertext, whose partials
        // `collect` sums; under coefficients one per result, which sums
        // its chunks' ring products itself.
        let (walks, positions, jobs) = match &fill {
            Fill::Slots(blk) => {
                let groups: Arc<[GroupSpec]> = blk.group_specs(shape.c_out).into();
                let (c_in, k) = (shape.c_in, (shape.k_h, shape.k_w));
                let layouts = classes
                    .iter()
                    .filter_map(|class| class.images.map(|i| i.layout));
                let walks = (layouts.flat_map(|layout| (0..in_groups).map(move |g| (layout, g))))
                    .map(|(layout, g)| blk.group_walk(layout, g, c_in, Arc::clone(&groups), k))
                    .collect();
                (walks, None, piece_cts * in_groups)
            }
            Fill::Coeffs(geo) => {
                let s = shape.stride;
                let positions = (pixels(shape.out_height(), shape.out_width()))
                    .map(|(y, x)| result_coeff(geo, shape, y * s, x * s))
                    .collect();
                (Vec::new(), Some(positions), piece_cts * out_groups)
            }
        };
        // Jobs run class by class, piece ciphertext by piece ciphertext,
        // in upload order: a walk's first job is its channel group's
        // job in its class's first piece ciphertext, and that is also
        // the order the walks' keys are first asked for.
        let first_jobs = classes.iter().scan(0, |next, class| {
            let first = *next;
            *next += class.cts * in_groups;
            Some((0..in_groups).map(move |group| first + group))
        });
        let galois_elements = first_uses(first_jobs.flatten().zip(&walks));
        if !galois_elements.is_empty() && !level.supports_rotation() {
            return Err(SpotError::Protocol(format!(
                "the layer's plan rotates, and parameter level {level} does not support rotations"
            )));
        }
        // A class spilling over one piece ciphertext has no spare
        // positions to scatter another image into; otherwise the
        // tightest class bounds the batch, and images that share no
        // slots only the wire field.
        let batch_capacity = if classes.iter().all(|class| class.cts == 1) {
            (classes.iter())
                .map(|class| class.images.map_or(MAX_BATCH, |images| images.capacity()))
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
                input_cts: piece_cts * in_groups,
                output_cts: piece_cts * out_groups,
                jobs,
                galois_elements,
                batch_capacity,
            },
            piece_class: (classes.iter().enumerate())
                .flat_map(|(ci, class)| std::iter::repeat_n(ci, class.cts))
                .collect(),
            shape: *shape,
            cut,
            fill,
            degree: n,
            in_groups,
            out_groups,
            probe,
            classes,
            walks,
            positions,
        })
    }

    /// The server's HE work on one round's inputs: every walk, once per
    /// piece ciphertext of its class.
    pub(crate) fn walk_ops(&self) -> OpCounts {
        let mut ops = OpCounts::default();
        for (w, walk) in self.walks.iter().enumerate() {
            let class = &self.classes[w / self.in_groups];
            ops.merge(&walk.ops().times(class.cts as u64));
        }
        ops
    }

    /// The walk job `job` runs: its piece ciphertext's class, its
    /// channel group.
    fn walk_of(&self, job: usize) -> usize {
        self.piece_class[job / self.in_groups] * self.in_groups + job % self.in_groups
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
    /// sits at position `p mod G` of piece ciphertext `p / G`. A slot
    /// result holds the output channels of its group's map; a
    /// coefficient result holds output channel `group`, each pixel at
    /// its kernel centre.
    fn class_share(&self, ci: usize, rows: &[Vec<u64>], read: impl Fn(u64) -> i64) -> Vec<Tensor> {
        let positions = self.classes[ci].positions();
        let mut class_out: Vec<Tensor> = (self.class_pieces(ci, &self.probe))
            .map(|p| Tensor::zeros(self.shape.c_out, p.data.height(), p.data.width()))
            .collect();
        for (r, row) in rows.iter().enumerate() {
            let (ct, group) = (r / self.out_groups, r % self.out_groups);
            let at_ct = class_out.iter_mut().skip(ct * positions);
            for (position, out) in at_ct.take(positions).enumerate() {
                match &self.fill {
                    Fill::Slots(_) => {
                        let walk = &self.walks[ci * self.in_groups];
                        let map = &walk.groups()[group].out_ch;
                        walk.layout().gather(map, position, 1, row, &read, out);
                    }
                    Fill::Coeffs(geo) => {
                        for (y, x) in pixels(out.height(), out.width()) {
                            *out.at_mut(group, y, x) =
                                read(row[result_coeff(geo, &self.shape, y, x)]);
                        }
                    }
                }
            }
        }
        class_out
    }

    /// Wire class of a round's `j`-th input ciphertext: class 0 goes
    /// in `PackedCt` (with any seam class riding in it), SPOT's other
    /// seam classes in `AuxCt`. A seam class keeps its number on the
    /// wire whether or not another rides with it.
    pub(crate) fn input_class(&self, j: usize) -> usize {
        self.classes[self.piece_class[j / self.in_groups]].members[0]
    }

    /// The slot layout that interleaves a batch's images inside result
    /// ciphertext `result` of a round, or `None` when images share no
    /// slots and a batch is one round per image.
    pub(crate) fn batch_layout(&self, result: usize) -> Option<BatchLayout> {
        self.classes[self.piece_class[result / self.out_groups]].images
    }

    /// The coefficients of a result that [`Packing::share`] reads, or
    /// `None` where it reads whole slot rows. A coefficient-filled
    /// result travels as `c1` and `c0` at these positions alone
    /// ([`SparseCiphertext`](spot_he::ciphertext::SparseCiphertext)) and
    /// is decrypted there only; both parties derive them from the
    /// [`LayerSpec`](crate::session::LayerSpec), so no position is sent.
    pub(crate) fn result_positions(&self) -> Option<&[usize]> {
        self.positions.as_deref()
    }

    /// How many of a batch's images share one round's ciphertexts: as
    /// many as the layer's capacity admits, the last round taking what
    /// is left.
    pub(crate) fn round_width(&self, batch: usize) -> usize {
        match self.batch_layout(0) {
            Some(_) => batch.min(self.facts.batch_capacity),
            None => 1,
        }
    }

    /// *Pack*: one round's images into plaintext rows, handed to `emit`
    /// in upload order (lazily, so the tiny client holds one at a time):
    /// class by class, piece ciphertext by piece ciphertext, channel
    /// group by channel group.
    pub(crate) fn pack(
        &self,
        images: &[Tensor],
        t: u64,
        emit: &mut dyn FnMut(Vec<u64>) -> Result<(), SpotError>,
    ) -> Result<(), SpotError> {
        let decomps: Vec<Decomposition> = (images.iter())
            .map(|img| self.cut.decompose(img, self.shape.k_h))
            .collect();
        for (ci, class) in self.classes.iter().enumerate() {
            for ct in 0..class.cts {
                for group in 0..self.in_groups {
                    let mut rows: Vec<Vec<u64>> = (decomps.iter())
                        .map(|d| self.fill_row(ci, ct, group, d, t))
                        .collect();
                    emit(match class.images {
                        Some(images) => images.pack_images(&rows),
                        None => rows.swap_remove(0),
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Channel group `group` of piece ciphertext `ct` of class `ci`, for
    /// one image's decomposition `d`: the ciphertext's pieces, one a
    /// position, a riding piece at the top-left of its frame. The batch
    /// capacity guarantees a single piece ciphertext per class when
    /// images share slots.
    fn fill_row(&self, ci: usize, ct: usize, group: usize, d: &Decomposition, t: u64) -> Vec<u64> {
        let positions = self.classes[ci].positions();
        let pieces = self.class_pieces(ci, d).skip(ct * positions);
        let mut row = vec![0u64; self.degree];
        for (position, piece) in pieces.take(positions).enumerate() {
            let data = &piece.data;
            match &self.fill {
                Fill::Slots(_) => {
                    let walk = &self.walks[ci * self.in_groups + group];
                    (walk.layout()).scatter(walk.in_map(), position, data, t, &mut row);
                }
                Fill::Coeffs(geo) => {
                    for (local, c) in geo.chunk(group, self.shape.c_in).enumerate() {
                        for (y, x) in pixels(data.height(), data.width()) {
                            row[geo.at(local, y, x)] = to_field(data.at(c, y, x), t);
                        }
                    }
                }
            }
        }
        row
    }

    /// *Convolve*: work item `job` over the ciphertexts it depends on —
    /// `[ct_job]` under [`OutputDependency::PerInput`], the round's
    /// whole upload under [`OutputDependency::AllInputs`]. Pure: runs on
    /// pool workers in any order. Fails only on a rotation key that can
    /// no longer arrive. A slot job walks its channel group's input; a
    /// coefficient job is result `job`, the sum of its output channel's
    /// ring products over every chunk, its kernel plaintexts uncached.
    pub(crate) fn convolve(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        inputs: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, SpotError> {
        let Fill::Coeffs(geo) = &self.fill else {
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
            return kit.engine.conv_one_ct(input, &req);
        };
        let (shape, t) = (&self.shape, kit.ctx.params().plain_modulus());
        let evaluator = kit.engine.evaluator();
        let products = inputs.iter().enumerate().map(|(chunk, input)| {
            let mut kernel = vec![0u64; self.degree];
            for (local, c) in geo.chunk(chunk, shape.c_in).enumerate() {
                let descending = geo.channels_per_ct - 1 - local;
                for (u, v) in pixels(shape.k_h, shape.k_w) {
                    let at = geo.at(descending, shape.k_h - 1 - u, shape.k_w - 1 - v);
                    kernel[at] = to_field(kit.kernel.at(job, c, u, v), t);
                }
            }
            evaluator.multiply_plain(input, &Plaintext::from_coeffs(kernel))
        });
        let sum = products.reduce(|mut sum, product| {
            evaluator.add_inplace(&mut sum, &product);
            sum
        });
        Ok(vec![sum.expect("at least one chunk")])
    }

    /// Folds job `job`'s outputs into the round's result stream: called
    /// in job order on one thread, returns the result ciphertexts that
    /// are now final. A piece ciphertext's slot results are the sums of
    /// its channel groups' partials: accumulate them in `acc` in job
    /// order, as a serial run would, and release the sums after the last
    /// group; a single group passes straight through, as does every
    /// coefficient result, final as `convolve` returns it.
    pub(crate) fn collect(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        outs: Vec<Ciphertext>,
        acc: &mut Vec<Ciphertext>,
    ) -> Vec<Ciphertext> {
        if let Fill::Coeffs(_) = self.fill {
            return outs;
        }
        let group = job % self.in_groups;
        if group == 0 {
            *acc = outs;
        } else {
            for (sum, partial) in acc.iter_mut().zip(&outs) {
                kit.engine.evaluator().add_inplace(sum, partial);
            }
        }
        if group + 1 == self.in_groups {
            std::mem::take(acc)
        } else {
            Vec::new()
        }
    }

    /// *Rows → share*: one image's share tensor from its rows in result
    /// order — the same gather for both parties. The client feeds its
    /// decrypted rows with `center` set (values lifted to `(-t/2,
    /// t/2]`); the server feeds its masks as drawn. Gathers every
    /// class's pieces, puts them back in decomposition order (a riding
    /// class's from its host's rows), assembles them and takes the
    /// stride. SPOT's signed piece assembly (add patch and corner
    /// shares, subtract strip shares) works on centred values, so there
    /// both parties centre; the whole map's one piece is read as asked.
    pub(crate) fn share(&self, rows: Vec<Vec<u64>>, t: u64, center: bool) -> Tensor {
        let shape = &self.shape;
        let center = center || self.cut != Cut::Whole;
        let mut by_class = vec![Vec::new(); self.probe.classes.len()];
        let mut rest = rows.as_slice();
        for (ci, class) in self.classes.iter().enumerate() {
            let (class_rows, tail) = rest.split_at(class.cts * self.out_groups);
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

/// The coefficient where pixel `(y, x)` of a stride-1 output lands in a
/// coefficient-filled result: its kernel centre in the halo-padded
/// plane, one chunk in.
fn result_coeff(geo: &CheetahGeometry, shape: &ConvShape, y: usize, x: usize) -> usize {
    geo.at(
        geo.channels_per_ct - 1,
        y + (shape.k_h - 1) / 2,
        x + (shape.k_w - 1) / 2,
    )
}

/// The `(y, x)` of an `h × w` grid, row-major.
fn pixels(h: usize, w: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..h).flat_map(move |y| (0..w).map(move |x| (y, x)))
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
        assert_eq!(
            packing.classes[0].images.map(|i| i.stride),
            Some(9 + 6 + 6 + 4)
        );
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
