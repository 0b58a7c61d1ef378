//! The generic lane-MIMO homomorphic convolution engine.
//!
//! Both the channel-wise baseline (CrypTFlow2-style SISO/MIMO, Sec. III-A
//! of the paper) and SPOT's structure-patching convolution pack through
//! the one tiled packing ([`crate::tile`]) and reduce to the same
//! primitive: given one packed ciphertext whose lanes hold channel
//! blocks in a [`LaneLayout`], compute for each *output group* the sum
//! over kernel taps and block diagonals
//!
//! ```text
//! out_g = Σ_d rotate_blocks( Σ_tap rotate(ct, tap) ⊙ P_{g,d,tap}, d )
//! ```
//!
//! with the kernel plaintexts `P` carrying the tap weights *and* the
//! boundary masks (zeros wherever a rotation would pull a value from a
//! neighbouring piece, channel block, or padding slot). The diagonals
//! split as `d = j·B + b`: the `B` baby steps are taken on the input
//! (and undone inside the pre-rotated `P`), and the giant steps are
//! evaluated in Horner form,
//!
//! ```text
//! out_g = S_0 + rot_B( S_1 + rot_B( S_2 + … ) )
//! S_j   = Σ_b Σ_tap rotate(rot_b(ct), tap) ⊙ P_{g, j·B+b, tap}
//! ```
//!
//! so every giant step is a rotation by the same `B` blocks and the
//! client makes one key for all of them. Every `S_j` reads the same
//! tap positions, so the engine sums a group's steps in one pass
//! ([`Evaluator::dot_lifted_steps`]): one tiled sweep reads each tile of
//! the positions once while every step's kernel plaintexts stream past
//! it, and the Horner walk then consumes the sums, last step first. A
//! pass holds at most as many step sums as the walk holds tap
//! positions, a rule of the walk's shape and not a setting: a walk with
//! more giant steps than positions (a 1×1 kernel, say) takes several
//! passes. A tap `(dy, dx)` of pieces
//! `W` wide is likewise not a rotation of its own: it is the row move
//! `dy·W` followed by the column move `dx`, so a `k_h × k_w` kernel
//! asks for `(k_h − 1) + (k_w − 1)` tap keys, and a tap that cannot pair
//! two pixels of the layout's pieces is not taken at all. The engine also
//! handles the cross-lane products of a tile whose channels span both
//! lanes (one column-swap per input ciphertext) and the block-folding
//! used when `C_o < C_i` (Fig. 7 (b)). Which of these a walk takes, and
//! whether its diagonals go baby-step/giant-step or one block at a time,
//! is the scheme's alignment rule ([`crate::tile::Blocking`]).
//!
//! What the engine does to one input ciphertext is computed once, as a
//! value: the [`ConvWalk`] of a tile's piece class and channel group
//! (for SPOT, a piece class; for channel-wise packing, an input
//! ciphertext's channel group). It has three readers and no copies. The engine
//! runs it ([`HeConvEngine::conv_one_ct`]); the key schedule reads the
//! Galois elements it rotates by ([`ConvWalk::elements`]), in the
//! order it first uses them; the cost model reads the operations it
//! executes (`ConvWalk::ops`).
//!
//! The engine does not own its rotation keys: it asks a [`RotationKeys`]
//! for each one when it is about to use it, after the key-switch
//! decomposition that needs no key. Over a served connection that is a
//! store the client is still uploading into, so a rotation waits only
//! for its own key.

use crate::error::SpotError;
use crate::layout::{ChannelMap, LaneLayout};
use parking_lot::RwLock;
use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::encoding::{galois_elt_column_swap, galois_elt_from_step, BatchEncoder};
use spot_he::evaluator::{Evaluator, HoistedCiphertext, OpCounts};
use spot_he::keys::GaloisKeys;
use spot_he::poly::Poly;
use spot_tensor::tensor::Kernel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One output group: `out_ch[lane][block]` is the output channel the
/// block of the result ciphertext should hold (`None` = unused).
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Output-channel assignment per lane and block.
    pub out_ch: ChannelMap,
}

/// Everything [`HeConvEngine::conv_one_ct`] needs besides the
/// ciphertext itself: what to do to it, and the weights to do it with.
/// Borrowing keeps the per-ciphertext call cheap and lets the same
/// request be shared across executor worker threads.
#[derive(Debug, Clone, Copy)]
pub struct ConvRequest<'a> {
    /// The walk the ciphertext goes through.
    pub walk: &'a ConvWalk,
    /// The convolution kernel.
    pub kernel: &'a Kernel,
    /// Discriminates kernel-plaintext cache entries when one engine
    /// serves several distinct walks — the tiled packing uses the
    /// walk's index, one per (piece class, channel group).
    /// Requests with equal tags must be otherwise identical.
    pub cache_tag: usize,
}

/// Cache key for one lifted kernel plaintext:
/// `(cache_tag, version, group, diagonal, tap)`, the tap counted among
/// the walk's live ones. The baby-step pre-rotation is a function of
/// the diagonal under the walk's BSGS split, so it needs no key
/// component of its own.
type KernelKey = (usize, usize, usize, usize, usize);

/// A shareable NTT-domain kernel plaintext cache. Cache entries are a
/// function of the layer geometry and the *model's* kernel weights only
/// — never of any client key material — so a serving process hosting
/// many concurrent sessions of the same model hands each session's
/// engine a clone of one per-model `KernelCache` and pays the
/// encode+lift cost once per model instead of once per connection.
/// Clones share storage (`Arc`); [`KernelCache::default`] is empty.
#[derive(Debug, Clone, Default)]
pub struct KernelCache {
    entries: Arc<RwLock<HashMap<KernelKey, Option<Arc<Poly>>>>>,
}

impl KernelCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of kernel plaintext combinations cached so far (including
    /// recorded all-zero combinations).
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Looks up `key`, building and inserting it on a miss. The build
    /// runs under the write lock (double-checked after acquiring it),
    /// so concurrent sessions racing on a cold entry build it exactly
    /// once — the property `serving_determinism.rs`
    /// (`spot_server_builds_kernel_caches_once_per_model`) asserts.
    fn get_or_build(
        &self,
        key: KernelKey,
        build: impl FnOnce() -> Option<Arc<Poly>>,
    ) -> Option<Arc<Poly>> {
        if let Some(hit) = self.entries.read().get(&key) {
            spot_trace::count(spot_trace::Counter::KernelCacheHit, 1);
            return hit.clone();
        }
        let mut entries = self.entries.write();
        if let Some(hit) = entries.get(&key) {
            spot_trace::count(spot_trace::Counter::KernelCacheHit, 1);
            return hit.clone();
        }
        spot_trace::count(spot_trace::Counter::KernelCacheBuild, 1);
        let entry = build();
        entries.insert(key, entry.clone());
        entry
    }
}

/// Where a conv engine gets a rotation key from, at the moment it is
/// about to rotate by it.
pub trait RotationKeys: std::fmt::Debug + Sync {
    /// A key set holding Galois element `g`'s key, as soon as there is
    /// one, and how long the caller was blocked until then. An error
    /// means the key can no longer arrive.
    fn wait(&self, g: usize) -> Result<(Arc<GaloisKeys>, Duration), SpotError>;
}

/// A complete key set: nothing to wait for.
impl RotationKeys for Arc<GaloisKeys> {
    fn wait(&self, g: usize) -> Result<(Arc<GaloisKeys>, Duration), SpotError> {
        if !self.contains(g) {
            return Err(SpotError::Protocol(format!(
                "no rotation key for galois element {g}"
            )));
        }
        Ok((Arc::clone(self), Duration::ZERO))
    }
}

/// The engine of one served layer: the HE context, the client's Galois
/// keys as they arrive, and the one [`Evaluator`] every HE operation of
/// the layer goes through — so its [`Evaluator::counts`] is the layer's
/// op tally.
#[derive(Debug)]
pub struct HeConvEngine<'k> {
    ctx: Arc<Context>,
    encoder: BatchEncoder,
    evaluator: Evaluator,
    keys: &'k dyn RotationKeys,
    /// Nanoseconds its callers spent blocked in [`RotationKeys::wait`].
    key_wait_ns: AtomicU64,
    /// Lazily populated NTT-domain kernel plaintexts: once a
    /// `(tag, version, group, diagonal, tap)` combination has been
    /// encoded and lifted, every later ciphertext through the same layer
    /// multiplies against the cached `Poly` with zero encode/NTT work.
    /// `None` records "this combination is all-zero, skip the multiply".
    /// May be shared across engines (and sessions) of the same model.
    kernel_cache: KernelCache,
}

/// The offsets of a `k`-tap kernel axis ("same" padding convention),
/// each with its kernel index, that are *live* over pieces `extent`
/// pixels long. An offset of `extent` or more pairs no two pixels of
/// one piece: every kernel plaintext of such a tap is all-zero by
/// geometry, so the engine neither rotates to it nor asks for its key.
/// Offset 0 is always live.
fn live_offsets(k: usize, extent: usize) -> Vec<(i64, usize)> {
    let pad = (k - 1) / 2;
    (0..k)
        .map(|i| (i as i64 - pad as i64, i))
        .filter(|&(d, _)| d.unsigned_abs() < extent as u64)
        .collect()
}

/// The live taps of a `k_h × k_w` window over `layout`'s pieces, row by
/// row: offsets `(dy, dx)` and their kernel indices.
fn live_taps(layout: &LaneLayout, k_h: usize, k_w: usize) -> Vec<(i64, i64, usize, usize)> {
    let cols = live_offsets(k_w, layout.piece_w);
    (live_offsets(k_h, layout.piece_h).iter())
        .flat_map(|&(dy, kh)| cols.iter().map(move |&(dx, kw)| (dy, dx, kh, kw)))
        .collect()
}

/// The slot steps [`live_taps`] compose from: tap `(dy, dx)` is the row
/// move `dy·piece_w` followed by the column move `dx`, with step 0 for
/// staying put, so a `k_h × k_w` kernel rotates by `(k_h − 1) +
/// (k_w − 1)` distinct steps where direct taps take `k_h·k_w − 1`.
/// Returns `(rows, cols)`; tap `i·cols.len() + j` of `live_taps` is
/// `rows[i]` then `cols[j]`.
fn tap_moves(layout: &LaneLayout, k_h: usize, k_w: usize) -> (Vec<i64>, Vec<i64>) {
    let rows = live_offsets(k_h, layout.piece_h).into_iter();
    let cols = live_offsets(k_w, layout.piece_w).into_iter();
    (
        rows.map(|(dy, _)| dy * layout.piece_w as i64).collect(),
        cols.map(|(dx, _)| dx).collect(),
    )
}

/// Chooses the baby-step/giant-step split for the diagonal alignment:
/// minimizes total rotations
/// `versions·(kk·b − 1) + groups·(D/b − 1)` over power-of-two `b | D`,
/// with `kk = k_h·k_w` whichever taps are live.
/// In rotation keys the split costs `b − 1` baby steps, the
/// `(k_h − 1) + (k_w − 1)` row and column moves the taps compose from
/// and one giant step however many giant steps there are (they are a
/// Horner walk by `b` blocks), so a smaller `b` is never dearer in
/// keys; the rule does not weigh them, nor the hoist each moved row of
/// each baby step pays.
///
/// Returns `(baby, giants)` with `baby · giants = D`.
pub fn bsgs_split(diagonals: usize, groups: usize, versions: usize, kk: usize) -> (usize, usize) {
    debug_assert!(diagonals.is_power_of_two());
    let mut best = (1usize, usize::MAX);
    let mut b = 1usize;
    while b <= diagonals {
        let cost =
            versions * (kk * b).saturating_sub(1) + groups * (diagonals / b).saturating_sub(1);
        if cost < best.1 {
            best = (b, cost);
        }
        b *= 2;
    }
    (best.0, diagonals / best.0)
}

/// `elements` without repeats, each where it first occurs.
fn first_occurrences(elements: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut seen = Vec::new();
    for g in elements {
        if !seen.contains(&g) {
            seen.push(g);
        }
    }
    seen
}

/// Whether block diagonal `d` pairs something: in some lane, a block
/// `b` that holds an input channel (`held[lane]`) meets block `b − d`
/// (mod the lane's blocks) of `group`, which holds an output channel.
/// At any other diagonal every kernel plaintext is zero whatever the
/// weights.
fn meets(held: &[Vec<usize>], group: &GroupSpec, d: usize) -> bool {
    (held.iter().zip(&group.out_ch)).any(|(held, outs)| {
        (held.iter()).any(|&b| outs[(b + outs.len() - d) % outs.len()].is_some())
    })
}

/// One term of a giant step's inner product: the input's version
/// `version`, moved by baby step `diagonal mod B` and then to live tap
/// `tap`, times the kernel plaintext of `(version, group, diagonal,
/// tap)`.
#[derive(Debug, Clone, Copy)]
struct Term {
    version: usize,
    diagonal: usize,
    tap: usize,
}

/// What [`HeConvEngine::conv_one_ct`] does to one input ciphertext,
/// computed once from the layer's geometry: the engine runs it, and
/// the key schedule ([`ConvWalk::elements`]) and the cost model
/// (`ConvWalk::ops`) read it, so none of the three can drift from
/// the others. Its channel maps are also what the packings move data
/// by: the client scatters an input with `ConvWalk::in_map` and both
/// parties gather a result with its group's output map, through the one
/// scatter and gather of [`crate::layout`], which owns the slot format.
/// A walk whose channels span both lanes holds the channel-split layout
/// and its lane-swapped twin (SPOT's always do, lane 1 empty for a
/// single-channel input); channel-wise packing's single-channel walk
/// holds lane 0 alone.
///
/// In order: the column swap (when the input has a lane-swapped second
/// version); the baby steps `1..B` of each version; at each (version,
/// baby step) position the row moves and then the column moves its
/// live taps compose from; and per output group the Horner walk over
/// the giant steps, last first, in passes (`ConvWalk::passes`), then
/// the folds. Each giant step is one
/// inner product over its terms that are non-zero by geometry: every
/// live tap of each (version, diagonal) that pairs some input channel
/// with some output channel of the group. A term the *weights* zero
/// out is the one thing a walk does not know: the engine drops it when
/// it finds its kernel plaintext empty.
#[derive(Debug, Clone)]
pub struct ConvWalk {
    layout: LaneLayout,
    /// Channel maps per version: one, or the lane-swapped twin too.
    in_maps: Vec<ChannelMap>,
    /// The output groups, one result ciphertext each.
    groups: Arc<[GroupSpec]>,
    /// Baby steps `B` and giant steps of the diagonal alignment.
    baby: usize,
    giants: usize,
    /// The live taps `(dy, dx, kh, kw)`, row by row.
    taps: Vec<(i64, i64, usize, usize)>,
    /// The row and column moves the taps compose from ([`tap_moves`]).
    rows: Vec<i64>,
    cols: Vec<i64>,
    /// `met[(group · D + diagonal) · versions + version]`: whether that
    /// (version, diagonal) pairs a channel with the group.
    met: Vec<bool>,
    /// Block shifts folded into every result by rotate-and-add.
    folds: Vec<usize>,
}

impl ConvWalk {
    /// The walk over ciphertexts packed in `layout`, whose versions
    /// hold `in_maps` (one map, or two to take the column-swapped
    /// cross-lane products too), producing one result per group, over
    /// `diagonals` block diagonals — aligned baby-step/giant-step when
    /// `bsgs`, one block at a time otherwise — with `folds` block
    /// shifts folded into every result, for a `k_h × k_w` kernel.
    pub(crate) fn new(
        layout: LaneLayout,
        in_maps: Vec<ChannelMap>,
        groups: Arc<[GroupSpec]>,
        diagonals: usize,
        folds: Vec<usize>,
        (k_h, k_w): (usize, usize),
        bsgs: bool,
    ) -> Self {
        let versions = in_maps.len();
        assert!(versions == 1 || versions == 2);
        assert!(diagonals >= 1 && layout.blocks.is_multiple_of(diagonals));
        let (baby, giants) = if bsgs {
            bsgs_split(diagonals, groups.len(), versions, k_h * k_w)
        } else {
            (1, diagonals)
        };
        // Per version and lane, the blocks that hold an input channel.
        let held_blocks = |row: &Vec<Option<usize>>| -> Vec<usize> {
            (0..row.len()).filter(|&b| row[b].is_some()).collect()
        };
        let held: Vec<Vec<Vec<usize>>> = (in_maps.iter())
            .map(|in_map| in_map.iter().map(held_blocks).collect())
            .collect();
        let met = (groups.iter())
            .flat_map(|group| (0..diagonals).map(move |d| (group, d)))
            .flat_map(|(group, d)| held.iter().map(move |held| meets(held, group, d)))
            .collect();
        let (rows, cols) = tap_moves(&layout, k_h, k_w);
        Self {
            taps: live_taps(&layout, k_h, k_w),
            rows,
            cols,
            layout,
            in_maps,
            groups,
            baby,
            giants,
            met,
            folds,
        }
    }

    /// Where the walk's input holds its channels: the map a client
    /// scatters with (the first version; a second is its lane swap).
    pub(crate) fn in_map(&self) -> &ChannelMap {
        &self.in_maps[0]
    }

    /// The output groups, one result ciphertext each, in result order:
    /// the maps a share is gathered with.
    pub(crate) fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// The lane layout of the ciphertexts the walk runs on.
    pub(crate) fn layout(&self) -> &LaneLayout {
        &self.layout
    }

    /// Which (baby step, version) pairs of group `gi`'s giant step `j`
    /// pair a channel, baby step major.
    fn step_met(&self, gi: usize, j: usize) -> &[bool] {
        let width = self.baby * self.in_maps.len();
        let first = (gi * self.giants + j) * width;
        &self.met[first..first + width]
    }

    /// Group `gi`'s giant step `j`, term by term, in the order the
    /// engine sums them: by baby step, then version, then tap.
    fn terms(&self, gi: usize, j: usize) -> impl Iterator<Item = Term> + '_ {
        let (versions, taps) = (self.in_maps.len(), self.taps.len());
        (self.step_met(gi, j).iter().enumerate())
            .filter(|&(_, &met)| met)
            .flat_map(move |(at, _)| {
                let (diagonal, version) = (j * self.baby + at / versions, at % versions);
                (0..taps).map(move |tap| Term {
                    version,
                    diagonal,
                    tap,
                })
            })
    }

    /// The tap positions the engine holds for one input ciphertext:
    /// every live tap of every (version, baby step).
    fn positions(&self) -> usize {
        self.in_maps.len() * self.baby * self.taps.len()
    }

    /// The index of `term`'s operand among the walk's tap positions,
    /// which the engine lists version by version, then baby step by
    /// baby step, then tap by tap.
    fn position(&self, term: Term) -> usize {
        (term.version * self.baby + term.diagonal % self.baby) * self.taps.len() + term.tap
    }

    /// The giant steps whose sums the engine computes together, one
    /// pass of [`Evaluator::dot_lifted_steps`] each, in the Horner
    /// walk's order: the last steps first. A pass holds at most as many
    /// step sums as the walk holds tap positions ([`ConvWalk::positions`]),
    /// so its sums never take more memory than the positions they are
    /// summed from.
    fn passes(&self) -> impl Iterator<Item = std::ops::Range<usize>> {
        let (giants, window) = (self.giants, self.positions());
        (0..giants.div_ceil(window))
            .rev()
            .map(move |p| p * window..((p + 1) * window).min(giants))
    }

    /// The Galois elements the walk rotates by, each once, in the order
    /// it first uses them: the column swap, the baby steps, the row
    /// and then the column moves, the giant step `B` (one element for
    /// every giant step of the Horner walk), the folds. Both parties
    /// compute it from the layer geometry alone, which is what lets the
    /// client make exactly the keys the server will use, and upload
    /// them in the order it will ask for them.
    pub fn elements(&self) -> Vec<usize> {
        let n = 2 * self.layout.lane_size;
        let block = |b: usize| galois_elt_from_step(self.layout.block_rotation_step(b), n);
        let moves = (self.rows.iter().chain(&self.cols))
            .filter(|&&step| step != 0)
            .map(|&step| galois_elt_from_step(step, n));
        // A group's Horner walk rotates once it has summed a later step.
        let giant = (0..self.groups.len())
            .any(|gi| (1..self.giants).any(|j| self.step_met(gi, j).contains(&true)));
        first_occurrences(
            ((self.in_maps.len() == 2).then(|| galois_elt_column_swap(n)))
                .into_iter()
                .chain((1..self.baby).map(block))
                .chain(moves)
                .chain(giant.then(|| block(self.baby)))
                .chain(self.folds.iter().map(|&f| block(f))),
        )
    }

    /// The rotations, plaintext multiplications and additions the
    /// engine runs on one input ciphertext when no weight is zero —
    /// what [`HeConvEngine::conv_one_ct`]'s evaluator tallies.
    pub(crate) fn ops(&self) -> OpCounts {
        let versions = self.in_maps.len() as u64;
        let moving = |steps: &[i64]| steps.iter().filter(|&&step| step != 0).count() as u64;
        let to_taps = moving(&self.rows) + self.rows.len() as u64 * moving(&self.cols);
        let folds = self.folds.len() as u64;
        let mut ops = OpCounts {
            rotate: (versions - 1)
                + versions * (self.baby as u64 - 1)
                + versions * self.baby as u64 * to_taps,
            ..OpCounts::default()
        };
        for gi in 0..self.groups.len() {
            let mut summed = false;
            for j in (0..self.giants).rev() {
                ops.rotate += u64::from(summed);
                let met = self.step_met(gi, j).iter().filter(|&&met| met).count();
                if let Some(rest) = (met * self.taps.len()).checked_sub(1) {
                    ops.mult_plain += rest as u64 + 1;
                    ops.add += rest as u64 + u64::from(summed);
                    summed = true;
                }
            }
            // A group with nothing to sum multiplies by a zero plaintext.
            ops.mult_plain += u64::from(!summed);
            ops.rotate += folds;
            ops.add += folds;
        }
        ops
    }
}

impl<'k> HeConvEngine<'k> {
    /// Builds the engine of one layer around the client's Galois keys,
    /// which must come to cover the [`ConvWalk::elements`] of every walk
    /// the layer will run, and a [`KernelCache`]: the serving layer
    /// passes the model's, so every session multiplies against the same
    /// lifted kernel plaintexts, while the keys stay per engine because
    /// they are client key material.
    pub fn new(ctx: &Arc<Context>, keys: &'k dyn RotationKeys, cache: KernelCache) -> Self {
        Self {
            ctx: Arc::clone(ctx),
            encoder: BatchEncoder::new(ctx),
            evaluator: Evaluator::new(ctx),
            keys,
            key_wait_ns: AtomicU64::new(0),
            kernel_cache: cache,
        }
    }

    /// Thread-time the engine's callers have spent blocked waiting for
    /// a rotation key. Exact once the threads that used it are joined.
    pub fn key_wait(&self) -> Duration {
        // Relaxed: a statistic that publishes nothing else.
        Duration::from_nanos(self.key_wait_ns.load(Ordering::Relaxed))
    }

    /// Rotates a decomposed ciphertext by `g`, waiting for the key if
    /// it has not arrived yet. The decomposition is the caller's
    /// argument so that it is done before the wait, not after it.
    fn rotate(&self, at: &HoistedCiphertext, g: usize) -> Result<Ciphertext, SpotError> {
        let (keys, waited) = self.keys.wait(g)?;
        self.key_wait_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        Ok(self.evaluator.rotate_hoisted(at, g, &keys))
    }

    /// The batch encoder.
    pub fn encoder(&self) -> &BatchEncoder {
        &self.encoder
    }

    /// The evaluator, and with it the tally of every HE operation the
    /// engine has run.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Builds the kernel plaintext of `term` for group `gi` of `walk`:
    /// the tap's weights masked to the pixels it pairs within a piece,
    /// pre-rotated left by the term's baby step so the giant rotations
    /// complete the alignment. `None` when the weights leave it empty.
    #[allow(clippy::needless_range_loop)]
    fn kernel_plaintext(
        &self,
        walk: &ConvWalk,
        gi: usize,
        term: Term,
        kernel: &Kernel,
    ) -> Option<spot_he::encoding::Plaintext> {
        let layout = &walk.layout;
        let (in_map, group, d) = (&walk.in_maps[term.version], &walk.groups[gi], term.diagonal);
        let (dy, dx, kh, kw) = walk.taps[term.tap];
        let pre_rot = (d % walk.baby) * layout.groups * layout.piece_slots;
        let t = self.ctx.params().plain_modulus();
        let r = layout.lane_size;
        let mut slots = vec![0u64; 2 * r];
        let mut any = false;
        for lane in 0..2 {
            for b in 0..layout.blocks {
                let Some(in_c) = in_map[lane][b] else {
                    continue;
                };
                if in_c >= kernel.in_channels() {
                    continue;
                }
                let out_block = (b + layout.blocks - d) % layout.blocks;
                let Some(out_c) = group.out_ch[lane][out_block] else {
                    continue;
                };
                if out_c >= kernel.out_channels() {
                    continue;
                }
                let w = kernel.at(out_c, in_c, kh, kw);
                if w == 0 {
                    continue;
                }
                let wf = w.rem_euclid(t as i64) as u64;
                for y in 0..layout.piece_h {
                    let ty = y as i64 + dy;
                    if ty < 0 || ty >= layout.piece_h as i64 {
                        continue;
                    }
                    for x in 0..layout.piece_w {
                        let tx = x as i64 + dx;
                        if tx < 0 || tx >= layout.piece_w as i64 {
                            continue;
                        }
                        for g in 0..layout.groups {
                            let pos = (layout.slot(b, g, y, x) + r - pre_rot % r) % r;
                            slots[lane * r + pos] = wf;
                            any = true;
                        }
                    }
                }
            }
        }
        if any {
            Some(self.encoder.encode(&slots))
        } else {
            None
        }
    }

    /// Returns the lifted (NTT-domain) kernel plaintext of `term` for
    /// group `gi`, from the cache once it has been built. `None` means
    /// the weights zero it out and the multiply can be skipped.
    fn lifted_kernel(&self, req: &ConvRequest<'_>, gi: usize, term: Term) -> Option<Arc<Poly>> {
        let build = || {
            self.kernel_plaintext(req.walk, gi, term, req.kernel)
                .map(|pt| Arc::new(pt.lift(&self.ctx)))
        };
        let key: KernelKey = (req.cache_tag, term.version, gi, term.diagonal, term.tap);
        self.kernel_cache.get_or_build(key, build)
    }

    /// The live tap positions of one hoisted position, in the walk's tap
    /// order; `None` is the centre tap, the position's own ciphertext.
    /// The row moves come from the position's hoist, the column moves
    /// from that same hoist for the centre row and from one hoist per
    /// moved row for the others: the same number of key switches as
    /// rotating to each tap directly, by far fewer distinct elements
    /// ([`tap_moves`]), for one more decomposition a moved row.
    fn tap_positions(
        &self,
        at: &HoistedCiphertext,
        walk: &ConvWalk,
    ) -> Result<Vec<Option<Ciphertext>>, SpotError> {
        let n = self.ctx.degree();
        let cols = &walk.cols;
        let moved = |at: &HoistedCiphertext, step: i64| {
            (step != 0)
                .then(|| self.rotate(at, galois_elt_from_step(step, n)))
                .transpose()
        };
        let rows = (walk.rows.iter().map(|&step| moved(at, step)))
            .collect::<Result<Vec<Option<Ciphertext>>, SpotError>>()?;
        let mut tapped = Vec::with_capacity(rows.len() * cols.len());
        for mut row in rows {
            // A row that moves no further needs no decomposition.
            let hoisted = (row.as_ref())
                .filter(|_| cols.len() > 1)
                .map(|row| self.evaluator.hoist(row));
            let from = hoisted.as_ref().unwrap_or(at);
            for &step in cols {
                tapped.push(match step {
                    0 => row.take(),
                    step => moved(from, step)?,
                });
            }
        }
        Ok(tapped)
    }

    /// Runs the request's walk over one input ciphertext.
    ///
    /// Returns one ciphertext per output group, or the error of a
    /// rotation key that can no longer arrive.
    pub fn conv_one_ct(
        &self,
        ct: &Ciphertext,
        req: &ConvRequest<'_>,
    ) -> Result<Vec<Ciphertext>, SpotError> {
        let walk = req.walk;
        let (layout, baby) = (&walk.layout, walk.baby);
        let ev = &self.evaluator;

        // Pre-rotate the input to every (version, baby step, live tap)
        // position, shared across output groups and giant steps — the
        // BSGS trade. All rotations of one ciphertext share its
        // key-switch decomposition: the column swap, the baby steps and
        // the first position's row and centre-row column moves come
        // from the input's hoist, and taking the baby steps before the
        // taps leaves one hoist per position besides its moved rows'.
        // Every rotation below is hoist first, then `self.rotate`: the
        // decomposition needs no key, so it overlaps the key's upload.
        let n = self.ctx.degree();
        let block = |b: usize| galois_elt_from_step(layout.block_rotation_step(b), n);
        let input = ev.hoist(ct);
        let swapped = (walk.in_maps.len() == 2)
            .then(|| self.rotate(&input, galois_elt_column_swap(n)))
            .transpose()?;
        let versions: Vec<&Ciphertext> = std::iter::once(ct).chain(swapped.as_ref()).collect();
        // `stepped[vi][b - 1]`: version `vi` moved by `b ≥ 1` baby
        // steps; `tapped[vi * baby + b][ti]`: that position's tap `ti`.
        let mut stepped: Vec<Vec<Ciphertext>> = Vec::with_capacity(versions.len());
        let mut tapped = Vec::with_capacity(versions.len() * baby);
        let mut hoisted_input = Some(input);
        for &version in &versions {
            let at = hoisted_input.take().unwrap_or_else(|| ev.hoist(version));
            let steps = (1..baby)
                .map(|b| self.rotate(&at, block(b)))
                .collect::<Result<Vec<Ciphertext>, SpotError>>()?;
            tapped.push(self.tap_positions(&at, walk)?);
            for step in &steps {
                tapped.push(self.tap_positions(&ev.hoist(step), walk)?);
            }
            stepped.push(steps);
        }
        // Every position in one list, in `ConvWalk::position`'s order.
        let positions: Vec<&Ciphertext> = (tapped.iter().enumerate())
            .flat_map(|(at, taps)| {
                let (vi, b) = (at / baby, at % baby);
                let position = if b == 0 {
                    versions[vi]
                } else {
                    &stepped[vi][b - 1]
                };
                taps.iter().map(move |tap| tap.as_ref().unwrap_or(position))
            })
            .collect();

        // The giant steps are a Horner walk, last step first:
        // `acc ← S_j + rot(acc, B)` with `B` = `baby` blocks. A block
        // rotation is linear in its step and cyclic over the lane, so
        // step `j`'s inner product `S_j` ends up moved by `j·B`, as if
        // rotated there at once; the rotations, their hoists and their
        // noise terms number the same, and one key serves them all. The
        // sums `S_j` of a pass's steps come first, in one sweep over the
        // positions ([`Evaluator::dot_lifted_steps`]), and the walk then
        // consumes them.
        let mut outputs = Vec::with_capacity(walk.groups.len());
        for gi in 0..walk.groups.len() {
            let mut acc_total: Option<Ciphertext> = None;
            for pass in walk.passes() {
                // Every term of a giant step the weights leave is one
                // term of that step's inner product.
                let steps: Vec<Vec<(usize, Arc<Poly>)>> = (pass.rev())
                    .map(|j| {
                        (walk.terms(gi, j))
                            .filter_map(|term| {
                                Some((walk.position(term), self.lifted_kernel(req, gi, term)?))
                            })
                            .collect()
                    })
                    .collect();
                for sum in ev.dot_lifted_steps(&positions, &steps) {
                    // What the later steps have summed moves one step
                    // on, whether or not this step adds anything to it.
                    let moved = (acc_total.take())
                        .map(|acc| self.rotate(&ev.hoist(&acc), block(baby)))
                        .transpose()?;
                    acc_total = match (moved, sum) {
                        (Some(mut acc), Some(sum)) => {
                            ev.add_inplace(&mut acc, &sum);
                            Some(acc)
                        }
                        (moved, sum) => moved.or(sum),
                    };
                }
            }
            let mut out = acc_total.unwrap_or_else(|| {
                // All-zero kernel for this group: a zero ciphertext is a
                // multiply of the input by an all-zero plaintext.
                let zero = self.encoder.encode(&vec![0u64; self.ctx.degree()]);
                ev.multiply_plain(ct, &zero)
            });
            // Fold partial sums across block strides (C_o < C_i case).
            for &f in &walk.folds {
                let rot = self.rotate(&ev.hoist(&out), block(f))?;
                ev.add_inplace(&mut out, &rot);
            }
            outputs.push(out);
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taps_centered() {
        let wide = LaneLayout::new(2048, 1, 4, 4);
        let taps = live_taps(&wide, 3, 3);
        assert_eq!(taps.len(), 9);
        assert_eq!(taps[4], (0, 0, 1, 1));
        assert!(taps.contains(&(-1, -1, 0, 0)));
        assert!(taps.contains(&(1, 1, 2, 2)));
        assert_eq!(live_taps(&wide, 1, 1), vec![(0, 0, 0, 0)]);
    }

    /// A tap is live where its offset pairs two pixels of one piece.
    #[test]
    fn taps_that_leave_their_piece_class_are_dropped() {
        let strip = LaneLayout::new(2048, 1, 4, 1);
        assert_eq!(
            live_taps(&strip, 3, 3),
            vec![(-1, 0, 0, 1), (0, 0, 1, 1), (1, 0, 2, 1)]
        );
        assert_eq!(tap_moves(&strip, 3, 3), (vec![-1, 0, 1], vec![0]));
        let corner = LaneLayout::new(2048, 1, 1, 1);
        assert_eq!(live_taps(&corner, 5, 5), vec![(0, 0, 2, 2)]);
        let narrow = LaneLayout::new(2048, 1, 2, 3);
        assert_eq!(
            tap_moves(&narrow, 5, 5),
            (vec![-3, 0, 3], vec![-2, -1, 0, 1, 2])
        );
    }

    #[test]
    fn bsgs_split_is_optimal_and_exact() {
        for d in [1usize, 2, 8, 64, 256] {
            for groups in [1usize, 2, 4, 16] {
                for versions in [1usize, 2] {
                    let (baby, giants) = bsgs_split(d, groups, versions, 9);
                    assert_eq!(baby * giants, d, "split must cover all diagonals");
                    // cost of the chosen split is minimal over all pow2 splits
                    let cost = |b: usize| {
                        versions * (9 * b).saturating_sub(1) + groups * (d / b).saturating_sub(1)
                    };
                    let chosen = cost(baby);
                    let mut b = 1;
                    while b <= d {
                        assert!(chosen <= cost(b), "d={d} g={groups}: {baby} vs {b}");
                        b *= 2;
                    }
                }
            }
        }
    }

    #[test]
    fn bsgs_degenerates_for_single_diagonal() {
        assert_eq!(bsgs_split(1, 8, 2, 9), (1, 1));
    }

    /// A complete key set that notes which element was asked for, in
    /// the order of first requests.
    #[derive(Debug)]
    struct Recording {
        keys: Arc<GaloisKeys>,
        asked: std::sync::Mutex<Vec<usize>>,
    }

    impl RotationKeys for Recording {
        fn wait(&self, g: usize) -> Result<(Arc<GaloisKeys>, Duration), SpotError> {
            let mut asked = self.asked.lock().unwrap();
            if !asked.contains(&g) {
                asked.push(g);
            }
            self.keys.wait(g)
        }
    }

    /// What one SPOT `conv_one_ct` at `c_in → c_out` did and produced,
    /// for a `kernel.0 × kernel.1` kernel over `piece.0 × piece.1`
    /// pieces: `(rotations, key-switch decompositions, mult_plain, add)`
    /// — the engine's evaluator's tally, which the trace counters on
    /// this thread must have seen too — an FNV-1a digest of the slots
    /// its outputs decrypt to, and the rotation keys it asked for. On
    /// the way it holds the engine to its walk: the order it first asks
    /// for each rotation key is the order [`ConvWalk::elements`] lists
    /// them in, and its tally is [`ConvWalk::ops`].
    fn engine_run(
        (c_in, c_out): (usize, usize),
        piece: (usize, usize),
        (k_h, k_w): (usize, usize),
    ) -> ((u64, u64, u64, u64), u64, Vec<usize>) {
        use crate::spot::blocking;
        use rand::SeedableRng;
        use spot_he::prelude::*;
        use spot_trace::{Counter, SessionCounters};

        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let blk = blocking(c_in, c_out);
        let layout = LaneLayout::new(ctx.degree() / 2, blk.lane_blocks, piece.0, piece.1);
        let kernel = Kernel::random(c_out, c_in, k_h, k_w, 3, 6);
        let walk = blk.walk(layout, (c_in, c_out), (k_h, k_w));
        let elements = walk.elements();
        let store = Recording {
            keys: Arc::new(keygen.galois_keys(&elements, &mut rng)),
            asked: Default::default(),
        };
        let engine = HeConvEngine::new(&ctx, &store, KernelCache::new());
        let req = ConvRequest {
            walk: &walk,
            kernel: &kernel,
            cache_tag: 0,
        };
        let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
        let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
        let slots: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 251).collect();
        let ct = encryptor.encrypt(&engine.encoder().encode(&slots), &mut rng);

        let sink = SessionCounters::new(0);
        let outer = spot_trace::set_session_counters(Some(sink.clone()));
        let outputs = engine.conv_one_ct(&ct, &req).expect("complete key set");
        spot_trace::set_session_counters(outer);
        let asked = store.asked.lock().unwrap().clone();
        assert_eq!(
            asked, elements,
            "{c_in} → {c_out}: first-use order is the schedule"
        );
        assert_eq!(engine.key_wait(), Duration::ZERO);
        let (seen, counts) = (sink.snapshot(), engine.evaluator().counts());
        assert_eq!(seen.get(Counter::Rotate), counts.rotate);
        assert_eq!(seen.get(Counter::MultPlain), counts.mult_plain);
        assert_eq!(seen.get(Counter::AddOps), counts.add);
        assert_eq!(walk.ops(), counts, "{c_in} → {c_out}: the walk is what ran");
        // The passes cover the giant steps once, last steps first, and
        // none holds more step sums than there are tap positions.
        let passes: Vec<std::ops::Range<usize>> = walk.passes().collect();
        assert!(passes
            .iter()
            .all(|p| !p.is_empty() && p.len() <= walk.positions()));
        let steps: Vec<usize> = passes.iter().flat_map(|p| p.clone().rev()).collect();
        assert_eq!(steps, (0..walk.giants).rev().collect::<Vec<usize>>());

        assert_eq!(outputs.len(), walk.groups.len());
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for out in &outputs {
            assert!(decryptor.noise_budget(out) > 0, "{c_in} → {c_out}");
            for slot in engine.encoder().decode(&decryptor.decrypt(out)) {
                for byte in slot.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let ops = (
            counts.rotate,
            seen.get(Counter::KsDecompose),
            counts.mult_plain,
            counts.add,
        );
        (ops, digest, asked)
    }

    /// [`engine_run`] with a 3×3 kernel over 4×4 pieces.
    fn ops_and_output_digest(c_in: usize, c_out: usize) -> ((u64, u64, u64, u64), u64) {
        let (ops, digest, _) = engine_run((c_in, c_out), (4, 4), (3, 3));
        (ops, digest)
    }

    /// Digests pinned on the term-by-term engine that rotated straight
    /// to each tap (one `multiply_lifted` and one `add_inplace` per
    /// tap, eight tap keys): summing the taps as one inner product and
    /// composing them from row and column moves move no decrypted slot,
    /// and over 4×4 pieces no rotation either. The second count is the
    /// hoists per ciphertext: one per (version, baby step) position,
    /// two more for its moved rows, one per giant step and fold. The
    /// other three are the walk's [`ConvWalk::ops`] too: `engine_run`
    /// holds the tally to it.
    #[test]
    fn pinned_shapes_keep_their_op_counts_and_decrypted_slots() {
        // 8 → 8: swap + 2 versions × 8 taps + 3 giant steps. Two
        // versions × nine taps multiply on each of four diagonals.
        assert_eq!(
            ops_and_output_digest(8, 8),
            ((1 + 16 + 3, 2 * 3 + 3, 72, 71), 0x19f29b4925389b98)
        );
        // 8 → 128 splits (baby, giants) = (2, 2): swap + 2 × (1 baby +
        // 2 × 8 taps) + 16 giant steps, over 2 × 2 positions.
        assert_eq!(
            ops_and_output_digest(8, 128),
            ((1 + 34 + 16, 4 * 3 + 16, 1152, 1136), 0x21bd61add2516639)
        );
        // 16 → 2 folds: every fold step is a rotation of its own.
        let folds = crate::spot::blocking(16, 2).fold_steps.len() as u64;
        assert_eq!(
            ops_and_output_digest(16, 2),
            (
                (1 + 16 + 1 + folds, 2 * 3 + 1 + folds, 36, 37),
                0xe89bf7767f05b425
            )
        );
    }

    /// Pinned on the engine that rotated giant step `j` by an element
    /// of its own (`block(j·B)`, fifteen keys here): the Horner walk
    /// asks for one, and moves no count and no decrypted slot.
    #[test]
    fn sixteen_giant_steps_rotate_by_one_key() {
        let blk = crate::spot::blocking(32, 32);
        let layout = LaneLayout::new(2048, blk.lane_blocks, 4, 4);
        let walk = blk.walk(layout, (32, 32), (3, 3));
        assert_eq!((walk.baby, walk.giants), (1, 16));
        let schedule = walk.elements();
        let giant_steps = (1..16)
            .map(|j| galois_elt_from_step(layout.block_rotation_step(j), 4096))
            .filter(|g| schedule.contains(g));
        assert_eq!(giant_steps.count(), 1, "{schedule:?}");
        assert_eq!(schedule.len(), 1 + 4 + 1, "swap, moves, the giant step");
        assert_eq!(
            ops_and_output_digest(32, 32),
            ((1 + 16 + 15, 2 * 3 + 15, 288, 287), 0xb0dfb2b2e1b3c991)
        );
    }

    /// A 1×1 kernel holds as few tap positions as it has (version, baby
    /// step) pairs, fewer than its giant steps, so its step sums take
    /// several passes. Pinned on the engine that summed one giant step
    /// at a time (`dot_lifted` per step, interleaved with the Horner
    /// rotations): the passes move no count and no decrypted slot.
    #[test]
    fn giant_steps_past_the_tap_positions_split_into_passes() {
        for ((c_in, c_out), passes, pinned) in [
            ((32, 32), 2, ((10, 11, 32, 31), 0x7144_4f6d_87d7_e674)),
            ((8, 8), 2, ((4, 5, 8, 7), 0x8f18_a54c_5792_0339)),
        ] {
            let blk = crate::spot::blocking(c_in, c_out);
            let layout = LaneLayout::new(2048, blk.lane_blocks, 4, 4);
            let walk = blk.walk(layout, (c_in, c_out), (1, 1));
            assert!(walk.giants > walk.positions(), "{c_in} → {c_out}");
            assert_eq!(walk.passes().count(), passes, "{c_in} → {c_out}");
            let (ops, digest, _) = engine_run((c_in, c_out), (4, 4), (1, 1));
            assert_eq!((ops, digest), pinned, "{c_in} → {c_out}");
        }
    }

    /// The taps' share of the key schedule: the row moves, then the
    /// column moves, of the live taps and of no other — so a kernel of
    /// `k_h × k_w` asks for `(k_h − 1) + (k_w − 1)` tap keys at most, a
    /// 1-wide piece class for its row moves only and a 1×1 class for
    /// none. `engine_run` holds every case to [`ConvWalk::elements`].
    #[test]
    fn taps_ask_for_their_row_moves_then_their_column_moves_and_only_where_live() {
        let elt = |step: i64| galois_elt_from_step(step, 4096);
        // 8 → 8: the swap, two versions, three giant steps; every
        // rotation by less than a piece is a tap move.
        let run = |piece: (usize, usize), kernel: (usize, usize)| {
            let ((rotations, hoists, _, _), _, asked) = engine_run((8, 8), piece, kernel);
            let within = crate::layout::next_pow2(piece.0 * piece.1) as i64;
            let moves: Vec<usize> = (1..within).flat_map(|s| [elt(s), elt(-s)]).collect();
            let asked = asked.into_iter().filter(|g| moves.contains(g));
            (asked.collect::<Vec<usize>>(), rotations - 4, hoists - 3)
        };
        let elts = |steps: &[i64]| steps.iter().map(|&s| elt(s)).collect::<Vec<usize>>();

        // Eight key switches a position either way; a moved row that
        // moves on is hoisted, the position itself always.
        assert_eq!(run((4, 4), (3, 3)), (elts(&[-4, 4, -1, 1]), 2 * 8, 2 * 3));
        assert_eq!(
            run((4, 4), (5, 5)),
            (elts(&[-8, -4, 4, 8, -2, -1, 1, 2]), 2 * 24, 2 * 5)
        );
        assert_eq!(run((4, 4), (3, 1)), (elts(&[-4, 4]), 2 * 2, 2));
        // Direct taps rotated a 4×1 strip by ±2 for nothing and by ±1
        // twice, and a lone pixel by ±1 and ±2.
        assert_eq!(run((4, 1), (3, 3)), (elts(&[-1, 1]), 2 * 2, 2));
        assert_eq!(run((1, 4), (3, 3)), (elts(&[-1, 1]), 2 * 2, 2));
        assert_eq!(run((1, 1), (3, 3)), (vec![], 0, 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// A row move followed by a column move is the rotation that
        /// went straight to the tap: every live tap position decrypts
        /// to the input rotated by `dy·piece_w + dx`, slot for slot.
        #[test]
        fn composed_taps_land_every_slot_where_one_rotation_would(
            k_h in 1usize..6,
            k_w in 1usize..6,
            piece_h in 1usize..7,
            piece_w in 1usize..7,
            seed in 0u64..u64::MAX,
        ) {
            use rand::{Rng, SeedableRng};
            use spot_he::encoding::rotate_slots_reference;
            use spot_he::prelude::*;

            let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let keygen = KeyGenerator::new(&ctx, &mut rng);
            let layout = LaneLayout::new(ctx.degree() / 2, 1, piece_h, piece_w);
            let one_channel = vec![vec![Some(0)], vec![None]];
            let walk = ConvWalk::new(
                layout,
                vec![one_channel.clone()],
                vec![GroupSpec { out_ch: one_channel }].into(),
                1,
                Vec::new(),
                (k_h, k_w),
                true,
            );
            let keys = Arc::new(keygen.galois_keys(&walk.elements(), &mut rng));
            let engine = HeConvEngine::new(&ctx, &keys, KernelCache::new());
            let t = ctx.params().plain_modulus();
            let slots: Vec<u64> = (0..ctx.degree()).map(|_| rng.gen_range(0..t)).collect();
            let encryptor = Encryptor::new(&ctx, keygen.public_key(&mut rng));
            let decryptor = Decryptor::new(&ctx, keygen.secret_key().clone());
            let ct = encryptor.encrypt(&engine.encoder().encode(&slots), &mut rng);

            let at = engine.evaluator().hoist(&ct);
            let tapped = engine.tap_positions(&at, &walk).expect("complete key set");
            proptest::prop_assert_eq!(tapped.len(), walk.taps.len());
            for (position, &(dy, dx, _, _)) in tapped.iter().zip(&walk.taps) {
                let step = dy * piece_w as i64 + dx;
                proptest::prop_assert_eq!(position.is_none(), step == 0);
                let position = position.as_ref().unwrap_or(&ct);
                proptest::prop_assert!(decryptor.noise_budget(position) > 0);
                proptest::prop_assert_eq!(
                    engine.encoder().decode(&decryptor.decrypt(position)),
                    rotate_slots_reference(&slots, step),
                    "tap ({}, {})", dy, dx
                );
            }
        }
    }

    /// A kernel that is zero on the whole of an interior diagonal block
    /// leaves one giant step nothing to multiply. The walk must still
    /// rotate there, or the later steps' sum ends one step short.
    #[test]
    fn an_empty_giant_step_still_moves_the_sum_of_the_later_ones() {
        use crate::patching::PatchMode;
        use crate::session::{run_phased, LayerSpec, SchemeKind};
        use crate::spot::blocking;
        use rand::SeedableRng;
        use spot_he::prelude::*;
        use spot_tensor::conv::conv2d;
        use spot_tensor::tensor::Tensor;

        let blk = blocking(8, 8);
        let (in_maps, groups) = (blk.in_maps(0, 8), blk.group_specs(8));
        assert_eq!(
            bsgs_split(blk.diagonals, groups.len(), in_maps.len(), 9),
            (1, 4)
        );
        let dense = Kernel::random(8, 8, 3, 3, 3, 6);
        // Diagonal 2 = giant step 2 of 0..4: every (output, input)
        // channel pair whose blocks lie two apart.
        let mut sparse = dense.clone();
        let mut zeroed = 0;
        for in_map in &in_maps {
            for (lane, blocks) in in_map.iter().enumerate() {
                for (b, in_c) in blocks.iter().enumerate() {
                    let out_block = (b + blk.lane_blocks - 2) % blk.lane_blocks;
                    let (Some(in_c), Some(out_c)) = (*in_c, groups[0].out_ch[lane][out_block])
                    else {
                        continue;
                    };
                    for (kh, kw) in (0..3).flat_map(|kh| (0..3).map(move |kw| (kh, kw))) {
                        *sparse.at_mut(out_c, in_c, kh, kw) = 0;
                    }
                    zeroed += 1;
                }
            }
        }
        assert_eq!(zeroed, 16, "a quarter of the 8 × 8 channel pairs");

        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(8, 8, 8, 5, 11);
        let mut run = |kernel: &Kernel| {
            let spec = LayerSpec::for_layer(
                SchemeKind::Spot,
                &input,
                kernel,
                1,
                (4, 4),
                PatchMode::Tweaked,
            );
            let result = run_phased(&ctx, &keygen, spec, &input, kernel, &mut rng);
            assert_eq!(result.reconstruct(), conv2d(&input, kernel, 1));
            result.counts
        };
        let (full, holed) = (run(&dense), run(&sparse));
        assert_eq!(holed.rotate, full.rotate, "the empty step rotates too");
        assert!(holed.mult_plain < full.mult_plain, "{holed:?} vs {full:?}");
    }

    #[test]
    fn taps_even_kernel() {
        // 2x2 kernel: padding (k-1)/2 = 0, offsets 0..2
        let taps = live_taps(&LaneLayout::new(2048, 1, 4, 4), 2, 2);
        assert_eq!(taps.len(), 4);
        assert!(taps.contains(&(0, 0, 0, 0)));
        assert!(taps.contains(&(1, 1, 1, 1)));
    }
}
