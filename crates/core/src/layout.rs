//! The slot format: which SIMD slot holds channel `c` of piece `p` of
//! image `b`. This module is the only place that decides it; the
//! packing schemes and the conv engine name channels with a
//! [`ChannelMap`] and leave the slot arithmetic here.
//!
//! A BFV ciphertext's `N` slots form two rows ("lanes") of `R = N/2`
//! slots that row-rotations shift cyclically and independently. Every
//! packing in this crate fills each lane with an exact power-of-two block
//! structure so that the rotations a convolution needs are plain row
//! rotations:
//!
//! ```text
//! lane = [ block 0 | block 1 | ... | block B-1 ]       (B channel blocks)
//! block b = [ piece 0 | piece 1 | ... | piece G-1 ]    (G piece positions)
//! piece = S slots (row-major h×w, zero-padded to the power of two S)
//! ```
//!
//! Channel-major, piece-minor: rotating the lane by `d·G·S` cyclically
//! permutes the channel blocks (the MIMO diagonal alignment), and
//! rotating by a small spatial offset shifts every piece's pixels
//! simultaneously (the SISO kernel taps), with cross-piece leakage
//! removed by zeros in the kernel plaintexts.
//!
//! A piece position spans both lanes and every block: a [`ChannelMap`]
//! says which channel sits in each `(lane, block)` of it. The one tiled
//! packing ([`crate::tile`]) fills the positions with a tile's pieces
//! and the blocks with one of its channel groups: SPOT's pieces are
//! patches, all channels split across the two lanes (lane 1 empty for a
//! single-channel input); channel-wise packing's one piece is the whole
//! map, at position 0, one channel group a ciphertext (lane 0 alone for
//! a single-channel input). It writes a tensor into slots with the one
//! `LaneLayout::scatter` and reads one back with the one
//! `LaneLayout::gather`; [`BatchLayout`] then interleaves a batch's
//! images, or its masks, over the free positions.

use crate::error::SpotError;
use spot_tensor::fixed::to_field;
use spot_tensor::tensor::Tensor;

/// Channel assignment for one ciphertext: `map[lane][block]` is the
/// channel held by that block at every piece position (`None` =
/// padding).
pub type ChannelMap = Vec<Vec<Option<usize>>>;

/// A lane layout: `B` channel blocks × `G` pieces × `S` spatial slots,
/// with `B·G·S = R` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneLayout {
    /// Slots per lane (`N/2`).
    pub lane_size: usize,
    /// Channel blocks per lane.
    pub blocks: usize,
    /// Piece positions per block.
    pub groups: usize,
    /// Slots per piece (power of two ≥ piece height × width).
    pub piece_slots: usize,
    /// Piece height.
    pub piece_h: usize,
    /// Piece width.
    pub piece_w: usize,
}

/// Rounds up to the next power of two (min 1).
pub fn next_pow2(x: usize) -> usize {
    x.max(1).next_power_of_two()
}

/// The `(lane, block, channel)` triples `map` places, lane-major.
fn placed(map: &ChannelMap) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    (map.iter().enumerate()).flat_map(|(lane, row)| {
        (row.iter().enumerate()).filter_map(move |(block, ch)| ch.map(|c| (lane, block, c)))
    })
}

impl LaneLayout {
    /// Builds a layout for pieces of `piece_h × piece_w` with `blocks`
    /// channel blocks in a lane of `lane_size` slots.
    ///
    /// `groups` is derived to exactly fill the lane.
    ///
    /// # Panics
    ///
    /// Panics where `LaneLayout::try_new` refuses, or if the lane size
    /// is not a multiple of `blocks · S`.
    pub fn new(lane_size: usize, blocks: usize, piece_h: usize, piece_w: usize) -> Self {
        Self::try_new(lane_size, blocks, piece_h, piece_w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`LaneLayout::new`], or the typed refusal of pieces that do not
    /// fit (`blocks · S > lane_size`) — the one statement of that
    /// precondition, so a plan can check a hello against it before it
    /// allocates anything the hello sizes.
    pub(crate) fn try_new(
        lane_size: usize,
        blocks: usize,
        piece_h: usize,
        piece_w: usize,
    ) -> Result<Self, SpotError> {
        let piece_slots = next_pow2(piece_h * piece_w);
        if blocks * piece_slots > lane_size {
            return Err(SpotError::Protocol(format!(
                "pieces of {piece_h}x{piece_w} do not fit a lane: {blocks} blocks × {piece_slots} slots > {lane_size}"
            )));
        }
        assert_eq!(
            lane_size % (blocks * piece_slots),
            0,
            "lane not divisible by block structure"
        );
        Ok(Self {
            lane_size,
            blocks,
            groups: lane_size / (blocks * piece_slots),
            piece_slots,
            piece_h,
            piece_w,
        })
    }

    /// Slot index (within the lane) of `(block, group, y, x)`.
    #[inline]
    pub fn slot(&self, block: usize, group: usize, y: usize, x: usize) -> usize {
        debug_assert!(block < self.blocks && group < self.groups);
        debug_assert!(y < self.piece_h && x < self.piece_w);
        block * (self.groups * self.piece_slots) + group * self.piece_slots + y * self.piece_w + x
    }

    /// The rotation step that cyclically shifts channel blocks by `d`.
    pub fn block_rotation_step(&self, d: usize) -> i64 {
        (d * self.groups * self.piece_slots) as i64
    }

    /// Writes `tensor` into piece position `group` of the full
    /// `2·lane_size` slot row `slots`: channel `map[lane][block]` of it
    /// into that block of that lane, pixel `(y, x)` at
    /// `slot(block, group, y, x)`, each value mapped into `Z_t`.
    pub(crate) fn scatter(
        &self,
        map: &ChannelMap,
        group: usize,
        tensor: &Tensor,
        t: u64,
        slots: &mut [u64],
    ) {
        for (lane, block, c) in placed(map) {
            for y in 0..tensor.height() {
                for x in 0..tensor.width() {
                    slots[lane * self.lane_size + self.slot(block, group, y, x)] =
                        to_field(tensor.at(c, y, x), t);
                }
            }
        }
    }

    /// Reads piece position `group` of `slots` into `out`: every
    /// channel `map` names, from the first `(lane, block)` that holds
    /// it (a folded result repeats its channels), `out`'s pixel
    /// `(y, x)` from the piece's `(y·stride, x·stride)`, through `lift`.
    pub(crate) fn gather(
        &self,
        map: &ChannelMap,
        group: usize,
        stride: usize,
        slots: &[u64],
        lift: impl Fn(u64) -> i64,
        out: &mut Tensor,
    ) {
        let mut read = vec![false; out.channels()];
        for (lane, block, c) in placed(map) {
            if std::mem::replace(&mut read[c], true) {
                continue;
            }
            for y in 0..out.height() {
                for x in 0..out.width() {
                    let slot = self.slot(block, group, y * stride, x * stride);
                    *out.at_mut(c, y, x) = lift(slots[lane * self.lane_size + slot]);
                }
            }
        }
    }
}

/// Cross-image SIMD-slot batching: interleaves several images' slot
/// rows into the free piece positions of one ciphertext.
///
/// A single image occupies positions `0..stride` (its piece count; 1
/// for channel-wise packing), each across both lanes and every channel
/// block. The convolution's kernel plaintexts write every position
/// identically, so each position computes an independent convolution
/// and spare positions are free capacity: image `b` takes positions
/// `b·stride ..`, giving [`BatchLayout::capacity`] images per
/// ciphertext with the server's HE operation count unchanged —
/// rotations and key switches amortize to `1/B` per image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLayout {
    /// The lane structure the images are packed in.
    pub layout: LaneLayout,
    /// Positions one image occupies.
    pub stride: usize,
}

impl BatchLayout {
    /// Images of `stride` positions each over `layout`.
    ///
    /// # Panics
    ///
    /// Panics if an image does not fit (`stride` not in
    /// `1..=layout.groups`).
    pub fn new(layout: LaneLayout, stride: usize) -> Self {
        assert!(
            stride >= 1 && stride <= layout.groups,
            "image stride {stride} exceeds {} positions",
            layout.groups
        );
        Self { layout, stride }
    }

    /// Images one ciphertext can carry (`≥ 1`).
    pub fn capacity(&self) -> usize {
        self.layout.groups / self.stride
    }

    /// Copies position `src_pos` of `src` (every block of both lanes)
    /// to position `dst_pos` of `dst`; both are full `2·lane_size`
    /// slot rows.
    fn copy_position(&self, dst: &mut [u64], src: &[u64], dst_pos: usize, src_pos: usize) {
        let l = &self.layout;
        for lane in 0..2 {
            for b in 0..l.blocks {
                let at = |pos| lane * l.lane_size + l.slot(b, pos, 0, 0);
                let (d, s) = (at(dst_pos), at(src_pos));
                dst[d..d + l.piece_slots].copy_from_slice(&src[s..s + l.piece_slots]);
            }
        }
    }

    /// The one scatter of a batch: row `b` contributes exactly its
    /// positions `0..stride`, moved to positions `b·stride ..` of one
    /// shared row; every other slot is zero. The client interleaves its
    /// images' packings with it; the server scatters its per-image
    /// masks with it, so each image's slots are masked by that image's
    /// own randomness even though the ciphertext is shared.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity()` rows are given.
    pub fn pack_images(&self, rows: &[Vec<u64>]) -> Vec<u64> {
        assert!(
            rows.len() <= self.capacity(),
            "{} images exceed batch capacity {}",
            rows.len(),
            self.capacity()
        );
        let mut out = vec![0u64; 2 * self.layout.lane_size];
        for (b, row) in rows.iter().enumerate() {
            for p in 0..self.stride {
                self.copy_position(&mut out, row, b * self.stride + p, p);
            }
        }
        out
    }

    /// Extracts image `b`'s slots from a shared row back into
    /// single-image form (positions `0..stride`, all other slots zero),
    /// the exact inverse of [`BatchLayout::pack_images`] for that image.
    pub fn unpack_image(&self, shared: &[u64], b: usize) -> Vec<u64> {
        assert!(b < self.capacity(), "image {b} out of batch range");
        let mut out = vec![0u64; 2 * self.layout.lane_size];
        for p in 0..self.stride {
            self.copy_position(&mut out, shared, p, b * self.stride + p);
        }
        out
    }
}

/// A spatial piece of the input: its global placement plus its data
/// across all channels (zero-padded to the piece dimensions).
#[derive(Debug, Clone)]
pub struct Piece {
    /// Global row of the piece's top-left corner (may be negative only
    /// for generality; pieces here always start in-bounds).
    pub y0: usize,
    /// Global column of the top-left corner.
    pub x0: usize,
    /// Inclusion–exclusion sign of this piece in the share assembly
    /// (`+1` for patches and corners, `-1` for seam strips).
    pub sign: i64,
    /// Piece data: `C_i × piece_h × piece_w`, zero-padded.
    pub data: Tensor,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_tensor::fixed::from_field;

    const T: u64 = 1_032_193;

    #[test]
    fn layout_geometry() {
        let l = LaneLayout::new(2048, 4, 4, 4);
        assert_eq!(l.piece_slots, 16);
        assert_eq!(l.groups, 2048 / (4 * 16));
        assert_eq!(l.slot(0, 0, 0, 0), 0);
        assert_eq!(l.slot(0, 0, 1, 0), 4);
        assert_eq!(l.slot(0, 1, 0, 0), 16);
        assert_eq!(l.slot(1, 0, 0, 0), l.groups * 16);
        assert_eq!(l.block_rotation_step(2), 2 * (l.groups * 16) as i64);
    }

    #[test]
    fn non_pow2_piece_dims_pad() {
        let l = LaneLayout::new(2048, 2, 3, 3);
        assert_eq!(l.piece_slots, 16); // 9 -> 16
        assert_eq!(l.piece_h * l.piece_w, 9);
    }

    /// Channels split across the lanes, one piece per position: every
    /// piece gathers back to itself, negative values included.
    #[test]
    fn scatter_gather_roundtrip() {
        let l = LaneLayout::new(256, 2, 2, 2);
        let map = vec![vec![Some(0), Some(1)], vec![Some(2), None]];
        let pieces: Vec<Tensor> = (0..l.groups as i64)
            .map(|i| {
                Tensor::from_fn(3, 2, 2, |c, y, x| {
                    i * 100 + c as i64 * 10 + (y * 2 + x) as i64 - 50
                })
            })
            .collect();
        let mut slots = vec![0u64; 2 * l.lane_size];
        for (group, piece) in pieces.iter().enumerate() {
            l.scatter(&map, group, piece, T, &mut slots);
        }
        for (group, piece) in pieces.iter().enumerate() {
            let mut got = Tensor::zeros(3, 2, 2);
            l.gather(&map, group, 1, &slots, |v| from_field(v, T), &mut got);
            assert_eq!(&got, piece, "piece {group}");
        }
    }

    /// A channel held by several blocks is read from its first; a
    /// stride reads every other pixel.
    #[test]
    fn gather_reads_a_repeated_channel_once_at_its_first_block() {
        let l = LaneLayout::new(64, 2, 4, 4);
        let slots: Vec<u64> = (0..2 * l.lane_size as u64).collect();
        let map = vec![vec![Some(0), Some(0)], vec![Some(0), None]];
        let mut got = Tensor::zeros(1, 2, 2);
        l.gather(&map, 1, 2, &slots, |v| v as i64, &mut got);
        let want = |y: usize, x: usize| l.slot(0, 1, 2 * y, 2 * x) as i64;
        assert_eq!(got, Tensor::from_fn(1, 2, 2, |_, y, x| want(y, x)));
    }

    #[test]
    fn batch_positions_are_disjoint() {
        let bl = BatchLayout::new(LaneLayout::new(256, 4, 4, 2), 1);
        assert_eq!(bl.capacity(), bl.layout.groups);
        // Packing one image must not touch any other image's positions.
        let img = bl.unpack_image(&(0..512).collect::<Vec<u64>>(), 0);
        let shared = bl.pack_images(&[vec![0u64; 512], img.clone()]);
        assert_eq!(bl.unpack_image(&shared, 0), vec![0u64; 512]);
        assert_eq!(bl.unpack_image(&shared, 1), img);
    }

    #[test]
    #[should_panic]
    fn batch_overflow_rejected() {
        let bl = BatchLayout::new(LaneLayout::new(256, 2, 4, 8), 2);
        assert_eq!(bl.capacity(), 2);
        let rows: Vec<Vec<u64>> = (0..3).map(|_| vec![0u64; 512]).collect();
        let _ = bl.pack_images(&rows);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(9), 16);
        assert_eq!(next_pow2(16), 16);
    }
}
