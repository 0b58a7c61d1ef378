//! Lane-based SIMD slot layouts shared by every packing scheme.
//!
//! A BFV ciphertext's `N` slots form two rows ("lanes") of `R = N/2`
//! slots that row-rotations shift cyclically and independently. Every
//! packing in this crate fills each lane with an exact power-of-two block
//! structure so that the rotations a convolution needs are plain row
//! rotations:
//!
//! ```text
//! lane = [ block 0 | block 1 | ... | block B-1 ]       (B channel blocks)
//! block b = [ piece 0 | piece 1 | ... | piece G-1 ]    (G spatial pieces)
//! piece = S slots (row-major h×w, zero-padded to the power of two S)
//! ```
//!
//! Channel-major, piece-minor: rotating the lane by `d·G·S` cyclically
//! permutes the channel blocks (the MIMO diagonal alignment), and
//! rotating by a small spatial offset shifts every piece's pixels
//! simultaneously (the SISO kernel taps), with cross-piece leakage
//! removed by zeros in the kernel plaintexts.

use crate::error::SpotError;
use spot_tensor::tensor::Tensor;

/// A lane layout: `B` channel blocks × `G` pieces × `S` spatial slots,
/// with `B·G·S = R` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneLayout {
    /// Slots per lane (`N/2`).
    pub lane_size: usize,
    /// Channel blocks per lane.
    pub blocks: usize,
    /// Spatial pieces per block.
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

/// Packs pieces into lane slot vectors.
///
/// Returns one `Vec<u64>` of `2 * lane_size` slots per ciphertext; pieces
/// are assigned lane-major (fill lane 0's groups, then lane 1's), and
/// channel `c` of a piece goes to block `c` (channels beyond `blocks`
/// would not fit and must be split by the caller).
///
/// Values are mapped into `Z_t` with negative values wrapped.
///
/// # Panics
///
/// Panics if a piece's channel count exceeds `layout.blocks` or its
/// dimensions exceed the layout's piece dimensions.
pub fn pack_pieces(layout: &LaneLayout, pieces: &[Piece], modulus: u64) -> Vec<Vec<u64>> {
    let per_ct = 2 * layout.groups;
    let mut out = Vec::new();
    for chunk in pieces.chunks(per_ct) {
        let mut slots = vec![0u64; 2 * layout.lane_size];
        for (idx, piece) in chunk.iter().enumerate() {
            let lane = idx / layout.groups;
            let group = idx % layout.groups;
            let t = &piece.data;
            assert!(
                t.channels() <= layout.blocks,
                "piece channels {} exceed layout blocks {}",
                t.channels(),
                layout.blocks
            );
            assert!(t.height() <= layout.piece_h && t.width() <= layout.piece_w);
            for c in 0..t.channels() {
                for y in 0..t.height() {
                    for x in 0..t.width() {
                        let v = t.at(c, y, x).rem_euclid(modulus as i64) as u64;
                        slots[lane * layout.lane_size + layout.slot(c, group, y, x)] = v;
                    }
                }
            }
        }
        out.push(slots);
    }
    out
}

/// Extracts the per-piece results from decoded output slot vectors.
///
/// `pieces_meta` carries the same ordering used by [`pack_pieces`];
/// `out_channels` is the number of meaningful output channel blocks.
/// Returns, per piece, a `Tensor` of `out_channels × piece_h × piece_w`
/// with values centered into `(-t/2, t/2]`.
pub fn unpack_pieces(
    layout: &LaneLayout,
    slot_vectors: &[Vec<u64>],
    piece_count: usize,
    out_channels: usize,
    modulus: u64,
) -> Vec<Tensor> {
    let per_ct = 2 * layout.groups;
    let mut out = Vec::with_capacity(piece_count);
    for p in 0..piece_count {
        let ct_idx = p / per_ct;
        let within = p % per_ct;
        let lane = within / layout.groups;
        let group = within % layout.groups;
        let slots = &slot_vectors[ct_idx];
        let t = Tensor::from_fn(out_channels, layout.piece_h, layout.piece_w, |c, y, x| {
            let v = slots[lane * layout.lane_size + layout.slot(c, group, y, x)];
            if v > modulus / 2 {
                v as i64 - modulus as i64
            } else {
                v as i64
            }
        });
        out.push(t);
    }
    out
}

/// Packs pieces with each piece's channels **split across both lanes**:
/// channel `c` goes to lane `c / blocks`, block `c % blocks`, so a piece
/// may span `2·blocks` channels and each ciphertext carries
/// `layout.groups` pieces. Used by SPOT to double the per-patch slot
/// budget to the full `N / C_i` the paper's Table VI assumes; the
/// cross-lane products are handled by the engine's column-swap version.
///
/// # Panics
///
/// Panics if a piece's channel count exceeds `2·blocks` or its
/// dimensions exceed the layout's piece dimensions.
pub fn pack_pieces_split(layout: &LaneLayout, pieces: &[Piece], modulus: u64) -> Vec<Vec<u64>> {
    let per_ct = layout.groups;
    let mut out = Vec::new();
    for chunk in pieces.chunks(per_ct) {
        let mut slots = vec![0u64; 2 * layout.lane_size];
        for (group, piece) in chunk.iter().enumerate() {
            let t = &piece.data;
            assert!(
                t.channels() <= 2 * layout.blocks,
                "piece channels {} exceed 2x layout blocks {}",
                t.channels(),
                layout.blocks
            );
            assert!(t.height() <= layout.piece_h && t.width() <= layout.piece_w);
            for c in 0..t.channels() {
                let lane = c / layout.blocks;
                let block = c % layout.blocks;
                for y in 0..t.height() {
                    for x in 0..t.width() {
                        let v = t.at(c, y, x).rem_euclid(modulus as i64) as u64;
                        slots[lane * layout.lane_size + layout.slot(block, group, y, x)] = v;
                    }
                }
            }
        }
        out.push(slots);
    }
    out
}

/// Inverse of [`pack_pieces_split`]: extracts per-piece tensors whose
/// channel `c` lives at lane `c / blocks`, block `c % blocks`.
pub fn unpack_pieces_split(
    layout: &LaneLayout,
    slot_vectors: &[Vec<u64>],
    piece_count: usize,
    out_channels: usize,
    modulus: u64,
) -> Vec<Tensor> {
    let per_ct = layout.groups;
    let mut out = Vec::with_capacity(piece_count);
    for p in 0..piece_count {
        let ct_idx = p / per_ct;
        let group = p % per_ct;
        let slots = &slot_vectors[ct_idx];
        let t = Tensor::from_fn(out_channels, layout.piece_h, layout.piece_w, |c, y, x| {
            let lane = c / layout.blocks;
            let block = c % layout.blocks;
            let v = slots[lane * layout.lane_size + layout.slot(block, group, y, x)];
            if v > modulus / 2 {
                v as i64 - modulus as i64
            } else {
                v as i64
            }
        });
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn pack_unpack_roundtrip() {
        let l = LaneLayout::new(256, 2, 2, 2);
        // groups = 256/(2*4) = 32, per_ct = 64 pieces
        let pieces: Vec<Piece> = (0..70)
            .map(|i| Piece {
                y0: 0,
                x0: 0,
                sign: 1,
                data: Tensor::from_fn(2, 2, 2, |c, y, x| {
                    (i as i64 * 100 + c as i64 * 10 + (y * 2 + x) as i64) - 50
                }),
            })
            .collect();
        let cts = pack_pieces(&l, &pieces, T);
        assert_eq!(cts.len(), 2); // 64 + 6
        let outs = unpack_pieces(&l, &cts, 70, 2, T);
        for (i, got) in outs.iter().enumerate() {
            assert_eq!(got, &pieces[i].data, "piece {i}");
        }
    }

    #[test]
    #[should_panic]
    fn oversized_piece_rejected() {
        let l = LaneLayout::new(64, 8, 2, 2);
        let p = Piece {
            y0: 0,
            x0: 0,
            sign: 1,
            data: Tensor::zeros(16, 2, 2),
        };
        let _ = pack_pieces(&l, &[p], T);
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(9), 16);
        assert_eq!(next_pow2(16), 16);
    }
}
