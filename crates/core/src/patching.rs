//! Structure patching and patch overlap tweaking (Sec. III of the paper).
//!
//! [`decompose`] slices an `H×W×C_i` input into pieces that each span all
//! input channels:
//!
//! * **Vanilla patching** ([`PatchMode::Vanilla`]): patches overlap by
//!   `k-1` columns/rows so every output window is fully contained in some
//!   patch; the client *selects* each output value from the patch that
//!   computed it correctly (Fig. 9).
//! * **Overlap tweaking** ([`PatchMode::Tweaked`]): patches overlap by
//!   only `max(k-2, 0)` and a small set of *auxiliary pieces* — seam
//!   strips and corner blocks — is added. The client *arithmetically
//!   assembles* its final share: patch and corner shares are added, strip
//!   shares subtracted (Fig. 10). By inclusion–exclusion, every input
//!   element contributes to every affected output position exactly once,
//!   so the assembled result equals the monolithic convolution while the
//!   patches stay small enough for the smallest rotation-capable HE
//!   parameters. The auxiliary pieces cost ciphertexts of their own only
//!   where they do not fit in the positions the patches leave free
//!   ([`crate::tile`]).
//!
//! [`assemble`] performs the client-side share assembly and is the
//! reference the HE pipeline is tested against.

use crate::layout::Piece;
use spot_tensor::conv::conv2d_full_positions;
use spot_tensor::tensor::{Kernel, Tensor};

/// Patch decomposition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatchMode {
    /// Overlap `k-1`, selection-based assembly.
    Vanilla,
    /// Overlap `max(k-2, 0)` plus auxiliary seam pieces, arithmetic
    /// assembly — the SPOT contribution.
    Tweaked,
}

/// The overlap (shared columns/rows between adjacent patches) a mode
/// requires for a `k×k` kernel.
pub fn overlap_for(mode: PatchMode, k: usize) -> usize {
    match mode {
        PatchMode::Vanilla => k.saturating_sub(1),
        PatchMode::Tweaked => k.saturating_sub(2),
    }
}

/// A size class of pieces: the patches, or one kind of seam piece. Its
/// pieces fill ciphertexts of their own, or — a seam class whose pieces
/// all fit in the positions the patches leave free in their last
/// ciphertext — ride there, each at the top-left of a patch-sized frame
/// ([`crate::tile`]), so one ciphertext may hold pieces of several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PieceClass {
    /// Piece height.
    pub h: usize,
    /// Piece width.
    pub w: usize,
}

/// The decomposition of an input into pieces grouped by size class.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The mode used.
    pub mode: PatchMode,
    /// Kernel size the overlap was chosen for.
    pub k: usize,
    /// Patch grid dimensions (rows, cols).
    pub grid: (usize, usize),
    /// Pieces grouped by class, main patches first.
    pub classes: Vec<(PieceClass, Vec<Piece>)>,
}

impl Decomposition {
    /// Total number of pieces.
    pub fn piece_count(&self) -> usize {
        self.classes.iter().map(|(_, p)| p.len()).sum()
    }
}

/// How many pieces of size `piece`, adjacent ones sharing `overlap`,
/// cover `extent`.
///
/// # Panics
///
/// Panics if the piece is not larger than the overlap.
pub(crate) fn grid_len(extent: usize, piece: usize, overlap: usize) -> usize {
    assert!(piece > overlap, "patch must be larger than the overlap");
    1 + extent.saturating_sub(piece).div_ceil(piece - overlap)
}

fn grid_starts(extent: usize, piece: usize, overlap: usize) -> Vec<usize> {
    (0..grid_len(extent, piece, overlap))
        .map(|i| i * (piece - overlap))
        .collect()
}

fn crop_piece(input: &Tensor, y0: usize, x0: usize, h: usize, w: usize, sign: i64) -> Piece {
    Piece {
        y0,
        x0,
        sign,
        data: input.crop(y0 as i64, x0 as i64, h, w),
    }
}

/// Decomposes `input` into pieces for a `k×k` kernel under the given
/// mode and patch size.
///
/// # Panics
///
/// Panics if the patch is not larger than the required overlap.
pub fn decompose(input: &Tensor, ph: usize, pw: usize, k: usize, mode: PatchMode) -> Decomposition {
    let v = overlap_for(mode, k);
    let h = input.height();
    let w = input.width();
    let rows = grid_starts(h, ph, v);
    let cols = grid_starts(w, pw, v);

    let mut patches = Vec::with_capacity(rows.len() * cols.len());
    for &y0 in &rows {
        for &x0 in &cols {
            patches.push(crop_piece(input, y0, x0, ph, pw, 1));
        }
    }
    let mut classes = vec![(PieceClass { h: ph, w: pw }, patches)];

    if mode == PatchMode::Tweaked && v > 0 {
        // Vertical seam strips: between horizontally adjacent patches,
        // spanning that patch-row's rows. Width v, height ph.
        let mut vsegs = Vec::new();
        for &y0 in &rows {
            for &x0 in &cols[1..] {
                vsegs.push(crop_piece(input, y0, x0, ph, v, -1));
            }
        }
        if !vsegs.is_empty() {
            classes.push((PieceClass { h: ph, w: v }, vsegs));
        }
        // Horizontal seam strips: height v, width pw.
        let mut hsegs = Vec::new();
        for &y0 in &rows[1..] {
            for &x0 in &cols {
                hsegs.push(crop_piece(input, y0, x0, v, pw, -1));
            }
        }
        if !hsegs.is_empty() {
            classes.push((PieceClass { h: v, w: pw }, hsegs));
        }
        // Corner pieces at seam intersections: v×v, sign +1.
        let mut corners = Vec::new();
        for &y0 in &rows[1..] {
            for &x0 in &cols[1..] {
                corners.push(crop_piece(input, y0, x0, v, v, 1));
            }
        }
        if !corners.is_empty() {
            classes.push((PieceClass { h: v, w: v }, corners));
        }
    }

    Decomposition {
        mode,
        k,
        grid: (rows.len(), cols.len()),
        classes,
    }
}

/// The whole of `input` as one piece, for a `k×k` kernel: the tile of
/// channel-wise packing. Selecting every output from the one patch that
/// covers every window, [`assemble`] returns it unchanged.
pub(crate) fn whole(input: &Tensor, k: usize) -> Decomposition {
    let (h, w) = (input.height(), input.width());
    Decomposition {
        mode: PatchMode::Vanilla,
        k,
        grid: (1, 1),
        classes: vec![(PieceClass { h, w }, vec![crop_piece(input, 0, 0, h, w, 1)])],
    }
}

/// Assembles per-piece convolution outputs into the full result.
///
/// `piece_outputs` must be in the same order as the decomposition's
/// flattened piece list and contain, per piece, a tensor of
/// `C_o × class_h × class_w` — the zero-padded convolution of that piece
/// at every piece position.
///
/// For [`PatchMode::Tweaked`], outputs are summed with the piece signs.
/// For [`PatchMode::Vanilla`], each output position is *selected* from
/// the patch whose window fully covers it.
pub fn assemble(
    decomp: &Decomposition,
    piece_outputs: &[Tensor],
    out_h: usize,
    out_w: usize,
) -> Tensor {
    let c_out = piece_outputs[0].channels();
    let mut out = Tensor::zeros(c_out, out_h, out_w);
    let mut idx = 0usize;
    match decomp.mode {
        PatchMode::Tweaked => {
            for (class, pieces) in &decomp.classes {
                for piece in pieces {
                    let po = &piece_outputs[idx];
                    idx += 1;
                    for c in 0..c_out {
                        for y in 0..class.h {
                            let gy = piece.y0 + y;
                            if gy >= out_h {
                                break;
                            }
                            for x in 0..class.w {
                                let gx = piece.x0 + x;
                                if gx >= out_w {
                                    break;
                                }
                                *out.at_mut(c, gy, gx) += piece.sign * po.at(c, y, x);
                            }
                        }
                    }
                }
            }
        }
        PatchMode::Vanilla => {
            let margin = (decomp.k - 1) / 2;
            let (class, pieces) = &decomp.classes[0];
            for piece in pieces {
                let po = &piece_outputs[idx];
                idx += 1;
                for c in 0..c_out {
                    for y in 0..class.h {
                        let gy = piece.y0 + y;
                        if gy >= out_h {
                            break;
                        }
                        // Valid iff the kernel window around gy, clipped
                        // to the image, lies inside the patch.
                        let top_ok = gy < margin || y >= margin;
                        let bot_ok = gy + margin >= out_h || y + margin < class.h;
                        if !(top_ok && bot_ok) {
                            continue;
                        }
                        for x in 0..class.w {
                            let gx = piece.x0 + x;
                            if gx >= out_w {
                                break;
                            }
                            let left_ok = gx < margin || x >= margin;
                            let right_ok = gx + margin >= out_w || x + margin < class.w;
                            if !(left_ok && right_ok) {
                                continue;
                            }
                            // Overlapping patches write identical values.
                            *out.at_mut(c, gy, gx) = po.at(c, y, x);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Reference pipeline: decompose, convolve each piece in plaintext (with
/// zero padding), assemble. Must equal [`spot_tensor::conv::conv2d`] with
/// stride 1 — the property the HE path inherits.
pub fn reference_patched_conv(
    input: &Tensor,
    kernel: &Kernel,
    ph: usize,
    pw: usize,
    mode: PatchMode,
) -> Tensor {
    let decomp = decompose(input, ph, pw, kernel.k_h(), mode);
    let outputs: Vec<Tensor> = decomp
        .classes
        .iter()
        .flat_map(|(_, pieces)| pieces.iter())
        .map(|p| conv2d_full_positions(&p.data, kernel))
        .collect();
    assemble(&decomp, &outputs, input.height(), input.width())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_tensor::conv::conv2d;

    #[test]
    fn overlaps() {
        assert_eq!(overlap_for(PatchMode::Vanilla, 3), 2);
        assert_eq!(overlap_for(PatchMode::Tweaked, 3), 1);
        assert_eq!(overlap_for(PatchMode::Tweaked, 1), 0);
        assert_eq!(overlap_for(PatchMode::Vanilla, 5), 4);
        assert_eq!(overlap_for(PatchMode::Tweaked, 5), 3);
    }

    #[test]
    fn grid_covers_input() {
        let starts = grid_starts(8, 4, 1);
        // patches [0,4),[3,7),[6,10) cover 0..8
        assert_eq!(starts, vec![0, 3, 6]);
        let starts = grid_starts(8, 4, 2);
        assert_eq!(starts, vec![0, 2, 4]);
    }

    #[test]
    fn tweaked_matches_monolithic_3x3() {
        let input = Tensor::random(3, 8, 8, 10, 7);
        let kernel = Kernel::random(4, 3, 3, 3, 5, 8);
        let got = reference_patched_conv(&input, &kernel, 4, 4, PatchMode::Tweaked);
        let want = conv2d(&input, &kernel, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn vanilla_matches_monolithic_3x3() {
        let input = Tensor::random(2, 9, 9, 10, 17);
        let kernel = Kernel::random(2, 2, 3, 3, 5, 18);
        let got = reference_patched_conv(&input, &kernel, 4, 4, PatchMode::Vanilla);
        let want = conv2d(&input, &kernel, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn tweaked_matches_monolithic_1x1() {
        let input = Tensor::random(4, 6, 6, 10, 27);
        let kernel = Kernel::random(2, 4, 1, 1, 5, 28);
        let got = reference_patched_conv(&input, &kernel, 2, 2, PatchMode::Tweaked);
        let want = conv2d(&input, &kernel, 1);
        assert_eq!(got, want);
        // no aux pieces needed for 1x1 kernels
        let decomp = decompose(&input, 2, 2, 1, PatchMode::Tweaked);
        assert_eq!(decomp.piece_count(), decomp.classes[0].1.len());
    }

    #[test]
    fn tweaked_matches_monolithic_5x5() {
        let input = Tensor::random(2, 12, 12, 8, 37);
        let kernel = Kernel::random(2, 2, 5, 5, 4, 38);
        let got = reference_patched_conv(&input, &kernel, 6, 6, PatchMode::Tweaked);
        let want = conv2d(&input, &kernel, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn tweaked_non_square_patches() {
        let input = Tensor::random(2, 10, 14, 10, 47);
        let kernel = Kernel::random(3, 2, 3, 3, 5, 48);
        let got = reference_patched_conv(&input, &kernel, 4, 2, PatchMode::Tweaked);
        let want = conv2d(&input, &kernel, 1);
        assert_eq!(got, want);
    }

    #[test]
    fn edge_patches_padded_beyond_image() {
        // 7x7 image with 4x4 patches overlap 1: grid starts 0,3,6 — last
        // patch extends past the image and is zero padded.
        let input = Tensor::random(1, 7, 7, 10, 57);
        let kernel = Kernel::random(1, 1, 3, 3, 5, 58);
        let got = reference_patched_conv(&input, &kernel, 4, 4, PatchMode::Tweaked);
        assert_eq!(got, conv2d(&input, &kernel, 1));
    }

    #[test]
    fn aux_piece_counts() {
        let input = Tensor::zeros(1, 8, 8);
        let d = decompose(&input, 4, 4, 3, PatchMode::Tweaked);
        // grid 3x3 patches, 3*2=6 vsegs, 2*3=6 hsegs, 2*2=4 corners
        assert_eq!(d.grid, (3, 3));
        assert_eq!(d.classes[0].1.len(), 9);
        assert_eq!(d.piece_count(), 9 + 6 + 6 + 4);
        // signs
        assert!(d.classes[1].1.iter().all(|p| p.sign == -1));
        assert!(d.classes[3].1.iter().all(|p| p.sign == 1));
    }

    #[test]
    fn vanilla_has_no_aux() {
        let input = Tensor::zeros(1, 8, 8);
        let d = decompose(&input, 4, 4, 3, PatchMode::Vanilla);
        assert_eq!(d.piece_count(), d.classes[0].1.len());
        assert_eq!(d.grid, (3, 3)); // starts 0,2,4,6? overlap 2 stride 2: 0,2,4 — covers 8? 4+4=8 ✓ starts 0,2,4
    }
}
