//! Patch size and cryptographic parameter selection (Table VI / VIII of
//! the paper).
//!
//! For a layer `(W, H, C_i, C_o)` and a slot budget, pick the largest
//! power-of-two patch `H'×W'` such that a full patch spanning all input
//! channels fits (`C_i_pad · H'·W' ≤ slots`), the patch exceeds the
//! tweaked overlap, and the patch is no larger than the feature map.
//! Smaller levels are preferred because HE operations are 2–10× cheaper
//! (Table IV).

use crate::layout::next_pow2;
use crate::patching::{overlap_for, PatchMode};
use spot_he::params::ParamLevel;
use spot_tensor::models::ConvShape;

/// The outcome of patch selection for one layer at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchChoice {
    /// Parameter level.
    pub level: ParamLevel,
    /// Chosen patch `(H', W')`.
    pub patch: (usize, usize),
    /// Patches (pieces) packed per ciphertext.
    pub pieces_per_ct: usize,
    /// Fraction of slots carrying real values, in percent.
    pub utilization_pct: u32,
}

/// Selects a patch size given an explicit slot budget per packing unit.
///
/// `slots` is `N/2` for this implementation's lane-contained pieces, or
/// `N` to reproduce the paper's Table VI numbers (which treat the whole
/// ciphertext as one slot vector).
pub fn select_patch_with_slots(
    shape: &ConvShape,
    slots: usize,
    mode: PatchMode,
) -> Option<(usize, usize)> {
    let v = overlap_for(mode, shape.k_h.max(shape.k_w));
    let ci_pad = next_pow2(shape.c_in);
    if ci_pad > slots {
        return None;
    }
    let budget = (slots / ci_pad).max(1); // power of two
                                          // Patch must strictly exceed the overlap in both dims and not exceed
                                          // the (padded) feature map.
    let max_h = next_pow2(shape.height);
    let max_w = next_pow2(shape.width);
    let area = budget.min(max_h * max_w);
    if area < next_pow2((v + 1) * (v + 1)) {
        return None;
    }
    // Split the area into H'×W', H' ≥ W', as square as possible while
    // respecting the feature-map bounds.
    let log = area.trailing_zeros();
    let mut lh = log.div_ceil(2);
    let mut lw = log - lh;
    // clamp to feature-map bounds, shifting the excess to the other dim
    let (max_lh, max_lw) = (max_h.trailing_zeros(), max_w.trailing_zeros());
    if lh > max_lh {
        lw += lh - max_lh;
        lh = max_lh;
    }
    if lw > max_lw {
        lh = (lh + (lw - max_lw)).min(max_lh);
        lw = max_lw;
    }
    let (ph, pw) = (1usize << lh, 1usize << lw);
    if ph <= v || pw <= v {
        return None;
    }
    Some((ph, pw))
}

/// Selects the patch for a layer at a level (lane-contained pieces).
pub fn select_patch(shape: &ConvShape, level: ParamLevel, mode: PatchMode) -> Option<PatchChoice> {
    if !level.supports_rotation() {
        return None;
    }
    let ci_pad = next_pow2(shape.c_in);
    // Channels split across the two lanes give each patch the full
    // N / C_i slot budget of the paper's Table VI; a single-channel
    // input is padded to two (`spot::blocking`) and leaves lane 1 empty,
    // so its budget is one lane.
    let budget_slots = if ci_pad >= 2 {
        level.degree()
    } else {
        level.degree() / 2
    };
    let patch = select_patch_with_slots(shape, budget_slots, mode)?;
    let s = next_pow2(patch.0 * patch.1);
    let lane = level.degree() / 2;
    let lane_blocks = (ci_pad / 2).max(1);
    let per_ct = (lane / (lane_blocks * s)).max(1);
    Some(PatchChoice {
        level,
        patch,
        pieces_per_ct: per_ct,
        utilization_pct: ((patch.0 * patch.1 * shape.c_in * 100) / (s * ci_pad)) as u32,
    })
}

/// Picks the smallest (fastest) rotation-capable level at which SPOT can
/// run the layer, with its patch.
pub fn best_level(shape: &ConvShape, mode: PatchMode) -> Option<PatchChoice> {
    ParamLevel::ALL
        .into_iter()
        .filter(|l| l.supports_rotation())
        .find_map(|l| select_patch(shape, l, mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(w: usize, h: usize, ci: usize, co: usize) -> ConvShape {
        ConvShape::new(w, h, ci, co, 3, 1)
    }

    #[test]
    fn paper_table6_selection_full_ct_budget() {
        // Reproduce the paper's Table VI with the full-N slot budget.
        // (W H Ci Co) at S'=4096 → paper: 8*8, 8*4, 4*4, 2*4
        let cases = [
            (shape(56, 56, 64, 64), 4096, (8, 8)),
            (shape(28, 28, 128, 128), 4096, (8, 4)),
            (shape(14, 14, 256, 256), 4096, (4, 4)),
            (shape(7, 7, 512, 512), 4096, (4, 2)),
            // S'=8192 → 16*8, 8*8, 8*4, 4*4
            (shape(56, 56, 64, 64), 8192, (16, 8)),
            (shape(28, 28, 128, 128), 8192, (8, 8)),
            (shape(14, 14, 256, 256), 8192, (8, 4)),
            (shape(7, 7, 512, 512), 8192, (4, 4)),
            // S'=16384 → 16*16, 16*8, 8*8, 8*4
            (shape(56, 56, 64, 64), 16384, (16, 16)),
            (shape(28, 28, 128, 128), 16384, (16, 8)),
            (shape(14, 14, 256, 256), 16384, (8, 8)),
            (shape(7, 7, 512, 512), 16384, (8, 4)),
        ];
        for (s, slots, want) in cases {
            let got = select_patch_with_slots(&s, slots, PatchMode::Tweaked).unwrap();
            assert_eq!(
                got.0 * got.1,
                want.0 * want.1,
                "shape {s} slots {slots}: got {got:?}, paper {want:?}"
            );
        }
    }

    #[test]
    fn patch_never_exceeds_feature_map() {
        let s = shape(7, 7, 64, 64);
        let (ph, pw) = select_patch_with_slots(&s, 16384, PatchMode::Tweaked).unwrap();
        assert!(ph <= 8 && pw <= 8);
    }

    #[test]
    fn infeasible_when_channels_exceed_budget() {
        // 2048 channels × minimum 2x2 patch > 4096 slots
        let s = shape(7, 7, 2048, 512);
        assert_eq!(select_patch_with_slots(&s, 4096, PatchMode::Tweaked), None);
        assert!(select_patch_with_slots(&s, 16384, PatchMode::Tweaked).is_some());
    }

    #[test]
    fn best_level_prefers_smallest() {
        let s = shape(14, 14, 16, 16);
        let c = best_level(&s, PatchMode::Tweaked).unwrap();
        assert_eq!(c.level, ParamLevel::N4096);
        // deep layer with many channels needs a bigger level
        let s = shape(7, 7, 2048, 512);
        let c = best_level(&s, PatchMode::Tweaked).unwrap();
        assert!(c.level > ParamLevel::N4096);
    }

    #[test]
    fn vanilla_needs_larger_patches() {
        // overlap 2 needs patch > 2 per dim: a 2x2 patch is rejected
        let s = shape(7, 7, 512, 512);
        let tweaked = select_patch_with_slots(&s, 2048, PatchMode::Tweaked);
        let vanilla = select_patch_with_slots(&s, 2048, PatchMode::Vanilla);
        assert!(tweaked.is_some());
        assert_eq!(
            vanilla, None,
            "vanilla cannot fit 512 channels at 2048 slots"
        );
    }

    #[test]
    fn utilization_reported() {
        let s = shape(14, 14, 256, 256);
        let c = select_patch(&s, ParamLevel::N8192, PatchMode::Tweaked).unwrap();
        assert!(c.utilization_pct > 50);
        assert!(c.pieces_per_ct >= 1);
    }
}
