//! Property tests for [`BatchLayout`], the cross-image SIMD-slot
//! interleaving: packing is lossless per image (ragged batches, both
//! ring sizes), uncovered slots stay zero, and the one scatter, given
//! full-ring masks, carries exactly each image's own randomness.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_core::layout::{BatchLayout, LaneLayout};

/// Builds a structurally valid layout from raw generator draws:
/// `blocks · groups · piece_slots` fills the lane exactly, and the
/// stride fits the positions.
fn build_layout(lane_sel: u32, log_blocks: u32, log_groups: u32, raw: u32) -> BatchLayout {
    // Lane sizes of the two supported rings (N/2 for N4096 and N8192).
    let lane_size = if lane_sel == 0 { 2048 } else { 4096 };
    let blocks = 1usize << log_blocks;
    let groups = 1usize << log_groups;
    let piece_slots = lane_size / (blocks * groups);
    let layout = LaneLayout::new(lane_size, blocks, piece_slots, 1);
    assert_eq!(layout.groups, groups);
    BatchLayout::new(layout, 1 + (raw as usize % 64) % groups)
}

/// A ragged batch (1..=capacity images) of random full-ring rows.
fn build_rows(layout: &BatchLayout, raw: u32, seed: u64) -> Vec<Vec<u64>> {
    let batch = 1 + (raw as usize / 64) % layout.capacity();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batch)
        .map(|_| {
            (0..2 * layout.layout.lane_size)
                .map(|_| rng.gen_range(0..1000u64))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `unpack_image` inverts `pack_images` for every image of a
    /// ragged batch.
    #[test]
    fn pack_unpack_roundtrip(
        lane_sel in 0u32..2,
        log_blocks in 0u32..3,
        log_groups in 1u32..6,
        raw in 0u32..4096,
        seed in 0u64..1_000_000,
    ) {
        let layout = build_layout(lane_sel, log_blocks, log_groups, raw);
        let rows = build_rows(&layout, raw, seed);
        // Reduce each raw row to a valid single-image row (data only at
        // positions 0..stride — exactly what the B=1 packing emits).
        let images: Vec<Vec<u64>> = rows.iter().map(|r| layout.unpack_image(r, 0)).collect();
        let shared = layout.pack_images(&images);
        for (b, img) in images.iter().enumerate() {
            prop_assert_eq!(&layout.unpack_image(&shared, b), img, "image {}", b);
        }
    }

    /// Slots not covered by any image's positions stay zero in the
    /// shared row (they carry no data, so masking can skip them).
    #[test]
    fn uncovered_slots_stay_zero(
        lane_sel in 0u32..2,
        log_blocks in 0u32..3,
        log_groups in 1u32..6,
        raw in 0u32..4096,
        seed in 0u64..1_000_000,
    ) {
        let layout = build_layout(lane_sel, log_blocks, log_groups, raw);
        let rows = build_rows(&layout, raw, seed);
        let images: Vec<Vec<u64>> = rows.iter().map(|r| layout.unpack_image(r, 0)).collect();
        let shared = layout.pack_images(&images);
        // Coverage map: pack all-ones rows, so covered slots read 1.
        let ones = layout.unpack_image(&vec![1u64; 2 * layout.layout.lane_size], 0);
        let coverage = layout.pack_images(&vec![ones; images.len()]);
        for (i, (s, c)) in shared.iter().zip(&coverage).enumerate() {
            if *c == 0 {
                prop_assert_eq!(*s, 0, "uncovered slot {} carries data", i);
            }
        }
    }

    /// Scattering full-ring masks places each at that image's
    /// positions — identical to scattering the per-image restrictions
    /// of those masks. Masks therefore stay independent per image even
    /// though the ciphertext is shared.
    #[test]
    fn scattered_masks_match_packed_restrictions(
        lane_sel in 0u32..2,
        log_blocks in 0u32..3,
        log_groups in 1u32..6,
        raw in 0u32..4096,
        seed in 0u64..1_000_000,
    ) {
        let layout = build_layout(lane_sel, log_blocks, log_groups, raw);
        let masks = build_rows(&layout, raw, seed);
        let scattered = layout.pack_images(&masks);
        let restricted: Vec<Vec<u64>> =
            masks.iter().map(|m| layout.unpack_image(m, 0)).collect();
        prop_assert_eq!(scattered, layout.pack_images(&restricted));
    }

    /// Capacity accounting: `capacity` images of `stride` positions
    /// each fit the positions, and one more would overflow them.
    #[test]
    fn capacity_fits_positions(
        lane_sel in 0u32..2,
        log_blocks in 0u32..3,
        log_groups in 1u32..6,
        raw in 0u32..4096,
    ) {
        let layout = build_layout(lane_sel, log_blocks, log_groups, raw);
        let positions = layout.layout.groups;
        prop_assert!(layout.capacity() >= 1);
        prop_assert!(layout.capacity() * layout.stride <= positions);
        prop_assert!((layout.capacity() + 1) * layout.stride > positions);
    }
}
