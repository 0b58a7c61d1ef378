//! SIMD batch encoding (the "packing" in packed HE).
//!
//! With a plaintext modulus `t ≡ 1 (mod 2N)`, the plaintext ring
//! `Z_t[X]/(X^N+1)` splits into `N` slots arranged as a `2 × N/2` matrix.
//! Ring addition/multiplication act element-wise on slots, and Galois
//! automorphisms rotate the two rows cyclically (`x ↦ x^{3^k}`) or swap
//! them (`x ↦ x^{2N−1}`) — exactly the SIMD semantics GAZELLE-style HE
//! convolutions rely on.

use crate::context::Context;
use crate::poly::Poly;
use crate::pool;
use std::sync::Arc;

/// A plaintext polynomial over `Z_t` in coefficient form.
#[derive(Debug, PartialEq, Eq)]
pub struct Plaintext {
    coeffs: Vec<u64>,
}

impl Clone for Plaintext {
    fn clone(&self) -> Self {
        let mut coeffs = pool::take(self.coeffs.len());
        coeffs.copy_from_slice(&self.coeffs);
        Self { coeffs }
    }
}

impl Drop for Plaintext {
    fn drop(&mut self) {
        pool::recycle(std::mem::take(&mut self.coeffs));
    }
}

impl Plaintext {
    /// Creates a plaintext from raw mod-`t` coefficients.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Self { coeffs }
    }

    /// The mod-`t` coefficients.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Whether every coefficient is zero.
    pub fn is_zero(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// Lifts the plaintext into the RNS ciphertext space with centered
    /// representatives (coefficients above `t/2` become negative) and
    /// converts to NTT form, ready for [`Evaluator::multiply_plain`].
    ///
    /// [`Evaluator::multiply_plain`]: crate::evaluator::Evaluator::multiply_plain
    pub fn lift(&self, ctx: &Arc<Context>) -> Poly {
        let t = ctx.params().plain_modulus();
        let half = t / 2;
        let signed: Vec<i64> = self
            .coeffs
            .iter()
            .map(|&c| {
                if c > half {
                    c as i64 - t as i64
                } else {
                    c as i64
                }
            })
            .collect();
        let mut p = Poly::from_signed_coeffs(ctx, &signed);
        p.to_ntt();
        p
    }

    /// Lifts the plaintext scaled by `Δ = ⌊q/t⌋` (used when adding a
    /// plaintext directly to a ciphertext), in NTT form.
    pub fn lift_scaled(&self, ctx: &Arc<Context>) -> Poly {
        let mut p = self.lift(ctx);
        p.mul_scalar_per_modulus(ctx.delta_mod_qi());
        p
    }
}

/// Encodes/decodes slot vectors to/from plaintext polynomials.
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    ctx: Arc<Context>,
}

impl BatchEncoder {
    /// Creates an encoder bound to a context.
    pub fn new(ctx: &Arc<Context>) -> Self {
        Self {
            ctx: Arc::clone(ctx),
        }
    }

    /// Number of SIMD slots (`N`).
    pub fn slot_count(&self) -> usize {
        self.ctx.degree()
    }

    /// Encodes up to `N` slot values (`mod t`) into a plaintext; missing
    /// slots are zero.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() > N` or any value `>= t`.
    pub fn encode(&self, values: &[u64]) -> Plaintext {
        let n = self.ctx.degree();
        assert!(values.len() <= n, "too many values for slot count");
        let t = self.ctx.params().plain_modulus();
        let map = self.ctx.slot_index_map();
        let mut m = pool::take_zeroed(n);
        for (i, &v) in values.iter().enumerate() {
            assert!(
                v < t,
                "slot value {v} out of range for plaintext modulus {t}"
            );
            m[map[i]] = v;
        }
        // Values currently sit in NTT-evaluation order; inverse transform
        // over Z_t yields the plaintext polynomial coefficients.
        self.ctx.plain_ntt().inverse(&mut m);
        Plaintext::from_coeffs(m)
    }

    /// Decodes a plaintext back into its `N` slot values.
    pub fn decode(&self, pt: &Plaintext) -> Vec<u64> {
        let n = self.ctx.degree();
        let mut m = pt.coeffs().to_vec();
        assert_eq!(m.len(), n, "plaintext length mismatch");
        self.ctx.plain_ntt().forward(&mut m);
        let map = self.ctx.slot_index_map();
        (0..n).map(|i| m[map[i]]).collect()
    }
}

/// Cross-image SIMD-slot batching: interleaves several images' packed
/// slot vectors into the free position capacity of one ciphertext.
///
/// The lane packings upstream (see `spot-core`'s `LaneLayout`) shape
/// each lane as `blocks × groups × piece_slots`, and a single image
/// only ever occupies the first few *positions* — a position being one
/// `(lane, group)` piece slot range (`lane_major`, the SPOT
/// whole-piece packing) or one group index across **both** lanes and
/// all channel blocks (`!lane_major`, the channel-wise and SPOT
/// channel-split packings). Because the convolution kernel plaintexts
/// write every group position identically, each position computes a
/// fully independent convolution: spare positions are free capacity.
///
/// `BatchLayout` assigns image `b` the position range
/// `[b·stride, (b+1)·stride)` where `stride` is the number of
/// positions one image occupies, giving `capacity()` images per
/// ciphertext with the server-side HE operation count **unchanged** —
/// rotations and key-switches amortize to `1/B` per image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLayout {
    /// Slots per lane (`N/2`).
    pub lane_size: usize,
    /// Channel blocks per lane.
    pub blocks: usize,
    /// Piece positions (groups) per block.
    pub groups: usize,
    /// Slots per piece position (power of two).
    pub piece_slots: usize,
    /// Positions one image occupies (its piece count; 1 for
    /// channel-wise packing).
    pub stride: usize,
    /// Position model: `true` = positions enumerate `(lane, group)`
    /// pairs lane-major (`2·groups` positions, SPOT whole-piece
    /// packing); `false` = a position is one group index spanning both
    /// lanes and all blocks (`groups` positions, channel-wise and SPOT
    /// channel-split packing).
    pub lane_major: bool,
}

impl BatchLayout {
    /// Builds a batch layout over a `blocks × groups × piece_slots`
    /// lane structure.
    ///
    /// # Panics
    ///
    /// Panics if the block structure does not exactly fill the lane or
    /// an image does not fit (`stride > positions`).
    pub fn new(
        lane_size: usize,
        blocks: usize,
        groups: usize,
        piece_slots: usize,
        stride: usize,
        lane_major: bool,
    ) -> Self {
        assert_eq!(
            blocks * groups * piece_slots,
            lane_size,
            "block structure must exactly fill the lane"
        );
        let layout = Self {
            lane_size,
            blocks,
            groups,
            piece_slots,
            stride,
            lane_major,
        };
        assert!(
            stride >= 1 && stride <= layout.positions(),
            "image stride {} exceeds {} positions",
            stride,
            layout.positions()
        );
        layout
    }

    /// Total piece positions per ciphertext.
    pub fn positions(&self) -> usize {
        if self.lane_major {
            2 * self.groups
        } else {
            self.groups
        }
    }

    /// Images one ciphertext can carry (`≥ 1`).
    pub fn capacity(&self) -> usize {
        (self.positions() / self.stride).max(1)
    }

    /// Copies one position's slots (all blocks, and both lanes in the
    /// `!lane_major` model) from `src` position `src_pos` to `dst`
    /// position `dst_pos`. Both vectors are full `2·lane_size` slot
    /// rows.
    pub fn copy_position(&self, dst: &mut [u64], src: &[u64], dst_pos: usize, src_pos: usize) {
        debug_assert!(dst_pos < self.positions() && src_pos < self.positions());
        debug_assert!(dst.len() == 2 * self.lane_size && src.len() == 2 * self.lane_size);
        let r = self.lane_size;
        let ps = self.piece_slots;
        let gstride = self.groups * ps;
        if self.lane_major {
            let (ld, gd) = (dst_pos / self.groups, dst_pos % self.groups);
            let (ls, gs) = (src_pos / self.groups, src_pos % self.groups);
            for b in 0..self.blocks {
                let doff = ld * r + b * gstride + gd * ps;
                let soff = ls * r + b * gstride + gs * ps;
                dst[doff..doff + ps].copy_from_slice(&src[soff..soff + ps]);
            }
        } else {
            for lane in 0..2 {
                for b in 0..self.blocks {
                    let doff = lane * r + b * gstride + dst_pos * ps;
                    let soff = lane * r + b * gstride + src_pos * ps;
                    dst[doff..doff + ps].copy_from_slice(&src[soff..soff + ps]);
                }
            }
        }
    }

    /// Packs up to `capacity()` images' single-image slot rows (each as
    /// produced by the B=1 packing, occupying positions `0..stride`)
    /// into one shared slot row: image `b` lands at positions
    /// `b·stride ..`.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity()` images are given.
    pub fn pack_images(&self, images: &[Vec<u64>]) -> Vec<u64> {
        assert!(
            images.len() <= self.capacity(),
            "{} images exceed batch capacity {}",
            images.len(),
            self.capacity()
        );
        let mut out = vec![0u64; 2 * self.lane_size];
        for (b, img) in images.iter().enumerate() {
            for p in 0..self.stride {
                self.copy_position(&mut out, img, b * self.stride + p, p);
            }
        }
        out
    }

    /// Extracts image `b`'s slots from a shared slot row back into
    /// single-image form (positions `0..stride`; all other slots zero),
    /// the exact inverse of [`Self::pack_images`] for that image.
    pub fn unpack_image(&self, shared: &[u64], b: usize) -> Vec<u64> {
        assert!(b < self.capacity(), "image {b} out of batch range");
        let mut out = vec![0u64; 2 * self.lane_size];
        for p in 0..self.stride {
            self.copy_position(&mut out, shared, p, b * self.stride + p);
        }
        out
    }

    /// Splits per-image share masks into one shared mask row: image
    /// `b`'s full-ring mask `masks[b]` contributes exactly its
    /// positions-`0..stride` slots, scattered to positions
    /// `b·stride ..`. Subtracting the result from a batched ciphertext
    /// therefore masks each image's slots with that image's own
    /// independently drawn randomness — masks stay independent per
    /// client even though the ciphertext is shared. Slots covered by no
    /// image stay zero (they hold no image data by construction).
    pub fn scatter_masks(&self, masks: &[Vec<u64>]) -> Vec<u64> {
        assert!(
            masks.len() <= self.capacity(),
            "{} masks exceed batch capacity {}",
            masks.len(),
            self.capacity()
        );
        let mut out = vec![0u64; 2 * self.lane_size];
        for (b, m) in masks.iter().enumerate() {
            for p in 0..self.stride {
                self.copy_position(&mut out, m, b * self.stride + p, p);
            }
        }
        out
    }
}

/// Returns the Galois element implementing a row rotation by `steps`
/// (positive = rotate left) for degree `n`.
///
/// # Panics
///
/// Panics if `|steps| >= n/2` or `steps == 0`.
pub fn galois_elt_from_step(steps: i64, n: usize) -> usize {
    let row = (n / 2) as i64;
    assert!(
        steps != 0 && steps.abs() < row,
        "rotation step out of range"
    );
    let s = steps.rem_euclid(row) as u64; // negative k => row - |k|
    let two_n = 2 * n;
    // 3^s mod 2n
    let mut g: usize = 1;
    let mut base: usize = 3;
    let mut e = s;
    while e > 0 {
        if e & 1 == 1 {
            g = (g * base) % two_n;
        }
        base = (base * base) % two_n;
        e >>= 1;
    }
    g
}

/// Returns the Galois element swapping the two slot rows (`x ↦ x^{2N−1}`).
pub fn galois_elt_column_swap(n: usize) -> usize {
    2 * n - 1
}

/// Applies the slot permutation that the Galois element for `steps`
/// induces, on a plain slot vector — the reference semantics rotations are
/// tested against: `out[i] = in[(i + steps) mod row]` within each row.
pub fn rotate_slots_reference(slots: &[u64], steps: i64) -> Vec<u64> {
    let n = slots.len();
    let row = n / 2;
    let mut out = vec![0u64; n];
    for r in 0..2 {
        for i in 0..row {
            let src = ((i as i64 + steps).rem_euclid(row as i64)) as usize;
            out[r * row + i] = slots[r * row + src];
        }
    }
    out
}

/// Reference semantics of the column swap: rows exchanged.
pub fn swap_rows_reference(slots: &[u64]) -> Vec<u64> {
    let row = slots.len() / 2;
    let mut out = slots[row..].to_vec();
    out.extend_from_slice(&slots[..row]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{EncryptionParams, ParamLevel};

    fn setup() -> (Arc<Context>, BatchEncoder) {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let enc = BatchEncoder::new(&ctx);
        (ctx, enc)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (ctx, enc) = setup();
        let t = ctx.params().plain_modulus();
        let values: Vec<u64> = (0..enc.slot_count() as u64)
            .map(|i| (i * 31 + 7) % t)
            .collect();
        let pt = enc.encode(&values);
        assert_eq!(enc.decode(&pt), values);
    }

    #[test]
    fn plaintext_mul_is_slotwise() {
        // Multiplying plaintext polynomials multiplies slots element-wise.
        let (ctx, enc) = setup();
        let n = ctx.degree();
        let a: Vec<u64> = (0..n as u64).map(|i| i % 97).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % 89).collect();
        let pa = enc.encode(&a);
        let pb = enc.encode(&b);
        // multiply polynomials mod t via the plaintext NTT
        let mut fa = pa.coeffs().to_vec();
        let mut fb = pb.coeffs().to_vec();
        ctx.plain_ntt().forward(&mut fa);
        ctx.plain_ntt().forward(&mut fb);
        let tm = ctx.plain_modulus();
        let prod: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| tm.mul(x, y)).collect();
        let mut prod = prod;
        ctx.plain_ntt().inverse(&mut prod);
        let decoded = enc.decode(&Plaintext::from_coeffs(prod));
        let expected: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| tm.mul(x, y)).collect();
        assert_eq!(decoded, expected);
    }

    /// Applies a Galois automorphism to a `Plaintext` (over `Z_t`) — used by
    /// the tests below to verify slot-rotation semantics without encryption.
    #[allow(clippy::needless_range_loop)]
    fn apply_galois_plain(ctx: &Arc<Context>, pt: &Plaintext, g: usize) -> Plaintext {
        let n = ctx.degree();
        let two_n = 2 * n;
        let t = ctx.plain_modulus();
        let src = pt.coeffs();
        let mut dst = vec![0u64; n];
        for j in 0..n {
            let idx = (j * g) % two_n;
            let v = src[j];
            if idx < n {
                dst[idx] = t.add(dst[idx], v);
            } else {
                dst[idx - n] = t.sub(dst[idx - n], v);
            }
        }
        Plaintext::from_coeffs(dst)
    }

    #[test]
    fn galois_rotates_rows_left() {
        let (ctx, enc) = setup();
        let n = ctx.degree();
        let values: Vec<u64> = (0..n as u64).collect();
        let pt = enc.encode(&values);
        for steps in [1i64, 2, 5, -1, -3] {
            let g = galois_elt_from_step(steps, n);
            let rotated = apply_galois_plain(&ctx, &pt, g);
            let decoded = enc.decode(&rotated);
            assert_eq!(
                decoded,
                rotate_slots_reference(&values, steps),
                "step {steps}"
            );
        }
    }

    #[test]
    fn galois_swaps_columns() {
        let (ctx, enc) = setup();
        let n = ctx.degree();
        let values: Vec<u64> = (0..n as u64).collect();
        let pt = enc.encode(&values);
        let g = galois_elt_column_swap(n);
        let swapped = apply_galois_plain(&ctx, &pt, g);
        assert_eq!(enc.decode(&swapped), swap_rows_reference(&values));
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_value() {
        let (ctx, enc) = setup();
        let t = ctx.params().plain_modulus();
        let _ = enc.encode(&[t]);
    }

    fn image_row(bl: &BatchLayout, seed: u64) -> Vec<u64> {
        // A single-image row: nonzero data only in positions 0..stride.
        let mut row = vec![0u64; 2 * bl.lane_size];
        let src: Vec<u64> = (0..2 * bl.lane_size as u64)
            .map(|i| i * 31 + seed)
            .collect();
        for p in 0..bl.stride {
            bl.copy_position(&mut row, &src, p, p);
        }
        row
    }

    #[test]
    fn batch_pack_unpack_roundtrip_both_models() {
        for lane_major in [false, true] {
            let bl = BatchLayout::new(256, 2, 8, 16, 2, lane_major);
            assert_eq!(bl.positions(), if lane_major { 16 } else { 8 });
            assert_eq!(bl.capacity(), bl.positions() / 2);
            let images: Vec<Vec<u64>> = (0..bl.capacity() as u64)
                .map(|b| image_row(&bl, 1000 * (b + 1)))
                .collect();
            let shared = bl.pack_images(&images);
            for (b, img) in images.iter().enumerate() {
                assert_eq!(
                    &bl.unpack_image(&shared, b),
                    img,
                    "lane_major={lane_major} b={b}"
                );
            }
        }
    }

    #[test]
    fn batch_positions_are_disjoint() {
        let bl = BatchLayout::new(256, 4, 4, 16, 1, false);
        // Packing one image must not touch any other image's positions.
        let img = image_row(&bl, 7);
        let shared = bl.pack_images(&[vec![0u64; 512], img.clone()]);
        assert_eq!(bl.unpack_image(&shared, 0), vec![0u64; 512]);
        assert_eq!(bl.unpack_image(&shared, 1), img);
    }

    #[test]
    fn scatter_masks_places_each_images_randomness() {
        let bl = BatchLayout::new(256, 2, 8, 16, 2, true);
        let masks: Vec<Vec<u64>> = (0..3u64)
            .map(|b| (0..512).map(|i| i as u64 * 3 + 100 * b).collect())
            .collect();
        let shared = bl.scatter_masks(&masks);
        for (b, m) in masks.iter().enumerate() {
            // Image b's slots hold exactly mask b's position-0..stride
            // slots, independent of every other image's mask.
            let mut single = vec![0u64; 512];
            for p in 0..bl.stride {
                bl.copy_position(&mut single, m, p, p);
            }
            assert_eq!(bl.unpack_image(&shared, b), single, "mask {b}");
        }
    }

    #[test]
    #[should_panic]
    fn batch_overflow_rejected() {
        let bl = BatchLayout::new(256, 2, 4, 32, 2, false);
        assert_eq!(bl.capacity(), 2);
        let imgs: Vec<Vec<u64>> = (0..3).map(|_| vec![0u64; 512]).collect();
        let _ = bl.pack_images(&imgs);
    }
}
