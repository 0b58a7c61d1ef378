//! Cheetah-style coefficient-encoding convolution (Huang et al., USENIX
//! Security '22) — the second baseline the paper compares against.
//!
//! Instead of SIMD slots, the input is packed into *polynomial
//! coefficients*; one ciphertext–plaintext ring multiplication then
//! computes an entire multi-channel convolution with **zero rotations**
//! (the negacyclic product's coefficient at the right index accumulates
//! the full weighted sum). The price:
//!
//! * only a sparse subset of output coefficients is useful — one per
//!   output pixel of the result's channel (the packing's
//!   `result_positions`), 64 of 4,096 on TinyCnn's first layer — yet a
//!   whole result would still cost the client its downlink and its
//!   decryption: the paper's explanation for why Cheetah's advantage
//!   collapses on tiny clients (Table II);
//! * output values still depend on **all** input ciphertexts (partial
//!   products summed across channel chunks), so the linear computation
//!   stall remains.
//!
//! The functional path really computes convolutions through the
//! coefficient encoding on our BFV ciphertexts and is tested against the
//! plaintext reference. What it sends back is what [`plan`] prices: each
//! masked result as `c1` and `c0` at the useful positions alone
//! (`spot_he::ciphertext::SparseCiphertext`, 37,456 B for 64 positions
//! at N4096 where a whole two-prime result is 73,744), decrypted by the
//! client at those positions only. Decrypting coefficient `i` needs
//! `c0[i]` and all of `c1`, so this trims the output without an LWE
//! extraction: no extraction key, no LWE ciphertexts, and no cost the
//! wire does not run.
//!
//! The layer runs on the one packing of all three schemes, two fills
//! ([`crate::tile`]): Cheetah is the whole map as one piece
//! (`Cut::Whole`, as under channel-wise packing) under the coefficient
//! fill, and this module supplies its rule, [`geometry`]: the one rule
//! that both the layer's packing and the cost model ([`plan`]) read.

use crate::error::SpotError;
use crate::tile::{Cut, Fill, Packing};
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::{ConvPlan, OutputDependency};
use spot_tensor::models::ConvShape;
use std::ops::Range;

/// Geometry of the coefficient packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheetahGeometry {
    /// Padded channel stride in coefficients (`(H+k_h-1)·(W+k_w-1)`).
    pub channel_coeffs: usize,
    /// Row width of the halo-padded plane (`W+k_w-1`).
    pub padded_width: usize,
    /// Input channels per ciphertext.
    pub channels_per_ct: usize,
    /// Number of input ciphertexts.
    pub input_cts: usize,
    /// Number of result ciphertexts.
    pub output_cts: usize,
}

/// Computes the packing geometry: the one rule that the coefficient
/// fill of `packing` and the cost model of [`plan`] both read.
///
/// The functional encoding places chunk channels ascending and kernels
/// descending, so the useful products land at channel offset
/// `(chunk-1)·channel_coeffs` and the total degree stays below `N` when
/// `(2·chunk-1)·channel_coeffs ≤ N`. A halo-padded plane larger than
/// the ring is priced as fragments for the tables (planning only); the
/// packing refuses it.
pub fn geometry(shape: &ConvShape, level: ParamLevel) -> CheetahGeometry {
    let n = level.degree();
    let hp = shape.height + shape.k_h - 1;
    let wp = shape.width + shape.k_w - 1;
    let s_ch = hp * wp;
    let max_chunk = if s_ch > n { 0 } else { (n / s_ch).div_ceil(2) };
    let channels_per_ct = max_chunk.max(1).min(shape.c_in.max(1));
    let (input_cts, output_cts) = if max_chunk == 0 {
        // feature map larger than the ring: fragment (planning only)
        let per_channel = s_ch.div_ceil(n);
        (shape.c_in * per_channel, shape.c_out * per_channel)
    } else {
        (shape.c_in.div_ceil(channels_per_ct), shape.c_out)
    };
    CheetahGeometry {
        channel_coeffs: s_ch,
        padded_width: wp,
        channels_per_ct,
        input_cts,
        output_cts,
    }
}

impl CheetahGeometry {
    /// The input channels chunk `chunk` of a `c_in`-channel map carries.
    pub(crate) fn chunk(&self, chunk: usize, c_in: usize) -> Range<usize> {
        let per_ct = self.channels_per_ct;
        chunk * per_ct..((chunk + 1) * per_ct).min(c_in)
    }

    /// The coefficient of position `(y, x)` of a chunk's `local`-th
    /// channel plane: planes ascend at the channel stride, rows at the
    /// padded width.
    pub(crate) fn at(&self, local: usize, y: usize, x: usize) -> usize {
        local * self.channel_coeffs + y * self.padded_width + x
    }
}

/// The layer planned under coefficient packing: the whole map, one
/// piece, its channels in chunks of [`CheetahGeometry::channels_per_ct`]
/// under the coefficient fill; the halo-padded plane must fit the ring.
pub(crate) fn packing(shape: &ConvShape, level: ParamLevel) -> Result<Packing, SpotError> {
    let fill = Fill::Coeffs(geometry(shape, level));
    Packing::new(shape, level, fill, Cut::Whole)
}

/// The smallest level Cheetah can use for a shape (the feature map plus
/// kernel halo must fit the ring).
pub fn minimum_level(shape: &ConvShape) -> ParamLevel {
    let s_ch = (shape.height + shape.k_h - 1) * (shape.width + shape.k_w - 1);
    for level in ParamLevel::ALL {
        if s_ch <= level.degree() && level.supports_rotation() {
            // Cheetah needs no rotations, but key-switching material for
            // relinearization-free ops still wants ≥ 2 RNS primes; its
            // published parameters use N = 4096.
            return level;
        }
    }
    ParamLevel::N16384
}

/// Builds the Cheetah execution plan for the simulator: one ring
/// product per output channel per input ciphertext, the chunk sums and
/// one masking per result, and every result priced as the wire sends
/// it, sparse at its `out_h·out_w` useful coefficients.
pub fn plan(shape: &ConvShape, level: ParamLevel, with_relu: bool) -> ConvPlan {
    let geo = geometry(shape, level);
    let input_ops = OpCounts {
        mult_plain: (shape.c_out * geo.input_cts) as u64,
        ..OpCounts::default()
    };
    let finalize = OpCounts {
        // chunk accumulation + masking
        add: (geo.input_cts.saturating_sub(1) as u64) * shape.c_out as u64 + shape.c_out as u64,
        ..OpCounts::default()
    };
    // A fragmented map (planning only) spreads a channel's outputs over
    // its fragments' results.
    let useful = shape
        .output_elements()
        .div_ceil(geo.output_cts)
        .min(level.degree());
    let params = spot_he::params::EncryptionParams::new(level);
    ConvPlan {
        scheme: "Cheetah (coefficient)",
        level,
        input_cts: geo.input_cts,
        output_cts: geo.output_cts,
        input_ops,
        finalize_ops: finalize,
        dependency: OutputDependency::AllInputs,
        assembly_elements: shape.output_elements() as u64,
        relu_elements: if with_relu {
            shape.output_elements()
        } else {
            0
        },
        ciphertext_bytes: params.ciphertext_bytes(),
        result_bytes: params.result_params().sparse_ciphertext_bytes(useful),
        useful_input_slots: (geo.channels_per_ct * shape.width * shape.height).min(level.degree()),
        useful_output_slots: useful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channelwise::SecureConvResult;
    use crate::patching::PatchMode;
    use crate::session::{run_phased, LayerSpec, SchemeKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::context::Context;
    use spot_he::keys::KeyGenerator;
    use spot_he::params::EncryptionParams;
    use spot_tensor::conv::conv2d;
    use spot_tensor::tensor::{Kernel, Tensor};
    use std::sync::Arc;

    fn ctx4096() -> Arc<Context> {
        Context::new(EncryptionParams::new(ParamLevel::N4096))
    }

    fn run(
        ctx: &Arc<Context>,
        kg: &KeyGenerator,
        input: &Tensor,
        kernel: &Kernel,
        stride: usize,
        rng: &mut StdRng,
    ) -> SecureConvResult {
        let spec = LayerSpec::for_layer(
            SchemeKind::Cheetah,
            input,
            kernel,
            stride,
            (0, 0),
            PatchMode::Vanilla,
        );
        run_phased(ctx, kg, spec, input, kernel, rng)
    }

    #[test]
    fn geometry_counts() {
        let shape = ConvShape::new(8, 8, 16, 8, 3, 1);
        let geo = geometry(&shape, ParamLevel::N4096);
        assert_eq!(geo.channel_coeffs, 100);
        assert_eq!(geo.channels_per_ct, 16);
        assert_eq!(geo.input_cts, 1);
        assert_eq!(geo.output_cts, 8);
    }

    #[test]
    fn cheetah_matches_reference_3x3() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(700);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 71);
        let kernel = Kernel::random(4, 4, 3, 3, 4, 72);
        let res = run(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
        // zero rotations — Cheetah's defining property
        assert_eq!(res.counts.rotate, 0);
    }

    #[test]
    fn cheetah_matches_reference_multi_chunk() {
        // 16x16 map → s_ch = 18*18 = 324; chunk = (4096/324+1)/2 = 6;
        // 16 channels → 3 input cts
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(800);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(16, 16, 16, 4, 81);
        let kernel = Kernel::random(2, 16, 3, 3, 3, 82);
        let res = run(&ctx, &kg, &input, &kernel, 1, &mut rng);
        assert!(res.input_cts > 1);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 1));
    }

    #[test]
    fn cheetah_1x1_and_stride() {
        let ctx = ctx4096();
        let mut rng = StdRng::seed_from_u64(900);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let input = Tensor::random(4, 8, 8, 8, 91);
        let kernel = Kernel::random(4, 4, 1, 1, 4, 92);
        let res = run(&ctx, &kg, &input, &kernel, 2, &mut rng);
        assert_eq!(res.reconstruct(), conv2d(&input, &kernel, 2));
    }

    #[test]
    fn minimum_levels() {
        assert_eq!(
            minimum_level(&ConvShape::new(56, 56, 64, 64, 3, 1)),
            ParamLevel::N4096
        );
        assert_eq!(
            minimum_level(&ConvShape::new(112, 112, 64, 64, 3, 1)),
            ParamLevel::N16384
        );
    }

    #[test]
    fn plan_has_dependency_and_sparse_results() {
        let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
        let p = plan(&shape, ParamLevel::N4096, true);
        assert_eq!(p.dependency, OutputDependency::AllInputs);
        assert_eq!(p.input_ops.rotate, 0);
        // One result per output channel, each `c1` (36,864 B at the two
        // result primes) plus 784 useful coefficients at 36 bits a prime.
        assert_eq!(p.output_cts, 128);
        assert_eq!(p.result_bytes, 16 + 36_864 + 2 * (784 * 36 / 8));
        assert_eq!(p.downstream_bytes(), 128 * p.result_bytes as u64);
    }

    #[test]
    fn result_positions_are_the_coefficients_the_share_reads() {
        // Strided, halo-padded 5x5 kernel over a 9x7 map: every position
        // is its pixel's kernel centre, one chunk in.
        let shape = ConvShape::new(7, 9, 3, 2, 5, 2);
        let packing = packing(&shape, ParamLevel::N4096).unwrap();
        let geo = geometry(&shape, ParamLevel::N4096);
        let (wp, base) = (7 + 4, (geo.channels_per_ct - 1) * geo.channel_coeffs);
        let positions = packing.result_positions().unwrap();
        assert_eq!(positions.len(), shape.out_height() * shape.out_width());
        assert_eq!(positions[0], base + 2 * wp + 2);
        let last = base + ((shape.out_height() - 1) * 2 + 2) * wp + (shape.out_width() - 1) * 2 + 2;
        assert_eq!(positions[positions.len() - 1], last);
        // Read back through the share: position k holds pixel k.
        let rows: Vec<Vec<u64>> = (0..shape.c_out)
            .map(|o| {
                let mut row = vec![0u64; 4096];
                for (k, &p) in positions.iter().enumerate() {
                    row[p] = (100 * o + k) as u64;
                }
                row
            })
            .collect();
        let share = packing.share(rows, 1 << 20, false);
        for o in 0..shape.c_out {
            for y in 0..shape.out_height() {
                for x in 0..shape.out_width() {
                    let k = y * shape.out_width() + x;
                    assert_eq!(share.at(o, y, x), (100 * o + k) as i64);
                }
            }
        }
    }
}
