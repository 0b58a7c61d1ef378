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
//!   output pixel of the result's channel ([`Packing`]'s
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
//! [`Packing`] is this scheme's side of the session driver's interface
//! ([`crate::session::ConvScheme`]): plan, pack, convolve, share.

use crate::error::SpotError;
use crate::layout::BatchLayout;
use crate::session::{lift, ConvScheme, PlanFacts, ServerKit, MAX_BATCH};
use spot_he::ciphertext::Ciphertext;
use spot_he::encoding::Plaintext;
use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::{ConvPlan, OutputDependency};
use spot_tensor::fixed::to_field;
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::Tensor;

/// Geometry of the coefficient packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheetahGeometry {
    /// Padded channel stride in coefficients (`(H+k_h-1)·(W+k_w-1)`).
    pub channel_coeffs: usize,
    /// Input channels per ciphertext.
    pub channels_per_ct: usize,
    /// Number of input ciphertexts.
    pub input_cts: usize,
    /// Number of result ciphertexts.
    pub output_cts: usize,
}

/// Computes the packing geometry.
///
/// The functional encoding places chunk channels ascending and kernels
/// descending, so the useful products land at channel offset
/// `(chunk-1)·channel_coeffs` and the total degree stays below `N` when
/// `(2·chunk-1)·channel_coeffs ≤ N`.
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
        channels_per_ct,
        input_cts,
        output_cts,
    }
}

/// One layer planned under coefficient packing.
pub(crate) struct Packing {
    shape: ConvShape,
    geo: CheetahGeometry,
    degree: usize,
    facts: PlanFacts,
    /// Where output pixel `(y, x)` lands in every result, at
    /// `y·out_w + x`: the coefficients the share reads and the wire
    /// carries.
    positions: Vec<usize>,
}

impl Packing {
    /// Plans `shape` at `level`; the feature map plus kernel halo must
    /// fit the ring.
    pub(crate) fn new(shape: &ConvShape, level: ParamLevel) -> Result<Self, SpotError> {
        let geo = geometry(shape, level);
        if geo.channel_coeffs > level.degree() {
            return Err(SpotError::Protocol(format!(
                "feature map does not fit the ring at {level}"
            )));
        }
        // The useful products land one chunk in, at the halo-padded
        // position of each output pixel's kernel centre.
        let wp = shape.width + shape.k_w - 1;
        let base = (geo.channels_per_ct - 1) * geo.channel_coeffs;
        let (ph, pw, s) = ((shape.k_h - 1) / 2, (shape.k_w - 1) / 2, shape.stride);
        let positions = (0..shape.out_height())
            .flat_map(|y| {
                (0..shape.out_width()).map(move |x| base + (y * s + ph) * wp + (x * s + pw))
            })
            .collect();
        Ok(Self {
            shape: *shape,
            geo,
            degree: level.degree(),
            positions,
            facts: PlanFacts {
                dependency: OutputDependency::AllInputs,
                input_cts: geo.input_cts,
                output_cts: shape.c_out,
                // One output channel's ring product summed over every
                // chunk.
                jobs: shape.c_out,
                galois_elements: Vec::new(),
                // Coefficient packing shares no slots: a batch is its
                // images in sequence over one session (keys and setup
                // amortize), bounded only by the wire field.
                batch_capacity: MAX_BATCH,
                coeff_packed: true,
            },
        })
    }

    /// Row width of the halo-padded feature map.
    fn padded_width(&self) -> usize {
        self.shape.width + self.shape.k_w - 1
    }

    /// The input channels chunk `chunk` carries.
    fn chunk_channels(&self, chunk: usize) -> std::ops::Range<usize> {
        let per_ct = self.geo.channels_per_ct;
        chunk * per_ct..((chunk + 1) * per_ct).min(self.shape.c_in)
    }
}

impl ConvScheme for Packing {
    fn facts(&self) -> &PlanFacts {
        &self.facts
    }

    fn batch_layout(&self, _result: usize) -> Option<BatchLayout> {
        None
    }

    fn result_positions(&self) -> Option<&[usize]> {
        Some(&self.positions)
    }

    fn pack(
        &self,
        images: &[Tensor],
        t: u64,
        emit: &mut dyn FnMut(Vec<u64>) -> Result<(), SpotError>,
    ) -> Result<(), SpotError> {
        let (shape, wp) = (&self.shape, self.padded_width());
        for img in images {
            for chunk in 0..self.geo.input_cts {
                let mut coeffs = vec![0u64; self.degree];
                for (local, c) in self.chunk_channels(chunk).enumerate() {
                    for y in 0..shape.height {
                        for x in 0..shape.width {
                            coeffs[local * self.geo.channel_coeffs + y * wp + x] =
                                to_field(img.at(c, y, x), t);
                        }
                    }
                }
                emit(coeffs)?;
            }
        }
        Ok(())
    }

    fn convolve(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        inputs: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, SpotError> {
        let (shape, wp, s_ch) = (&self.shape, self.padded_width(), self.geo.channel_coeffs);
        let t = kit.ctx.params().plain_modulus();
        let evaluator = kit.engine.evaluator();
        let mut acc: Option<Ciphertext> = None;
        for (chunk, input) in inputs.iter().enumerate() {
            let mut wcoeffs = vec![0u64; self.degree];
            for (local, c) in self.chunk_channels(chunk).enumerate() {
                for u in 0..shape.k_h {
                    for v in 0..shape.k_w {
                        let idx = (self.geo.channels_per_ct - 1 - local) * s_ch
                            + (shape.k_h - 1 - u) * wp
                            + (shape.k_w - 1 - v);
                        wcoeffs[idx] = to_field(kit.kernel.at(job, c, u, v), t);
                    }
                }
            }
            let prod = evaluator.multiply_plain(input, &Plaintext::from_coeffs(wcoeffs));
            match &mut acc {
                None => acc = Some(prod),
                Some(a) => evaluator.add_inplace(a, &prod),
            }
        }
        Ok(vec![acc.expect("at least one chunk")])
    }

    fn share(&self, rows: Vec<Vec<u64>>, t: u64, center: bool) -> Tensor {
        let (shape, out_w) = (&self.shape, self.shape.out_width());
        Tensor::from_fn(shape.c_out, shape.out_height(), out_w, |o, y, x| {
            lift(rows[o][self.positions[y * out_w + x]], t, center)
        })
    }
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
    use spot_tensor::tensor::Kernel;
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
        let packing = Packing::new(&shape, ParamLevel::N4096).unwrap();
        let (wp, base) = (
            7 + 4,
            (packing.geo.channels_per_ct - 1) * packing.geo.channel_coeffs,
        );
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
