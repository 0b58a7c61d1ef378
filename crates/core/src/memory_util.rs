//! The Fig. 11 memory-utilization metric: *in-memory values* — how many
//! useful feature-map entries each megabyte of client ciphertext memory
//! carries.
//!
//! Channel-wise packing wastes the padding slots of each power-of-two
//! channel block and is forced onto large parameter levels; Cheetah
//! packs inputs densely and sends each result sparse (`c1` and the
//! useful coefficients of `c0`), but carries one output channel per
//! result ciphertext; SPOT's adaptive patches keep slot utilization
//! high at the smallest levels.

use spot_pipeline::plan::ConvPlan;

/// In-memory values for a plan: useful entries per MB of ciphertext
/// material the client holds over the layer (inputs and outputs). The
/// input side alone is [`ConvPlan::input_values_per_mb`].
pub fn in_memory_values_per_mb(plan: &ConvPlan) -> f64 {
    let useful = (plan.input_cts * plan.useful_input_slots
        + plan.output_cts * plan.useful_output_slots) as f64;
    let bytes = (plan.upstream_bytes() + plan.downstream_bytes()) as f64;
    useful / (bytes / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patching::PatchMode;
    use crate::{channelwise, cheetah, select, spot};
    use spot_tensor::models::ConvShape;

    #[test]
    fn spot_beats_channelwise_on_memory_utilization() {
        // A deep block: 14x14, 256 channels (Table VIII row 3).
        let shape = ConvShape::new(14, 14, 256, 256, 3, 1);
        let cw = channelwise::plan(&shape, channelwise::minimum_level(&shape), false);
        let choice = select::best_level(&shape, PatchMode::Tweaked).unwrap();
        let sp = spot::plan(
            &shape,
            choice.level,
            choice.patch,
            PatchMode::Tweaked,
            false,
        );
        let cw_v = in_memory_values_per_mb(&cw);
        let sp_v = in_memory_values_per_mb(&sp);
        assert!(
            sp_v > cw_v,
            "SPOT {sp_v:.0} values/MB should beat channel-wise {cw_v:.0}"
        );
    }

    #[test]
    fn cheetah_sparse_results_carry_values_denser_than_its_inputs() {
        // 28x28, 128 -> 128 at N4096: 64 inputs of two channels each
        // (1,568 values in 111,632 B) and 128 results of one output
        // channel each, sent as `c1` plus its 784 useful coefficients.
        let shape = ConvShape::new(28, 28, 128, 128, 3, 1);
        let ch = cheetah::plan(&shape, cheetah::minimum_level(&shape), false);
        assert_eq!((ch.input_cts, ch.output_cts), (64, 128));
        assert_eq!(ch.useful_output_slots, 784);
        assert_eq!(ch.result_bytes, 16 + 36_864 + 2 * 3_528);
        // 784 values in 43,936 B beat 1,568 in 111,632 B, so the
        // results lift the combined metric above the input side alone.
        assert!(ch.input_values_per_mb() > 5_000.0);
        assert!(in_memory_values_per_mb(&ch) > ch.input_values_per_mb());
    }

    #[test]
    fn values_positive_for_all_schemes() {
        let shape = ConvShape::new(56, 56, 64, 64, 3, 1);
        let cw = channelwise::plan(&shape, channelwise::minimum_level(&shape), false);
        let ch = cheetah::plan(&shape, cheetah::minimum_level(&shape), false);
        let choice = select::best_level(&shape, PatchMode::Tweaked).unwrap();
        let sp = spot::plan(
            &shape,
            choice.level,
            choice.patch,
            PatchMode::Tweaked,
            false,
        );
        for p in [&cw, &ch, &sp] {
            assert!(in_memory_values_per_mb(p) > 0.0, "{}", p.scheme);
        }
    }
}
