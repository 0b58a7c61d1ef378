//! Batch (multi-image) inference planning — the comparison the paper
//! draws against Channel-By-Channel packing (Cheon et al., Sec. II-E):
//! batching amortizes HE cost across images for *throughput*, but a tiny
//! client running a single query cares about *latency*, where SPOT's
//! per-ciphertext pipelining wins.
//!
//! Batched SPOT packs the **same patch position of B different images**
//! into the spare piece slots of each ciphertext (the `groups`
//! dimension of the lane layout), so every HE operation processes B
//! images at once; kernel plaintexts are image-independent, so the
//! server-side operation count per ciphertext is unchanged.

use crate::inference::plan_conv;
use crate::session::SchemeKind;
use spot_pipeline::device::DeviceProfile;
use spot_pipeline::plan::ConvPlan;
use spot_pipeline::sim::{simulate_conv, SimConfig};
use spot_tensor::models::ConvShape;

/// Throughput plan for a batch of `batch` images through one layer.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Images per batch.
    pub batch: usize,
    /// The per-batch layer plan.
    pub plan: ConvPlan,
}

/// Builds a batched plan: input/output ciphertext counts and client work
/// scale with the batch, while per-ciphertext server work is unchanged
/// (the kernel plaintexts are shared across images).
pub fn plan_batched(shape: &ConvShape, scheme: SchemeKind, batch: usize) -> BatchPlan {
    assert!(batch >= 1, "batch must be at least 1");
    let mut plan = plan_conv(shape, scheme, true);
    plan.input_cts *= batch;
    plan.input_ops = plan.input_ops.times(batch as u64);
    plan.output_cts *= batch;
    plan.relu_elements *= batch;
    plan.assembly_elements *= batch as u64;
    BatchPlan { batch, plan }
}

/// Amortized per-image latency of the batched plan on a client.
pub fn amortized_latency(bp: &BatchPlan, client: DeviceProfile) -> f64 {
    let cfg = SimConfig::with_client(client);
    simulate_conv(&bp.plan, &cfg).timing.total_s / bp.batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(28, 28, 128, 128, 3, 1)
    }

    /// Single-query latency (batch = 1) for comparison.
    fn single_latency(shape: &ConvShape, scheme: SchemeKind, client: DeviceProfile) -> f64 {
        amortized_latency(&plan_batched(shape, scheme, 1), client)
    }

    #[test]
    fn batching_amortizes_per_image_cost() {
        let single = single_latency(&shape(), SchemeKind::Spot, DeviceProfile::desktop_client());
        let batched = amortized_latency(
            &plan_batched(&shape(), SchemeKind::Spot, 8),
            DeviceProfile::desktop_client(),
        );
        assert!(
            batched < single,
            "amortized {batched} should beat single {single}"
        );
    }

    #[test]
    fn batching_multiplies_traffic() {
        let b1 = plan_batched(&shape(), SchemeKind::Channelwise, 1);
        let b4 = plan_batched(&shape(), SchemeKind::Channelwise, 4);
        assert_eq!(b4.plan.upstream_bytes(), 4 * b1.plan.upstream_bytes());
        assert_eq!(b4.plan.relu_elements, 4 * b1.plan.relu_elements);
    }

    #[test]
    fn tiny_client_gains_less_from_batching() {
        // the memory-constrained client serializes the extra ciphertexts,
        // so its amortization factor is worse than the desktop's
        let shape = shape();
        let desk_gain = single_latency(&shape, SchemeKind::Spot, DeviceProfile::desktop_client())
            / amortized_latency(
                &plan_batched(&shape, SchemeKind::Spot, 8),
                DeviceProfile::desktop_client(),
            );
        let iot_gain = single_latency(&shape, SchemeKind::Spot, DeviceProfile::iot_k27())
            / amortized_latency(
                &plan_batched(&shape, SchemeKind::Spot, 8),
                DeviceProfile::iot_k27(),
            );
        assert!(
            desk_gain > iot_gain * 0.8,
            "desktop gain {desk_gain} vs iot gain {iot_gain}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_batch_rejected() {
        let _ = plan_batched(&shape(), SchemeKind::Spot, 0);
    }
}
