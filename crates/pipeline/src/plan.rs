//! Execution plans: the scheme-independent summary of one secure
//! convolution layer that the discrete-event simulator schedules.
//!
//! A [`ConvPlan`] is produced by each scheme in `spot-core` from the
//! same plan the wire runs. Under SPOT and channel-wise packing the
//! server's operation counts are read off the conv engine's walks
//! (`spot_core::heconv::ConvWalk::ops`, the value the engine executes):
//! exact, except for kernel plaintexts the weights zero out, which the
//! model still counts. Cheetah's come from its coefficient packing. Every
//! result is priced at the bytes the wire carries for it
//! ([`ConvPlan::result_bytes`]): the two-prime full form for a
//! slot-packed result, `c1` plus the useful coefficients of `c0` for a
//! coefficient-packed one. So the simulated timeline is priced by what
//! the implementation does.

use spot_he::evaluator::OpCounts;
use spot_he::params::ParamLevel;

/// How output ciphertexts depend on input ciphertexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputDependency {
    /// Every output needs *all* inputs (channel-wise packing, Cheetah):
    /// the server cannot finish anything until the last input arrives —
    /// the paper's *linear computation stall*.
    AllInputs,
    /// Each input ciphertext independently produces its own outputs
    /// (SPOT structure patching): results stream back immediately.
    PerInput,
}

/// The summary of one secure convolution layer execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvPlan {
    /// Scheme name for reports.
    pub scheme: &'static str,
    /// HE parameter level used.
    pub level: ParamLevel,
    /// Ciphertexts the client encrypts and uploads.
    pub input_cts: usize,
    /// Ciphertexts returned to the client.
    pub output_cts: usize,
    /// Server HE work that runs per input ciphertext (as soon as it
    /// arrives, under [`OutputDependency::PerInput`]), summed over all
    /// of them.
    pub input_ops: OpCounts,
    /// Server HE work requiring all inputs (cross-ciphertext additions);
    /// zero for SPOT.
    pub finalize_ops: OpCounts,
    /// Output dependency structure.
    pub dependency: OutputDependency,
    /// Client-side share-assembly additions after decryption (overlap
    /// tweaking arithmetic), total element operations.
    pub assembly_elements: u64,
    /// ReLU elements computed after this convolution (0 = none).
    pub relu_elements: usize,
    /// Serialized bytes of one ciphertext at `level`.
    pub ciphertext_bytes: usize,
    /// Serialized bytes of one result as the wire carries it: at the
    /// level's result primes, whole for a slot-packed result, `c1` and
    /// the useful coefficients of `c0` for a coefficient-packed one.
    pub result_bytes: usize,
    /// SIMD slots actually carrying feature-map values per input
    /// ciphertext (for the memory-utilization figure).
    pub useful_input_slots: usize,
    /// SIMD slots actually carrying result values per output ciphertext.
    pub useful_output_slots: usize,
}

impl ConvPlan {
    /// Total server HE operations: the per-input work plus
    /// finalization.
    pub fn total_server_ops(&self) -> OpCounts {
        let mut total = self.input_ops;
        total.merge(&self.finalize_ops);
        total
    }

    /// Upstream communication bytes (client → server).
    pub fn upstream_bytes(&self) -> u64 {
        (self.input_cts * self.ciphertext_bytes) as u64
    }

    /// Downstream communication bytes (server → client).
    pub fn downstream_bytes(&self) -> u64 {
        (self.output_cts * self.result_bytes) as u64
    }

    /// Useful feature-map entries per megabyte of one input ciphertext:
    /// what the client holds while encrypting. Fig. 11's *in-memory
    /// values* also counts the results it holds (`spot-core`'s
    /// `memory_util::in_memory_values_per_mb`).
    pub fn input_values_per_mb(&self) -> f64 {
        self.useful_input_slots as f64 / (self.ciphertext_bytes as f64 / (1024.0 * 1024.0))
    }

    /// Rough single-number cost estimate (reference-core seconds plus
    /// WLAN transfer time) used to choose between parameter levels.
    pub fn estimated_seconds(&self, costs: &crate::device::HeCostTable) -> f64 {
        let c = costs.at(self.level);
        let ops = self.total_server_ops();
        let server = ops.add as f64 * c.add
            + ops.mult_plain as f64 * c.mult_plain
            + ops.rotate as f64 * c.rotate;
        let client = self.input_cts as f64 * c.encrypt + self.output_cts as f64 * c.decrypt;
        let comm = (self.upstream_bytes() + self.downstream_bytes()) as f64 / 12.5e6;
        server + client + comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ConvPlan {
        ConvPlan {
            scheme: "test",
            level: ParamLevel::N4096,
            input_cts: 4,
            output_cts: 2,
            input_ops: OpCounts {
                add: 40,
                mult_plain: 80,
                rotate: 20,
                encrypt: 0,
                decrypt: 0,
            },
            finalize_ops: OpCounts {
                add: 3,
                mult_plain: 0,
                rotate: 0,
                encrypt: 0,
                decrypt: 0,
            },
            dependency: OutputDependency::AllInputs,
            assembly_elements: 0,
            relu_elements: 1000,
            ciphertext_bytes: 131_697,
            result_bytes: 87_800,
            useful_input_slots: 4096,
            useful_output_slots: 2048,
        }
    }

    #[test]
    fn totals() {
        let p = plan();
        let t = p.total_server_ops();
        assert_eq!(t.add, 43);
        assert_eq!(t.mult_plain, 80);
        assert_eq!(t.rotate, 20);
        assert_eq!(p.upstream_bytes(), 4 * 131_697);
        assert_eq!(p.downstream_bytes(), 2 * 87_800);
    }

    #[test]
    fn input_values_metric() {
        let p = plan();
        let v = p.input_values_per_mb();
        // 4096 values in ~0.1256 MB ≈ 32.6k values/MB
        assert!((30_000.0..36_000.0).contains(&v), "v = {v}");
    }
}
