//! Communication/computation cost model of the OT-based non-linear
//! protocols (the SCI-NonLinear module of CrypTFlow2 the paper reuses).
//!
//! IKNP/Ferret OT extension is not implemented; the analytic tables
//! price the non-linear layers at the costs CrypTFlow2 reports: a
//! millionaire-protocol DReLU over an `ℓ`-bit field costs
//! `< λℓ/4 + 14ℓ` bits of communication in about 4 rounds (λ = 128),
//! and multiplexing the result back onto the share costs two more OTs.
//! A 2×2 max-pool window is three [`OtCostModel::max`] comparisons.
//! These constants reproduce the paper's Table III observation that
//! ReLU is only 1–3% of a convolution layer's runtime for tiny clients.

/// Computational security parameter (bits).
pub const LAMBDA: u32 = 128;

/// Cost model for OT-based non-linear operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtCostModel {
    /// Field bit width `ℓ` (log2 of the plaintext modulus, rounded up).
    pub ell: u32,
    /// Per-party CPU time per element, seconds, on the reference server
    /// core (scaled by device profiles in `spot-pipeline`).
    pub cpu_s_per_element: f64,
    /// Protocol rounds per batched invocation.
    pub rounds: u32,
}

impl OtCostModel {
    /// Cost model for DReLU + multiplex (one ReLU) over an `ell`-bit
    /// field.
    pub fn relu(ell: u32) -> Self {
        Self {
            ell,
            // Calibrated so ~800k ReLUs cost ≈0.25 s of CPU per party on
            // the reference server core (Table III: 0.18-0.34 s per layer).
            cpu_s_per_element: 3.0e-7,
            rounds: 6,
        }
    }

    /// Cost model for one Max (2-input comparison + mux), as used by
    /// max pooling.
    pub fn max(ell: u32) -> Self {
        Self {
            ell,
            cpu_s_per_element: 4.0e-7,
            rounds: 8,
        }
    }

    /// Communication in bits per element (both directions combined):
    /// millionaire comparison `λℓ/4 + 14ℓ` plus `2(λ + ℓ)` for the
    /// multiplexer OTs.
    pub fn comm_bits_per_element(&self) -> u64 {
        (LAMBDA as u64 * self.ell as u64) / 4
            + 14 * self.ell as u64
            + 2 * (LAMBDA as u64 + self.ell as u64)
    }

    /// Communication in bytes for a batch of `n` elements.
    pub fn comm_bytes(&self, n: usize) -> u64 {
        (self.comm_bits_per_element() * n as u64).div_ceil(8)
    }

    /// CPU seconds for a batch of `n` elements (per party, reference
    /// core).
    pub fn cpu_seconds(&self, n: usize) -> f64 {
        self.cpu_s_per_element * n as f64
    }
}

/// Bit width of the default plaintext field (`t ≈ 2^20` → 21 bits).
pub fn field_bits(modulus: u64) -> u32 {
    64 - modulus.leading_zeros()
}

/// Amortized per-image count of a per-batch HE operation: batching `B`
/// images into shared ciphertexts leaves the per-batch rotation and
/// key-switch counts unchanged, so each image pays `count / B`.
pub fn amortized_per_image(count: u64, batch: usize) -> f64 {
    count as f64 / batch.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_comm_reasonable() {
        let m = OtCostModel::relu(21);
        // ~1 kbit per ReLU
        let bits = m.comm_bits_per_element();
        assert!((500..2000).contains(&bits), "bits = {bits}");
        // 800k ReLUs => tens of MB, fractions of a second of CPU
        assert!(m.comm_bytes(800_000) > 10_000_000);
        let cpu = m.cpu_seconds(800_000);
        assert!((0.1..1.0).contains(&cpu), "cpu = {cpu}");
    }

    #[test]
    fn field_bits_of_default_modulus() {
        assert_eq!(field_bits(1_032_193), 20);
        assert_eq!(field_bits(1 << 20), 21);
        assert_eq!(field_bits((1 << 21) - 9), 21);
    }

    #[test]
    fn max_costs_more_than_relu() {
        assert!(OtCostModel::max(21).cpu_s_per_element > OtCostModel::relu(21).cpu_s_per_element);
    }

    #[test]
    fn amortization_divides_per_batch_work() {
        assert_eq!(amortized_per_image(100, 4), 25.0);
        assert_eq!(amortized_per_image(100, 1), 100.0);
        assert_eq!(amortized_per_image(100, 0), 100.0);
    }
}
