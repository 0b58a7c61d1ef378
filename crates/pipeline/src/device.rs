//! Device profiles and HE operation cost tables.
//!
//! **Substitution note (DESIGN.md §3):** the paper measures on a physical
//! Nexus 6 (Snapdragon 805), a Kinetis K27 Cortex-M4, and an AMD EPYC
//! 7413 server. We replace the testbed with calibrated cost tables: the
//! per-operation costs of our own BFV implementation at each parameter
//! level (either the embedded reference values below, aligned with the
//! paper's Table IV, or measured live by `spot_bench`'s
//! `calibrate_he_costs`), scaled by per-device CPU factors derived from
//! the paper's own cross-device measurements.

use spot_he::params::ParamLevel;
use spot_proto::channel::LinkModel;

/// Per-operation HE costs (seconds on the reference server core).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// Public-key encryption of one ciphertext.
    pub encrypt: f64,
    /// Decryption of one ciphertext.
    pub decrypt: f64,
    /// Ciphertext–plaintext SIMD multiplication.
    pub mult_plain: f64,
    /// Ciphertext addition.
    pub add: f64,
    /// Slot rotation (Galois automorphism + key switch).
    pub rotate: f64,
}

/// HE operation costs for every parameter level.
#[derive(Debug, Clone, PartialEq)]
pub struct HeCostTable {
    costs: [OpCosts; 4],
}

impl HeCostTable {
    /// The embedded reference table. `mult_plain` values are the paper's
    /// Table IV SEAL measurements (D = 4096/8192/16384: 0.14/0.7/1.5 ms);
    /// the remaining operations follow SEAL's measured ratios to Mult.
    pub fn reference() -> Self {
        Self {
            costs: [
                // N2048 (extrapolated; no rotation support)
                OpCosts {
                    encrypt: 0.0005,
                    decrypt: 0.0003,
                    mult_plain: 0.00004,
                    add: 0.000006,
                    rotate: f64::INFINITY,
                },
                // N4096
                OpCosts {
                    encrypt: 0.0015,
                    decrypt: 0.0008,
                    mult_plain: 0.00014,
                    add: 0.00002,
                    rotate: 0.0005,
                },
                // N8192
                OpCosts {
                    encrypt: 0.0050,
                    decrypt: 0.0028,
                    mult_plain: 0.0007,
                    add: 0.0001,
                    rotate: 0.0025,
                },
                // N16384
                OpCosts {
                    encrypt: 0.0160,
                    decrypt: 0.0090,
                    mult_plain: 0.0015,
                    add: 0.00032,
                    rotate: 0.0110,
                },
            ],
        }
    }

    /// Builds a table from explicit per-level costs (smallest level
    /// first). Used by live calibration in `spot-bench`.
    pub fn from_costs(costs: [OpCosts; 4]) -> Self {
        Self { costs }
    }

    /// Costs at a parameter level.
    pub fn at(&self, level: ParamLevel) -> OpCosts {
        let idx = match level {
            ParamLevel::N2048 => 0,
            ParamLevel::N4096 => 1,
            ParamLevel::N8192 => 2,
            ParamLevel::N16384 => 3,
        };
        self.costs[idx]
    }
}

impl Default for HeCostTable {
    fn default() -> Self {
        Self::reference()
    }
}

/// A device profile: a CPU scale factor relative to the reference server
/// core, a memory budget, and a thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Display name.
    pub name: &'static str,
    /// CPU slowdown factor vs the reference server core (1.0 = server).
    pub cpu_scale: f64,
    /// Memory available for HE working state, bytes.
    pub mem_budget_bytes: usize,
    /// Memory permanently consumed by resident key material and runtime
    /// overhead, bytes (the paper: keys ≈ 80.23 MB + ~10 MB overhead on
    /// Nexus 6).
    pub resident_bytes: usize,
    /// Usable worker threads.
    pub threads: usize,
    /// The network link this device reaches the server over.
    pub link: LinkModel,
}

impl DeviceProfile {
    /// The evaluation server: AMD EPYC 7413, 2.65 GHz, 64 GB — the
    /// reference core, many threads.
    pub fn server_epyc() -> Self {
        Self {
            name: "EPYC server",
            cpu_scale: 1.0,
            mem_budget_bytes: 64 << 30,
            resident_bytes: 0,
            threads: 16,
            link: LinkModel::lan(),
        }
    }

    /// A desktop client: comparable clock to the server, abundant memory.
    pub fn desktop_client() -> Self {
        Self {
            name: "Desktop client",
            cpu_scale: 1.1,
            mem_budget_bytes: 16 << 30,
            resident_bytes: 256 << 20,
            threads: 8,
            link: LinkModel::lan(),
        }
    }

    /// Google Nexus 6 (Snapdragon 805, 2.7 GHz): ~100 MB per-app budget,
    /// ≈90 MB of it held by keys + runtime.
    pub fn nexus6() -> Self {
        Self {
            name: "Nexus 6",
            // Derived from the paper's Table III: ~0.34 s client-side
            // encryption per D=16384 ciphertext on the Snapdragon 805 vs
            // ~16 ms on the EPYC reference core (mobile HE runtimes lack
            // AVX/NTT tuning; the gap far exceeds the clock ratio).
            cpu_scale: 13.0,
            mem_budget_bytes: 100 << 20,
            resident_bytes: 90 << 20,
            threads: 2,
            link: LinkModel::wlan(),
        }
    }

    /// Kinetis K27 microcontroller (Cortex-M4, 1 MB SRAM, keys streamed
    /// from flash/SD): holds at most one ciphertext of working state.
    pub fn iot_k27() -> Self {
        Self {
            name: "IoT controller",
            cpu_scale: 15.0,
            mem_budget_bytes: 1 << 20,
            resident_bytes: 512 << 10,
            threads: 1,
            link: LinkModel::wlan(),
        }
    }

    /// Maximum ciphertexts of the given serialized size this device can
    /// hold simultaneously (at least 1 — streaming a single ciphertext
    /// through SRAM is always assumed possible).
    pub fn ciphertext_capacity(&self, ciphertext_bytes: usize) -> usize {
        let free = self.mem_budget_bytes.saturating_sub(self.resident_bytes);
        (free / ciphertext_bytes.max(1)).max(1)
    }

    /// Scales a reference-core duration to this device.
    pub fn scale(&self, reference_seconds: f64) -> f64 {
        reference_seconds * self.cpu_scale
    }

    /// Returns a copy with an overridden ciphertext capacity, expressed
    /// by adjusting the memory budget (used by Table I's 1/2/3-ciphertext
    /// scenarios).
    pub fn with_capacity(&self, capacity: usize, ciphertext_bytes: usize) -> Self {
        let mut d = self.clone();
        d.resident_bytes = 0;
        d.mem_budget_bytes = capacity * ciphertext_bytes;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_table4_mult() {
        let t = HeCostTable::reference();
        assert_eq!(t.at(ParamLevel::N4096).mult_plain, 0.00014);
        assert_eq!(t.at(ParamLevel::N8192).mult_plain, 0.0007);
        assert_eq!(t.at(ParamLevel::N16384).mult_plain, 0.0015);
    }

    #[test]
    fn smaller_levels_are_cheaper() {
        let t = HeCostTable::reference();
        for pair in ParamLevel::ALL.windows(2) {
            let small = t.at(pair[0]);
            let big = t.at(pair[1]);
            assert!(small.encrypt < big.encrypt);
            assert!(small.mult_plain < big.mult_plain);
            assert!(small.add < big.add);
        }
    }

    #[test]
    fn nexus_capacity_is_tiny() {
        let d = DeviceProfile::nexus6();
        // ~10 MB free; at N=16384 (~790 KB/ct) that is a handful of cts.
        let cap = d.ciphertext_capacity(789_617);
        assert!((1..=16).contains(&cap), "cap = {cap}");
        // Desktop fits thousands.
        assert!(DeviceProfile::desktop_client().ciphertext_capacity(789_617) > 1000);
    }

    #[test]
    fn iot_capacity_is_one_for_large_cts() {
        let d = DeviceProfile::iot_k27();
        assert_eq!(d.ciphertext_capacity(789_617), 1);
        assert_eq!(d.ciphertext_capacity(4 << 20), 1); // still at least 1
    }

    #[test]
    fn capacity_override() {
        let d = DeviceProfile::nexus6().with_capacity(3, 500_000);
        assert_eq!(d.ciphertext_capacity(500_000), 3);
    }

    #[test]
    fn scaling() {
        let d = DeviceProfile::nexus6();
        assert!((d.scale(2.0) - 2.0 * d.cpu_scale).abs() < 1e-12);
        assert!(d.cpu_scale > DeviceProfile::desktop_client().cpu_scale);
        assert!(DeviceProfile::iot_k27().cpu_scale >= d.cpu_scale);
    }
}
