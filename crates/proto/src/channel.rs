//! The link model that turns a byte tally into time, and the
//! per-direction tally itself.
//!
//! The paper's client and server talk over a LAN/WLAN link. Frames that
//! really move are counted by the transports
//! ([`crate::transport::TransportStats`], one [`TrafficStats`] per
//! direction); a [`LinkModel`] charges transfer time for them.

/// A simple link model: fixed per-message latency plus bandwidth-limited
/// transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkModel {
    /// A gigabit LAN (0.2 ms latency, 125 MB/s).
    pub fn lan() -> Self {
        Self {
            latency_s: 0.0002,
            bandwidth_bps: 125e6,
        }
    }

    /// A WLAN link (2 ms latency, 50 MB/s — 802.11ac-class) — the regime
    /// of the paper's Nexus 6 / IoT clients.
    pub fn wlan() -> Self {
        Self {
            latency_s: 0.002,
            bandwidth_bps: 50e6,
        }
    }

    /// Transfer time for a message of `bytes` bytes.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Accumulated traffic statistics for one direction of a link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total bytes sent.
    pub bytes: u64,
    /// Number of messages (each message is half a round trip).
    pub messages: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_model_times() {
        let lan = LinkModel::lan();
        // 125 MB at 125 MB/s = 1s + latency
        let t = lan.transfer_time(125_000_000);
        assert!((t - 1.0002).abs() < 1e-9);
        assert!(LinkModel::wlan().transfer_time(1000) > lan.transfer_time(1000));
    }
}
