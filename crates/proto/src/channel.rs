//! Byte and round accounting for protocols that are cost-modelled, not
//! run, plus the link model that turns the tally into time.
//!
//! The paper's client and server talk over a LAN/WLAN link. Frames that
//! really move are counted by the transports
//! ([`crate::transport::TransportStats`]); a [`Channel`] counts the
//! bytes and communication rounds of the simulated non-linear protocols
//! so transfer time can be charged under a configurable link model.

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

/// Accumulated traffic statistics for one direction of a channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Total bytes sent.
    pub bytes: u64,
    /// Number of messages (each message is half a round trip).
    pub messages: u64,
}

/// Per-direction byte and message accounting for the simulated
/// non-linear protocols ([`crate::relu`]), which charge what the OT
/// cost model says a round moves without building its messages.
#[derive(Debug, Default)]
pub struct Channel {
    client_to_server: TrafficStats,
    server_to_client: TrafficStats,
}

impl Channel {
    /// Creates a channel with nothing charged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records abstract traffic without materialising a payload (used by
    /// the OT cost model, which never builds real OT messages).
    pub fn charge(&mut self, client_to_server_bytes: u64, server_to_client_bytes: u64) {
        if client_to_server_bytes > 0 {
            self.client_to_server.bytes += client_to_server_bytes;
            self.client_to_server.messages += 1;
        }
        if server_to_client_bytes > 0 {
            self.server_to_client.bytes += server_to_client_bytes;
            self.server_to_client.messages += 1;
        }
    }

    /// Upstream (client→server) statistics.
    pub fn upstream(&self) -> TrafficStats {
        self.client_to_server
    }

    /// Downstream (server→client) statistics.
    pub fn downstream(&self) -> TrafficStats {
        self.server_to_client
    }

    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.client_to_server.bytes + self.server_to_client.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_tracks_both_directions() {
        let mut ch = Channel::new();
        ch.charge(100, 50);
        ch.charge(10, 0);
        assert_eq!(ch.upstream().bytes, 110);
        assert_eq!(ch.downstream().bytes, 50);
        assert_eq!(ch.upstream().messages, 2);
        assert_eq!(ch.downstream().messages, 1);
        assert_eq!(ch.total_bytes(), 160);
    }

    #[test]
    fn link_model_times() {
        let lan = LinkModel::lan();
        // 125 MB at 125 MB/s = 1s + latency
        let t = lan.transfer_time(125_000_000);
        assert!((t - 1.0002).abs() < 1e-9);
        assert!(LinkModel::wlan().transfer_time(1000) > lan.transfer_time(1000));
    }
}
