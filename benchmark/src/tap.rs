//! `Tap`: a `Transport` decorator that observes one end of a connection
//! from outside — which frames cross it, how large they are, when each
//! `send`/`recv` starts and returns, and on which thread.

use crate::clock::{now_ns, thread_cpu_ns};
use spot_core::twoparty::{OP_MAXPOOL, OP_RELU};
use spot_proto::transport::{Transport, TransportStats};
use spot_proto::wire::WireMessage;
use spot_proto::ProtoError;
use std::sync::Mutex;
use std::thread::ThreadId;

/// Direction of one transport call, seen from the tapped end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Send,
    Recv,
}

/// Message kind of one transport call (`OtRound` split by its op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Setup,
    PublicKey,
    GaloisKeys,
    PackedCt,
    AuxCt,
    MaskedResult,
    OtRelu,
    OtMaxpool,
    OtOther,
    ShareReveal,
    LayerBarrier,
    Teardown,
    Error,
    ClockProbe,
    /// The call returned an error (closed pipe, malformed frame).
    Failed,
}

impl Kind {
    pub fn of(msg: &WireMessage) -> Kind {
        match msg {
            WireMessage::Setup(_) => Kind::Setup,
            WireMessage::PublicKey(_) => Kind::PublicKey,
            WireMessage::GaloisKeys(_) => Kind::GaloisKeys,
            WireMessage::PackedCt { .. } => Kind::PackedCt,
            WireMessage::AuxCt { .. } => Kind::AuxCt,
            WireMessage::MaskedResult { .. } => Kind::MaskedResult,
            WireMessage::OtRound { op: OP_RELU, .. } => Kind::OtRelu,
            WireMessage::OtRound { op: OP_MAXPOOL, .. } => Kind::OtMaxpool,
            WireMessage::OtRound { .. } => Kind::OtOther,
            WireMessage::ShareReveal { .. } => Kind::ShareReveal,
            WireMessage::LayerBarrier { .. } => Kind::LayerBarrier,
            WireMessage::Teardown => Kind::Teardown,
            WireMessage::Error { .. } => Kind::Error,
            WireMessage::ClockProbe { .. } => Kind::ClockProbe,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Setup => "Setup",
            Kind::PublicKey => "PublicKey",
            Kind::GaloisKeys => "GaloisKeys",
            Kind::PackedCt => "PackedCt",
            Kind::AuxCt => "AuxCt",
            Kind::MaskedResult => "MaskedResult",
            Kind::OtRelu => "OtRound.relu",
            Kind::OtMaxpool => "OtRound.maxpool",
            Kind::OtOther => "OtRound",
            Kind::ShareReveal => "ShareReveal",
            Kind::LayerBarrier => "LayerBarrier",
            Kind::Teardown => "Teardown",
            Kind::Error => "Error",
            Kind::ClockProbe => "ClockProbe",
            Kind::Failed => "failed",
        }
    }

    pub fn is_input_ct(self) -> bool {
        matches!(self, Kind::PackedCt | Kind::AuxCt)
    }

    pub fn is_nonlinear(self) -> bool {
        matches!(
            self,
            Kind::OtRelu | Kind::OtMaxpool | Kind::OtOther | Kind::ShareReveal
        )
    }
}

/// One observed `send` or `recv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// 0 = the thread that built the tap (the party's own thread);
    /// 1.. = threads the library spawned, in order of first use.
    pub lane: u32,
    pub dir: Dir,
    pub kind: Kind,
    pub bytes: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Log {
    lanes: Vec<ThreadId>,
    calls: Vec<Call>,
    // CPU clock of each library-spawned thread at its first and latest
    // transport call.
    side_cpu: Vec<(ThreadId, u64, u64)>,
}

/// What a tap saw over one connection.
#[derive(Debug, Default)]
pub struct TapReport {
    /// Every call in completion order (empty unless `detail`).
    pub calls: Vec<Call>,
    /// CPU time library-spawned threads spent between their first and
    /// last transport call (0 unless `side_cpu`).
    pub side_cpu_ns: u64,
}

/// Transport decorator. In the timed pass (`detail = false`) the owner
/// thread's calls go straight through; only with `side_cpu` do calls
/// from other threads read their CPU clock, which is how the client's
/// uploader threads are charged to the client. In the traced pass every
/// call is timestamped and kept.
pub struct Tap<T> {
    inner: T,
    owner: ThreadId,
    detail: bool,
    side_cpu: bool,
    log: Mutex<Log>,
}

impl<T: Transport> Tap<T> {
    /// Wraps `inner`; the calling thread becomes lane 0.
    pub fn new(inner: T, detail: bool, side_cpu: bool) -> Self {
        Self {
            inner,
            owner: std::thread::current().id(),
            detail,
            side_cpu,
            log: Mutex::new(Log::default()),
        }
    }

    pub fn report(&self) -> TapReport {
        let mut log = self.log.lock().expect("tap log lock");
        TapReport {
            calls: std::mem::take(&mut log.calls),
            side_cpu_ns: log.side_cpu.iter().map(|(_, a, b)| b - a).sum(),
        }
    }

    fn observe<R>(
        &self,
        dir: Dir,
        call: impl FnOnce() -> Result<R, ProtoError>,
        describe: impl FnOnce(&R) -> (Kind, u64),
    ) -> Result<R, ProtoError> {
        let me = std::thread::current().id();
        let side = self.side_cpu && me != self.owner;
        if !self.detail && !side {
            return call();
        }
        let cpu0 = if side { thread_cpu_ns() } else { 0 };
        let start_ns = now_ns();
        let result = call();
        let end_ns = now_ns();
        // Sizing a frame copies its payload (7 MB of Galois keys), so it
        // happens after the call's clock has stopped and outside the lock.
        let described = self.detail.then(|| match &result {
            Ok(r) => describe(r),
            Err(_) => (Kind::Failed, 0),
        });
        let mut log = self.log.lock().expect("tap log lock");
        if side {
            let cpu1 = thread_cpu_ns();
            match log.side_cpu.iter_mut().find(|(t, _, _)| *t == me) {
                Some(entry) => entry.2 = cpu1,
                None => log.side_cpu.push((me, cpu0, cpu1)),
            }
        }
        if let Some((kind, bytes)) = described {
            let lane = if me == self.owner {
                0
            } else {
                match log.lanes.iter().position(|t| *t == me) {
                    Some(i) => i as u32 + 1,
                    None => {
                        log.lanes.push(me);
                        log.lanes.len() as u32
                    }
                }
            };
            log.calls.push(Call {
                lane,
                dir,
                kind,
                bytes,
                start_ns,
                end_ns,
            });
        }
        result
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        self.observe(
            Dir::Send,
            || self.inner.send(msg),
            |()| (Kind::of(msg), msg.frame_len() as u64),
        )
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        self.observe(
            Dir::Recv,
            || self.inner.recv(),
            |msg| (Kind::of(msg), msg.frame_len() as u64),
        )
    }

    fn close_tx(&self) {
        self.inner.close_tx();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_proto::transport::MemTransport;
    use spot_proto::wire::ConvSetup;

    fn script() -> Vec<WireMessage> {
        let setup = ConvSetup {
            scheme: 2,
            mode: 1,
            level: 1,
            batch: 1,
            h: 8,
            w: 8,
            c_in: 2,
            c_out: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
            patch_h: 4,
            patch_w: 4,
            trace: 0,
        };
        vec![
            WireMessage::Setup(setup),
            WireMessage::Setup(ConvSetup { trace: 9, ..setup }),
            WireMessage::PublicKey(vec![1; 33]),
            WireMessage::GaloisKeys(vec![2; 1000]),
            WireMessage::PackedCt {
                seq: 0,
                blob: vec![3; 77],
            },
            WireMessage::AuxCt {
                class: 1,
                seq: 1,
                blob: vec![4; 78],
            },
            WireMessage::MaskedResult {
                seq: 0,
                blob: vec![5; 79],
            },
            WireMessage::OtRound {
                op: OP_RELU,
                round: 0,
                blob: vec![6; 16],
            },
            WireMessage::OtRound {
                op: OP_MAXPOOL,
                round: 1,
                blob: vec![7; 24],
            },
            WireMessage::ShareReveal { blob: vec![8; 8] },
            WireMessage::LayerBarrier { layer: 0 },
            WireMessage::ClockProbe {
                seq: 1,
                t_rx_ns: 2,
                t_tx_ns: 3,
            },
            WireMessage::Error {
                code: 3,
                detail: "why".into(),
            },
            WireMessage::Teardown,
        ]
    }

    #[test]
    fn tap_accounts_a_scripted_exchange_like_the_endpoint() {
        let (client_end, server_end) = MemTransport::pair();
        let client = Tap::new(client_end, true, true);
        let script = script();
        // The server end lives on another thread, as in a request; it
        // echoes every frame back until the client hangs up.
        let server_calls = std::thread::scope(|s| {
            let server = s.spawn(move || {
                let tap = Tap::new(server_end, true, false);
                while let Ok(msg) = tap.recv() {
                    tap.send(&msg).unwrap();
                }
                (tap.report().calls, tap.stats())
            });
            // Half the script goes out from a second client thread, the
            // way `run_client_batch` uploads.
            let (from_uploader, from_owner) = script.split_at(script.len() / 2);
            let client = &client;
            s.spawn(move || {
                for msg in from_uploader {
                    client.send(msg).unwrap();
                }
            })
            .join()
            .unwrap();
            for msg in from_owner {
                client.send(msg).unwrap();
            }
            for want in &script {
                assert_eq!(&client.recv().unwrap(), want);
            }
            client.close_tx();
            server.join().unwrap()
        });

        let report = client.report();
        let wire: u64 = script.iter().map(|m| m.frame_len() as u64).sum();
        let sum = |calls: &[Call], dir: Dir| -> (u64, u64) {
            let picked = calls
                .iter()
                .filter(|c| c.dir == dir && c.kind != Kind::Failed);
            (picked.clone().map(|c| c.bytes).sum(), picked.count() as u64)
        };
        let n = script.len() as u64;
        assert_eq!(sum(&report.calls, Dir::Send), (wire, n));
        assert_eq!(sum(&report.calls, Dir::Recv), (wire, n));
        let stats = client.stats();
        assert_eq!((stats.sent.bytes, stats.sent.messages), (wire, n));
        assert_eq!((stats.received.bytes, stats.received.messages), (wire, n));

        // Kinds in order, threads told apart, time moving forward.
        let sent: Vec<&Call> = report.calls.iter().filter(|c| c.dir == Dir::Send).collect();
        for (call, msg) in sent.iter().zip(&script) {
            assert_eq!(call.kind, Kind::of(msg));
            assert!(call.start_ns <= call.end_ns);
        }
        assert!(sent[..script.len() / 2].iter().all(|c| c.lane == 1));
        assert!(sent[script.len() / 2..].iter().all(|c| c.lane == 0));
        assert!(report.side_cpu_ns > 0, "uploader thread CPU is charged");

        // The server's tap agrees with its own endpoint and ends on the
        // failed recv that reported the hang-up.
        let (calls, stats) = server_calls;
        assert_eq!(
            sum(&calls, Dir::Recv),
            (stats.received.bytes, stats.received.messages)
        );
        assert_eq!(sum(&calls, Dir::Send), (wire, n));
        assert_eq!(calls.last().map(|c| c.kind), Some(Kind::Failed));
    }
}
