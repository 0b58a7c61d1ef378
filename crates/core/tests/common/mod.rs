//! Helpers shared by the integration tests of this crate. Each test
//! binary uses the ones it needs.
#![allow(dead_code)]

use spot_core::inference::{Op, TinyCnn};
use spot_core::patching::PatchMode;
use spot_core::session::{ClientConv, Frame, LayerSpec, SchemeKind};
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_proto::transport::TcpTransport;
use spot_tensor::tensor::Tensor;
use std::collections::HashSet;
use std::net::TcpListener;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// A connected `(client, server)` pair of framed TCP endpoints on
/// loopback.
pub fn tcp_pair() -> (TcpTransport, TcpTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let accept = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        TcpTransport::from_stream(stream).expect("server transport")
    });
    let client_t = TcpTransport::connect(addr.to_string()).expect("connect loopback");
    (client_t, accept.join().expect("accept thread"))
}

/// A misbehaving peer must end in a typed error and a deadlock must
/// fail the suite, never hang it: kills the test binary if `scenario`
/// is still running at the deadline.
pub fn within_deadline<T>(what: &str, scenario: impl FnOnce() -> T) -> T {
    const DEADLINE: Duration = Duration::from_secs(120);
    let (done, watch) = mpsc::channel::<()>();
    let what = what.to_string();
    let watchdog = std::thread::spawn(move || {
        if watch.recv_timeout(DEADLINE) == Err(RecvTimeoutError::Timeout) {
            eprintln!("{what}: still running after {DEADLINE:?}");
            std::process::abort();
        }
    });
    let out = scenario();
    drop(done);
    watchdog.join().expect("watchdog");
    out
}

/// The key frames each convolution of `cnn` uploads on a fresh SPOT
/// connection (4×4 tweaked patches, as every suite here drives it) fed
/// an input of `input`'s size: per convolution, `(input ciphertext the
/// frame travels behind, Galois element)` in send order. Taken from the
/// client's own schedule, so a test that addresses a key frame by what
/// it carries or where it stands follows a schedule change by itself.
pub fn key_streams(
    ctx: &Arc<Context>,
    kg: &KeyGenerator,
    cnn: &TinyCnn,
    input: &Tensor,
) -> Vec<Vec<(usize, usize)>> {
    let mut held = HashSet::new();
    let mut streams = Vec::new();
    let mut x = input.clone();
    for op in cnn.ops() {
        if let Op::Conv { kernel, stride } = op {
            let spec = LayerSpec::for_layer(
                SchemeKind::Spot,
                &x,
                kernel,
                *stride,
                (4, 4),
                PatchMode::Tweaked,
            );
            let layer = ClientConv::new(ctx, kg, spec).expect("client plan");
            // Each key frame with the input it travels behind.
            let mut behind = 0;
            let schedule = layer.schedule(1).expect("schedule");
            let fresh = schedule.uplink.into_iter().filter_map(|frame| match frame {
                Frame::Input { seq, .. } => {
                    behind = seq as usize;
                    None
                }
                Frame::Key(g) => held.insert(g).then_some((behind, g)),
                _ => None,
            });
            streams.push(fresh.collect());
        }
        x = op.apply(x);
    }
    streams
}
