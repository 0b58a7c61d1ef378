//! Cross-transport determinism: one secure-convolution session run
//! over an in-memory `MemTransport` pair and over a real TCP loopback
//! socket must produce bit-identical client/server shares, operation
//! counts, and framed traffic accounting — for every scheme, both
//! execution backends, at 1 and 8 server worker threads. A whole
//! two-layer TinyCnn connection (rotation keys uploaded once, topped up
//! by the second layer) must in addition move the very same frames in
//! both directions whatever carries it and however many threads serve
//! it.

mod common;

use common::tcp_pair;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv_with, ClientConv, ExecBackend, LayerSpec, SchemeKind, ServeOptions, UploadPacing,
};
use spot_core::stream::StreamConfig;
use spot_core::twoparty::{run_client_batch, run_server_with};
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::channel::TrafficStats;
use spot_proto::transport::{MemTransport, Transport, TransportStats};
use spot_proto::{ProtoError, WireMessage};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::{Arc, Mutex};

const CLIENT_SEED: u64 = 71;
const SERVER_SEED: u64 = 1312;

/// Everything a session run produces that must not depend on the
/// transport carrying it.
#[derive(Debug)]
struct Outcome {
    client_share: Tensor,
    server_share: Tensor,
    input_cts: usize,
    output_cts: usize,
    rotations: u64,
    client_up: TrafficStats,
    client_down: TrafficStats,
}

fn run_session(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
    client_t: &dyn Transport,
    server_t: &dyn Transport,
) -> Outcome {
    let mut crng = StdRng::seed_from_u64(CLIENT_SEED);
    let keygen = KeyGenerator::new(ctx, &mut crng);
    let conv = ClientConv::new(ctx, &keygen, spec).expect("plan");
    let (share, summary) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            conv.send_all(client_t, input, UploadPacing::Eager, &mut crng)
                .expect("send_all");
            conv.absorb_all(client_t).expect("absorb_all")
        });
        let mut srng = StdRng::seed_from_u64(SERVER_SEED);
        let summary = serve_conv_with(
            ctx,
            server_t,
            kernel,
            backend,
            ServeOptions::default(),
            &mut srng,
        )
        .expect("serve_conv");
        (client.join().expect("client thread"), summary)
    });
    let stats = client_t.stats();
    Outcome {
        client_share: share.share,
        server_share: summary.server_share,
        input_cts: summary.input_cts,
        output_cts: summary.output_cts,
        rotations: summary.counts.rotate,
        client_up: stats.sent,
        client_down: stats.received,
    }
}

fn run_mem(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
) -> Outcome {
    let (client_t, server_t) = MemTransport::pair();
    run_session(ctx, spec, kernel, input, backend, &client_t, &server_t)
}

fn run_tcp(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
) -> Outcome {
    let (client_t, server_t) = tcp_pair();
    run_session(ctx, spec, kernel, input, backend, &client_t, &server_t)
}

fn assert_transport_invariant(scheme: SchemeKind, backend: &ExecBackend, tag: &str) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let spec = LayerSpec {
        scheme,
        shape: ConvShape::new(8, 8, 3, 2, 3, 1),
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    };
    let input = Tensor::random(3, 8, 8, 6, 23);
    let kernel = Kernel::random(2, 3, 3, 3, 3, 24);

    let mem = run_mem(&ctx, spec, &kernel, &input, backend);
    let tcp = run_tcp(&ctx, spec, &kernel, &input, backend);

    assert_eq!(
        mem.client_share, tcp.client_share,
        "{tag}: client share differs Mem vs Tcp"
    );
    assert_eq!(
        mem.server_share, tcp.server_share,
        "{tag}: server share differs Mem vs Tcp"
    );
    assert_eq!(mem.input_cts, tcp.input_cts, "{tag}: input cts differ");
    assert_eq!(mem.output_cts, tcp.output_cts, "{tag}: output cts differ");
    assert_eq!(
        mem.rotations, tcp.rotations,
        "{tag}: rotation count differs"
    );
    assert_eq!(
        (mem.client_up.bytes, mem.client_up.messages),
        (tcp.client_up.bytes, tcp.client_up.messages),
        "{tag}: uplink traffic differs"
    );
    assert_eq!(
        (mem.client_down.bytes, mem.client_down.messages),
        (tcp.client_down.bytes, tcp.client_down.messages),
        "{tag}: downlink traffic differs"
    );

    // The shares reconstruct: same plaintext conv both ways, so the
    // invariant is not vacuously comparing garbage.
    assert_eq!(
        (
            mem.client_share.channels(),
            mem.client_share.height(),
            mem.client_share.width()
        ),
        (
            mem.server_share.channels(),
            mem.server_share.height(),
            mem.server_share.width()
        ),
        "{tag}: share shape mismatch"
    );
}

fn all_backends(threads: usize) -> Vec<(ExecBackend, String)> {
    vec![
        (
            ExecBackend::Phased(Executor::new(threads)),
            format!("phased/{threads}t"),
        ),
        (
            ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), 2)),
            format!("streaming/{threads}t"),
        ),
    ]
}

#[test]
fn mem_and_tcp_agree_single_thread() {
    for scheme in [
        SchemeKind::Spot,
        SchemeKind::Channelwise,
        SchemeKind::Cheetah,
    ] {
        for (backend, name) in all_backends(1) {
            assert_transport_invariant(scheme, &backend, &format!("{scheme:?}/{name}"));
        }
    }
}

#[test]
fn mem_and_tcp_agree_eight_threads() {
    for scheme in [
        SchemeKind::Spot,
        SchemeKind::Channelwise,
        SchemeKind::Cheetah,
    ] {
        for (backend, name) in all_backends(8) {
            assert_transport_invariant(scheme, &backend, &format!("{scheme:?}/{name}"));
        }
    }
}

/// A client endpoint that folds every frame it moves into a running
/// FNV-1a-64 digest per direction, so two connections can be compared
/// byte for byte.
struct Digesting<'a> {
    inner: &'a dyn Transport,
    up: Mutex<u64>,
    down: Mutex<u64>,
}

impl<'a> Digesting<'a> {
    fn new(inner: &'a dyn Transport) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        Self {
            inner,
            up: Mutex::new(FNV_OFFSET),
            down: Mutex::new(FNV_OFFSET),
        }
    }

    fn fold(digest: &Mutex<u64>, msg: &WireMessage) {
        let mut h = digest.lock().unwrap();
        for b in msg.encode_frame() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Transport for Digesting<'_> {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        Self::fold(&self.up, msg);
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        let msg = self.inner.recv()?;
        Self::fold(&self.down, &msg);
        Ok(msg)
    }

    fn close_tx(&self) {
        self.inner.close_tx();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// Everything a two-layer connection produces: the revealed output,
/// both directions' frame digests and counts, and the server's merged
/// operation counts.
#[derive(Debug, PartialEq, Eq)]
struct Connection {
    output: Tensor,
    up: (u64, u64, u64),
    down: (u64, u64, u64),
    rotations: u64,
    input_cts: usize,
    output_cts: usize,
}

fn run_connection(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    input: &Tensor,
    backend: &ExecBackend,
    client_t: &dyn Transport,
    server_t: &dyn Transport,
) -> Connection {
    let mut crng = StdRng::seed_from_u64(CLIENT_SEED);
    let keygen = KeyGenerator::new(ctx, &mut crng);
    let client_t = Digesting::new(client_t);
    let (outputs, report) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut srng = StdRng::seed_from_u64(SERVER_SEED);
            run_server_with(
                ctx,
                server_t,
                cnn,
                backend,
                ServeOptions::default(),
                &mut srng,
            )
            .expect("run_server")
        });
        let outputs = run_client_batch(
            ctx,
            &keygen,
            &client_t,
            std::slice::from_ref(input),
            cnn,
            SchemeKind::Spot,
            (4, 4),
            PatchMode::Tweaked,
            &mut crng,
        )
        .expect("run_client_batch");
        (outputs, server.join().expect("server thread"))
    });
    let stats = client_t.stats();
    let (up, down) = (*client_t.up.lock().unwrap(), *client_t.down.lock().unwrap());
    Connection {
        output: outputs.into_iter().next().expect("one image"),
        up: (up, stats.sent.bytes, stats.sent.messages),
        down: (down, stats.received.bytes, stats.received.messages),
        rotations: report.counts.rotate,
        input_cts: report.input_cts,
        output_cts: report.output_cts,
    }
}

/// The two-layer connection is one byte stream each way: Mem or TCP,
/// phased or streamed, 1 or 8 server threads.
#[test]
fn two_layer_connection_is_transport_and_thread_invariant() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let cnn = TinyCnn::new(7);
    let input = Tensor::random(2, 8, 8, 5, 25);

    let (client_t, server_t) = MemTransport::pair();
    let (reference_backend, _) = all_backends(1).remove(0);
    let want = run_connection(&ctx, &cnn, &input, &reference_backend, &client_t, &server_t);
    assert_eq!(want.output, cnn.forward_plain(&input));

    for threads in [1, 8] {
        for (backend, name) in all_backends(threads) {
            let (client_t, server_t) = MemTransport::pair();
            let mem = run_connection(&ctx, &cnn, &input, &backend, &client_t, &server_t);
            assert_eq!(mem, want, "mem/{name}");

            let (client_t, server_t) = tcp_pair();
            let tcp = run_connection(&ctx, &cnn, &input, &backend, &client_t, &server_t);
            assert_eq!(tcp, want, "tcp/{name}");
        }
    }
}
