//! Multi-tenant serving acceptance tests.
//!
//! 1. **Concurrency is invisible in the shares** — a client served as
//!    one of N ≥ 8 concurrent sessions sharing one [`SharedKernelCaches`]
//!    produces client and server shares bit-identical to the same
//!    client served alone with private caches, over both `MemTransport`
//!    and framed TCP, with cross-image batching active inside each
//!    session.
//! 2. **Kernel caches build once per model** — across N concurrent
//!    full-pipeline sessions through a [`SpotServer`], the summed
//!    `KernelCacheBuild` counter equals a solo session's builds and
//!    every later session hits.
//! 3. **Batch width is invisible in a connection's keys** — a two-layer
//!    connection uploads bit-identical rotation-key frames (the first
//!    layer's keys, then the one the second layer adds) at B=1 and B=2,
//!    and every image gets the output it gets alone.
//! 4. **Every session reports its stall** — phased or streamed, a
//!    session runs the one stream driver and its report holds what it
//!    ingested and how long its workers waited, key wait included.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::serving::{session_seed, ModelContext, ServingConfig, SpotServer};
use spot_core::session::{
    serve_conv_with, ClientConv, ExecBackend, LayerSpec, SchemeKind, ServeOptions,
    SharedKernelCaches, UploadPacing,
};
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, TcpTransport, TransportStats};
use spot_proto::{ProtoError, Transport, WireMessage};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::Counter;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

const SESSIONS: usize = 8;

fn test_spec(scheme: SchemeKind) -> LayerSpec {
    LayerSpec {
        scheme,
        shape: ConvShape {
            width: 8,
            height: 8,
            c_in: 2,
            c_out: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
        },
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    }
}

fn test_kernel() -> Kernel {
    Kernel::random(4, 2, 3, 3, 3, 41)
}

/// Per-client inputs: a 2-image batch so cross-image SIMD batching is
/// active inside every session.
fn client_inputs(client: usize) -> Vec<Tensor> {
    (0..2u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 500 + 10 * client as u64 + b))
        .collect()
}

/// One full conv session (upload, serve, absorb) over the given
/// transport halves; returns (client shares, server shares).
fn run_session(
    ctx: &Arc<Context>,
    client: usize,
    spec: LayerSpec,
    kernel: &Kernel,
    transports: (&dyn spot_proto::Transport, &dyn spot_proto::Transport),
    server_seed: u64,
    opts: ServeOptions<'_>,
) -> (Vec<Tensor>, Vec<Tensor>) {
    let (ct, st) = transports;
    let inputs = client_inputs(client);
    let mut keyrng = StdRng::seed_from_u64(9000 + client as u64);
    let kg = KeyGenerator::new(ctx, &mut keyrng);
    let conv = ClientConv::new(ctx, &kg, spec).expect("client conv");
    let mut crng = StdRng::seed_from_u64(777 + client as u64);
    let (shares, summary) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut srng = StdRng::seed_from_u64(server_seed);
            let backend = ExecBackend::Phased(Executor::serial());
            serve_conv_with(ctx, st, kernel, &backend, opts, &mut srng).expect("serve")
        });
        conv.send_batch(ct, &inputs, UploadPacing::Eager, &mut crng)
            .expect("upload");
        let shares = conv.absorb_batch(ct, inputs.len()).expect("absorb");
        (shares, server.join().expect("server thread"))
    });
    let mut server_shares = vec![summary.server_share];
    server_shares.extend(summary.extra_shares);
    (shares.shares, server_shares)
}

/// N concurrent sessions over `MemTransport`, all feeding one shared
/// kernel cache, must produce shares bit-identical to each client's
/// solo run with private caches and the same derived seed.
#[test]
fn concurrent_mem_sessions_match_solo_shares() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let kernel = test_kernel();
    let spec = test_spec(SchemeKind::Spot);
    let shared = SharedKernelCaches::new();

    let concurrent: Vec<(Vec<Tensor>, Vec<Tensor>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|client| {
                let ctx = Arc::clone(&ctx);
                let kernel = &kernel;
                let shared = &shared;
                s.spawn(move || {
                    let (ct, st) = MemTransport::pair();
                    run_session(
                        &ctx,
                        client,
                        spec,
                        kernel,
                        (&ct, &st),
                        session_seed(1312, client as u64),
                        ServeOptions {
                            shared: Some(shared),
                            max_batch: None,
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    assert!(shared.total_entries() > 0, "shared caches never populated");

    for (client, concurrent_shares) in concurrent.iter().enumerate() {
        let (ct, st) = MemTransport::pair();
        let solo = run_session(
            &ctx,
            client,
            spec,
            &kernel,
            (&ct, &st),
            session_seed(1312, client as u64),
            ServeOptions::default(),
        );
        assert_eq!(
            *concurrent_shares, solo,
            "client {client}: concurrent shares diverge from solo run"
        );
    }
}

/// The same bit-identity holds when the N concurrent sessions run over
/// framed TCP on loopback.
#[test]
fn concurrent_tcp_sessions_match_solo_shares() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let kernel = test_kernel();
    let spec = test_spec(SchemeKind::Spot);
    let shared = SharedKernelCaches::new();
    // Accept order is racy under concurrent connects, so every session
    // uses the same server seed; solo baselines reuse it below.
    let server_seed = 1312u64;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let concurrent: Vec<(usize, Vec<Tensor>)> = std::thread::scope(|s| {
        let acceptor = s.spawn(|| {
            let mut served = Vec::new();
            std::thread::scope(|inner| {
                let mut sessions = Vec::new();
                for _ in 0..SESSIONS {
                    let (stream, _) = listener.accept().expect("accept");
                    let ctx = Arc::clone(&ctx);
                    let kernel = &kernel;
                    let shared = &shared;
                    sessions.push(inner.spawn(move || {
                        let st = TcpTransport::from_stream(stream).expect("wrap");
                        let mut srng = StdRng::seed_from_u64(server_seed);
                        let backend = ExecBackend::Phased(Executor::serial());
                        let summary = serve_conv_with(
                            &ctx,
                            &st,
                            kernel,
                            &backend,
                            ServeOptions {
                                shared: Some(shared),
                                max_batch: None,
                            },
                            &mut srng,
                        )
                        .expect("serve");
                        let mut server_shares = vec![summary.server_share];
                        server_shares.extend(summary.extra_shares);
                        server_shares
                    }));
                }
                for h in sessions {
                    served.push(h.join().expect("tcp session"));
                }
            });
            served
        });

        let clients: Vec<_> = (0..SESSIONS)
            .map(|client| {
                let ctx = Arc::clone(&ctx);
                s.spawn(move || {
                    let ct = TcpTransport::connect(addr.to_string()).expect("connect");
                    let inputs = client_inputs(client);
                    let mut keyrng = StdRng::seed_from_u64(9000 + client as u64);
                    let kg = KeyGenerator::new(&ctx, &mut keyrng);
                    let conv = ClientConv::new(&ctx, &kg, spec).expect("client conv");
                    let mut crng = StdRng::seed_from_u64(777 + client as u64);
                    conv.send_batch(&ct, &inputs, UploadPacing::Eager, &mut crng)
                        .expect("upload");
                    let shares = conv.absorb_batch(&ct, inputs.len()).expect("absorb");
                    (client, shares.shares)
                })
            })
            .collect();
        let client_shares: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        acceptor.join().expect("acceptor");
        client_shares
    });

    for (client, tcp_shares) in &concurrent {
        let (ct, st) = MemTransport::pair();
        let (solo_client_shares, _) = run_session(
            &ctx,
            *client,
            spec,
            &kernel,
            (&ct, &st),
            server_seed,
            ServeOptions::default(),
        );
        assert_eq!(
            *tcp_shares, solo_client_shares,
            "client {client}: TCP concurrent shares diverge from solo Mem run"
        );
    }
}

/// Full-pipeline sessions through the [`SpotServer`]: every concurrent
/// client reconstructs the plaintext forward pass, kernel caches are
/// built once per model (not once per session), and the admission
/// counters stay clean.
#[test]
fn spot_server_builds_kernel_caches_once_per_model() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let cnn = TinyCnn::new(7);

    // Solo baseline: how many cache builds does one session cost?
    let solo_builds = {
        let model = ModelContext::new("tinycnn-solo", Arc::clone(&ctx), cnn.clone());
        let server = SpotServer::new(model, ServingConfig::default());
        assert!(serve_one_mem_client(&server, &ctx, &cnn, 0));
        let builds = server.model().caches().total_entries();
        assert!(builds > 0, "solo session built no kernels");
        builds
    };

    let model = ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone());
    let server = SpotServer::new(
        model,
        ServingConfig {
            max_sessions: SESSIONS,
            pool_workers: 2,
            ..ServingConfig::default()
        },
    );

    let reports: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|client| {
                let server = &server;
                let ctx = Arc::clone(&ctx);
                let cnn = &cnn;
                s.spawn(move || {
                    let (ct, st) = MemTransport::pair();
                    let (ok, counters) = std::thread::scope(|inner| {
                        let session = inner.spawn(|| {
                            let report = server.serve_connection(&st);
                            report.result.as_ref().expect("session result");
                            report.counters
                        });
                        let ok = mem_client_matches(&ctx, cnn, &ct, client);
                        (ok, session.join().expect("session thread"))
                    });
                    assert!(ok, "client {client} output mismatch");
                    (
                        counters.get(Counter::KernelCacheBuild),
                        counters.get(Counter::KernelCacheHit),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let total_builds: u64 = reports.iter().map(|(b, _)| b).sum();
    let total_hits: u64 = reports.iter().map(|(_, h)| h).sum();
    assert_eq!(
        total_builds as usize, solo_builds,
        "kernel caches were rebuilt across sessions"
    );
    assert!(
        total_hits >= total_builds * (SESSIONS as u64 - 1),
        "later sessions did not hit the shared cache (hits {total_hits}, builds {total_builds})"
    );
    let stats = server.stats();
    assert_eq!(
        (stats.served, stats.failed, stats.rejected),
        (SESSIONS, 0, 0)
    );
}

/// Runs one full-pipeline client against `server` over a fresh
/// `MemTransport` pair; returns whether the output matched plain.
fn serve_one_mem_client(
    server: &SpotServer,
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    client: usize,
) -> bool {
    let (ct, st) = MemTransport::pair();
    std::thread::scope(|s| {
        let session = s.spawn(|| {
            let report = server.serve_connection(&st);
            report.result.as_ref().expect("session result");
        });
        let ok = mem_client_matches(ctx, cnn, &ct, client);
        session.join().expect("session thread");
        ok
    })
}

/// Full-pipeline client run over an existing transport; true when the
/// reconstructed output equals the plaintext forward pass.
fn mem_client_matches(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    transport: &MemTransport,
    client: usize,
) -> bool {
    let input = Tensor::random(2, 8, 8, 5, 300 + client as u64);
    let want = cnn.forward_plain(&input);
    let mut rng = StdRng::seed_from_u64(99 + client as u64);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let out = spot_core::twoparty::run_client_batch(
        ctx,
        &kg,
        transport,
        std::slice::from_ref(&input),
        cnn,
        SchemeKind::Spot,
        (4, 4),
        PatchMode::Tweaked,
        &mut rng,
    )
    .expect("client run");
    out[0] == want
}

/// A client endpoint that keeps the rotation-key blobs it sends.
struct KeyFrames<'a> {
    inner: &'a MemTransport,
    blobs: Mutex<Vec<Vec<u8>>>,
}

impl Transport for KeyFrames<'_> {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        if let WireMessage::GaloisKeys(blob) = msg {
            self.blobs.lock().unwrap().push(blob.clone());
        }
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        self.inner.recv()
    }

    fn close_tx(&self) {
        self.inner.close_tx();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// One connection of a whole batch through the [`SpotServer`]; returns
/// the per-image outputs and the key frames the client uploaded.
fn batched_connection(
    server: &SpotServer,
    kg: &KeyGenerator,
    inputs: &[Tensor],
) -> (Vec<Tensor>, Vec<Vec<u8>>) {
    let (ct, st) = MemTransport::pair();
    let client_t = KeyFrames {
        inner: &ct,
        blobs: Mutex::default(),
    };
    let outputs = std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&st));
        let outputs = spot_core::twoparty::run_client_batch(
            server.model().context(),
            kg,
            &client_t,
            inputs,
            server.model().cnn(),
            SchemeKind::Spot,
            (4, 4),
            PatchMode::Tweaked,
            &mut StdRng::seed_from_u64(611),
        )
        .expect("client run");
        let report = session.join().expect("session thread");
        report.result.expect("session result");
        outputs
    });
    (outputs, client_t.blobs.into_inner().unwrap())
}

/// Slot batching shares the ciphertexts, so a B=2 connection draws the
/// client rng exactly as a B=1 connection does: every key frame is
/// bit-identical, each holds one key — as many as the client's schedule
/// lists for conv1 and for what conv2 adds — and every image's output is
/// the one it gets alone.
#[test]
fn two_layer_keys_and_outputs_are_batch_width_invariant() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let cnn = TinyCnn::new(7);
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(610));
    let inputs: Vec<Tensor> = (0..2u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 620 + b))
        .collect();

    let (both, keys_b2) = batched_connection(&server, &kg, &inputs);
    let key_bytes = ctx.params().galois_key_bytes();
    let frame_lens: Vec<usize> = keys_b2.iter().map(Vec::len).collect();
    let scheduled: usize = (common::key_streams(&ctx, &kg, &cnn, &inputs[0]).iter())
        .map(Vec::len)
        .sum();
    assert!(scheduled > 1, "both convolutions upload keys");
    assert_eq!(frame_lens, vec![4 + key_bytes; scheduled]);
    for (b, input) in inputs.iter().enumerate() {
        let (alone, keys_b1) = batched_connection(&server, &kg, std::slice::from_ref(input));
        assert_eq!(alone[0], both[b], "image {b}: B=2 output differs from B=1");
        assert_eq!(alone[0], cnn.forward_plain(input), "image {b}");
        assert_eq!(keys_b1, keys_b2, "image {b}: key frames differ B=1 vs B=2");
    }
}

/// `streaming` only bounds the read-ahead: a phased TinyCnn session runs
/// the same stream driver as a streamed one, so each reports its stall
/// in its [`spot_core::twoparty::ServerReport`]: `input_items` are the
/// input ciphertexts the session's two convolutions ingested, and the
/// wait for rotation keys is part of the workers' idle time.
#[test]
fn phased_and_streamed_sessions_each_report_their_stall() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let cnn = TinyCnn::new(7);
    for streaming in [false, true] {
        let server = SpotServer::new(
            ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
            ServingConfig {
                streaming,
                ..ServingConfig::default()
            },
        );
        let (ct, st) = MemTransport::pair();
        let report = std::thread::scope(|s| {
            let session = s.spawn(|| server.serve_connection(&st));
            assert!(
                mem_client_matches(&ctx, &cnn, &ct, 0),
                "streaming: {streaming}"
            );
            session.join().expect("session thread")
        });
        let served = report.result.expect("session result");
        let stream = &served.stream;
        assert_eq!(
            stream.input_items, served.input_cts,
            "streaming: {streaming}"
        );
        assert!(stream.server_busy_s > 0.0, "streaming: {streaming}");
        assert!(
            (0.0..=stream.server_idle_s).contains(&stream.key_wait_s),
            "streaming: {streaming}: key wait {} of idle {}",
            stream.key_wait_s,
            stream.server_idle_s
        );
    }
}
