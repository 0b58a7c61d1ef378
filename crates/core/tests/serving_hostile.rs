//! Hostile-input containment tests for the serving layer: a
//! misbehaving client must fail **its own session only** — typed
//! rejection on the wire, clean accounting, and byte-identical service
//! for every well-behaved neighbor.

mod common;

use common::{key_streams, tcp_pair, within_deadline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::error::SpotError;
use spot_core::executor::Executor;
use spot_core::inference::{Op, TinyCnn};
use spot_core::patching::PatchMode;
use spot_core::serving::{ModelContext, ServingConfig, SessionReport, SpotServer};
use spot_core::session::{
    serve_conv_with, ClientConv, ExecBackend, LayerSpec, SchemeKind, ServeOptions, UploadPacing,
    MAX_CACHED_SPECS,
};
use spot_core::twoparty::{run_client_batch, OP_MAXPOOL, OP_RELU};
use spot_he::ciphertext::{Ciphertext, SparseCiphertext};
use spot_he::context::Context;
use spot_he::encoding::BatchEncoder;
use spot_he::encryptor::SymmetricEncryptor;
use spot_he::keys::KeyGenerator;
use spot_he::modswitch::ModSwitch;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_he::poly::{Poly, PolyForm};
use spot_he::serial::{galois_keys_from_bytes, galois_keys_to_bytes, SerialError};
use spot_proto::transport::{MemTransport, TcpTransport, TransportStats};
use spot_proto::{error_code, ConvSetup, ProtoError, Transport, WireMessage};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::Counter;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn test_stack() -> (Arc<Context>, TinyCnn) {
    (
        Context::new(EncryptionParams::new(ParamLevel::N4096)),
        TinyCnn::new(7),
    )
}

/// Full-pipeline client over `transport` on the model's own 8×8 input;
/// returns the outputs and the client-side transport accounting.
fn well_behaved_client(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    transport: &dyn Transport,
    client: usize,
) -> (Vec<Tensor>, TransportStats) {
    let input = Tensor::random(2, 8, 8, 5, 300 + client as u64);
    let out = honest_run(ctx, cnn, transport, client, &input);
    (out, transport.stats())
}

/// `client`'s protocol-abiding run on `input` (any valid size).
fn honest_run(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    transport: &dyn Transport,
    client: usize,
    input: &Tensor,
) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(99 + client as u64);
    let kg = KeyGenerator::new(ctx, &mut rng);
    run_client_batch(
        ctx,
        &kg,
        transport,
        std::slice::from_ref(input),
        cnn,
        SchemeKind::Spot,
        (4, 4),
        PatchMode::Tweaked,
        &mut rng,
    )
    .expect("well-behaved client")
}

/// A protocol-violating first message fails only that session: the
/// victim gets a typed error, the concurrent neighbor's outputs match
/// the plaintext forward pass and its wire traffic is byte-identical
/// to a solo run against a fresh server.
#[test]
fn protocol_violation_is_contained_to_its_session() {
    let (ctx, cnn) = test_stack();

    // Solo baseline traffic for the neighbor.
    let solo_server = SpotServer::new(
        ModelContext::new("tinycnn-solo", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let (solo_out, solo_stats) = {
        let (ct, st) = MemTransport::pair();
        std::thread::scope(|s| {
            let session = s.spawn(|| solo_server.serve_connection(&st));
            let out = well_behaved_client(&ctx, &cnn, &ct, 1);
            session
                .join()
                .expect("session thread")
                .result
                .expect("solo session");
            out
        })
    };

    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let ((), (out, stats)) = std::thread::scope(|s| {
        let attacker = s.spawn(|| {
            let (ct, st) = MemTransport::pair();
            std::thread::scope(|inner| {
                let session = inner.spawn(|| server.serve_connection(&st));
                // First frame is not a Setup: instant protocol violation.
                ct.send(&WireMessage::Teardown).expect("send");
                let report = session.join().expect("victim session thread");
                assert!(report.result.is_err(), "violating session must fail");
                // The typed error frame came back before the hangup.
                let reply = ct.recv().expect("typed error frame");
                assert!(
                    matches!(reply, WireMessage::Error { code, .. } if code == error_code::PROTOCOL),
                    "expected a PROTOCOL wire error, got {reply:?}"
                );
            });
        });
        let neighbor = s.spawn(|| {
            let (ct, st) = MemTransport::pair();
            std::thread::scope(|inner| {
                let session = inner.spawn(|| server.serve_connection(&st));
                let out = well_behaved_client(&ctx, &cnn, &ct, 1);
                session
                    .join()
                    .expect("session thread")
                    .result
                    .expect("neighbor session");
                out
            })
        });
        (
            attacker.join().expect("attacker"),
            neighbor.join().expect("neighbor"),
        )
    });

    assert_eq!(out, solo_out, "neighbor outputs diverge from solo run");
    assert_eq!(
        (stats.sent, stats.received.bytes, stats.received.messages),
        (
            solo_stats.sent,
            solo_stats.received.bytes,
            solo_stats.received.messages
        ),
        "neighbor wire traffic diverges from solo run"
    );
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// Raw garbage bytes over TCP (bad version byte, bad tag, truncated
/// frame) kill only that connection; a concurrent well-formed session
/// completes and matches plain.
#[test]
fn malformed_tcp_frames_fail_only_their_session() {
    let (ctx, cnn) = test_stack();
    let server = Arc::new(SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        let acceptor = s.spawn(|| {
            std::thread::scope(|inner| {
                for _ in 0..2 {
                    let (stream, _) = listener.accept().expect("accept");
                    let server = Arc::clone(&server);
                    inner.spawn(move || {
                        let st = TcpTransport::from_stream(stream).expect("wrap");
                        server.serve_connection(&st)
                    });
                }
            });
        });

        // Hostile connection: not even a valid frame header.
        let mut raw = TcpStream::connect(addr).expect("connect hostile");
        raw.write_all(&[0xFF, 0xFF, 0xAA, 0x55, 0x00, 0x00, 0x00, 0x01, 0xCC])
            .expect("write garbage");
        raw.shutdown(std::net::Shutdown::Write).ok();

        // Well-formed neighbor completes regardless.
        let input = Tensor::random(2, 8, 8, 5, 303);
        let want = cnn.forward_plain(&input);
        let ct = TcpTransport::connect(addr.to_string()).expect("connect good");
        let mut rng = StdRng::seed_from_u64(102);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let out = run_client_batch(
            &ctx,
            &kg,
            &ct,
            std::slice::from_ref(&input),
            &cnn,
            SchemeKind::Spot,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        )
        .expect("well-formed client");
        assert_eq!(out[0], want);
        drop(raw);
        acceptor.join().expect("acceptor");
    });

    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// A `Setup` batch above the session's ciphertext budget is refused
/// with the typed `OVER_BUDGET` code, and the same client fits under
/// the budget with a smaller batch.
#[test]
fn over_budget_batch_is_rejected_with_typed_error() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig {
            max_batch: Some(2),
            ..ServingConfig::default()
        },
    );

    let inputs: Vec<Tensor> = (0..3u64)
        .map(|i| Tensor::random(2, 8, 8, 5, 310 + i))
        .collect();
    let err = {
        let (ct, st) = MemTransport::pair();
        std::thread::scope(|s| {
            let session = s.spawn(|| server.serve_connection(&st));
            let mut rng = StdRng::seed_from_u64(103);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let err = run_client_batch(
                &ctx,
                &kg,
                &ct,
                &inputs,
                &cnn,
                SchemeKind::Spot,
                (4, 4),
                PatchMode::Tweaked,
                &mut rng,
            )
            .expect_err("over-budget batch must fail");
            let report = session.join().expect("session thread");
            assert!(report.result.is_err());
            err
        })
    };
    match err {
        SpotError::Rejected { code, .. } => assert_eq!(code, error_code::OVER_BUDGET),
        other => panic!("expected typed OVER_BUDGET rejection, got {other}"),
    }

    // Under the budget the same server still serves.
    let (ct, st) = MemTransport::pair();
    std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&st));
        let (out, _) = well_behaved_client(&ctx, &cnn, &ct, 4);
        let input = Tensor::random(2, 8, 8, 5, 304);
        assert_eq!(out[0], cnn.forward_plain(&input));
        session
            .join()
            .expect("session thread")
            .result
            .expect("in-budget session");
    });
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// At the session cap the extra connection is refused with the typed
/// `SERVER_FULL` code and consumes no session id; a slot freeing up
/// admits the next client.
#[test]
fn server_full_rejects_with_typed_error() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig {
            max_sessions: 1,
            ..ServingConfig::default()
        },
    );

    // Occupy the only slot with a session that we hold open by not
    // sending anything yet, then probe with a second connection.
    let (ct_a, st_a) = MemTransport::pair();
    std::thread::scope(|s| {
        let session_a = s.spawn(|| server.serve_connection(&st_a));
        // Wait until the first session is admitted.
        while server.active_sessions() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (ct_b, st_b) = MemTransport::pair();
        let refused = server.serve_connection(&st_b);
        assert_eq!(refused.id, u64::MAX, "a refused connection burns no id");
        match refused.result {
            Err(SpotError::Rejected { code, .. }) => assert_eq!(code, error_code::SERVER_FULL),
            other => panic!("expected SERVER_FULL, got {other:?}"),
        }
        let frame = ct_b.recv().expect("typed refusal frame");
        assert!(
            matches!(frame, WireMessage::Error { code, .. } if code == error_code::SERVER_FULL),
            "client must see the SERVER_FULL frame, got {frame:?}"
        );

        // The occupant still completes untouched.
        let (out, _) = well_behaved_client(&ctx, &cnn, &ct_a, 5);
        let input = Tensor::random(2, 8, 8, 5, 305);
        assert_eq!(out[0], cnn.forward_plain(&input));
        session_a
            .join()
            .expect("session a")
            .result
            .expect("occupant session");
    });

    // Slot freed: the next connection gets session id 1 (0 was the
    // occupant; the refusal consumed none).
    let (ct_c, st_c) = MemTransport::pair();
    std::thread::scope(|s| {
        let session_c = s.spawn(|| server.serve_connection(&st_c));
        let (out, _) = well_behaved_client(&ctx, &cnn, &ct_c, 6);
        let input = Tensor::random(2, 8, 8, 5, 306);
        assert_eq!(out[0], cnn.forward_plain(&input));
        let report = session_c.join().expect("session c");
        assert_eq!(report.id, 1);
        report.result.expect("post-refusal session");
    });
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (2, 0, 1));
}

/// A slow-loris connection (connects, never sends) times out under the
/// server's read deadline and fails alone; a concurrent full session
/// completes and matches plain.
#[test]
fn slow_loris_times_out_without_harming_neighbors() {
    let (ctx, cnn) = test_stack();
    let server = Arc::new(SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        let acceptor = s.spawn(|| {
            std::thread::scope(|inner| {
                for conn in 0..2 {
                    let (stream, _) = listener.accept().expect("accept");
                    let server = Arc::clone(&server);
                    inner.spawn(move || {
                        let st = TcpTransport::from_stream(stream).expect("wrap");
                        // The read deadline guards the first accepted
                        // connection (the loris, below); the neighbor
                        // runs without one so slow debug builds can't
                        // trip it mid-protocol.
                        if conn == 0 {
                            st.set_read_timeout(Some(Duration::from_millis(200)))
                                .expect("read timeout");
                        }
                        server.serve_connection(&st)
                    });
                }
            });
        });

        // The loris: connect first and go silent.
        let loris = TcpStream::connect(addr).expect("connect loris");
        std::thread::sleep(Duration::from_millis(100));

        // The neighbor does real work meanwhile.
        let input = Tensor::random(2, 8, 8, 5, 307);
        let want = cnn.forward_plain(&input);
        let ct = TcpTransport::connect(addr.to_string()).expect("connect good");
        let mut rng = StdRng::seed_from_u64(107);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let out = run_client_batch(
            &ctx,
            &kg,
            &ct,
            std::slice::from_ref(&input),
            &cnn,
            SchemeKind::Spot,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        )
        .expect("neighbor client");
        assert_eq!(out[0], want);

        acceptor.join().expect("acceptor");
        drop(loris);
    });

    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// Sends one raw hello to a fresh session and returns the session's
/// report plus the first frame the server answered with.
fn hostile_hello(server: &SpotServer, setup: ConvSetup) -> (SessionReport, WireMessage) {
    let (ct, st) = MemTransport::pair();
    std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&st));
        ct.send(&WireMessage::Setup(setup)).expect("send hello");
        let report = session
            .join()
            .expect("a hostile hello must not panic the session thread");
        (report, ct.recv().expect("typed error frame"))
    })
}

/// A 48-byte SPOT hello whose patch is not larger than the overlap, or
/// does not fit a lane, or whose plan would need an absurd number of
/// ciphertexts, is refused
/// with a typed error frame from its dimensions alone — no panic on the
/// session thread, nothing allocated from the claimed size, and the
/// admission slot is free again afterwards.
#[test]
fn hostile_spot_hello_gets_a_typed_error_and_frees_its_slot() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig {
            max_sessions: 1,
            ..ServingConfig::default()
        },
    );
    let spec = |side: usize, patch: (usize, usize)| LayerSpec {
        scheme: SchemeKind::Spot,
        shape: ConvShape::new(side, side, 2, 4, 3, 1),
        patch,
        mode: PatchMode::Tweaked,
    };
    let hellos = [
        // patch ≤ overlap_for(Tweaked, 3) = 1
        spec(8, (1, 1)),
        // passes every per-field bound, needs ~233k ciphertexts
        spec(1 << 14, (4, 4)),
        // a 64x64 piece is 4096 slots, over a 2048-slot lane however
        // its channels split
        spec(64, (64, 64)),
    ];
    for (i, hello) in hellos.iter().enumerate() {
        let (report, reply) = hostile_hello(&server, hello.to_setup(ParamLevel::N4096));
        assert!(
            matches!(report.result, Err(SpotError::Protocol(_))),
            "hello {i}: expected a protocol error, got {:?}",
            report.result
        );
        assert!(
            matches!(reply, WireMessage::Error { code, .. } if code == error_code::PROTOCOL),
            "hello {i}: expected a PROTOCOL wire error, got {reply:?}"
        );
        assert_eq!(server.stats().failed, i + 1);
        assert_eq!(server.active_sessions(), 0);
    }

    // With one admission slot, a leaked one would refuse this client.
    let (ct, st) = MemTransport::pair();
    let (out, _) = std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&st));
        let out = well_behaved_client(&ctx, &cnn, &ct, 1);
        session
            .join()
            .expect("session thread")
            .result
            .expect("neighbor session");
        out
    });
    let input = Tensor::random(2, 8, 8, 5, 301);
    assert_eq!(out, vec![cnn.forward_plain(&input)]);
}

/// A transport whose first `recv` panics, standing in for any future
/// bug that unwinds a session thread.
struct PanickingTransport;

impl Transport for PanickingTransport {
    fn send(&self, _msg: &WireMessage) -> Result<(), ProtoError> {
        Ok(())
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        panic!("transport double: recv panics");
    }

    fn close_tx(&self) {}

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// A session that unwinds releases its admission slot and is counted
/// as failed; the next client on the same (single-slot) server is
/// served normally.
#[test]
fn panicking_session_releases_its_admission_slot() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig {
            max_sessions: 1,
            ..ServingConfig::default()
        },
    );
    let unwound = std::thread::scope(|s| {
        s.spawn(|| server.serve_connection(&PanickingTransport))
            .join()
    });
    assert!(unwound.is_err(), "the transport double must panic");
    assert_eq!(server.active_sessions(), 0);
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (0, 1, 0));

    let (ct, st) = MemTransport::pair();
    let (out, _) = std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&st));
        let out = well_behaved_client(&ctx, &cnn, &ct, 1);
        session
            .join()
            .expect("session thread")
            .result
            .expect("neighbor session");
        out
    });
    let input = Tensor::random(2, 8, 8, 5, 301);
    assert_eq!(out, vec![cnn.forward_plain(&input)]);
    assert_eq!(server.stats().served, 1);
}

// ---------------------------------------------------------------------
// Connection-scoped rotation keys: clients that break the key-stream rule
// ---------------------------------------------------------------------

/// What a hostile uplink does with one frame of an honest client.
enum Uplink {
    /// Sends it as it is.
    Pass,
    /// Sends these in its place (none: drops it).
    Replace(Vec<WireMessage>),
    /// Drops it and closes the uplink. The client code is not told, so
    /// it goes on to read the server's answer; the rewrite drops
    /// whatever it sends afterwards.
    HangUp,
}

/// An honest client's transport with its uplink rewritten on the way
/// out: `rewrite(layer, msg)` sees every frame together with the number
/// of `Setup` frames sent so far (`msg` included) and says what becomes
/// of it.
struct Tamper<'a, F> {
    inner: &'a dyn Transport,
    layer: AtomicUsize,
    rewrite: F,
}

impl<'a, F> Tamper<'a, F>
where
    F: Fn(usize, &WireMessage) -> Uplink + Send + Sync,
{
    fn new(inner: &'a dyn Transport, rewrite: F) -> Self {
        Self {
            inner,
            layer: AtomicUsize::new(0),
            rewrite,
        }
    }
}

impl<F> Transport for Tamper<'_, F>
where
    F: Fn(usize, &WireMessage) -> Uplink + Send + Sync,
{
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        if matches!(msg, WireMessage::Setup(_)) {
            self.layer.fetch_add(1, Ordering::SeqCst);
        }
        match (self.rewrite)(self.layer.load(Ordering::SeqCst), msg) {
            Uplink::Pass => self.inner.send(msg),
            Uplink::Replace(frames) => frames.iter().try_for_each(|m| self.inner.send(m)),
            Uplink::HangUp => {
                self.inner.close_tx();
                Ok(())
            }
        }
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

/// What a connection through `server` ended as, on both ends.
struct Ending {
    client: Result<Vec<Tensor>, SpotError>,
    session: SessionReport,
    uplink_frames: u64,
}

/// A connection's `(client end, server end)`.
type Link = (Box<dyn Transport>, Box<dyn Transport>);

fn mem_link() -> Link {
    let (ct, st) = MemTransport::pair();
    (Box::new(ct), Box::new(st))
}

/// How long the server end of [`tcp_link_with_read_deadline`] waits for
/// a frame: long enough for an honest client's slowest step, short
/// enough to sit out in a test.
const READ_DEADLINE: Duration = Duration::from_secs(2);

/// Loopback TCP whose server end gives up on a silent peer, as
/// `spot-server --read-timeout-ms` sets it up.
fn tcp_link_with_read_deadline() -> Link {
    let (ct, st) = tcp_pair();
    st.set_read_timeout(Some(READ_DEADLINE))
        .expect("read deadline");
    (Box::new(ct), Box::new(st))
}

/// One honest full-pipeline client (keys from `kg`, input `input`) whose
/// uplink passes through `rewrite`, served by `server` over `link`.
fn tampered_connection<F>(
    server: &SpotServer,
    (ct, st): Link,
    kg: &KeyGenerator,
    input: &Tensor,
    seed: u64,
    rewrite: F,
) -> Ending
where
    F: Fn(usize, &WireMessage) -> Uplink + Send + Sync,
{
    let tamper = Tamper::new(&*ct, rewrite);
    std::thread::scope(|s| {
        let session = s.spawn(|| server.serve_connection(&*st));
        let client = run_client_batch(
            server.model().context(),
            kg,
            &tamper,
            std::slice::from_ref(input),
            server.model().cnn(),
            SchemeKind::Spot,
            (4, 4),
            PatchMode::Tweaked,
            &mut StdRng::seed_from_u64(seed),
        );
        Ending {
            client,
            session: session.join().expect("session thread"),
            uplink_frames: ct.stats().sent.messages,
        }
    })
}

/// Asserts a connection ended in the typed protocol refusal, on the
/// server (a `Protocol` error, or the `Serial` error of a blob no
/// decoder accepts, naming `why`) and at the client (the `PROTOCOL`
/// error frame with the same detail).
fn assert_refused(ending: &Ending, why: &str) {
    match &ending.session.result {
        Err(refusal @ (SpotError::Protocol(_) | SpotError::Serial(_))) => {
            let detail = refusal.to_string();
            assert!(detail.contains(why), "server said {detail:?}, want {why:?}")
        }
        other => panic!("expected a protocol error naming {why:?}, got {other:?}"),
    }
    match &ending.client {
        Err(SpotError::Rejected { code, detail }) => {
            assert_eq!(*code, error_code::PROTOCOL);
            assert!(detail.contains(why), "client saw {detail:?}, want {why:?}");
        }
        other => panic!("expected the typed refusal at the client, got {other:?}"),
    }
}

/// The key frame of `elements` under `kg`, and the one holding the key
/// of `blob` as well.
fn key_frame(kg: &KeyGenerator, elements: &[usize]) -> WireMessage {
    let keys = kg.galois_keys(elements, &mut StdRng::seed_from_u64(31));
    WireMessage::GaloisKeys(galois_keys_to_bytes(&keys))
}

fn blob_with_extra(
    ctx: &Arc<Context>,
    kg: &KeyGenerator,
    blob: &[u8],
    elements: &[usize],
) -> WireMessage {
    let mut keys = galois_keys_from_bytes(ctx, blob).expect("honest key frame");
    keys.extend(kg.galois_keys(elements, &mut StdRng::seed_from_u64(31)));
    WireMessage::GaloisKeys(galois_keys_to_bytes(&keys))
}

/// Some Galois element, for a key frame that is refused for being one
/// whatever it carries.
const ANY_ELEMENT: usize = 3;

/// Which key frame of its layer `msg` is (0-based), counted in
/// `seen[layer]`; `None` for any other frame.
fn nth_key_frame(seen: &[AtomicUsize; 3], layer: usize, msg: &WireMessage) -> Option<usize> {
    matches!(msg, WireMessage::GaloisKeys(_)).then(|| seen[layer].fetch_add(1, Ordering::SeqCst))
}

type Rewrite<'a> = Box<dyn Fn(usize, &WireMessage) -> Uplink + Send + Sync + 'a>;

/// Each hostile client (what it does, the refusal it must get, its
/// uplink rewrite), connected over a fresh `link()`, gets the typed
/// refusal within the deadline and its slot back, while a neighbour
/// served beside it produces the outputs and the wire traffic of a solo
/// run.
fn assert_each_refused_and_contained(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    kg: &KeyGenerator,
    input: &Tensor,
    link: fn() -> Link,
    hostile: &[(&str, &str, Rewrite<'_>)],
) {
    let new_server = || {
        SpotServer::new(
            ModelContext::new("tinycnn-7", Arc::clone(ctx), cnn.clone()),
            ServingConfig::default(),
        )
    };
    let neighbour = |server: &SpotServer| {
        let (ct, st) = MemTransport::pair();
        std::thread::scope(|s| {
            let session = s.spawn(|| server.serve_connection(&st));
            let out = well_behaved_client(ctx, cnn, &ct, 1);
            let report = session.join().expect("session thread");
            report.result.expect("neighbour session");
            out
        })
    };
    let (solo_out, solo_stats) = neighbour(&new_server());

    for (what, why, rewrite) in hostile {
        let server = new_server();
        let (ending, (out, stats)) = within_deadline(what, || {
            std::thread::scope(|s| {
                let attacker =
                    s.spawn(|| tampered_connection(&server, link(), kg, input, 402, rewrite));
                let beside = neighbour(&server);
                (attacker.join().expect("attacker"), beside)
            })
        });
        assert_refused(&ending, why);
        assert_eq!(out, solo_out, "{what}: neighbour outputs diverge");
        assert_eq!(
            (stats.sent, stats.received.bytes, stats.received.messages),
            (
                solo_stats.sent,
                solo_stats.received.bytes,
                solo_stats.received.messages
            ),
            "{what}: neighbour wire traffic diverges"
        );
        let totals = server.stats();
        assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
        assert_eq!(server.active_sessions(), 0, "{what}");
    }
}

/// Clients that break the key-stream rule on a TinyCnn connection. A
/// key frame that is not exactly the schedule's next element: one the
/// layer does not rotate by, one the connection already holds, two
/// scheduled ones swapped, one with a second key riding along. A key
/// stream cut short after two of conv1's keys, with the server's worker
/// already blocked on the third: the client goes on to its next
/// ciphertext, or hangs up. No key frames at all on conv1; a hang-up
/// where conv2's one key frame belongs. Each is refused and contained.
/// Which element a frame carries and which the server wants are read
/// off the client's own schedule (`key_streams`), not written here.
#[test]
fn key_stream_rule_violations_are_refused_and_contained() {
    let (ctx, cnn) = test_stack();
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(400));
    // At 24×24 only conv1's vertical strips ride beside its 64 patches,
    // so its upload is three ciphertexts and a frame follows its keys
    // (at 8×8 every seam piece rides and its one ciphertext's keys end
    // the upload, like conv2's).
    let input = Tensor::random(2, 24, 24, 5, 401);
    // conv1 streams several keys behind its first ciphertext; conv2
    // adds one, which conv1 does not rotate by.
    let [conv1_keys, conv2_keys] = &key_streams(&ctx, &kg, &cnn, &input)[..] else {
        panic!("TinyCnn has two convolutions");
    };
    assert!(conv1_keys.len() > 3 && conv1_keys[..3].iter().all(|&(at, _)| at == 0));
    let &[(0, conv2_only)] = &conv2_keys[..] else {
        panic!("conv2 adds one key: {conv2_keys:?}");
    };
    let conv1_first = conv1_keys[0].1;
    let carries_conv2s = format!("key frame carries galois elements [{conv2_only}]");
    let carries_conv1s = format!(
        "key frame carries galois elements [{conv1_first}], \
         want exactly the next scheduled one, {conv2_only}"
    );
    let conv2s_never_comes =
        format!("galois element {conv2_only} will not arrive: protocol transport error");
    const NOT_NEXT: &str = "want exactly the next scheduled one";
    // Per case: key frames seen per layer, a frame held back, and
    // whether the uplink has been hung up.
    let seen: [[AtomicUsize; 3]; 8] = Default::default();
    let held_back = Mutex::new(None::<WireMessage>);
    let hung_up = AtomicBool::new(false);
    let (ctx, kg) = (&ctx, &kg);
    // Replaces key frame `at = (layer, nth)` by `with(.., its blob,
    // element)`.
    let replace_key_frame =
        |case: usize,
         at: (usize, usize),
         element: usize,
         with: fn(&Arc<Context>, &KeyGenerator, &[u8], usize) -> WireMessage|
         -> Rewrite<'_> {
            let seen = &seen[case];
            Box::new(
                move |layer, msg| match (nth_key_frame(seen, layer, msg), msg) {
                    (Some(nth), WireMessage::GaloisKeys(blob)) if (layer, nth) == at => {
                        Uplink::Replace(vec![with(ctx, kg, blob, element)])
                    }
                    _ => Uplink::Pass,
                },
            )
        };
    let hostile: [(&str, &str, Rewrite<'_>); 8] = [
        (
            "conv1's third key frame carries conv2's key instead",
            &carries_conv2s,
            replace_key_frame(0, (1, 2), conv2_only, |_, kg, _, g| key_frame(kg, &[g])),
        ),
        (
            "conv2's key frame carries a key conv1 uploaded",
            &carries_conv1s,
            replace_key_frame(1, (2, 0), conv1_first, |_, kg, _, g| key_frame(kg, &[g])),
        ),
        (
            "conv1's first two key frames arrive swapped",
            NOT_NEXT,
            Box::new(|layer, msg| match nth_key_frame(&seen[2], layer, msg) {
                Some(0) if layer == 1 => {
                    *held_back.lock().unwrap() = Some(msg.clone());
                    Uplink::Replace(Vec::new())
                }
                Some(1) if layer == 1 => {
                    let first = held_back.lock().unwrap().take().expect("held back");
                    Uplink::Replace(vec![msg.clone(), first])
                }
                _ => Uplink::Pass,
            }),
        ),
        (
            "conv1's first key frame carries conv2's key as well",
            NOT_NEXT,
            replace_key_frame(3, (1, 0), conv2_only, |ctx, kg, blob, g| {
                blob_with_extra(ctx, kg, blob, &[g])
            }),
        ),
        (
            "conv1's key stream stops after two keys: the next ciphertext follows",
            "expected GaloisKeys, got",
            Box::new(|layer, msg| match nth_key_frame(&seen[4], layer, msg) {
                Some(nth) if layer == 1 && nth >= 2 => Uplink::Replace(Vec::new()),
                _ => Uplink::Pass,
            }),
        ),
        (
            "conv1's key stream stops after two keys: the client hangs up",
            "will not arrive: protocol transport error",
            Box::new(|layer, msg| match nth_key_frame(&seen[5], layer, msg) {
                Some(2) if layer == 1 => {
                    hung_up.store(true, Ordering::SeqCst);
                    Uplink::HangUp
                }
                _ if hung_up.load(Ordering::SeqCst) => Uplink::Replace(Vec::new()),
                _ => Uplink::Pass,
            }),
        ),
        (
            "conv1 sends no key frames at all",
            "expected GaloisKeys, got",
            Box::new(|layer, msg| match nth_key_frame(&seen[6], layer, msg) {
                Some(_) if layer == 1 => Uplink::Replace(Vec::new()),
                _ => Uplink::Pass,
            }),
        ),
        // conv2 has one input ciphertext, so its key frame is the last
        // frame of its upload: a client that merely leaves it out has
        // gone silent, which is not a frame to refuse (the next test).
        // This one says so.
        (
            "conv2's key never comes: the client hangs up in its place",
            &conv2s_never_comes,
            Box::new(|layer, msg| match nth_key_frame(&seen[7], layer, msg) {
                Some(_) if layer == 2 => Uplink::HangUp,
                _ => Uplink::Pass,
            }),
        ),
    ];
    assert_each_refused_and_contained(ctx, &cnn, kg, &input, mem_link, &hostile);
    // Every hostile stream got as far as the frame it broke the rule on.
    let key_frames_sent: Vec<usize> = (seen.iter())
        .map(|layers| layers.iter().map(|n| n.load(Ordering::SeqCst)).sum())
        .collect();
    assert!(
        key_frames_sent.iter().all(|&n| n >= 1),
        "{key_frames_sent:?}"
    );
}

/// A client that still writes rotation keys in the version-9 form, a
/// `b_i` per prime where the key switch takes one per prime but the
/// last (three at N4096, not two), is refused by the key reader from
/// the entry's digit count, before a polynomial is read; the count and
/// the one wanted are named at both ends. The session ends alone, its
/// slot comes back, and the neighbour is served as if alone.
#[test]
fn a_rotation_key_with_a_digit_per_prime_is_refused_and_contained() {
    let (ctx, cnn) = test_stack();
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(450));
    let input = Tensor::random(2, 8, 8, 5, 451);
    let (k, poly_bytes) = (ctx.moduli_count(), ctx.params().poly_bytes());
    let why = format!("key-switch digit count {k}, expected {}", k - 1);
    let hostile: [(&str, &str, Rewrite<'_>); 1] = [(
        "conv1's first key carries a b_i for every prime",
        &why,
        Box::new(|layer, msg| match msg {
            WireMessage::GaloisKeys(blob) if layer == 1 => {
                // [count u32][element u64][digits u32][seed][b_i …]: one
                // more digit, and a zero b_i (in range) for it.
                let mut old_form = blob.clone();
                old_form[12..16].copy_from_slice(&(k as u32).to_le_bytes());
                old_form.resize(blob.len() + poly_bytes, 0);
                Uplink::Replace(vec![WireMessage::GaloisKeys(old_form)])
            }
            _ => Uplink::Pass,
        }),
    )];
    assert_each_refused_and_contained(&ctx, &cnn, &kg, &input, mem_link, &hostile);
}

/// A key travels behind the first ciphertext of the first piece class
/// that rotates by it. Under a square kernel that is the layer's first
/// ciphertext for every key (a seam piece is a patch with rows or
/// columns missing, and moves by the patches' steps); a 3×1 kernel
/// moves the 4×4 patches by whole rows of four and the 4×1 strips of a
/// later class by rows of one, so that class's ciphertext has two keys
/// of its own behind it. The honest connection sends them there and
/// reconstructs the convolution; with the ciphertext left out its keys
/// stand where it should, and the client is refused and contained.
#[test]
fn keys_behind_a_later_piece_class_travel_behind_its_ciphertext_or_are_refused() {
    let (ctx, _) = test_stack();
    let cnn = TinyCnn::from_ops(vec![
        Op::Conv {
            kernel: Kernel::random(4, 2, 3, 1, 3, 440),
            stride: 1,
        },
        Op::Reveal,
    ]);
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(441));
    // At 28×28 the 72 strips do not fit beside the 81 patches in 128
    // positions, so they keep a ciphertext of their own (at 8×8 they
    // ride, and their keys are the patches').
    let input = Tensor::random(2, 28, 28, 5, 442);
    let stream = key_streams(&ctx, &kg, &cnn, &input).remove(0);
    let &(strips, _) = stream.last().expect("a rotating layer");
    let behind_strips = stream.iter().filter(|&&(at, _)| at == strips).count();
    assert!(strips > 0 && behind_strips == 2, "{stream:?}");
    assert!(stream.iter().all(|&(at, _)| at == 0 || at == strips));

    // The honest upload: per key frame, the input ciphertext it came
    // right behind.
    let server = SpotServer::new(
        ModelContext::new("tall-kernel", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let inputs_sent = AtomicUsize::new(0);
    let key_frames_behind = Mutex::new(Vec::new());
    let honest = within_deadline("honest 3x1 connection", || {
        tampered_connection(&server, mem_link(), &kg, &input, 443, |_, msg| {
            match msg {
                WireMessage::PackedCt { .. } | WireMessage::AuxCt { .. } => {
                    inputs_sent.fetch_add(1, Ordering::SeqCst);
                }
                WireMessage::GaloisKeys(_) => {
                    (key_frames_behind.lock().unwrap()).push(inputs_sent.load(Ordering::SeqCst) - 1)
                }
                _ => {}
            }
            Uplink::Pass
        })
    });
    honest.session.result.expect("honest session");
    assert_eq!(
        honest.client.expect("honest client")[0],
        cnn.forward_plain(&input)
    );
    let scheduled: Vec<usize> = stream.iter().map(|&(at, _)| at).collect();
    assert_eq!(*key_frames_behind.lock().unwrap(), scheduled);

    let hostile: [(&str, &str, Rewrite<'_>); 1] = [(
        "a later piece class sends its keys without its ciphertext before them",
        "expected PackedCt/AuxCt, got GaloisKeys",
        Box::new(|_, msg| match msg {
            WireMessage::AuxCt { seq, .. } if *seq as usize == strips => {
                Uplink::Replace(Vec::new())
            }
            _ => Uplink::Pass,
        }),
    )];
    assert_each_refused_and_contained(&ctx, &cnn, &kg, &input, mem_link, &hostile);
}

/// The one way to break the key-stream rule that no frame announces:
/// conv2's key frame is the last frame of its upload, and this client
/// leaves it out and stays connected, waiting for its results. The
/// worker is blocked in the key store and the ingest thread on the
/// link; the transport's read deadline is what ends the wait, as it ends
/// any silent client's. The key upload ends with the transport's error,
/// the worker gets the typed refusal, the slot comes back, and the
/// neighbour is served as if alone.
#[test]
fn a_withheld_last_key_on_an_open_connection_ends_at_the_read_deadline() {
    let (ctx, cnn) = test_stack();
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(430));
    let input = Tensor::random(2, 8, 8, 5, 431);
    let conv2_only = key_streams(&ctx, &kg, &cnn, &input)[1][0].1;
    let never_comes =
        format!("galois element {conv2_only} will not arrive: protocol transport error");
    let silent: [(&str, &str, Rewrite<'_>); 1] = [(
        "conv2's key never comes: the client waits for its results without sending it",
        &never_comes,
        Box::new(|layer, msg| match msg {
            WireMessage::GaloisKeys(_) if layer == 2 => Uplink::Replace(Vec::new()),
            _ => Uplink::Pass,
        }),
    )];
    let started = Instant::now();
    assert_each_refused_and_contained(
        &ctx,
        &cnn,
        &kg,
        &input,
        tcp_link_with_read_deadline,
        &silent,
    );
    assert!(
        started.elapsed() >= READ_DEADLINE,
        "nothing but the deadline can have ended it"
    );
}

/// An input ciphertext travels in one form, `c0` and the seed of `c1`,
/// at one length, at the level's two result primes. A client that still
/// speaks the version-3 form (the same encryption written out whole,
/// 73,744 B at the two primes) or whose blob is a byte long or short is
/// refused by the decoder's length check before a polynomial is read —
/// not served on a `c1` made of whatever follows `c0` — and one that
/// still speaks the version-8 form (a seeded encryption at all three of
/// N4096's primes, 55,856 B) by its header's prime count. Each is
/// contained like any other: typed refusal at both ends within the
/// deadline, the slot freed, no session thread unwound (the harness
/// joins it), the neighbour's outputs and wire bytes those of a solo
/// run.
#[test]
fn input_ciphertexts_of_another_form_or_length_are_refused_and_contained() {
    let (ctx, cnn) = test_stack();
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(440));
    let input = Tensor::random(2, 8, 8, 5, 441);
    const WRONG_LENGTH: &str = "HE deserialization error: payload length mismatch";
    const WRONG_HEADER: &str = "HE deserialization error: header does not match context";
    let seeded = ctx.result_context().params().seeded_ciphertext_bytes();
    let ctx = &ctx;
    // Rewrites the blob of layer `at`'s first input ciphertext.
    let reshape = |at: usize, with: fn(&Arc<Context>, &[u8]) -> Vec<u8>| -> Rewrite<'_> {
        Box::new(move |layer, msg| match msg {
            WireMessage::PackedCt { seq: 0, blob } if layer == at => {
                assert_eq!(blob.len(), seeded, "the honest form");
                Uplink::Replace(vec![WireMessage::PackedCt {
                    seq: 0,
                    blob: with(ctx, blob),
                }])
            }
            _ => Uplink::Pass,
        })
    };
    let hostile: [(&str, &str, Rewrite<'_>); 4] = [
        (
            "conv1's first input ciphertext travels in the full form",
            WRONG_LENGTH,
            reshape(1, |ctx, blob| {
                let rctx = ctx.result_context();
                let whole = Ciphertext::try_from_seeded_bytes(rctx, blob).expect("honest upload");
                let full = whole.to_bytes();
                assert_eq!(full.len(), rctx.params().ciphertext_bytes());
                full
            }),
        ),
        (
            "conv1's first input ciphertext is seeded at all three primes, as version 8 sent it",
            WRONG_HEADER,
            reshape(1, |ctx, _| {
                let kg = KeyGenerator::new(ctx, &mut StdRng::seed_from_u64(442));
                let zero = BatchEncoder::new(ctx).encode(&[]);
                let encryptor = SymmetricEncryptor::new(ctx, kg.secret_key().clone());
                let old = encryptor.encrypt(&zero, &mut StdRng::seed_from_u64(443));
                let blob = old.to_bytes();
                assert_eq!(blob.len(), ctx.params().seeded_ciphertext_bytes());
                assert_eq!(
                    Ciphertext::try_from_seeded_bytes(ctx.result_context(), &blob).err(),
                    Some(SerialError::HeaderMismatch)
                );
                blob
            }),
        ),
        (
            "conv2's input ciphertext is one byte longer than the seeded form",
            WRONG_LENGTH,
            reshape(2, |_, blob| [blob, &[0]].concat()),
        ),
        (
            "conv1's first input ciphertext is one byte short of its seed",
            WRONG_LENGTH,
            reshape(1, |_, blob| blob[..blob.len() - 1].to_vec()),
        ),
    ];
    assert_each_refused_and_contained(ctx, &cnn, &kg, &input, mem_link, &hostile);
}

/// An uploader that unwinds hangs up its uplink on the way out: the
/// server, waiting for an input that never comes, ends in a typed error
/// and frees its slot; the absorber, waiting for the server, ends; and
/// the client reports the uploader's panic as a typed error. The
/// connection runs on a thread of its own, waited for with a deadline,
/// so a connection that never ends fails this test instead of aborting
/// the test binary.
#[test]
fn a_panicking_uploader_hangs_up_and_both_ends_stop() {
    const DEADLINE: Duration = Duration::from_secs(60);
    let (ctx, cnn) = test_stack();
    let server = Arc::new(SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn),
        ServingConfig::default(),
    ));
    let (done, ended) = mpsc::channel();
    let serving = Arc::clone(&server);
    std::thread::spawn(move || {
        let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(470));
        let input = Tensor::random(2, 8, 8, 5, 471);
        let rewrite = |layer: usize, msg: &WireMessage| match msg {
            WireMessage::PackedCt { seq: 0, .. } if layer == 1 => {
                panic!("the uploader dies on conv1's first input ciphertext")
            }
            _ => Uplink::Pass,
        };
        let ending = tampered_connection(&serving, mem_link(), &kg, &input, 472, rewrite);
        let _ = done.send((ending.client, ending.session.result));
    });
    let (client, session) = (ended.recv_timeout(DEADLINE))
        .unwrap_or_else(|_| panic!("the connection is still open after {DEADLINE:?}"));
    match client {
        Err(SpotError::Panicked("uploader")) => {}
        other => panic!("expected the uploader's panic as a typed error, got {other:?}"),
    }
    match session {
        Err(SpotError::Proto(ProtoError::Closed)) => {}
        other => panic!("expected the server to read the hang-up, got {other:?}"),
    }
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (0, 1, 0));
    assert_eq!(server.active_sessions(), 0);
}

/// A client whose layer `at` hello is an honest one changed by `with`
/// — well-formed, the kernel's dims untouched — is refused before its
/// upload is acknowledged, naming `why`, and contained.
fn assert_hello_refused(what: &str, why: &str, at: usize, with: fn(&mut ConvSetup)) {
    let (ctx, cnn) = test_stack();
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(460));
    let input = Tensor::random(2, 8, 8, 5, 461);
    let rewrite: Rewrite<'_> = Box::new(move |layer, msg| match msg {
        WireMessage::Setup(setup) if layer == at => {
            let mut setup = *setup;
            with(&mut setup);
            Uplink::Replace(vec![WireMessage::Setup(setup)])
        }
        _ => Uplink::Pass,
    });
    let hostile = [(what, why, rewrite)];
    assert_each_refused_and_contained(&ctx, &cnn, &kg, &input, mem_link, &hostile);
}

/// A hello is checked against where the server's own walk of the model
/// stands, not only against the kernel's dims, or the server would
/// evaluate another network than the one it holds. conv1 is a stride-1
/// convolution, whatever the hello says.
#[test]
fn a_hello_at_another_stride_than_the_models_is_refused_and_contained() {
    assert_hello_refused(
        "conv1's hello asks for stride 2",
        "layer spec stride 2 does not match the model's stride 1",
        1,
        |setup| setup.stride = 2,
    );
}

/// ... and conv2 runs on the 4×4 activation the server's own shares have
/// reached.
#[test]
fn a_hello_for_another_input_than_the_shares_have_reached_is_refused_and_contained() {
    assert_hello_refused(
        "conv2's hello asks for a 6x6 input",
        "layer spec input 6x6 does not match the 4x4 activation",
        2,
        |setup| (setup.h, setup.w) = (6, 6),
    );
}

/// Every encryption draws its own seed: the same image uploaded twice by
/// one client differs in every ciphertext's seed and in its `c0`, and no
/// seed occurs twice anywhere in the two uploads. (Two ciphertexts over
/// one `a` would give away the difference of their plaintexts.) The
/// layer is the benchmark's 16×16 32 → 32, whose seam classes do not
/// ride: seven ciphertexts over four piece classes.
#[test]
fn every_uploaded_ciphertext_has_a_seed_of_its_own() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(450);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(32, 16, 16, 5, 451);
    let spec = LayerSpec::for_layer(
        SchemeKind::Spot,
        &input,
        &Kernel::random(32, 32, 3, 3, 3, 452),
        1,
        (4, 4),
        PatchMode::Tweaked,
    );
    let mut upload = || -> Vec<Vec<u8>> {
        let (ct, st) = MemTransport::pair();
        let conv = ClientConv::new(&ctx, &kg, spec).expect("client plan");
        let sent = conv
            .send_all(&ct, &input, UploadPacing::Eager, &mut rng)
            .expect("upload");
        ct.close_tx();
        let blobs: Vec<Vec<u8>> = std::iter::from_fn(|| st.recv().ok())
            .filter_map(|msg| match msg {
                WireMessage::PackedCt { blob, .. } | WireMessage::AuxCt { blob, .. } => Some(blob),
                _ => None,
            })
            .collect();
        assert_eq!(blobs.len(), sent);
        blobs
    };
    let (first, second) = (upload(), upload());
    assert_eq!(first.len(), 7, "4 + 1 + 1 + 1 piece ciphertexts");
    let body = ctx.result_context().params().seeded_ciphertext_bytes() - 32;
    for (a, b) in first.iter().zip(&second) {
        assert_eq!((a.len(), b.len()), (body + 32, body + 32));
        assert_eq!(a[..16], b[..16], "same header");
        assert_ne!(a[16..body], b[16..body], "same plaintext, another c0");
    }
    let mut seeds: Vec<&[u8]> = (first.iter().chain(&second))
        .map(|blob| &blob[body..])
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 14, "a seed was drawn twice");
}

/// A model whose second convolution rotates only by elements the first
/// one already needed (4→4 channels on 8×8, then 4→4 on 4×4): the
/// honest client streams keys with conv1 only, and a client that sends
/// one on conv2 anyway is refused.
#[test]
fn key_frame_on_a_layer_whose_keys_are_all_held_is_refused() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let conv = |seed| Op::Conv {
        kernel: Kernel::random(4, 4, 3, 3, 3, seed),
        stride: 1,
    };
    let cnn = TinyCnn::from_ops(vec![
        conv(7),
        Op::Relu,
        Op::MaxPool2,
        Op::Reveal,
        conv(8),
        Op::Relu,
        Op::Reveal,
    ]);
    let server = SpotServer::new(
        ModelContext::new("all-held", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(410));
    let input = Tensor::random(4, 8, 8, 5, 411);

    let key_frames: [AtomicUsize; 3] = Default::default();
    let honest = within_deadline("honest all-held connection", || {
        tampered_connection(&server, mem_link(), &kg, &input, 412, |layer, msg| {
            nth_key_frame(&key_frames, layer, msg);
            Uplink::Pass
        })
    });
    honest.session.result.expect("honest session");
    assert_eq!(
        honest.client.expect("honest client")[0],
        cnn.forward_plain(&input)
    );
    let [_, conv1, conv2] = key_frames.map(AtomicUsize::into_inner);
    assert!(conv1 > 0, "conv1 streams the connection's keys");
    assert_eq!(conv2, 0, "conv2 must upload nothing");

    let ending = within_deadline("key frame on an all-held layer", || {
        tampered_connection(
            &server,
            mem_link(),
            &kg,
            &input,
            412,
            |layer, msg| match msg {
                WireMessage::Setup(_) if layer == 2 => {
                    Uplink::Replace(vec![msg.clone(), key_frame(&kg, &[ANY_ELEMENT])])
                }
                _ => Uplink::Pass,
            },
        )
    });
    assert_refused(&ending, "expected PackedCt/AuxCt, got GaloisKeys");
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (1, 1, 0));
}

/// Keys are held per connection, never per client or per server: after
/// a full connection under `kg`, a second connection under the same
/// `kg` that leaves its keys out is refused, and an honest third one is
/// served.
#[test]
fn a_second_connection_never_sees_the_first_ones_keys() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(420));
    // conv1 uploads three ciphertexts at 24×24, so a keyless upload
    // shows at the second (at 8×8 it would end in silence).
    let input = Tensor::random(2, 24, 24, 5, 421);
    let want = cnn.forward_plain(&input);

    let first = within_deadline("first connection", || {
        tampered_connection(&server, mem_link(), &kg, &input, 422, |_, _| Uplink::Pass)
    });
    first.session.result.expect("first session");
    assert_eq!(first.client.expect("first client")[0], want);

    let second = within_deadline("keyless second connection", || {
        tampered_connection(&server, mem_link(), &kg, &input, 422, |_, msg| match msg {
            WireMessage::GaloisKeys(_) => Uplink::Replace(Vec::new()),
            _ => Uplink::Pass,
        })
    });
    assert_refused(&second, "expected GaloisKeys, got");

    let third = within_deadline("third connection", || {
        tampered_connection(&server, mem_link(), &kg, &input, 422, |_, _| Uplink::Pass)
    });
    third.session.result.expect("third session");
    assert_eq!(third.client.expect("third client")[0], want);
    assert_eq!(third.uplink_frames, first.uplink_frames);
    let totals = server.stats();
    assert_eq!((totals.served, totals.failed, totals.rejected), (2, 1, 0));
}

/// The kernel caches are keyed by a spec the client's hello supplies,
/// so a client cycling through valid image sizes must not grow the
/// server for as long as it runs: the caches keep
/// [`MAX_CACHED_SPECS`] specs, every session of the flood is still
/// served correctly, and a neighbour on the model's own spec sees
/// nothing but one cache rebuild.
#[test]
fn cycling_through_valid_specs_does_not_grow_the_kernel_caches() {
    let (ctx, cnn) = test_stack();
    let new_server = |name| {
        SpotServer::new(
            ModelContext::new(name, Arc::clone(&ctx), cnn.clone()),
            ServingConfig::default(),
        )
    };
    // One whole connection: the session's kernel-cache builds, and the
    // client's outputs and wire accounting.
    let connect = |server: &SpotServer, client: usize, input: &Tensor| {
        let (ct, st) = MemTransport::pair();
        std::thread::scope(|s| {
            let session = s.spawn(|| server.serve_connection(&st));
            let out = honest_run(&ctx, &cnn, &ct, client, input);
            let report = session.join().expect("session thread");
            report.result.expect("session");
            let builds = report.counters.get(Counter::KernelCacheBuild);
            (builds, out, ct.stats())
        })
    };
    let own = Tensor::random(2, 8, 8, 5, 301);
    let (cold_builds, solo_out, solo_stats) = connect(&new_server("tinycnn-solo"), 1, &own);
    assert!(cold_builds > 0);

    let server = new_server("tinycnn-7");
    let entries = || server.model().caches().total_entries();
    let (builds, ..) = connect(&server, 1, &own);
    assert_eq!(builds, cold_builds, "first session builds the cache");

    // Pairwise distinct sizes, two specs (conv1, conv2) a session. All
    // of them cut into every piece class at both layers, so each spec
    // caches the same number of plaintexts and the totals compare.
    let sizes = [12usize, 14, 16, 18];
    let flood = sizes
        .iter()
        .flat_map(|&h| sizes.map(|w| (h, w)))
        .take(MAX_CACHED_SPECS + 3);
    let mut entries_after_k = 0;
    for (i, (h, w)) in flood.enumerate() {
        let input = Tensor::random(2, h, w, 5, 500 + i as u64);
        let (_, out, _) = connect(&server, 10 + i, &input);
        assert_eq!(out[0], cnn.forward_plain(&input), "{h}x{w} session");
        if i + 1 == MAX_CACHED_SPECS {
            entries_after_k = entries();
        }
    }
    assert!(entries_after_k > 0);
    assert!(
        entries() <= entries_after_k,
        "{} cached plaintexts after {} specs, {entries_after_k} after {}",
        entries(),
        2 * (MAX_CACHED_SPECS + 3),
        2 * MAX_CACHED_SPECS
    );

    let (builds, out, stats) = connect(&server, 1, &own);
    assert!(
        builds <= cold_builds,
        "evicted spec rebuilt {builds} > {cold_builds} plaintexts"
    );
    assert_eq!(out, solo_out, "neighbour outputs diverge from solo run");
    assert_eq!(
        (stats.sent, stats.received.bytes, stats.received.messages),
        (
            solo_stats.sent,
            solo_stats.received.bytes,
            solo_stats.received.messages
        ),
        "neighbour wire traffic diverges from solo run"
    );
}

// ---------------------------------------------------------------------
// Share values: a peer's `u64`s are residues mod t or the frame is refused
// ---------------------------------------------------------------------

/// `frame` with every share value set to `u64::MAX`, which overflows
/// `(c + s) % t` against any nonzero `s`. A max-pool round's 12-byte
/// dims prefix is kept, so the values are what gets refused.
fn with_unreduced_shares(frame: &WireMessage) -> WireMessage {
    let mut hostile = frame.clone();
    match &mut hostile {
        WireMessage::OtRound { op, blob, .. } => {
            let values_at = if *op == OP_MAXPOOL { 12 } else { 0 };
            blob[values_at..].fill(0xFF);
        }
        WireMessage::ShareReveal { blob } => blob.fill(0xFF),
        other => panic!("{other:?} carries no shares"),
    }
    hostile
}

/// After an honest conv1, a client whose ReLU round — or whose max-pool
/// round — carries `u64::MAX` shares is refused and contained.
#[test]
fn unreduced_client_shares_are_refused_and_contained() {
    let (ctx, cnn) = test_stack();
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(420));
    let input = Tensor::random(2, 8, 8, 5, 421);
    let hostile_round = |hostile_op: u8| -> Rewrite<'_> {
        Box::new(move |_, msg| match msg {
            WireMessage::OtRound { op, .. } if *op == hostile_op => {
                Uplink::Replace(vec![with_unreduced_shares(msg)])
            }
            _ => Uplink::Pass,
        })
    };
    let hostile = [
        (
            "ReLU round of u64::MAX shares",
            "is not reduced mod",
            hostile_round(OP_RELU),
        ),
        (
            "max-pool round of u64::MAX shares",
            "is not reduced mod",
            hostile_round(OP_MAXPOOL),
        ),
    ];
    assert_each_refused_and_contained(&ctx, &cnn, &kg, &input, mem_link, &hostile);
}

/// The mirror image: a server whose round reply, or whose reveal,
/// carries `u64::MAX` shares. The client ends in the typed error.
#[test]
fn unreduced_server_shares_are_a_typed_error_at_the_client() {
    let (ctx, cnn) = test_stack();
    let server = SpotServer::new(
        ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(430));
    let input = Tensor::random(2, 8, 8, 5, 431);
    let hostile_frames: [fn(&WireMessage) -> bool; 2] = [
        |msg| matches!(msg, WireMessage::OtRound { .. }),
        |msg| matches!(msg, WireMessage::ShareReveal { .. }),
    ];
    for is_hostile in hostile_frames {
        let (ct, st) = MemTransport::pair();
        let downlink = Tamper::new(&st, |_, msg| match is_hostile(msg) {
            true => Uplink::Replace(vec![with_unreduced_shares(msg)]),
            false => Uplink::Pass,
        });
        let client = within_deadline("unreduced server shares", || {
            std::thread::scope(|s| {
                let session = s.spawn(|| server.serve_connection(&downlink));
                let client = run_client_batch(
                    &ctx,
                    &kg,
                    &ct,
                    std::slice::from_ref(&input),
                    &cnn,
                    SchemeKind::Spot,
                    (4, 4),
                    PatchMode::Tweaked,
                    &mut StdRng::seed_from_u64(432),
                );
                // The client has walked away; hang up so the session ends.
                ct.close_tx();
                session.join().expect("session thread");
                client
            })
        });
        match client {
            Err(SpotError::Protocol(detail)) => assert!(
                detail.contains("is not reduced mod"),
                "client said {detail:?}"
            ),
            other => panic!("expected the typed share refusal, got {other:?}"),
        }
    }
}

/// `frame` with its last share value cut off.
fn with_one_value_fewer(frame: &WireMessage) -> WireMessage {
    let mut short = frame.clone();
    if let WireMessage::OtRound { blob, .. } | WireMessage::ShareReveal { blob } = &mut short {
        blob.truncate(blob.len() - 8);
    }
    short
}

/// Hangs up a client end however the client's run ends, a panic
/// included, so the session serving it ends too.
struct HangUp<'a>(&'a dyn Transport);

impl Drop for HangUp<'_> {
    fn drop(&mut self) {
        self.0.close_tx();
    }
}

/// A server whose ReLU reply and reveal each carry one value fewer than
/// the activation has. The two agree in length with each other, so only
/// holding each to the dims it stands for catches them: the client ends
/// in the typed error, not in a misshapen tensor.
#[test]
fn short_server_shares_are_a_typed_error_at_the_client() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let conv = Op::Conv {
        kernel: Kernel::random(3, 2, 3, 3, 1, 440),
        stride: 1,
    };
    let cnn = TinyCnn::from_ops(vec![conv, Op::Relu, Op::Reveal]);
    let server = SpotServer::new(
        ModelContext::new("one-conv", Arc::clone(&ctx), cnn.clone()),
        ServingConfig::default(),
    );
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(441));
    let input = Tensor::random(2, 8, 8, 5, 442);
    let (ct, st) = MemTransport::pair();
    let downlink = Tamper::new(&st, |_, msg| match msg {
        WireMessage::OtRound { .. } | WireMessage::ShareReveal { .. } => {
            Uplink::Replace(vec![with_one_value_fewer(msg)])
        }
        _ => Uplink::Pass,
    });
    let client = within_deadline("short server shares", || {
        std::thread::scope(|s| {
            s.spawn(|| server.serve_connection(&downlink));
            let _hang_up = HangUp(&ct);
            run_client_batch(
                &ctx,
                &kg,
                &ct,
                std::slice::from_ref(&input),
                &cnn,
                SchemeKind::Spot,
                (4, 4),
                PatchMode::Tweaked,
                &mut StdRng::seed_from_u64(443),
            )
        })
    });
    match client {
        Err(SpotError::Protocol(detail)) => assert!(
            detail.contains("does not carry the 192 values of a 3x8x8 share"),
            "client said {detail:?}"
        ),
        other => panic!("expected the typed share refusal, got {other:?}"),
    }
}

/// Results travel at the level's first two primes. A server whose
/// `MaskedResult` carries another modulus — the unswitched three-prime
/// form a version-5 server sent, or a result switched on down to one
/// prime — ends the client in the typed header error, never in a share.
#[test]
fn a_result_at_the_wrong_modulus_is_a_typed_error_at_the_client() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let rctx = Arc::clone(ctx.result_context());
    assert_eq!(rctx.moduli_count(), 2);
    let one_prime = ModSwitch::new(&rctx, 1);
    let three_primes = Ciphertext::from_parts(
        Poly::zero(&ctx, PolyForm::Ntt),
        Poly::zero(&ctx, PolyForm::Ntt),
    )
    .to_bytes();
    // What the server sends in place of its result, by name.
    let wrong = |name: &str, blob: &[u8]| match name {
        "three primes" => three_primes.clone(),
        _ => {
            let ct = Ciphertext::try_from_bytes(&rctx, blob).expect("the server's result");
            one_prime.switch(ct).to_bytes()
        }
    };
    let conv = Op::Conv {
        kernel: Kernel::random(3, 2, 3, 3, 1, 450),
        stride: 1,
    };
    let cnn = TinyCnn::from_ops(vec![conv, Op::Relu, Op::Reveal]);
    for name in ["three primes", "one prime"] {
        let server = SpotServer::new(
            ModelContext::new("one-conv", Arc::clone(&ctx), cnn.clone()),
            ServingConfig::default(),
        );
        let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(451));
        let input = Tensor::random(2, 8, 8, 5, 452);
        let (ct, st) = MemTransport::pair();
        let downlink = Tamper::new(&st, |_, msg| match msg {
            WireMessage::MaskedResult { seq, blob } => {
                Uplink::Replace(vec![WireMessage::MaskedResult {
                    seq: *seq,
                    blob: wrong(name, blob),
                }])
            }
            _ => Uplink::Pass,
        });
        let client = within_deadline(name, || {
            std::thread::scope(|s| {
                s.spawn(|| server.serve_connection(&downlink));
                let _hang_up = HangUp(&ct);
                run_client_batch(
                    &ctx,
                    &kg,
                    &ct,
                    std::slice::from_ref(&input),
                    &cnn,
                    SchemeKind::Spot,
                    (4, 4),
                    PatchMode::Tweaked,
                    &mut StdRng::seed_from_u64(453),
                )
            })
        });
        match client {
            Err(SpotError::Serial(SerialError::HeaderMismatch)) => {}
            other => panic!("{name}: expected the typed header refusal, got {other:?}"),
        }
    }
}

/// A result frame from a version-5 server is refused by its version
/// byte before its blob is looked at.
#[test]
fn a_version_5_result_frame_is_refused_by_its_version_byte() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(454));
    let input = Tensor::random(2, 8, 8, 5, 455);
    let kernel = Kernel::random(3, 2, 3, 3, 1, 456);
    let spec = LayerSpec::for_layer(
        SchemeKind::Spot,
        &input,
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
    );
    let conv = ClientConv::new(&ctx, &kg, spec).expect("client plan");
    let unswitched = Ciphertext::from_parts(
        Poly::zero(&ctx, PolyForm::Ntt),
        Poly::zero(&ctx, PolyForm::Ntt),
    );
    let mut frame = WireMessage::MaskedResult {
        seq: 0,
        blob: unswitched.to_bytes(),
    }
    .encode_frame();
    frame[0] = 5;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = within_deadline("version-5 result frame", || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let (mut raw, _) = listener.accept().expect("accept");
                raw.write_all(&frame).expect("write the old frame");
            });
            let ct = TcpTransport::connect(addr.to_string()).expect("connect");
            conv.absorb_all(&ct)
        })
    });
    match client {
        Err(SpotError::Proto(ProtoError::BadVersion(5))) => {}
        other => panic!("expected the version refusal, got {other:?}"),
    }
}

/// The zero ciphertext at the level's two result primes.
fn zero_result(ctx: &Arc<Context>) -> Ciphertext {
    let rctx = ctx.result_context();
    Ciphertext::from_parts(
        Poly::zero(rctx, PolyForm::Ntt),
        Poly::zero(rctx, PolyForm::Ntt),
    )
}

/// [`zero_result`] in the sparse form, carrying `c0` at `positions`
/// coefficients.
fn sparse_zero_result(ctx: &Arc<Context>, positions: usize) -> Vec<u8> {
    let all: Vec<usize> = (0..positions).collect();
    SparseCiphertext::from_full(&zero_result(ctx), &all).to_bytes()
}

/// A result in the other layer kind's form, or sparse for one output
/// pixel fewer than the layer has, ends the client in the typed length
/// refusal, never in a share: a Cheetah client reads `c0` at exactly
/// its 64 positions (8×8 outputs), a SPOT client a whole ciphertext.
#[test]
fn a_result_in_the_wrong_form_is_a_length_error_at_the_client() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let conv = Op::Conv {
        kernel: Kernel::random(3, 2, 3, 3, 1, 460),
        stride: 1,
    };
    let cnn = TinyCnn::from_ops(vec![conv, Op::Relu, Op::Reveal]);
    let cases = [
        (
            "one position short",
            SchemeKind::Cheetah,
            sparse_zero_result(&ctx, 63),
        ),
        (
            "full form to Cheetah",
            SchemeKind::Cheetah,
            zero_result(&ctx).to_bytes(),
        ),
        (
            "sparse form to SPOT",
            SchemeKind::Spot,
            sparse_zero_result(&ctx, 64),
        ),
    ];
    for (name, scheme, blob) in cases {
        let server = SpotServer::new(
            ModelContext::new("one-conv", Arc::clone(&ctx), cnn.clone()),
            ServingConfig::default(),
        );
        let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(461));
        let input = Tensor::random(2, 8, 8, 5, 462);
        let (ct, st) = MemTransport::pair();
        let downlink = Tamper::new(&st, |_, msg| match msg {
            WireMessage::MaskedResult { seq, .. } => {
                Uplink::Replace(vec![WireMessage::MaskedResult {
                    seq: *seq,
                    blob: blob.clone(),
                }])
            }
            _ => Uplink::Pass,
        });
        let client = within_deadline(name, || {
            std::thread::scope(|s| {
                s.spawn(|| server.serve_connection(&downlink));
                let _hang_up = HangUp(&ct);
                run_client_batch(
                    &ctx,
                    &kg,
                    &ct,
                    std::slice::from_ref(&input),
                    &cnn,
                    scheme,
                    (4, 4),
                    PatchMode::Tweaked,
                    &mut StdRng::seed_from_u64(463),
                )
            })
        });
        match client {
            Err(SpotError::Serial(SerialError::LengthMismatch)) => {}
            other => panic!("{name}: expected the typed length refusal, got {other:?}"),
        }
    }
}

/// A Cheetah result frame from a version-6 server — a whole two-prime
/// ciphertext where version 7 sends the sparse form — is refused by its
/// version byte before its blob is looked at.
#[test]
fn a_version_6_result_frame_is_refused_by_its_version_byte() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let kg = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(464));
    let input = Tensor::random(2, 8, 8, 5, 465);
    let kernel = Kernel::random(3, 2, 3, 3, 1, 466);
    let spec = LayerSpec::for_layer(
        SchemeKind::Cheetah,
        &input,
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
    );
    let conv = ClientConv::new(&ctx, &kg, spec).expect("client plan");
    let mut frame = WireMessage::MaskedResult {
        seq: 0,
        blob: zero_result(&ctx).to_bytes(),
    }
    .encode_frame();
    frame[0] = 6;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = within_deadline("version-6 result frame", || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let (mut raw, _) = listener.accept().expect("accept");
                raw.write_all(&frame).expect("write the old frame");
            });
            let ct = TcpTransport::connect(addr.to_string()).expect("connect");
            conv.absorb_all(&ct)
        })
    });
    match client {
        Err(SpotError::Proto(ProtoError::BadVersion(6))) => {}
        other => panic!("expected the version refusal, got {other:?}"),
    }
}

/// A version-7 client's hello for TinyCnn's conv1 — the same
/// `ConvSetup`, for which it would upload four input ciphertexts where
/// version 8 rides the seam pieces in the patches' one — is refused by
/// its version byte before the server plans the layer.
#[test]
fn a_version_7_hello_is_refused_by_its_version_byte() {
    assert_old_hello_refused(7);
}

/// ... and so is a version-8 client's, which would upload every input at
/// all three of N4096's primes where version 9 sends two.
#[test]
fn a_version_8_hello_is_refused_by_its_version_byte() {
    assert_old_hello_refused(8);
}

/// The hello for TinyCnn's conv1 sent with version byte `version` is
/// refused by it, with a typed error, before the server plans the layer.
fn assert_old_hello_refused(version: u8) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let input = Tensor::random(2, 8, 8, 5, 467);
    let kernel = Kernel::random(4, 2, 3, 3, 1, 468);
    let spec = LayerSpec::for_layer(
        SchemeKind::Spot,
        &input,
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
    );
    let mut frame = WireMessage::Setup(spec.to_setup(ParamLevel::N4096)).encode_frame();
    frame[0] = version;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let served = within_deadline(&format!("version-{version} hello"), || {
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut raw = TcpStream::connect(addr).expect("connect");
                raw.write_all(&frame).expect("write the old hello");
            });
            let (stream, _) = listener.accept().expect("accept");
            let st = TcpTransport::from_stream(stream).expect("server end");
            let backend = ExecBackend::Phased(Executor::serial());
            serve_conv_with(
                &ctx,
                &st,
                &kernel,
                &backend,
                ServeOptions::default(),
                &mut StdRng::seed_from_u64(469),
            )
        })
    });
    match served {
        Err(SpotError::Proto(ProtoError::BadVersion(v))) if v == version => {}
        other => panic!("expected the version-{version} refusal, got {other:?}"),
    }
}
