//! The metrics registry must observe without perturbing: with metrics
//! enabled, a session computes the same shares, and every
//! scheduling-independent series of the scrape (wire byte/frame
//! totals, conv/stream work counts) is bit-identical across worker
//! thread counts (1 vs 8) and transports (Mem vs TCP loopback), for
//! every scheme.
//! Timing-valued series (`*_ns` sums, bucket contents) and
//! backpressure counters are scheduling-dependent by design and are
//! compared by sample count only, or excluded.
//!
//! All tests share the process-global registry, so they serialize on
//! one lock and reset it around each scenario.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv, ClientConv, ExecBackend, LayerSpec, SchemeKind, UploadPacing,
};
use spot_core::stream::StreamConfig;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, TcpTransport, Transport};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::metrics;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

struct MetricsRun {
    snap: metrics::MetricsSnapshot,
    client_share: Tensor,
}

/// The scheduling-independent view of a run's scrape: exact wire
/// byte/frame totals (blocked-time excluded) and sample counts — not
/// sums or buckets — for the latency histograms.
fn deterministic_series(snap: &metrics::MetricsSnapshot, scheme: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for op in ["tx_bytes", "tx_frames", "rx_bytes", "rx_frames"] {
        let total = snap.counter("spot_server_ops", &[("op", op)]);
        out.push((format!("spot_server_ops{{op={op}}}"), total));
    }
    for (name, labels) in [
        ("spot_conv_serve_ns", vec![("scheme", scheme)]),
        ("spot_stream_conv_ns", vec![]),
        ("spot_stream_queue_blocked_ns", vec![]),
    ] {
        let count = snap.histogram(name, &labels).map(|h| h.count).unwrap_or(0);
        out.push((format!("{name}(count)"), count));
    }
    out
}

fn run_session(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
    client_t: &dyn Transport,
    server_t: &dyn Transport,
) -> MetricsRun {
    metrics::global().reset();
    metrics::enable();
    let baseline = metrics::scrape();
    let mut crng = StdRng::seed_from_u64(71);
    let keygen = KeyGenerator::new(ctx, &mut crng);
    let conv = ClientConv::new(ctx, &keygen, spec).expect("plan");
    let share = std::thread::scope(|s| {
        let client = s.spawn(|| {
            conv.send_all(client_t, input, UploadPacing::Eager, &mut crng)
                .expect("send_all");
            conv.absorb_all(client_t).expect("absorb_all")
        });
        let mut srng = StdRng::seed_from_u64(1312);
        serve_conv(ctx, server_t, kernel, backend, &mut srng).expect("serve_conv");
        client.join().expect("client thread")
    });
    let snap = metrics::scrape().delta(&baseline);
    metrics::disable();
    MetricsRun {
        snap,
        client_share: share.share,
    }
}

fn run_mem(scheme: SchemeKind, threads: usize) -> MetricsRun {
    let (ctx, spec, kernel, input) = fixture(scheme);
    let backend = ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), 2));
    let (client_t, server_t) = MemTransport::pair();
    run_session(&ctx, spec, &kernel, &input, &backend, &client_t, &server_t)
}

fn run_tcp(scheme: SchemeKind, threads: usize) -> MetricsRun {
    let (ctx, spec, kernel, input) = fixture(scheme);
    let backend = ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), 2));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let accept = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        TcpTransport::from_stream(stream).expect("server transport")
    });
    let client_t = TcpTransport::connect(addr.to_string()).expect("connect loopback");
    let server_t = accept.join().expect("accept thread");
    run_session(&ctx, spec, &kernel, &input, &backend, &client_t, &server_t)
}

fn fixture(scheme: SchemeKind) -> (Arc<Context>, LayerSpec, Kernel, Tensor) {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let spec = LayerSpec {
        scheme,
        shape: ConvShape::new(8, 8, 3, 2, 3, 1),
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    };
    let input = Tensor::random(3, 8, 8, 6, 23);
    let kernel = Kernel::random(2, 3, 3, 3, 3, 24);
    (ctx, spec, kernel, input)
}

#[test]
fn metrics_deterministic_across_threads_and_transports() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for scheme in [
        SchemeKind::Spot,
        SchemeKind::Channelwise,
        SchemeKind::Cheetah,
    ] {
        let scheme_name = match scheme {
            SchemeKind::Spot => "spot",
            SchemeKind::Channelwise => "channelwise",
            SchemeKind::Cheetah => "cheetah",
        };
        let base = run_mem(scheme, 1);
        let base_series = deterministic_series(&base.snap, scheme_name);
        assert!(
            base_series.iter().any(|(_, v)| *v > 0),
            "{scheme:?}: metered run registered nothing"
        );
        assert_eq!(
            base.snap
                .histogram("spot_conv_serve_ns", &[("scheme", scheme_name)])
                .map(|h| h.count),
            Some(1),
            "{scheme:?}: one serve_conv must record one latency sample"
        );
        for (tag, run) in [
            ("mem/8t", run_mem(scheme, 8)),
            ("tcp/1t", run_tcp(scheme, 1)),
            ("tcp/8t", run_tcp(scheme, 8)),
        ] {
            assert_eq!(
                base.client_share, run.client_share,
                "{scheme:?} {tag}: metrics collection perturbed the computed share"
            );
            assert_eq!(
                base_series,
                deterministic_series(&run.snap, scheme_name),
                "{scheme:?} {tag}: deterministic metric series differ from mem/1t"
            );
        }
    }
}

#[test]
fn disabled_registry_stays_empty_through_a_session() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    metrics::global().reset();
    metrics::disable();
    let (ctx, spec, kernel, input) = fixture(SchemeKind::Spot);
    let backend = ExecBackend::Streaming(StreamConfig::new(Executor::new(2), 2));
    let (client_t, server_t) = MemTransport::pair();
    let mut crng = StdRng::seed_from_u64(71);
    let keygen = KeyGenerator::new(&ctx, &mut crng);
    let conv = ClientConv::new(&ctx, &keygen, spec).expect("plan");
    std::thread::scope(|s| {
        let client = s.spawn(|| {
            conv.send_all(&client_t, &input, UploadPacing::Eager, &mut crng)
                .expect("send_all");
            conv.absorb_all(&client_t).expect("absorb_all")
        });
        let mut srng = StdRng::seed_from_u64(1312);
        serve_conv(&ctx, &server_t, &kernel, &backend, &mut srng).expect("serve_conv");
        client.join().expect("client thread")
    });
    let snap = metrics::global().snapshot();
    assert_eq!(
        snap.counter("spot_wire_tx_frames", &[]),
        0,
        "disabled registry must not accumulate wire counters"
    );
    assert!(
        snap.histogram("spot_conv_serve_ns", &[("scheme", "spot")])
            .map(|h| h.count)
            .unwrap_or(0)
            == 0,
        "disabled registry must not record serve latencies"
    );
}
