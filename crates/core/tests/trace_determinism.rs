//! The trace layer must not perturb — or be perturbed by — the
//! execution it observes: a traced session produces the same span-name
//! multiset and the same deterministic counter totals across worker
//! thread counts (1 vs 8) and transports (Mem vs TCP loopback), for
//! every scheme. Conditional wait spans (`idle`, `blocked (channel
//! full)`) and timing/pool counters are scheduling-dependent by design
//! and are excluded; everything per-item or per-frame must match
//! exactly. The Chrome-trace export must also be valid JSON whose
//! parent links nest properly.
//!
//! All tests share the process-global trace sink, so they serialize on
//! one lock and reset state around each scenario.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv_with, ClientConv, ExecBackend, LayerSpec, SchemeKind, ServeOptions, UploadPacing,
};
use spot_core::stream::StreamConfig;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, TcpTransport, Transport};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::{Counter, CounterSnapshot, Event, Phase};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

/// Span names whose presence depends on scheduling: a worker only
/// records `idle` or `wait key` when it actually waited, the ingest
/// thread only records a blocked span when the queue was full.
const SCHEDULING_SPANS: &[&str] = &["idle", "wait key", "blocked (channel full)"];

/// Counters that are exact per run regardless of worker count or
/// transport. Excluded: pool hit/miss/recycle (cache state), the
/// `*_blocked_ns` timings, and the NTT counters (the NTT-domain kernel
/// cache may fill the same entry twice under concurrent first access).
const DETERMINISTIC_COUNTERS: &[Counter] = &[
    Counter::Rotate,
    Counter::KeySwitch,
    Counter::ModSwitch,
    Counter::Encrypt,
    Counter::Decrypt,
    Counter::AddOps,
    Counter::MultPlain,
    Counter::QueuePushed,
    Counter::QueuePopped,
    Counter::TxBytes,
    Counter::TxFrames,
    Counter::RxBytes,
    Counter::RxFrames,
];

struct TraceRun {
    events: Vec<Event>,
    counters: CounterSnapshot,
    client_share: Tensor,
}

fn span_multiset(events: &[Event]) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for e in events {
        if !matches!(e.phase, Phase::Span { .. }) {
            continue;
        }
        let name = e.name.as_str();
        if SCHEDULING_SPANS.contains(&name) {
            continue;
        }
        *m.entry(format!("{}/{}", e.cat.name(), name)).or_insert(0) += 1;
    }
    m
}

fn deterministic_counters(snap: &CounterSnapshot) -> Vec<(&'static str, u64)> {
    DETERMINISTIC_COUNTERS
        .iter()
        .map(|&c| (c.name(), snap.get(c)))
        .collect()
}

fn run_session(
    ctx: &Arc<Context>,
    spec: LayerSpec,
    kernel: &Kernel,
    input: &Tensor,
    backend: &ExecBackend,
    client_t: &dyn Transport,
    server_t: &dyn Transport,
) -> TraceRun {
    spot_trace::reset();
    spot_trace::enable();
    let baseline = spot_trace::counters();
    let mut crng = StdRng::seed_from_u64(71);
    let keygen = KeyGenerator::new(ctx, &mut crng);
    let conv = ClientConv::new(ctx, &keygen, spec).expect("plan");
    let (share, served) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            conv.send_all(client_t, input, UploadPacing::Eager, &mut crng)
                .expect("send_all");
            let share = conv.absorb_all(client_t).expect("absorb_all");
            spot_trace::flush_thread();
            share
        });
        let mut srng = StdRng::seed_from_u64(1312);
        let served = serve_conv_with(
            ctx,
            server_t,
            kernel,
            backend,
            ServeOptions::default(),
            &mut srng,
        )
        .expect("serve_conv");
        (client.join().expect("client thread"), served)
    });
    let counters = spot_trace::counters().delta(&baseline);
    // The layer's reported tally and the trace counters are bumped by
    // one method of the layer's evaluator, and only the server evaluates.
    assert_eq!(
        (
            served.counts.rotate,
            served.counts.mult_plain,
            served.counts.add
        ),
        (
            counters.get(Counter::Rotate),
            counters.get(Counter::MultPlain),
            counters.get(Counter::AddOps)
        ),
        "{:?}: serve_conv's counts differ from the run's trace counters",
        spec.scheme
    );
    // Every result leaves the server switched down to two primes, and
    // nothing else switches: one `mod_switch` per output ciphertext.
    assert_eq!(
        (counters.get(Counter::ModSwitch), share.output_cts),
        (served.output_cts as u64, served.output_cts),
        "{:?}: one modulus switch per result sent",
        spec.scheme
    );
    let events = spot_trace::take_events();
    spot_trace::disable();
    TraceRun {
        events,
        counters,
        client_share: share.share,
    }
}

fn run_mem(scheme: SchemeKind, threads: usize) -> TraceRun {
    let (ctx, spec, kernel, input) = fixture(scheme);
    let backend = ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), 2));
    let (client_t, server_t) = MemTransport::pair();
    run_session(&ctx, spec, &kernel, &input, &backend, &client_t, &server_t)
}

fn run_tcp(scheme: SchemeKind, threads: usize) -> TraceRun {
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
fn trace_deterministic_across_threads_and_transports() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for scheme in [
        SchemeKind::Spot,
        SchemeKind::Channelwise,
        SchemeKind::Cheetah,
    ] {
        let runs = [
            ("mem/1t", run_mem(scheme, 1)),
            ("mem/8t", run_mem(scheme, 8)),
            ("tcp/1t", run_tcp(scheme, 1)),
            ("tcp/8t", run_tcp(scheme, 8)),
        ];
        let base = &runs[0].1;
        let base_spans = span_multiset(&base.events);
        let base_counts = deterministic_counters(&base.counters);
        assert!(
            !base_spans.is_empty(),
            "{scheme:?}: traced run recorded no spans"
        );
        for (tag, run) in &runs {
            // Every conv-driver queue hand-off is pushed once and
            // popped once, and the driver ran.
            let (pushed, popped) = (
                run.counters.get(Counter::QueuePushed),
                run.counters.get(Counter::QueuePopped),
            );
            assert!(
                pushed > 0 && pushed == popped,
                "{scheme:?} {tag}: queue_pushed {pushed} vs queue_popped {popped}"
            );
            assert_eq!(
                base.client_share, run.client_share,
                "{scheme:?} {tag}: tracing perturbed the computed share"
            );
            assert_eq!(
                base_spans,
                span_multiset(&run.events),
                "{scheme:?} {tag}: span-name multiset differs from mem/1t"
            );
            assert_eq!(
                base_counts,
                deterministic_counters(&run.counters),
                "{scheme:?} {tag}: deterministic counter totals differ from mem/1t"
            );
        }
    }
}

#[test]
fn chrome_export_is_valid_json_and_spans_nest() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = run_mem(SchemeKind::Spot, 2);
    assert!(!run.events.is_empty(), "traced run recorded no events");

    let threads = spot_trace::thread_names();
    let json = spot_trace::chrome::chrome_trace_json_with_threads(&run.events, &threads);
    spot_trace::json::validate(&json).expect("chrome trace export is valid JSON");

    // Every parent link must point at a span on the same thread whose
    // interval encloses the child's start.
    for e in &run.events {
        if e.parent == 0 {
            continue;
        }
        let parent = run
            .events
            .iter()
            .find(|p| p.id == e.parent && p.tid == e.tid && matches!(p.phase, Phase::Span { .. }))
            .unwrap_or_else(|| panic!("event {:?} has dangling parent {}", e.name, e.parent));
        assert!(
            parent.ts_ns <= e.ts_ns && e.ts_ns <= parent.end_ns(),
            "child {:?} at {} escapes parent {:?} [{}, {}]",
            e.name,
            e.ts_ns,
            parent.name,
            parent.ts_ns,
            parent.end_ns()
        );
    }

    // The session-level spans made it into the trace.
    let spans = span_multiset(&run.events);
    assert!(spans.keys().any(|k| k == "session/serve_conv spot"));
    assert!(spans.keys().any(|k| k == "session/send_all spot"));
    assert!(spans.keys().any(|k| k.starts_with("stream/conv #")));
}
