//! Cross-party merge determinism: splitting one traced session into its
//! client and server halves and merging them back must yield the same
//! merged-timeline span multiset and the same per-layer overlap
//! structure — layer set, wire-trace-id matches, flow-arrow counts —
//! whether the session ran over Mem or TCP, on 1 or 8 server threads.
//! Wall-clock attribution (busy/idle nanoseconds, efficiency) is
//! scheduling-dependent by design and excluded. Tracing itself — wire
//! context included, which appends the trace id to the setup frame —
//! must leave the computed share bit-identical to an untraced run.
//!
//! All tests share the process-global trace sink, so they serialize on
//! one lock and reset state around each scenario.

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
use spot_trace::correlate::{self, MergeReport, Merged, PartyTrace};
use spot_trace::Phase;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

/// Span names whose presence depends on scheduling (a worker only
/// records `idle` or `wait key` when it actually waited).
const SCHEDULING_SPANS: &[&str] = &["idle", "wait key", "blocked (channel full)"];

struct MergedRun {
    merged: Merged,
    share: Tensor,
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

fn transports(tcp: bool) -> (Box<dyn Transport>, Box<dyn Transport>) {
    if tcp {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let accept = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            TcpTransport::from_stream(stream).expect("server transport")
        });
        let client = TcpTransport::connect(addr.to_string()).expect("connect loopback");
        (Box::new(client), Box::new(accept.join().expect("accept")))
    } else {
        let (c, s) = MemTransport::pair();
        (Box::new(c), Box::new(s))
    }
}

/// Runs one client/server session (client on a labeled thread), splits
/// the recorded events into per-party traces by thread id, and merges
/// them back — the in-process equivalent of the two-process
/// `spot-client --trace` / `spot-server --trace` / `trace_merge` flow.
fn run_traced(scheme: SchemeKind, threads: usize, tcp: bool) -> MergedRun {
    let (ctx, spec, kernel, input) = fixture(scheme);
    let backend = ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), 2));
    let (client_t, server_t) = transports(tcp);

    spot_trace::reset();
    spot_trace::enable();
    spot_trace::enable_wire_context();
    let mut crng = StdRng::seed_from_u64(71);
    let keygen = KeyGenerator::new(&ctx, &mut crng);
    let conv = ClientConv::new(&ctx, &keygen, spec).expect("plan");
    let share = std::thread::scope(|s| {
        let client = s.spawn(|| {
            spot_trace::set_thread_label("client");
            conv.send_all(client_t.as_ref(), &input, UploadPacing::Eager, &mut crng)
                .expect("send_all");
            let share = conv.absorb_all(client_t.as_ref()).expect("absorb_all");
            spot_trace::flush_thread();
            share
        });
        let mut srng = StdRng::seed_from_u64(1312);
        serve_conv(&ctx, server_t.as_ref(), &kernel, &backend, &mut srng).expect("serve_conv");
        client.join().expect("client thread")
    });
    let events = spot_trace::take_events();
    let names = spot_trace::thread_names();
    spot_trace::disable_wire_context();
    spot_trace::disable();

    // The thread-name registry accumulates across runs (reset() keeps
    // it), so find the client thread by the span it recorded, not by
    // label — each run's scoped client thread has a fresh tid.
    let client_tid = events
        .iter()
        .find(|e| e.name.as_str().starts_with("send_all"))
        .map(|e| e.tid)
        .expect("client send_all span recorded");
    let (cev, sev): (Vec<_>, Vec<_>) = events.into_iter().partition(|e| e.tid == client_tid);
    let party = |events: Vec<spot_trace::Event>| {
        let threads = names
            .iter()
            .filter(|(t, _)| events.iter().any(|e| e.tid == *t))
            .cloned()
            .collect();
        PartyTrace { events, threads }
    };
    let merged = correlate::merge(&party(cev), &party(sev));
    MergedRun {
        merged,
        share: share.share,
    }
}

/// Same session with the trace layer fully off (no sink, no wire
/// context, setup frames keep their 40-byte payload).
fn run_untraced(scheme: SchemeKind, threads: usize) -> Tensor {
    let (ctx, spec, kernel, input) = fixture(scheme);
    let backend = ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), 2));
    let (client_t, server_t) = transports(false);
    spot_trace::reset();
    let mut crng = StdRng::seed_from_u64(71);
    let keygen = KeyGenerator::new(&ctx, &mut crng);
    let conv = ClientConv::new(&ctx, &keygen, spec).expect("plan");
    let share = std::thread::scope(|s| {
        let client = s.spawn(|| {
            conv.send_all(client_t.as_ref(), &input, UploadPacing::Eager, &mut crng)
                .expect("send_all");
            conv.absorb_all(client_t.as_ref()).expect("absorb_all")
        });
        let mut srng = StdRng::seed_from_u64(1312);
        serve_conv(&ctx, server_t.as_ref(), &kernel, &backend, &mut srng).expect("serve_conv");
        client.join().expect("client thread")
    });
    share.share
}

/// Span-name multiset of the merged timeline, read back through the
/// Chrome-trace parser (so the export → parse → multiset path is the
/// one `trace_merge` exercises), minus the scheduling-dependent spans.
fn merged_span_multiset(merged: &Merged) -> BTreeMap<String, usize> {
    let party = correlate::parse_chrome_trace(&merged.json).expect("merged JSON parses back");
    let mut m = BTreeMap::new();
    for e in &party.events {
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

/// The deterministic part of the attribution: layer labels, whether
/// each layer matched by wire trace id, per-layer and total flow
/// counts. The nanosecond columns are wall-clock and excluded.
fn layer_structure(report: &MergeReport) -> (Vec<(String, bool, usize)>, usize) {
    (
        report
            .layers
            .iter()
            .map(|l| (l.label.clone(), l.trace != 0, l.flows))
            .collect(),
        report.flows.len(),
    )
}

#[test]
fn merged_timeline_deterministic_across_threads_and_transports() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = run_traced(SchemeKind::Spot, 1, false);
    spot_trace::json::validate(&base.merged.json).expect("merged trace is valid JSON");
    let base_spans = merged_span_multiset(&base.merged);
    let base_layers = layer_structure(&base.merged.report);
    assert!(!base_spans.is_empty(), "merged timeline recorded no spans");
    assert_eq!(
        base.merged.report.layers.len(),
        1,
        "one conv layer attributed"
    );
    let layer = &base.merged.report.layers[0];
    assert_ne!(layer.trace, 0, "layer matched by wire-propagated trace id");
    assert!(layer.flows > 0, "layer window contains flow arrows");
    assert!(layer.window_ns > 0, "layer window has extent");

    for (tag, run) in [
        ("mem/8t", run_traced(SchemeKind::Spot, 8, false)),
        ("tcp/1t", run_traced(SchemeKind::Spot, 1, true)),
        ("tcp/8t", run_traced(SchemeKind::Spot, 8, true)),
    ] {
        assert_eq!(
            base.share, run.share,
            "{tag}: merge-traced run perturbed the computed share"
        );
        assert_eq!(
            base_spans,
            merged_span_multiset(&run.merged),
            "{tag}: merged span multiset differs from mem/1t"
        );
        assert_eq!(
            base_layers,
            layer_structure(&run.merged.report),
            "{tag}: per-layer overlap structure differs from mem/1t"
        );
    }
}

#[test]
fn tracing_on_or_off_leaves_share_bit_identical() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for scheme in [SchemeKind::Spot, SchemeKind::Channelwise] {
        let untraced = run_untraced(scheme, 2);
        let traced = run_traced(scheme, 2, false);
        assert_eq!(
            untraced, traced.share,
            "{scheme:?}: tracing (with wire context) changed the share"
        );
        assert_eq!(
            traced.merged.report.layers.len(),
            1,
            "{scheme:?}: merge attributed the layer"
        );
    }
}
