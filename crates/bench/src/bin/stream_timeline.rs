//! Measured pipeline timeline: runs each scheme through the server's
//! conv driver (`spot-core::stream`) on a scaled-down Table-I-class
//! layer with a single-thread server and a 2-ciphertext client budget,
//! then dumps the measured stall table, each scheme's whole in-process
//! session time under the phased and the streamed harness, a
//! Gantt-style span trace per scheme (from the `spot-trace` layer), and
//! the spot-he buffer pool's steady-state allocation counters.
//!
//! ```text
//! stream-timeline [--trace out.json]
//! ```
//!
//! With `--trace` the full run (all three schemes) is also exported as
//! Chrome-trace JSON loadable in Perfetto / `chrome://tracing`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::heconv::{ConvRequest, HeConvEngine, KernelCache};
use spot_core::layout::LaneLayout;
use spot_core::patching::PatchMode;
use spot_core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot_core::spot::blocking;
use spot_core::stream::{stall_table, StreamConfig, StreamStats};
use spot_he::pool;
use spot_he::prelude::*;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::{Cat, Counter, Event, Phase, SessionCounters};
use std::sync::Arc;
use std::time::Instant;

const MAX_EVENTS: usize = 48;

/// Lane label for a recorded thread id: the thread's trace label when
/// it set one (`client`, `server-ingest`, `server-0`, ...), else the
/// session thread that masks and returns results.
fn lane_of(threads: &[(u32, String)], tid: u32) -> &str {
    threads
        .iter()
        .find(|(t, _)| *t == tid)
        .map(|(_, n)| n.as_str())
        .unwrap_or("assemble")
}

fn dump_gantt(
    scheme: SchemeKind,
    stats: &StreamStats,
    events: &[Event],
    threads: &[(u32, String)],
) {
    println!(
        "--- {} timeline ({} in cts, {} out cts, wall {:.3}s) ---",
        scheme.label(),
        stats.input_items,
        stats.output_items,
        stats.wall_s
    );
    // The driver's spans on the server, and on the client thread the
    // upload itself: one `send` per frame (the hello, the rotation keys,
    // then each ciphertext as it is encrypted). The server's per-frame
    // Net spans and the HE counters would drown the Gantt view (they
    // stay in the JSON export).
    let spans: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.phase, Phase::Span { .. }))
        .filter(|e| match e.cat {
            Cat::Stream => true,
            Cat::Net => lane_of(threads, e.tid) == "client" && e.name.as_str() == "send",
            _ => false,
        })
        .collect();
    let t0 = spans.iter().map(|e| e.ts_ns).min().unwrap_or(0);
    for ev in spans.iter().take(MAX_EVENTS) {
        let lane = lane_of(threads, ev.tid);
        let indent = if lane == "client" {
            0
        } else if lane.starts_with("server-") {
            24
        } else {
            48
        };
        println!(
            "{:>8.3}s {:>8.3}s {:indent$}{} [{}]",
            (ev.ts_ns - t0) as f64 / 1e9,
            (ev.end_ns() - t0) as f64 / 1e9,
            "",
            ev.name.as_str(),
            lane,
            indent = indent
        );
    }
    if spans.len() > MAX_EVENTS {
        println!("... ({} more events)", spans.len() - MAX_EVENTS);
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace_path = spot_bench::arg_value(&args, "--trace");
    let trace_baseline = spot_bench::traceio::trace_begin();

    let ctx = spot_he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut keyrng = StdRng::seed_from_u64(5150);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    // Scaled-down Table-I-class layer: 16x16 map, C_i = 32 → two
    // channel-wise input ciphertexts at N4096, so the all-input schemes
    // really wait out more than one upload.
    let input = Tensor::random(32, 16, 16, 4, 81);
    let kernel = Kernel::random(4, 32, 3, 3, 3, 82);
    let cfg = StreamConfig::new(Executor::serial(), 2);

    println!("Streamed conv layer: 16x16, C_i=32 -> C_o=4, k=3 at N4096");
    println!("server = 1 thread, client ciphertext budget (channel capacity) = 2\n");

    let mut timelines = Vec::new();
    let mut session_s = Vec::new();
    let mut all_events: Vec<Event> = Vec::new();
    for scheme in SchemeKind::ALL {
        let spec = LayerSpec::for_layer(scheme, &input, &kernel, 1, (4, 4), PatchMode::Tweaked);
        let session = |backend: &ExecBackend| {
            let mut rng = StdRng::seed_from_u64(7000);
            let start = Instant::now();
            let inputs = std::slice::from_ref(&input);
            let outcome = run_in_process(&ctx, &keygen, spec, inputs, &kernel, backend, &mut rng)
                .expect("in-process session");
            (outcome.stream, start.elapsed().as_secs_f64())
        };
        let (_, phased_s) = session(&ExecBackend::Phased(Executor::serial()));
        let _ = spot_trace::take_events(); // clear the phased run and any setup noise
        let (stats, streamed_s) = session(&ExecBackend::Streaming(cfg));
        let events = spot_trace::take_events();
        all_events.extend(events.iter().cloned());
        session_s.push((scheme, phased_s, streamed_s));
        timelines.push((scheme, stats, events));
    }
    let threads = spot_trace::thread_names();
    let rows: Vec<(&str, &StreamStats)> = (timelines.iter())
        .map(|(scheme, stats, _)| (scheme.label(), stats))
        .collect();
    println!(
        "{}",
        stall_table("Measured stall accounting (single-thread server)", &rows)
    );
    println!("== Whole in-process session, client and server (one run each) ==");
    println!("{:<12}{:>10}{:>10}", "scheme", "phased", "streamed");
    for (scheme, phased_s, streamed_s) in &session_s {
        println!("{:<12}{phased_s:>9.3}s{streamed_s:>9.3}s", scheme.label());
    }
    println!(
        "\nA job waits for the inputs it reads: SPOT's read one ciphertext\n\
         each, so the server is busy during the upload; the all-input\n\
         schemes' read every one, so each worker waits until the last\n\
         lands (\"server idle\" = worker time blocked waiting for a\n\
         runnable job or for a rotation key while the upload is open,\n\
         the paper's linear computation stall, and \"of it: keys\" the\n\
         rotation-key part of it; the rotating schemes' first job runs\n\
         while the client is still making keys, and each `wait key`\n\
         below is one key it got to before the client did). \"client\"\n\
         columns are the uploader thread's.\n\
         Both parties here run at the same speed on one host, so an upload\n\
         is about a millisecond per ciphertext and the all-input stall is\n\
         small; the stall the paper targets needs a client slower than the\n\
         server, which crates/core/tests/streaming_determinism.rs models.\n"
    );

    for (scheme, stats, events) in &timelines {
        dump_gantt(*scheme, stats, events, &threads);
    }

    // Buffer-pool steady state: the same SPOT ciphertext convolution
    // twice on this thread, below the session layer (whose driver runs
    // each round's workers on fresh threads, each with a pool of its
    // own) — the second (warm) run draws its polynomial buffers from
    // the pool instead of the allocator.
    println!("== spot-he buffer pool: cold vs warm SPOT ciphertext convolution ==");
    let small_k = Kernel::random(4, 4, 3, 3, 4, 12);
    let blk = blocking(4, 4);
    let layout = LaneLayout::new(ctx.degree() / 2, blk.lane_blocks, 8, 8);
    let walk = blk.walk(layout, (4, 4), (3, 3));
    let req = ConvRequest {
        walk: &walk,
        kernel: &small_k,
        cache_tag: 0,
    };
    let mut rng = StdRng::seed_from_u64(9900);
    let galois = Arc::new(keygen.galois_keys(&walk.elements(), &mut rng));
    let engine = HeConvEngine::new(&ctx, &galois, KernelCache::new());
    let values: Vec<u64> = (0..ctx.degree() as u64).map(|i| i % 97).collect();
    let ct = Encryptor::new(&ctx, keygen.public_key(&mut rng))
        .encrypt(&BatchEncoder::new(&ctx).encode(&values), &mut rng);
    // Give the pool room for a whole convolution's buffers so the warm
    // run measures pure steady-state reuse.
    let prev_cap = pool::capacity();
    pool::set_capacity(512);
    pool::clear();
    // The pool's counts of one convolution: fresh (misses), reused
    // (hits), recycled and dropped buffers.
    let conv = || {
        let sink = SessionCounters::new(0);
        let prev = spot_trace::set_session_counters(Some(Arc::clone(&sink)));
        engine
            .conv_one_ct(&ct, &req)
            .expect("the key set is complete");
        spot_trace::set_session_counters(prev);
        let counts = sink.snapshot();
        let pool = [
            Counter::PoolMiss,
            Counter::PoolHit,
            Counter::PoolRecycled,
            Counter::PoolDropped,
        ];
        pool.map(|c| counts.get(c))
    };
    let (cold, warm) = (conv(), conv());
    let reuse =
        |[fresh, reused, ..]: [u64; 4]| 100.0 * reused as f64 / (fresh + reused).max(1) as f64;
    for (tag, s @ [fresh, reused, recycled, dropped]) in [("cold", cold), ("warm", warm)] {
        println!(
            "{tag}: fresh {fresh:>6}  reused {reused:>6}  recycled {recycled:>6}  \
             dropped {dropped:>6}  (reuse {:.1}%)",
            reuse(s)
        );
    }
    pool::set_capacity(prev_cap);
    println!(
        "\nSteady state: the warm run's fresh allocations drop {:.0}x\n\
         while its buffer reuse covers {:.1}% of takes.",
        cold[0] as f64 / warm[0].max(1) as f64,
        reuse(warm)
    );

    if let Some(path) = &trace_path {
        // Re-seed the sink with everything drained per scheme (plus the
        // pool exercise above) so the export covers the whole run.
        let pool_events = spot_trace::take_events();
        all_events.extend(pool_events);
        let json = spot_trace::chrome::chrome_trace_json_with_threads(&all_events, &threads);
        spot_bench::traceio::write_trace_json(std::path::Path::new(path), &json);
        let delta = spot_trace::counters().delta(&trace_baseline);
        println!("trace: {} events, JSON OK -> {path}", all_events.len());
        println!("{}", spot_trace::summary::text_summary(&all_events, &delta));
    }
}
