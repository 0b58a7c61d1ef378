//! Model-owner server for the TinyCnn demo.
//!
//! By default this is a **multi-tenant server**: an accept loop admits
//! up to `--max-sessions` concurrent TCP sessions, each served on its
//! own thread through a shared [`spot_core::serving::SpotServer`] — one
//! [`ModelContext`] (HE context, weights, NTT-domain kernel caches
//! built once per model) and one bounded worker pool multiplexed
//! across every connection. Connections past the cap, or `Setup`
//! batches past `--max-batch`, are refused with a typed wire error.
//!
//! `--once` keeps the original single-connection demo: accept one
//! client, run the session on the main thread, print the stall/traffic
//! report, and exit (the loopback CI jobs and `results/tcp_demo.txt`
//! rely on this exact behavior).
//!
//! `--admin <addr>` starts the live observability endpoint
//! ([`spot_core::admin`]): `GET /metrics` (Prometheus text),
//! `/healthz`, `/sessions`. Diagnostics go through the `SPOT_LOG`
//! leveled logger (`SPOT_LOG=debug` for per-session detail).
//!
//! The flags are `USAGE`'s; any other argument exits 2 and prints it.
//!
//! [`ModelContext`]: spot_core::serving::ModelContext

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_bench::{arg_value, refuse_unknown_args};
use spot_core::admin::AdminServer;
use spot_core::executor::Executor;
use spot_core::inference::TinyCnn;
use spot_core::serving::{ModelContext, ServingConfig, SpotServer};
use spot_core::session::ExecBackend;
use spot_core::stream::{stall_table, StreamConfig};
use spot_core::twoparty::run_server;
use spot_he::context::Context;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_pipeline::report::{transfer_table, TransferRow};
use spot_proto::channel::LinkModel;
use spot_proto::transport::{TcpTransport, Transport};
use spot_trace::{log_error, log_info, log_warn, Counter};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: spot-server [--listen 127.0.0.1:7341] [--backend streaming|phased] \
     [--threads N] [--capacity N] [--seed S] [--trace out.json] [--once] [--max-sessions N] \
     [--max-batch N] [--pool N] [--serve N] [--read-timeout-ms MS] [--admin ADDR] \
     [--linger-ms MS]";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    refuse_unknown_args(&args, USAGE);
    let listen = arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:7341".into());
    let backend_name = arg_value(&args, "--backend").unwrap_or_else(|| "streaming".into());
    let threads: usize = arg_value(&args, "--threads")
        .map(|v| v.parse().expect("--threads takes a number"))
        .unwrap_or(2);
    let capacity: usize = arg_value(&args, "--capacity")
        .map(|v| v.parse().expect("--capacity takes a number"))
        .unwrap_or(2);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed takes a number"))
        .unwrap_or(1312);
    let trace_path = arg_value(&args, "--trace");
    let trace_baseline = trace_path
        .as_ref()
        .map(|_| spot_bench::traceio::trace_begin());

    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let cnn = TinyCnn::new(7);
    let listener = TcpListener::bind(&listen).expect("bind listen address");

    if args.iter().any(|a| a == "--once") {
        serve_once(
            &listener,
            &ctx,
            &cnn,
            &backend_name,
            threads,
            capacity,
            seed,
            trace_path.as_deref(),
            trace_baseline.as_ref(),
        );
        return;
    }

    let max_sessions: usize = arg_value(&args, "--max-sessions")
        .map(|v| v.parse().expect("--max-sessions takes a number"))
        .unwrap_or(16);
    let max_batch: Option<usize> =
        arg_value(&args, "--max-batch").map(|v| v.parse().expect("--max-batch takes a number"));
    let pool_workers: usize = arg_value(&args, "--pool")
        .map(|v| v.parse().expect("--pool takes a number"))
        .unwrap_or_else(|| threads.saturating_sub(1));
    let serve_limit: usize = arg_value(&args, "--serve")
        .map(|v| v.parse().expect("--serve takes a number"))
        .unwrap_or(0);
    let read_timeout_ms: Option<u64> = arg_value(&args, "--read-timeout-ms")
        .map(|v| v.parse().expect("--read-timeout-ms takes a number"));
    let admin_addr = arg_value(&args, "--admin");
    let linger_ms: u64 = arg_value(&args, "--linger-ms")
        .map(|v| v.parse().expect("--linger-ms takes a number"))
        .unwrap_or(0);

    let streaming = match backend_name.as_str() {
        "phased" => false,
        "streaming" => true,
        other => panic!("unknown backend {other:?} (use streaming|phased)"),
    };
    let config = ServingConfig {
        max_sessions,
        max_batch,
        threads_per_session: threads,
        pool_workers,
        streaming,
        channel_capacity: capacity,
        base_seed: seed,
    };
    let model = ModelContext::new("tinycnn-7", ctx, cnn);
    let server = Arc::new(SpotServer::new(model, config));

    let admin = admin_addr.map(|addr| {
        let handle = AdminServer::bind(&addr, Arc::clone(&server)).expect("bind admin address");
        log_info!("server", "admin endpoint on http://{}", handle.addr());
        handle
    });

    println!(
        "spot-server: listening on {} (serving mode, backend {backend_name}, max {max_sessions} \
         sessions, {pool_workers} pool workers)",
        listener.local_addr().expect("local addr")
    );

    let mut handles = Vec::new();
    let mut accepted = 0usize;
    while serve_limit == 0 || accepted < serve_limit {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                log_error!("server", "accept failed: {e}");
                continue;
            }
        };
        accepted += 1;
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            let transport = match TcpTransport::from_stream(stream) {
                Ok(t) => t,
                Err(e) => {
                    log_warn!("server", "rejecting {peer}: {e}");
                    return;
                }
            };
            if let Some(ms) = read_timeout_ms {
                let _ = transport.set_read_timeout(Some(Duration::from_millis(ms)));
            }
            let report = server.serve_connection(&transport);
            match &report.result {
                Ok(r) => log_info!(
                    "server",
                    "session {} ({peer}) done — batch {}, {} rotations, \
                     kernel cache {} builds / {} hits, {:.3}s",
                    report.id,
                    r.batch,
                    r.counts.rotate,
                    report.counters.get(Counter::KernelCacheBuild),
                    report.counters.get(Counter::KernelCacheHit),
                    report.wall.as_secs_f64()
                ),
                Err(e) if report.id == u64::MAX => {
                    log_warn!("server", "refused {peer}: {e}")
                }
                Err(e) => log_warn!("server", "session {} ({peer}) failed: {e}", report.id),
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let stats = server.stats();
    println!(
        "spot-server: served {} sessions ({} failed, {} rejected), {} shared kernel cache entries",
        stats.served,
        stats.failed,
        stats.rejected,
        server.model().caches().total_entries()
    );
    // Keep the process (and admin endpoint) alive briefly so a smoke
    // test can take a final /metrics scrape of the completed totals.
    if linger_ms > 0 {
        std::thread::sleep(Duration::from_millis(linger_ms));
    }
    if let Some(handle) = admin {
        handle.shutdown();
    }
    if let (Some(path), Some(baseline)) = (&trace_path, &trace_baseline) {
        spot_bench::traceio::trace_finish(std::path::Path::new(path), baseline);
    }
}

/// The original single-client demo path (`--once`): accept exactly one
/// connection, serve it on the main thread, print the full report.
#[allow(clippy::too_many_arguments)]
fn serve_once(
    listener: &TcpListener,
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    backend_name: &str,
    threads: usize,
    capacity: usize,
    seed: u64,
    trace_path: Option<&str>,
    trace_baseline: Option<&spot_trace::CounterSnapshot>,
) {
    let backend = match backend_name {
        "phased" => ExecBackend::Phased(Executor::new(threads)),
        "streaming" => ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), capacity)),
        other => panic!("unknown backend {other:?} (use streaming|phased)"),
    };
    println!(
        "spot-server: listening on {} (backend {backend_name}, {threads} threads)",
        listener.local_addr().expect("local addr")
    );
    let (stream, peer) = listener.accept().expect("accept client");
    println!("spot-server: client connected from {peer}");
    let transport = TcpTransport::from_stream(stream).expect("wrap stream");

    let mut rng = StdRng::seed_from_u64(seed);
    let report = run_server(ctx, &transport, cnn, &backend, &mut rng).expect("server session");

    println!(
        "spot-server: done — {} input cts, {} output cts, {} rotations, {} plain mults",
        report.input_cts, report.output_cts, report.counts.rotate, report.counts.mult_plain
    );
    if report.batch > 1 {
        // Batched sessions run the rotation/key-switch schedule once for
        // the whole batch, so each image pays 1/batch of it.
        println!(
            "spot-server: batch {} — amortized {:.1} rotations/image, {:.1} plain mults/image",
            report.batch,
            spot_proto::cost::amortized_per_image(report.counts.rotate, report.batch),
            spot_proto::cost::amortized_per_image(report.counts.mult_plain, report.batch),
        );
        if let Some(baseline) = trace_baseline {
            let delta = spot_trace::counters().delta(baseline);
            println!(
                "spot-server: traced {:.1} key switches/image, {:.1} rotations/image",
                spot_proto::cost::amortized_per_image(
                    delta.get(spot_trace::Counter::KeySwitch),
                    report.batch
                ),
                spot_proto::cost::amortized_per_image(
                    delta.get(spot_trace::Counter::Rotate),
                    report.batch
                ),
            );
        }
    }
    if report.stream.input_items > 0 {
        println!(
            "{}",
            stall_table(
                "Measured stall accounting (both conv layers)",
                &[("TinyCnn server", &report.stream)]
            )
        );
    }
    let stats = transport.stats();
    let link = LinkModel::lan();
    println!(
        "{}",
        transfer_table(
            "Server-side wire traffic (measured vs LAN model)",
            &[
                TransferRow {
                    direction: "client -> server".into(),
                    bytes: stats.received.bytes,
                    messages: stats.received.messages,
                    measured_s: 0.0,
                    send_blocked_s: 0.0,
                    modeled_s: link.transfer_time(stats.received.bytes as usize),
                },
                TransferRow {
                    direction: "server -> client".into(),
                    bytes: stats.sent.bytes,
                    messages: stats.sent.messages,
                    measured_s: 0.0,
                    send_blocked_s: stats.send_blocked.as_secs_f64(),
                    modeled_s: link.transfer_time(stats.sent.bytes as usize),
                },
            ]
        )
    );
    if let (Some(path), Some(baseline)) = (trace_path, trace_baseline) {
        spot_bench::traceio::trace_finish(std::path::Path::new(path), baseline);
    }
}
