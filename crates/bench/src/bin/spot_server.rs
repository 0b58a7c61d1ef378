//! Model-owner server for the TinyCnn demo.
//!
//! An accept loop admits up to `--max-sessions` concurrent TCP
//! sessions, each served on its own thread through a shared
//! [`spot_core::serving::SpotServer`] — one [`ModelContext`] (HE
//! context, weights, NTT-domain kernel caches built once per model) and
//! one bounded worker pool multiplexed across every connection.
//! Connections past the cap, or `Setup` batches past `--max-batch`, are
//! refused with a typed wire error. Every session bounds the server's
//! read-ahead at `--capacity` frames.
//!
//! `--serve N` ends the run after N connections (0, the default, serves
//! until killed). On exit the server prints one report summed over its
//! sessions: the stall table of the sessions that finished, the wire
//! traffic of every connection (failed and refused ones moved bytes
//! too) and, for batched sessions, the amortized HE work per image. The
//! loop joins finished session threads before each accept.
//!
//! Each session that finishes logs one `done` line with its own stall:
//! the workers' busy share, their idle seconds and, of those, the wait
//! for rotation keys. Diagnostics go through the `SPOT_LOG` leveled
//! logger (`SPOT_LOG=debug` for per-session detail).
//!
//! The flags are `USAGE`'s; any other argument exits 2 and prints it.
//!
//! [`ModelContext`]: spot_core::serving::ModelContext

use spot_bench::{arg_value, refuse_unknown_args};
use spot_core::inference::TinyCnn;
use spot_core::serving::{ModelContext, ServingConfig, SessionReport, SpotServer};
use spot_core::stream::{stall_table, StreamStats};
use spot_he::context::Context;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_pipeline::report::{transfer_table, TransferRow};
use spot_proto::channel::{LinkModel, TrafficStats};
use spot_proto::cost::amortized_per_image;
use spot_proto::transport::{TcpTransport, TransportStats};
use spot_trace::{log_error, log_info, log_warn, Counter};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const USAGE: &str = "usage: spot-server [--listen 127.0.0.1:7341] [--threads N] [--capacity N] \
     [--seed S] [--trace out.json] [--max-sessions N] [--max-batch N] [--pool N] [--serve N] \
     [--read-timeout-ms MS]";

/// What the exit report sums over the sessions that ran.
#[derive(Default)]
struct Totals {
    stream: StreamStats,
    traffic: TransportStats,
    /// Images of the batched sessions, and the rotations, key switches
    /// and plain mults their counter sinks saw.
    batched_images: u64,
    batched_work: [u64; 3],
}

impl Totals {
    fn join(&mut self, session: JoinHandle<Option<SessionReport>>) {
        let Ok(Some(report)) = session.join() else {
            return;
        };
        let (t, r) = (&mut self.traffic, &report.traffic);
        t.sent.bytes += r.sent.bytes;
        t.sent.messages += r.sent.messages;
        t.received.bytes += r.received.bytes;
        t.received.messages += r.received.messages;
        t.send_blocked += r.send_blocked;
        let Ok(run) = &report.result else { return };
        self.stream.accumulate(&run.stream);
        if run.batch > 1 {
            self.batched_images += run.batch as u64;
            let work = [Counter::Rotate, Counter::KeySwitch, Counter::MultPlain];
            for (sum, c) in self.batched_work.iter_mut().zip(work) {
                *sum += report.counters.get(c);
            }
        }
    }

    fn print(&self) {
        let images = self.batched_images as usize;
        if images > 0 {
            // A batch runs the rotation/key-switch schedule once for all
            // its images, so each image pays 1/batch of it.
            let [rotations, key_switches, mults] =
                self.batched_work.map(|n| amortized_per_image(n, images));
            println!(
                "spot-server: {images} batched images — amortized {:.1} rotations/image, \
                 {:.1} key switches/image, {:.1} plain mults/image",
                rotations, key_switches, mults
            );
        }
        if self.stream.input_items > 0 {
            println!(
                "{}",
                stall_table(
                    "Measured stall accounting (every session, both conv layers)",
                    &[("TinyCnn server", &self.stream)]
                )
            );
        }
        let link = LinkModel::lan();
        let row = |direction: &str, t: TrafficStats, blocked: Duration| TransferRow {
            direction: direction.into(),
            bytes: t.bytes,
            messages: t.messages,
            measured_s: 0.0,
            send_blocked_s: blocked.as_secs_f64(),
            modeled_s: link.transfer_time(t.bytes as usize),
        };
        let t = &self.traffic;
        println!(
            "{}",
            transfer_table(
                "Server-side wire traffic, every session (measured vs LAN model)",
                &[
                    row("client -> server", t.received, Duration::ZERO),
                    row("server -> client", t.sent, t.send_blocked),
                ]
            )
        );
    }
}

/// Joins the session threads that have finished into `totals`.
fn join_finished(sessions: &mut Vec<JoinHandle<Option<SessionReport>>>, totals: &mut Totals) {
    let (done, running): (Vec<_>, _) = std::mem::take(sessions)
        .into_iter()
        .partition(|h| h.is_finished());
    *sessions = running;
    done.into_iter().for_each(|h| totals.join(h));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    refuse_unknown_args(&args, USAGE);
    let listen = arg_value(&args, "--listen").unwrap_or_else(|| "127.0.0.1:7341".into());
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

    let listener = TcpListener::bind(&listen).expect("bind listen address");
    let config = ServingConfig {
        max_sessions,
        max_batch,
        threads_per_session: threads,
        pool_workers,
        streaming: true,
        channel_capacity: capacity,
        base_seed: seed,
    };
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let model = ModelContext::new("tinycnn-7", ctx, TinyCnn::new(7));
    let server = Arc::new(SpotServer::new(model, config));

    println!(
        "spot-server: listening on {} (max {max_sessions} sessions, {pool_workers} pool workers, \
         read-ahead {capacity})",
        listener.local_addr().expect("local addr")
    );

    let mut sessions = Vec::new();
    let mut totals = Totals::default();
    let mut accepted = 0usize;
    while serve_limit == 0 || accepted < serve_limit {
        join_finished(&mut sessions, &mut totals);
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                log_error!("server", "accept failed: {e}");
                continue;
            }
        };
        accepted += 1;
        let server = Arc::clone(&server);
        sessions.push(std::thread::spawn(move || {
            let transport = match TcpTransport::from_stream(stream) {
                Ok(t) => t,
                Err(e) => {
                    log_warn!("server", "rejecting {peer}: {e}");
                    return None;
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
                     kernel cache {} builds / {} hits, {:.3}s, server_busy_share {:.3}, \
                     server_idle_s {:.6}, key_wait_s {:.6}",
                    report.id,
                    r.batch,
                    r.counts.rotate,
                    report.counters.get(Counter::KernelCacheBuild),
                    report.counters.get(Counter::KernelCacheHit),
                    report.wall.as_secs_f64(),
                    r.stream.server_busy_share(),
                    r.stream.server_idle_s,
                    r.stream.key_wait_s
                ),
                Err(e) if report.id == u64::MAX => {
                    log_warn!("server", "refused {peer}: {e}")
                }
                Err(e) => log_warn!("server", "session {} ({peer}) failed: {e}", report.id),
            }
            Some(report)
        }));
    }
    sessions.into_iter().for_each(|h| totals.join(h));
    let stats = server.stats();
    println!(
        "spot-server: served {} sessions ({} failed, {} rejected), {} shared kernel cache entries",
        stats.served,
        stats.failed,
        stats.rejected,
        server.model().caches().total_entries()
    );
    totals.print();
    if let (Some(path), Some(baseline)) = (&trace_path, &trace_baseline) {
        spot_bench::traceio::trace_finish(std::path::Path::new(path), baseline);
    }
}
