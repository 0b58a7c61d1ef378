//! Load generator for the multi-tenant serving layer: simulates many
//! concurrent clients, each with its own key pair and a fresh session
//! per request, against either an in-process [`SpotServer`] (`--mem`)
//! or a running `spot-server` over TCP (`--connect ADDR`), and reports
//! p50/p99 latency, throughput, and the serving layer's kernel-cache
//! and admission counters.
//!
//! ```text
//! spot-loadgen (--mem | --connect ADDR)
//!              [--clients N] [--requests R] [--concurrency C]
//!              [--scheme spot|channelwise|cheetah] [--seed S]
//!              [--max-sessions N] [--sweep 1,8,64] [--json PATH]
//!              [--scrape ADDR] [--trace out.json]
//! ```
//!
//! Any other argument is refused with the usage line and exit code 2,
//! so a mistyped or retired flag never runs a scenario nobody asked
//! for.
//!
//! Latency percentiles (p50/p99/p99.9) come from the streaming
//! [`metrics::Histogram`] — fixed footprint however many requests a
//! sweep issues, mergeable across client threads, the same type the
//! server exposes on `/metrics`. `--scrape ADDR` polls a running
//! `spot-server --admin` endpoint after each scenario so
//! client-observed latency can be cross-checked against the
//! server-side view in one report.
//!
//! Every client verifies each reconstructed output against the
//! plaintext forward pass and prints `client I: output vs plain:
//! MATCH` (the serving-smoke CI job greps these), plus an `admission
//! rejects: N` total. Clients are closed-loop: each waits for its
//! result before the next request. `--sweep` (mem mode)
//! replays the scenario at several client counts against the **same**
//! server, demonstrating that kernel-cache builds happen once per
//! model, not per connection.
//!
//! The process exits non-zero on any output mismatch or protocol
//! error; admission rejects are reported but do not fail the run, so
//! capacity probing (`--max-sessions` below `--clients`) is usable.
//!
//! [`SpotServer`]: spot_core::serving::SpotServer

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_bench::check::{http_get, parse_prometheus};
use spot_bench::{arg_value, connect_with_retry, refuse_unknown_args, scheme_arg};
use spot_core::error::SpotError;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::serving::{ModelContext, ServingConfig, SessionReport, SpotServer};
use spot_core::session::SchemeKind;
use spot_core::twoparty::run_client_batch;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::MemTransport;
use spot_proto::{error_code, Queue, Transport};
use spot_tensor::tensor::Tensor;
use spot_trace::{log_warn, metrics, Counter};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: spot-loadgen (--mem | --connect ADDR) [--clients N] [--requests R] \
     [--concurrency C] [--scheme spot|channelwise|cheetah] [--seed S] [--max-sessions N] \
     [--sweep 1,8,64] [--json PATH] [--scrape ADDR] [--trace out.json]";

/// Where client sessions go: an in-process server (each connection is
/// a fresh `MemTransport` pair served on its own thread) or a TCP
/// address.
enum Upstream {
    Mem {
        server: Arc<SpotServer>,
        reports: Arc<Mutex<Vec<SessionReport>>>,
        handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    },
    Tcp {
        addr: String,
    },
}

impl Upstream {
    fn connect(&self) -> Result<Box<dyn Transport>, SpotError> {
        match self {
            Upstream::Mem {
                server,
                reports,
                handles,
            } => {
                let (client_end, server_end) = MemTransport::pair();
                let server = Arc::clone(server);
                let reports = Arc::clone(reports);
                let handle = std::thread::spawn(move || {
                    let report = server.serve_connection(&server_end);
                    reports.lock().expect("report lock").push(report);
                });
                handles.lock().expect("handle lock").push(handle);
                Ok(Box::new(client_end))
            }
            Upstream::Tcp { addr } => Ok(Box::new(connect_with_retry(addr)?)),
        }
    }

    /// Joins mem-mode server threads and drains their session reports.
    fn drain_reports(&self) -> Vec<SessionReport> {
        match self {
            Upstream::Mem {
                reports, handles, ..
            } => {
                for h in handles.lock().expect("handle lock").drain(..) {
                    let _ = h.join();
                }
                std::mem::take(&mut reports.lock().expect("report lock"))
            }
            Upstream::Tcp { .. } => Vec::new(),
        }
    }
}

#[derive(Debug, Default)]
struct ClientResult {
    matched: usize,
    mismatched: usize,
    errors: usize,
    rejects: usize,
    // Streaming latency histogram (nanoseconds): fixed footprint no
    // matter how many requests a sweep issues, and merges exactly with
    // the other clients' — the same type the server serves on /metrics.
    latency: metrics::Histogram,
}

impl ClientResult {
    fn absorb(&mut self, want: &Tensor, got: Result<Tensor, SpotError>, latency: Duration) {
        // record(), not observe(): this histogram is loadgen-owned and
        // counts regardless of the process-wide metrics switch.
        self.latency.record(latency.as_nanos() as u64);
        match got {
            Ok(out) if out == *want => self.matched += 1,
            Ok(_) => self.mismatched += 1,
            Err(SpotError::Rejected { code, .. }) if code == error_code::SERVER_FULL => {
                self.rejects += 1
            }
            Err(_) => self.errors += 1,
        }
    }
}

struct Scenario {
    clients: usize,
    requests: usize,
    scheme: SchemeKind,
    seed: u64,
    concurrency: usize,
}

#[derive(Debug)]
struct ScenarioResult {
    clients: usize,
    total: usize,
    matched: usize,
    mismatched: usize,
    errors: usize,
    rejects: usize,
    wall_s: f64,
    p50_s: f64,
    p99_s: f64,
    p999_s: f64,
    mean_s: f64,
    throughput_rps: f64,
    cache_builds: u64,
    cache_hits: u64,
    sessions: usize,
    per_client_status: Vec<&'static str>,
}

fn client_input(seed: u64, client: usize, request: usize) -> Tensor {
    Tensor::random(
        2,
        8,
        8,
        5,
        seed ^ (client as u64).wrapping_mul(0x10001) ^ (request as u64).wrapping_mul(0x4D),
    )
}

/// One closed-loop client: a fresh session per request, its own key
/// pair throughout. `gate` bounds the connections in flight across
/// clients: a send takes a slot, a receive frees one.
fn direct_client(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    upstream: &Upstream,
    gate: &Queue<()>,
    scenario: &Scenario,
    client: usize,
) -> ClientResult {
    let mut result = ClientResult::default();
    let mut rng = StdRng::seed_from_u64(99 + client as u64);
    let kg = KeyGenerator::new(ctx, &mut rng);
    for request in 0..scenario.requests {
        let input = client_input(scenario.seed, client, request);
        let want = cnn.forward_plain(&input);
        gate.send(()).expect("the gate is never closed");
        let t0 = Instant::now();
        let got = upstream.connect().and_then(|transport| {
            run_client_batch(
                ctx,
                &kg,
                transport.as_ref(),
                std::slice::from_ref(&input),
                cnn,
                scenario.scheme,
                (4, 4),
                PatchMode::Tweaked,
                &mut rng,
            )
            .map(|mut outs| outs.remove(0))
        });
        let latency = t0.elapsed();
        gate.recv();
        result.absorb(&want, got, latency);
    }
    result
}

fn run_scenario(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    upstream: &Upstream,
    scenario: &Scenario,
) -> ScenarioResult {
    let gate = Queue::bounded(if scenario.concurrency == 0 {
        scenario.clients.max(1)
    } else {
        scenario.concurrency
    });
    let t0 = Instant::now();
    let per_client: Vec<ClientResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..scenario.clients)
            .map(|client| {
                let gate = &gate;
                s.spawn(move || direct_client(ctx, cnn, upstream, gate, scenario, client))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let reports = upstream.drain_reports();
    let cache_builds: u64 = reports
        .iter()
        .map(|r| r.counters.get(Counter::KernelCacheBuild))
        .sum();
    let cache_hits: u64 = reports
        .iter()
        .map(|r| r.counters.get(Counter::KernelCacheHit))
        .sum();

    let per_client_status: Vec<&'static str> = per_client
        .iter()
        .map(|c| {
            if c.mismatched > 0 {
                "MISMATCH"
            } else if c.errors > 0 {
                "ERROR"
            } else if c.rejects > 0 {
                "REJECTED"
            } else if c.matched > 0 {
                "MATCH"
            } else {
                "NO RESULT"
            }
        })
        .collect();
    // Fold every client thread's streaming histogram into one; the
    // quantiles come from bucket interpolation, never a sorted vector.
    let latency = per_client
        .iter()
        .map(|c| c.latency.snapshot())
        .fold(metrics::HistogramSnapshot::default(), |acc, h| {
            acc.merge(&h)
        });
    let total = latency.count as usize;
    const NS: f64 = 1e9;
    ScenarioResult {
        clients: scenario.clients,
        total,
        matched: per_client.iter().map(|c| c.matched).sum(),
        mismatched: per_client.iter().map(|c| c.mismatched).sum(),
        errors: per_client.iter().map(|c| c.errors).sum(),
        rejects: per_client.iter().map(|c| c.rejects).sum(),
        wall_s,
        p50_s: latency.quantile(0.50) / NS,
        p99_s: latency.quantile(0.99) / NS,
        p999_s: latency.quantile(0.999) / NS,
        mean_s: latency.mean() / NS,
        throughput_rps: if wall_s > 0.0 {
            total as f64 / wall_s
        } else {
            0.0
        },
        cache_builds,
        cache_hits,
        sessions: reports.len(),
        per_client_status,
    }
}

fn scenario_json(r: &ScenarioResult) -> String {
    format!(
        "{{\"clients\": {}, \"total_requests\": {}, \"matched\": {}, \"mismatched\": {}, \
         \"errors\": {}, \"admission_rejects\": {}, \"sessions\": {}, \
         \"latency_s\": {{\"p50\": {:.4}, \"p99\": {:.4}, \"p999\": {:.4}, \"mean\": {:.4}}}, \
         \"throughput_rps\": {:.4}, \"wall_s\": {:.4}, \
         \"kernel_cache_builds\": {}, \"kernel_cache_hits\": {}}}",
        r.clients,
        r.total,
        r.matched,
        r.mismatched,
        r.errors,
        r.rejects,
        r.sessions,
        r.p50_s,
        r.p99_s,
        r.p999_s,
        r.mean_s,
        r.throughput_rps,
        r.wall_s,
        r.cache_builds,
        r.cache_hits
    )
}

fn print_scenario(r: &ScenarioResult) {
    for (i, status) in r.per_client_status.iter().enumerate() {
        println!("client {i}: output vs plain: {status}");
    }
    println!("admission rejects: {}", r.rejects);
    println!(
        "spot-loadgen: {} requests over {} sessions in {:.3}s — p50 {:.3}s, p99 {:.3}s, \
         p99.9 {:.3}s, {:.3} req/s",
        r.total, r.sessions, r.wall_s, r.p50_s, r.p99_s, r.p999_s, r.throughput_rps
    );
    println!(
        "spot-loadgen: kernel cache — {} builds, {} hits",
        r.cache_builds, r.cache_hits
    );
}

/// Polls a `spot-server --admin` endpoint and prints the server-side
/// view next to what this process just observed: session totals and
/// the mean session wall time from `spot_session_wall_ns`, which
/// client-observed latency should bound from above (it adds connect
/// and key-generation time the server never sees).
fn scrape_and_crosscheck(addr: &str, r: &ScenarioResult) {
    let body = match http_get(addr, "/metrics") {
        Ok(b) => b,
        Err(e) => {
            log_warn!("loadgen", "scrape {addr} failed: {e}");
            return;
        }
    };
    let map = parse_prometheus(&body);
    let get = |k: &str| map.get(k).copied().unwrap_or(0.0);
    let served = get("spot_sessions_served");
    let rejected = get("spot_sessions_rejected");
    let wall_count = get("spot_session_wall_ns_count");
    let server_mean_s = if wall_count > 0.0 {
        get("spot_session_wall_ns_sum") / wall_count / 1e9
    } else {
        0.0
    };
    let conv_count: f64 = map
        .iter()
        .filter(|(k, _)| k.starts_with("spot_conv_serve_ns_count"))
        .map(|(_, v)| v)
        .sum();
    println!(
        "spot-loadgen: scrape {addr} — served {served}, rejected {rejected}, \
         {conv_count} convs; server mean session {server_mean_s:.3}s vs \
         client-observed mean {:.3}s",
        r.mean_s
    );
    if wall_count == 0.0 {
        println!(
            "spot-loadgen: scrape cross-check EMPTY — the scrape holds no \
             spot_session_wall_ns samples to compare"
        );
    } else if server_mean_s > r.mean_s {
        println!(
            "spot-loadgen: scrape cross-check SUSPECT — server-side session wall \
             exceeds client-observed latency"
        );
    } else {
        println!("spot-loadgen: scrape cross-check OK");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    refuse_unknown_args(&args, USAGE);
    let mem = args.iter().any(|a| a == "--mem");
    let addr = arg_value(&args, "--connect");
    assert!(
        mem != addr.is_some(),
        "pick exactly one of --mem or --connect ADDR"
    );
    let clients: usize = arg_value(&args, "--clients")
        .map(|v| v.parse().expect("--clients takes a number"))
        .unwrap_or(4);
    let requests: usize = arg_value(&args, "--requests")
        .map(|v| v.parse().expect("--requests takes a number"))
        .unwrap_or(1);
    let concurrency: usize = arg_value(&args, "--concurrency")
        .map(|v| v.parse().expect("--concurrency takes a number"))
        .unwrap_or(0);
    let scheme = scheme_arg(&args);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed takes a number"))
        .unwrap_or(42);
    let max_sessions: usize = arg_value(&args, "--max-sessions")
        .map(|v| v.parse().expect("--max-sessions takes a number"))
        .unwrap_or(128);
    let sweep: Vec<usize> = arg_value(&args, "--sweep")
        .map(|v| {
            v.split(',')
                .map(|n| n.trim().parse().expect("--sweep takes numbers"))
                .collect()
        })
        .unwrap_or_default();
    assert!(
        sweep.is_empty() || mem,
        "--sweep needs --mem (one shared in-process server across scenarios)"
    );
    let json_path = arg_value(&args, "--json");
    let scrape_addr = arg_value(&args, "--scrape");
    assert!(
        scrape_addr.is_none() || !mem,
        "--scrape needs --connect (it polls a remote spot-server --admin endpoint)"
    );
    let trace_path = arg_value(&args, "--trace");
    let trace_baseline = trace_path
        .as_ref()
        .map(|_| spot_bench::traceio::trace_begin());

    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let cnn = TinyCnn::new(7);
    let upstream = if mem {
        let model = ModelContext::new("tinycnn-7", Arc::clone(&ctx), cnn.clone());
        let config = ServingConfig {
            max_sessions,
            ..ServingConfig::default()
        };
        Upstream::Mem {
            server: Arc::new(SpotServer::new(model, config)),
            reports: Arc::new(Mutex::new(Vec::new())),
            handles: Mutex::new(Vec::new()),
        }
    } else {
        Upstream::Tcp {
            addr: addr.expect("--connect checked above"),
        }
    };

    let client_counts = if sweep.is_empty() {
        vec![clients]
    } else {
        sweep
    };
    let mut results = Vec::new();
    for n in client_counts {
        let scenario = Scenario {
            clients: n,
            requests,
            scheme,
            seed,
            concurrency,
        };
        println!(
            "spot-loadgen: scenario clients={n} requests={requests} ({})",
            if mem { "mem" } else { "tcp" }
        );
        let result = run_scenario(&ctx, &cnn, &upstream, &scenario);
        print_scenario(&result);
        if let Some(addr) = &scrape_addr {
            scrape_and_crosscheck(addr, &result);
        }
        results.push(result);
    }

    if let Some(path) = json_path {
        let body: Vec<String> = results.iter().map(scenario_json).collect();
        let json = format!(
            "{{\n  \"bench\": \"serving\",\n  \"params\": \"N4096\",\n  \"scheme\": \
             \"{scheme:?}\",\n  \"scenarios\": [\n    {}\n  ]\n}}\n",
            body.join(",\n    ")
        );
        std::fs::write(&path, json).expect("write json");
        println!("spot-loadgen: wrote {path}");
    }

    if let (Some(path), Some(baseline)) = (&trace_path, &trace_baseline) {
        spot_bench::traceio::trace_finish(std::path::Path::new(path), baseline);
    }

    let bad = results
        .iter()
        .any(|r| r.mismatched > 0 || r.errors > 0 || r.matched == 0);
    if bad {
        std::process::exit(1);
    }
}
