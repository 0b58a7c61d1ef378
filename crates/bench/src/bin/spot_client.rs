//! Data-owner client for the two-process TinyCnn demo: connects to a
//! running `spot-server`, drives the full secure inference over TCP,
//! and checks the reconstructed output against both the plaintext
//! forward pass and an in-process `MemTransport` reference run.
//!
//! ```text
//! spot-client [--connect 127.0.0.1:7341] [--scheme spot|channelwise|cheetah]
//!             [--batch N] [--seed S] [--link lan|wlan] [--trace out.json]
//! ```
//!
//! Prints `output vs plain: MATCH` / `output vs reference: MATCH` on
//! success (the loopback e2e CI job greps for these); with `--batch N`
//! the N queued images ride shared ciphertexts through both conv
//! layers and each image prints its own `image I: output vs plain:
//! MATCH` line.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_bench::{arg_value, scheme_arg};
use spot_core::executor::Executor;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::session::{ExecBackend, SchemeKind};
use spot_core::twoparty::{run_client_batch, run_server};
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_pipeline::report::{transfer_table, TransferRow};
use spot_proto::channel::LinkModel;
use spot_proto::transport::{MemTransport, TcpTransport, Transport, TransportStats};
use spot_tensor::tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

fn connect_with_retry(addr: &str) -> TcpTransport {
    for _ in 0..100 {
        match TcpTransport::connect(addr) {
            Ok(t) => return t,
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    panic!("could not connect to spot-server at {addr}");
}

/// Runs the same client logic against an in-process server over a
/// `MemTransport` pair, returning the per-image outputs and the
/// client-side transport accounting.
fn mem_reference(
    ctx: &Arc<Context>,
    cnn: &TinyCnn,
    inputs: &[Tensor],
    scheme: SchemeKind,
    seed: u64,
) -> (Vec<Tensor>, TransportStats) {
    let (ct, st) = MemTransport::pair();
    let ctx_s = Arc::clone(ctx);
    let cnn_s = cnn.clone();
    let server = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(1312);
        run_server(
            &ctx_s,
            &st,
            &cnn_s,
            &ExecBackend::Phased(Executor::serial()),
            &mut rng,
        )
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let out = run_client_batch(
        ctx,
        &kg,
        &ct,
        inputs,
        cnn,
        scheme,
        (4, 4),
        PatchMode::Tweaked,
        &mut rng,
    )
    .expect("reference client run");
    server
        .join()
        .expect("reference server thread")
        .expect("reference server run");
    (out, ct.stats())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let addr = arg_value(&args, "--connect").unwrap_or_else(|| "127.0.0.1:7341".into());
    let scheme = scheme_arg(&args);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed takes a number"))
        .unwrap_or(99);
    let batch: usize = arg_value(&args, "--batch")
        .map(|v| v.parse().expect("--batch takes a number"))
        .unwrap_or(1);
    assert!(batch >= 1, "--batch must be at least 1");
    let link = match arg_value(&args, "--link").as_deref().unwrap_or("lan") {
        "wlan" => LinkModel::wlan(),
        _ => LinkModel::lan(),
    };
    let trace_path = arg_value(&args, "--trace");
    let trace_baseline = trace_path
        .as_ref()
        .map(|_| spot_bench::traceio::trace_begin());

    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let cnn = TinyCnn::new(7);
    let inputs: Vec<Tensor> = (0..batch as u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 9 + b))
        .collect();
    let want: Vec<Tensor> = inputs.iter().map(|i| cnn.forward_plain(i)).collect();

    println!("spot-client: in-process MemTransport reference run...");
    let (ref_out, ref_stats) = mem_reference(&ctx, &cnn, &inputs, scheme, seed);
    // Drop the reference run's events so the exported trace covers only
    // the TCP session — the half the cross-party merge consumes.
    let trace_baseline = trace_baseline.map(|_| spot_bench::traceio::trace_restart());

    println!("spot-client: connecting to {addr} (scheme {scheme:?}, batch {batch})");
    let transport = connect_with_retry(&addr);
    let t0 = std::time::Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let out = run_client_batch(
        &ctx,
        &kg,
        &transport,
        &inputs,
        &cnn,
        scheme,
        (4, 4),
        PatchMode::Tweaked,
        &mut rng,
    )
    .expect("client session");
    let wall = t0.elapsed().as_secs_f64();

    let plain_ok = out == want;
    let ref_ok = out == ref_out;
    if batch == 1 {
        println!(
            "output vs plain: {}",
            if plain_ok { "MATCH" } else { "MISMATCH" }
        );
        println!(
            "output vs reference: {}",
            if ref_ok { "MATCH" } else { "MISMATCH" }
        );
    } else {
        for (i, img) in out.iter().enumerate() {
            println!(
                "image {i}: output vs plain: {}",
                if *img == want[i] { "MATCH" } else { "MISMATCH" }
            );
            println!(
                "image {i}: output vs reference: {}",
                if *img == ref_out[i] {
                    "MATCH"
                } else {
                    "MISMATCH"
                }
            );
        }
    }

    let stats = transport.stats();
    let traffic_ok = stats.sent == ref_stats.sent
        && stats.received.bytes == ref_stats.received.bytes
        && stats.received.messages == ref_stats.received.messages;
    println!(
        "traffic vs reference: {}",
        if traffic_ok { "MATCH" } else { "MISMATCH" }
    );
    let rows = |st: &TransportStats| {
        [
            TransferRow {
                direction: "client -> server".into(),
                bytes: st.sent.bytes,
                messages: st.sent.messages,
                measured_s: 0.0,
                send_blocked_s: st.send_blocked.as_secs_f64(),
                modeled_s: link.transfer_time(st.sent.bytes as usize),
            },
            TransferRow {
                direction: "server -> client".into(),
                bytes: st.received.bytes,
                messages: st.received.messages,
                measured_s: 0.0,
                send_blocked_s: 0.0,
                modeled_s: link.transfer_time(st.received.bytes as usize),
            },
        ]
    };
    println!(
        "{}",
        transfer_table(
            "Client-side wire traffic, MemTransport reference (measured vs link model)",
            &rows(&ref_stats)
        )
    );
    println!(
        "{}",
        transfer_table(
            "Client-side wire traffic, TCP (measured vs link model)",
            &rows(&stats)
        )
    );
    if batch == 1 {
        println!("spot-client: end-to-end wall {wall:.3}s over TCP");
    } else {
        println!(
            "spot-client: end-to-end wall {wall:.3}s over TCP ({:.3}s/image at batch {batch})",
            wall / batch as f64
        );
    }
    if let (Some(path), Some(baseline)) = (&trace_path, &trace_baseline) {
        spot_bench::traceio::trace_finish(std::path::Path::new(path), baseline);
    }
    if !(plain_ok && ref_ok && traffic_ok) {
        std::process::exit(1);
    }
}
