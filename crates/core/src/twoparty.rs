//! Two-party TinyCnn inference over a wire [`Transport`]: the client
//! holds the input, the server holds the model, and every byte between
//! them crosses the typed protocol — so the same code drives an
//! in-process [`MemTransport`](spot_proto::transport::MemTransport)
//! pair or two OS processes over framed TCP.
//!
//! Layer flow: each convolution runs as a client/server session
//! ([`ClientConv`] against [`serve_conv_on`]); each non-linearity is
//! one `OtRound` request/reply on additive shares; layer boundaries use
//! `ShareReveal`. Both convolutions share the connection's rotation
//! keys: conv2 uploads only the Galois elements conv1 did not.
//!
//! **Demo simplification.** The non-linear rounds here stand in for the
//! OT-based DReLU/comparison protocols (simulated in-process by
//! [`spot_proto::relu`]): the client sends its additive share, the
//! server reconstructs the value, applies the function, and re-shares
//! with fresh randomness. This reveals post-conv activations to the
//! server and is **not private** — it exercises the wire protocol,
//! session state machines, and traffic accounting end to end while
//! keeping the demo dependency-free. The mid-network `ShareReveal`
//! reconstructs the activation at the client, which re-encrypts it as
//! the next layer's input; in the real protocol the client re-encrypts
//! its share and the server adds its own — the arithmetic is identical.
//! [`TinyCnn::forward_secure`] is these two halves in one process.

use crate::error::SpotError;
use crate::inference::TinyCnn;
use crate::patching::PatchMode;
use crate::session::{
    serve_conv_on, unexpected, ClientConv, ConnectionKeys, ExecBackend, LayerSpec, SchemeKind,
    ServeOptions, UploadPacing,
};
use crate::stream::StreamStats;
use rand::Rng;
use spot_he::context::Context;
use spot_he::evaluator::OpCounts;
use spot_he::keys::KeyGenerator;
use spot_proto::transport::Transport;
use spot_proto::wire::WireMessage;
use spot_tensor::fixed::from_field;
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::Tensor;
use spot_trace::{clocksync, metrics, Cat};
use std::sync::{Arc, OnceLock};

/// `OtRound` op code for ReLU on shares.
pub const OP_RELU: u8 = 1;
/// `OtRound` op code for 2×2 max-pooling on shares.
pub const OP_MAXPOOL: u8 = 2;

/// Trace label for an `OtRound` op code.
fn op_name(op: u8) -> &'static str {
    match op {
        OP_RELU => "relu",
        OP_MAXPOOL => "maxpool",
        _ => "ot",
    }
}

fn encode_share(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The one reader of a peer's share vector: every value is checked to
/// be a residue mod `t`, so the `(c + s) % t` reconstructions below
/// cannot overflow on anything a peer sends.
fn decode_share(blob: &[u8], t: u64) -> Result<Vec<u64>, SpotError> {
    if !blob.len().is_multiple_of(8) {
        return Err(SpotError::Protocol(format!(
            "share payload length {} not a multiple of 8",
            blob.len()
        )));
    }
    blob.chunks_exact(8)
        .map(|c| {
            let v = u64::from_le_bytes(c.try_into().expect("chunk of 8 bytes"));
            if v < t {
                Ok(v)
            } else {
                Err(SpotError::Protocol(format!(
                    "share value {v} is not reduced mod {t}"
                )))
            }
        })
        .collect()
}

fn tensor_to_mod(tensor: &Tensor, t: u64) -> Vec<u64> {
    tensor
        .data()
        .iter()
        .map(|&v| v.rem_euclid(t as i64) as u64)
        .collect()
}

/// One interactive non-linear round from the client's side: send this
/// party's share, receive the re-shared result.
fn client_round(
    transport: &dyn Transport,
    op: u8,
    round: u16,
    payload: Vec<u8>,
    t: u64,
) -> Result<Vec<u64>, SpotError> {
    let _span = spot_trace::span_owned(Cat::Session, || format!("{} round", op_name(op)))
        .arg("round", round as u64);
    transport.send(&WireMessage::OtRound {
        op,
        round,
        blob: payload,
    })?;
    let msg = transport.recv()?;
    let WireMessage::OtRound {
        op: rop,
        round: rround,
        blob,
    } = msg
    else {
        return Err(unexpected(&msg, "OtRound reply"));
    };
    if rop != op || rround != round {
        return Err(SpotError::Protocol(format!(
            "OtRound reply mismatch: got op {rop} round {rround}, want op {op} round {round}"
        )));
    }
    decode_share(&blob, t)
}

/// Receives the server's `ShareReveal` and reconstructs the centered
/// values from the two additive shares.
fn client_reveal(
    transport: &dyn Transport,
    client_share: &[u64],
    t: u64,
) -> Result<Vec<i64>, SpotError> {
    let msg = transport.recv()?;
    let WireMessage::ShareReveal { blob } = msg else {
        return Err(unexpected(&msg, "ShareReveal"));
    };
    let server_share = decode_share(&blob, t)?;
    if server_share.len() != client_share.len() {
        return Err(SpotError::Protocol(format!(
            "ShareReveal length {} does not match client share {}",
            server_share.len(),
            client_share.len()
        )));
    }
    Ok(client_share
        .iter()
        .zip(&server_share)
        .map(|(&c, &s)| from_field((c + s) % t, t))
        .collect())
}

/// One secure convolution session from the client's side carrying a
/// whole batch of images, uploading and absorbing concurrently so a
/// socket transport never deadlocks on full buffers in both
/// directions. A one-image batch produces byte-identical traffic to
/// the original single-image session.
fn client_conv_batch<R: Rng + Send>(
    conv: &ClientConv<'_>,
    transport: &dyn Transport,
    inputs: &[Tensor],
    rng: &mut R,
) -> Result<Vec<Tensor>, SpotError> {
    let scope_result = crossbeam::thread::scope(|s| {
        let uploader = s.spawn(move |_| {
            // Eager pacing: TCP's own flow control paces a real link,
            // and the concurrent absorber below must own every recv.
            spot_trace::set_thread_label("uploader");
            let sent = conv.send_batch(transport, inputs, UploadPacing::Eager, rng);
            spot_trace::flush_thread();
            sent
        });
        let share = conv.absorb_batch(transport, inputs.len());
        let sent = uploader.join().expect("upload thread panicked");
        (sent, share)
    });
    let (sent, share) = match scope_result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    sent?;
    Ok(share?.shares)
}

/// Client half of the two-party TinyCnn demo over a *batch* of queued
/// inputs: both convolutions run as single batched HE sessions (shared
/// ciphertexts, so rotations and key-switches amortize across the
/// batch), while the non-linear rounds stay per image. `arch` provides
/// the layer *shapes* only — the kernel weights it carries are never
/// read, they live with the server.
///
/// Per-image OT round numbering is `b` (ReLU 1), `batch + b`
/// (max-pool), `2·batch + b` (ReLU 2), which degenerates to the
/// classic `0, 1, 2` sequence at `batch = 1`.
///
/// Returns the reconstructed network output per image, in submission
/// order.
#[allow(clippy::too_many_arguments)]
pub fn run_client_batch<R: Rng + Send>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    transport: &dyn Transport,
    inputs: &[Tensor],
    arch: &TinyCnn,
    scheme: SchemeKind,
    patch: (usize, usize),
    mode: PatchMode,
    rng: &mut R,
) -> Result<Vec<Tensor>, SpotError> {
    match run_client_batch_inner(
        ctx, keygen, transport, inputs, arch, scheme, patch, mode, rng,
    ) {
        // A transport failure mid-upload can mean the server refused
        // the session and hung up before we got to read the typed
        // error frame — drain the receive side so the caller sees the
        // refusal, not just a broken pipe.
        Err(SpotError::Proto(e)) => Err(surface_rejection(transport, SpotError::Proto(e))),
        other => other,
    }
}

/// Drains up to a few pending frames looking for a typed
/// [`WireMessage::Error`]; returns it as [`SpotError::Rejected`], or
/// the original failure if the server never sent one.
fn surface_rejection(transport: &dyn Transport, fallback: SpotError) -> SpotError {
    for _ in 0..8 {
        match transport.recv() {
            Ok(WireMessage::Error { code, detail }) => {
                return SpotError::Rejected { code, detail };
            }
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    fallback
}

#[allow(clippy::too_many_arguments)]
fn run_client_batch_inner<R: Rng + Send>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    transport: &dyn Transport,
    inputs: &[Tensor],
    arch: &TinyCnn,
    scheme: SchemeKind,
    patch: (usize, usize),
    mode: PatchMode,
    rng: &mut R,
) -> Result<Vec<Tensor>, SpotError> {
    if inputs.is_empty() {
        return Err(SpotError::Protocol("empty input batch".into()));
    }
    let batch = inputs.len();
    let t = ctx.params().plain_modulus();
    let spec_for = |input: &Tensor, c_out: usize, k: usize| LayerSpec {
        scheme,
        shape: ConvShape {
            width: input.width(),
            height: input.height(),
            c_in: input.channels(),
            c_out,
            k_h: k,
            k_w: k,
            stride: 1,
        },
        patch,
        mode,
    };

    // conv1 under HE, one batched session for all images.
    let spec1 = spec_for(&inputs[0], arch.conv1.out_channels(), arch.conv1.k_h());
    let conv = ClientConv::new(ctx, keygen, spec1)?;
    let shares1 = client_conv_batch(&conv, transport, inputs, rng)?;
    let (c1, h1, w1) = (
        shares1[0].channels(),
        shares1[0].height(),
        shares1[0].width(),
    );

    // ReLU, then 2×2 max-pool, on shares — per image, then the layer
    // boundary reveal reconstructs each mid tensor in turn.
    let mut mids = Vec::with_capacity(batch);
    for (b, share1) in shares1.iter().enumerate() {
        let c = client_round(
            transport,
            OP_RELU,
            b as u16,
            encode_share(&tensor_to_mod(share1, t)),
            t,
        )?;
        let mut pooled = Vec::with_capacity(12 + c.len() * 8);
        for d in [c1 as u32, h1 as u32, w1 as u32] {
            pooled.extend_from_slice(&d.to_le_bytes());
        }
        pooled.extend_from_slice(&encode_share(&c));
        let c = client_round(transport, OP_MAXPOOL, (batch + b) as u16, pooled, t)?;
        let mid_vals = client_reveal(transport, &c, t)?;
        mids.push(Tensor::from_vec(c1, h1 / 2, w1 / 2, mid_vals));
    }

    // conv2 under HE (batched), ReLU, final reveal per image.
    let spec2 = spec_for(&mids[0], arch.conv2.out_channels(), arch.conv2.k_h());
    let conv = conv.next_layer(spec2)?;
    let shares2 = client_conv_batch(&conv, transport, &mids, rng)?;
    let (c2, h2, w2) = (
        shares2[0].channels(),
        shares2[0].height(),
        shares2[0].width(),
    );
    let mut outputs = Vec::with_capacity(batch);
    for (b, share2) in shares2.iter().enumerate() {
        let c = client_round(
            transport,
            OP_RELU,
            (2 * batch + b) as u16,
            encode_share(&tensor_to_mod(share2, t)),
            t,
        )?;
        let out_vals = client_reveal(transport, &c, t)?;
        outputs.push(Tensor::from_vec(c2, h2, w2, out_vals));
    }

    // Clock-alignment handshake, only when wire trace context is on
    // (it adds frames, so the plain byte stream stays untouched) and
    // best-effort: any failure just leaves the trace without an
    // estimate. Runs right before Teardown, when both pipes are idle.
    if spot_trace::wire_context_enabled() {
        let est = clocksync::run_probe(clocksync::PROBE_ROUNDS, |seq| {
            transport
                .send(&WireMessage::ClockProbe {
                    seq,
                    t_rx_ns: 0,
                    t_tx_ns: 0,
                })
                .ok()?;
            match transport.recv() {
                Ok(WireMessage::ClockProbe {
                    seq: echoed,
                    t_rx_ns,
                    t_tx_ns,
                }) if echoed == seq => Some((t_rx_ns, t_tx_ns)),
                _ => None,
            }
        });
        if let Some(est) = est {
            clocksync::record(&est);
        }
    }

    transport.send(&WireMessage::Teardown)?;
    transport.close_tx();
    Ok(outputs)
}

/// Server-side outcome of a two-party TinyCnn run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// HE operation counts over both convolution layers (totals for the
    /// whole batch; divide by [`batch`](Self::batch) for per-image
    /// amortized figures).
    pub counts: OpCounts,
    /// Stall accounting accumulated over both convolution layers.
    pub stream: StreamStats,
    /// Input ciphertexts received across all conv layers.
    pub input_cts: usize,
    /// Masked result ciphertexts sent across all conv layers.
    pub output_cts: usize,
    /// Images carried by the batched convolution sessions (1 for a
    /// classic single-image run).
    pub batch: usize,
}

/// Expects the next message to be the given non-linear round; returns
/// the client's share payload.
fn server_expect_round(
    transport: &dyn Transport,
    op: u8,
    round: u16,
) -> Result<Vec<u8>, SpotError> {
    let msg = transport.recv()?;
    let WireMessage::OtRound {
        op: rop,
        round: rround,
        blob,
    } = msg
    else {
        return Err(SpotError::Protocol("expected OtRound".into()));
    };
    if rop != op || rround != round {
        return Err(SpotError::Protocol(format!(
            "OtRound out of order: got op {rop} round {rround}, want op {op} round {round}"
        )));
    }
    Ok(blob)
}

/// Re-shares `values` (signed, centered) with fresh randomness: the
/// server keeps the drawn share and returns the client's half.
fn reshare<R: Rng>(values: &[i64], t: u64, rng: &mut R) -> (Vec<u64>, Vec<u64>) {
    let mut server = Vec::with_capacity(values.len());
    let mut client = Vec::with_capacity(values.len());
    for &y in values {
        let ym = y.rem_euclid(t as i64) as u64;
        let s = rng.gen_range(0..t);
        server.push(s);
        client.push((ym + t - s) % t);
    }
    (server, client)
}

/// One ReLU round from the server's side: reconstruct, clamp, reshare.
/// Returns the server's fresh share of the result.
// Live-registry latency of one full nonlinear round (recv share →
// compute → reshare → send), per protocol.
fn relu_round_hist() -> &'static metrics::Histogram {
    static H: OnceLock<Arc<metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| metrics::global().histogram("spot_relu_round_ns", &[]))
}

fn maxpool_round_hist() -> &'static metrics::Histogram {
    static H: OnceLock<Arc<metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| metrics::global().histogram("spot_maxpool_round_ns", &[]))
}

fn server_relu_round<R: Rng>(
    transport: &dyn Transport,
    round: u16,
    server_share: &[u64],
    t: u64,
    rng: &mut R,
) -> Result<Vec<u64>, SpotError> {
    let _span = spot_trace::span(Cat::Session, "relu round").arg("round", round as u64);
    let _timer = relu_round_hist().start_timer();
    let blob = server_expect_round(transport, OP_RELU, round)?;
    let client_share = decode_share(&blob, t)?;
    if client_share.len() != server_share.len() {
        return Err(SpotError::Protocol(format!(
            "relu share length {} does not match server share {}",
            client_share.len(),
            server_share.len()
        )));
    }
    let relu: Vec<i64> = client_share
        .iter()
        .zip(server_share)
        .map(|(&c, &s)| from_field((c + s) % t, t).max(0))
        .collect();
    let (srv, cli) = reshare(&relu, t, rng);
    transport.send(&WireMessage::OtRound {
        op: OP_RELU,
        round,
        blob: encode_share(&cli),
    })?;
    Ok(srv)
}

/// One 2×2 max-pool round from the server's side (client payload is
/// prefixed with the tensor dims, validated against `dims`). Returns
/// the server's fresh share of the pooled result.
fn server_maxpool_round<R: Rng>(
    transport: &dyn Transport,
    round: u16,
    dims: (usize, usize, usize),
    server_share: &[u64],
    t: u64,
    rng: &mut R,
) -> Result<Vec<u64>, SpotError> {
    let _span = spot_trace::span(Cat::Session, "maxpool round").arg("round", round as u64);
    let _timer = maxpool_round_hist().start_timer();
    let blob = server_expect_round(transport, OP_MAXPOOL, round)?;
    if blob.len() < 12 {
        return Err(SpotError::Protocol("maxpool payload too short".into()));
    }
    let dim = |i: usize| {
        u32::from_le_bytes(blob[i * 4..i * 4 + 4].try_into().expect("4-byte dim")) as usize
    };
    let (pc, ph, pw) = (dim(0), dim(1), dim(2));
    let client_share = decode_share(&blob[12..], t)?;
    if (pc, ph, pw) != dims || client_share.len() != pc * ph * pw {
        return Err(SpotError::Protocol(format!(
            "maxpool dims {pc}x{ph}x{pw} (len {}) do not match layer {}x{}x{}",
            client_share.len(),
            dims.0,
            dims.1,
            dims.2
        )));
    }
    let vals: Vec<i64> = client_share
        .iter()
        .zip(server_share)
        .map(|(&c, &s)| from_field((c + s) % t, t))
        .collect();
    let pooled = spot_tensor::conv::maxpool2(&Tensor::from_vec(pc, ph, pw, vals));
    let (srv, cli) = reshare(pooled.data(), t, rng);
    transport.send(&WireMessage::OtRound {
        op: OP_MAXPOOL,
        round,
        blob: encode_share(&cli),
    })?;
    Ok(srv)
}

/// Server half of the two-party TinyCnn demo: serves both convolution
/// sessions, evaluates the non-linear rounds on reconstructed values
/// (see the module-level demo-simplification note), and reveals its
/// share at layer boundaries.
///
/// The batch width is learned from the client's conv1 `Setup` (the
/// session layer returns one server share per batched image); the
/// non-linear rounds then run per image with the round numbering
/// described on [`run_client_batch`].
pub fn run_server<R: Rng>(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    cnn: &TinyCnn,
    backend: &ExecBackend,
    rng: &mut R,
) -> Result<ServerReport, SpotError> {
    run_server_with(ctx, transport, cnn, backend, ServeOptions::default(), rng)
}

/// [`run_server`] with serving-layer options ([`ServeOptions`]): shared
/// per-model kernel caches and the per-session batch budget, applied to
/// both convolution layers.
pub fn run_server_with<R: Rng>(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    cnn: &TinyCnn,
    backend: &ExecBackend,
    opts: ServeOptions<'_>,
    rng: &mut R,
) -> Result<ServerReport, SpotError> {
    let t = ctx.params().plain_modulus();
    let mut report = ServerReport {
        counts: OpCounts::default(),
        stream: StreamStats::default(),
        input_cts: 0,
        output_cts: 0,
        batch: 1,
    };
    let absorb = |summary: crate::session::ServerConvSummary, report: &mut ServerReport| {
        report.counts.merge(&summary.counts);
        if let Some(s) = &summary.stream {
            report.stream.accumulate(s);
        }
        report.input_cts += summary.input_cts;
        report.output_cts += summary.output_cts;
        let mut shares = vec![summary.server_share];
        shares.extend(summary.extra_shares);
        shares
    };

    // The client's rotation keys, for both convolutions.
    let keys = ConnectionKeys::default();

    // conv1 — the batch width arrives with the client's Setup.
    let shares1 = absorb(
        serve_conv_on(ctx, transport, &cnn.conv1, backend, opts, &keys, rng)?,
        &mut report,
    );
    let batch = shares1.len();
    report.batch = batch;
    let (c1, h1, w1) = (
        shares1[0].channels(),
        shares1[0].height(),
        shares1[0].width(),
    );

    // Per image: ReLU, 2×2 max-pool, then the layer-boundary reveal so
    // the client can re-encrypt its mid tensor for conv2.
    for (b, s1) in shares1.iter().enumerate() {
        let server_share = tensor_to_mod(s1, t);
        let server_share = server_relu_round(transport, b as u16, &server_share, t, rng)?;
        let server_share = server_maxpool_round(
            transport,
            (batch + b) as u16,
            (c1, h1, w1),
            &server_share,
            t,
            rng,
        )?;
        transport.send(&WireMessage::ShareReveal {
            blob: encode_share(&server_share),
        })?;
        spot_trace::instant(Cat::Session, "share reveal");
    }

    // conv2 — same batch width.
    let shares2 = absorb(
        serve_conv_on(ctx, transport, &cnn.conv2, backend, opts, &keys, rng)?,
        &mut report,
    );
    if shares2.len() != batch {
        return Err(SpotError::Protocol(format!(
            "conv2 batch {} does not match conv1 batch {batch}",
            shares2.len()
        )));
    }

    // Per image: ReLU round, then the final reveal.
    for (b, s2) in shares2.iter().enumerate() {
        let server_share = tensor_to_mod(s2, t);
        let server_share =
            server_relu_round(transport, (2 * batch + b) as u16, &server_share, t, rng)?;
        transport.send(&WireMessage::ShareReveal {
            blob: encode_share(&server_share),
        })?;
        spot_trace::instant(Cat::Session, "share reveal");
    }

    // Orderly teardown; a tracing client interleaves clock-alignment
    // probes first, which we echo back stamped on this process's trace
    // clock (receive time first, transmit time as late as possible).
    loop {
        let msg = transport.recv()?;
        match msg {
            WireMessage::Teardown => break,
            WireMessage::ClockProbe { seq, .. } => {
                let t_rx_ns = spot_trace::trace_now_ns();
                transport.send(&WireMessage::ClockProbe {
                    seq,
                    t_rx_ns,
                    t_tx_ns: spot_trace::trace_now_ns(),
                })?;
            }
            _ => return Err(SpotError::Protocol("expected Teardown".into())),
        }
    }
    transport.close_tx();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::stream::StreamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::params::{EncryptionParams, ParamLevel};
    use spot_proto::transport::MemTransport;

    fn run_pair(backend: ExecBackend, scheme: SchemeKind) -> (Tensor, Tensor) {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let cnn = TinyCnn::new(7);
        let input = Tensor::random(2, 8, 8, 5, 9);
        let want = cnn.forward_plain(&input);
        let (ct, st) = MemTransport::pair();
        let ctx_s = Arc::clone(&ctx);
        let cnn_s = cnn.clone();
        let server = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1312);
            run_server(&ctx_s, &st, &cnn_s, &backend, &mut rng)
        });
        let mut rng = StdRng::seed_from_u64(99);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let got = run_client_batch(
            &ctx,
            &kg,
            &ct,
            std::slice::from_ref(&input),
            &cnn,
            scheme,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        )
        .expect("client run")
        .remove(0);
        let report = server.join().expect("server thread").expect("server run");
        assert!(report.input_cts > 0);
        assert!(report.counts.mult_plain > 0);
        (got, want)
    }

    #[test]
    fn twoparty_tiny_cnn_matches_plain_all_schemes() {
        for scheme in [
            SchemeKind::Channelwise,
            SchemeKind::Cheetah,
            SchemeKind::Spot,
        ] {
            let (got, want) = run_pair(ExecBackend::Phased(Executor::serial()), scheme);
            assert_eq!(got, want, "scheme {scheme:?}");
        }
    }

    #[test]
    fn twoparty_streaming_backend_matches_plain() {
        let cfg = StreamConfig::new(Executor::new(2), 2);
        let (got, want) = run_pair(ExecBackend::Streaming(cfg), SchemeKind::Spot);
        assert_eq!(got, want);
    }

    #[test]
    fn twoparty_batched_matches_plain_per_image() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let cnn = TinyCnn::new(7);
        let inputs: Vec<Tensor> = (0..3).map(|b| Tensor::random(2, 8, 8, 5, 9 + b)).collect();
        let want: Vec<Tensor> = inputs.iter().map(|i| cnn.forward_plain(i)).collect();
        let (ct, st) = MemTransport::pair();
        let ctx_s = Arc::clone(&ctx);
        let cnn_s = cnn.clone();
        let backend = ExecBackend::Phased(Executor::serial());
        let server = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1312);
            run_server(&ctx_s, &st, &cnn_s, &backend, &mut rng)
        });
        let mut rng = StdRng::seed_from_u64(99);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let got = run_client_batch(
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
        .expect("client batch run");
        let report = server.join().expect("server thread").expect("server run");
        assert_eq!(report.batch, 3);
        assert_eq!(got, want);
    }
}
