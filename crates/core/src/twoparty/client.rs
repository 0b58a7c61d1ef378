//! The client walker: one loop over the layer program, each convolution
//! a batched [`ClientConv`] session, each interactive op the client's
//! side of the round codec in the parent module.

use super::{
    conv_share, decode_share, dims_prefix, encode_share, reconstruct, recv_round, round_kind,
    round_of, walk_image, Dims, Kept,
};
use crate::error::SpotError;
use crate::inference::{Op, TinyCnn};
use crate::patching::PatchMode;
use crate::session::client::{ClientConv, HangUp, UploadPacing};
use crate::session::spec::{unexpected, LayerSpec, SchemeKind};
use rand::Rng;
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_proto::transport::Transport;
use spot_proto::wire::WireMessage;
use spot_tensor::fixed::to_field;
use spot_tensor::tensor::Tensor;
use spot_trace::{clocksync, Cat};
use std::borrow::Cow;
use std::sync::Arc;

/// One interactive op from the client's side: send this party's share
/// of a `dims` activation (a pooling payload leads with the dims),
/// receive its share of the result and the dims that has.
pub(super) fn client_round(
    transport: &dyn Transport,
    op: &Op,
    round: u16,
    dims: Dims,
    share: &[u64],
    t: u64,
) -> Result<(Dims, Vec<u64>), SpotError> {
    let (code, name, out) = round_kind(op, dims);
    let _span = spot_trace::span(Cat::Session, name).arg("round", round as u64);
    let mut payload = match op {
        Op::Relu => Vec::new(),
        _ => dims_prefix(dims),
    };
    payload.extend_from_slice(&encode_share(share));
    transport.send(&WireMessage::OtRound {
        op: code,
        round,
        blob: payload,
    })?;
    let blob = recv_round(transport, code, round)?;
    Ok((out, decode_share(&blob, t, out)?))
}

/// Receives the server's `ShareReveal` of a `dims` activation and
/// reconstructs the centered values from the two additive shares.
fn client_reveal(
    transport: &dyn Transport,
    dims: Dims,
    client_share: &[u64],
    t: u64,
) -> Result<Vec<i64>, SpotError> {
    let msg = transport.recv()?;
    let WireMessage::ShareReveal { blob } = msg else {
        return Err(unexpected(&msg, "ShareReveal"));
    };
    let server_share = decode_share(&blob, t, dims)?;
    Ok(reconstruct(client_share, &server_share, t))
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
            // An upload that fails or unwinds hangs up, so the server
            // waiting for its next input, and then the absorber
            // waiting for the server, both end.
            let hang_up = HangUp::new(transport);
            let sent = conv.send_batch(transport, inputs, UploadPacing::Eager, rng);
            if sent.is_ok() {
                hang_up.keep_open();
            }
            spot_trace::flush_thread();
            sent
        });
        let share = conv.absorb_batch(transport, inputs.len());
        // The panic itself has already been reported by the hook; the
        // session ends in a typed error like any other failed upload.
        let sent = (uploader.join()).unwrap_or(Err(SpotError::Panicked("uploader")));
        (sent, share)
    });
    let (sent, share) = match scope_result {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    };
    sent?;
    Ok(share?.shares)
}

/// Client half of the two-party protocol over a *batch* of queued
/// inputs: the client walker of the module doc. Every convolution is
/// one batched HE session (shared ciphertexts, so rotations and
/// key-switches amortize across the batch), while the ops behind it
/// run per image. `arch` provides the program and its layer *shapes*
/// only — the kernel weights it carries are never read, they live with
/// the server.
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

    // What the client holds in the clear: its inputs, then what each
    // stage's reveals reconstruct.
    let mut held = Cow::Borrowed(inputs);
    let mut conv: Option<ClientConv<'_>> = None;
    let mut kept = Kept::new();
    for (at, kernel, stride, tail) in arch.stages() {
        let spec = LayerSpec::for_layer(scheme, &held[0], kernel, stride, patch, mode);
        let layer = match conv.take() {
            None => ClientConv::new(ctx, keygen, spec)?,
            Some(earlier) => earlier.next_layer(spec)?,
        };
        let shares = client_conv_batch(&layer, transport, &held, rng)?;
        conv = Some(layer);
        let mut revealed = Vec::with_capacity(batch);
        for (b, share) in shares.iter().enumerate() {
            let step = |i, op: &Op, dims: Dims, mine: &[u64]| {
                if !matches!(op, Op::Reveal) {
                    let round = round_of(arch.ops(), i, batch, b);
                    return client_round(transport, op, round, dims, mine, t);
                }
                let values = client_reveal(transport, dims, mine, t)?;
                let value = values.iter().map(|&v| to_field(v, t)).collect();
                revealed.push(Tensor::from_vec(dims.0, dims.1, dims.2, values));
                Ok((dims, value))
            };
            let share = conv_share(share, t);
            walk_image(arch, (at, tail), b, share, t, &mut kept, step)?;
        }
        held = Cow::Owned(revealed);
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
    Ok(held.into_owned())
}
