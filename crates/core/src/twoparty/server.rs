//! The server walker: one loop over the layer program, each convolution
//! a [`serve_conv_on`] layer on the connection's keys, each interactive
//! op the server's side of the round codec in the parent module.

use super::{
    conv_share, decode_share, dims_prefix, encode_share, reconstruct, recv_round, round_kind,
    round_of, walk_image, Dims, Kept,
};
use crate::error::SpotError;
use crate::inference::{Op, TinyCnn};
use crate::session::server::{
    serve_conv_on, ConnectionKeys, ExecBackend, ModelLayer, ServeOptions,
};
use crate::stream::StreamStats;
use rand::Rng;
use spot_he::context::Context;
use spot_he::evaluator::OpCounts;
use spot_proto::transport::Transport;
use spot_proto::wire::WireMessage;
use spot_tensor::fixed::to_field;
use spot_tensor::tensor::Tensor;
use spot_trace::Cat;
use std::sync::Arc;

/// Server-side outcome of a two-party run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// HE operation counts over every convolution layer (totals for the
    /// whole batch; divide by [`batch`](Self::batch) for per-image
    /// amortized figures).
    pub counts: OpCounts,
    /// Stall accounting accumulated over every convolution layer.
    pub stream: StreamStats,
    /// Input ciphertexts received across all conv layers.
    pub input_cts: usize,
    /// Masked result ciphertexts sent across all conv layers.
    pub output_cts: usize,
    /// Images carried by the batched convolution sessions (1 for a
    /// classic single-image run).
    pub batch: usize,
}

/// Re-shares `values` (signed, centered) with fresh randomness: the
/// server keeps the drawn share and returns the client's half.
pub(super) fn reshare<R: Rng>(values: &[i64], t: u64, rng: &mut R) -> (Vec<u64>, Vec<u64>) {
    let mut server = Vec::with_capacity(values.len());
    let mut client = Vec::with_capacity(values.len());
    for &y in values {
        let s = rng.gen_range(0..t);
        server.push(s);
        client.push((to_field(y, t) + t - s) % t);
    }
    (server, client)
}

/// One interactive op from the server's side: reconstruct the `dims`
/// activation from the client's share and `server_share`, apply the
/// op, reshare. A pooling payload leads with the dims, which must be
/// the server's. Returns the result's dims and the server's fresh
/// share of it.
pub(super) fn server_round<R: Rng>(
    transport: &dyn Transport,
    op: &Op,
    round: u16,
    dims: Dims,
    server_share: &[u64],
    t: u64,
    rng: &mut R,
) -> Result<(Dims, Vec<u64>), SpotError> {
    let (code, name, out) = round_kind(op, dims);
    let _span = spot_trace::span(Cat::Session, name).arg("round", round as u64);
    let blob = recv_round(transport, code, round)?;
    let body = match op {
        Op::Relu => &blob[..],
        _ => blob.strip_prefix(&dims_prefix(dims)[..]).ok_or_else(|| {
            SpotError::Protocol(format!(
                "{name} payload does not lead with the layer's dims {dims:?}"
            ))
        })?,
    };
    let client_share = decode_share(body, t, dims)?;
    let values = reconstruct(&client_share, server_share, t);
    let y = op.apply(Tensor::from_vec(dims.0, dims.1, dims.2, values));
    let (srv, cli) = reshare(y.data(), t, rng);
    transport.send(&WireMessage::OtRound {
        op: code,
        round,
        blob: encode_share(&cli),
    })?;
    Ok((out, srv))
}

/// Server half of the two-party protocol: the server walker of the
/// module doc. Serves every convolution session, evaluates the
/// non-linear rounds on reconstructed values (see the module-level
/// demo-simplification note), and reveals its share where the program
/// says so. `opts` ([`ServeOptions`]: shared per-model kernel caches and
/// the per-session batch budget, [`ServeOptions::default`] for neither)
/// apply to every convolution layer.
///
/// The batch width is learned from the client's first `Setup` (the
/// session layer returns one server share per batched image).
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
    // The client's rotation keys, for every convolution.
    let keys = ConnectionKeys::default();
    // The `h × w` the server's shares have reached: the next
    // convolution's input, whatever its hello says.
    let mut reached = None;
    // The batch width arrives with the client's first Setup and holds
    // for the connection.
    let mut batch = None;
    let mut kept = Kept::new();
    for (at, kernel, stride, tail) in cnn.stages() {
        let layer = ModelLayer {
            kernel,
            stride: Some(stride),
            input: reached,
        };
        let summary = serve_conv_on(ctx, transport, layer, backend, opts, &keys, rng)?;
        report.counts.merge(&summary.counts);
        if let Some(s) = &summary.stream {
            report.stream.accumulate(s);
        }
        report.input_cts += summary.input_cts;
        report.output_cts += summary.output_cts;
        let mut shares = vec![summary.server_share];
        shares.extend(summary.extra_shares);
        let batch = *batch.get_or_insert(shares.len());
        if shares.len() != batch {
            return Err(SpotError::Protocol(format!(
                "layer batch {} does not match the connection's batch {batch}",
                shares.len()
            )));
        }
        report.batch = batch;
        for (b, share) in shares.iter().enumerate() {
            let step = |i, op: &Op, dims: Dims, mine: &[u64]| {
                if !matches!(op, Op::Reveal) {
                    let round = round_of(cnn.ops(), i, batch, b);
                    return server_round(transport, op, round, dims, mine, t, rng);
                }
                transport.send(&WireMessage::ShareReveal {
                    blob: encode_share(mine),
                })?;
                spot_trace::instant(Cat::Session, "share reveal");
                reached = Some((dims.1, dims.2));
                Ok((dims, vec![0; mine.len()]))
            };
            let share = conv_share(share, t);
            walk_image(cnn, (at, tail), b, share, t, &mut kept, step)?;
        }
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
