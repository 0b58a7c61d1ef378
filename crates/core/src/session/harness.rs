//! Both halves of a layer in one process over a
//! [`MemTransport`] pair: the tests', tools' and examples' one way to
//! run a convolution without a socket.

use super::client::{ClientConv, HangUp, UploadPacing};
use super::server::{serve_conv_with, ExecBackend, ServeOptions};
use super::spec::LayerSpec;
use crate::channelwise::SecureConvResult;
use crate::error::SpotError;
use crate::stream::StreamStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_proto::channel::TrafficStats;
use spot_proto::{MemTransport, Transport};
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// Result of an in-process client/server run: per-image functional
/// results plus per-direction traffic measured from the real serialized
/// frames.
#[derive(Debug)]
pub struct InProcessOutcome {
    /// One result per image, in submission order. Operation and
    /// ciphertext counts are per batch and repeat on every image's
    /// result (slot batching leaves the rotation and key-switch counts
    /// at their single-image values).
    pub results: Vec<SecureConvResult>,
    /// The server's stall accounting (see
    /// [`ServerConvSummary::stream`](crate::session::ServerConvSummary::stream)).
    pub stream: StreamStats,
    /// Client → server traffic (framed wire bytes).
    pub uplink: TrafficStats,
    /// Server → client traffic (framed wire bytes).
    pub downlink: TrafficStats,
}

impl InProcessOutcome {
    /// The first image's result — the whole outcome of a one-image run.
    pub fn into_result(mut self) -> SecureConvResult {
        self.results.swap_remove(0)
    }
}

/// Runs one secure convolution over `inputs` (one image, or a batch
/// coalesced into shared ciphertexts) with both parties in this process
/// over a [`MemTransport`], exchanging real serialized frames.
///
/// Client and server randomness is split deterministically from `rng`
/// (one seed draw each, in that order) so phased and streaming runs of
/// the same seed produce bit-identical shares. With the phased backend
/// the client finishes its upload on the calling thread before the
/// server starts; with the streaming backend it uploads from a second
/// thread through a bounded uplink sized to the stream config's channel
/// capacity — the bound that models the tiny client's memory.
pub fn run_in_process<R: Rng>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    spec: LayerSpec,
    inputs: &[Tensor],
    kernel: &Kernel,
    backend: &ExecBackend,
    rng: &mut R,
) -> Result<InProcessOutcome, SpotError> {
    let batch = inputs.len();
    let client_seed = rng.gen::<u64>();
    let server_seed = rng.gen::<u64>();
    let client = ClientConv::new(ctx, keygen, spec)?;
    let mut crng = StdRng::seed_from_u64(client_seed);
    let mut srng = StdRng::seed_from_u64(server_seed);
    let opts = ServeOptions::default();

    let uplink = backend.split().1;
    let (ct, st) = MemTransport::pair_with_capacity(uplink, None);
    let (sent, server) = match uplink {
        None => {
            let sent = client.send_batch(&ct, inputs, UploadPacing::Eager, &mut crng)?;
            (
                sent,
                serve_conv_with(ctx, &st, kernel, backend, opts, &mut srng)?,
            )
        }
        Some(_) => {
            let (ct_ref, client_ref) = (&ct, &client);
            let scope_result = crossbeam::thread::scope(|s| {
                let uploader = s.spawn(move |_| {
                    spot_trace::set_thread_label("client");
                    let t0 = Instant::now();
                    // Always close, on an unwind too: a server stuck in
                    // recv after a client failure sees Closed instead of
                    // blocking forever.
                    let hang_up = HangUp::new(ct_ref);
                    let r =
                        client_ref.send_batch(ct_ref, inputs, UploadPacing::AwaitAck, &mut crng);
                    drop(hang_up);
                    spot_trace::flush_thread();
                    (r, t0.elapsed())
                });
                let server_res = serve_conv_with(ctx, &st, kernel, backend, opts, &mut srng);
                if server_res.is_err() {
                    // Unblock a client stuck on the bounded uplink.
                    ct_ref.close_tx();
                    st.close_tx();
                }
                let (client_res, client_wall) = uploader
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                (server_res, client_res, client_wall)
            });
            let (server_res, client_res, client_wall) = match scope_result {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            let mut server = server_res?;
            let sent = client_res?;
            // The driver timed the server's ingest thread; report the
            // real client thread's wall time and the transport's
            // measured send backpressure in its place.
            if let Some(stats) = server.stream.as_mut() {
                let blocked = ct.stats().send_blocked.as_secs_f64();
                stats.client_blocked_s = blocked;
                stats.client_s = (client_wall.as_secs_f64() - blocked).max(0.0);
            }
            (sent, server)
        }
    };
    let share = client.absorb_batch(&ct, batch)?;

    let mut counts = server.counts;
    counts.encrypt += sent as u64;
    counts.decrypt += share.output_cts as u64;
    let server_shares = std::iter::once(server.server_share).chain(server.extra_shares);
    let tstats = ct.stats();
    Ok(InProcessOutcome {
        results: (share.shares.into_iter().zip(server_shares))
            .map(|(client_share, server_share)| SecureConvResult {
                client_share,
                server_share,
                counts,
                input_cts: server.input_cts,
                output_cts: server.output_cts,
                modulus: ctx.params().plain_modulus(),
            })
            .collect(),
        stream: server.stream.unwrap_or_default(),
        uplink: tstats.sent,
        downlink: tstats.received,
    })
}

#[cfg(test)]
use crate::executor::Executor;

/// One image through a single-threaded phased in-process session — the
/// scheme modules' unit tests all run their layers this way.
#[cfg(test)]
pub(crate) fn run_phased<R: Rng>(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    spec: LayerSpec,
    input: &Tensor,
    kernel: &Kernel,
    rng: &mut R,
) -> SecureConvResult {
    let backend = ExecBackend::Phased(Executor::serial());
    let inputs = std::slice::from_ref(input);
    run_in_process(ctx, keygen, spec, inputs, kernel, &backend, rng)
        .expect("in-process session")
        .into_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patching::PatchMode;
    use crate::session::spec::SchemeKind;
    use spot_he::params::{EncryptionParams, ParamLevel};
    use spot_tensor::models::ConvShape;

    /// N2048 has no rotation keys. A SIMD layer whose walks rotate is
    /// refused when it is planned, on either side of the wire, where
    /// it used to plan and then panic in the client's key generation;
    /// a layer that rotates by nothing, and Cheetah, still plan there.
    #[test]
    fn a_layer_that_rotates_is_refused_at_a_level_without_rotations() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N2048));
        let mut rng = StdRng::seed_from_u64(3);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let spec = |scheme, shape| LayerSpec {
            scheme,
            shape,
            patch: (4, 4),
            mode: PatchMode::Tweaked,
        };
        let layer = ConvShape::new(8, 8, 2, 4, 3, 1);
        for scheme in [SchemeKind::Spot, SchemeKind::Channelwise] {
            let refused = ClientConv::new(&ctx, &keygen, spec(scheme, layer)).err();
            assert!(
                matches!(&refused, Some(SpotError::Protocol(why)) if why.contains("does not support rotations")),
                "{scheme:?}: {refused:?}"
            );
            let input = Tensor::random(2, 8, 8, 4, 1);
            let kernel = Kernel::random(4, 2, 3, 3, 3, 2);
            let backend = ExecBackend::Phased(Executor::serial());
            let run = run_in_process(
                &ctx,
                &keygen,
                spec(scheme, layer),
                &[input],
                &kernel,
                &backend,
                &mut rng,
            );
            assert!(matches!(run, Err(SpotError::Protocol(_))), "{scheme:?}");
        }
        let pointwise = spec(SchemeKind::Channelwise, ConvShape::new(8, 8, 1, 1, 1, 1));
        assert!(ClientConv::new(&ctx, &keygen, pointwise).is_ok());
        assert!(ClientConv::new(&ctx, &keygen, spec(SchemeKind::Cheetah, layer)).is_ok());
    }
}
