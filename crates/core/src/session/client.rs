//! The client's half of a layer: what the tiny client runs. It packs,
//! encrypts and uploads by walking the layer's [`Schedule`], then
//! decrypts the masked results into its additive shares. It uses nothing
//! of the server's half, of the conv driver or of the worker pool.

use super::spec::{check_batch, rounds, Frame, LayerSpec, RowCodec, Schedule};
use crate::error::SpotError;
use crate::tile::Packing;
use rand::Rng;
use spot_he::ciphertext::{Ciphertext, SparseCiphertext};
use spot_he::context::Context;
use spot_he::encryptor::{Decryptor, SymmetricEncryptor};
use spot_he::keys::KeyGenerator;
use spot_proto::{Transport, WireMessage};
use spot_tensor::tensor::Tensor;
use spot_trace::Cat;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How the client paces its upload relative to the server's setup
/// acknowledgement (the `LayerBarrier` the server sends once the hello
/// is planned and admitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadPacing {
    /// Push everything immediately. Correct for the phased in-process
    /// harness, where the server only starts consuming after the whole
    /// upload is queued (waiting for an ack would deadlock).
    Eager,
    /// Hold input ciphertexts and rotation keys until the server
    /// acknowledges the setup. This keeps the upload inside the
    /// server's measured stall window — a tiny client cannot usefully
    /// transmit before the server is ready to consume, and
    /// pre-buffering would let the transport hide the upload span the
    /// stall accounting reports.
    AwaitAck,
}

/// The client's completed download phase for one image: its additive
/// output share.
#[derive(Debug, Clone)]
pub struct ClientShare {
    /// The client's additive share of the (strided) output tensor.
    pub share: Tensor,
    /// Masked result ciphertexts absorbed, one decryption each.
    pub output_cts: usize,
}

/// The client's completed download phase: one additive output share
/// per image, in submission order.
#[derive(Debug, Clone)]
pub struct ClientBatchShare {
    /// Per-image additive shares of the (strided) output tensors.
    pub shares: Vec<Tensor>,
    /// Masked result ciphertexts absorbed, one decryption each (per
    /// batch, not per image).
    pub output_cts: usize,
}

/// Client half of one secure-convolution layer on one connection.
///
/// Construct once per connection, then drive the two phases:
/// [`ClientConv::send_batch`] (hello, keys, encrypted upload) and
/// [`ClientConv::absorb_batch`] (masked results → additive shares). The
/// halves are independent, so over a socket transport they can run on
/// two threads to overlap upload with download. A further layer on the
/// same transport comes from [`ClientConv::next_layer`].
pub struct ClientConv<'a> {
    ctx: Arc<Context>,
    keygen: &'a KeyGenerator,
    /// Galois elements whose keys, made by `keygen`, this connection's
    /// server already holds. Kept beside the generator borrow so the
    /// record can never be consulted for another secret key.
    uploaded: Mutex<HashSet<usize>>,
    /// Whether the uploader took the barrier ([`UploadPacing::AwaitAck`])
    /// ahead of the absorber, which then expects only the results.
    acked: AtomicBool,
    spec: LayerSpec,
    plan: Packing,
}

impl<'a> ClientConv<'a> {
    /// Plans the first layer of a fresh connection client-side: the
    /// server holds none of `keygen`'s rotation keys yet.
    pub fn new(
        ctx: &Arc<Context>,
        keygen: &'a KeyGenerator,
        spec: LayerSpec,
    ) -> Result<Self, SpotError> {
        let plan = spec.scheme.plan(&spec, ctx.params().level())?;
        Ok(Self {
            ctx: Arc::clone(ctx),
            keygen,
            uploaded: Mutex::default(),
            acked: AtomicBool::new(false),
            spec,
            plan,
        })
    }

    /// Plans the connection's next layer: same transport, same secret
    /// key, and the rotation keys uploaded so far stay uploaded.
    pub fn next_layer(self, spec: LayerSpec) -> Result<Self, SpotError> {
        let plan = spec.scheme.plan(&spec, self.ctx.params().level())?;
        Ok(Self { spec, plan, ..self })
    }

    /// Number of input ciphertexts one image's upload sends.
    pub fn input_cts(&self) -> usize {
        self.plan.facts.input_cts
    }

    /// How many queued images this layer can coalesce into one round's
    /// upload: the spare SIMD-slot positions of the layer's packing
    /// (Cheetah batches as sequential images bounded only by the wire
    /// field). A wider batch runs in rounds of this many.
    pub fn batch_capacity(&self) -> usize {
        self.plan.facts.batch_capacity
    }

    /// The coefficients of each result this layer's client decrypts and
    /// the wire carries of `c0` (coefficient packing), or `None` where a
    /// result comes whole.
    pub fn result_positions(&self) -> Option<&[usize]> {
        self.plan.result_positions()
    }

    /// The frames this layer's next exchange of `batch` images carries:
    /// its keys are the rotation keys the connection's server does not
    /// hold yet.
    pub fn schedule(&self, batch: usize) -> Result<Schedule, SpotError> {
        let rounds = batch.div_ceil(check_batch(&self.plan, batch)?);
        let held = (self.uploaded.lock()).map_err(|_| SpotError::Poisoned("uploaded keys"))?;
        Ok(Schedule::new(&self.plan, |g| held.contains(&g), rounds))
    }

    /// [`ClientConv::send_batch`] for one image.
    pub fn send_all<R: Rng>(
        &self,
        transport: &dyn Transport,
        input: &Tensor,
        pacing: UploadPacing,
        rng: &mut R,
    ) -> Result<usize, SpotError> {
        self.send_batch(transport, std::slice::from_ref(input), pacing, rng)
    }

    /// Upload phase: walks the uplink of the layer's [`Schedule`] — the
    /// hello, then the input ciphertexts, each followed by the rotation
    /// keys scheduled behind it, each made immediately before it is
    /// sent. The rng is drawn in the same order: the canonical client
    /// rng sequence.
    /// Inputs are encrypted under the secret key and travel in the
    /// seeded form ([`SymmetricEncryptor`]), at the primes results
    /// travel at ([`Context::result_context`]); the client makes no
    /// public key. With [`UploadPacing::AwaitAck`] everything
    /// after the hello is held until the server's setup acknowledgement
    /// arrives on the downlink.
    ///
    /// The slot-packed schemes interleave up to the layer's batch
    /// capacity of images into the same ciphertexts, so the upload — and
    /// the server's rotations and key-switches — stay those of a single
    /// image per round; a wider batch runs in rounds of that many, the
    /// last taking what is left. One image is the identity layout.
    ///
    /// Returns the input ciphertexts sent, one encryption each.
    pub fn send_batch<R: Rng>(
        &self,
        transport: &dyn Transport,
        inputs: &[Tensor],
        pacing: UploadPacing,
        rng: &mut R,
    ) -> Result<usize, SpotError> {
        let batch = inputs.len();
        let width = check_batch(&self.plan, batch)?;
        // When wire trace context is on, the hello carries a trace id
        // that the server echoes into its serve span — the merge tool
        // pairs the two layer spans by this value.
        let trace_id = spot_trace::next_wire_trace_id();
        let mut span = spot_trace::span_owned(Cat::Session, || {
            format!("send_all {}", self.spec.scheme.name())
        })
        .arg("batch", batch as u64);
        if trace_id != 0 {
            span = span.arg("trace", trace_id);
        }
        let _span = span;
        let shape = &self.spec.shape;
        for input in inputs {
            if input.channels() != shape.c_in
                || input.height() != shape.height
                || input.width() != shape.width
            {
                return Err(SpotError::Protocol(format!(
                    "input tensor {}x{}x{} does not match layer spec {}x{}x{}",
                    input.channels(),
                    input.height(),
                    input.width(),
                    shape.c_in,
                    shape.height,
                    shape.width
                )));
            }
        }
        let mut setup = self.spec.to_setup(self.ctx.params().level());
        if batch > 1 {
            setup.batch = batch as u8;
        }
        setup.trace = trace_id;
        let mut held = (self.uploaded.lock()).map_err(|_| SpotError::Poisoned("uploaded keys"))?;
        let schedule = Schedule::new(&self.plan, |g| held.contains(&g), batch.div_ceil(width));
        // Behind the hello, which carries the spec rather than a blob.
        let mut frames = schedule.uplink.into_iter().skip(1).peekable();
        transport.send(&WireMessage::Setup(setup))?;
        if pacing == UploadPacing::AwaitAck {
            schedule.downlink[0].open(transport.recv()?)?;
            self.acked.store(true, Ordering::SeqCst);
        }
        // At the primes results travel at, under the key rows that
        // decrypt them; the server lifts each input back (`read_upload`).
        let rctx = self.ctx.result_context();
        let encryptor = SymmetricEncryptor::new(rctx, self.keygen.secret_key().restricted_to(rctx));
        let t = self.ctx.params().plain_modulus();
        let codec = RowCodec::new(&self.ctx, &self.plan);
        let mut sent = 0;
        for round in inputs.chunks(width) {
            self.plan.pack(round, t, &mut |row| {
                let Some(input) = frames.next() else {
                    return Err(SpotError::Protocol(
                        "packed an input past the schedule".into(),
                    ));
                };
                let blob = encryptor.encrypt(&codec.encode(&row), rng).to_bytes();
                transport.send(&input.message(blob))?;
                // The keys behind this input, each made as it is sent,
                // so the server rotates by one while the next is made.
                while let Some(key @ Frame::Key(g)) =
                    frames.next_if(|frame| matches!(frame, Frame::Key(_)))
                {
                    transport.send(&key.message(self.keygen.galois_key_blob(g, rng)))?;
                    held.insert(g);
                }
                sent += 1;
                Ok(())
            })?;
        }
        Ok(sent)
    }

    /// [`ClientConv::absorb_batch`] for one image.
    pub fn absorb_all(&self, transport: &dyn Transport) -> Result<ClientShare, SpotError> {
        let mut all = self.absorb_batch(transport, 1)?;
        Ok(ClientShare {
            share: all.shares.remove(0),
            output_cts: all.output_cts,
        })
    }

    /// Download phase: receives every masked result, decrypts, and
    /// assembles one additive share per image. Needs no randomness, so
    /// it can run concurrently with [`ClientConv::send_batch`] over a
    /// socket transport. Image `b`'s share is bit-identical to a
    /// one-image run whose server mask rng was seeded with image `b`'s
    /// per-image seed.
    pub fn absorb_batch(
        &self,
        transport: &dyn Transport,
        batch: usize,
    ) -> Result<ClientBatchShare, SpotError> {
        let width = check_batch(&self.plan, batch)?;
        let per_round = self.plan.facts.output_cts;
        let expected = batch.div_ceil(width) * per_round;
        let _span = spot_trace::span_owned(Cat::Session, || {
            format!("absorb_all {}", self.spec.scheme.name())
        })
        .arg("output_cts", expected as u64)
        .arg("batch", batch as u64);
        // The downlink is the same whatever keys the connection holds.
        let schedule = Schedule::new(&self.plan, |_| true, batch.div_ceil(width));
        // Under `AwaitAck` the uploader has taken the barrier.
        if !self.acked.swap(false, Ordering::SeqCst) {
            schedule.downlink[0].open(transport.recv()?)?;
        }
        let mut decoded = self.receive_decoded(transport, &schedule.downlink[1..])?;
        let t = self.ctx.params().plain_modulus();
        let mut shares = Vec::with_capacity(batch);
        for (round, images) in decoded.chunks_mut(per_round).zip(rounds(batch, width)) {
            for b in 0..images.len() {
                // A lone image's rows are already in single-image form;
                // otherwise demultiplex its slot positions.
                let rows = if width == 1 {
                    round.iter_mut().map(std::mem::take).collect()
                } else {
                    // `width > 1` is `round_width` saying the scheme
                    // lays images out in shared slots, which a scheme
                    // that does so does in every result.
                    (round.iter().enumerate())
                        .map(|(r, row)| {
                            let layout = self.plan.batch_layout(r).ok_or_else(|| {
                                SpotError::Protocol(format!(
                                    "result {r} of a {width}-image round has no batch layout"
                                ))
                            })?;
                            Ok(layout.unpack_image(row, b))
                        })
                        .collect::<Result<_, SpotError>>()?
                };
                shares.push(self.plan.share(rows, t, true));
            }
        }
        Ok(ClientBatchShare {
            shares,
            output_cts: expected,
        })
    }

    /// Receives the result `frames`, each checked against the wire, and
    /// decrypts and decodes each into its slot/coeff values. Returns the
    /// rows in result order.
    fn receive_decoded(
        &self,
        transport: &dyn Transport,
        frames: &[Frame],
    ) -> Result<Vec<Vec<u64>>, SpotError> {
        // Results arrive switched down to the first primes of the level
        // (`Context::result_context`): read and decrypt them there, under
        // the same rows of the secret key.
        let rctx = self.ctx.result_context();
        let decryptor = Decryptor::new(rctx, self.keygen.secret_key().restricted_to(rctx));
        let codec = RowCodec::new(rctx, &self.plan);
        let mut decoded = Vec::with_capacity(frames.len());
        for &frame in frames {
            let blob = frame.open(transport.recv()?)?;
            decoded.push(match self.plan.result_positions() {
                // Decrypted at the positions the share reads, which is
                // all it reads of the row.
                Some(positions) => {
                    let ct = SparseCiphertext::try_from_bytes(rctx, &blob, positions)?;
                    let mut row = vec![0u64; rctx.degree()];
                    for (&pos, value) in positions.iter().zip(decryptor.decrypt_sparse(&ct)) {
                        row[pos] = value;
                    }
                    row
                }
                None => {
                    let ct = Ciphertext::try_from_bytes(rctx, &blob)?;
                    codec.decode(&decryptor.decrypt(&ct))
                }
            });
        }
        Ok(decoded)
    }
}

/// Closes a transport's sending side when dropped — when an uploader
/// returns or unwinds — unless [`HangUp::keep_open`] was called first:
/// a peer waiting for the next frame of an uploader that failed or
/// panicked reads `Closed` instead of waiting forever.
pub(crate) struct HangUp<'a>(Option<&'a dyn Transport>);

impl<'a> HangUp<'a> {
    pub(crate) fn new(transport: &'a dyn Transport) -> Self {
        Self(Some(transport))
    }

    /// Leaves the transport open: the upload succeeded and the
    /// connection goes on.
    pub(crate) fn keep_open(mut self) {
        self.0 = None;
    }
}

impl Drop for HangUp<'_> {
    fn drop(&mut self) {
        if let Some(transport) = self.0 {
            transport.close_tx();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::spec::tests::conv1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::params::{EncryptionParams, ParamLevel};
    use spot_proto::MemTransport;

    /// Under `AwaitAck` the uploader takes the barrier, so the absorber
    /// expects results only: a second barrier is refused, not skipped.
    #[test]
    fn a_second_barrier_on_an_acked_downlink_is_refused() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(4);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let client = ClientConv::new(&ctx, &keygen, conv1()).expect("plan");
        let (client_end, server_end) = MemTransport::pair();
        for _ in 0..2 {
            (server_end.send(&WireMessage::LayerBarrier { layer: 0 })).expect("send");
        }
        server_end.close_tx();
        let input = Tensor::random(2, 8, 8, 5, 5);
        (client.send_all(&client_end, &input, UploadPacing::AwaitAck, &mut rng)).expect("upload");
        match client.absorb_all(&client_end) {
            Err(SpotError::Protocol(detail)) => assert!(
                detail.contains("expected MaskedResult, got LayerBarrier"),
                "{detail}"
            ),
            other => panic!("expected the typed error, got {other:?}"),
        }
    }
}
