//! The server's half of a layer: it reads the hello, checks every
//! uplink frame against the layer's [`Schedule`], convolves through the
//! conv driver as inputs and rotation keys arrive, and masks the results
//! back. [`ExecBackend`] lives here because the server's pinned entry
//! point, [`serve_conv_with`], takes it.

use super::spec::{
    check_batch, rounds, unexpected, ConvScheme, Frame, LayerSpec, RowCodec, Schedule, ServerKit,
};
use crate::error::SpotError;
use crate::executor::Executor;
use crate::heconv::{HeConvEngine, KernelCache, RotationKeys};
use crate::stream::{end_wait, run_stream, Round, StreamConfig, StreamStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::ciphertext::Ciphertext;
use spot_he::context::Context;
use spot_he::evaluator::OpCounts;
use spot_he::keys::GaloisKeys;
use spot_he::serial::galois_keys_from_bytes;
use spot_proto::{Transport, WireMessage};
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::Cat;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which in-process harness a secure convolution runs under. The
/// server work is driven the same way for both — [`run_stream`], a job
/// waiting for the inputs it reads — so the variants differ only in
/// the worker pool and read-ahead they carry and in how
/// [`run_in_process`](crate::session::run_in_process) schedules the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// The client finishes its upload before the server starts, over an
    /// unbounded link; the server's read-ahead is unbounded too. The
    /// sequential reference the determinism suites compare against.
    Phased(Executor),
    /// The client uploads from its own thread through a link bounded
    /// by the config's capacity, overlapped with server convolution;
    /// the same capacity bounds the server's read-ahead.
    Streaming(StreamConfig),
}

impl ExecBackend {
    /// What the variant selects: the driver configuration, and the
    /// in-process uplink bound (`None` = the client runs first).
    pub(super) fn split(&self) -> (StreamConfig, Option<usize>) {
        match *self {
            ExecBackend::Phased(executor) => (StreamConfig::new(executor, usize::MAX), None),
            ExecBackend::Streaming(config) => (config, Some(config.channel_capacity)),
        }
    }
}

fn draw_mask<R: Rng>(rng: &mut R, degree: usize, t: u64) -> Vec<u64> {
    (0..degree).map(|_| rng.gen_range(0..t)).collect()
}

/// Most layer specs a [`SharedKernelCaches`] keeps lifted kernels for.
/// The spec arrives in the client's hello, so without a bound a client
/// cycling through valid heights, widths and patch sizes grows the
/// server for as long as it runs (about 10 MB of lifted plaintexts per
/// spec for TinyCnn's conv1 at N4096). Eight holds a two-layer model
/// under all three schemes with room to spare.
pub const MAX_CACHED_SPECS: usize = 8;

/// Per-model NTT-domain kernel caches, shared across every serving
/// session of that model: one [`KernelCache`] per [`LayerSpec`] — the
/// request's `cache_tag` keeps a layer's walks (one per piece class and
/// channel group of its tile) apart inside it; Cheetah's stays empty — for
/// the [`MAX_CACHED_SPECS`] most recently served specs. Cache contents
/// depend only on the layer geometry and the model's kernel weights — no
/// client key material — which is what makes cross-session sharing safe.
#[derive(Debug, Default)]
pub struct SharedKernelCaches {
    /// Least recently served first.
    by_layer: parking_lot::Mutex<Vec<(LayerSpec, KernelCache)>>,
}

impl SharedKernelCaches {
    /// An empty cache set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache for `spec`, created on first use; clones share
    /// storage, so every session of the model converges on the same
    /// lifted plaintexts. A new spec beyond the bound drops the least
    /// recently served one: sessions still running on it keep their
    /// clone, and its next session starts cold.
    fn cache_for(&self, spec: &LayerSpec) -> KernelCache {
        let mut specs = self.by_layer.lock();
        let entry = match specs.iter().position(|(held, _)| held == spec) {
            Some(at) => specs.remove(at),
            None => {
                if specs.len() == MAX_CACHED_SPECS {
                    specs.remove(0);
                }
                (*spec, KernelCache::new())
            }
        };
        let cache = entry.1.clone();
        specs.push(entry);
        cache
    }

    /// Total cached kernel plaintext combinations across all layers.
    pub fn total_entries(&self) -> usize {
        let specs = self.by_layer.lock();
        specs.iter().map(|(_, cache)| cache.len()).sum()
    }
}

/// The rotation keys one connection's client has uploaded so far: the
/// server-side half of the key-stream rule, and where a rotation waits
/// for its key. Lives as long as the transport (a
/// [`crate::twoparty::run_server_with`] call, a [`serve_conv_with`] call
/// for a one-layer connection) and is never shared between connections,
/// so it only ever holds keys of one secret key. Its size is bounded by
/// the union of the served layers' planned element sets: the one writer,
/// a layer's `Uplink`, admits a key only as the key frame its
/// [`Schedule`] puts next.
#[derive(Debug)]
pub struct ConnectionKeys {
    state: Mutex<KeyState>,
    changed: Condvar,
}

#[derive(Debug)]
struct KeyState {
    /// Each element's key, in the one-key set its frame carried.
    held: HashMap<usize, Arc<GaloisKeys>>,
    /// `None` while the layer being served may still be sent keys;
    /// otherwise why no more can arrive.
    ended: Option<String>,
}

impl Default for ConnectionKeys {
    fn default() -> Self {
        Self {
            state: Mutex::new(KeyState {
                held: HashMap::new(),
                ended: Some("no key upload is open".into()),
            }),
            changed: Condvar::new(),
        }
    }
}

impl ConnectionKeys {
    fn lock(&self) -> Result<std::sync::MutexGuard<'_, KeyState>, SpotError> {
        (self.state.lock()).map_err(|_| SpotError::Poisoned("connection keys"))
    }

    /// Ends the open upload, if one is: every waiter for a key that is
    /// not here learns `why` it will not come. The first reason stays.
    fn end(&self, why: impl Into<String>) {
        // A poisoned lock is ignored: the panic that poisoned it is
        // already propagating, and this runs from a `Drop`.
        if let Ok(mut state) = self.state.lock() {
            state.ended.get_or_insert_with(|| why.into());
        }
        self.changed.notify_all();
    }
}

impl RotationKeys for ConnectionKeys {
    /// Blocks until `g`'s key has been uploaded or the upload has
    /// ended without it. The time blocked is stall, not work: it shows
    /// as a `wait key` span and the caller moves it from busy to idle.
    fn wait(&self, g: usize) -> Result<(Arc<GaloisKeys>, Duration), SpotError> {
        let span = spot_trace::span(Cat::Stream, "wait key");
        let mut waited = Duration::ZERO;
        let mut state = self.lock()?;
        let found = loop {
            if let Some(key) = state.held.get(&g) {
                break Ok(Arc::clone(key));
            }
            if let Some(why) = &state.ended {
                break Err(SpotError::Protocol(format!(
                    "the rotation key for galois element {g} will not arrive: {why}"
                )));
            }
            let t0 = Instant::now();
            state =
                (self.changed.wait(state)).map_err(|_| SpotError::Poisoned("connection keys"))?;
            waited += t0.elapsed();
        };
        drop(state);
        end_wait(span, waited);
        found.map(|key| (key, waited))
    }
}

/// The server's reader of one layer's uplink behind the hello: it takes
/// every frame as the next entry of the layer's [`Schedule`]
/// ([`Frame::open`]) and puts each key into the connection's store as
/// it lands. The store is open from [`Uplink::open`] until the last
/// scheduled key is in or this is dropped, on whatever path — read to
/// the end, refused, or never reached — so a worker waiting for a key
/// always gets it or an error.
struct Uplink<'a> {
    keys: &'a ConnectionKeys,
    /// The frames still to come, in order.
    frames: std::iter::Peekable<std::slice::Iter<'a, Frame>>,
}

impl<'a> Uplink<'a> {
    /// The reader of `schedule`'s uplink behind the hello, with `keys`
    /// open for its key frames if it has any.
    fn open(keys: &'a ConnectionKeys, schedule: &'a Schedule) -> Result<Self, SpotError> {
        let frames = schedule.uplink[1..].iter().peekable();
        // Nothing missing, no frames, nothing to wait for: a client
        // that sends one anyway fails the input read in its place.
        if (frames.clone()).any(|frame| matches!(frame, Frame::Key(_))) {
            keys.lock()?.ended = None;
        }
        Ok(Self { keys, frames })
    }

    /// Reads the next round of `inputs` inputs and the keys behind them
    /// off `transport`, each frame the schedule's next entry. An input
    /// goes to `queue` still serialized — `run_stream`'s workers decode
    /// on the pool, so this thread goes straight back to the socket — and a
    /// key into the store as it lands: exactly one key, of exactly the
    /// scheduled element. A read that fails ends the key upload with its
    /// error.
    fn round(
        &mut self,
        transport: &dyn Transport,
        ctx: &Arc<Context>,
        inputs: usize,
        queue: &mut dyn FnMut(Vec<u8>) -> Result<(), SpotError>,
    ) -> Result<(), SpotError> {
        let mut left = inputs;
        let mut read = || {
            while let Some(&frame) =
                (self.frames).next_if(|frame| left > 0 || matches!(frame, Frame::Key(_)))
            {
                let blob = frame.open(transport.recv()?)?;
                let Frame::Key(want) = frame else {
                    left -= 1;
                    queue(blob)?;
                    continue;
                };
                let key = galois_keys_from_bytes(ctx, &blob)?;
                if key.len() != 1 || !key.contains(want) {
                    let mut got: Vec<usize> = key.elements().collect();
                    got.sort_unstable();
                    return Err(SpotError::Protocol(format!(
                        "key frame carries galois elements {got:?}, \
                         want exactly the next scheduled one, {want}"
                    )));
                }
                self.keys.lock()?.held.insert(want, Arc::new(key));
                self.keys.changed.notify_all();
                // With the last key in, a wait for any other can only
                // fail: it fails at once.
                if !(self.frames.clone()).any(|frame| matches!(frame, Frame::Key(_))) {
                    self.keys.end(UPLOAD_OVER);
                }
            }
            Ok(())
        };
        let read = read();
        if let Err(e) = &read {
            self.keys.end(e.to_string());
        }
        read
    }
}

/// Why a key cannot arrive once its layer's schedule has been served.
const UPLOAD_OVER: &str = "the layer's key upload is over";

impl Drop for Uplink<'_> {
    fn drop(&mut self) {
        self.keys.end(UPLOAD_OVER);
    }
}

/// Server-side knobs for one [`serve_conv_with`] call. The default is
/// the single-tenant server: private caches, no batch cap beyond the
/// layer's SIMD capacity.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions<'a> {
    /// Model-wide kernel caches to share across sessions (`None` =
    /// build a fresh private cache for this call).
    pub shared: Option<&'a SharedKernelCaches>,
    /// Admission control: largest `Setup` batch this session's
    /// ciphertext-memory budget admits. A hello above it is refused
    /// with [`SpotError::Rejected`] (`error_code::OVER_BUDGET`) before
    /// any ciphertext is received, so the server never OOMs trying.
    pub max_batch: Option<usize>,
}

/// Outcome of one served convolution layer.
#[derive(Debug)]
pub struct ServerConvSummary {
    /// The server's additive share of the (strided) output tensor
    /// (image 0 of a batched layer).
    pub server_share: Tensor,
    /// Server shares of batched images 1.. (empty for a one-image
    /// layer).
    pub extra_shares: Vec<Tensor>,
    /// HE operations performed on the server (per batch, not per
    /// image — slot batching leaves these unchanged as the batch
    /// width grows).
    pub counts: OpCounts,
    /// Input ciphertexts received.
    pub input_cts: usize,
    /// Masked result ciphertexts sent.
    pub output_cts: usize,
    /// Stall accounting summed over the layer's rounds (always
    /// present; optional for source compatibility).
    pub stream: Option<StreamStats>,
}

/// Server half of one secure-convolution layer: reads the hello,
/// acknowledges it, convolves as inputs and keys arrive, masks results
/// back, and keeps the server's additive share. Draws only result masks
/// from `rng`, in result order. `opts` are the serving layer's shared
/// per-model kernel caches and per-session batch budget
/// ([`ServeOptions::default`] for neither). The whole connection is this
/// one layer, at the stride and input size the client's hello names.
pub fn serve_conv_with<R: Rng>(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    kernel: &Kernel,
    backend: &ExecBackend,
    opts: ServeOptions<'_>,
    rng: &mut R,
) -> Result<ServerConvSummary, SpotError> {
    let keys = ConnectionKeys::default();
    let layer = ModelLayer {
        kernel,
        stride: None,
        input: None,
    };
    serve_conv_on(ctx, transport, layer, backend, opts, &keys, rng)
}

/// What the server's model says about the convolution a hello asks for;
/// a hello that says otherwise is refused.
#[derive(Debug, Clone, Copy)]
pub struct ModelLayer<'a> {
    /// The weights: `c_out × c_in × k_h × k_w`.
    pub kernel: &'a Kernel,
    /// The stride, where the model fixes one.
    pub stride: Option<usize>,
    /// The input's `(h, w)`, where the server's own shares of the
    /// activation before this layer fix it.
    pub input: Option<(usize, usize)>,
}

/// Serves one layer of a connection whose rotation keys so far are
/// `keys`: the layer's key frames top them up as the layer runs (see
/// [`ConnectionKeys`]), and they stay for the connection's later layers.
pub fn serve_conv_on<R: Rng>(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    layer: ModelLayer<'_>,
    backend: &ExecBackend,
    opts: ServeOptions<'_>,
    keys: &ConnectionKeys,
    rng: &mut R,
) -> Result<ServerConvSummary, SpotError> {
    let msg = transport.recv()?;
    let WireMessage::Setup(setup) = msg else {
        return Err(unexpected(&msg, "Setup"));
    };
    let (spec, level) = LayerSpec::from_setup(&setup)?;
    let mut span = spot_trace::span_owned(Cat::Session, || {
        format!("serve_conv {}", spec.scheme.name())
    });
    if setup.trace != 0 {
        // Echo the client's wire trace id into this span so the merge
        // tool can pair the server layer with the client layer exactly.
        span = span.arg("trace", setup.trace);
    }
    let _span = span;
    if level != ctx.params().level() {
        return Err(SpotError::Protocol(format!(
            "client level {level} does not match server context {}",
            ctx.params().level()
        )));
    }
    let (shape, kernel) = (&spec.shape, layer.kernel);
    if kernel.out_channels() != shape.c_out
        || kernel.in_channels() != shape.c_in
        || kernel.k_h() != shape.k_h
        || kernel.k_w() != shape.k_w
    {
        return Err(SpotError::Protocol(format!(
            "kernel {}x{}x{}x{} does not match layer spec {}x{}x{}x{}",
            kernel.out_channels(),
            kernel.in_channels(),
            kernel.k_h(),
            kernel.k_w(),
            shape.c_out,
            shape.c_in,
            shape.k_h,
            shape.k_w
        )));
    }
    if let Some(stride) = layer.stride.filter(|&stride| stride != shape.stride) {
        return Err(SpotError::Protocol(format!(
            "layer spec stride {} does not match the model's stride {stride}",
            shape.stride
        )));
    }
    if let Some((h, w)) = (layer.input).filter(|&hw| hw != (shape.height, shape.width)) {
        return Err(SpotError::Protocol(format!(
            "layer spec input {}x{} does not match the {h}x{w} activation the server's shares have reached",
            shape.height, shape.width
        )));
    }
    let plan = spec.scheme.plan(&spec, level)?;
    let batch = (setup.batch as usize).max(1);
    let rounds = batch.div_ceil(check_batch(&*plan, batch)?);
    if let Some(max) = opts.max_batch {
        if batch > max {
            return Err(SpotError::Rejected {
                code: spot_proto::error_code::OVER_BUDGET,
                detail: format!(
                    "batch of {batch} images exceeds the session ciphertext budget ({max})"
                ),
            });
        }
    }
    // Flow control: acknowledge the hello, now that it is planned and
    // admitted, before the client commits bandwidth to the upload. A
    // paced client ([`UploadPacing::AwaitAck`]) holds its ciphertexts
    // and rotation keys until this arrives, so the whole upload lands
    // inside the server's measured stall window. It says nothing about
    // keys: those are checked one by one as the stream delivers them.
    // A poisoned store counts as empty: opening it for the keys that
    // then puts in the schedule reports the poisoning.
    let held = |g| keys.lock().is_ok_and(|state| state.held.contains_key(&g));
    let schedule = Schedule::new(&*plan, held, rounds);
    transport.send(&schedule.downlink[0].message(Vec::new()))?;
    let uplink = Uplink::open(keys, &schedule)?;
    // With `opts.shared` the cache is the model's for this spec, so
    // every session multiplies against the same lifted plaintexts.
    let cache = match opts.shared {
        Some(shared) => shared.cache_for(&spec),
        None => KernelCache::new(),
    };
    let kit = ServerKit {
        ctx,
        kernel,
        engine: HeConvEngine::new(ctx, keys, cache),
    };
    let config = backend.split().0;
    serve_rounds(transport, &*plan, &kit, &config, uplink, batch, rng)
}

/// An input ciphertext as it travels — seeded, at the primes results
/// travel at ([`Context::result_context`]) — read and lifted to the full
/// modulus the engine works at ([`ModSwitch::lift`]). A level with no
/// result switch uploads at its full modulus already.
///
/// [`ModSwitch::lift`]: spot_he::modswitch::ModSwitch::lift
fn read_upload(ctx: &Arc<Context>, blob: &[u8]) -> Result<Ciphertext, SpotError> {
    let ct = Ciphertext::try_from_seeded_bytes(ctx.result_context(), blob)?;
    Ok(match ctx.result_switch() {
        Some(switch) => switch.lift(ctx, ct),
        None => ct,
    })
}

/// The server driver proper, after the handshake: per round, ingest the
/// upload through `uplink` — the first round's carries the layer's key
/// frames, each behind the input that makes the first job using it
/// runnable — run each job once the inputs it reads have arrived, and
/// mask-and-send every result in result order.
fn serve_rounds<R: Rng>(
    transport: &dyn Transport,
    plan: &dyn ConvScheme,
    kit: &ServerKit<'_>,
    config: &StreamConfig,
    mut uplink: Uplink<'_>,
    batch: usize,
    rng: &mut R,
) -> Result<ServerConvSummary, SpotError> {
    let (facts, ctx) = (plan.facts(), kit.ctx);
    let (n, t) = (ctx.degree(), ctx.params().plain_modulus());
    let codec = RowCodec::new(ctx, facts);
    let width = plan.round_width(batch);
    // B=1 bit-identity, case 1: a lone image's masks come straight
    // from the session rng, the canonical mask-only draw order. A wider
    // batch first splits one rng per image off it (a fixed `batch`
    // draws, before any mask), so image `b`'s masks — and both parties'
    // shares — equal a one-image run whose server rng had seed `b`.
    let mut image_rngs: Vec<StdRng> = if batch > 1 {
        (0..batch)
            .map(|_| StdRng::seed_from_u64(rng.gen()))
            .collect()
    } else {
        Vec::new()
    };
    let evaluator = kit.engine.evaluator();
    let mut masks: Vec<Vec<Vec<u64>>> = vec![Vec::new(); batch];
    let mut stream = StreamStats::default();
    let mut seq_out = 0;

    for images in rounds(batch, width) {
        let mut acc = Vec::new();
        // Consumer, on this thread in job order: every result that is
        // final gets one fresh mask per image, goes back masked, and
        // leaves the masks behind as the server's rows.
        let emit = |job: usize, outs: Vec<Ciphertext>| {
            for ct in plan.collect(kit, job, outs, &mut acc) {
                let rows: Vec<Vec<u64>> = (images.clone())
                    .map(|img| match image_rngs.get_mut(img) {
                        Some(r) => draw_mask(r, n, t),
                        None => draw_mask(&mut *rng, n, t),
                    })
                    .collect();
                // B=1 bit-identity, case 2: a lone image is masked by
                // its full-width vector. `pack_images(&[r])` would
                // zero every position past the image's stride, changing
                // the downlink bytes and leaving those slots unmasked.
                let mask = match plan.batch_layout(seq_out as usize % facts.output_cts) {
                    Some(layout) if width > 1 => &layout.pack_images(&rows),
                    _ => &rows[0],
                };
                // Masked and switched down to the primes results travel
                // at, in one pass (`Evaluator::mask_result`); a
                // coefficient-packed result keeps `c0` at the positions
                // its share reads only.
                let mask = codec.encode(mask);
                let blob = match plan.result_positions() {
                    Some(positions) => evaluator
                        .mask_result_sparse(ct, &mask, positions)
                        .to_bytes(),
                    None => evaluator.mask_result(ct, &mask).to_bytes(),
                };
                transport.send(&Frame::Result(seq_out).message(blob))?;
                seq_out += 1;
                for (img, row) in images.clone().zip(rows) {
                    masks[img].push(row);
                }
            }
            Ok::<(), SpotError>(())
        };
        // Deserialization — of the seeded form, the only one an input
        // travels in, so with it the expansion of `c1`, and the lift to
        // the full modulus — happens on the worker pool so the ingest
        // thread goes straight back to the transport.
        let stats = run_stream(
            config,
            Round {
                dependency: facts.dependency,
                inputs: facts.input_cts,
                jobs: facts.jobs,
            },
            |queue| uplink.round(transport, ctx, facts.input_cts, queue),
            |_, blob: Vec<u8>| read_upload(ctx, &blob),
            |j, inputs: &[Ciphertext]| plan.convolve(kit, j, inputs),
            emit,
        )?;
        stream.accumulate(&stats);
    }
    // The one place a key wait is booked: the workers spent it inside
    // `convolve`, so the driver counted it busy, and it is stall.
    stream.key_wait_s = kit.engine.key_wait().as_secs_f64();
    stream.server_busy_s -= stream.key_wait_s;
    stream.server_idle_s += stream.key_wait_s;

    let mut shares = masks.into_iter().map(|rows| plan.share(rows, t, false));
    // `masks` has one entry per image, and the caller's `check_batch`
    // refused an empty batch.
    let server_share =
        (shares.next()).ok_or_else(|| SpotError::Protocol("empty input batch".into()))?;
    Ok(ServerConvSummary {
        server_share,
        extra_shares: shares.collect(),
        // The engine was built for this layer and the driver has joined
        // its workers: the tally is the layer's, and it is final.
        counts: evaluator.counts(),
        input_cts: batch.div_ceil(width) * facts.input_cts,
        output_cts: batch.div_ceil(width) * facts.output_cts,
        stream: Some(stream),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::spec::tests::{conv1, keys};
    use crate::session::spec::SchemeKind;
    use spot_he::keys::KeyGenerator;
    use spot_he::params::{EncryptionParams, ParamLevel};
    use spot_he::serial::galois_keys_to_bytes;
    use spot_proto::MemTransport;
    use std::sync::mpsc;

    /// The schedule of one conv1 round on a connection whose server
    /// holds what `store` holds.
    fn conv1_schedule(store: &ConnectionKeys) -> Schedule {
        let plan = (SchemeKind::Spot.plan(&conv1(), ParamLevel::N4096)).expect("plan");
        let state = store.lock().expect("store");
        Schedule::new(&*plan, |g| state.held.contains_key(&g), 1)
    }

    fn input_frame(seq: u32) -> WireMessage {
        WireMessage::PackedCt { seq, blob: vec![] }
    }

    /// The store through its one writer: `wait` returns a key that was
    /// put there before the call, one that arrives during it, and — as
    /// the typed error, with the reason — one that never does; ending
    /// the upload wakes every waiter.
    #[test]
    fn a_rotation_waits_for_its_own_key_and_for_nothing_once_the_upload_has_ended() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(1);
        let keygen = KeyGenerator::new(&ctx, &mut rng);
        let mut frame = |g: usize| {
            WireMessage::GaloisKeys(galois_keys_to_bytes(&keygen.galois_keys(&[g], &mut rng)))
        };
        let (client_end, server_end) = MemTransport::pair();
        let store = ConnectionKeys::default();
        let never = |g: usize, why: &str| match store.wait(g) {
            Err(SpotError::Protocol(detail)) => assert!(detail.contains(why), "{detail}"),
            other => panic!("element {g}: expected the typed error, got {other:?}"),
        };
        let fresh = conv1_schedule(&store);
        let g: Vec<usize> = keys(&fresh).into_iter().map(|(_, g)| g).collect();
        assert_eq!(keys(&fresh), g.iter().map(|&g| (0, g)).collect::<Vec<_>>());
        assert_eq!(g.len(), 5);
        never(g[0], "no key upload is open");

        let mut upload = Uplink::open(&store, &fresh).expect("open");
        client_end.send(&input_frame(0)).expect("send");
        client_end.send(&frame(g[0])).expect("send");
        let (about_to_wait, waiting) = mpsc::channel();
        std::thread::scope(|s| {
            let waiters: Vec<_> = [g[0], g[3], g[4], g[4]]
                .into_iter()
                .map(|g| {
                    let about_to_wait = about_to_wait.clone();
                    let store = &store;
                    s.spawn(move || {
                        about_to_wait.send(()).expect("signal");
                        store.wait(g).map(|(keys, _)| keys.contains(g))
                    })
                })
                .collect();
            for _ in &waiters {
                waiting.recv().expect("waiter started");
            }
            // Keys 1 to 3 arrive with the waiters started; the uplink
            // closes where key 4 should be, with two threads waiting
            // for it.
            for &g in &g[1..4] {
                client_end.send(&frame(g)).expect("send");
            }
            client_end.close_tx();
            let read = upload.round(&server_end, &ctx, 1, &mut |_| Ok(()));
            assert!(matches!(read, Err(SpotError::Proto(_))), "{read:?}");
            let ended: Vec<_> = waiters
                .into_iter()
                .map(|w| w.join().expect("waiter"))
                .collect();
            assert_eq!(ended[0], Ok(true));
            assert_eq!(ended[1], Ok(true));
            for late in &ended[2..] {
                assert!(
                    matches!(late, Err(SpotError::Protocol(why)) if why.contains("will not arrive")),
                    "{late:?}"
                );
            }
        });

        let (key, waited) = store.wait(g[3]).expect("held");
        assert!(key.contains(g[3]) && key.len() == 1);
        assert_eq!(waited, Duration::ZERO);
        never(g[4], "connection closed by peer");
        let next_layer = conv1_schedule(&store);
        assert_eq!(
            keys(&next_layer),
            [(0, g[4])],
            "what the connection holds stays"
        );
        drop(Uplink::open(&store, &next_layer).expect("open"));
        never(g[4], UPLOAD_OVER);

        // With its last scheduled key in, the upload is over though its
        // reader still lives: a key nobody scheduled is an error at
        // once, not a wait for the layer to end.
        let (client_end, server_end) = MemTransport::pair();
        let mut upload = Uplink::open(&store, &next_layer).expect("open");
        client_end.send(&input_frame(0)).expect("send");
        client_end.send(&frame(g[4])).expect("send");
        upload
            .round(&server_end, &ctx, 1, &mut |_| Ok(()))
            .expect("round");
        assert!(store.wait(g[4]).is_ok());
        never(5, UPLOAD_OVER);
        drop(upload);
    }

    /// The server's reader takes each uplink frame as the next entry of
    /// the schedule: an input where a key is due and a key where an
    /// input is due are each the one typed error, which also ends the
    /// key upload for the workers waiting on it.
    #[test]
    fn a_frame_the_schedule_does_not_put_next_is_refused() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let keygen = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(2));
        let key = galois_keys_to_bytes(&keygen.galois_keys(&[3], &mut StdRng::seed_from_u64(3)));
        let cases: [(&[WireMessage], &str); 2] = [
            (
                &[input_frame(0), input_frame(1)],
                "expected GaloisKeys, got PackedCt in place of Key(",
            ),
            (
                &[WireMessage::GaloisKeys(key)],
                "expected PackedCt/AuxCt, got GaloisKeys in place of Input { seq: 0, class: 0 }",
            ),
        ];
        for (frames, why) in cases {
            let (client_end, server_end) = MemTransport::pair();
            let store = ConnectionKeys::default();
            let schedule = conv1_schedule(&store);
            let mut upload = Uplink::open(&store, &schedule).expect("open");
            for frame in frames {
                client_end.send(frame).expect("send");
            }
            match upload.round(&server_end, &ctx, 1, &mut |_| Ok(())) {
                Err(SpotError::Protocol(detail)) => assert!(detail.contains(why), "{detail}"),
                other => panic!("expected the typed error naming {why:?}, got {other:?}"),
            }
            let (_, g) = keys(&schedule)[0];
            match store.wait(g) {
                Err(SpotError::Protocol(detail)) => assert!(detail.contains(why), "{detail}"),
                other => panic!("a waiter for {g} must learn why, got {other:?}"),
            }
        }
    }
}
