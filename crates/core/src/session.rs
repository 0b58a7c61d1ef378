//! Client/server session state machines over the typed wire protocol.
//!
//! One secure convolution is two halves that talk *only* through a
//! [`Transport`]:
//!
//! * [`ClientConv`] — the tiny client: packs and encrypts the input,
//!   streams ciphertexts up ([`ClientConv::send_batch`]), then decrypts
//!   the masked results into its additive shares
//!   ([`ClientConv::absorb_batch`]).
//! * [`serve_conv`] — the server: reads the [`ConvSetup`] hello,
//!   acknowledges it, convolves under HE as inputs and rotation keys
//!   arrive, and returns masked results while keeping its own additive
//!   shares.
//!
//! Rotation keys belong to the *connection*, not the layer. The server
//! keeps what it has been sent in a [`ConnectionKeys`] for as long as
//! the transport lives; the client records what it has uploaded next to
//! the secret key that made them ([`ClientConv::next_layer`] carries
//! the record forward). And they are part of the upload *stream*, not a
//! phase in front of it.
//!
//! The order of a layer's frames is one value, its [`Schedule`]: what
//! each direction carries, frame by frame, made from the plan, the keys
//! the connection holds and the batch's rounds. The client sends by
//! walking it, the server's ingest checks every uplink frame against
//! its next entry and the client's absorber every downlink frame, and
//! any other frame is one typed error (`Frame::open`). Its keys follow
//! the **key-stream rule**: the planned elements the connection does not
//! hold yet, in the order the conv engine first uses them
//! (`PlanFacts::galois_elements`), each in a `GaloisKeys` frame of its
//! own, made immediately before it is sent, right behind the input that
//! makes the first job using it runnable (`Schedule::new`: the
//! first input ciphertext of the first piece class that rotates by it
//! under a per-input scheme, the round's last input under an all-inputs
//! one). So a job starts on its ciphertext, each of its rotations waits
//! only for its own key ([`ConnectionKeys`]'s blocking `wait`), the
//! client generates key `k + 1` while the server rotates by key `k`,
//! and nobody waits for a key before a job needs it. A one-layer call
//! ([`ClientConv::new`], [`serve_conv_with`]) is a connection of one
//! layer.
//!
//! There is one upload body, one absorb body and one server driver. The
//! batch width is a parameter of each (one image is the identity
//! layout, so the single-image methods are adapters), and everything
//! that knows a scheme's packing format lives in that scheme's file
//! behind `ConvScheme`. The driver reads as the paper does: per round,
//! [`run_stream`] ingests the upload and runs each job as soon as the
//! inputs it reads have arrived — which inputs those are is the scheme's
//! [`OutputDependency`], passed as data — and the results are masked
//! and sent in result order.
//!
//! The same session code runs over [`MemTransport`] (in-process, via
//! [`run_in_process`]) and `TcpTransport` (two real OS processes) —
//! messages, byte counts, and shares are identical by construction.
//!
//! # Determinism contract
//!
//! Each party draws randomness from its own seeded rng in a fixed
//! order: the client follows its upload — per input ciphertext its
//! seed and then its error polynomial (it encrypts under its secret key
//! and sends `c0` with the seed `c1` expands from), then, for each
//! rotation key scheduled behind it that the connection still lacks,
//! the key's seed and its error polynomials (in schedule order); the
//! server draws only result masks, in result order (the driver's
//! consumer runs on one thread in job order). Parallel phases are pure,
//! and when a key arrives changes only how long a rotation waits.
//! Shares are therefore bit-identical across backends, thread counts,
//! channel capacities, and transports.

use crate::channelwise::{self, SecureConvResult};
use crate::cheetah;
use crate::error::SpotError;
use crate::executor::Executor;
use crate::heconv::{ConvWalk, HeConvEngine, KernelCache, RotationKeys};
use crate::layout::BatchLayout;
use crate::patching::PatchMode;
use crate::spot;
use crate::stream::{end_wait, run_stream, Round, StreamConfig, StreamStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::ciphertext::{Ciphertext, SparseCiphertext};
use spot_he::context::Context;
use spot_he::encoding::{BatchEncoder, Plaintext};
use spot_he::encryptor::{Decryptor, SymmetricEncryptor};
use spot_he::evaluator::OpCounts;
use spot_he::keys::{GaloisKeys, KeyGenerator};
use spot_he::params::ParamLevel;
use spot_he::serial::galois_keys_from_bytes;
use spot_pipeline::plan::OutputDependency;
use spot_proto::channel::TrafficStats;
use spot_proto::{ConvSetup, MemTransport, Transport, WireMessage};
use spot_tensor::fixed::from_field;
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::Cat;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Typed layer specification ↔ wire setup
// ---------------------------------------------------------------------

/// The secure-convolution scheme a session runs (wire discriminants
/// match [`ConvSetup::scheme`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// CrypTFlow2/GAZELLE-style channel-wise packing.
    Channelwise,
    /// Cheetah-style coefficient encoding.
    Cheetah,
    /// SPOT structure patching.
    Spot,
}

impl SchemeKind {
    /// All schemes, baselines first.
    pub const ALL: [SchemeKind; 3] = [
        SchemeKind::Channelwise,
        SchemeKind::Cheetah,
        SchemeKind::Spot,
    ];

    /// Wire discriminant.
    pub fn code(self) -> u8 {
        match self {
            SchemeKind::Channelwise => 0,
            SchemeKind::Cheetah => 1,
            SchemeKind::Spot => 2,
        }
    }

    /// Parses a wire discriminant.
    pub fn from_code(code: u8) -> Result<Self, SpotError> {
        match code {
            0 => Ok(SchemeKind::Channelwise),
            1 => Ok(SchemeKind::Cheetah),
            2 => Ok(SchemeKind::Spot),
            other => Err(SpotError::Protocol(format!("unknown scheme code {other}"))),
        }
    }

    /// Human-readable name (used for trace span labels).
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Channelwise => "channelwise",
            SchemeKind::Cheetah => "cheetah",
            SchemeKind::Spot => "spot",
        }
    }

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            SchemeKind::Channelwise => "CrypTFlow2",
            SchemeKind::Cheetah => "Cheetah",
            SchemeKind::Spot => "SPOT",
        }
    }

    /// Whether the hello carries a patch size and mode.
    fn patched(self) -> bool {
        self == SchemeKind::Spot
    }

    /// Plans and validates `spec` under this scheme's packing — the one
    /// place the session layer dispatches on the scheme.
    fn plan(self, spec: &LayerSpec, level: ParamLevel) -> Result<Box<dyn ConvScheme>, SpotError> {
        let shape = &spec.shape;
        Ok(match self {
            SchemeKind::Channelwise => Box::new(channelwise::packing(shape, level)?),
            SchemeKind::Cheetah => Box::new(cheetah::Packing::new(shape, level)?),
            SchemeKind::Spot => Box::new(spot::packing(shape, level, spec.patch, spec.mode)?),
        })
    }
}

fn mode_code(mode: PatchMode) -> u8 {
    match mode {
        PatchMode::Vanilla => 0,
        PatchMode::Tweaked => 1,
    }
}

fn mode_from_code(code: u8) -> Result<PatchMode, SpotError> {
    match code {
        0 => Ok(PatchMode::Vanilla),
        1 => Ok(PatchMode::Tweaked),
        other => Err(SpotError::Protocol(format!(
            "unknown patch mode code {other}"
        ))),
    }
}

fn level_code(level: ParamLevel) -> u8 {
    (level.degree().trailing_zeros() as u8) - 11
}

fn level_from_code(code: u8) -> Result<ParamLevel, SpotError> {
    if code > 8 {
        return Err(SpotError::Protocol(format!(
            "unknown parameter level code {code}"
        )));
    }
    ParamLevel::ALL
        .into_iter()
        .find(|l| l.degree() == 1usize << (11 + code as usize))
        .ok_or_else(|| SpotError::Protocol(format!("unknown parameter level code {code}")))
}

/// One convolution layer as the session layer sees it: scheme, shape,
/// and (for SPOT) the patch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSpec {
    /// Scheme to run.
    pub scheme: SchemeKind,
    /// Layer shape (input dims, channels, kernel, stride).
    pub shape: ConvShape,
    /// SPOT main patch size `(ph, pw)`; ignored by the baselines.
    pub patch: (usize, usize),
    /// SPOT decomposition mode; ignored by the baselines.
    pub mode: PatchMode,
}

/// Largest accepted dimension in a [`ConvSetup`] (defensive bound so a
/// hostile hello cannot trigger huge allocations).
const MAX_DIM: u32 = 1 << 14;

impl LayerSpec {
    /// The spec of the layer that convolves `input` with `kernel`.
    pub fn for_layer(
        scheme: SchemeKind,
        input: &Tensor,
        kernel: &Kernel,
        stride: usize,
        patch: (usize, usize),
        mode: PatchMode,
    ) -> Self {
        LayerSpec {
            scheme,
            shape: ConvShape {
                width: input.width(),
                height: input.height(),
                c_in: input.channels(),
                c_out: kernel.out_channels(),
                k_h: kernel.k_h(),
                k_w: kernel.k_w(),
                stride,
            },
            patch,
            mode,
        }
    }

    /// Encodes the spec as the wire hello for `level`.
    pub fn to_setup(&self, level: ParamLevel) -> ConvSetup {
        let patched = self.scheme.patched();
        ConvSetup {
            scheme: self.scheme.code(),
            mode: if patched { mode_code(self.mode) } else { 0 },
            level: level_code(level),
            // 0 keeps one-image hellos byte-identical to the
            // pre-batching wire format (the byte was reserved-zero);
            // wider uploads overwrite it with the batch width.
            batch: 0,
            h: self.shape.height as u32,
            w: self.shape.width as u32,
            c_in: self.shape.c_in as u32,
            c_out: self.shape.c_out as u32,
            k_h: self.shape.k_h as u32,
            k_w: self.shape.k_w as u32,
            stride: self.shape.stride as u32,
            patch_h: if patched { self.patch.0 as u32 } else { 0 },
            patch_w: if patched { self.patch.1 as u32 } else { 0 },
            // 0 keeps the hello byte-identical to the pre-trace layout;
            // senders overwrite it with a wire trace id when wire trace
            // context is enabled.
            trace: 0,
        }
    }

    /// Decodes and validates a wire hello.
    pub fn from_setup(setup: &ConvSetup) -> Result<(Self, ParamLevel), SpotError> {
        let scheme = SchemeKind::from_code(setup.scheme)?;
        let level = level_from_code(setup.level)?;
        let mut fields = vec![
            ("h", setup.h),
            ("w", setup.w),
            ("c_in", setup.c_in),
            ("c_out", setup.c_out),
            ("k_h", setup.k_h),
            ("k_w", setup.k_w),
            ("stride", setup.stride),
        ];
        if scheme.patched() {
            fields.extend([("patch_h", setup.patch_h), ("patch_w", setup.patch_w)]);
        }
        for (name, v) in fields {
            if v == 0 || v > MAX_DIM {
                return Err(SpotError::Protocol(format!(
                    "setup field {name} = {v} out of range 1..={MAX_DIM}"
                )));
            }
        }
        let (patch, mode) = if scheme.patched() {
            (
                (setup.patch_h as usize, setup.patch_w as usize),
                mode_from_code(setup.mode)?,
            )
        } else {
            ((0, 0), PatchMode::Vanilla)
        };
        let shape = ConvShape {
            width: setup.w as usize,
            height: setup.h as usize,
            c_in: setup.c_in as usize,
            c_out: setup.c_out as usize,
            k_h: setup.k_h as usize,
            k_w: setup.k_w as usize,
            stride: setup.stride as usize,
        };
        Ok((
            LayerSpec {
                scheme,
                shape,
                patch,
                mode,
            },
            level,
        ))
    }
}

// ---------------------------------------------------------------------
// What a scheme provides to the driver
// ---------------------------------------------------------------------

/// Largest batch width the wire hello can carry.
pub(crate) const MAX_BATCH: usize = u8::MAX as usize;

/// The facts both parties derive identically from the [`LayerSpec`]
/// alone. Counts are per *round*: the ciphertexts one set of
/// slot-sharing images uploads and gets back (see
/// [`ConvScheme::round_width`]).
pub(crate) struct PlanFacts {
    /// Whether a result needs one input ciphertext or all of them —
    /// the paper's whole distinction, and what picks the stream driver.
    pub dependency: OutputDependency,
    /// Input ciphertexts per round.
    pub input_cts: usize,
    /// Masked result ciphertexts per round.
    pub output_cts: usize,
    /// Server work items per round (one per input ciphertext under
    /// [`OutputDependency::PerInput`]).
    pub jobs: usize,
    /// Galois elements the server will rotate by, each once as
    /// `(first job that uses it, element)`, in the order its engine
    /// first uses them ([`first_uses`]) — what the key-stream schedule
    /// is made from (empty = the client sends no rotation keys).
    pub galois_elements: Vec<(usize, usize)>,
    /// Most images one round can carry: a wider batch runs in rounds
    /// of this many ([`ConvScheme::round_width`]).
    pub batch_capacity: usize,
    /// Plaintexts are raw coefficient vectors, not SIMD slot rows.
    pub coeff_packed: bool,
}

/// `(first job, element)` for every Galois element the jobs' walks
/// rotate by, each once, in the order the jobs first use them — given
/// each distinct walk with the first job that runs it, in job order.
pub(crate) fn first_uses<'w>(
    walks: impl IntoIterator<Item = (usize, &'w ConvWalk)>,
) -> Vec<(usize, usize)> {
    let mut uses: Vec<(usize, usize)> = Vec::new();
    for (job, walk) in walks {
        for g in walk.elements() {
            if !uses.iter().any(|&(_, held)| held == g) {
                uses.push((job, g));
            }
        }
    }
    uses
}

/// What the server hands a scheme's [`ConvScheme::convolve`]: the
/// model's kernel and the layer's one conv engine, built from this
/// connection's keys. Every HE operation of the layer — the scheme's,
/// the cross-job sums, the masking — goes through the engine's
/// evaluator, whose tally is what the layer reports.
pub(crate) struct ServerKit<'a> {
    /// The server's HE context.
    pub ctx: &'a Arc<Context>,
    /// The layer's kernel weights.
    pub kernel: &'a Kernel,
    /// The layer's conv engine.
    pub engine: HeConvEngine<'a>,
}

/// One packing scheme as the session driver sees it. Two impls: the
/// tiled slot packing of SPOT and channel-wise packing
/// ([`crate::tile::Packing`], one type, the scheme's alignment rule and
/// tile its parameters) and Cheetah's coefficient packing
/// ([`cheetah::Packing`]); each constructor is the scheme's *plan +
/// validate* step.
pub(crate) trait ConvScheme: Send + Sync {
    /// Counts, keys, capacity and dependency class of the planned layer.
    fn facts(&self) -> &PlanFacts;

    /// Wire class of a round's `j`-th input ciphertext: class 0 goes
    /// in `PackedCt` (with any seam class riding in it), SPOT's other
    /// seam classes in `AuxCt`.
    fn input_class(&self, _j: usize) -> usize {
        0
    }

    /// The slot layout that interleaves a batch's images inside result
    /// ciphertext `result` of a round, or `None` when images share no
    /// slots and a batch is one round per image.
    fn batch_layout(&self, result: usize) -> Option<BatchLayout>;

    /// The coefficients of a result that [`ConvScheme::share`] reads,
    /// or `None` where it reads whole slot rows. A coefficient-packed
    /// result travels as `c1` and `c0` at these positions alone
    /// ([`SparseCiphertext`]) and is decrypted there only; both parties
    /// derive them from the [`LayerSpec`], so no position is sent.
    fn result_positions(&self) -> Option<&[usize]> {
        None
    }

    /// *Pack*: one round's images into plaintext rows, handed to `emit`
    /// in upload order (lazily, so the tiny client holds one at a time).
    fn pack(
        &self,
        images: &[Tensor],
        t: u64,
        emit: &mut dyn FnMut(Vec<u64>) -> Result<(), SpotError>,
    ) -> Result<(), SpotError>;

    /// *Convolve*: work item `job` over the ciphertexts it depends on —
    /// `[ct_job]` under [`OutputDependency::PerInput`], the round's
    /// whole upload under [`OutputDependency::AllInputs`]. Pure: runs
    /// on pool workers in any order. Fails only on a rotation key that
    /// can no longer arrive.
    fn convolve(
        &self,
        kit: &ServerKit<'_>,
        job: usize,
        inputs: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, SpotError>;

    /// Folds job `job`'s outputs into the round's result stream: called
    /// in job order on one thread, returns the result ciphertexts that
    /// are now final. The tiled packing sums a piece ciphertext's
    /// channel groups in `acc` and releases them after the last one.
    fn collect(
        &self,
        _kit: &ServerKit<'_>,
        _job: usize,
        outs: Vec<Ciphertext>,
        _acc: &mut Vec<Ciphertext>,
    ) -> Vec<Ciphertext> {
        outs
    }

    /// *Rows → share*: one image's share tensor from its rows in result
    /// order — the same gather for both parties. The client feeds its
    /// decrypted rows with `center` set (values lifted to
    /// `(-t/2, t/2]`); the server feeds its masks as drawn.
    fn share(&self, rows: Vec<Vec<u64>>, t: u64, center: bool) -> Tensor;

    /// How many of a batch's images share one round's ciphertexts: as
    /// many as the layer's capacity admits, the last round taking what
    /// is left.
    fn round_width(&self, batch: usize) -> usize {
        match self.batch_layout(0) {
            Some(_) => batch.min(self.facts().batch_capacity),
            None => 1,
        }
    }
}

/// Reads a `Z_t` value as a signed share: centered into `(-t/2, t/2]`
/// for the client's decrypted rows, as drawn for the server's masks.
pub(crate) fn lift(v: u64, t: u64, center: bool) -> i64 {
    if center {
        from_field(v, t)
    } else {
        v as i64
    }
}

/// Rows ↔ plaintexts under the planned scheme's encoding.
struct RowCodec {
    encoder: BatchEncoder,
    coeff_packed: bool,
}

impl RowCodec {
    fn new(ctx: &Arc<Context>, facts: &PlanFacts) -> Self {
        Self {
            encoder: BatchEncoder::new(ctx),
            coeff_packed: facts.coeff_packed,
        }
    }

    fn encode(&self, row: &[u64]) -> Plaintext {
        if self.coeff_packed {
            Plaintext::from_coeffs(row.to_vec())
        } else {
            self.encoder.encode(row)
        }
    }

    fn decode(&self, plain: &Plaintext) -> Vec<u64> {
        if self.coeff_packed {
            plain.coeffs().to_vec()
        } else {
            self.encoder.decode(plain)
        }
    }
}

/// Validates a batch width; returns the round width. A batch wider
/// than the layer's capacity runs in rounds, so only an empty batch and
/// one the hello's batch field cannot carry are refused.
fn check_batch(plan: &dyn ConvScheme, batch: usize) -> Result<usize, SpotError> {
    if batch == 0 {
        return Err(SpotError::Protocol("empty input batch".into()));
    }
    if batch > MAX_BATCH {
        return Err(SpotError::Protocol(format!(
            "batch of {batch} images exceeds the hello's limit of {MAX_BATCH}"
        )));
    }
    Ok(plan.round_width(batch))
}

// ---------------------------------------------------------------------
// Execution backend
// ---------------------------------------------------------------------

/// Which in-process harness a secure convolution runs under. The
/// server work is driven the same way for both — [`run_stream`], a job
/// waiting for the inputs it reads — so the variants differ only in
/// the worker pool and read-ahead they carry and in how
/// [`run_in_process`] schedules the client.
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
    fn split(&self) -> (StreamConfig, Option<usize>) {
        match *self {
            ExecBackend::Phased(executor) => (StreamConfig::new(executor, usize::MAX), None),
            ExecBackend::Streaming(config) => (config, Some(config.channel_capacity)),
        }
    }
}

// ---------------------------------------------------------------------
// The frame schedule
// ---------------------------------------------------------------------

pub(crate) fn unexpected(got: &WireMessage, want: &str) -> SpotError {
    // A typed server rejection surfaces as itself rather than as a
    // generic wrong-message error, wherever the client was in its
    // receive loop when the rejection frame arrived.
    if let WireMessage::Error { code, detail } = got {
        return SpotError::Rejected {
            code: *code,
            detail: detail.clone(),
        };
    }
    SpotError::Protocol(format!("expected {want}, got {}", got.name()))
}

/// One frame of a layer's exchange, as its [`Schedule`] lists it, with
/// the header fields the wire carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// The client's `Setup` hello.
    Hello,
    /// The server's `LayerBarrier`: the hello is planned and admitted.
    Barrier,
    /// Input ciphertext `seq`, counted across the layer's rounds.
    Input {
        /// Sequence number.
        seq: u32,
        /// Piece class: 0 travels as a `PackedCt`, a seam class that
        /// does not ride as an `AuxCt`.
        class: u16,
    },
    /// The rotation key for one Galois element, alone in its frame.
    Key(usize),
    /// Masked result `seq`.
    Result(u32),
}

impl Frame {
    /// This frame around its payload. Every barrier is layer 0, and the
    /// hello's spec is not the schedule's: `send_batch` writes it.
    pub fn message(self, blob: Vec<u8>) -> WireMessage {
        match self {
            Frame::Hello => WireMessage::Setup(ConvSetup::default()),
            Frame::Barrier => WireMessage::LayerBarrier { layer: 0 },
            Frame::Input { seq, class: 0 } => WireMessage::PackedCt { seq, blob },
            Frame::Input { seq, class } => WireMessage::AuxCt { class, seq, blob },
            Frame::Key(_) => WireMessage::GaloisKeys(blob),
            Frame::Result(seq) => WireMessage::MaskedResult { seq, blob },
        }
    }

    /// The payload of `msg` if it is this frame — the same message with
    /// the same class and sequence number, a barrier of layer 0; which
    /// key a key frame holds is its reader's to check — or else the one
    /// error for a frame the schedule does not put here.
    pub(crate) fn open(self, msg: WireMessage) -> Result<Vec<u8>, SpotError> {
        let want = self.message(Vec::new());
        if (msg.name(), msg.causal_tag()) == (want.name(), want.causal_tag()) {
            return Ok(match msg {
                WireMessage::PackedCt { blob, .. }
                | WireMessage::AuxCt { blob, .. }
                | WireMessage::MaskedResult { blob, .. }
                | WireMessage::GaloisKeys(blob) => blob,
                _ => Vec::new(),
            });
        }
        // Where an input is due, any input kind stands.
        let kind = match self {
            Frame::Input { .. } => "PackedCt/AuxCt",
            _ => want.name(),
        };
        Err(match unexpected(&msg, kind) {
            SpotError::Protocol(why) => SpotError::Protocol(format!("{why} in place of {self:?}")),
            rejected => rejected,
        })
    }
}

/// The frames of one layer, in the order each direction carries them:
/// the one statement of that order, which `WIRE_VERSION` covers. Both
/// parties make it from what they both know — the plan, the rotation
/// keys the connection holds, the batch's rounds — so it is never sent.
/// The pacing ([`UploadPacing`]) moves no frame: it decides only which
/// of the client's two readers, the uploader or the absorber, takes the
/// barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Client → server: the hello, then each input, and right behind
    /// each the keys of the jobs it makes runnable, in first-use order.
    pub uplink: Vec<Frame>,
    /// Server → client: the barrier, then each result.
    pub downlink: Vec<Frame>,
}

impl Schedule {
    /// The schedule of `rounds` rounds of `plan` on a connection that
    /// holds the keys of the elements `held` admits. A key travels
    /// behind the input whose arrival makes the first job using it
    /// runnable: that job's own under [`OutputDependency::PerInput`],
    /// the round's last under [`OutputDependency::AllInputs`]. Only the
    /// first round carries keys; the rounds after it find them held.
    fn new(plan: &dyn ConvScheme, held: impl Fn(usize) -> bool, rounds: usize) -> Self {
        let facts = plan.facts();
        let per_input = facts.dependency == OutputDependency::PerInput;
        let mut keys = (facts.galois_elements.iter())
            .filter(|&&(_, g)| !held(g))
            .map(|&(job, g)| (if per_input { job } else { facts.input_cts - 1 }, g))
            .peekable();
        let mut uplink = vec![Frame::Hello];
        for at in 0..rounds * facts.input_cts {
            let (seq, class) = (at as u32, plan.input_class(at % facts.input_cts) as u16);
            uplink.push(Frame::Input { seq, class });
            while let Some((_, g)) = keys.next_if(|&(behind, _)| behind == at) {
                uplink.push(Frame::Key(g));
            }
        }
        let mut downlink = vec![Frame::Barrier];
        downlink.extend((0..(rounds * facts.output_cts) as u32).map(Frame::Result));
        Self { uplink, downlink }
    }
}

/// The images of each round of a `batch` run `width` at a time, the
/// last round taking what is left. `width` is a `round_width`, so at
/// least 1.
fn rounds(batch: usize, width: usize) -> impl Iterator<Item = Range<usize>> {
    (0..batch)
        .step_by(width)
        .map(move |first| first..(first + width).min(batch))
}

fn draw_mask<R: Rng>(rng: &mut R, degree: usize, t: u64) -> Vec<u64> {
    (0..degree).map(|_| rng.gen_range(0..t)).collect()
}

// ---------------------------------------------------------------------
// Client session
// ---------------------------------------------------------------------

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
    plan: Box<dyn ConvScheme>,
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
        self.plan.facts().input_cts
    }

    /// How many queued images this layer can coalesce into one round's
    /// upload: the spare SIMD-slot positions of the layer's packing
    /// (Cheetah batches as sequential images bounded only by the wire
    /// field). A wider batch runs in rounds of this many.
    pub fn batch_capacity(&self) -> usize {
        self.plan.facts().batch_capacity
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
        let rounds = batch.div_ceil(check_batch(&*self.plan, batch)?);
        let held = (self.uploaded.lock()).map_err(|_| SpotError::Poisoned("uploaded keys"))?;
        Ok(Schedule::new(&*self.plan, |g| held.contains(&g), rounds))
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
        let width = check_batch(&*self.plan, batch)?;
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
        let schedule = Schedule::new(&*self.plan, |g| held.contains(&g), batch.div_ceil(width));
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
        let codec = RowCodec::new(&self.ctx, self.plan.facts());
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
        let width = check_batch(&*self.plan, batch)?;
        let per_round = self.plan.facts().output_cts;
        let expected = batch.div_ceil(width) * per_round;
        let _span = spot_trace::span_owned(Cat::Session, || {
            format!("absorb_all {}", self.spec.scheme.name())
        })
        .arg("output_cts", expected as u64)
        .arg("batch", batch as u64);
        // The downlink is the same whatever keys the connection holds.
        let schedule = Schedule::new(&*self.plan, |_| true, batch.div_ceil(width));
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
        let codec = RowCodec::new(rctx, self.plan.facts());
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

// ---------------------------------------------------------------------
// Server session
// ---------------------------------------------------------------------

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
/// exactly the single-tenant [`serve_conv`] behaviour: private caches,
/// no batch cap beyond the layer's SIMD capacity.
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
/// from `rng`, in result order.
pub fn serve_conv<R: Rng>(
    ctx: &Arc<Context>,
    transport: &dyn Transport,
    kernel: &Kernel,
    backend: &ExecBackend,
    rng: &mut R,
) -> Result<ServerConvSummary, SpotError> {
    serve_conv_with(
        ctx,
        transport,
        kernel,
        backend,
        ServeOptions::default(),
        rng,
    )
}

/// [`serve_conv`] with serving-layer options: shared per-model kernel
/// caches and a per-session batch budget (see [`ServeOptions`]). The
/// whole connection is this one layer, at the stride and input size the
/// client's hello names.
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

// ---------------------------------------------------------------------
// In-process combinator
// ---------------------------------------------------------------------

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
    /// The server's stall accounting (see [`ServerConvSummary::stream`]).
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

    let uplink = backend.split().1;
    let (ct, st) = MemTransport::pair_with_capacity(uplink, None);
    let (sent, server) = match uplink {
        None => {
            let sent = client.send_batch(&ct, inputs, UploadPacing::Eager, &mut crng)?;
            (sent, serve_conv(ctx, &st, kernel, backend, &mut srng)?)
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
                let server_res = serve_conv(ctx, &st, kernel, backend, &mut srng);
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
    use spot_he::params::EncryptionParams;
    use spot_he::serial::galois_keys_to_bytes;
    use std::sync::mpsc;

    /// TinyCnn's conv1 (2 -> 4 channels on 8x8) under SPOT: one input
    /// ciphertext, and five keys behind it.
    fn conv1() -> LayerSpec {
        LayerSpec {
            scheme: SchemeKind::Spot,
            shape: ConvShape::new(8, 8, 2, 4, 3, 1),
            patch: (4, 4),
            mode: PatchMode::Tweaked,
        }
    }

    /// The schedule of one conv1 round on a connection whose server
    /// holds what `store` holds.
    fn conv1_schedule(store: &ConnectionKeys) -> Schedule {
        let plan = (SchemeKind::Spot.plan(&conv1(), ParamLevel::N4096)).expect("plan");
        let state = store.lock().expect("store");
        Schedule::new(&*plan, |g| state.held.contains_key(&g), 1)
    }

    /// The key frames of `schedule`'s uplink as `(input, element)`: the
    /// input each travels behind, in send order.
    fn keys(schedule: &Schedule) -> Vec<(usize, usize)> {
        let mut behind = 0;
        (schedule.uplink.iter())
            .filter_map(|&frame| match frame {
                Frame::Input { seq, .. } => {
                    behind = seq as usize;
                    None
                }
                Frame::Key(g) => Some((behind, g)),
                _ => None,
            })
            .collect()
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

    /// A key travels behind the input that makes the first job using it
    /// runnable: under SPOT the first ciphertext of the first piece
    /// class that rotates by it, under channel-wise packing the round's
    /// last input — so the schedule is in input order, and a key the
    /// connection holds is not in it.
    #[test]
    fn a_key_is_scheduled_behind_the_input_of_the_first_job_that_uses_it() {
        use spot_he::encoding::galois_elt_from_step;

        let spec = |scheme, k_w| LayerSpec {
            scheme,
            shape: ConvShape {
                k_w,
                ..ConvShape::new(16, 16, 64, 8, 3, 1)
            },
            patch: (4, 4),
            mode: PatchMode::Tweaked,
        };
        let plan = |scheme: SchemeKind, k_w| {
            (scheme.plan(&spec(scheme, k_w), ParamLevel::N4096)).expect("plan")
        };
        let planned = |facts: &PlanFacts| -> Vec<usize> {
            facts.galois_elements.iter().map(|&(_, g)| g).collect()
        };
        let key_schedule = |plan: &dyn ConvScheme, held: &dyn Fn(usize) -> bool| {
            keys(&Schedule::new(plan, held, 1))
        };

        // Four piece classes of 7, 2, 2 and 1 ciphertexts. A seam piece
        // is a 4x4 patch with rows or columns missing, so under a square
        // kernel its live taps move by steps the patches move by too:
        // every key travels behind the first ciphertext.
        let spot = plan(SchemeKind::Spot, 3);
        assert_eq!(spot.facts().input_cts, 7 + 2 + 2 + 1);
        let fresh = key_schedule(&*spot, &|_| false);
        let elements = planned(spot.facts());
        let behind_first: Vec<_> = elements.iter().map(|&g| (0, g)).collect();
        assert_eq!(fresh, behind_first, "first-use order");
        let held = elements[1];
        let later = key_schedule(&*spot, &|g| g == held);
        assert_eq!(later.len(), elements.len() - 1);
        assert!(later.iter().all(|&(_, g)| g != held));

        // A 3x1 kernel moves the patches by whole rows of four. The
        // first seam class's 4x1 strips move by rows of one, which no
        // patch does: those two keys travel behind that class's first
        // ciphertext, the eighth of the upload, and behind every key of
        // the patches'.
        let tall = plan(SchemeKind::Spot, 1);
        let fresh = key_schedule(&*tall, &|_| false);
        let elt = |step: i64| galois_elt_from_step(step, 4096);
        let (first, strips) = fresh.split_at(fresh.len() - 2);
        assert!(first.iter().all(|&(input, _)| input == 0), "{fresh:?}");
        assert!(first.contains(&(0, elt(-4))) && first.contains(&(0, elt(4))));
        assert_eq!(strips, [(7, elt(-1)), (7, elt(1))]);

        let channelwise = plan(SchemeKind::Channelwise, 3);
        assert_eq!(channelwise.facts().input_cts, 4);
        let fresh = key_schedule(&*channelwise, &|_| false);
        let behind_last: Vec<_> = (planned(channelwise.facts()).iter())
            .map(|&g| (3, g))
            .collect();
        assert_eq!(fresh, behind_last);

        let cheetah = plan(SchemeKind::Cheetah, 3);
        assert!(key_schedule(&*cheetah, &|_| false).is_empty());

        // TinyCnn's conv1 (2 -> 4 channels on 8x8): one ciphertext per
        // class, and one block a lane, so one diagonal and no giant
        // step: the column swap and the four moves, behind the first
        // round's input; the second round's finds them held.
        let small = (SchemeKind::Spot.plan(&conv1(), ParamLevel::N4096)).expect("plan");
        let two = Schedule::new(&*small, |_| false, 2);
        let key_frames: Vec<Frame> = (keys(&two).into_iter())
            .map(|(_, g)| Frame::Key(g))
            .collect();
        assert_eq!(key_frames.len(), 1 + 4);
        let input = |seq| Frame::Input { seq, class: 0 };
        assert_eq!(
            two.uplink,
            [&[Frame::Hello, input(0)], &key_frames[..], &[input(1)]].concat()
        );
        let results = (0..2 * small.facts().output_cts as u32).map(Frame::Result);
        assert!(two
            .downlink
            .iter()
            .copied()
            .eq(std::iter::once(Frame::Barrier).chain(results)));
    }
}
