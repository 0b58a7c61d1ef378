//! What both parties of a layer agree on without sending it: the
//! [`LayerSpec`] and its wire hello, the scheme's plan (the one packing
//! of all three schemes, [`crate::tile::Packing`], filled as SIMD slots
//! or as coefficients), the rows ↔ plaintexts codec, and the frame
//! [`Schedule`] both walk. Each party derives all of it from the hello
//! alone.

use crate::channelwise;
use crate::cheetah;
use crate::error::SpotError;
use crate::heconv::{ConvWalk, HeConvEngine};
use crate::patching::PatchMode;
use crate::spot;
use crate::tile::Packing;
use spot_he::context::Context;
use spot_he::encoding::{BatchEncoder, Plaintext};
use spot_he::params::ParamLevel;
use spot_pipeline::plan::OutputDependency;
use spot_proto::{ConvSetup, WireMessage};
use spot_tensor::fixed::from_field;
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::ops::Range;
use std::sync::Arc;

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

    /// Plans and validates `spec` under this scheme's cut and fill of
    /// the one packing — the one place the session layer dispatches on
    /// the scheme.
    pub(super) fn plan(self, spec: &LayerSpec, level: ParamLevel) -> Result<Packing, SpotError> {
        let shape = &spec.shape;
        match self {
            SchemeKind::Channelwise => channelwise::packing(shape, level),
            SchemeKind::Cheetah => cheetah::packing(shape, level),
            SchemeKind::Spot => spot::packing(shape, level, spec.patch, spec.mode),
        }
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
/// [`Packing::round_width`]).
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
    /// of this many ([`Packing::round_width`]).
    pub batch_capacity: usize,
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

/// What the server hands the packing's [`Packing::convolve`]: the
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

/// Reads a `Z_t` value as a signed share: centered into `(-t/2, t/2]`
/// for the client's decrypted rows, as drawn for the server's masks.
pub(crate) fn lift(v: u64, t: u64, center: bool) -> i64 {
    if center {
        from_field(v, t)
    } else {
        v as i64
    }
}

/// Rows ↔ plaintexts under the planned packing's fill: SIMD slots
/// through the batch encoder, or raw coefficients where results are read
/// at coefficient positions.
pub(super) struct RowCodec {
    slots: Option<BatchEncoder>,
}

impl RowCodec {
    pub(super) fn new(ctx: &Arc<Context>, plan: &Packing) -> Self {
        Self {
            slots: (plan.result_positions().is_none()).then(|| BatchEncoder::new(ctx)),
        }
    }

    pub(super) fn encode(&self, row: &[u64]) -> Plaintext {
        match &self.slots {
            Some(encoder) => encoder.encode(row),
            None => Plaintext::from_coeffs(row.to_vec()),
        }
    }

    pub(super) fn decode(&self, plain: &Plaintext) -> Vec<u64> {
        match &self.slots {
            Some(encoder) => encoder.decode(plain),
            None => plain.coeffs().to_vec(),
        }
    }
}

/// Validates a batch width; returns the round width. A batch wider
/// than the layer's capacity runs in rounds, so only an empty batch and
/// one the hello's batch field cannot carry are refused.
pub(super) fn check_batch(plan: &Packing, batch: usize) -> Result<usize, SpotError> {
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
/// The pacing ([`UploadPacing`](crate::session::UploadPacing)) moves no frame: it decides only which
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
    pub(super) fn new(plan: &Packing, held: impl Fn(usize) -> bool, rounds: usize) -> Self {
        let facts = &plan.facts;
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
pub(super) fn rounds(batch: usize, width: usize) -> impl Iterator<Item = Range<usize>> {
    (0..batch)
        .step_by(width)
        .map(move |first| first..(first + width).min(batch))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// TinyCnn's conv1 (2 -> 4 channels on 8x8) under SPOT: one input
    /// ciphertext, and five keys behind it.
    pub(crate) fn conv1() -> LayerSpec {
        LayerSpec {
            scheme: SchemeKind::Spot,
            shape: ConvShape::new(8, 8, 2, 4, 3, 1),
            patch: (4, 4),
            mode: PatchMode::Tweaked,
        }
    }

    /// The key frames of `schedule`'s uplink as `(input, element)`: the
    /// input each travels behind, in send order.
    pub(crate) fn keys(schedule: &Schedule) -> Vec<(usize, usize)> {
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
        let key_schedule =
            |plan: &Packing, held: &dyn Fn(usize) -> bool| keys(&Schedule::new(plan, held, 1));

        // Four piece classes of 7, 2, 2 and 1 ciphertexts. A seam piece
        // is a 4x4 patch with rows or columns missing, so under a square
        // kernel its live taps move by steps the patches move by too:
        // every key travels behind the first ciphertext.
        let spot = plan(SchemeKind::Spot, 3);
        assert_eq!(spot.facts.input_cts, 7 + 2 + 2 + 1);
        let fresh = key_schedule(&spot, &|_| false);
        let elements = planned(&spot.facts);
        let behind_first: Vec<_> = elements.iter().map(|&g| (0, g)).collect();
        assert_eq!(fresh, behind_first, "first-use order");
        let held = elements[1];
        let later = key_schedule(&spot, &|g| g == held);
        assert_eq!(later.len(), elements.len() - 1);
        assert!(later.iter().all(|&(_, g)| g != held));

        // A 3x1 kernel moves the patches by whole rows of four. The
        // first seam class's 4x1 strips move by rows of one, which no
        // patch does: those two keys travel behind that class's first
        // ciphertext, the eighth of the upload, and behind every key of
        // the patches'.
        let tall = plan(SchemeKind::Spot, 1);
        let fresh = key_schedule(&tall, &|_| false);
        let elt = |step: i64| galois_elt_from_step(step, 4096);
        let (first, strips) = fresh.split_at(fresh.len() - 2);
        assert!(first.iter().all(|&(input, _)| input == 0), "{fresh:?}");
        assert!(first.contains(&(0, elt(-4))) && first.contains(&(0, elt(4))));
        assert_eq!(strips, [(7, elt(-1)), (7, elt(1))]);

        let channelwise = plan(SchemeKind::Channelwise, 3);
        assert_eq!(channelwise.facts.input_cts, 4);
        let fresh = key_schedule(&channelwise, &|_| false);
        let behind_last: Vec<_> = (planned(&channelwise.facts).iter())
            .map(|&g| (3, g))
            .collect();
        assert_eq!(fresh, behind_last);

        let cheetah = plan(SchemeKind::Cheetah, 3);
        assert!(key_schedule(&cheetah, &|_| false).is_empty());

        // TinyCnn's conv1 (2 -> 4 channels on 8x8): one ciphertext per
        // class, and one block a lane, so one diagonal and no giant
        // step: the column swap and the four moves, behind the first
        // round's input; the second round's finds them held.
        let small = (SchemeKind::Spot.plan(&conv1(), ParamLevel::N4096)).expect("plan");
        let two = Schedule::new(&small, |_| false, 2);
        let key_frames: Vec<Frame> = (keys(&two).into_iter())
            .map(|(_, g)| Frame::Key(g))
            .collect();
        assert_eq!(key_frames.len(), 1 + 4);
        let input = |seq| Frame::Input { seq, class: 0 };
        assert_eq!(
            two.uplink,
            [&[Frame::Hello, input(0)], &key_frames[..], &[input(1)]].concat()
        );
        let results = (0..2 * small.facts.output_cts as u32).map(Frame::Result);
        assert!(two
            .downlink
            .iter()
            .copied()
            .eq(std::iter::once(Frame::Barrier).chain(results)));
    }
}
