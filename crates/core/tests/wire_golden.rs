//! Committed golden digests of the conv session's wire bytes and
//! shares.
//!
//! Every other determinism suite compares two *live* paths (Mem vs
//! TCP, phased vs streamed, batched vs unbatched), so a refactor that
//! shifts all of them identically passes everything. This suite pins
//! each path to constants recorded from the code as it stood before the
//! session layer was collapsed to one driver: FNV-1a-64 digests of the
//! uplink frames in send order, the downlink frames in receive order,
//! each direction's *shape* (each frame's header: kind and byte
//! length), each image's client and server share, and the merged
//! operation counts. One case drives the whole two-layer TinyCnn
//! connection through `run_client_batch`/`run_server`. Every case also
//! holds the analytic model the paper's tables come from
//! (`spot::plan` / `channelwise::plan` / `cheetah::plan`) to the counts
//! that ran and the result bytes that came down
//! (`assert_model_is_what_ran`), a check on live code, not a constant.
//!
//! A change to how the server computes a result ciphertext (a different
//! but equally valid encryption of the same plaintext) may move
//! `downlink` and nothing else: the shape digest pins that the frames
//! are still the same kinds and sizes in the same order. Likewise a
//! change to what a key frame carries moves `uplink` and
//! `uplink_shape` (and, through the client's rng order, `downlink`),
//! while shares, counts and `downlink_shape` stay. A `WIRE_VERSION`
//! bump moves all four frame digests of every case (each hashes the
//! header's version byte) and no share, count or output digest.
//!
//! Last re-record, `WIRE_VERSION` 8 (a seam class whose pieces fit in
//! the free positions of the patches' last ciphertext rides there),
//! field by field: in the four SPOT cases on the 8×8 2 → 4 layer
//! (`spot_b1`, `spot_b2`, `spot_b2_n8192`, `tinycnn_spot_two_layers`,
//! whose conv1 is that layer) every field but TinyCnn's revealed
//! `output`: all 25 pieces ride in one input ciphertext where four
//! went up, so the frames, the counts (the seam walks ran no more) and
//! the shares (the server draws masks for two results where it drew
//! them for eight) all moved; `tinycnn_spot_two_layers` also holds the
//! model to two weight-zeroed kernel plaintexts where it held three,
//! one of the three having been a seam walk's. In the other five
//! cases the four frame digests by the version byte only — with the
//! constant put back to 7, all five pass with the previous digests.
//!
//! The re-record before, `WIRE_VERSION` 7 (a coefficient-packed result
//! travels sparse: `c1` whole and `c0` at only the coefficients its
//! share reads), field by field: in the two Cheetah cases `downlink` and
//! `downlink_shape` by the result shape (a `MaskedResult` blob is
//! 16 + 36,864 + 2·⌈36·64/8⌉ = 37,456 B for the 8×8 layer's 64 output
//! pixels where it was 73,744) and the version byte; every other digest
//! by the version byte only — with the constant put back to 6, all four
//! frame digests of the seven slot-packed cases and `uplink` and
//! `uplink_shape` of the two Cheetah cases equal the previous values.
//! No share, count or output constant moved: the client decrypts the
//! same `m − r` at the positions its share reads, and the server's
//! masks are drawn as before, `N` values a result.
//!
//! The re-record before it, `WIRE_VERSION` 6 (every result is switched
//! down to the level's first two primes after masking, the mask folded
//! into the switch), field by field, in all nine cases: `downlink` and
//! `downlink_shape` by the result size (a `MaskedResult` blob loses the
//! rows of every prime past the second: 37,888 B at N4096, three
//! primes' rows in the N8192 case) and the version byte;
//! `uplink` and `uplink_shape` by the version byte only — with the
//! constant put back to 5 both equal the previous values in all nine
//! cases, and `downlink` and `downlink_shape` are the only fields that
//! differ. No share, count or output constant moved: the client still
//! decrypts `m − r` and the server keeps `r`, and the mask is still the
//! one addition it counts as.
//!
//! The one before that, `WIRE_VERSION` 5 (kernel taps compose from
//! row and column moves; a tap outside its piece class is not rotated
//! to), field by field, in the seven rotating cases: `uplink` and
//! `uplink_shape` by the shorter key schedule (3×3 over 4×4 pieces:
//! four tap keys where there were eight, and a seam class adds none);
//! `downlink` through the client's rng draw order (fewer keys drawn
//! between the input ciphertexts) and through the composed taps, which
//! are other valid encryptions of the same rotated slots;
//! `downlink_shape` only by the version byte — with the constant put
//! back to 4 it equals the previous value in all nine cases; `counts`
//! in the five SPOT cases by `rotate` alone (60 → 28 on the small
//! layer, 97 → 65 on the spilling one, 78 → 46 on TinyCnn: the seam
//! classes' dead taps), with `mult_plain`, `add`, `encrypt` and
//! `decrypt` where they were, and not at all under channel-wise
//! packing, whose one piece class has no dead tap. The two Cheetah
//! cases moved by the version byte only. No share and no output
//! constant moved. (`WIRE_VERSION` 4 made every giant step rotate by
//! one key and sent input ciphertexts as `c0` and a 32-byte seed.)
//!
//! The constants must not be edited by a change that claims to leave
//! the wire format, rng draw order or share values alone.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::executor::Executor;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv, ClientConv, ExecBackend, Frame, LayerSpec, SchemeKind, UploadPacing,
};
use spot_core::stream::StreamConfig;
use spot_core::twoparty::{run_client_batch, run_server};
use spot_core::{channelwise, cheetah, spot};
use spot_he::context::Context;
use spot_he::evaluator::OpCounts;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_pipeline::plan::ConvPlan;
use spot_proto::transport::{MemTransport, Transport, TransportStats};
use spot_proto::wire::FRAME_HEADER_BYTES;
use spot_proto::{ProtoError, WireMessage};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn tensor_digest(t: &Tensor) -> u64 {
    let mut h = FNV_OFFSET;
    for d in [t.channels(), t.height(), t.width()] {
        h = fnv1a(h, &(d as u64).to_le_bytes());
    }
    t.data().iter().fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// What one direction of the client's endpoint has moved.
struct Direction {
    /// `(frame bytes, frame headers)` digests.
    digests: (u64, u64),
    /// Each frame's message kind.
    kinds: Vec<&'static str>,
}

/// The client's endpoint with every frame it sends or receives folded
/// into a running digest and its kind noted, in the order the session
/// code moved it.
struct Recorder {
    inner: MemTransport,
    up: Mutex<Direction>,
    down: Mutex<Direction>,
    /// Bytes of the `MaskedResult` blobs received.
    result_bytes: AtomicU64,
}

impl Recorder {
    fn new(inner: MemTransport) -> Self {
        let direction = || {
            Mutex::new(Direction {
                digests: (FNV_OFFSET, FNV_OFFSET),
                kinds: Vec::new(),
            })
        };
        Self {
            inner,
            up: direction(),
            down: direction(),
            result_bytes: AtomicU64::new(0),
        }
    }
}

/// Folds one frame into a direction's `(bytes, headers)` digests and
/// notes its kind.
fn record(direction: &Mutex<Direction>, msg: &WireMessage) {
    let frame = msg.encode_frame();
    let mut d = direction.lock().unwrap();
    let (bytes, headers) = d.digests;
    d.digests = (
        fnv1a(bytes, &frame),
        fnv1a(headers, &frame[..FRAME_HEADER_BYTES]),
    );
    d.kinds.push(msg.name());
}

/// The kinds of `frames`, as a transcript lists them.
fn walked(frames: &[Frame]) -> Vec<&'static str> {
    frames
        .iter()
        .map(|frame| frame.message(Vec::new()).name())
        .collect()
}

impl Transport for Recorder {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        record(&self.up, msg);
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        let msg = self.inner.recv()?;
        record(&self.down, &msg);
        if let WireMessage::MaskedResult { blob, .. } = &msg {
            self.result_bytes
                .fetch_add(blob.len() as u64, Ordering::Relaxed);
        }
        Ok(msg)
    }

    fn close_tx(&self) {
        self.inner.close_tx();
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Golden {
    uplink: u64,
    /// Version, kind and payload length of every uplink frame.
    uplink_shape: u64,
    downlink: u64,
    /// Version, kind and payload length of every downlink frame.
    downlink_shape: u64,
    /// `(client share, server share)` per image, in submission order.
    shares: Vec<(u64, u64)>,
    /// Server counts merged with the client's encrypt/decrypt counts.
    counts: u64,
}

#[derive(Clone, Copy)]
enum Backend {
    /// `ExecBackend::Phased` on one thread, eager upload.
    Phased,
    /// `ExecBackend::Streaming`, one worker, uplink capacity 2, paced
    /// upload from a second thread.
    Streaming,
}

fn small_layer(scheme: SchemeKind) -> (LayerSpec, Kernel, Vec<Tensor>) {
    let spec = LayerSpec {
        scheme,
        shape: ConvShape {
            width: 8,
            height: 8,
            c_in: 2,
            c_out: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
        },
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    };
    let inputs = (0..2u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 40 + b))
        .collect();
    (spec, Kernel::random(4, 2, 3, 3, 3, 41), inputs)
}

/// 25 main patches of 4×4 over 16 channels: 16 fit one ciphertext, so
/// the class spills over two and the layer's batch capacity is 1.
fn spill_layer() -> (LayerSpec, Kernel, Vec<Tensor>) {
    let spec = LayerSpec {
        scheme: SchemeKind::Spot,
        shape: ConvShape {
            width: 16,
            height: 16,
            c_in: 16,
            c_out: 4,
            k_h: 3,
            k_w: 3,
            stride: 1,
        },
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    };
    (
        spec,
        Kernel::random(4, 16, 3, 3, 3, 43),
        vec![Tensor::random(16, 16, 16, 4, 42)],
    )
}

/// The analytic model's plan of `shape` — what the paper's tables are
/// made from — for one round of its upload.
fn model(spec: &LayerSpec, shape: &ConvShape, level: ParamLevel) -> ConvPlan {
    match spec.scheme {
        SchemeKind::Spot => spot::plan(shape, level, spec.patch, spec.mode, false),
        SchemeKind::Channelwise => channelwise::plan(shape, level, false),
        SchemeKind::Cheetah => cheetah::plan(shape, level, false),
    }
}

/// Holds the model of `shapes` to what the server ran over `rounds`
/// rounds of each: the same rotations, the same downlink result bytes
/// as the client received in `MaskedResult` blobs, and the same
/// plaintext multiplications and additions but for `zeroed` kernel
/// plaintexts the weights zero out: the model knows the geometry only,
/// so it multiplies by each and sums it into its giant step.
fn assert_model_is_what_ran(
    spec: &LayerSpec,
    shapes: &[ConvShape],
    level: ParamLevel,
    rounds: u64,
    (ran, result_bytes): (OpCounts, u64),
    zeroed: u64,
) {
    let (mut predicted, mut downlink) = (OpCounts::default(), 0);
    for shape in shapes {
        let plan = model(spec, shape, level);
        predicted.merge(&plan.total_server_ops().times(rounds));
        downlink += rounds * plan.downstream_bytes();
    }
    let case = format!("{:?} {level:?} x{rounds}", spec.scheme);
    assert_eq!(predicted.rotate, ran.rotate, "{case}: rotations");
    assert_eq!(
        predicted.mult_plain,
        ran.mult_plain + zeroed,
        "{case}: plaintext multiplications"
    );
    assert_eq!(predicted.add, ran.add + zeroed, "{case}: additions");
    assert_eq!(downlink, result_bytes, "{case}: result bytes");
}

/// One run of `layer`'s first `batch` images; `zeroed` is the count of
/// kernel plaintexts its weights zero out ([`assert_model_is_what_ran`]).
fn run_case(
    level: ParamLevel,
    (spec, kernel, inputs): &(LayerSpec, Kernel, Vec<Tensor>),
    batch: usize,
    backend: Backend,
    zeroed: u64,
) -> Golden {
    let ctx = Context::new(EncryptionParams::new(level));
    let keygen = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(9000));
    let inputs = &inputs[..batch];
    let conv = ClientConv::new(&ctx, &keygen, *spec).expect("client plan");
    let schedule = conv.schedule(batch).expect("schedule");
    let mut crng = StdRng::seed_from_u64(777);
    let mut srng = StdRng::seed_from_u64(3100);

    let (client, sent, served) = match backend {
        Backend::Phased => {
            let (ct, st) = MemTransport::pair();
            let client = Recorder::new(ct);
            let sent = conv
                .send_batch(&client, inputs, UploadPacing::Eager, &mut crng)
                .expect("upload");
            let exec = ExecBackend::Phased(Executor::serial());
            let served = serve_conv(&ctx, &st, kernel, &exec, &mut srng).expect("serve");
            (client, sent, served)
        }
        Backend::Streaming => {
            let (ct, st) = MemTransport::pair_with_capacity(Some(2), None);
            let client = Recorder::new(ct);
            let exec = ExecBackend::Streaming(StreamConfig::new(Executor::new(1), 2));
            let (sent, served) = std::thread::scope(|s| {
                let uploader = s.spawn(|| {
                    let sent = conv.send_batch(&client, inputs, UploadPacing::AwaitAck, &mut crng);
                    client.close_tx();
                    sent
                });
                let served = serve_conv(&ctx, &st, kernel, &exec, &mut srng);
                (uploader.join().expect("upload thread"), served)
            });
            (client, sent.expect("upload"), served.expect("serve"))
        }
    };
    let absorbed = conv.absorb_batch(&client, batch).expect("absorb");
    let rounds = (served.input_cts / conv.input_cts()) as u64;
    let received = client.result_bytes.load(Ordering::Relaxed);
    assert_model_is_what_ran(
        spec,
        &[spec.shape],
        level,
        rounds,
        (served.counts, received),
        zeroed,
    );

    let mut server_shares = vec![served.server_share];
    server_shares.extend(served.extra_shares);
    assert_eq!(absorbed.shares.len(), batch);
    assert_eq!(server_shares.len(), batch);
    let mut counts = served.counts;
    counts.encrypt += sent as u64;
    counts.decrypt += absorbed.output_cts as u64;
    let counts = [
        counts.rotate,
        counts.mult_plain,
        counts.add,
        counts.encrypt,
        counts.decrypt,
    ]
    .iter()
    .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()));
    let (up, down) = (client.up.lock().unwrap(), client.down.lock().unwrap());
    assert_eq!(up.kinds, walked(&schedule.uplink), "uplink as scheduled");
    assert_eq!(
        down.kinds,
        walked(&schedule.downlink),
        "downlink as scheduled"
    );
    let ((uplink, uplink_shape), (downlink, downlink_shape)) = (up.digests, down.digests);
    Golden {
        uplink,
        uplink_shape,
        downlink,
        downlink_shape,
        shares: absorbed
            .shares
            .iter()
            .zip(&server_shares)
            .map(|(c, s)| (tensor_digest(c), tensor_digest(s)))
            .collect(),
        counts,
    }
}

fn golden(
    (uplink, uplink_shape): (u64, u64),
    (downlink, downlink_shape): (u64, u64),
    shares: &[(u64, u64)],
    counts: u64,
) -> Golden {
    Golden {
        uplink,
        uplink_shape,
        downlink,
        downlink_shape,
        shares: shares.to_vec(),
        counts,
    }
}

/// Both backends of one `(scheme, batch)` cell must hit the same
/// constants: the backend changes neither bytes nor shares.
fn assert_small(scheme: SchemeKind, level: ParamLevel, batch: usize, want: Golden) {
    let layer = small_layer(scheme);
    for (name, backend) in [
        ("phased", Backend::Phased),
        ("streaming", Backend::Streaming),
    ] {
        let got = run_case(level, &layer, batch, backend, 0);
        assert_eq!(got, want, "{scheme:?} {level:?} batch={batch} {name}");
    }
}

#[test]
fn channelwise_b1() {
    assert_small(
        SchemeKind::Channelwise,
        ParamLevel::N4096,
        1,
        golden(
            (0xa9c9_f206_b4fa_2b62, 0xe5b0_158a_8920_eb68),
            (0x2efe_1389_dd72_21e6, 0xeaf0_4ca8_973e_915d),
            &[(0xb24b_6176_e081_60ff, 0x26b9_3c04_ad1a_3cc0)],
            0xc809_69bb_8c84_fbb7,
        ),
    );
}

#[test]
fn channelwise_b2() {
    assert_small(
        SchemeKind::Channelwise,
        ParamLevel::N4096,
        2,
        golden(
            (0xe6f0_3773_b61c_fc29, 0xe5b0_158a_8920_eb68),
            (0x7894_e462_9545_2d23, 0xeaf0_4ca8_973e_915d),
            &[
                (0x9774_a05c_b93e_3f04, 0xfc81_aa53_39c2_51cf),
                (0x8550_ef1c_6324_3cff, 0xb67c_1298_5b99_c82b),
            ],
            0xc809_69bb_8c84_fbb7,
        ),
    );
}

#[test]
fn cheetah_b1() {
    assert_small(
        SchemeKind::Cheetah,
        ParamLevel::N4096,
        1,
        golden(
            (0xa556_9a48_46da_fac2, 0x2f9e_38d7_8096_e13e),
            (0x5cd5_49b8_5c78_9a08, 0xc1ef_cf48_d677_7cf9),
            &[(0xcd8a_2359_a2b1_297e, 0xb1a5_3572_0ce0_a2f5)],
            0xfb29_4575_1bf2_c300,
        ),
    );
}

#[test]
fn cheetah_b2() {
    assert_small(
        SchemeKind::Cheetah,
        ParamLevel::N4096,
        2,
        golden(
            (0xccc0_7a3f_02ed_3f77, 0x3ec0_6ff0_34a0_f355),
            (0xcc15_2ccb_5bbb_d28c, 0x75a7_600e_fed1_c399),
            &[
                (0x001d_9de3_4620_5685, 0xb222_48ba_a6b5_4951),
                (0x1272_2543_b9a3_f80d, 0x048d_5848_e443_7ab2),
            ],
            0xcc31_4f3c_9afd_8ecf,
        ),
    );
}

#[test]
fn spot_b1() {
    assert_small(
        SchemeKind::Spot,
        ParamLevel::N4096,
        1,
        golden(
            (0x8dd4_91e0_4b8c_6479, 0xe5b0_158a_8920_eb68),
            (0x4db3_849b_d26d_4fce, 0xeaf0_4ca8_973e_915d),
            &[(0x4f49_0f2e_c254_7cb6, 0x9054_b00c_c888_c8c3)],
            0xc809_69bb_8c84_fbb7,
        ),
    );
}

#[test]
fn spot_b2() {
    assert_small(
        SchemeKind::Spot,
        ParamLevel::N4096,
        2,
        golden(
            (0xf8b0_39f3_589c_18d7, 0xe5b0_158a_8920_eb68),
            (0xd4f0_f2f2_2a16_9657, 0xeaf0_4ca8_973e_915d),
            &[
                (0x35d0_8d41_1ea7_c5d7, 0xf1ab_ebdd_f2fc_8d11),
                (0x4817_2fdc_bff3_c313, 0x328a_88e3_87f3_b66f),
            ],
            0xc809_69bb_8c84_fbb7,
        ),
    );
}

#[test]
fn spot_b2_n8192() {
    assert_small(
        SchemeKind::Spot,
        ParamLevel::N8192,
        2,
        golden(
            (0x0673_4d6b_c296_d761, 0xc6e1_48b3_c14a_e210),
            (0xeea9_5d51_d136_92f1, 0x64e9_7965_b4c0_8535),
            &[
                (0x825a_5b7a_b273_207d, 0x77c1_f8d7_6510_5cf9),
                (0x6d6a_74ca_c4e5_4f54, 0x0fa9_7995_eb7b_de83),
            ],
            0xc809_69bb_8c84_fbb7,
        ),
    );
}

/// A class spilling over several ciphertexts: the B=1 layout with no
/// spare positions, five input ciphertexts across four classes.
#[test]
fn spot_spilling_class() {
    let layer = spill_layer();
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let keygen = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(9000));
    let conv = ClientConv::new(&ctx, &keygen, layer.0).expect("client plan");
    assert_eq!((conv.input_cts(), conv.batch_capacity()), (5, 1));
    let want = golden(
        (0xd435_9b7e_05a9_1d36, 0x2679_fbb8_ce42_17ef),
        (0x3d5f_56ca_9153_29c0, 0xc6e8_7bfb_8310_67e7),
        &[(0x494e_5522_1c3a_3341, 0xde04_8b25_e3c4_e308)],
        0xae67_89d6_ac35_cd21,
    );
    for (name, backend) in [
        ("phased", Backend::Phased),
        ("streaming", Backend::Streaming),
    ] {
        let got = run_case(ParamLevel::N4096, &layer, 1, backend, 0);
        assert_eq!(got, want, "spill {name}");
    }
}

/// The runs of `kinds` that open with a `first` and go on while a kind
/// is one of `rest`: each convolution's frames in one direction of a
/// connection.
fn runs(kinds: &[&'static str], first: &str, rest: &[&str]) -> Vec<Vec<&'static str>> {
    let opens = kinds.iter().enumerate().filter(|&(_, &kind)| kind == first);
    opens
        .map(|(at, _)| {
            let len = kinds[at + 1..]
                .iter()
                .take_while(|kind| rest.contains(kind))
                .count();
            kinds[at..=at + len].to_vec()
        })
        .collect()
}

/// What the two-layer TinyCnn connection pins: both directions' bytes
/// and shapes, the revealed output, and the server's counts merged over
/// both convolutions.
#[derive(Debug, PartialEq, Eq)]
struct TinyCnnGolden {
    uplink: (u64, u64),
    downlink: (u64, u64),
    output: u64,
    counts: u64,
}

/// The whole TinyCnn connection under SPOT, as `tinycnn_spot` in
/// `benchmark/` drives it: conv1 and conv2 on one transport with the
/// non-linear rounds and reveals between them.
#[test]
fn tinycnn_spot_two_layers() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let keygen = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(9000));
    let cnn = TinyCnn::new(7);
    let input = Tensor::random(2, 8, 8, 5, 40);
    let want = TinyCnnGolden {
        uplink: (0xa7fe_bdca_4985_91ad, 0x123a_6a88_4d2d_29d5),
        downlink: (0xf75c_674a_3eb8_ead0, 0x166c_512c_503c_27ba),
        output: 0xe2d8_2316_5c69_bbf5,
        counts: 0xe67d_1259_3fb9_c3e7,
    };
    // What the client walks for each convolution: conv1 at 8x8, 2 -> 4
    // channels; max-pooled, conv2 at 4x4, 4 -> 4, whose schedule lacks
    // the keys conv1 uploaded.
    let mut held = HashSet::new();
    let layers: Vec<_> = [(8, 2), (4, 4)]
        .map(|(hw, c_in)| {
            let spec = LayerSpec {
                scheme: SchemeKind::Spot,
                shape: ConvShape::new(hw, hw, c_in, 4, 3, 1),
                patch: (4, 4),
                mode: PatchMode::Tweaked,
            };
            let conv = ClientConv::new(&ctx, &keygen, spec).expect("client plan");
            let mut schedule = conv.schedule(1).expect("schedule");
            (schedule.uplink).retain(|&frame| match frame {
                Frame::Key(g) => held.insert(g),
                _ => true,
            });
            schedule
        })
        .into();
    for (name, backend) in [
        ("phased", ExecBackend::Phased(Executor::serial())),
        (
            "streaming",
            ExecBackend::Streaming(StreamConfig::new(Executor::new(1), 2)),
        ),
    ] {
        let (ct, st) = MemTransport::pair();
        let client = Recorder::new(ct);
        let (outputs, report) = std::thread::scope(|s| {
            let server = s.spawn(|| {
                let mut srng = StdRng::seed_from_u64(3100);
                run_server(&ctx, &st, &cnn, &backend, &mut srng)
            });
            let outputs = run_client_batch(
                &ctx,
                &keygen,
                &client,
                std::slice::from_ref(&input),
                &cnn,
                SchemeKind::Spot,
                (4, 4),
                PatchMode::Tweaked,
                &mut StdRng::seed_from_u64(777),
            );
            (outputs, server.join().expect("server thread"))
        });
        let (outputs, report) = (outputs.expect("client"), report.expect("server"));
        assert_eq!(outputs[0], cnn.forward_plain(&input), "{name}");
        // conv1 at 8x8, 2 -> 4 channels; max-pooled, conv2 at 4x4, 4 -> 4.
        let spec = LayerSpec {
            scheme: SchemeKind::Spot,
            shape: ConvShape::new(8, 8, 2, 4, 3, 1),
            patch: (4, 4),
            mode: PatchMode::Tweaked,
        };
        // TinyCnn(7)'s weights zero out two kernel plaintexts: the
        // model's 72 plaintext multiplications are 70 that ran.
        let shapes = [spec.shape, ConvShape::new(4, 4, 4, 4, 3, 1)];
        let received = client.result_bytes.load(Ordering::Relaxed);
        assert_model_is_what_ran(
            &spec,
            &shapes,
            ParamLevel::N4096,
            1,
            (report.counts, received),
            2,
        );
        let counts = [
            report.counts.rotate,
            report.counts.mult_plain,
            report.counts.add,
            report.input_cts as u64,
            report.output_cts as u64,
        ]
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_le_bytes()));
        let (up, down) = (client.up.lock().unwrap(), client.down.lock().unwrap());
        let conv_up = runs(&up.kinds, "Setup", &["PackedCt", "AuxCt", "GaloisKeys"]);
        let conv_down = runs(&down.kinds, "LayerBarrier", &["MaskedResult"]);
        assert_eq!(
            conv_up,
            layers.iter().map(|s| walked(&s.uplink)).collect::<Vec<_>>()
        );
        assert_eq!(
            conv_down,
            layers
                .iter()
                .map(|s| walked(&s.downlink))
                .collect::<Vec<_>>()
        );
        let got = TinyCnnGolden {
            uplink: up.digests,
            downlink: down.digests,
            output: tensor_digest(&outputs[0]),
            counts,
        };
        assert_eq!(got, want, "tinycnn_spot {name}");
    }
}
