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
//! Last re-record, `WIRE_VERSION` 7 (a coefficient-packed result
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
    serve_conv, ClientConv, ExecBackend, LayerSpec, SchemeKind, UploadPacing,
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

/// The client's endpoint with every frame it sends or receives folded
/// into a running digest, in the order the session code moved it.
struct Recorder {
    inner: MemTransport,
    /// `(frame bytes, frame headers)` digests of the sent frames.
    up: Mutex<(u64, u64)>,
    /// The same pair over the received frames.
    down: Mutex<(u64, u64)>,
    /// Bytes of the `MaskedResult` blobs received.
    result_bytes: AtomicU64,
}

impl Recorder {
    fn new(inner: MemTransport) -> Self {
        Self {
            inner,
            up: Mutex::new((FNV_OFFSET, FNV_OFFSET)),
            down: Mutex::new((FNV_OFFSET, FNV_OFFSET)),
            result_bytes: AtomicU64::new(0),
        }
    }
}

/// Folds one frame into a direction's `(bytes, headers)` digests.
fn record(digests: &Mutex<(u64, u64)>, msg: &WireMessage) {
    let frame = msg.encode_frame();
    let mut d = digests.lock().unwrap();
    *d = (fnv1a(d.0, &frame), fnv1a(d.1, &frame[..FRAME_HEADER_BYTES]));
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
    let (uplink, uplink_shape) = *client.up.lock().unwrap();
    let (downlink, downlink_shape) = *client.down.lock().unwrap();
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
            (0x08c9_761a_372e_4409, 0x0516_2aae_50bf_7f0f),
            (0x5119_ace7_f6b9_b1b9, 0x9e2a_2cc3_b662_c0f2),
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
            (0x651b_5f82_65c7_8466, 0x0516_2aae_50bf_7f0f),
            (0x62a9_d1b2_6172_c588, 0x9e2a_2cc3_b662_c0f2),
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
            (0x9f72_463e_e657_47fa, 0x4183_2e16_49e7_23c6),
            (0x420b_224d_9d18_0b83, 0x6851_0ff4_cd4d_f746),
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
            (0x8b4f_7cfa_502a_0534, 0x73f9_c3ac_3f23_5592),
            (0x490f_eecf_668d_883f, 0xfa10_bc92_1091_5b7e),
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
            (0xc7be_9f36_23a9_8449, 0xe44d_c111_dcfa_3c30),
            (0x6e71_010e_a2c4_b247, 0xfbda_4e2b_b8d4_403e),
            &[(0xa8ac_8bba_a0e7_3e87, 0x6818_fbf9_3881_2ec9)],
            0x3ce7_01fc_7b2e_f8d5,
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
            (0x4324_320e_48fc_cd63, 0xe44d_c111_dcfa_3c30),
            (0xf832_56e2_830a_d53a, 0xfbda_4e2b_b8d4_403e),
            &[
                (0x4ad0_1fb6_12a9_c9dd, 0x9957_eb61_f0a3_d4ef),
                (0x3f36_8fe0_b681_9edf, 0x55c0_450b_d769_9361),
            ],
            0x3ce7_01fc_7b2e_f8d5,
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
            (0x1b23_5729_8534_050f, 0x2bf5_0edc_d051_5a95),
            (0x2534_1089_2fe4_f1f4, 0xd78a_ca52_1db5_537e),
            &[
                (0xcf55_8f48_0b67_ef8a, 0xcb35_bc14_b223_9a38),
                (0x6747_87a8_ed0a_8a10, 0xb0d0_4728_5a1d_b466),
            ],
            0x3ce7_01fc_7b2e_f8d5,
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
        (0x2989_6f94_cc3f_fbd9, 0x635c_450f_9cdd_7000),
        (0x2488_0632_c4a9_b304, 0x63a5_464c_d306_134f),
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
        uplink: (0x7758_6cd3_7910_9cb4, 0x9224_da26_d1d3_1c56),
        downlink: (0x5a4d_a68d_605c_dfee, 0xd00e_bc2b_8817_e28e),
        output: 0xe2d8_2316_5c69_bbf5,
        counts: 0x8433_41f6_8525_1727,
    };
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
        // TinyCnn(7)'s weights zero out three kernel plaintexts: the
        // model's 100 plaintext multiplications are 97 that ran.
        let shapes = [spec.shape, ConvShape::new(4, 4, 4, 4, 3, 1)];
        let received = client.result_bytes.load(Ordering::Relaxed);
        assert_model_is_what_ran(
            &spec,
            &shapes,
            ParamLevel::N4096,
            1,
            (report.counts, received),
            3,
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
        let got = TinyCnnGolden {
            uplink: *client.up.lock().unwrap(),
            downlink: *client.down.lock().unwrap(),
            output: tensor_digest(&outputs[0]),
            counts,
        };
        assert_eq!(got, want, "tinycnn_spot {name}");
    }
}
