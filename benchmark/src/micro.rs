//! Micro-section: the unit cost of each `spot-he` / `spot-proto`
//! operation a request is made of, timed through the public API at
//! N4096, and the cost model's prediction for the workload's layers.

use crate::workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::patching::PatchMode;
use spot_core::session::SchemeKind;
use spot_he::prelude::*;
use spot_he::serial::{galois_keys_from_bytes, galois_keys_to_bytes};
use spot_pipeline::plan::ConvPlan;
use spot_proto::wire::WireMessage;
use spot_tensor::models::ConvShape;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rotation keys generated per Galois-key timing sample.
const GALOIS_SET: [i64; 4] = [1, 2, 4, 8];

/// Seconds of the fastest of `reps` calls of `f` (the one no neighbour
/// disturbed; see `fastest` in main.rs).
fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

/// `he.*` unit costs and `proto.frame_*` codec costs.
pub fn unit_costs(ctx: &Arc<Context>, seed: u64) -> Vec<(&'static str, f64)> {
    const REPS: usize = 100;
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ctx.degree();
    let t = ctx.params().plain_modulus();
    let slots: Vec<u64> = (0..n as u64).map(|i| (i * 7 + seed) % t).collect();

    let keygen_s = time(REPS, || KeyGenerator::new(ctx, &mut rng));
    let keygen = KeyGenerator::new(ctx, &mut rng);
    let public_key_s = time(REPS, || keygen.public_key(&mut rng));
    let encoder = BatchEncoder::new(ctx);
    let evaluator = Evaluator::new(ctx);
    let encryptor = Encryptor::new(ctx, keygen.public_key(&mut rng));
    let decryptor = Decryptor::new(ctx, keygen.secret_key().clone());

    let elements = evaluator.galois_elements(&GALOIS_SET, false);
    let per_key = elements.len() as f64;
    let galois_keygen_s = time(REPS / 8, || keygen.galois_keys(&elements, &mut rng));
    let galois = keygen.galois_keys(&elements, &mut rng);
    let galois_serialize_s = time(REPS / 8, || galois_keys_to_bytes(&galois));
    let galois_blob = galois_keys_to_bytes(&galois);
    let galois_deserialize_s = time(REPS / 8, || {
        galois_keys_from_bytes(ctx, &galois_blob).expect("own Galois keys deserialize")
    });
    let one_key = galois_keys_to_bytes(&keygen.galois_keys(&elements[..1], &mut rng));

    let encode_s = time(REPS, || encoder.encode(&slots));
    let plain = encoder.encode(&slots);
    let encrypt_s = time(REPS, || encryptor.encrypt(&plain, &mut rng));
    let ct = encryptor.encrypt(&plain, &mut rng);
    let decrypt_s = time(REPS, || decryptor.decrypt(&ct));
    let decrypted = decryptor.decrypt(&ct);
    let decode_s = time(REPS, || encoder.decode(&decrypted));
    assert_eq!(encoder.decode(&decrypted), slots, "BFV round trip");

    let ct_to_bytes_s = time(REPS, || ct.to_bytes());
    let blob = ct.to_bytes();
    let ct_bytes = blob.len();
    let ct_from_bytes_s = time(REPS, || {
        Ciphertext::try_from_bytes(ctx, &blob).expect("own ciphertext deserializes")
    });

    let rotate_s = time(REPS, || evaluator.rotate_rows(&ct, 1, &galois));
    let lift_s = time(REPS, || plain.lift(ctx));
    let lifted = plain.lift(ctx);
    let mult_plain_s = time(REPS, || evaluator.multiply_lifted(&ct, &lifted));
    let add_s = time(REPS, || evaluator.add(&ct, &ct));

    let tables = &ctx.ntt_tables()[0];
    let p = tables.modulus().value();
    let mut poly: Vec<u64> = slots.iter().map(|v| v % p).collect();
    let ntt_forward_s = time(REPS, || tables.forward(&mut poly));
    let ntt_inverse_s = time(REPS, || tables.inverse(&mut poly));

    let frame = WireMessage::PackedCt { seq: 0, blob };
    let frame_encode_s = time(REPS, || frame.encode_frame());
    let encoded = frame.encode_frame();
    let frame_decode_s = time(REPS, || {
        WireMessage::decode_frame(&encoded).expect("own frame decodes")
    });

    vec![
        ("he.keygen_s", keygen_s),
        ("he.public_key_s", public_key_s),
        ("he.galois_keygen_per_key_s", galois_keygen_s / per_key),
        (
            "he.galois_serialize_per_key_s",
            galois_serialize_s / per_key,
        ),
        (
            "he.galois_deserialize_per_key_s",
            galois_deserialize_s / per_key,
        ),
        ("he.galois_key_bytes", one_key.len() as f64),
        ("he.encode_s", encode_s),
        ("he.encrypt_s", encrypt_s),
        ("he.decrypt_s", decrypt_s),
        ("he.decode_s", decode_s),
        ("he.ct_to_bytes_s", ct_to_bytes_s),
        ("he.ct_from_bytes_s", ct_from_bytes_s),
        ("he.ct_bytes", ct_bytes as f64),
        ("he.rotate_s", rotate_s),
        ("he.mult_plain_s", mult_plain_s),
        ("he.lift_s", lift_s),
        ("he.add_s", add_s),
        ("he.ntt_forward_s", ntt_forward_s),
        ("he.ntt_inverse_s", ntt_inverse_s),
        ("proto.frame_encode_s", frame_encode_s),
        ("proto.frame_decode_s", frame_decode_s),
    ]
}

/// The convolutions a request of `workload` runs.
fn conv_shapes(workload: Workload) -> Vec<ConvShape> {
    if workload.is_layer() {
        return vec![workload.layer_spec().shape];
    }
    // TinyCnn: 2x8x8 -> conv 4 -> ReLU -> maxpool -> 4x4x4 -> conv 4.
    let conv = |side, c_in| ConvShape {
        width: side,
        height: side,
        c_in,
        c_out: 4,
        k_h: 3,
        k_w: 3,
        stride: 1,
    };
    vec![conv(8, 2), conv(4, 4)]
}

/// `model.*`: what the analytic cost model (the one behind `results/`)
/// predicts for this workload's convolutions, to print beside the
/// measured counts. Drift is a finding about the tables, not a failure.
pub fn predicted(workload: Workload) -> Vec<(&'static str, f64)> {
    let level = ParamLevel::N4096;
    let spec = workload.layer_spec();
    let (mut rotations, mut mult_plain, mut input_cts) = (0, 0, 0);
    for shape in conv_shapes(workload) {
        let plan: ConvPlan = match workload.scheme() {
            SchemeKind::Spot => {
                spot_core::spot::plan(&shape, level, spec.patch, PatchMode::Tweaked, false)
            }
            SchemeKind::Cheetah => spot_core::cheetah::plan(&shape, level, false),
            SchemeKind::Channelwise => spot_core::channelwise::plan(&shape, level, false),
        };
        let ops = plan.total_server_ops();
        rotations += ops.rotate;
        mult_plain += ops.mult_plain;
        input_cts += plan.input_cts;
    }
    vec![
        ("model.predicted_rotations", rotations as f64),
        ("model.predicted_mult_plain", mult_plain as f64),
        ("model.predicted_input_cts", input_cts as f64),
    ]
}
