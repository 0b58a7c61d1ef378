//! Cross-image batching acceptance tests.
//!
//! 1. **Per-image bit-identity** — a batched session's client and
//!    server shares for image `b` are bit-identical to an unbatched
//!    run of that image whose server rng is seeded with the batch's
//!    per-image seed, and reconstructs to the true convolution, for
//!    all three schemes, ragged batch widths and both ring sizes.
//! 2. **Amortization** — the whole batch performs exactly the
//!    rotation count of a single image (slot batching leaves the
//!    rotation schedule unchanged), so each image pays `1/B` of it.
//! 3. **Transport independence** — the same seeds produce the same
//!    shares over `MemTransport` and framed TCP.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_core::executor::Executor;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv_with, ClientConv, ExecBackend, LayerSpec, SchemeKind, ServeOptions, UploadPacing,
};
use spot_he::context::Context;
use spot_he::evaluator::OpCounts;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, TcpTransport};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::Arc;

/// The low-occupancy test layer (2×8×8 → 4 channels) every scheme can
/// batch at least 3 wide on N4096.
fn test_spec(scheme: SchemeKind) -> LayerSpec {
    LayerSpec {
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
    }
}

fn test_inputs(batch: usize) -> Vec<Tensor> {
    (0..batch as u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 40 + b))
        .collect()
}

fn test_kernel() -> Kernel {
    Kernel::random(4, 2, 3, 3, 3, 41)
}

/// One batched phased session over a `MemTransport` pair; returns
/// per-image client shares, per-image server shares and the
/// whole-batch operation counts.
fn run_batched(
    ctx: &Arc<Context>,
    kg: &KeyGenerator,
    inputs: &[Tensor],
    spec: LayerSpec,
    kernel: &Kernel,
    server_seed: u64,
) -> (Vec<Tensor>, Vec<Tensor>, OpCounts) {
    let (ct, st) = MemTransport::pair();
    let conv = ClientConv::new(ctx, kg, spec).expect("client conv");
    let mut crng = StdRng::seed_from_u64(777);
    conv.send_batch(&ct, inputs, UploadPacing::Eager, &mut crng)
        .expect("upload");
    let mut srng = StdRng::seed_from_u64(server_seed);
    let backend = ExecBackend::Phased(Executor::serial());
    let summary = serve_conv_with(
        ctx,
        &st,
        kernel,
        &backend,
        ServeOptions::default(),
        &mut srng,
    )
    .expect("serve");
    let shares = conv.absorb_batch(&ct, inputs.len()).expect("absorb");
    let mut server_shares = vec![summary.server_share];
    server_shares.extend(summary.extra_shares);
    (shares.shares, server_shares, summary.counts)
}

/// Replicates the per-image mask seeds a batched server draws: the
/// first `batch` u64s of its session rng, in image order.
fn batch_seeds(server_seed: u64, batch: usize) -> Vec<u64> {
    let mut r = StdRng::seed_from_u64(server_seed);
    (0..batch).map(|_| r.gen()).collect()
}

/// Reconstructs the output from its two additive shares mod `t`,
/// recentering to signed values.
fn reconstruct(client: &Tensor, server: &Tensor, t: u64) -> Tensor {
    let vals = client
        .data()
        .iter()
        .zip(server.data())
        .map(|(&c, &s)| {
            let v = ((c.rem_euclid(t as i64) + s.rem_euclid(t as i64)) % t as i64) as u64;
            if v > t / 2 {
                v as i64 - t as i64
            } else {
                v as i64
            }
        })
        .collect();
    Tensor::from_vec(client.channels(), client.height(), client.width(), vals)
}

fn assert_batched_matches_unbatched(scheme: SchemeKind, level: ParamLevel, batch: usize) {
    let ctx = Context::new(EncryptionParams::new(level));
    let mut keyrng = StdRng::seed_from_u64(9000);
    let kg = KeyGenerator::new(&ctx, &mut keyrng);
    let inputs = test_inputs(batch);
    let kernel = test_kernel();
    let spec = test_spec(scheme);
    let t = ctx.params().plain_modulus();

    let server_seed = 3100;
    let (cs, ss, counts) = run_batched(&ctx, &kg, &inputs, spec, &kernel, server_seed);
    assert_eq!(cs.len(), batch);
    assert_eq!(ss.len(), batch);
    let tag = format!("{scheme:?} {level:?} batch={batch}");

    let seeds = batch_seeds(server_seed, batch);
    for b in 0..batch {
        let want = spot_tensor::conv::conv2d(&inputs[b], &kernel, 1);
        assert_eq!(reconstruct(&cs[b], &ss[b], t), want, "{tag}: image {b}");
        let (rcs, rss, rcounts) = run_batched(&ctx, &kg, &inputs[b..=b], spec, &kernel, seeds[b]);
        assert_eq!(cs[b], rcs[0], "{tag}: client share image {b}");
        assert_eq!(ss[b], rss[0], "{tag}: server share image {b}");
        if batch > 1 && !matches!(scheme, SchemeKind::Cheetah) {
            // The whole batch costs exactly one image's rotations:
            // per-image cost is 1/batch of the unbatched schedule.
            assert_eq!(counts.rotate, rcounts.rotate, "{tag}: rotations image {b}");
        }
    }
}

#[test]
fn channelwise_batched_bit_identical_ragged() {
    assert_batched_matches_unbatched(SchemeKind::Channelwise, ParamLevel::N4096, 3);
}

#[test]
fn cheetah_batched_bit_identical() {
    assert_batched_matches_unbatched(SchemeKind::Cheetah, ParamLevel::N4096, 2);
}

#[test]
fn spot_batched_bit_identical_ragged() {
    assert_batched_matches_unbatched(SchemeKind::Spot, ParamLevel::N4096, 3);
}

#[test]
fn spot_batched_bit_identical_large_ring() {
    assert_batched_matches_unbatched(SchemeKind::Spot, ParamLevel::N8192, 2);
}

/// Channel-wise rotations are non-trivial on this layer, so the 1/B
/// amortization claim above is not vacuous.
#[test]
fn channelwise_layer_actually_rotates() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut keyrng = StdRng::seed_from_u64(9000);
    let kg = KeyGenerator::new(&ctx, &mut keyrng);
    let (_, _, counts) = run_batched(
        &ctx,
        &kg,
        &test_inputs(1),
        test_spec(SchemeKind::Channelwise),
        &test_kernel(),
        3100,
    );
    assert!(counts.rotate > 0, "layer performs no rotations");
}

/// The same server seed yields bit-identical per-image shares over
/// framed TCP and `MemTransport`.
#[test]
fn batched_shares_identical_over_tcp() {
    let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut keyrng = StdRng::seed_from_u64(9000);
    let kg = KeyGenerator::new(&ctx, &mut keyrng);
    let inputs = test_inputs(3);
    let kernel = test_kernel();
    let spec = test_spec(SchemeKind::Spot);

    let (mem_cs, mem_ss, _) = run_batched(&ctx, &kg, &inputs, spec, &kernel, 555);

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let ctx_s = Arc::clone(&ctx);
    let kernel_s = kernel.clone();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let transport = TcpTransport::from_stream(stream).expect("wrap stream");
        let mut rng = StdRng::seed_from_u64(555);
        let backend = ExecBackend::Phased(Executor::serial());
        serve_conv_with(
            &ctx_s,
            &transport,
            &kernel_s,
            &backend,
            ServeOptions::default(),
            &mut rng,
        )
        .expect("serve over tcp")
    });

    let transport = TcpTransport::connect(addr.to_string()).expect("connect");
    let conv = ClientConv::new(&ctx, &kg, spec).expect("client conv");
    let shares = std::thread::scope(|s| {
        let conv_ref = &conv;
        let tr = &transport;
        let inputs_ref = &inputs;
        let uploader = s.spawn(move || {
            let mut crng = StdRng::seed_from_u64(777);
            conv_ref.send_batch(tr, inputs_ref, UploadPacing::Eager, &mut crng)
        });
        let shares = conv_ref.absorb_batch(tr, inputs_ref.len());
        uploader.join().expect("upload thread").expect("upload");
        shares.expect("absorb")
    });
    let summary = server.join().expect("server thread");
    let mut tcp_ss = vec![summary.server_share];
    tcp_ss.extend(summary.extra_shares);

    assert_eq!(shares.shares, mem_cs);
    assert_eq!(tcp_ss, mem_ss);
}
