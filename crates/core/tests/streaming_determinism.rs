//! Streaming runtime acceptance tests.
//!
//! 1. **Determinism** — for every scheme, the streamed execution's
//!    shares and operation counts are bit-identical to the phased
//!    harness's for the same rng seed, at 1 and 8 server worker threads
//!    and small channel capacities (so backpressure actually engages).
//!    The rotation keys travel inside the upload, so the same holds at
//!    every read-ahead, pacing and link the key stream can meet.
//! 2. **Stall accounting sanity** — on a single-thread server, SPOT's
//!    measured server idle (the paper's linear computation stall) is
//!    strictly less than channel-wise packing's on the same layer,
//!    because SPOT convolves each ciphertext as it arrives while a
//!    channel-wise job, reading every input, parks the worker for the
//!    whole upload.

mod common;

use common::{tcp_pair, within_deadline};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use spot_core::channelwise::SecureConvResult;
use spot_core::executor::Executor;
use spot_core::inference::ExecBackend;
use spot_core::patching::PatchMode;
use spot_core::session::{
    run_in_process, serve_conv_on, serve_conv_with, ClientConv, ConnectionKeys, LayerSpec,
    ModelLayer, SchemeKind, ServeOptions, UploadPacing,
};
use spot_core::stream::{StreamConfig, StreamStats};
use spot_he::context::Context;
use spot_he::encoding::BatchEncoder;
use spot_he::encryptor::SymmetricEncryptor;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, Transport};
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

fn ctx4096() -> Arc<Context> {
    Context::new(EncryptionParams::new(ParamLevel::N4096))
}

/// The stall test compares measured times, every other test here only
/// bits: their sessions hold this shared while it holds it alone, so
/// what it measures is the two parties and not the neighbouring tests.
static MACHINE: RwLock<()> = RwLock::new(());

/// One in-process session over `inputs` on the 4×4-patch tweaked
/// layer every test here uses; returns the per-image results and the
/// stall stats the backend reported.
fn run_conv(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    inputs: &[Tensor],
    kernel: &Kernel,
    scheme: SchemeKind,
    backend: &ExecBackend,
    rng: &mut StdRng,
) -> (Vec<SecureConvResult>, Option<StreamStats>) {
    let _shared = MACHINE.read().unwrap_or_else(PoisonError::into_inner);
    let spec = LayerSpec::for_layer(scheme, &inputs[0], kernel, 1, (4, 4), PatchMode::Tweaked);
    let outcome = run_in_process(ctx, keygen, spec, inputs, kernel, backend, rng)
        .expect("in-process secure convolution session");
    (outcome.results, outcome.stream)
}

/// Runs one scheme phased and streamed from the same seed and asserts
/// bit-identical results.
fn assert_streaming_matches_phased(scheme: SchemeKind, threads: usize, channel_capacity: usize) {
    let ctx = ctx4096();
    let mut keyrng = StdRng::seed_from_u64(9000);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    let input = Tensor::random(4, 8, 8, 8, 17);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 18);

    let mut rng_a = StdRng::seed_from_u64(4242);
    let (phased, phased_stats) = run_conv(
        &ctx,
        &keygen,
        std::slice::from_ref(&input),
        &kernel,
        scheme,
        &ExecBackend::Phased(Executor::new(threads)),
        &mut rng_a,
    );
    // Same driver, unbounded read-ahead.
    let phased_stats = phased_stats.expect("every backend reports stats");
    assert_eq!(phased_stats.channel_capacity, usize::MAX);

    let mut rng_b = StdRng::seed_from_u64(4242);
    let cfg = StreamConfig::new(Executor::new(threads), channel_capacity);
    let (streamed, stats) = run_conv(
        &ctx,
        &keygen,
        std::slice::from_ref(&input),
        &kernel,
        scheme,
        &ExecBackend::Streaming(cfg),
        &mut rng_b,
    );
    let stats = stats.expect("every backend reports stats");
    let (phased, streamed) = (&phased[0], &streamed[0]);

    let tag = format!(
        "{} threads={threads} cap={channel_capacity}",
        scheme.label()
    );
    assert_eq!(phased.client_share, streamed.client_share, "{tag}");
    assert_eq!(phased.server_share, streamed.server_share, "{tag}");
    assert_eq!(phased.counts, streamed.counts, "{tag}");
    assert_eq!(phased.input_cts, streamed.input_cts, "{tag}");
    assert_eq!(phased.output_cts, streamed.output_cts, "{tag}");
    assert_eq!(stats.input_items, streamed.input_cts, "{tag}");
    assert_eq!(stats.channel_capacity, channel_capacity, "{tag}");
    assert!(stats.wall_s > 0.0, "{tag}");
}

#[test]
fn spot_streaming_deterministic_1_thread() {
    assert_streaming_matches_phased(SchemeKind::Spot, 1, 1);
}

#[test]
fn spot_streaming_deterministic_8_threads() {
    assert_streaming_matches_phased(SchemeKind::Spot, 8, 2);
}

#[test]
fn channelwise_streaming_deterministic_1_thread() {
    assert_streaming_matches_phased(SchemeKind::Channelwise, 1, 1);
}

#[test]
fn channelwise_streaming_deterministic_8_threads() {
    assert_streaming_matches_phased(SchemeKind::Channelwise, 8, 2);
}

/// A batched session is deterministic across backends too: per-image
/// shares and the whole-batch counts are bit-identical between the
/// phased harness and the streamed one for the same seed.
fn assert_batched_streaming_matches_phased(threads: usize, channel_capacity: usize) {
    let ctx = ctx4096();
    let mut keyrng = StdRng::seed_from_u64(9000);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    let inputs: Vec<Tensor> = (0..3u64)
        .map(|b| Tensor::random(2, 8, 8, 5, 17 + b))
        .collect();
    let kernel = Kernel::random(4, 2, 3, 3, 4, 18);

    let mut rng_a = StdRng::seed_from_u64(4242);
    let (phased, phased_stats) = run_conv(
        &ctx,
        &keygen,
        &inputs,
        &kernel,
        SchemeKind::Spot,
        &ExecBackend::Phased(Executor::new(threads)),
        &mut rng_a,
    );
    phased_stats.expect("every backend reports stats");

    let mut rng_b = StdRng::seed_from_u64(4242);
    let cfg = StreamConfig::new(Executor::new(threads), channel_capacity);
    let (streamed, stats) = run_conv(
        &ctx,
        &keygen,
        &inputs,
        &kernel,
        SchemeKind::Spot,
        &ExecBackend::Streaming(cfg),
        &mut rng_b,
    );
    stats.expect("every backend reports stats");

    let tag = format!("batched threads={threads} cap={channel_capacity}");
    assert_eq!(phased.len(), inputs.len(), "{tag}");
    assert_eq!(streamed.len(), inputs.len(), "{tag}");
    for (b, (p, s)) in phased.iter().zip(&streamed).enumerate() {
        assert_eq!(p.client_share, s.client_share, "{tag} image {b}");
        assert_eq!(p.server_share, s.server_share, "{tag} image {b}");
        assert_eq!(p.counts, s.counts, "{tag} image {b}");
    }
}

#[test]
fn spot_batched_streaming_deterministic_1_thread() {
    assert_batched_streaming_matches_phased(1, 1);
}

#[test]
fn spot_batched_streaming_deterministic_8_threads() {
    assert_batched_streaming_matches_phased(8, 2);
}

#[test]
fn cheetah_streaming_deterministic_1_thread() {
    assert_streaming_matches_phased(SchemeKind::Cheetah, 1, 1);
}

#[test]
fn cheetah_streaming_deterministic_8_threads() {
    assert_streaming_matches_phased(SchemeKind::Cheetah, 8, 2);
}

/// The key stream changes when a rotation key arrives, never what is
/// computed: with the keys travelling inside the upload, both rotating
/// schemes produce the phased run's shares and op counts bit for bit at
/// read-ahead 1 with one worker (the tightest case of the no-deadlock
/// argument: the ingest thread must get past every key frame with a
/// single queue slot and the one worker blocked on a key), at
/// read-ahead 2 with one worker (the benchmark's), at 8 workers, under
/// both pacings, over the bounded in-memory link and over TCP.
#[test]
fn key_stream_matches_phased_at_every_read_ahead_pacing_and_link() {
    let ctx = ctx4096();
    let keygen = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(9000));
    let input = Tensor::random(4, 8, 8, 8, 17);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 18);
    for scheme in [SchemeKind::Spot, SchemeKind::Channelwise] {
        let mut rng = StdRng::seed_from_u64(4242);
        let (phased, _) = run_conv(
            &ctx,
            &keygen,
            std::slice::from_ref(&input),
            &kernel,
            scheme,
            &ExecBackend::Phased(Executor::serial()),
            &mut rng,
        );
        let phased = &phased[0];
        // The seeds `run_in_process` split off for its two parties.
        let mut seeds = StdRng::seed_from_u64(4242);
        let (client_seed, server_seed) = (seeds.next_u64(), seeds.next_u64());

        let spec = LayerSpec::for_layer(scheme, &input, &kernel, 1, (4, 4), PatchMode::Tweaked);
        let streamed = |threads, read_ahead, pacing, tcp: bool| {
            let _shared = MACHINE.read().unwrap_or_else(PoisonError::into_inner);
            // Per connection: it remembers which keys it has uploaded.
            let client = ClientConv::new(&ctx, &keygen, spec).expect("client plan");
            let (client_end, server_end): (Box<dyn Transport>, Box<dyn Transport>) = if tcp {
                let (c, s) = tcp_pair();
                (Box::new(c), Box::new(s))
            } else {
                let (c, s) = MemTransport::pair_with_capacity(Some(read_ahead), None);
                (Box::new(c), Box::new(s))
            };
            let backend =
                ExecBackend::Streaming(StreamConfig::new(Executor::new(threads), read_ahead));
            std::thread::scope(|s| {
                let client_side = s.spawn(|| {
                    let mut rng = StdRng::seed_from_u64(client_seed);
                    let sent = client.send_all(&*client_end, &input, pacing, &mut rng);
                    client_end.close_tx();
                    let share = client.absorb_all(&*client_end);
                    (sent, share)
                });
                let mut mask_rng = StdRng::seed_from_u64(server_seed);
                let served = serve_conv_with(
                    &ctx,
                    &*server_end,
                    &kernel,
                    &backend,
                    ServeOptions::default(),
                    &mut mask_rng,
                );
                if served.is_err() {
                    // Nothing more is coming: let the absorber see it.
                    server_end.close_tx();
                }
                let (sent, share) = client_side.join().expect("client thread panicked");
                let served = served.expect("serve_conv_with");
                let (sent, share) = (sent.expect("upload"), share.expect("absorb"));
                let mut counts = served.counts;
                counts.encrypt += sent as u64;
                counts.decrypt += share.output_cts as u64;
                (share.share, served.server_share, counts)
            })
        };
        for (threads, read_ahead) in [(1, 1), (1, 2), (8, 2)] {
            for pacing in [UploadPacing::AwaitAck, UploadPacing::Eager] {
                for tcp in [false, true] {
                    let tag = format!(
                        "{} threads={threads} read-ahead={read_ahead} {pacing:?} tcp={tcp}",
                        scheme.label()
                    );
                    let (client_share, server_share, counts) =
                        within_deadline(&tag, || streamed(threads, read_ahead, pacing, tcp));
                    assert_eq!(client_share, phased.client_share, "{tag}");
                    assert_eq!(server_share, phased.server_share, "{tag}");
                    assert_eq!(counts, phased.counts, "{tag}");
                }
            }
        }
    }
}

/// Streamed results also reconstruct to the true convolution (guards
/// against phased and streamed agreeing on a wrong answer).
#[test]
fn streamed_results_reconstruct_correctly() {
    let ctx = ctx4096();
    let mut rng = StdRng::seed_from_u64(31000);
    let keygen = KeyGenerator::new(&ctx, &mut rng);
    let input = Tensor::random(4, 8, 8, 8, 71);
    let kernel = Kernel::random(4, 4, 3, 3, 4, 72);
    let want = spot_tensor::conv::conv2d(&input, &kernel, 1);
    for scheme in SchemeKind::ALL {
        let cfg = StreamConfig::new(Executor::new(4), 2);
        let (res, _) = run_conv(
            &ctx,
            &keygen,
            std::slice::from_ref(&input),
            &kernel,
            scheme,
            &ExecBackend::Streaming(cfg),
            &mut rng,
        );
        assert_eq!(res[0].reconstruct(), want, "scheme {}", scheme.label());
    }
}

/// The client's randomness at a tiny client's speed: the same `StdRng`
/// stream, with a fixed burn of dependent multiplies before every draw.
/// One upload encryption (a seed and one error polynomial) makes ≈ 4 k
/// draws and one rotation key ≈ 12 k, so their times are linear in the
/// burn and scale with the machine like the server's own work.
struct TinyClientRng {
    inner: StdRng,
    burn: u32,
}

impl RngCore for TinyClientRng {
    fn next_u64(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..self.burn {
            x = std::hint::black_box(x.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
        }
        std::hint::black_box(x);
        self.inner.next_u64()
    }
}

/// Seconds one encryption — the seeded symmetric one the session
/// uploads — takes a client whose randomness burns `burn` per draw: the
/// fastest of three on this machine, now.
fn tiny_client_encryption_s(ctx: &Arc<Context>, keygen: &KeyGenerator, burn: u32) -> f64 {
    let mut rng = TinyClientRng {
        inner: StdRng::seed_from_u64(77),
        burn,
    };
    let encryptor = SymmetricEncryptor::new(ctx, keygen.secret_key().clone());
    let plain = BatchEncoder::new(ctx).encode(&[1, 2, 3]);
    let timed = (0..3).map(|_| {
        let start = Instant::now();
        std::hint::black_box(encryptor.encrypt(&plain, &mut rng));
        start.elapsed().as_secs_f64()
    });
    timed.fold(f64::INFINITY, f64::min)
}

/// One streamed convolution through the public session API — what
/// `run_in_process` streams, except that the client thread draws from
/// a [`TinyClientRng`] burning `burn` per draw — returning the server's
/// stall accounting. With `keys_held` it is the second layer of its
/// connection: the same layer runs once before it, unburnt, so the
/// connection holds every rotation key and the measured upload is
/// ciphertexts only. Without, it is the first: the burnt client also
/// makes every rotation key, inside the measured upload. Every draw of
/// the measured upload is burnt: a client that encrypts under its
/// secret key makes nothing but ciphertexts and rotation keys.
#[allow(clippy::too_many_arguments)]
fn stream_with_tiny_client(
    ctx: &Arc<Context>,
    keygen: &KeyGenerator,
    input: &Tensor,
    kernel: &Kernel,
    scheme: SchemeKind,
    seed: u64,
    burn: u32,
    keys_held: bool,
) -> StreamStats {
    let spec = LayerSpec {
        scheme,
        shape: ConvShape {
            width: input.width(),
            height: input.height(),
            c_in: input.channels(),
            c_out: kernel.out_channels(),
            k_h: kernel.k_h(),
            k_w: kernel.k_w(),
            stride: 1,
        },
        patch: (4, 4),
        mode: PatchMode::Tweaked,
    };
    let capacity = 2;
    let backend = ExecBackend::Streaming(StreamConfig::new(Executor::serial(), capacity));
    let (client_end, server_end) = MemTransport::pair_with_capacity(Some(capacity), None);
    let (share, served) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            let mut rng = TinyClientRng {
                inner: StdRng::seed_from_u64(seed),
                burn: 0,
            };
            let mut run = || {
                let mut layer = ClientConv::new(ctx, keygen, spec)?;
                if keys_held {
                    layer.send_all(&client_end, input, UploadPacing::AwaitAck, &mut rng)?;
                    layer.absorb_all(&client_end)?;
                    layer = layer.next_layer(spec)?;
                }
                rng.burn = burn;
                layer.send_all(&client_end, input, UploadPacing::AwaitAck, &mut rng)?;
                layer.absorb_all(&client_end)
            };
            let share = run();
            // Whatever happened, the server must not wait for more.
            client_end.close_tx();
            share
        });
        let mut mask_rng = StdRng::seed_from_u64(seed + 1);
        let keys = ConnectionKeys::default();
        let mut serve = || {
            let opts = ServeOptions::default();
            let layer = ModelLayer {
                kernel,
                stride: None,
                input: None,
            };
            serve_conv_on(
                ctx,
                &server_end,
                layer,
                &backend,
                opts,
                &keys,
                &mut mask_rng,
            )
        };
        let served = match keys_held {
            true => serve().and_then(|_warm_up| serve()),
            false => serve(),
        };
        let share = client.join().expect("client thread panicked");
        (share.expect("client"), served.expect("serve_conv_on"))
    });
    let shares = SecureConvResult {
        client_share: share.share,
        server_share: served.server_share,
        counts: served.counts,
        input_cts: served.input_cts,
        output_cts: served.output_cts,
        modulus: ctx.params().plain_modulus(),
    };
    assert_eq!(
        shares.reconstruct(),
        spot_tensor::conv::conv2d(input, kernel, 1),
        "{scheme:?}"
    );
    assert!(
        served.input_cts >= 2,
        "layer must need several uploads to expose the stall, got {}",
        served.input_cts
    );
    served.stream.expect("every backend reports stats")
}

/// The measured stall comparison of the paper on its own premise — a
/// client slower than the server — scaled down to a test-sized
/// Table-I-class layer (16×16 map, C_i = 64 → four channel-wise input
/// ciphertexts at N4096, so its worker sits out four uploads where
/// SPOT's sits out one: the 1.5× asserted below is far inside that, not
/// on the edge of two timings). On a single-thread server with the same
/// tiny-client channel budget, channel-wise jobs read every input and so
/// park the worker for every slow upload, while SPOT waits for the first and
/// then convolves each ciphertext while the client produces the next.
/// At equal party speed both idles are scheduler noise; the runtime
/// property itself is covered synthetically by
/// `stream.rs::per_input_idle_less_than_all_inputs_idle`.
///
/// The premise is measured, not assumed: the client is slowed until one
/// of its encryptions — the seeded symmetric encryption the session
/// performs, which is what the calibration times — takes about a third
/// of what this machine's server needs to convolve one SPOT ciphertext:
/// over twenty times slower than the server at the same work (an unburnt
/// encryption is 0.29 ms, an upload at the burn 6–8 ms), yet it still fits
/// under a convolution with room for a noisy neighbour, so the only
/// upload SPOT's worker waits out is the first.
///
/// Both places a layer can have on its connection are measured. On a
/// later one the connection holds every rotation key, the upload is
/// ciphertexts alone, and the ordering is asserted on the stall as
/// reported. On the first one the tiny client also makes the keys
/// (8 under SPOT, 6 under channel-wise packing, each costing it about
/// three of its encryptions: `k` = 3 error polynomials against one), the
/// worker waits for the first six of either — the five input-side ones
/// (the column swap and the four moves the taps compose from), then the
/// one giant step — and that wait is by far the larger part of both
/// stalls, so the *total* orders by noise, not by packing,
/// and is not asserted. What the key stream must not touch is the paper's
/// quantity, the wait for ciphertexts (`server_idle_s - key_wait_s`):
/// SPOT's stays the first upload, or two when its first job was waiting
/// for keys to the end; channel-wise packing's stays all four.
#[test]
fn spot_server_idle_below_channelwise_on_table1_layer() {
    let _alone = MACHINE.write().unwrap_or_else(PoisonError::into_inner);
    let ctx = ctx4096();
    let mut keyrng = StdRng::seed_from_u64(5150);
    let keygen = KeyGenerator::new(&ctx, &mut keyrng);
    let input = Tensor::random(64, 16, 16, 4, 81);
    let kernel = Kernel::random(8, 64, 3, 3, 3, 82);
    let stream = |scheme, seed, burn, keys_held| {
        stream_with_tiny_client(
            &ctx, &keygen, &input, &kernel, scheme, seed, burn, keys_held,
        )
    };
    let conv_per_ct = |stats: &StreamStats| stats.server_busy_s / stats.input_items as f64;

    // An encryption's time is linear in the burn: fit it through two
    // measurements and solve for a third of a convolution, as the
    // server convolves when its client is slow.
    let probe = 512;
    let target = conv_per_ct(&stream(SchemeKind::Spot, 6000, probe, true)) / 3.0;
    let unburnt = tiny_client_encryption_s(&ctx, &keygen, 0);
    let per_burn = (tiny_client_encryption_s(&ctx, &keygen, probe) - unburnt) / f64::from(probe);
    assert!(per_burn > 0.0, "a burn must cost time");
    let burn = ((target - unburnt) / per_burn).max(0.0) as u32;

    let cw = stream(SchemeKind::Channelwise, 6100, burn, true);
    let spot = stream(SchemeKind::Spot, 6200, burn, true);
    let cw_first = stream(SchemeKind::Channelwise, 6300, burn, false);
    let spot_first = stream(SchemeKind::Spot, 6400, burn, false);

    let upload_per_ct = tiny_client_encryption_s(&ctx, &keygen, burn);
    // EXPERIMENTS.md's "measured stall" ranges are these lines over
    // sixteen runs (`--nocapture`).
    for (name, stats) in [
        ("held channel-wise", &cw),
        ("held SPOT", &spot),
        ("first channel-wise", &cw_first),
        ("first SPOT", &spot_first),
    ] {
        eprintln!(
            "stall {name}: idle {:.4}s, of it keys {:.4}s; burn {burn}, upload {upload_per_ct:.4}s",
            stats.server_idle_s, stats.key_wait_s
        );
    }
    assert!(
        upload_per_ct < conv_per_ct(&spot),
        "premise: an upload ({upload_per_ct:.4}s at burn {burn}) must fit under \
         a SPOT convolution ({:.4}s)",
        conv_per_ct(&spot)
    );
    assert_eq!(
        (spot.key_wait_s, cw.key_wait_s),
        (0.0, 0.0),
        "a layer whose keys the connection holds waits for none"
    );
    assert!(
        1.5 * spot.server_idle_s < cw.server_idle_s,
        "SPOT measured server idle {:.4}s must be well below channel-wise {:.4}s",
        spot.server_idle_s,
        cw.server_idle_s
    );
    let waited_for_cts = |stats: &StreamStats| stats.server_idle_s - stats.key_wait_s;
    assert!(
        spot_first.key_wait_s > 0.0 && cw_first.key_wait_s > 0.0,
        "a connection's first layer waits for its keys inside the measured upload \
         (SPOT {:.4}s, channel-wise {:.4}s)",
        spot_first.key_wait_s,
        cw_first.key_wait_s
    );
    assert!(
        waited_for_cts(&spot_first) < waited_for_cts(&cw_first),
        "first layer of a connection: SPOT waited {:.4}s for ciphertexts (and {:.4}s for \
         keys), which must stay below channel-wise's {:.4}s (and {:.4}s)",
        waited_for_cts(&spot_first),
        spot_first.key_wait_s,
        waited_for_cts(&cw_first),
        cw_first.key_wait_s
    );
}
