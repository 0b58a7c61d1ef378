//! Noise headroom on the shapes the benchmark runs, asserted on the
//! ciphertexts the client actually receives.
//!
//! HE fails silently: at zero budget a result decrypts to garbage that
//! is still a well-formed share. The reconstruction check catches that
//! only after the fact and only for the inputs tried, so every masked
//! result of every `BENCHMARK.json` shape is also required to keep a
//! stated number of bits in hand. A change to the key switch (its digit
//! representative, its accumulation order) that eats into the `N = 4096`
//! margin fails here before it fails in the field.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::channelwise;
use spot_core::executor::Executor;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::session::{
    serve_conv, ClientConv, ExecBackend, LayerSpec, SchemeKind, UploadPacing,
};
use spot_he::ciphertext::{Ciphertext, SparseCiphertext};
use spot_he::context::Context;
use spot_he::encryptor::Decryptor;
use spot_he::keys::KeyGenerator;
use spot_he::modswitch::{ModSwitch, RESULT_PRIMES};
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, Transport, TransportStats};
use spot_proto::{ProtoError, WireMessage};
use spot_tensor::conv::{conv2d, maxpool2, relu};
use spot_tensor::tensor::{Kernel, Tensor};
use std::sync::{Arc, Mutex};

/// Bits every result ciphertext must have left, whatever the shape. An
/// equally valid digit representative or another draw of the key errors
/// moves the tightest case by a bit; three bits gone is a change worth
/// a look.
const MARGIN_BITS: u32 = 10;

/// Bits each benchmark shape has left on the results the client
/// decrypts, at the level's first two primes: 19 and 15 for the TinyCnn
/// convolutions, 13 for the 32→32 layer under SPOT and under
/// channel-wise packing at `N = 4096`, 46 for the latter at `N = 8192`. Each shape is held to its own figure, so a drop is a
/// change that has to be looked at and recorded here with its reason.
/// The giant steps' Horner walk by one key and the seeded symmetric
/// inputs cost no shape a bit (a symmetric encryption is fresher than
/// a public-key one, and the walk adds the same `giants − 1` key-switch
/// terms the per-step rotations did), nor had seeded rotation keys (the
/// `a_i` are uniform either way). Composing the kernel taps from row
/// and column moves did: a corner tap is now two key switches from the
/// input, not one, so four of a 3×3 kernel's nine terms carry a second
/// additive key-switch error. That took conv2 from 16 bits to 15 and
/// left the other four figures where they were; one bit is the most
/// any shape may give for it. Switching results down to two primes
/// before they are sent cost the three `N = 4096` shapes nothing (one
/// 37-bit prime dropped, the noise divided by it) and took the
/// `N = 8192` one from 114 bits to 46: its modulus goes from five primes
/// (218 bits) to two (86), and what is left there is the switch's own
/// rounding term, not the convolution's noise.
const CONV1_BITS: u32 = 19;
const CONV2_BITS: u32 = 15;
const LAYER_N4096_BITS: u32 = 13;
const LAYER_CHANNELWISE_N8192_BITS: u32 = 46;

/// Bits the TinyCnn convolutions keep under Cheetah, read at the
/// coefficients the client decrypts of each sparse result, at
/// `N = 4096`'s two result primes: 32 for conv1 and 32 for conv2. A
/// coefficient-packed result is one ring product per input ciphertext
/// plus the mask — no rotation, so none of the key-switch error that
/// leaves the slot-packed results 19 and 15 — and what is left is the
/// fresh encryption error times the `c_in·k²` weights each useful
/// coefficient sums (18 and 36 terms of `|w| < t/2`).
const CHEETAH_CONV1_BITS: u32 = 32;
const CHEETAH_CONV2_BITS: u32 = 32;

/// The client's endpoint, keeping every result ciphertext it is sent.
struct KeepResults {
    inner: MemTransport,
    results: Mutex<Vec<Vec<u8>>>,
}

impl Transport for KeepResults {
    fn send(&self, msg: &WireMessage) -> Result<(), ProtoError> {
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<WireMessage, ProtoError> {
        let msg = self.inner.recv()?;
        if let WireMessage::MaskedResult { blob, .. } = &msg {
            self.results.lock().unwrap().push(blob.clone());
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

/// One conv session's results as the client received them.
struct Session {
    ctx: Arc<Context>,
    keygen: KeyGenerator,
    blobs: Vec<Vec<u8>>,
    /// The coefficients a coefficient-packed result carries and the
    /// client decrypts; `None` for whole (slot-packed) results.
    positions: Option<Vec<usize>>,
}

impl Session {
    /// The whole results, as the client reads them — in the result
    /// context, at the level's first two primes.
    fn results(&self) -> Vec<Ciphertext> {
        assert!(self.positions.is_none(), "whole results");
        let rctx = self.ctx.result_context();
        (self.blobs.iter())
            .map(|blob| Ciphertext::try_from_bytes(rctx, blob).expect("server's result ciphertext"))
            .collect()
    }

    /// The smallest noise budget over the results, read where the
    /// client reads them: the whole ciphertext, or a sparse result at
    /// its positions (`Decryptor::noise_budget_sparse`).
    fn min_budget(&self) -> u32 {
        let Some(positions) = &self.positions else {
            return min_budget(&self.keygen, &self.results());
        };
        let rctx = self.ctx.result_context();
        let decryptor = Decryptor::new(rctx, self.keygen.secret_key().restricted_to(rctx));
        (self.blobs.iter())
            .map(|blob| {
                let ct = SparseCiphertext::try_from_bytes(rctx, blob, positions)
                    .expect("server's sparse result");
                decryptor.noise_budget_sparse(&ct)
            })
            .min()
            .expect("at least one result ciphertext")
    }
}

/// Runs one conv session, checks that the shares reconstruct, and
/// returns the results the client received.
fn session_results(
    level: ParamLevel,
    scheme: SchemeKind,
    input: &Tensor,
    kernel: &Kernel,
) -> Session {
    let ctx = Context::new(EncryptionParams::new(level));
    let keygen = KeyGenerator::new(&ctx, &mut StdRng::seed_from_u64(1));
    let spec = LayerSpec::for_layer(scheme, input, kernel, 1, (4, 4), PatchMode::Tweaked);
    let conv = ClientConv::new(&ctx, &keygen, spec).expect("client plan");

    let (ct, st) = MemTransport::pair();
    let client = KeepResults {
        inner: ct,
        results: Mutex::new(Vec::new()),
    };
    let inputs = std::slice::from_ref(input);
    conv.send_batch(
        &client,
        inputs,
        UploadPacing::Eager,
        &mut StdRng::seed_from_u64(2),
    )
    .expect("upload");
    let exec = ExecBackend::Phased(Executor::serial());
    let served =
        serve_conv(&ctx, &st, kernel, &exec, &mut StdRng::seed_from_u64(3)).expect("serve");
    let absorbed = conv.absorb_batch(&client, 1).expect("absorb");

    let t = ctx.params().plain_modulus() as i64;
    let centered = |v: i64| (v.rem_euclid(t) + t / 2).rem_euclid(t) - t / 2;
    let output = absorbed.shares[0].add(&served.server_share).map(centered);
    assert_eq!(output, conv2d(input, kernel, 1), "{scheme:?} at {level}");

    let blobs = client.results.into_inner().unwrap();
    assert_eq!(blobs.len(), absorbed.output_cts);
    let positions = conv.result_positions().map(<[usize]>::to_vec);
    Session {
        ctx,
        keygen,
        blobs,
        positions,
    }
}

/// The smallest noise budget over `results`, decrypted in their own
/// context under the row prefix of the client's secret key.
fn min_budget(keygen: &KeyGenerator, results: &[Ciphertext]) -> u32 {
    results
        .iter()
        .map(|ct| {
            let ctx = ct.context();
            Decryptor::new(ctx, keygen.secret_key().restricted_to(ctx)).noise_budget(ct)
        })
        .min()
        .expect("at least one result ciphertext")
}

fn assert_headroom(
    name: &str,
    level: ParamLevel,
    scheme: SchemeKind,
    x: &Tensor,
    k: &Kernel,
    recorded: u32,
) {
    let session = session_results(level, scheme, x, k);
    assert_eq!(
        session.ctx.result_context().moduli_count(),
        session.ctx.moduli_count().min(RESULT_PRIMES),
        "{name}: results travel at the level's first two primes"
    );
    let bits = session.min_budget();
    assert!(
        bits >= recorded.max(MARGIN_BITS),
        "{name}: {bits} bits of noise budget left at {level}, want the {recorded} it had \
         (and never under {MARGIN_BITS})"
    );
}

/// `tinycnn_spot`: both convolutions, the second on the activations the
/// first produces.
#[test]
fn tinycnn_convs_under_spot() {
    let cnn = TinyCnn::new(7);
    let [conv1, conv2] = cnn.kernels().collect::<Vec<_>>()[..] else {
        panic!("TinyCnn has two convolutions");
    };
    let input = Tensor::random(2, 8, 8, 5, 11);
    assert_headroom(
        "conv1",
        ParamLevel::N4096,
        SchemeKind::Spot,
        &input,
        conv1,
        CONV1_BITS,
    );
    let mid = maxpool2(&relu(&conv2d(&input, conv1, 1)));
    assert_headroom(
        "conv2",
        ParamLevel::N4096,
        SchemeKind::Spot,
        &mid,
        conv2,
        CONV2_BITS,
    );
}

/// `tinycnn_cheetah`: both convolutions under coefficient packing, the
/// second on the activations the first produces, each read at the
/// coefficients of the sparse results the client decrypts.
#[test]
fn tinycnn_convs_under_cheetah() {
    let cnn = TinyCnn::new(7);
    let [conv1, conv2] = cnn.kernels().collect::<Vec<_>>()[..] else {
        panic!("TinyCnn has two convolutions");
    };
    let input = Tensor::random(2, 8, 8, 5, 11);
    assert_headroom(
        "cheetah conv1",
        ParamLevel::N4096,
        SchemeKind::Cheetah,
        &input,
        conv1,
        CHEETAH_CONV1_BITS,
    );
    let mid = maxpool2(&relu(&conv2d(&input, conv1, 1)));
    assert_headroom(
        "cheetah conv2",
        ParamLevel::N4096,
        SchemeKind::Cheetah,
        &mid,
        conv2,
        CHEETAH_CONV2_BITS,
    );
}

/// `layer_spot` and `layer_channelwise`: 16×16, 32→32, k = 3, at the
/// benchmark's `N = 4096`, and channel-wise also at the level its own
/// `minimum_level` asks for.
#[test]
fn paper_shaped_layer_under_spot_and_channelwise() {
    let input = Tensor::random(32, 16, 16, 4, 12);
    let kernel = Kernel::random(32, 32, 3, 3, 3, 7);
    let n4096 = ParamLevel::N4096;
    assert_headroom(
        "layer_spot",
        n4096,
        SchemeKind::Spot,
        &input,
        &kernel,
        LAYER_N4096_BITS,
    );
    assert_headroom(
        "layer_channelwise",
        n4096,
        SchemeKind::Channelwise,
        &input,
        &kernel,
        LAYER_N4096_BITS,
    );
    let spec = LayerSpec::for_layer(
        SchemeKind::Channelwise,
        &input,
        &kernel,
        1,
        (4, 4),
        PatchMode::Tweaked,
    );
    let level = channelwise::minimum_level(&spec.shape);
    assert_eq!(level, ParamLevel::N8192);
    assert_headroom(
        "layer_channelwise",
        level,
        SchemeKind::Channelwise,
        &input,
        &kernel,
        LAYER_CHANNELWISE_N8192_BITS,
    );
}

/// Why results stop at two primes: the `layer_spot` results, switched
/// once more, to one prime, keep 8 bits, fewer than every shape must.
#[test]
fn one_prime_results_would_fall_under_the_margin() {
    let input = Tensor::random(32, 16, 16, 4, 12);
    let kernel = Kernel::random(32, 32, 3, 3, 3, 7);
    let session = session_results(ParamLevel::N4096, SchemeKind::Spot, &input, &kernel);
    let one = ModSwitch::new(session.ctx.result_context(), 1);
    let switched: Vec<Ciphertext> = (session.results().into_iter())
        .map(|ct| one.switch(ct))
        .collect();
    let bits = min_budget(&session.keygen, &switched);
    assert!(
        bits < MARGIN_BITS,
        "one prime leaves {bits} bits, which would make it the result rule"
    );
}
