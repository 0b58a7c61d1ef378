//! Two-party inference over a wire [`Transport`]: the client holds the
//! input, the server holds the model, and every byte between them
//! crosses the typed protocol — so the same code drives an in-process
//! [`MemTransport`](spot_proto::transport::MemTransport) pair or two OS
//! processes over framed TCP.
//!
//! **One program, two walkers.** The network is a [`TinyCnn`]'s list of
//! [`Op`]s, and each party is one loop over it
//! ([`run_client_batch`], [`run_server_with`]). A `Conv` runs under HE
//! for the whole batch at once
//! ([`ClientConv`](crate::session::ClientConv) against
//! [`serve_conv_on`](crate::session::serve_conv_on)) and leaves the
//! parties holding additive shares; every convolution of a connection
//! shares its rotation keys, so a
//! later one uploads only the Galois elements no earlier one did. The
//! ops behind a convolution, up to and including the `Reveal` that ends
//! its stage, run *image-major*: all of image `b`'s rounds and its
//! reveal before image `b + 1`. `Relu`, `MaxPool2` and `AvgPool` are
//! one `OtRound` request/reply each, numbered by `round_of`; `Reveal`
//! is one `ShareReveal` from the server. `Add { from }` is local: each
//! party adds its own share of `ops[from]`'s output, which it kept when
//! that op ran (only outputs an `Add` names are kept). Past a `Reveal`
//! the client's share is the value and the server's is zero, so an
//! `Add` reaches across a `Reveal` by the same rule as within a stage.
//! The server checks every hello against where its own walk stands: the
//! op's kernel and stride, and behind the first convolution the `h × w`
//! its shares have reached. Every share a peer sends is read by
//! `decode_share`, which holds it to the element count of the dims it
//! stands for and to the field.
//!
//! **Demo simplification.** The non-linear rounds here stand in for the
//! OT-based DReLU/comparison protocols, whose traffic
//! `spot_proto::cost::OtCostModel` prices: the client sends its
//! additive share, the server reconstructs the value, applies the
//! function, and re-shares with fresh randomness. This reveals
//! post-conv activations to the server and is **not private** — it
//! exercises the wire protocol, session state machines, and traffic
//! accounting end to end while keeping the demo dependency-free. The
//! mid-network `ShareReveal` reconstructs the activation at the client,
//! which re-encrypts it as the next layer's input; in the real protocol
//! the client re-encrypts its share and the server adds its own — the
//! arithmetic is identical. [`TinyCnn::forward_secure_with`] is these
//! two halves in one process.
//!
//! The client walker is `client.rs`, the server walker `server.rs`; this
//! file is what both run: the round codec, the share reader and
//! `walk_image`. The client file uses nothing of either server file, of
//! the conv driver, of the worker pool or of the serving layer.

use crate::error::SpotError;
use crate::inference::{Op, TinyCnn};
use crate::session::spec::unexpected;
use spot_proto::transport::Transport;
use spot_proto::wire::WireMessage;
use spot_tensor::fixed::{from_field, to_field};
use spot_tensor::tensor::Tensor;
use std::collections::HashMap;

mod client;
mod server;

pub use client::run_client_batch;
pub use server::{run_server_with, ServerReport};

/// `OtRound` op code for ReLU on shares.
pub const OP_RELU: u8 = 1;
/// `OtRound` op code for 2×2 max-pooling on shares.
pub const OP_MAXPOOL: u8 = 2;
/// `OtRound` op code for global average pooling on shares.
pub const OP_AVGPOOL: u8 = 3;

/// An activation's `(channels, height, width)`.
type Dims = (usize, usize, usize);

/// This party's shares of the outputs an `Add` names, by program index
/// and image.
type Kept = HashMap<(usize, usize), (Dims, Vec<u64>)>;

/// The `OtRound` op code and span name of an interactive op, and the
/// dims of its result on a `(c, h, w)` input.
fn round_kind(op: &Op, (c, h, w): Dims) -> (u8, &'static str, Dims) {
    match op {
        Op::Relu => (OP_RELU, "relu round", (c, h, w)),
        Op::MaxPool2 => (OP_MAXPOOL, "maxpool round", (c, h / 2, w / 2)),
        Op::AvgPool => (OP_AVGPOOL, "avgpool round", (c, 1, 1)),
        Op::Conv { .. } | Op::Add { .. } | Op::Reveal => {
            unreachable!("{op:?} is not an interactive round")
        }
    }
}

/// The `OtRound` number of image `b` of `batch` at the interactive op
/// `ops[at]`: that op's index among the program's `Relu`s, `MaxPool2`s
/// and `AvgPool`s, times `batch`, plus `b` — `b`, `batch + b`,
/// `2·batch + b` for [`TinyCnn::new`], and `0, 1, 2` for one image.
fn round_of(ops: &[Op], at: usize, batch: usize, b: usize) -> u16 {
    let rounds_before = (ops[..at].iter())
        .filter(|op| matches!(op, Op::Relu | Op::MaxPool2 | Op::AvgPool))
        .count();
    (rounds_before * batch + b) as u16
}

fn encode_share(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// The one reader of a peer's share of a `dims` activation: it must
/// carry exactly that many values, each a residue mod `t`, so the
/// `(c + s) % t` reconstructions below cannot overflow and the tensors
/// they fill cannot be misshapen by anything a peer sends.
fn decode_share(blob: &[u8], t: u64, (c, h, w): Dims) -> Result<Vec<u64>, SpotError> {
    let len = c * h * w;
    if blob.len() != 8 * len {
        return Err(SpotError::Protocol(format!(
            "share payload of {} bytes does not carry the {len} values of a {c}x{h}x{w} share",
            blob.len()
        )));
    }
    blob.chunks_exact(8)
        .map(|c| {
            // `chunks_exact(8)` yields 8-byte chunks only, so the
            // conversion to `[u8; 8]` cannot fail.
            let v = u64::from_le_bytes(c.try_into().expect("chunk of 8 bytes"));
            if v < t {
                Ok(v)
            } else {
                Err(SpotError::Protocol(format!(
                    "share value {v} is not reduced mod {t}"
                )))
            }
        })
        .collect()
}

/// The `(c, h, w)` a pooling round's payload leads with.
fn dims_prefix((c, h, w): Dims) -> Vec<u8> {
    let dims = [c as u32, h as u32, w as u32];
    dims.iter().flat_map(|d| d.to_le_bytes()).collect()
}

/// Expects the next message to be the peer's `OtRound` of this op code
/// and round number; returns its payload.
fn recv_round(transport: &dyn Transport, code: u8, round: u16) -> Result<Vec<u8>, SpotError> {
    let msg = transport.recv()?;
    let WireMessage::OtRound {
        op: rop,
        round: rround,
        blob,
    } = msg
    else {
        return Err(unexpected(&msg, "OtRound"));
    };
    if rop != code || rround != round {
        return Err(SpotError::Protocol(format!(
            "OtRound out of order: got op {rop} round {rround}, want op {code} round {round}"
        )));
    }
    Ok(blob)
}

/// A convolution share as both walkers carry it through the ops behind
/// it: its dims and its values in `Z_t`.
fn conv_share(share: &Tensor, t: u64) -> (Dims, Vec<u64>) {
    let dims = (share.channels(), share.height(), share.width());
    (dims, share.data().iter().map(|&v| to_field(v, t)).collect())
}

/// The centered values two additive shares of equal length stand for.
fn reconstruct(a: &[u64], b: &[u64], t: u64) -> Vec<i64> {
    (a.iter().zip(b))
        .map(|(&a, &b)| from_field((a + b) % t, t))
        .collect()
}

/// One party's walk of image `b` through the ops of a stage behind its
/// convolution (`tail`, from program index `at`), from `share`, its
/// share of the convolution's output. `step(i, op, dims, share)` is
/// this party's side of the interactive op or `Reveal` `ops[i]` and
/// returns its share of that op's output; an `Add` is local and the
/// same on both sides. Every output an `Add` names, the convolution's
/// included, goes into `kept`.
fn walk_image(
    cnn: &TinyCnn,
    (at, tail): (usize, &[Op]),
    b: usize,
    share: (Dims, Vec<u64>),
    t: u64,
    kept: &mut Kept,
    mut step: impl FnMut(usize, &Op, Dims, &[u64]) -> Result<(Dims, Vec<u64>), SpotError>,
) -> Result<(), SpotError> {
    let keep = |kept: &mut Kept, i, (dims, mine): &(Dims, Vec<u64>)| {
        if cnn.is_kept(i) {
            kept.insert((i, b), (*dims, mine.clone()));
        }
    };
    let mut now = share;
    keep(kept, at - 1, &now);
    for (i, op) in (at..).zip(tail) {
        let (dims, mine) = &now;
        now = match op {
            Op::Add { from } => {
                let (their_dims, theirs) = &kept[&(*from, b)];
                if their_dims != dims {
                    return Err(SpotError::Protocol(format!(
                        "ops[{i}] adds a {their_dims:?} output to a {dims:?} one"
                    )));
                }
                let sum = (mine.iter().zip(theirs)).map(|(&x, &y)| (x + y) % t);
                (*dims, sum.collect())
            }
            Op::Conv { .. } => unreachable!("a stage has one convolution"),
            _ => step(i, op, *dims, mine)?,
        };
        keep(kept, i, &now);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::client::client_round;
    use super::server::{reshare, server_round};
    use super::*;
    use crate::executor::Executor;
    use crate::patching::PatchMode;
    use crate::session::{ExecBackend, SchemeKind, ServeOptions};
    use crate::stream::StreamConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::context::Context;
    use spot_he::keys::KeyGenerator;
    use spot_he::params::{EncryptionParams, ParamLevel};
    use spot_proto::transport::MemTransport;
    use spot_tensor::tensor::Kernel;
    use std::sync::Arc;

    /// `cnn` on a batch of `batch` 2×8×8 images, both walkers over a
    /// `MemTransport` pair: what the client reconstructs, and what the
    /// plaintext pass says.
    fn run_pair(
        cnn: &TinyCnn,
        batch: u64,
        backend: ExecBackend,
        scheme: SchemeKind,
    ) -> (Vec<Tensor>, Vec<Tensor>) {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let inputs: Vec<Tensor> = (0..batch)
            .map(|b| Tensor::random(2, 8, 8, 5, 9 + b))
            .collect();
        let want = inputs.iter().map(|i| cnn.forward_plain(i)).collect();
        let (ct, st) = MemTransport::pair();
        let ctx_s = Arc::clone(&ctx);
        let cnn_s = cnn.clone();
        let server = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1312);
            let opts = ServeOptions::default();
            run_server_with(&ctx_s, &st, &cnn_s, &backend, opts, &mut rng)
        });
        let mut rng = StdRng::seed_from_u64(99);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let got = run_client_batch(
            &ctx,
            &kg,
            &ct,
            &inputs,
            cnn,
            scheme,
            (4, 4),
            PatchMode::Tweaked,
            &mut rng,
        )
        .expect("client run");
        let report = server.join().expect("server thread").expect("server run");
        assert_eq!(report.batch, batch as usize);
        assert!(report.input_cts > 0);
        assert!(report.counts.mult_plain > 0);
        (got, want)
    }

    /// TinyCnn, and programs of other shapes through the same
    /// constructor: one convolution; three, the last at stride 2, with a
    /// stage of no rounds and one that pools before its ReLU; the
    /// residual net of `examples/mini_resnet.rs`, whose skip `Add`
    /// reaches across two reveals and whose 1×1 head runs on the
    /// average-pooled 1×1 map; and `Add`s inside a stage, of the
    /// convolution's output and of a round's. (Weights in `[-1, 1]`
    /// keep every sum inside `t / 2`.)
    fn programs() -> [(&'static str, TinyCnn); 5] {
        let conv_k = |c_out, c_in, k, stride, seed| Op::Conv {
            kernel: Kernel::random(c_out, c_in, k, k, 1, seed),
            stride,
        };
        let conv = |c_out, c_in, stride, seed| conv_k(c_out, c_in, 3, stride, seed);
        let one = vec![conv(3, 2, 1, 21), Op::Relu, Op::Reveal];
        let three = vec![
            conv(4, 2, 1, 22),
            Op::Relu,
            Op::MaxPool2,
            Op::Reveal,
            conv(4, 4, 1, 23),
            Op::Reveal,
            conv(2, 4, 2, 24),
            Op::MaxPool2,
            Op::Relu,
            Op::Reveal,
        ];
        let residual = vec![
            conv(4, 2, 1, 25),
            Op::Relu,
            Op::Reveal,
            conv(4, 4, 1, 26),
            Op::Relu,
            Op::Reveal,
            conv(4, 4, 1, 27),
            Op::Add { from: 2 },
            Op::Relu,
            Op::AvgPool,
            Op::Reveal,
            conv_k(3, 4, 1, 1, 28),
            Op::Reveal,
        ];
        let adds_in_a_stage = vec![
            conv(4, 2, 1, 29),
            Op::Relu,
            Op::Add { from: 0 },
            Op::MaxPool2,
            Op::Relu,
            Op::Add { from: 3 },
            Op::Reveal,
        ];
        [
            ("TinyCnn", TinyCnn::new(7)),
            ("one conv", TinyCnn::from_ops(one)),
            ("three convs", TinyCnn::from_ops(three)),
            ("mini resnet", TinyCnn::from_ops(residual)),
            ("adds in a stage", TinyCnn::from_ops(adds_in_a_stage)),
        ]
    }

    #[test]
    fn twoparty_programs_match_plain_all_schemes() {
        for (name, cnn) in programs() {
            for scheme in SchemeKind::ALL {
                let backend = ExecBackend::Phased(Executor::serial());
                let (got, want) = run_pair(&cnn, 1, backend, scheme);
                assert_eq!(got, want, "{name}, scheme {scheme:?}");
            }
        }
    }

    #[test]
    fn twoparty_streaming_backend_matches_plain() {
        let cfg = StreamConfig::new(Executor::new(2), 2);
        let backend = ExecBackend::Streaming(cfg);
        let (got, want) = run_pair(&TinyCnn::new(7), 1, backend, SchemeKind::Spot);
        assert_eq!(got, want);
    }

    #[test]
    fn twoparty_batched_programs_match_plain_per_image() {
        for (name, cnn) in programs() {
            for scheme in SchemeKind::ALL {
                let backend = ExecBackend::Phased(Executor::serial());
                let (got, want) = run_pair(&cnn, 3, backend, scheme);
                assert_eq!(got, want, "{name}, scheme {scheme:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "Reveal before each later conv")]
    fn a_program_whose_second_conv_has_nothing_revealed_to_encrypt_is_not_built() {
        let conv = || Op::Conv {
            kernel: Kernel::random(2, 2, 3, 3, 1, 25),
            stride: 1,
        };
        TinyCnn::from_ops(vec![conv(), Op::Relu, conv(), Op::Reveal]);
    }

    #[test]
    #[should_panic(expected = "an Add names an op that does not run before it")]
    fn a_program_whose_add_names_itself_is_not_built() {
        let conv = Op::Conv {
            kernel: Kernel::random(2, 2, 3, 3, 1, 25),
            stride: 1,
        };
        TinyCnn::from_ops(vec![conv, Op::Add { from: 1 }, Op::Reveal]);
    }

    const T: u64 = 1_146_881;
    /// The largest magnitude a centered value mod `T` takes, less one.
    const EDGE: i64 = (T / 2 - 1) as i64;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random values, the field's edges among them, split into
        /// shares and run through `client_round` against `server_round`
        /// over a `MemTransport` pair: both parties agree on the
        /// result's dims, and the shares reconstruct to `Op::apply`.
        #[test]
        fn interactive_rounds_reconstruct_to_the_op(
            op in prop_oneof![Just(Op::Relu), Just(Op::MaxPool2), Just(Op::AvgPool)],
            dims in (1usize..3, 2usize..7, 2usize..7),
            values in proptest::collection::vec(
                prop_oneof![Just(0i64), Just(1), Just(-1), Just(EDGE), Just(-EDGE), -EDGE..=EDGE],
                72,
            ),
            seed in 0u64..1000,
        ) {
            let x = Tensor::from_vec(dims.0, dims.1, dims.2, values[..dims.0 * dims.1 * dims.2].to_vec());
            let mut rng = StdRng::seed_from_u64(seed);
            let (server, client) = reshare(x.data(), T, &mut rng);
            let (ct, st) = MemTransport::pair();
            let (theirs, mine) = std::thread::scope(|s| {
                let theirs = s.spawn(|| server_round(&st, &op, 7, dims, &server, T, &mut rng));
                let mine = client_round(&ct, &op, 7, dims, &client, T).expect("client round");
                (theirs.join().expect("server thread").expect("server round"), mine)
            });
            let want = op.apply(x);
            let want_dims = (want.channels(), want.height(), want.width());
            prop_assert_eq!((mine.0, theirs.0), (want_dims, want_dims));
            prop_assert_eq!(reconstruct(&mine.1, &theirs.1, T), want.data());
        }
    }
}
