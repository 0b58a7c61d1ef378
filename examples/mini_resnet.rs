//! A miniature residual network run end to end through the two-party
//! protocol: convolutions under real BFV, ReLU and global average
//! pooling as wire rounds on shares, the residual skip connection as a
//! *local* share addition (no frame), and the classifier head as a 1×1
//! convolution on the pooled 1×1 map.
//!
//! Architecture (CIFAR-scale):
//!
//! ```text
//! conv 2->4 (3x3) - ReLU - [ conv 4->4 - ReLU - conv 4->4  + skip ] - ReLU
//!   - global avgpool - FC 4->3
//! ```
//!
//! Run with: `cargo run --release --example mini_resnet`

use rand::rngs::StdRng;
use rand::SeedableRng;
use spot::core::executor::Executor;
use spot::core::inference::{Op, TinyCnn};
use spot::core::session::{ExecBackend, SchemeKind};
use spot::he::prelude::*;
use spot::tensor::{Kernel, Tensor};

/// The network as a layer program: the client holds each `Reveal`'s
/// output in the clear and encrypts it as the next convolution's input.
fn mini_resnet(seed: u64) -> TinyCnn {
    let conv = |c_out, c_in, k, seed| Op::Conv {
        kernel: Kernel::random(c_out, c_in, k, k, 3, seed),
        stride: 1,
    };
    TinyCnn::from_ops(vec![
        conv(4, 2, 3, seed), // 0: stem
        Op::Relu,
        Op::Reveal, // 2: the skip, held by the client
        conv(4, 4, 3, seed + 1),
        Op::Relu,
        Op::Reveal,
        conv(4, 4, 3, seed + 2),
        Op::Add { from: 2 }, // + skip, across two reveals
        Op::Relu,
        Op::AvgPool,
        Op::Reveal,
        conv(3, 4, 1, seed + 3), // FC head: 1x1 over the 4x1x1 pool
        Op::Reveal,
    ])
}

fn main() {
    let ctx = spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(314);
    let kg = KeyGenerator::new(&ctx, &mut rng);

    let net = mini_resnet(9);
    let image = Tensor::random(2, 8, 8, 4, 1);
    let expected = net.forward_plain(&image);
    println!("plaintext logits: {:?}", expected.data());

    let backend = ExecBackend::Phased(Executor::serial());
    for scheme in SchemeKind::ALL {
        let images = std::slice::from_ref(&image);
        let (mut logits, traffic, _) =
            net.forward_secure_with(&ctx, &kg, images, scheme, &backend, &mut rng);
        let logits = logits.remove(0);
        println!(
            "{:>12} logits: {:?}  ({} B up in {} frames, {} B down in {})",
            scheme.label(),
            logits.data(),
            traffic.sent.bytes,
            traffic.sent.messages,
            traffic.received.bytes,
            traffic.received.messages,
        );
        assert_eq!(
            logits,
            expected,
            "{}: secure inference must be bit-exact",
            scheme.label()
        );
    }
    println!(
        "\nbit-exact under every scheme across stem -> residual block (local\n\
         share add for the skip) -> avgpool -> FC head"
    );
}
