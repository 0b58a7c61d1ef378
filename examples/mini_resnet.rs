//! A miniature residual network run end to end under the secure
//! protocol: SPOT convolutions under real BFV, ReLU / global average
//! pooling via the simulated OT protocols, the residual skip connection
//! as a *local* share addition (free!), and the classifier head as a
//! 1×1 SPOT convolution.
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
use spot::core::patching::PatchMode;
use spot::core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
use spot::he::prelude::*;
use spot::proto::channel::Channel;
use spot::proto::relu::{
    global_avgpool_on_shares, reconstruct_signed, relu_on_shares, share_tensor,
};
use spot::proto::share::ShareVec;
use spot::tensor::conv::{conv2d, global_avgpool, relu};
use spot::tensor::{Kernel, Tensor};
use std::sync::Arc;

struct MiniResNet {
    stem: Kernel,
    block1: Kernel,
    block2: Kernel,
    head: Kernel, // FC as 1x1 conv over the pooled 4x1x1 tensor
}

impl MiniResNet {
    fn new(seed: u64) -> Self {
        Self {
            stem: Kernel::random(4, 2, 3, 3, 3, seed),
            block1: Kernel::random(4, 4, 3, 3, 3, seed + 1),
            block2: Kernel::random(4, 4, 3, 3, 3, seed + 2),
            head: Kernel::random(3, 4, 1, 1, 3, seed + 3),
        }
    }

    fn forward_plain(&self, x: &Tensor) -> Vec<i64> {
        let x = relu(&conv2d(x, &self.stem, 1));
        let y = conv2d(&relu(&conv2d(&x, &self.block1, 1)), &self.block2, 1);
        let x = relu(&y.add(&x)); // residual
        let pooled = global_avgpool(&x);
        conv2d(&pooled, &self.head, 1).data().to_vec()
    }
}

/// Runs one SPOT secure conv and returns the result as shares.
fn secure_conv<R: rand::Rng>(
    ctx: &Arc<spot::he::context::Context>,
    kg: &KeyGenerator,
    input: &Tensor,
    kernel: &Kernel,
    patch: (usize, usize),
    rng: &mut R,
) -> (ShareVec, ShareVec) {
    let t = ctx.params().plain_modulus();
    let spec = LayerSpec::for_layer(
        SchemeKind::Spot,
        input,
        kernel,
        1,
        patch,
        PatchMode::Tweaked,
    );
    let backend = ExecBackend::Phased(Executor::serial());
    let inputs = std::slice::from_ref(input);
    let r = run_in_process(ctx, kg, spec, inputs, kernel, &backend, rng)
        .expect("in-process session")
        .into_result();
    let wrap = |v: &Tensor, party| {
        ShareVec::new(
            party,
            t,
            v.data()
                .iter()
                .map(|&x| x.rem_euclid(t as i64) as u64)
                .collect(),
        )
    };
    (
        wrap(&r.client_share, spot::proto::share::Party::Client),
        wrap(&r.server_share, spot::proto::share::Party::Server),
    )
}

fn to_tensor(c: &ShareVec, s: &ShareVec, channels: usize, h: usize, w: usize) -> Tensor {
    Tensor::from_vec(channels, h, w, reconstruct_signed(c, s))
}

fn main() {
    let ctx = spot::he::context::Context::new(EncryptionParams::new(ParamLevel::N4096));
    let mut rng = StdRng::seed_from_u64(314);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let t = ctx.params().plain_modulus();
    let mut channel = Channel::new();

    let net = MiniResNet::new(9);
    let image = Tensor::random(2, 8, 8, 4, 1);
    let expected = net.forward_plain(&image);

    // --- stem conv + ReLU ---
    let (c, s) = secure_conv(&ctx, &kg, &image, &net.stem, (4, 4), &mut rng);
    let (c, s) = relu_on_shares(&c, &s, &mut channel, &mut rng);
    let x_skip = to_tensor(&c, &s, 4, 8, 8); // reconstructed-for-simulation

    // --- residual block: conv, ReLU, conv, + skip ---
    let (c1, s1) = secure_conv(&ctx, &kg, &x_skip, &net.block1, (4, 4), &mut rng);
    let (c1, s1) = relu_on_shares(&c1, &s1, &mut channel, &mut rng);
    let mid = to_tensor(&c1, &s1, 4, 8, 8);
    let (c2, s2) = secure_conv(&ctx, &kg, &mid, &net.block2, (4, 4), &mut rng);
    // residual addition is LOCAL on shares — zero communication
    let (skip_c, skip_s) = share_tensor(x_skip.data(), t, &mut rng);
    let (c2, s2) = (c2.add(&skip_c), s2.add(&skip_s));
    let (c2, s2) = relu_on_shares(&c2, &s2, &mut channel, &mut rng);

    // --- global average pool (OT-assisted division) ---
    let (pc, ps) = global_avgpool_on_shares(&c2, &s2, 4, 64, &mut channel, &mut rng);
    let pooled = Tensor::from_vec(4, 1, 1, reconstruct_signed(&pc, &ps));

    // --- classifier head: FC as a 1x1 SPOT conv ---
    let (hc, hs) = secure_conv(&ctx, &kg, &pooled, &net.head, (1, 1), &mut rng);
    let logits = reconstruct_signed(&hc, &hs);

    println!("secure logits:    {logits:?}");
    println!("plaintext logits: {expected:?}");
    assert_eq!(logits, expected, "secure inference must be bit-exact");
    println!(
        "\nbit-exact across stem -> residual block (local share add for the\n\
         skip!) -> avgpool -> FC head; non-linear protocol traffic: {} bytes",
        channel.total_bytes()
    );
}
