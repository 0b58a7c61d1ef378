//! End-to-end secure inference: planning full networks for the
//! simulator, and [`TinyCnn`], the small network the two-party protocol
//! ([`crate::twoparty`]) and the serving layer run.

use crate::patching::PatchMode;
use crate::session::{ExecBackend, SchemeKind, ServeOptions};
use crate::stream::StreamStats;
use crate::twoparty::{run_client_batch, run_server_with};
use crate::{channelwise, cheetah, select, spot};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spot_he::context::Context;
use spot_he::keys::KeyGenerator;
use spot_he::params::ParamLevel;
use spot_pipeline::plan::ConvPlan;
use spot_pipeline::sim::{simulate_layers, LayerTiming, SimConfig};
use spot_proto::transport::{MemTransport, Transport, TransportStats};
use spot_tensor::models::{ConvShape, Layer, Network};
use spot_tensor::tensor::{Kernel, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Builds the execution plan for one convolution layer under a scheme,
/// choosing each scheme's preferred parameter level.
pub fn plan_conv(shape: &ConvShape, scheme: SchemeKind, with_relu: bool) -> ConvPlan {
    match scheme {
        SchemeKind::Channelwise => {
            channelwise::plan(shape, channelwise::minimum_level(shape), with_relu)
        }
        SchemeKind::Cheetah => cheetah::plan(shape, cheetah::minimum_level(shape), with_relu),
        SchemeKind::Spot => {
            // Cost-aware level choice: smaller parameters are cheaper per
            // op, but tiny patches at a small level can inflate overlap
            // duplication and alignment rotations; pick the cheapest of
            // the levels whose packing the wire would accept.
            let costs = spot_pipeline::device::HeCostTable::reference();
            let best = ParamLevel::ALL
                .into_iter()
                .filter(|l| l.supports_rotation())
                .filter_map(|l| {
                    let c = select::select_patch(shape, l, PatchMode::Tweaked)?;
                    spot::try_plan(shape, l, c.patch, PatchMode::Tweaked, with_relu).ok()
                })
                .min_by(|a, b| {
                    a.estimated_seconds(&costs)
                        .partial_cmp(&b.estimated_seconds(&costs))
                        .unwrap()
                });
            match best {
                Some(plan) => plan,
                None => {
                    // Channel count exceeds every lane even at the
                    // minimum patch (huge-fan-in FC layers): fall back to
                    // channel-split packing at the smallest rotation
                    // level — patch pipelining is moot for dot products.
                    let level = ParamLevel::ALL
                        .into_iter()
                        .filter(|l| l.supports_rotation())
                        .find(|l| {
                            crate::layout::next_pow2(shape.width * shape.height) <= l.degree() / 2
                        })
                        .unwrap_or(ParamLevel::N16384);
                    let mut p = channelwise::plan(shape, level, with_relu);
                    p.scheme = "SPOT (channel-split fallback)";
                    p
                }
            }
        }
    }
}

/// The plan of a full network: one [`ConvPlan`] per linear layer (conv
/// and FC) with ReLU elements attached, plus pooling element counts.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    /// Network name.
    pub name: &'static str,
    /// Scheme used.
    pub scheme: SchemeKind,
    /// One plan per linear layer.
    pub conv_plans: Vec<ConvPlan>,
    /// Total max-pool input elements (OT comparisons at 3 per window).
    pub maxpool_elements: usize,
}

/// Plans a whole network under a scheme.
pub fn plan_network(net: &Network, scheme: SchemeKind) -> NetworkPlan {
    let mut conv_plans = Vec::new();
    let mut maxpool_elements = 0usize;
    let layers = net.layers();
    for (i, layer) in layers.iter().enumerate() {
        match layer {
            Layer::Conv(shape) => {
                let with_relu = matches!(layers.get(i + 1), Some(Layer::Relu { .. }));
                conv_plans.push(plan_conv(shape, scheme, with_relu));
            }
            Layer::Fc { inputs, outputs } => {
                // An FC layer is a 1×1 convolution over a 1×1 map with
                // `inputs` channels.
                let shape = ConvShape::new(1, 1, *inputs, *outputs, 1, 1);
                conv_plans.push(plan_conv(&shape, scheme, false));
            }
            Layer::MaxPool { elements } => maxpool_elements += elements,
            Layer::Relu { .. } | Layer::AvgPool { .. } => {}
        }
    }
    NetworkPlan {
        name: net.name(),
        scheme,
        conv_plans,
        maxpool_elements,
    }
}

impl NetworkPlan {
    /// Simulates the network end to end under a device configuration,
    /// adding the max-pool protocol cost.
    pub fn simulate(&self, cfg: &SimConfig) -> LayerTiming {
        let mut timing = simulate_layers(&self.conv_plans, cfg);
        if self.maxpool_elements > 0 {
            let model = spot_proto::cost::OtCostModel::max(21);
            // 3 comparisons per 2×2 window = 3/4 per input element
            let n = self.maxpool_elements * 3 / 4;
            let cpu = model.cpu_seconds(n);
            let both = cfg.client.scale(cpu).max(cfg.server.scale(cpu));
            let comm = cfg.link.transfer_time(model.comm_bytes(n) as usize);
            timing.relu_s += both + comm;
            timing.total_s += both + comm;
        }
        timing
    }

    /// Total upstream+downstream communication in bytes.
    pub fn total_comm_bytes(&self) -> u64 {
        self.conv_plans
            .iter()
            .map(|p| p.upstream_bytes() + p.downstream_bytes())
            .sum()
    }
}

/// One step of the layer program both parties of the two-party
/// protocol ([`crate::twoparty`]) walk.
#[derive(Debug, Clone)]
pub enum Op {
    /// A convolution under HE; the parties leave it holding additive
    /// shares of its output. A fully connected layer is a 1×1 one on a
    /// 1×1 input.
    Conv {
        /// The server's weights.
        kernel: Kernel,
        /// Stride, both ways.
        stride: usize,
    },
    /// ReLU on shares: one interactive round.
    Relu,
    /// 2×2 max-pooling on shares: one interactive round.
    MaxPool2,
    /// Global average pooling on shares: one interactive round.
    AvgPool,
    /// Adds the output of `ops[from]`, an earlier op: local on shares,
    /// no frame.
    Add {
        /// Program index of the op whose output is added.
        from: usize,
    },
    /// The server sends its share; the client holds the activation.
    Reveal,
}

impl Op {
    /// The op in the clear.
    ///
    /// # Panics
    ///
    /// Panics on an `Add`, which reads the output it names: only
    /// [`TinyCnn::forward_plain`] keeps those.
    pub fn apply(&self, x: Tensor) -> Tensor {
        use spot_tensor::conv::{conv2d, global_avgpool, maxpool2, relu};
        match self {
            Op::Conv { kernel, stride } => conv2d(&x, kernel, *stride),
            Op::Relu => relu(&x),
            Op::MaxPool2 => maxpool2(&x),
            Op::AvgPool => global_avgpool(&x),
            Op::Add { from } => panic!("an Add of ops[{from}] needs the program's kept outputs"),
            Op::Reveal => x,
        }
    }
}

/// A small CNN as a layer program. [`TinyCnn::new`] is conv → ReLU →
/// max-pool → reveal → conv → ReLU → reveal.
#[derive(Debug, Clone)]
pub struct TinyCnn {
    ops: Vec<Op>,
}

impl TinyCnn {
    /// Deterministic small network for tests/examples.
    pub fn new(seed: u64) -> Self {
        let conv = |c_out, c_in, seed| Op::Conv {
            kernel: Kernel::random(c_out, c_in, 3, 3, 3, seed),
            stride: 1,
        };
        Self::from_ops(vec![
            conv(4, 2, seed),
            Op::Relu,
            Op::MaxPool2,
            Op::Reveal,
            conv(4, 4, seed + 1),
            Op::Relu,
            Op::Reveal,
        ])
    }

    /// The network that runs `ops` in order. The client encrypts what
    /// it holds in the clear, so the program starts with a convolution
    /// and a `Reveal` stands before every later one, at the end, and
    /// nowhere else. Each `Add` names an earlier op.
    ///
    /// # Panics
    ///
    /// Panics on a program of any other form.
    pub fn from_ops(ops: Vec<Op>) -> Self {
        let is_conv = |op: Option<&Op>| matches!(op, None | Some(Op::Conv { .. }));
        let reveals_in_place = (ops.iter().enumerate())
            .all(|(i, op)| matches!(op, Op::Reveal) == is_conv(ops.get(i + 1)));
        assert!(
            !ops.is_empty() && is_conv(ops.first()) && reveals_in_place,
            "not a conv-first program with a Reveal before each later conv and at the end"
        );
        let looks_back = |(i, op): (usize, &Op)| !matches!(op, Op::Add { from } if *from >= i);
        let adds_look_back = ops.iter().enumerate().all(looks_back);
        assert!(
            adds_look_back,
            "an Add names an op that does not run before it"
        );
        Self { ops }
    }

    /// The program.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Whether an `Add` names `ops[i]`, so every pass keeps its output.
    pub(crate) fn is_kept(&self, i: usize) -> bool {
        (self.ops.iter()).any(|op| matches!(op, Op::Add { from } if *from == i))
    }

    /// The program cut behind each `Reveal`, into one convolution and
    /// the ops that run on its shares: `(program index of the first of
    /// those ops, kernel, stride, those ops)`.
    pub(crate) fn stages(&self) -> impl Iterator<Item = (usize, &Kernel, usize, &[Op])> {
        let mut at = 0;
        (self.ops.split_inclusive(|op| matches!(op, Op::Reveal))).map(move |stage| {
            let [Op::Conv { kernel, stride }, tail @ ..] = stage else {
                unreachable!("from_ops admits no other form")
            };
            at += stage.len();
            (at - tail.len(), kernel, *stride, tail)
        })
    }

    /// The convolution kernels, in program order.
    pub fn kernels(&self) -> impl Iterator<Item = &Kernel> {
        self.stages().map(|(_, kernel, ..)| kernel)
    }

    /// Plaintext reference forward pass.
    pub fn forward_plain(&self, input: &Tensor) -> Tensor {
        let mut kept = HashMap::new();
        let mut x = input.clone();
        for (i, op) in self.ops.iter().enumerate() {
            x = match op {
                Op::Add { from } => x.add(&kept[from]),
                _ => op.apply(x),
            };
            if self.is_kept(i) {
                kept.insert(i, x.clone());
            }
        }
        x
    }

    /// Secure forward pass over a batch of images, which ride shared
    /// ciphertexts: both halves of the two-party protocol
    /// ([`crate::twoparty`]) in this process over a [`MemTransport`]
    /// pair, with 4×4 tweaked patches under SPOT and the server on
    /// `backend`. The server runs on a scoped thread, its rng seeded by
    /// the first draw from `rng`; the client runs on the calling thread
    /// and draws the rest. Outputs and traffic are bit-identical across
    /// backends for the same rng seed.
    ///
    /// Returns the outputs as revealed to the client, the client end's
    /// traffic over the whole connection (keys, ciphertexts and
    /// non-linear rounds) and the server's stall accounting over every
    /// convolution.
    ///
    /// # Panics
    ///
    /// Panics if either party's run fails.
    pub fn forward_secure_with<R: Rng + Send>(
        &self,
        ctx: &Arc<Context>,
        keygen: &KeyGenerator,
        inputs: &[Tensor],
        scheme: SchemeKind,
        backend: &ExecBackend,
        rng: &mut R,
    ) -> (Vec<Tensor>, TransportStats, StreamStats) {
        let (client_end, server_end) = MemTransport::pair();
        let mut server_rng = StdRng::seed_from_u64(rng.gen());
        let (outputs, report) = std::thread::scope(|s| {
            let server = s.spawn(|| {
                let opts = ServeOptions::default();
                let report =
                    run_server_with(ctx, &server_end, self, backend, opts, &mut server_rng);
                // Each party hangs up however its run ended, so a
                // failure on one side ends the other's wait.
                server_end.close_tx();
                report
            });
            let outputs = run_client_batch(
                ctx,
                keygen,
                &client_end,
                inputs,
                self,
                scheme,
                (4, 4),
                PatchMode::Tweaked,
                rng,
            );
            client_end.close_tx();
            (outputs, server.join().expect("server thread panicked"))
        });
        let report = report.expect("in-process two-party server");
        let outputs = outputs.expect("in-process two-party client");
        (outputs, client_end.stats(), report.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::stream::StreamConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spot_he::params::EncryptionParams;
    use spot_tensor::models::{resnet18, vgg16};

    /// Every network of `spot_tensor::models` plans under every scheme,
    /// one plan per linear layer. A SPOT or channel-wise plan is the
    /// layer's `Packing`, so each layer also passes what a hello for it
    /// would be checked against.
    #[test]
    fn network_plans_have_all_linear_layers() {
        use spot_tensor::models::{resnet101, resnet34, resnet50, vgg11};
        // 17 convs + 1 FC
        assert_eq!(
            plan_network(&resnet18(), SchemeKind::Spot).conv_plans.len(),
            18
        );
        for net in [
            resnet18(),
            resnet34(),
            resnet50(),
            resnet101(),
            vgg11(),
            vgg16(),
        ] {
            let linear = (net.layers().iter())
                .filter(|layer| matches!(layer, Layer::Conv(_) | Layer::Fc { .. }))
                .count();
            for scheme in SchemeKind::ALL {
                let plan = plan_network(&net, scheme);
                let name = (net.name(), scheme.label());
                assert_eq!(plan.conv_plans.len(), linear, "{name:?}");
                assert!(plan.maxpool_elements > 0, "{name:?}");
            }
        }
    }

    #[test]
    fn spot_uses_smaller_levels_than_channelwise() {
        let net = vgg16();
        let cw = plan_network(&net, SchemeKind::Channelwise);
        let sp = plan_network(&net, SchemeKind::Spot);
        let avg_level = |p: &NetworkPlan| {
            p.conv_plans.iter().map(|c| c.level.degree()).sum::<usize>() as f64
                / p.conv_plans.len() as f64
        };
        assert!(avg_level(&sp) < avg_level(&cw));
    }

    #[test]
    fn tiny_cnn_secure_matches_plain_all_schemes() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let cnn = TinyCnn::new(7);
        let input = Tensor::random(2, 8, 8, 5, 9);
        let want = cnn.forward_plain(&input);
        let backend = ExecBackend::Phased(Executor::serial());
        for scheme in SchemeKind::ALL {
            let inputs = std::slice::from_ref(&input);
            let (got, traffic, _) =
                cnn.forward_secure_with(&ctx, &kg, inputs, scheme, &backend, &mut rng);
            assert_eq!(
                got,
                std::slice::from_ref(&want),
                "scheme {}",
                scheme.label()
            );
            assert!(traffic.sent.bytes > 0 && traffic.received.bytes > 0);
        }
    }

    #[test]
    fn tiny_cnn_streaming_backend_matches_phased() {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let cnn = TinyCnn::new(7);
        let inputs = [
            Tensor::random(2, 8, 8, 5, 9),
            Tensor::random(2, 8, 8, 5, 10),
        ];
        let want: Vec<Tensor> = inputs.iter().map(|x| cnn.forward_plain(x)).collect();
        for scheme in SchemeKind::ALL {
            let mut rng_a = StdRng::seed_from_u64(77);
            let (phased, traffic_a, _) = cnn.forward_secure_with(
                &ctx,
                &kg,
                &inputs,
                scheme,
                &ExecBackend::Phased(Executor::serial()),
                &mut rng_a,
            );
            let mut rng_b = StdRng::seed_from_u64(77);
            let cfg = StreamConfig::new(Executor::new(2), 2);
            let (streamed, traffic_b, stats) = cnn.forward_secure_with(
                &ctx,
                &kg,
                &inputs,
                scheme,
                &ExecBackend::Streaming(cfg),
                &mut rng_b,
            );
            assert_eq!(phased, streamed, "scheme {}", scheme.label());
            assert_eq!(streamed, want, "scheme {}", scheme.label());
            assert_eq!(
                (traffic_a.sent, traffic_a.received),
                (traffic_b.sent, traffic_b.received)
            );
            assert!(stats.input_items > 0, "scheme {}", scheme.label());
            assert!(stats.wall_s > 0.0);
        }
    }

    #[test]
    fn simulate_network_produces_sane_timing() {
        use spot_pipeline::device::DeviceProfile;
        let net = resnet18();
        let cfg = SimConfig::with_client(DeviceProfile::iot_k27());
        let sp = plan_network(&net, SchemeKind::Spot).simulate(&cfg);
        let cw = plan_network(&net, SchemeKind::Channelwise).simulate(&cfg);
        assert!(sp.total_s > 1.0, "SPOT total {}", sp.total_s);
        assert!(
            sp.total_s < cw.total_s,
            "SPOT {} should beat CrypTFlow2 {}",
            sp.total_s,
            cw.total_s
        );
    }
}
