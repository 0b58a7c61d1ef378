//! The four workloads: cold start, one closed-loop request, and the
//! correctness check against the plaintext reference.
//!
//! Load shape, all workloads: closed loop, one client, one connection
//! in flight, a fresh session per request (own `Setup`, public key and
//! Galois keys every time, as a tiny client without a key cache pays
//! them), client on the harness thread and the server on one other
//! thread, `MemTransport` between them so no kernel TCP variance.

use crate::clock::{now_ns, process_cpu_ns, thread_cpu_ns};
use crate::spans::{Party, Span};
use crate::tap::Tap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spot_core::channelwise::SecureConvResult;
use spot_core::error::SpotError;
use spot_core::executor::Executor;
use spot_core::inference::TinyCnn;
use spot_core::patching::PatchMode;
use spot_core::serving::{ModelContext, ServingConfig, SpotServer};
use spot_core::session::{
    serve_conv_with, ClientConv, ExecBackend, LayerSpec, SchemeKind, ServeOptions,
    SharedKernelCaches, UploadPacing,
};
use spot_core::stream::{StreamConfig, StreamStats};
use spot_core::twoparty::run_client_batch;
use spot_he::context::Context;
use spot_he::evaluator::OpCounts;
use spot_he::keys::KeyGenerator;
use spot_he::params::{EncryptionParams, ParamLevel};
use spot_proto::transport::{MemTransport, Transport, TransportStats};
use spot_tensor::conv::conv2d;
use spot_tensor::models::ConvShape;
use spot_tensor::tensor::{Kernel, Tensor};
use spot_trace::{CounterSnapshot, SessionCounters};
use std::sync::Arc;

/// The model weights are fixed; only inputs and client randomness
/// follow `--seed`.
const MODEL_SEED: u64 = 7;
const SERVER_MASK_SEED: u64 = 1312;
/// SPOT patch configuration (`spot-client`'s shipped default).
const PATCH: (usize, usize) = (4, 4);
/// Streaming queue depth and bounded-uplink capacity: the tiny
/// client's in-flight ciphertext budget (`spot-server`'s default).
const CHANNEL_CAPACITY: usize = 2;
/// The `layer_*` convolution: 16x16, C_i = 32 -> C_o = 32, k = 3.
const LAYER_SHAPE: ConvShape = ConvShape {
    width: 16,
    height: 16,
    c_in: 32,
    c_out: 32,
    k_h: 3,
    k_w: 3,
    stride: 1,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TinycnnSpot,
    TinycnnCheetah,
    LayerSpot,
    LayerChannelwise,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TinycnnSpot,
        Workload::TinycnnCheetah,
        Workload::LayerSpot,
        Workload::LayerChannelwise,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TinycnnSpot => "tinycnn_spot",
            Workload::TinycnnCheetah => "tinycnn_cheetah",
            Workload::LayerSpot => "layer_spot",
            Workload::LayerChannelwise => "layer_channelwise",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scheme(self) -> SchemeKind {
        match self {
            Workload::TinycnnSpot | Workload::LayerSpot => SchemeKind::Spot,
            Workload::TinycnnCheetah => SchemeKind::Cheetah,
            Workload::LayerChannelwise => SchemeKind::Channelwise,
        }
    }

    pub fn is_layer(self) -> bool {
        matches!(self, Workload::LayerSpot | Workload::LayerChannelwise)
    }

    /// The single convolution the `layer_*` workloads run.
    pub fn layer_spec(self) -> LayerSpec {
        LayerSpec {
            scheme: self.scheme(),
            shape: LAYER_SHAPE,
            patch: PATCH,
            mode: PatchMode::Tweaked,
        }
    }
}

enum Model {
    /// Full two-party TinyCnn against the multi-tenant server with
    /// `spot-server`'s shipped policy: streaming, one thread per
    /// session, queue depth 2.
    Tiny { server: SpotServer },
    /// One convolution through the public session API, kernel caches
    /// kept across requests as `ModelContext` keeps them.
    Layer {
        kernel: Kernel,
        caches: SharedKernelCaches,
        mask_rng: StdRng,
    },
}

/// Everything that outlives a request: HE context, the client's key
/// pair, the served model with its kernel caches.
pub struct Deployment {
    workload: Workload,
    seed: u64,
    ctx: Arc<Context>,
    keygen: KeyGenerator,
    client_rng: StdRng,
    next_request: u64,
    model: Model,
}

/// One finished request.
#[derive(Debug, Default)]
pub struct Outcome {
    pub request: u64,
    /// Output equals the plaintext reference and both parties ended
    /// without error.
    pub ok: bool,
    pub error: Option<String>,
    /// Connect to output in the client's hands (see README for where
    /// verification sits relative to the clock on `layer_*`).
    pub latency_ns: u64,
    /// CPU time of the client's own thread plus its uploader threads.
    pub client_cpu_ns: u64,
    /// Process CPU time over the request minus the client's.
    pub server_cpu_ns: u64,
    pub client_net: TransportStats,
    pub server_net: TransportStats,
    /// Server HE ops, plus one encryption per uploaded and one
    /// decryption per returned ciphertext on the client.
    pub ops: OpCounts,
    pub input_cts: usize,
    pub output_cts: usize,
    pub stream: StreamStats,
    /// The server session's counter slice (kernel-cache hits/builds).
    pub counters: CounterSnapshot,
    pub server_wall_ns: u64,
    /// Public-call and transport spans (traced pass only), not nested.
    pub spans: Vec<Span>,
}

/// What the server's public call returned.
struct Served {
    ops: OpCounts,
    stream: StreamStats,
    input_cts: usize,
    output_cts: usize,
    /// The server's additive share, where the client does not get the
    /// output revealed and the harness has to reconstruct it.
    share: Option<Tensor>,
}

/// What the client ended a request with.
enum ClientEnd {
    /// The protocol revealed the output to the client; it has already
    /// been compared with the reference, inside the latency window.
    Revealed { matches: bool },
    /// The client holds an additive share of the output.
    Share(Tensor),
}

impl Deployment {
    /// Cold start: HE context, client key pair, model, caches, server.
    /// The first [`Deployment::request`] after this pays the kernel-cache
    /// builds.
    pub fn cold_start(workload: Workload, seed: u64) -> Deployment {
        let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
        let mut client_rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(&ctx, &mut client_rng);
        let model = if workload.is_layer() {
            let s = LAYER_SHAPE;
            Model::Layer {
                kernel: Kernel::random(s.c_out, s.c_in, s.k_h, s.k_w, 3, MODEL_SEED),
                caches: SharedKernelCaches::new(),
                mask_rng: StdRng::seed_from_u64(SERVER_MASK_SEED),
            }
        } else {
            let config = ServingConfig {
                threads_per_session: 1,
                pool_workers: 0,
                streaming: true,
                channel_capacity: CHANNEL_CAPACITY,
                base_seed: SERVER_MASK_SEED,
                ..ServingConfig::default()
            };
            let model = ModelContext::new("tinycnn-7", Arc::clone(&ctx), TinyCnn::new(MODEL_SEED));
            Model::Tiny {
                server: SpotServer::new(model, config),
            }
        };
        Deployment {
            workload,
            seed,
            ctx,
            keygen,
            client_rng,
            next_request: 0,
            model,
        }
    }

    pub fn context(&self) -> &Arc<Context> {
        &self.ctx
    }

    /// Kernel plaintext combinations currently cached for the model.
    pub fn kernel_cache_entries(&self) -> usize {
        match &self.model {
            Model::Tiny { server } => server.model().caches().total_entries(),
            Model::Layer { caches, .. } => caches.total_entries(),
        }
    }

    /// Admission rejects the server has issued so far.
    pub fn rejects(&self) -> usize {
        match &self.model {
            Model::Tiny { server } => server.stats().rejected,
            Model::Layer { .. } => 0,
        }
    }

    /// The input of request number `request` under this run's seed.
    fn input(&self, request: u64) -> Tensor {
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(request.wrapping_mul(0x4D));
        if self.workload.is_layer() {
            let s = LAYER_SHAPE;
            Tensor::random(s.c_in, s.height, s.width, 4, seed)
        } else {
            Tensor::random(2, 8, 8, 5, seed)
        }
    }

    /// The plaintext reference every output is checked against (and
    /// whose cost is `tensor.forward_plain_s`).
    pub fn forward_plain(&self, input: &Tensor) -> Tensor {
        match &self.model {
            Model::Tiny { server } => server.model().cnn().forward_plain(input),
            Model::Layer { kernel, .. } => conv2d(input, kernel, LAYER_SHAPE.stride),
        }
    }

    /// Input of the first request, for timing the reference alone.
    pub fn first_input(&self) -> Tensor {
        self.input(0)
    }

    /// Runs one request to completion. `detail` turns on the traced
    /// pass: every transport call and public call becomes a span.
    pub fn request(&mut self, detail: bool) -> Outcome {
        let request = self.next_request;
        self.next_request += 1;
        let input = self.input(request);
        let want = self.forward_plain(&input);
        let (workload, ctx, keygen) = (self.workload, &self.ctx, &self.keygen);
        let client_rng = &mut self.client_rng;
        let modulus = ctx.params().plain_modulus();
        let span = move |name, start_ns, end_ns| {
            Span::call(name, Party::Client, request, start_ns, end_ns)
        };
        match &mut self.model {
            Model::Tiny { server } => {
                let server = &*server;
                let exchange = Exchange {
                    request,
                    detail,
                    uplink_capacity: None,
                    server_call: "serve_connection",
                };
                exchange.run(
                    |tap| {
                        let report = server.serve_connection(tap);
                        let served = report.result.map(|r| Served {
                            ops: r.counts,
                            stream: r.stream,
                            input_cts: r.input_cts,
                            output_cts: r.output_cts,
                            share: None,
                        });
                        (served, report.counters)
                    },
                    |tap, spans| {
                        let start_ns = now_ns();
                        let outputs = run_client_batch(
                            ctx,
                            keygen,
                            tap,
                            std::slice::from_ref(&input),
                            server.model().cnn(),
                            workload.scheme(),
                            PATCH,
                            PatchMode::Tweaked,
                            client_rng,
                        )?;
                        let returned_ns = now_ns();
                        let matches = outputs[0] == want;
                        if detail {
                            spans.push(span("run_client_batch", start_ns, returned_ns));
                            spans.push(span("verify", returned_ns, now_ns()));
                        }
                        Ok(ClientEnd::Revealed { matches })
                    },
                    &want,
                    modulus,
                )
            }
            Model::Layer {
                kernel,
                caches,
                mask_rng,
            } => {
                let (kernel, caches) = (&*kernel, &*caches);
                let backend =
                    ExecBackend::Streaming(StreamConfig::new(Executor::new(1), CHANNEL_CAPACITY));
                let exchange = Exchange {
                    request,
                    detail,
                    uplink_capacity: Some(CHANNEL_CAPACITY),
                    server_call: "serve_conv_with",
                };
                exchange.run(
                    |tap| {
                        // What `SpotServer::serve_connection` installs per
                        // session; the only source of kernel-cache
                        // hit/build counts.
                        let sink = SessionCounters::new(request);
                        let previous = spot_trace::set_session_counters(Some(Arc::clone(&sink)));
                        let opts = ServeOptions {
                            shared: Some(caches),
                            max_batch: None,
                        };
                        let served = serve_conv_with(ctx, tap, kernel, &backend, opts, mask_rng);
                        spot_trace::set_session_counters(previous);
                        let served = served.map(|v| Served {
                            ops: v.counts,
                            stream: v.stream.unwrap_or_default(),
                            input_cts: v.input_cts,
                            output_cts: v.output_cts,
                            share: Some(v.server_share),
                        });
                        (served, sink.snapshot())
                    },
                    |tap, spans| {
                        let t0 = now_ns();
                        let conv = ClientConv::new(ctx, keygen, workload.layer_spec())?;
                        let t1 = now_ns();
                        conv.send_all(tap, &input, UploadPacing::AwaitAck, client_rng)?;
                        let t2 = now_ns();
                        let share = conv.absorb_all(tap)?;
                        if detail {
                            spans.push(span("ClientConv::new", t0, t1));
                            spans.push(span("send_all", t1, t2));
                            spans.push(span("absorb_all", t2, now_ns()));
                        }
                        // The clock stops when the client holds its
                        // share: reconstruction needs the server's,
                        // which a real client never sees.
                        Ok(ClientEnd::Share(share.share))
                    },
                    &want,
                    modulus,
                )
            }
        }
    }
}

/// The measurement protocol of one request, the same for every
/// workload: which clocks are read when, on which thread each party
/// runs, and how its outcome is judged.
struct Exchange {
    request: u64,
    detail: bool,
    /// Frames the client may have in flight (`None` = unbounded).
    uplink_capacity: Option<usize>,
    /// Name of the server's public call, for its span.
    server_call: &'static str,
}

impl Exchange {
    /// `serve` runs on a fresh server thread and returns what the
    /// server's public call returned plus the session's counters;
    /// `client` runs on the calling thread, which is charged as the
    /// client, and may add spans for the public calls it makes.
    fn run(
        self,
        serve: impl FnOnce(&Tap<MemTransport>) -> (Result<Served, SpotError>, CounterSnapshot) + Send,
        client: impl FnOnce(&Tap<MemTransport>, &mut Vec<Span>) -> Result<ClientEnd, SpotError>,
        want: &Tensor,
        modulus: u64,
    ) -> Outcome {
        let Exchange {
            request, detail, ..
        } = self;
        let mut out = Outcome {
            request,
            ..Outcome::default()
        };
        let process_cpu0 = process_cpu_ns();
        let thread_cpu0 = thread_cpu_ns();
        let start_ns = now_ns();
        let (client_end, server_end) = MemTransport::pair_with_capacity(self.uplink_capacity, None);
        let client_tap = Tap::new(client_end, detail, true);
        let (ended, end_ns, thread_cpu1, server) = std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let tap = Tap::new(server_end, detail, false);
                let start_ns = now_ns();
                let (served, counters) = serve(&tap);
                let end_ns = now_ns();
                if served.is_err() {
                    // Unblock a client stuck on a full or silent pipe.
                    tap.close_tx();
                }
                (
                    served,
                    counters,
                    tap.stats(),
                    start_ns,
                    end_ns,
                    tap.report().calls,
                )
            });
            let connected_ns = now_ns();
            let ended = client(&client_tap, &mut out.spans);
            let end_ns = now_ns();
            let thread_cpu1 = thread_cpu_ns();
            if ended.is_err() {
                // Unblock a server still waiting on this connection.
                client_tap.close_tx();
            }
            if detail {
                let connect = Span::call("connect", Party::Client, request, start_ns, connected_ns);
                out.spans.push(connect);
            }
            let server = server.join().expect("server thread panicked");
            (ended, end_ns, thread_cpu1, server)
        });
        // Read after the join, so every cycle the server spent on this
        // request is inside the window; the server is charged whatever
        // the process burnt that the client's threads did not.
        let process_cpu = process_cpu_ns() - process_cpu0;
        let (served, counters, server_net, server_start_ns, server_end_ns, server_calls) = server;
        let tap = client_tap.report();
        out.latency_ns = end_ns - start_ns;
        out.client_cpu_ns = (thread_cpu1 - thread_cpu0) + tap.side_cpu_ns;
        out.server_cpu_ns = process_cpu.saturating_sub(out.client_cpu_ns);
        out.client_net = client_tap.stats();
        out.server_net = server_net;
        out.counters = counters;
        out.server_wall_ns = server_end_ns - server_start_ns;
        match (ended, served) {
            (Ok(ended), Ok(served)) => {
                out.ok = match (ended, served.share) {
                    (ClientEnd::Revealed { matches }, _) => matches,
                    (ClientEnd::Share(client_share), Some(server_share)) => {
                        let shares = SecureConvResult {
                            client_share,
                            server_share,
                            counts: OpCounts::default(),
                            input_cts: 0,
                            output_cts: 0,
                            modulus,
                        };
                        shares.reconstruct() == *want
                    }
                    (ClientEnd::Share(_), None) => false,
                };
                if !out.ok {
                    out.error = Some("output differs from the plaintext reference".into());
                }
                out.ops = served.ops;
                out.ops.encrypt = served.input_cts as u64;
                out.ops.decrypt = served.output_cts as u64;
                out.stream = served.stream;
                out.input_cts = served.input_cts;
                out.output_cts = served.output_cts;
            }
            (Err(e), _) => out.error = Some(format!("client: {e}")),
            (_, Err(e)) => out.error = Some(format!("server: {e}")),
        }
        if detail {
            out.spans.push(Span::call(
                "request",
                Party::Client,
                request,
                start_ns,
                end_ns,
            ));
            out.spans.push(Span::call(
                self.server_call,
                Party::Server,
                request,
                server_start_ns,
                server_end_ns,
            ));
            let client_calls = tap
                .calls
                .iter()
                .map(|c| Span::transport(c, Party::Client, request));
            let server_calls = server_calls
                .iter()
                .map(|c| Span::transport(c, Party::Server, request));
            out.spans.extend(client_calls.chain(server_calls));
        }
        out
    }
}
