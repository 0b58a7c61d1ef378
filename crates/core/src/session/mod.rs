//! Client/server session state machines over the typed wire protocol.
//!
//! One secure convolution is two halves that talk *only* through a
//! [`Transport`](spot_proto::Transport):
//!
//! * [`ClientConv`] — the tiny client: packs and encrypts the input,
//!   streams ciphertexts up ([`ClientConv::send_batch`]), then decrypts
//!   the masked results into its additive shares
//!   ([`ClientConv::absorb_batch`]).
//! * [`serve_conv_with`] — the server: reads the
//!   [`ConvSetup`](spot_proto::ConvSetup) hello, acknowledges it,
//!   convolves under HE as inputs and rotation keys arrive, and returns
//!   masked results while keeping its own additive shares.
//!
//! Each half is a file of its own, and so is what they agree on:
//!
//! * `spec.rs` — what both parties derive alike from the hello: the
//!   [`LayerSpec`] and its wire codec, the scheme's plan (`ConvScheme`,
//!   `PlanFacts`), the row codec and the frame [`Schedule`];
//! * `client.rs` — the client's half ([`ClientConv`], [`UploadPacing`]);
//! * `server.rs` — the server's half ([`serve_conv_with`],
//!   [`serve_conv_on`], [`ConnectionKeys`], [`SharedKernelCaches`]) and
//!   the [`ExecBackend`] its pinned entry point takes;
//! * `harness.rs` — both halves in one process ([`run_in_process`]).
//!
//! The client file uses nothing of the server's, of the conv driver
//! ([`crate::stream`]), of the worker pool or of the serving layer; the
//! server file uses nothing of the client's or the harness's. Every
//! public name is re-exported here.
//!
//! Rotation keys belong to the *connection*, not the layer. The server
//! keeps what it has been sent in a [`ConnectionKeys`] for as long as
//! the transport lives; the client records what it has uploaded next to
//! the secret key that made them ([`ClientConv::next_layer`] carries
//! the record forward). And they are part of the upload *stream*, not a
//! phase in front of it.
//!
//! The order of a layer's frames is one value, its [`Schedule`]: what
//! each direction carries, frame by frame, made from the plan, the keys
//! the connection holds and the batch's rounds. The client sends by
//! walking it, the server's ingest checks every uplink frame against
//! its next entry and the client's absorber every downlink frame, and
//! any other frame is one typed error (`Frame::open`). Its keys follow
//! the **key-stream rule**: the planned elements the connection does not
//! hold yet, in the order the conv engine first uses them
//! (`PlanFacts::galois_elements`), each in a `GaloisKeys` frame of its
//! own, made immediately before it is sent, right behind the input that
//! makes the first job using it runnable (`Schedule::new`: the
//! first input ciphertext of the first piece class that rotates by it
//! under a per-input scheme, the round's last input under an all-inputs
//! one). So a job starts on its ciphertext, each of its rotations waits
//! only for its own key ([`ConnectionKeys`]'s blocking `wait`), the
//! client generates key `k + 1` while the server rotates by key `k`,
//! and nobody waits for a key before a job needs it. A one-layer call
//! ([`ClientConv::new`], [`serve_conv_with`]) is a connection of one
//! layer.
//!
//! There is one upload body, one absorb body and one server driver. The
//! batch width is a parameter of each (one image is the identity
//! layout, so the single-image methods are adapters), and everything
//! that knows a scheme's packing format lives in that scheme's file
//! behind `ConvScheme`. The driver reads as the paper does: per round,
//! [`run_stream`](crate::stream::run_stream) ingests the upload and runs
//! each job as soon as the inputs it reads have arrived — which inputs
//! those are is the scheme's
//! [`OutputDependency`](spot_pipeline::plan::OutputDependency), passed
//! as data — and the results are masked and sent in result order.
//!
//! The same session code runs over
//! [`MemTransport`](spot_proto::MemTransport) (in-process, via
//! [`run_in_process`]) and `TcpTransport` (two real OS processes) —
//! messages, byte counts, and shares are identical by construction.
//!
//! # Determinism contract
//!
//! Each party draws randomness from its own seeded rng in a fixed
//! order: the client follows its upload — per input ciphertext its
//! seed and then its error polynomial (it encrypts under its secret key
//! and sends `c0` with the seed `c1` expands from), then, for each
//! rotation key scheduled behind it that the connection still lacks,
//! the key's seed and its error polynomials (in schedule order); the
//! server draws only result masks, in result order (the driver's
//! consumer runs on one thread in job order). Parallel phases are pure,
//! and when a key arrives changes only how long a rotation waits.
//! Shares are therefore bit-identical across backends, thread counts,
//! channel capacities, and transports.

pub(crate) mod client;
pub(crate) mod harness;
pub(crate) mod server;
pub(crate) mod spec;

pub use client::{ClientBatchShare, ClientConv, ClientShare, UploadPacing};
pub use harness::{run_in_process, InProcessOutcome};
pub use server::{
    serve_conv_on, serve_conv_with, ConnectionKeys, ExecBackend, ModelLayer, ServeOptions,
    ServerConvSummary, SharedKernelCaches, MAX_CACHED_SPECS,
};
pub(crate) use spec::{first_uses, lift, ConvScheme, PlanFacts, ServerKit, MAX_BATCH};
pub use spec::{Frame, LayerSpec, Schedule, SchemeKind};

#[cfg(test)]
pub(crate) use harness::run_phased;
