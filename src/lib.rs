//! # SPOT — Structure Patching and Overlap Tweaking
//!
//! A from-scratch Rust reproduction of *SPOT: Structure Patching and
//! Overlap Tweaking for Effective Pipelining in Privacy-Preserving MLaaS
//! with Tiny Clients* (ICDCS 2024): privacy-preserving CNN inference for
//! memory-constrained clients, built on a self-contained BFV
//! homomorphic-encryption implementation.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`he`] — SIMD-batched BFV (replaces Microsoft SEAL)
//! * [`tensor`] — plaintext CNN substrate and model specs
//! * [`proto`] — the two-party wire: messages, transports, link and OT
//!   cost models
//! * [`pipeline`] — tiny-client device profiles and pipeline simulator
//! * [`core`] — SPOT itself plus the CrypTFlow2/Cheetah baselines
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use spot::he::prelude::*;
//! use spot::core::executor::Executor;
//! use spot::core::patching::PatchMode;
//! use spot::core::session::{run_in_process, ExecBackend, LayerSpec, SchemeKind};
//! use spot::tensor::{conv2d, Kernel, Tensor};
//!
//! // Secure 3x3 convolution of a 4-channel 8x8 input via SPOT patches.
//! let ctx = Context::new(EncryptionParams::new(ParamLevel::N4096));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let keygen = KeyGenerator::new(&ctx, &mut rng);
//! let input = Tensor::random(4, 8, 8, 8, 1);
//! let kernel = Kernel::random(4, 4, 3, 3, 4, 2);
//! let spec = LayerSpec::for_layer(
//!     SchemeKind::Spot, &input, &kernel, 1, (4, 4), PatchMode::Tweaked,
//! );
//! // In-process harness mode: the client finishes its upload, then the
//! // server's conv driver runs each job on one worker.
//! let backend = ExecBackend::Phased(Executor::serial());
//! let inputs = std::slice::from_ref(&input);
//! let result = run_in_process(&ctx, &keygen, spec, inputs, &kernel, &backend, &mut rng)
//!     .expect("in-process session")
//!     .into_result();
//! assert_eq!(result.reconstruct(), conv2d(&input, &kernel, 1));
//! ```

#![warn(missing_docs)]

pub use spot_core as core;
pub use spot_he as he;
pub use spot_pipeline as pipeline;
pub use spot_proto as proto;
pub use spot_tensor as tensor;
