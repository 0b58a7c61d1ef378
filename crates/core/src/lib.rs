//! # spot-core — SPOT: structure patching and overlap tweaking
//!
//! The paper's primary contribution: HE convolution schemes for
//! privacy-preserving CNN inference with memory-constrained clients.
//!
//! * [`channelwise`] — the CrypTFlow2/GAZELLE-style channel-wise packing
//!   baseline (SISO/MIMO rotation-based convolution).
//! * [`patching`] + [`spot`] — SPOT's structure patching pipeline with
//!   patch overlap tweaking.
//! * [`tile`] — the one slot packing both of those run: a ciphertext
//!   carries a tile of pieces × a channel group, and each scheme supplies
//!   its alignment rule.
//! * [`cheetah`] — the Cheetah coefficient-encoding baseline.
//! * [`select`] — patch-size / parameter-level selection (Table VI).
//! * [`complexity`] — the Table V operation-count formulas.
//! * [`inference`] — end-to-end secure inference over full networks.
//! * [`batch`] — multi-image throughput planning (the Channel-By-Channel
//!   comparison of Sec. II-E).

#![warn(missing_docs)]

pub mod admin;
pub mod batch;
pub mod channelwise;
pub mod cheetah;
pub mod complexity;
pub mod error;
pub mod executor;
pub mod heconv;
pub mod inference;
pub mod layout;
pub mod memory_util;
pub mod patching;
pub mod select;
pub mod serving;
pub mod session;
pub mod spot;
pub mod stream;
pub mod tile;
pub mod twoparty;
