//! # spot-proto — the two-party wire
//!
//! The [`wire`] module defines the typed, versioned message set the
//! client and server exchange; [`transport`] provides in-process
//! ([`MemTransport`]) and TCP ([`TcpTransport`]) implementations that
//! both move serialized frames, so accounting reflects real wire bytes.
//! [`queue`] is the one blocking FIFO of the workspace: the in-process
//! transport's two directions run on it, and so do `spot-core`'s conv
//! driver and tenant gateway.
//! [`channel`] holds the link model that turns those bytes into
//! transfer time, and [`cost`] prices the OT-based non-linear protocols
//! of CrypTFlow2's SCI module (Millionaire / DReLU, max) for the
//! analytic tables. The non-linear layers themselves run as `OtRound`
//! frames between `spot-core`'s two-party walkers.

#![warn(missing_docs)]

pub mod channel;
pub mod cost;
pub mod error;
pub mod queue;
pub mod transport;
pub mod wire;

pub use channel::LinkModel;
pub use error::ProtoError;
pub use queue::Queue;
pub use transport::{MemTransport, TcpTransport, Transport, TransportStats};
pub use wire::{error_code, ConvSetup, WireMessage};
