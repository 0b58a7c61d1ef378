//! Typed errors for the session layer and the conv driver.

use spot_he::serial::SerialError;
use spot_proto::ProtoError;
use std::fmt;

/// Errors surfaced by the client/server sessions and the streaming
/// runtime (thiserror-style, hand-rolled to stay dependency-free).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpotError {
    /// A transport or wire-codec failure.
    Proto(ProtoError),
    /// An HE object failed validated deserialization.
    Serial(SerialError),
    /// The peer violated the session protocol (wrong message, bad
    /// sequence number, inconsistent geometry, …).
    Protocol(String),
    /// The server refused the session with a typed wire error
    /// (admission control: at capacity, over the ciphertext budget…).
    /// On the server side the code selects the `WireMessage::Error`
    /// frame sent back; on the client side it is the received frame.
    Rejected {
        /// Machine-readable reason (`spot_proto::error_code`).
        code: u16,
        /// Human-readable context from the server.
        detail: String,
    },
    /// A lock was poisoned by a panic on another thread.
    Poisoned(&'static str),
    /// A thread the session ran beside its own panicked.
    Panicked(&'static str),
}

impl fmt::Display for SpotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpotError::Proto(e) => write!(f, "protocol transport error: {e}"),
            SpotError::Serial(e) => write!(f, "HE deserialization error: {e}"),
            SpotError::Protocol(m) => write!(f, "session protocol violation: {m}"),
            SpotError::Rejected { code, detail } => {
                write!(f, "rejected by server (code {code}): {detail}")
            }
            SpotError::Poisoned(what) => write!(f, "poisoned lock: {what}"),
            SpotError::Panicked(what) => write!(f, "{what} thread panicked"),
        }
    }
}

impl std::error::Error for SpotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpotError::Proto(e) => Some(e),
            SpotError::Serial(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtoError> for SpotError {
    fn from(e: ProtoError) -> Self {
        SpotError::Proto(e)
    }
}

impl From<SerialError> for SpotError {
    fn from(e: SerialError) -> Self {
        SpotError::Serial(e)
    }
}
