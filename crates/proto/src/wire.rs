//! Typed wire messages with length-prefixed, versioned framing.
//!
//! Every client↔server exchange is one of the [`WireMessage`] variants
//! below, serialized as a frame:
//!
//! ```text
//! [version u8][tag u8][len u32 LE][payload: len bytes]
//! ```
//!
//! HE objects (ciphertexts, keys) travel as opaque byte blobs produced
//! by `spot-he`'s serializers — this crate never interprets them, so the
//! protocol layer stays independent of the HE backend. Decoding never
//! panics: malformed input yields a [`ProtoError`].

use crate::error::ProtoError;
use std::io::Read;

/// Wire protocol version carried in every frame header. Version 2:
/// the `GaloisKeys` payload carries each key as a seed plus its `b_i`,
/// and a connection sends each Galois element's key once. Version 3:
/// no frame format changes, the frame *sequence* does — a `GaloisKeys`
/// frame carries one key, and a layer's key frames travel inside its
/// input upload, in first-use order (DESIGN.md §9). Version 4: the
/// blob of a `PackedCt` / `AuxCt` is the seeded form of a ciphertext
/// (`c0` and the 32-byte seed of `c1`; a `MaskedResult` blob stays the
/// full form), and a layer's schedule holds one giant-step key where it
/// held one per giant step. Version 5: a layer's schedule holds the row
/// and column moves its live kernel taps compose from (3×3: four keys)
/// where it held one key per tap (eight). Version 6: a `MaskedResult`
/// blob is the full form of a ciphertext at the level's first two
/// primes, `q_0·q_1` (the server switches every result down after
/// masking; a level of one or two primes sends it as it is). Version 7:
/// a coefficient-packed layer's `MaskedResult` blob is the sparse form
/// of its result — the same header, `c1` whole, then `c0` at only the
/// coefficients its share reads, which both parties derive from the
/// layer (`spot_he::ciphertext::SparseCiphertext`); a slot-packed
/// layer's stays the full form. Version 8: no frame format changes,
/// the frame *count* does — a SPOT layer's seam classes whose pieces
/// fit in the free positions of the patches' last ciphertext ride
/// there, so the same `ConvSetup` means fewer `AuxCt` uploads and
/// fewer `MaskedResult`s.
pub const WIRE_VERSION: u8 = 8;

/// Frame header size: version byte, tag byte, length u32.
pub const FRAME_HEADER_BYTES: usize = 6;

/// Upper bound on a frame payload (defensive cap, 256 MiB).
pub const MAX_FRAME: usize = 1 << 28;

/// Scheme/geometry hello sent by the client before a convolution layer.
///
/// Flat integer fields only, so the protocol crate needs no knowledge
/// of `spot-core` types; the receiving session layer re-derives its
/// typed configuration from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvSetup {
    /// Scheme discriminant (0 = channel-wise, 1 = Cheetah, 2 = SPOT).
    pub scheme: u8,
    /// Convolution mode discriminant (scheme-specific; SPOT: 0 =
    /// vanilla patching, 1 = overlap-tweaked).
    pub mode: u8,
    /// HE parameter level discriminant (log2(N) - 11, i.e. 0 = N2048).
    pub level: u8,
    /// Images batched into this layer's ciphertexts (0 and 1 both mean
    /// unbatched — the byte was reserved-zero before batching existed,
    /// so old encoders read as batch 1).
    pub batch: u8,
    /// Input height.
    pub h: u32,
    /// Input width.
    pub w: u32,
    /// Input channels.
    pub c_in: u32,
    /// Output channels.
    pub c_out: u32,
    /// Kernel height.
    pub k_h: u32,
    /// Kernel width.
    pub k_w: u32,
    /// Convolution stride.
    pub stride: u32,
    /// Patch height (SPOT; 0 when unused).
    pub patch_h: u32,
    /// Patch width (SPOT; 0 when unused).
    pub patch_w: u32,
    /// Wire trace id for cross-party trace correlation (0 = none). Like
    /// `batch`, this rides space the base layout never used: a zero
    /// trace id encodes to the original 40-byte payload, a nonzero one
    /// appends 8 bytes, and decoders accept both — so the frame stream
    /// is byte-identical to the legacy format whenever tracing is off.
    pub trace: u64,
}

impl ConvSetup {
    const BASE_BYTES: usize = 4 + 9 * 4;
    const TRACED_BYTES: usize = Self::BASE_BYTES + 8;

    fn encoded_len(&self) -> usize {
        if self.trace == 0 {
            Self::BASE_BYTES
        } else {
            Self::TRACED_BYTES
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&[self.scheme, self.mode, self.level, self.batch]);
        for v in [
            self.h,
            self.w,
            self.c_in,
            self.c_out,
            self.k_h,
            self.k_w,
            self.stride,
            self.patch_h,
            self.patch_w,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        if self.trace != 0 {
            out.extend_from_slice(&self.trace.to_le_bytes());
        }
    }

    fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        if payload.len() != Self::BASE_BYTES && payload.len() != Self::TRACED_BYTES {
            return Err(ProtoError::Truncated);
        }
        let mut words = [0u32; 9];
        for (i, w) in words.iter_mut().enumerate() {
            *w = read_u32(payload, 4 + 4 * i)?;
        }
        let trace = if payload.len() == Self::TRACED_BYTES {
            read_u64(payload, Self::BASE_BYTES)?
        } else {
            0
        };
        Ok(Self {
            scheme: payload[0],
            mode: payload[1],
            level: payload[2],
            batch: payload[3],
            h: words[0],
            w: words[1],
            c_in: words[2],
            c_out: words[3],
            k_h: words[4],
            k_w: words[5],
            stride: words[6],
            patch_h: words[7],
            patch_w: words[8],
            trace,
        })
    }
}

/// One protocol message. Byte blobs are HE objects serialized by
/// `spot-he`; sequence numbers order ciphertexts within a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// Layer hello: scheme + geometry the server should prepare for.
    Setup(ConvSetup),
    /// Serialized BFV public key (client → server; optional).
    PublicKey(Vec<u8>),
    /// Serialized Galois rotation keys (client → server).
    GaloisKeys(Vec<u8>),
    /// A packed input ciphertext (client → server).
    PackedCt {
        /// Upload sequence number within the layer.
        seq: u32,
        /// Serialized ciphertext.
        blob: Vec<u8>,
    },
    /// An auxiliary/seam ciphertext belonging to a patch class ≥ 1
    /// (SPOT structure patching; client → server).
    AuxCt {
        /// Patch class index (1-based; class 0 rides in `PackedCt`).
        class: u16,
        /// Upload sequence number within the layer.
        seq: u32,
        /// Serialized ciphertext.
        blob: Vec<u8>,
    },
    /// A masked result ciphertext (server → client): the client's
    /// additive share, still encrypted, at the level's first two primes.
    MaskedResult {
        /// Result sequence number within the layer.
        seq: u32,
        /// Serialized ciphertext.
        blob: Vec<u8>,
    },
    /// One round of an interactive OT-based non-linear protocol
    /// (ReLU / max-pool share exchange).
    OtRound {
        /// Operation discriminant (0 = ReLU, 1 = 2×2 max-pool).
        op: u8,
        /// Round number within the operation.
        round: u16,
        /// Round payload (share values, u64 LE each).
        blob: Vec<u8>,
    },
    /// Reveal a share vector to the peer (layer-boundary
    /// reconstruction; payload is u64 LE share values).
    ShareReveal {
        /// Share values, u64 LE each.
        blob: Vec<u8>,
    },
    /// Marks the end of one network layer's traffic.
    LayerBarrier {
        /// Layer index.
        layer: u32,
    },
    /// Clean end of session.
    Teardown,
    /// Clock-alignment ping (either direction). The client sends a
    /// probe with both stamps zero; the server echoes it back with its
    /// receive and transmit times on its own trace clock, letting the
    /// client compute the NTP-style midpoint offset. Only exchanged
    /// when tracing is on; never part of the cryptographic protocol.
    ClockProbe {
        /// Probe sequence number within the exchange.
        seq: u32,
        /// Echoer's receive time, nanoseconds on its trace clock.
        t_rx_ns: u64,
        /// Echoer's transmit time, nanoseconds on its trace clock.
        t_tx_ns: u64,
    },
    /// Typed server-side rejection (server → client): the session is
    /// over after this frame. Carries one of the [`error_code`]
    /// constants plus a human-readable detail string.
    Error {
        /// Machine-readable reason ([`error_code`] constants).
        code: u16,
        /// Human-readable context (UTF-8; lossily decoded on read).
        detail: String,
    },
}

/// Machine-readable reasons carried by [`WireMessage::Error`].
pub mod error_code {
    /// Admission control: the server is at its concurrent-session cap.
    pub const SERVER_FULL: u16 = 1;
    /// Admission control: the request exceeds the per-session
    /// ciphertext-memory budget (e.g. an over-capacity `Setup` batch).
    pub const OVER_BUDGET: u16 = 2;
    /// The session violated the protocol (malformed or unexpected
    /// frame, bad key material, unsupported geometry).
    pub const PROTOCOL: u16 = 3;
}

impl WireMessage {
    /// The variant's wire tag, and its name as error messages and test
    /// transcripts spell a frame.
    fn kind(&self) -> (u8, &'static str) {
        match self {
            WireMessage::Setup(_) => (0, "Setup"),
            WireMessage::PublicKey(_) => (1, "PublicKey"),
            WireMessage::GaloisKeys(_) => (2, "GaloisKeys"),
            WireMessage::PackedCt { .. } => (3, "PackedCt"),
            WireMessage::AuxCt { .. } => (4, "AuxCt"),
            WireMessage::MaskedResult { .. } => (5, "MaskedResult"),
            WireMessage::OtRound { .. } => (6, "OtRound"),
            WireMessage::ShareReveal { .. } => (7, "ShareReveal"),
            WireMessage::LayerBarrier { .. } => (8, "LayerBarrier"),
            WireMessage::Teardown => (9, "Teardown"),
            WireMessage::Error { .. } => (10, "Error"),
            WireMessage::ClockProbe { .. } => (11, "ClockProbe"),
        }
    }

    /// The variant's name.
    pub fn name(&self) -> &'static str {
        self.kind().1
    }

    /// Compact causal tag for trace flow arrows: identifies *which*
    /// frame this is (message kind, class/op discriminant, sequence
    /// number) from fields already on the wire, so send and receive
    /// spans on opposite parties can be paired without any extra bytes.
    /// `None` for messages with no per-item identity (keys, reveals,
    /// teardown, errors).
    pub fn causal_tag(&self) -> Option<u64> {
        let (kind, mid, seq) = match self {
            WireMessage::PackedCt { seq, .. } => (1u64, 0u64, *seq as u64),
            WireMessage::AuxCt { class, seq, .. } => (2, *class as u64, *seq as u64),
            WireMessage::MaskedResult { seq, .. } => (3, 0, *seq as u64),
            WireMessage::OtRound { op, round, .. } => (4, *op as u64, *round as u64),
            WireMessage::LayerBarrier { layer } => (5, 0, *layer as u64),
            WireMessage::ClockProbe { seq, .. } => (6, 0, *seq as u64),
            _ => return None,
        };
        Some((kind << 56) | (mid << 40) | seq)
    }

    /// Payload size from field lengths alone; `encode_frame` writes
    /// exactly this many bytes behind the header.
    fn payload_len(&self) -> usize {
        match self {
            WireMessage::Setup(s) => s.encoded_len(),
            WireMessage::PublicKey(blob)
            | WireMessage::GaloisKeys(blob)
            | WireMessage::ShareReveal { blob } => blob.len(),
            WireMessage::PackedCt { blob, .. } | WireMessage::MaskedResult { blob, .. } => {
                4 + blob.len()
            }
            WireMessage::AuxCt { blob, .. } => 6 + blob.len(),
            WireMessage::OtRound { blob, .. } => 3 + blob.len(),
            WireMessage::LayerBarrier { .. } => 4,
            WireMessage::Teardown => 0,
            WireMessage::Error { detail, .. } => 2 + detail.len(),
            WireMessage::ClockProbe { .. } => 20,
        }
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        match self {
            WireMessage::Setup(s) => s.write(out),
            WireMessage::PublicKey(blob)
            | WireMessage::GaloisKeys(blob)
            | WireMessage::ShareReveal { blob } => out.extend_from_slice(blob),
            WireMessage::PackedCt { seq, blob } | WireMessage::MaskedResult { seq, blob } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(blob);
            }
            WireMessage::AuxCt { class, seq, blob } => {
                out.extend_from_slice(&class.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(blob);
            }
            WireMessage::OtRound { op, round, blob } => {
                out.push(*op);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(blob);
            }
            WireMessage::LayerBarrier { layer } => out.extend_from_slice(&layer.to_le_bytes()),
            WireMessage::Teardown => {}
            WireMessage::Error { code, detail } => {
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(detail.as_bytes());
            }
            WireMessage::ClockProbe {
                seq,
                t_rx_ns,
                t_tx_ns,
            } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&t_rx_ns.to_le_bytes());
                out.extend_from_slice(&t_tx_ns.to_le_bytes());
            }
        }
    }

    fn from_tag_payload(tag: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        Ok(match tag {
            0 => WireMessage::Setup(ConvSetup::decode(payload)?),
            1 => WireMessage::PublicKey(payload.to_vec()),
            2 => WireMessage::GaloisKeys(payload.to_vec()),
            3 => WireMessage::PackedCt {
                seq: read_u32(payload, 0)?,
                blob: tail(payload, 4)?,
            },
            4 => WireMessage::AuxCt {
                class: read_u16(payload, 0)?,
                seq: read_u32(payload, 2)?,
                blob: tail(payload, 6)?,
            },
            5 => WireMessage::MaskedResult {
                seq: read_u32(payload, 0)?,
                blob: tail(payload, 4)?,
            },
            6 => WireMessage::OtRound {
                op: *payload.first().ok_or(ProtoError::Truncated)?,
                round: read_u16(payload, 1)?,
                blob: tail(payload, 3)?,
            },
            7 => WireMessage::ShareReveal {
                blob: payload.to_vec(),
            },
            8 => WireMessage::LayerBarrier {
                layer: read_u32(payload, 0)?,
            },
            9 => {
                if !payload.is_empty() {
                    return Err(ProtoError::Malformed("teardown carries payload".into()));
                }
                WireMessage::Teardown
            }
            10 => WireMessage::Error {
                code: read_u16(payload, 0)?,
                detail: String::from_utf8_lossy(&tail(payload, 2)?).into_owned(),
            },
            11 => {
                if payload.len() != 20 {
                    return Err(ProtoError::Truncated);
                }
                WireMessage::ClockProbe {
                    seq: read_u32(payload, 0)?,
                    t_rx_ns: read_u64(payload, 4)?,
                    t_tx_ns: read_u64(payload, 12)?,
                }
            }
            t => return Err(ProtoError::BadTag(t)),
        })
    }

    /// Serializes the message as one framed byte vector: header and
    /// fields go straight into the one output buffer.
    pub fn encode_frame(&self) -> Vec<u8> {
        let len = self.payload_len();
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + len);
        out.push(WIRE_VERSION);
        out.push(self.kind().0);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        self.write_payload(&mut out);
        debug_assert_eq!(out.len(), FRAME_HEADER_BYTES + len);
        out
    }

    /// Serialized frame size (header + payload), computed from field
    /// lengths: nothing is encoded or allocated.
    pub fn frame_len(&self) -> usize {
        FRAME_HEADER_BYTES + self.payload_len()
    }

    /// Decodes one frame from the front of `bytes`, returning the
    /// message and the number of bytes consumed.
    pub fn decode_frame(bytes: &[u8]) -> Result<(Self, usize), ProtoError> {
        let (tag, len) = check_header(bytes.first_chunk().ok_or(ProtoError::Truncated)?)?;
        let end = FRAME_HEADER_BYTES + len;
        let payload = bytes
            .get(FRAME_HEADER_BYTES..end)
            .ok_or(ProtoError::Truncated)?;
        Ok((Self::from_tag_payload(tag, payload)?, end))
    }

    /// Reads exactly one frame from a byte stream and decodes it with
    /// [`WireMessage::decode_frame`].
    ///
    /// A clean EOF before the first header byte yields
    /// [`ProtoError::Closed`]; EOF mid-frame yields
    /// [`ProtoError::Truncated`].
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self, ProtoError> {
        Ok(Self::decode_frame(&read_frame(reader)?)?.0)
    }
}

/// The one frame-header validator: version and length cap. Returns the
/// tag and the payload length.
fn check_header(header: &[u8; FRAME_HEADER_BYTES]) -> Result<(u8, usize), ProtoError> {
    let [version, tag, len @ ..] = *header;
    if version != WIRE_VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::TooLarge(len));
    }
    Ok((tag, len))
}

/// Reads the bytes of exactly one frame off a byte stream: the header
/// checked (so the length is safe to allocate), the payload not yet
/// decoded. EOF handling as documented on [`WireMessage::read_from`].
pub(crate) fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, ProtoError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0usize;
    while got < header.len() {
        match reader.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    ProtoError::Closed
                } else {
                    ProtoError::Truncated
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (_, len) = check_header(&header)?;
    let mut frame = vec![0u8; FRAME_HEADER_BYTES + len];
    frame[..FRAME_HEADER_BYTES].copy_from_slice(&header);
    reader.read_exact(&mut frame[FRAME_HEADER_BYTES..])?;
    Ok(frame)
}

fn read_u32(bytes: &[u8], off: usize) -> Result<u32, ProtoError> {
    let s = bytes.get(off..off + 4).ok_or(ProtoError::Truncated)?;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

fn read_u16(bytes: &[u8], off: usize) -> Result<u16, ProtoError> {
    let s = bytes.get(off..off + 2).ok_or(ProtoError::Truncated)?;
    Ok(u16::from_le_bytes([s[0], s[1]]))
}

fn read_u64(bytes: &[u8], off: usize) -> Result<u64, ProtoError> {
    let s = bytes.get(off..off + 8).ok_or(ProtoError::Truncated)?;
    Ok(u64::from_le_bytes([
        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
    ]))
}

fn tail(bytes: &[u8], off: usize) -> Result<Vec<u8>, ProtoError> {
    Ok(bytes.get(off..).ok_or(ProtoError::Truncated)?.to_vec())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One message of every variant.
    pub(crate) fn samples() -> Vec<WireMessage> {
        vec![
            WireMessage::Setup(ConvSetup {
                scheme: 2,
                mode: 1,
                level: 1,
                batch: 4,
                h: 8,
                w: 8,
                c_in: 2,
                c_out: 4,
                k_h: 3,
                k_w: 3,
                stride: 1,
                patch_h: 4,
                patch_w: 4,
                trace: 0xDEAD_BEEF_0000_0001,
            }),
            WireMessage::PublicKey(vec![1, 2, 3]),
            WireMessage::GaloisKeys(vec![9; 100]),
            WireMessage::PackedCt {
                seq: 7,
                blob: vec![0xAB; 33],
            },
            WireMessage::AuxCt {
                class: 2,
                seq: 11,
                blob: vec![0xCD; 5],
            },
            WireMessage::MaskedResult {
                seq: 3,
                blob: vec![0xEF; 8],
            },
            WireMessage::OtRound {
                op: 1,
                round: 4,
                blob: vec![0x5A; 24],
            },
            WireMessage::ShareReveal {
                blob: vec![0x3C; 16],
            },
            WireMessage::LayerBarrier { layer: 2 },
            WireMessage::Teardown,
            WireMessage::ClockProbe {
                seq: 3,
                t_rx_ns: 1_234_567_890_123,
                t_tx_ns: 1_234_567_890_456,
            },
            WireMessage::Error {
                code: error_code::SERVER_FULL,
                detail: "at capacity (16 sessions)".into(),
            },
        ]
    }

    #[test]
    fn frame_roundtrip_all_variants() {
        for msg in samples() {
            let frame = msg.encode_frame();
            assert_eq!(frame.len(), msg.frame_len());
            let (back, used) = WireMessage::decode_frame(&frame).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(back, msg);
            // and through the stream reader
            let mut cursor = std::io::Cursor::new(frame);
            assert_eq!(WireMessage::read_from(&mut cursor).unwrap(), msg);
        }
    }

    #[test]
    fn back_to_back_frames_consume_exactly() {
        let mut buf = Vec::new();
        for msg in samples() {
            buf.extend_from_slice(&msg.encode_frame());
        }
        let mut off = 0;
        let mut seen = Vec::new();
        while off < buf.len() {
            let (msg, used) = WireMessage::decode_frame(&buf[off..]).unwrap();
            off += used;
            seen.push(msg);
        }
        assert_eq!(seen, samples());
    }

    #[test]
    fn rejects_bad_version_and_tag() {
        let mut frame = WireMessage::Teardown.encode_frame();
        frame[0] = 99;
        assert_eq!(
            WireMessage::decode_frame(&frame),
            Err(ProtoError::BadVersion(99))
        );
        let mut frame = WireMessage::Teardown.encode_frame();
        frame[1] = 200;
        assert_eq!(
            WireMessage::decode_frame(&frame),
            Err(ProtoError::BadTag(200))
        );
    }

    #[test]
    fn rejects_truncation_and_oversize_without_panicking() {
        let frame = WireMessage::PackedCt {
            seq: 1,
            blob: vec![7; 20],
        }
        .encode_frame();
        for cut in 0..frame.len() {
            assert!(WireMessage::decode_frame(&frame[..cut]).is_err());
        }
        let mut huge = WireMessage::Teardown.encode_frame();
        huge[2..6].copy_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(
            WireMessage::decode_frame(&huge),
            Err(ProtoError::TooLarge(MAX_FRAME + 1))
        );
    }

    #[test]
    fn eof_is_closed_only_between_frames() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(WireMessage::read_from(&mut empty), Err(ProtoError::Closed));
        let frame = WireMessage::LayerBarrier { layer: 1 }.encode_frame();
        let mut partial = std::io::Cursor::new(frame[..4].to_vec());
        assert_eq!(
            WireMessage::read_from(&mut partial),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn setup_trace_zero_keeps_legacy_layout() {
        let mut setup = match &samples()[0] {
            WireMessage::Setup(s) => *s,
            _ => unreachable!(),
        };
        setup.trace = 0;
        let frame = WireMessage::Setup(setup).encode_frame();
        // Payload is exactly the pre-trace 40-byte layout...
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + ConvSetup::BASE_BYTES);
        // ...and decodes with trace = 0.
        let (back, _) = WireMessage::decode_frame(&frame).unwrap();
        assert_eq!(back, WireMessage::Setup(setup));
        // A nonzero trace id appends exactly 8 bytes; the 40-byte
        // payload prefix is unchanged (only the header length differs).
        setup.trace = 1;
        let traced = WireMessage::Setup(setup).encode_frame();
        assert_eq!(traced.len(), frame.len() + 8);
        assert_eq!(
            traced[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + ConvSetup::BASE_BYTES],
            frame[FRAME_HEADER_BYTES..]
        );
        // Payloads of any other length are rejected.
        let mut bad = traced.clone();
        bad.truncate(bad.len() - 4);
        bad[2..6].copy_from_slice(&((ConvSetup::TRACED_BYTES - 4) as u32).to_le_bytes());
        assert!(WireMessage::decode_frame(&bad).is_err());
    }

    #[test]
    fn causal_tags_are_distinct_and_stable() {
        let tags: Vec<Option<u64>> = samples().iter().map(|m| m.causal_tag()).collect();
        let mut seen = std::collections::HashSet::new();
        for (msg, tag) in samples().iter().zip(&tags) {
            match msg {
                WireMessage::PackedCt { .. }
                | WireMessage::AuxCt { .. }
                | WireMessage::MaskedResult { .. }
                | WireMessage::OtRound { .. }
                | WireMessage::LayerBarrier { .. }
                | WireMessage::ClockProbe { .. } => {
                    let t = tag.expect("tagged kind");
                    assert!(seen.insert(t), "duplicate tag {t:#x} for {msg:?}");
                }
                _ => assert_eq!(*tag, None, "untagged kind {msg:?}"),
            }
        }
        // Same kind, different seq ⇒ different tag; same fields ⇒ same.
        let a = WireMessage::PackedCt {
            seq: 1,
            blob: vec![],
        };
        let b = WireMessage::PackedCt {
            seq: 2,
            blob: vec![],
        };
        assert_ne!(a.causal_tag(), b.causal_tag());
        assert_eq!(a.causal_tag(), a.causal_tag());
    }
}
