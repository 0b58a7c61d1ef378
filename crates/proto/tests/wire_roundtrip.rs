//! Property tests for the framed wire protocol: every `WireMessage`
//! variant survives encode→decode bit-exactly, truncated frames are
//! rejected (never a panic), the version byte is enforced, and the
//! slice decoder and the stream reader agree on every input.

use proptest::collection::vec;
use proptest::prelude::*;
use spot_proto::{ConvSetup, ProtoError, WireMessage};

fn blob() -> impl Strategy<Value = Vec<u8>> {
    vec(0u8..=255, 0..2000)
}

fn setup_strategy() -> impl Strategy<Value = ConvSetup> {
    (
        (0u8..3, 0u8..2, 0u8..4, 0u8..32),
        (1u32..64, 1u32..64, 1u32..32, 1u32..32),
        (1u32..8, 1u32..8, 1u32..3, 0u32..16, 0u32..16),
        0u64..=u64::MAX,
    )
        .prop_map(
            |(
                (scheme, mode, level, batch),
                (h, w, c_in, c_out),
                (k_h, k_w, stride, patch_h, patch_w),
                trace,
            )| {
                ConvSetup {
                    scheme,
                    mode,
                    level,
                    batch,
                    h,
                    w,
                    c_in,
                    c_out,
                    k_h,
                    k_w,
                    stride,
                    patch_h,
                    patch_w,
                    trace,
                }
            },
        )
}

fn message_strategy() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        setup_strategy().prop_map(WireMessage::Setup),
        blob().prop_map(WireMessage::PublicKey),
        blob().prop_map(WireMessage::GaloisKeys),
        (0u32..10_000, blob()).prop_map(|(seq, blob)| WireMessage::PackedCt { seq, blob }),
        ((1u16..100, 0u32..10_000), blob()).prop_map(|((class, seq), blob)| WireMessage::AuxCt {
            class,
            seq,
            blob
        }),
        (0u32..10_000, blob()).prop_map(|(seq, blob)| WireMessage::MaskedResult { seq, blob }),
        ((0u8..4, 0u16..16), blob()).prop_map(|((op, round), blob)| WireMessage::OtRound {
            op,
            round,
            blob
        }),
        blob().prop_map(|blob| WireMessage::ShareReveal { blob }),
        (0u32..1000).prop_map(|layer| WireMessage::LayerBarrier { layer }),
        Just(WireMessage::Teardown),
        (0u32..=u32::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX).prop_map(|(seq, t_rx_ns, t_tx_ns)| {
            WireMessage::ClockProbe {
                seq,
                t_rx_ns,
                t_tx_ns,
            }
        }),
    ]
}

/// What each of the two readers makes of the same bytes. They share
/// one header validator and one payload decoder, so the only input they
/// may differ on is the empty one: a stream that ends between frames is
/// `Closed`, an empty slice is `Truncated`.
fn both_readers(bytes: &[u8]) -> Result<WireMessage, ProtoError> {
    let sliced = WireMessage::decode_frame(bytes).map(|(msg, _)| msg);
    let streamed = WireMessage::read_from(&mut std::io::Cursor::new(bytes));
    if bytes.is_empty() {
        assert_eq!(sliced, Err(ProtoError::Truncated));
        assert_eq!(streamed, Err(ProtoError::Closed));
    } else {
        assert_eq!(sliced, streamed, "on {} bytes", bytes.len());
    }
    sliced
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frame_roundtrip_is_identity(msg in message_strategy()) {
        let frame = msg.encode_frame();
        prop_assert_eq!(frame.len(), msg.frame_len());
        let (back, used) = WireMessage::decode_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(used, frame.len());
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn decode_ignores_trailing_bytes(msg in message_strategy(), extra in blob()) {
        let mut frame = msg.encode_frame();
        let want_used = frame.len();
        frame.extend_from_slice(&extra);
        let (back, used) = WireMessage::decode_frame(&frame)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;
        prop_assert_eq!(used, want_used);
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn truncated_frames_rejected(msg in message_strategy(), cut in 1usize..64) {
        let frame = msg.encode_frame();
        let cut = cut.min(frame.len());
        prop_assert!(WireMessage::decode_frame(&frame[..frame.len() - cut]).is_err());
    }

    #[test]
    fn wrong_version_rejected(msg in message_strategy(), version in 0u8..=255) {
        let mut frame = msg.encode_frame();
        prop_assume!(version != frame[0]);
        frame[0] = version;
        prop_assert!(matches!(
            WireMessage::decode_frame(&frame),
            Err(ProtoError::BadVersion(v)) if v == version
        ));
    }

    #[test]
    fn garbage_never_panics(bytes in vec(0u8..=255, 0..512)) {
        // Decoding arbitrary bytes must return, never panic; when it
        // succeeds the reported length must stay in bounds.
        if let Ok((_, used)) = WireMessage::decode_frame(&bytes) {
            prop_assert!(used <= bytes.len());
        }
    }

    #[test]
    fn read_from_matches_decode(msg in message_strategy(), extra in blob()) {
        let mut stream = msg.encode_frame();
        stream.extend_from_slice(&extra);
        let mut cursor = std::io::Cursor::new(stream);
        let back = WireMessage::read_from(&mut cursor)
            .map_err(|e| TestCaseError::fail(format!("read_from failed: {e}")))?;
        prop_assert_eq!(back, msg.clone());
        prop_assert_eq!(cursor.position() as usize, msg.frame_len());
    }

    #[test]
    fn readers_agree_on_every_prefix(msg in message_strategy()) {
        let frame = msg.encode_frame();
        for cut in 0..frame.len() {
            prop_assert_eq!(both_readers(&frame[..cut]), Err(ProtoError::Truncated));
        }
        prop_assert_eq!(both_readers(&frame), Ok(msg));
    }

    #[test]
    fn readers_agree_on_a_corrupted_header(
        msg in message_strategy(),
        version in 0u8..=255,
        tag in 0u8..=255,
        len in prop_oneof![0u32..4096, 0u32..=u32::MAX],
    ) {
        let frame = msg.encode_frame();
        let corrupt = |at: std::ops::Range<usize>, with: &[u8]| {
            let mut bad = frame.clone();
            bad[at].copy_from_slice(with);
            both_readers(&bad)
        };
        let got = corrupt(0..1, &[version]);
        if version != frame[0] {
            prop_assert_eq!(got, Err(ProtoError::BadVersion(version)));
        }
        // A foreign tag re-reads the payload as another variant or
        // fails; either way both readers say the same (asserted inside).
        let _ = corrupt(1..2, &[tag]);
        let got = corrupt(2..6, &len.to_le_bytes());
        if len as usize > spot_proto::wire::MAX_FRAME {
            prop_assert_eq!(got, Err(ProtoError::TooLarge(len as usize)));
        } else if len as usize > frame.len() - spot_proto::wire::FRAME_HEADER_BYTES {
            prop_assert_eq!(got, Err(ProtoError::Truncated));
        }
    }
}
