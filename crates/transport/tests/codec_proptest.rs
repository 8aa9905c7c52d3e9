//! Property and adversarial tests for the frame codec (the wire layer the
//! serving binaries trust with hostile bytes).
//!
//! Two families:
//!
//! 1. **Roundtrip identity** — for arbitrary payload bytes and arbitrary
//!    messages of every kind, `decode(encode(x)) == x`, both at the frame
//!    layer and the message layer, including a full write→read pass through
//!    a byte stream carrying several frames back to back.
//! 2. **Adversarial decode** — truncations at every prefix length, oversized
//!    declared lengths, corrupted magic/version bytes, random byte soup, and
//!    bit-flipped valid frames must all produce `Err(FrameError::…)` —
//!    never a panic, and never an allocation beyond the configured cap.

use dpbfl_transport::frame::{
    read_frame, read_handshake, write_frame, write_handshake, Frame, FrameError,
    DEFAULT_MAX_FRAME_LEN,
};
use dpbfl_transport::wire::{kind, Message};
use proptest::prelude::*;
use std::io::Cursor;

/// An arbitrary message of the kind selected by `which`, built from plain
/// generated vectors (the vendored proptest has no `prop_oneof`).
fn build_message(which: usize, ints: Vec<u32>, floats: Vec<f32>, text: String) -> Message {
    match which % 7 {
        0 => Message::ClientHello { watermark: ints.last().copied().unwrap_or(0), workers: ints },
        1 => Message::Welcome { config_json: text },
        2 => Message::RoundBegin {
            round: ints.first().copied().unwrap_or(0),
            deadline_ms: 1000 * ints.last().copied().unwrap_or(0) as u64,
            members: ints,
            params: floats,
        },
        3 => Message::Upload {
            round: ints.first().copied().unwrap_or(0),
            worker: ints.last().copied().unwrap_or(0),
            data: floats,
        },
        4 => Message::RunComplete { summary_json: text },
        5 => Message::HelloReject { reason: text },
        6 => Message::RoundReplay {
            round: ints.first().copied().unwrap_or(0),
            members: ints,
            params: floats,
        },
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frame_roundtrips_through_a_byte_stream(
        kind in 0u8..=255,
        payload in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, &payload).unwrap();
        let frame = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(frame, Frame { kind, payload });
    }

    #[test]
    fn message_encode_decode_is_identity(
        which in 0usize..7,
        ints in prop::collection::vec(0u32..=u32::MAX, 0..64),
        floats in prop::collection::vec(-1.0e30f32..1.0e30, 0..64),
        text_bytes in prop::collection::vec(0u32..0xD7FF, 0..32),
    ) {
        let text: String = text_bytes
            .into_iter()
            .filter_map(char::from_u32)
            .collect();
        let message = build_message(which, ints, floats, text);
        let frame = message.encode();
        prop_assert_eq!(Message::decode(&frame).unwrap(), message);
    }

    #[test]
    fn several_frames_stream_back_to_back(
        payload_a in prop::collection::vec(0u8..=255, 0..64),
        payload_b in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let mut buf = Vec::new();
        write_handshake(&mut buf).unwrap();
        write_frame(&mut buf, 1, &payload_a).unwrap();
        write_frame(&mut buf, 2, &payload_b).unwrap();
        let mut cursor = Cursor::new(&buf);
        read_handshake(&mut cursor).unwrap();
        prop_assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap().payload, payload_a);
        prop_assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap().payload, payload_b);
    }

    #[test]
    fn truncated_frames_error_never_panic(
        payload in prop::collection::vec(0u8..=255, 1..128),
        cut_seed in 0usize..10_000,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, 3, &payload).unwrap();
        let cut = cut_seed % buf.len(); // strictly shorter than the frame
        let result = read_frame(&mut Cursor::new(&buf[..cut]), DEFAULT_MAX_FRAME_LEN);
        prop_assert!(matches!(result, Err(FrameError::Truncated)));
    }

    #[test]
    fn random_byte_soup_never_panics_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        // Whatever happens, it must be a value, not a panic — and any frame
        // that does parse must respect the cap.
        let mut cursor = Cursor::new(&bytes);
        if let Ok(frame) = read_frame(&mut cursor, 128) {
            prop_assert!(frame.payload.len() <= 128);
            // Message decoding over arbitrary payloads must also be total.
            let _ = Message::decode(&frame);
        }
        let _ = read_handshake(&mut Cursor::new(&bytes));
    }

    #[test]
    fn corrupted_valid_messages_error_or_decode_never_panic(
        which in 0usize..7,
        ints in prop::collection::vec(0u32..1000, 0..16),
        floats in prop::collection::vec(-10.0f32..10.0, 0..16),
        flip_byte in 0usize..10_000,
        flip_bit in 0u8..8,
    ) {
        let message = build_message(which, ints, floats, "{\"k\":1}".to_string());
        let mut frame = message.encode();
        if !frame.payload.is_empty() {
            let at = flip_byte % frame.payload.len();
            frame.payload[at] ^= 1 << flip_bit;
        }
        // Totality: corrupted payloads may still decode (bit flips inside a
        // float are legal) but must never panic or misreport lengths.
        let _ = Message::decode(&frame);
    }

    #[test]
    fn oversized_declared_lengths_error_before_allocation(
        declared in 1025u32..=u32::MAX,
        kind in 0u8..=255,
    ) {
        let mut buf = vec![kind];
        buf.extend_from_slice(&declared.to_le_bytes());
        // No payload follows at all: if the length check did not fire first,
        // read_frame would try to allocate `declared` bytes.
        let result = read_frame(&mut Cursor::new(&buf), 1024);
        prop_assert!(
            matches!(result, Err(FrameError::Oversized { declared: d, max: 1024 }) if d == declared)
        );
    }
}

/// Handshake corruption at every byte: each single-byte corruption of the
/// 6-byte preamble must produce `BadMagic` or `BadVersion`, never success.
#[test]
fn every_corrupted_handshake_byte_is_rejected() {
    let mut good = Vec::new();
    write_handshake(&mut good).unwrap();
    for at in 0..good.len() {
        let mut bad = good.clone();
        bad[at] ^= 0xA5;
        let result = read_handshake(&mut Cursor::new(&bad));
        assert!(
            matches!(result, Err(FrameError::BadMagic(_)) | Err(FrameError::BadVersion(_))),
            "corruption at byte {at} was accepted"
        );
    }
}

/// The inner count fields are validated against bytes present, not trusted:
/// every slice-bearing kind with an inflated count must error.
#[test]
fn inflated_inner_counts_are_rejected() {
    for k in [kind::CLIENT_HELLO, kind::ROUND_BEGIN, kind::UPLOAD, kind::ROUND_REPLAY] {
        let mut payload = Vec::new();
        if k == kind::ROUND_BEGIN {
            payload.extend_from_slice(&0u32.to_le_bytes()); // round
            payload.extend_from_slice(&0u64.to_le_bytes()); // deadline
        }
        if k == kind::UPLOAD {
            payload.extend_from_slice(&0u32.to_le_bytes()); // round
            payload.extend_from_slice(&0u32.to_le_bytes()); // worker
        }
        if k == kind::ROUND_REPLAY {
            payload.extend_from_slice(&0u32.to_le_bytes()); // round
        }
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd count
        let result = Message::decode(&Frame { kind: k, payload });
        assert!(matches!(result, Err(FrameError::Malformed(_))), "kind {k} accepted");
    }
}
