//! The message grammar on top of the frame layer.
//!
//! Seven message kinds carry a whole federated run:
//!
//! | kind | message      | direction       | payload |
//! |------|--------------|-----------------|---------|
//! | 1    | `ClientHello`| client → server | `u32 count, count × u32` worker indices the client serves |
//! | 2    | `Welcome`    | server → client | length-prefixed UTF-8: the full run config as canonical JSON |
//! | 3    | `RoundBegin` | server → client | `u32 round, u64 deadline_ms, u32s members, f32s params` |
//! | 4    | `Upload`     | client → server | `u32 round, u32 worker, f32s data` |
//! | 5    | `RunComplete`| server → client | length-prefixed UTF-8: the `RunSummary` as canonical JSON |
//! | 6    | `HelloReject`| server → client | length-prefixed UTF-8: why the claim was refused |
//! | 7    | `RoundReplay`| server → client | `u32 round, u32s members, f32s params` — catch-up for a reconnect |
//!
//! Slices are length-prefixed (`u32` count, then raw little-endian words) and
//! every count is validated against the bytes actually present before any
//! allocation; a decoded payload must be consumed exactly (trailing bytes are
//! an error). Structured payloads (config, summary) travel as opaque JSON so
//! this crate stays independent of the core types — the serializing side owns
//! the schema.

use crate::frame::{put, write_frame_split, Frame, FrameError, PayloadReader};
use std::io::{self, Read, Write};

/// Frame-kind discriminants (the `kind` byte of the frame header).
pub mod kind {
    /// Client's worker-index claim.
    pub const CLIENT_HELLO: u8 = 1;
    /// Server's run-configuration broadcast.
    pub const WELCOME: u8 = 2;
    /// Round broadcast: cohort members + model parameters + deadline.
    pub const ROUND_BEGIN: u8 = 3;
    /// One worker's upload for one round.
    pub const UPLOAD: u8 = 4;
    /// Final summary; the connection closes after this.
    pub const RUN_COMPLETE: u8 = 5;
    /// Structured claim refusal; the connection closes after this.
    pub const HELLO_REJECT: u8 = 6;
    /// Historical round re-broadcast so a reconnecting client can replay
    /// state evolution without uploading.
    pub const ROUND_REPLAY: u8 = 7;
}

/// One protocol message (see the module table for the wire layout).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: "I serve these global worker indices."
    ClientHello {
        /// Global worker indices, ascending, no duplicates (server-enforced).
        workers: Vec<u32>,
    },
    /// Server → client: the run configuration as canonical JSON.
    Welcome {
        /// Serialized `SimulationConfig`.
        config_json: String,
    },
    /// Server → client: one round's broadcast.
    RoundBegin {
        /// Round index, 0-based.
        round: u32,
        /// Upload deadline in milliseconds from receipt; advisory for the
        /// client, enforced by the server.
        deadline_ms: u64,
        /// The cohort members *this client* must step this round.
        members: Vec<u32>,
        /// Current model parameters.
        params: Vec<f32>,
    },
    /// Client → server: one worker's upload.
    Upload {
        /// Round the upload answers.
        round: u32,
        /// Global worker index.
        worker: u32,
        /// The masked, noised gradient (raw `f32` words).
        data: Vec<f32>,
    },
    /// Server → client: the run is over; here is the summary.
    RunComplete {
        /// Serialized `RunSummary`.
        summary_json: String,
    },
    /// Server → client: your `ClientHello` was refused (out-of-range claim,
    /// overlap with a live connection, …). The server closes the connection
    /// after sending this; the reason is human-readable and stable enough
    /// for clients to log and decide whether to retry.
    HelloReject {
        /// Why the claim was refused.
        reason: String,
    },
    /// Server → client: one already-closed round, re-broadcast during
    /// reconnect admission. A stateful (pooled) client steps the listed
    /// members with these parameters but uploads nothing — the round is
    /// over; the replay only brings worker RNG/momentum state up to date.
    /// Stateless (on-demand) clients ignore it.
    RoundReplay {
        /// The closed round index, 0-based.
        round: u32,
        /// The members of that round this client now serves.
        members: Vec<u32>,
        /// The model parameters that round broadcast.
        params: Vec<f32>,
    },
}

/// A parameter vector in wire form — the `f32s params` block that ends a
/// `RoundBegin` / `RoundReplay` payload. A round's broadcast carries the same
/// block to every connection, so the server encodes it once and
/// [`write_round_begin`] / [`write_round_replay`] borrow it per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamsBlock(Vec<u8>);

impl ParamsBlock {
    /// Encodes `params` (`u32` count, then raw little-endian words).
    pub fn encode(params: &[f32]) -> Self {
        let mut block = Vec::with_capacity(4 + 4 * params.len());
        put::f32s(&mut block, params);
        ParamsBlock(block)
    }
}

/// Writes the frame of `Message::RoundBegin { round, deadline_ms, members,
/// params }`, byte for byte, borrowing `members` and the encoded `params`.
pub fn write_round_begin(
    w: &mut impl Write,
    round: u32,
    deadline_ms: u64,
    members: &[u32],
    params: &ParamsBlock,
) -> io::Result<()> {
    let head = round_begin_head(round, deadline_ms, members);
    write_frame_split(w, kind::ROUND_BEGIN, &head, &params.0)
}

/// Writes the frame of `Message::RoundReplay { round, members, params }`,
/// byte for byte, borrowing `members` and the encoded `params`.
pub fn write_round_replay(
    w: &mut impl Write,
    round: u32,
    members: &[u32],
    params: &ParamsBlock,
) -> io::Result<()> {
    let head = round_replay_head(round, members);
    write_frame_split(w, kind::ROUND_REPLAY, &head, &params.0)
}

/// A `RoundBegin` payload up to its parameter block.
fn round_begin_head(round: u32, deadline_ms: u64, members: &[u32]) -> Vec<u8> {
    let mut head = Vec::new();
    put::u32(&mut head, round);
    put::u64(&mut head, deadline_ms);
    put::u32s(&mut head, members);
    head
}

/// A `RoundReplay` payload up to its parameter block.
fn round_replay_head(round: u32, members: &[u32]) -> Vec<u8> {
    let mut head = Vec::new();
    put::u32(&mut head, round);
    put::u32s(&mut head, members);
    head
}

impl Message {
    /// Encodes into a frame (kind byte + payload bytes).
    pub fn encode(&self) -> Frame {
        let mut payload = Vec::new();
        let kind = match self {
            Message::ClientHello { workers } => {
                put::u32s(&mut payload, workers);
                kind::CLIENT_HELLO
            }
            Message::Welcome { config_json } => {
                put::str(&mut payload, config_json);
                kind::WELCOME
            }
            Message::RoundBegin { round, deadline_ms, members, params } => {
                payload = round_begin_head(*round, *deadline_ms, members);
                put::f32s(&mut payload, params);
                kind::ROUND_BEGIN
            }
            Message::Upload { round, worker, data } => {
                put::u32(&mut payload, *round);
                put::u32(&mut payload, *worker);
                put::f32s(&mut payload, data);
                kind::UPLOAD
            }
            Message::RunComplete { summary_json } => {
                put::str(&mut payload, summary_json);
                kind::RUN_COMPLETE
            }
            Message::HelloReject { reason } => {
                put::str(&mut payload, reason);
                kind::HELLO_REJECT
            }
            Message::RoundReplay { round, members, params } => {
                payload = round_replay_head(*round, members);
                put::f32s(&mut payload, params);
                kind::ROUND_REPLAY
            }
        };
        Frame { kind, payload }
    }

    /// Payload length in bytes of an `Upload` carrying `d` values — the
    /// largest frame a client legitimately sends once the model dimension is
    /// known, so the cap a server hands [`Message::read_from`] for client
    /// frames (saturating at `u32::MAX`, the frame header's own limit).
    pub fn upload_payload_len(d: usize) -> u32 {
        // u32 round, u32 worker, then the `f32s` block: u32 count + d words.
        u32::try_from((d as u64).saturating_mul(4).saturating_add(12)).unwrap_or(u32::MAX)
    }

    /// Decodes a frame back into a message.
    ///
    /// Errors (never panics) on unknown kinds, counts inconsistent with the
    /// payload length, trailing bytes, and non-UTF-8 JSON fields.
    pub fn decode(frame: &Frame) -> Result<Message, FrameError> {
        let mut r = PayloadReader::new(&frame.payload);
        let message = match frame.kind {
            kind::CLIENT_HELLO => Message::ClientHello { workers: r.u32s("hello workers")? },
            kind::WELCOME => Message::Welcome { config_json: r.str("welcome config")? },
            kind::ROUND_BEGIN => Message::RoundBegin {
                round: r.u32("round index")?,
                deadline_ms: r.u64("round deadline")?,
                members: r.u32s("round members")?,
                params: r.f32s("round params")?,
            },
            kind::UPLOAD => Message::Upload {
                round: r.u32("upload round")?,
                worker: r.u32("upload worker")?,
                data: r.f32s("upload data")?,
            },
            kind::RUN_COMPLETE => Message::RunComplete { summary_json: r.str("run summary")? },
            kind::HELLO_REJECT => Message::HelloReject { reason: r.str("reject reason")? },
            kind::ROUND_REPLAY => Message::RoundReplay {
                round: r.u32("replay round")?,
                members: r.u32s("replay members")?,
                params: r.f32s("replay params")?,
            },
            other => return Err(FrameError::UnknownKind(other)),
        };
        r.finish("trailing bytes")?;
        Ok(message)
    }

    /// Encodes and writes this message as one frame.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        let frame = self.encode();
        crate::frame::write_frame(w, frame.kind, &frame.payload)
    }

    /// Reads one frame (payload capped at `max_len`) and decodes it.
    pub fn read_from(r: &mut impl Read, max_len: u32) -> Result<Message, FrameError> {
        Message::decode(&crate::frame::read_frame(r, max_len)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_roundtrips() {
        let messages = [
            Message::ClientHello { workers: vec![0, 1, 7] },
            Message::Welcome { config_json: "{\"n\":3}".into() },
            Message::RoundBegin {
                round: 9,
                deadline_ms: 30_000,
                members: vec![2, 3],
                params: vec![1.5, -0.0, f32::MIN_POSITIVE],
            },
            Message::Upload { round: 9, worker: 3, data: vec![0.25, -3.5] },
            Message::RunComplete { summary_json: "{}".into() },
            Message::HelloReject { reason: "worker 3 is claimed by a live connection".into() },
            Message::RoundReplay { round: 2, members: vec![0, 4], params: vec![0.5, -1.25] },
        ];
        for m in &messages {
            let frame = m.encode();
            assert_eq!(&Message::decode(&frame).unwrap(), m);
        }
    }

    #[test]
    fn borrowed_round_writers_match_message_encode_bytewise() {
        let params = vec![1.5f32, -0.0, f32::MIN_POSITIVE, f32::NAN, 7.25];
        let block = ParamsBlock::encode(&params);
        for members in [vec![], vec![4u32], vec![2, 3, 9]] {
            let mut want = Vec::new();
            Message::RoundBegin {
                round: 9,
                deadline_ms: 30_000,
                members: members.clone(),
                params: params.clone(),
            }
            .write_to(&mut want)
            .unwrap();
            let mut got = Vec::new();
            write_round_begin(&mut got, 9, 30_000, &members, &block).unwrap();
            assert_eq!(got, want, "RoundBegin, members {members:?}");

            want.clear();
            Message::RoundReplay { round: 2, members: members.clone(), params: params.clone() }
                .write_to(&mut want)
                .unwrap();
            got.clear();
            write_round_replay(&mut got, 2, &members, &block).unwrap();
            assert_eq!(got, want, "RoundReplay, members {members:?}");
        }
    }

    #[test]
    fn upload_payload_len_is_the_encoded_upload_payload() {
        for d in [0usize, 1, 7, 6_370] {
            let upload = Message::Upload { round: 3, worker: 2, data: vec![0.5; d] };
            assert_eq!(Message::upload_payload_len(d) as usize, upload.encode().payload.len());
        }
        assert_eq!(Message::upload_payload_len(usize::MAX), u32::MAX);
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_error() {
        assert!(matches!(
            Message::decode(&Frame { kind: 99, payload: vec![] }),
            Err(FrameError::UnknownKind(99))
        ));
        let mut frame = Message::RunComplete { summary_json: "{}".into() }.encode();
        frame.payload.push(0);
        assert!(matches!(Message::decode(&frame), Err(FrameError::Malformed("trailing bytes"))));
    }

    #[test]
    fn inconsistent_counts_error_before_allocation() {
        // A hello declaring 2^30 workers in a 8-byte payload must be caught
        // by the remaining-length check, not by a giant Vec reservation.
        let mut payload = Vec::new();
        payload.extend_from_slice(&(1u32 << 30).to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Message::decode(&Frame { kind: kind::CLIENT_HELLO, payload }),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn non_utf8_json_field_errors() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            Message::decode(&Frame { kind: kind::WELCOME, payload }),
            Err(FrameError::Malformed(_))
        ));
    }
}
