//! The dpbfl wire protocol: a hand-rolled, dependency-free frame codec plus
//! the message grammar the serving binaries speak.
//!
//! The federated round loop in `dpbfl` talks to clients through a `Transport`
//! trait; this crate is the wire half of the remote implementation. It is
//! deliberately tiny and `std`-only — no async runtime, no serialization
//! framework — because the protocol itself is tiny:
//!
//! ```text
//! connection  = handshake  frame*
//! handshake   = magic("DPBF")  version(u16 LE)          ; each direction
//! frame       = kind(u8)  len(u32 LE)  payload(len bytes)
//! ```
//!
//! Everything above the frame layer is a [`wire::Message`]: client hello
//! (worker-index claim), server welcome (the full run configuration as
//! canonical JSON), round begin (broadcast parameters + cohort + deadline),
//! upload (one worker's masked gradient), and run complete (the final
//! summary). Multi-byte integers are little-endian; model parameters and
//! uploads travel as raw `f32` little-endian words, so the bytes a client
//! computes are exactly the bytes the server folds — bit-identical to an
//! in-process run by construction.
//!
//! Decoding is defensive end to end: truncated frames, oversized declared
//! lengths, bad magic/version bytes, unknown kinds, and inconsistent payload
//! counts all surface as [`frame::FrameError`] values — never a panic, and
//! never an allocation beyond the caller-supplied frame-size cap.

pub mod frame;
pub mod wire;

pub use frame::{
    read_frame, write_frame, Frame, FrameError, DEFAULT_MAX_FRAME_LEN, MAGIC, VERSION,
};
pub use wire::{write_round_begin, write_round_replay, Message, ParamsBlock};
