//! The length-prefixed frame layer: handshake, frame header, and the
//! defensive byte-level readers the message grammar is built on.

use std::fmt;
use std::io::{self, Read, Write};

/// Protocol magic, sent first on every connection (both directions).
pub const MAGIC: [u8; 4] = *b"DPBF";

/// Protocol version, sent as `u16` little-endian right after the magic.
/// Bumped on any incompatible change to the frame or message grammar.
/// Version 2 added the reconnect grammar (`HelloReject`, `RoundReplay`).
pub const VERSION: u16 = 2;

/// Default cap on a frame's declared payload length (64 MiB) — far above any
/// legitimate frame (the largest, `RoundBegin` at the paper's model size,
/// is ~100 KiB) while keeping a malicious length field from driving an
/// unbounded allocation.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// One decoded frame: a kind tag and its raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message-kind discriminant (see `wire::kind`).
    pub kind: u8,
    /// Raw payload; interpretation is the kind's business.
    pub payload: Vec<u8>,
}

/// Everything that can go wrong while reading the wire.
///
/// Every variant is a recoverable error value — the codec never panics on
/// adversarial input, and never allocates more than the configured frame cap.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/file error.
    Io(io::Error),
    /// The peer's first bytes were not the protocol magic.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u16),
    /// A frame declared a payload longer than the configured cap.
    Oversized {
        /// Declared payload length.
        declared: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The stream ended mid-handshake or mid-frame.
    Truncated,
    /// The frame kind byte is not part of the grammar.
    UnknownKind(u8),
    /// A structurally invalid payload (bad counts, trailing bytes, bad UTF-8).
    Malformed(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad protocol magic {m:02x?} (want {MAGIC:02x?})"),
            FrameError::BadVersion(v) => {
                write!(f, "peer speaks protocol version {v}, this build speaks {VERSION}")
            }
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} payload bytes, cap is {max}")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// Writes the 6-byte handshake (`MAGIC` + `VERSION` LE).
pub fn write_handshake(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())
}

/// Reads and validates the peer's handshake.
pub fn read_handshake(r: &mut impl Read) -> Result<(), FrameError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut version = [0u8; 2];
    r.read_exact(&mut version)?;
    let version = u16::from_le_bytes(version);
    if version != VERSION {
        return Err(FrameError::BadVersion(version));
    }
    Ok(())
}

/// Writes one frame: `kind (u8) | len (u32 LE) | payload`.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&[kind])?;
    w.write_all(&payload_len(payload.len())?.to_le_bytes())?;
    w.write_all(payload)
}

/// Writes one frame whose payload is `head` followed by `tail`, in two
/// writes: the frame header with the small `head`, then the borrowed `tail`
/// (a block shared between frames, which therefore is never copied).
pub(crate) fn write_frame_split(
    w: &mut impl Write,
    kind: u8,
    head: &[u8],
    tail: &[u8],
) -> io::Result<()> {
    let len = payload_len(head.len() + tail.len())?;
    let mut first = Vec::with_capacity(5 + head.len());
    first.push(kind);
    first.extend_from_slice(&len.to_le_bytes());
    first.extend_from_slice(head);
    w.write_all(&first)?;
    w.write_all(tail)
}

fn payload_len(len: usize) -> io::Result<u32> {
    u32::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 length"))
}

/// Reads one frame, allocating at most `max_len` payload bytes.
///
/// A declared length above `max_len` is rejected *before* any allocation —
/// this is the bound that keeps a hostile peer from requesting gigabytes
/// with five header bytes.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Frame, FrameError> {
    let mut header = [0u8; 5];
    r.read_exact(&mut header)?;
    let kind = header[0];
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    if len > max_len {
        return Err(FrameError::Oversized { declared: len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame { kind, payload })
}

/// Little-endian append helpers for payload construction.
pub(crate) mod put {
    /// Appends a `u32` LE.
    pub fn u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` LE.
    pub fn u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `u32` slice (`count` then raw LE words).
    pub fn u32s(buf: &mut Vec<u8>, vs: &[u32]) {
        u32(buf, vs.len() as u32);
        for &v in vs {
            u32(buf, v);
        }
    }

    /// Appends a length-prefixed `f32` slice (`count` then raw LE words).
    pub fn f32s(buf: &mut Vec<u8>, vs: &[f32]) {
        u32(buf, vs.len() as u32);
        for &v in vs {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends length-prefixed UTF-8 bytes.
    pub fn str(buf: &mut Vec<u8>, s: &str) {
        u32(buf, s.len() as u32);
        buf.extend_from_slice(s.as_bytes());
    }
}

/// A bounds-checked cursor over a frame payload. Every read validates the
/// remaining length first, so decoding hostile bytes can only ever produce a
/// [`FrameError::Malformed`], and declared element counts are checked against
/// the bytes actually present *before* any allocation.
pub(crate) struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Malformed(what))?;
        if end > self.buf.len() {
            return Err(FrameError::Malformed(what));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub fn u32(&mut self, what: &'static str) -> Result<u32, FrameError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self, what: &'static str) -> Result<u64, FrameError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Length-prefixed `u32` slice; the count is validated against the
    /// remaining payload before the vector is sized.
    pub fn u32s(&mut self, what: &'static str) -> Result<Vec<u32>, FrameError> {
        let count = self.u32(what)? as usize;
        let bytes = self.take(count.checked_mul(4).ok_or(FrameError::Malformed(what))?, what)?;
        Ok(bytes.chunks_exact(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
    }

    /// Length-prefixed `f32` slice, same validation discipline.
    pub fn f32s(&mut self, what: &'static str) -> Result<Vec<f32>, FrameError> {
        let count = self.u32(what)? as usize;
        let bytes = self.take(count.checked_mul(4).ok_or(FrameError::Malformed(what))?, what)?;
        Ok(bytes.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect())
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &'static str) -> Result<String, FrameError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed(what))
    }

    /// Fails unless the payload was consumed exactly.
    pub fn finish(self, what: &'static str) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed(what))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, &[1, 2, 3]).unwrap();
        let frame = read_frame(&mut Cursor::new(&buf), DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(frame, Frame { kind: 7, payload: vec![1, 2, 3] });
    }

    #[test]
    fn handshake_roundtrip_and_rejections() {
        let mut buf = Vec::new();
        write_handshake(&mut buf).unwrap();
        assert_eq!(buf.len(), 6);
        read_handshake(&mut Cursor::new(&buf)).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_handshake(&mut Cursor::new(&bad_magic)),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad_version = buf.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            read_handshake(&mut Cursor::new(&bad_version)),
            Err(FrameError::BadVersion(_))
        ));

        assert!(matches!(read_handshake(&mut Cursor::new(&buf[..3])), Err(FrameError::Truncated)));
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_allocation() {
        // Five header bytes declaring a 4 GiB-1 payload: must error, not OOM.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf), 1024),
            Err(FrameError::Oversized { declared: u32::MAX, max: 1024 })
        ));
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 2, &[0u8; 100]).unwrap();
        for cut in [0, 3, 5, 50, 104] {
            assert!(
                matches!(
                    read_frame(&mut Cursor::new(&buf[..cut]), DEFAULT_MAX_FRAME_LEN),
                    Err(FrameError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }
}
