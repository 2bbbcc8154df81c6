//! The one frame layout shared by every consumer of `dai` on-disk and
//! on-wire bytes: a fixed header (4-byte tag, `u16` payload version,
//! `u64` payload length), an **optional** `u64` request id, the payload,
//! and a trailing FxHash64 checksum.
//!
//! ```text
//! [u8;4]  tag        ("SESS", "FUNC", "RPCQ", "RPCS", …)
//! u16     version    payload version (snapshot sections) or protocol
//!                    version (RPC messages)
//! u64     length     payload length in bytes
//! [u64    id]        request id — present only when the (tag, version)
//!                    pair declares it (RPC protocol ≥ 4); snapshot
//!                    sections and older RPC frames have no id field
//! bytes   payload
//! u64     checksum   FxHash64 over payload bytes + length + id (see
//!                    [`checksum_with`]; id-less frames keep the
//!                    original [`checksum`])
//! ```
//!
//! Snapshot files (`dai_persist::codec`) concatenate frames after a file
//! header; the RPC transport (`dai-rpc`) sends exactly one frame per
//! message. Both use *this* implementation — the framing exists once, so
//! a framing bug (or fix) cannot diverge between disk and wire.
//!
//! Whether a frame carries the id field is a property of its `(tag,
//! version)` pair, decided by the *caller*: this module cannot know
//! which protocols multiplex, so the stream reader takes a predicate
//! ([`read_frame_expecting`]) and the writer an explicit `Option<u64>`
//! ([`write_frame_id`]). The checksum covers the id, so a flipped id
//! byte is caught exactly like a flipped payload byte.
//!
//! Two read styles are provided:
//!
//! * [`split_frame`] — zero-copy over an in-memory byte slice, reporting
//!   damage (checksum mismatch) and truncation distinctly so snapshot
//!   parsing can stay lossy-by-section;
//! * [`read_frame`] — blocking read from an [`std::io::Read`] stream,
//!   with an explicit length bound so a hostile peer cannot make the
//!   reader allocate unbounded memory from one lying header.

use dai_memo::FxHasher64;
use std::hash::Hasher;
use std::io::Read;

/// Byte length of the fixed frame header (tag + version + length).
pub const FRAME_HEADER_LEN: usize = 4 + 2 + 8;

/// Byte length of the frame trailer (the checksum).
pub const FRAME_TRAILER_LEN: usize = 8;

/// Byte length of the optional request-id field.
pub const FRAME_ID_LEN: usize = 8;

/// The payload checksum: FxHash64 over the bytes plus the length (so a
/// truncation to a prefix that happens to hash equal is still caught).
pub fn checksum(bytes: &[u8]) -> u64 {
    checksum_with(bytes, None)
}

/// [`checksum`] extended to cover the optional request id, so an id
/// corrupted in flight fails verification like a corrupted payload.
/// `checksum_with(bytes, None)` is exactly [`checksum`]`(bytes)`.
pub fn checksum_with(bytes: &[u8], id: Option<u64>) -> u64 {
    let mut h = FxHasher64::default();
    h.write(bytes);
    h.write_u64(bytes.len() as u64);
    if let Some(id) = id {
        h.write_u64(id);
    }
    h.finish()
}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// The 4-byte tag naming what the payload is.
    pub tag: [u8; 4],
    /// The writer's payload/protocol version.
    pub version: u16,
    /// Declared payload length in bytes.
    pub len: u64,
}

impl FrameHeader {
    /// Encodes the header into its wire bytes.
    pub fn encode(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        out[..4].copy_from_slice(&self.tag);
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6..14].copy_from_slice(&self.len.to_le_bytes());
        out
    }

    /// Decodes a header from exactly [`FRAME_HEADER_LEN`] bytes.
    pub fn decode(bytes: &[u8; FRAME_HEADER_LEN]) -> FrameHeader {
        FrameHeader {
            tag: bytes[..4].try_into().expect("4 tag bytes"),
            version: u16::from_le_bytes(bytes[4..6].try_into().expect("2 version bytes")),
            len: u64::from_le_bytes(bytes[6..14].try_into().expect("8 length bytes")),
        }
    }
}

/// Appends one complete frame (header + payload + checksum) to `out`.
pub fn write_frame(out: &mut Vec<u8>, tag: [u8; 4], version: u16, payload: &[u8]) {
    write_frame_id(out, tag, version, None, payload);
}

/// [`write_frame`] with an optional request id between the header and
/// the payload. Passing `Some(id)` is only meaningful when the `(tag,
/// version)` pair declares the id field — the reader must expect it
/// ([`read_frame_expecting`]) or the id bytes parse as payload.
pub fn write_frame_id(
    out: &mut Vec<u8>,
    tag: [u8; 4],
    version: u16,
    id: Option<u64>,
    payload: &[u8],
) {
    let header = FrameHeader {
        tag,
        version,
        len: payload.len() as u64,
    };
    let id_len = if id.is_some() { FRAME_ID_LEN } else { 0 };
    out.reserve(FRAME_HEADER_LEN + id_len + payload.len() + FRAME_TRAILER_LEN);
    out.extend_from_slice(&header.encode());
    if let Some(id) = id {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum_with(payload, id).to_le_bytes());
}

/// One frame split off the front of a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct SplitFrame<'a> {
    /// The frame's header (always readable when `split_frame` returns
    /// `Some`).
    pub header: FrameHeader,
    /// The payload, if it was complete and its checksum verified; `None`
    /// for a damaged (checksum-mismatched) or truncated frame.
    pub payload: Option<&'a [u8]>,
    /// `true` when the input ended before the declared payload and
    /// checksum were complete (no further frame can follow).
    pub truncated: bool,
    /// Bytes consumed from the input (header + payload + trailer, or
    /// everything remaining when truncated).
    pub consumed: usize,
}

/// Splits one frame off the front of `bytes`. Returns `None` when not
/// even a complete header remains (the caller decides whether trailing
/// garbage is truncation or a clean end).
pub fn split_frame(bytes: &[u8]) -> Option<SplitFrame<'_>> {
    if bytes.len() < FRAME_HEADER_LEN {
        return None;
    }
    let header = FrameHeader::decode(
        bytes[..FRAME_HEADER_LEN]
            .try_into()
            .expect("checked header length"),
    );
    let body = &bytes[FRAME_HEADER_LEN..];
    let Some(need) = (header.len as usize)
        .checked_add(FRAME_TRAILER_LEN)
        .filter(|&n| n <= body.len())
    else {
        // The payload or its checksum is cut off: everything remaining is
        // consumed and no payload can be trusted.
        return Some(SplitFrame {
            header,
            payload: None,
            truncated: true,
            consumed: bytes.len(),
        });
    };
    let payload = &body[..header.len as usize];
    let sum = u64::from_le_bytes(
        body[header.len as usize..need]
            .try_into()
            .expect("8 checksum bytes"),
    );
    Some(SplitFrame {
        header,
        payload: (checksum(payload) == sum).then_some(payload),
        truncated: false,
        consumed: FRAME_HEADER_LEN + need,
    })
}

/// A frame read from a byte stream.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// The frame's header.
    pub header: FrameHeader,
    /// The request id, when the caller's predicate declared the frame's
    /// `(tag, version)` pair as id-carrying ([`read_frame_expecting`]).
    pub id: Option<u64>,
    /// The payload, if complete and checksum-verified; `None` when the
    /// payload bytes arrived but the checksum did not match.
    pub payload: Option<Vec<u8>>,
}

/// What went wrong reading a frame from a stream.
#[derive(Debug)]
pub enum FrameReadError {
    /// The stream ended cleanly before any header byte — no frame was in
    /// flight (a peer hung up between messages).
    Eof,
    /// The stream ended mid-frame (header or payload cut off).
    Truncated,
    /// The header declared a payload larger than the caller's bound; no
    /// payload bytes were consumed past the header.
    Oversized {
        /// The declared payload length.
        declared: u64,
        /// The caller's bound it exceeded.
        bound: usize,
    },
    /// Transport failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Eof => write!(f, "stream closed between frames"),
            FrameReadError::Truncated => write!(f, "stream ended mid-frame"),
            FrameReadError::Oversized { declared, bound } => {
                write!(f, "declared frame length {declared} exceeds bound {bound}")
            }
            FrameReadError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Reads exactly `buf.len()` bytes, mapping a clean EOF at offset 0 to
/// `Ok(false)` and a mid-buffer EOF to [`FrameReadError::Truncated`].
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, FrameReadError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(FrameReadError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one complete frame from `r`, allocating at most `max_payload`
/// bytes for the payload. An over-declared length consumes only the
/// header, so a transport that answers the error and keeps reading stays
/// in sync with a peer that never actually sent the oversized payload.
///
/// # Errors
///
/// See [`FrameReadError`]; a checksum mismatch is *not* an error here —
/// the frame arrives with `payload: None` so the caller can answer it in
/// protocol (mirroring the lossy snapshot sections).
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<StreamFrame, FrameReadError> {
    read_frame_expecting(r, max_payload, |_| false)
}

/// [`read_frame`] for protocols that multiplex: `expect_id` decides from
/// the decoded header whether a `u64` request id sits between the
/// length field and the payload (the RPC transport answers `true` for
/// its tags at protocol ≥ 4). The id is covered by the checksum
/// ([`checksum_with`]); on a mismatch the frame still arrives — with
/// `payload: None` and the id *as read* — so a transport can answer the
/// damaged request in protocol under a best-effort id.
///
/// # Errors
///
/// As [`read_frame`]. An oversized declared length consumes the header
/// and (when expected) the id, nothing more.
pub fn read_frame_expecting(
    r: &mut impl Read,
    max_payload: usize,
    expect_id: impl FnOnce(&FrameHeader) -> bool,
) -> Result<StreamFrame, FrameReadError> {
    let mut header_bytes = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut header_bytes)? {
        return Err(FrameReadError::Eof);
    }
    let header = FrameHeader::decode(&header_bytes);
    let id = if expect_id(&header) {
        let mut id_bytes = [0u8; FRAME_ID_LEN];
        if !read_exact_or_eof(r, &mut id_bytes)? {
            return Err(FrameReadError::Truncated);
        }
        Some(u64::from_le_bytes(id_bytes))
    } else {
        None
    };
    if header.len > max_payload as u64 {
        return Err(FrameReadError::Oversized {
            declared: header.len,
            bound: max_payload,
        });
    }
    let mut payload = vec![0u8; header.len as usize];
    if !read_exact_or_eof(r, &mut payload)? {
        return Err(FrameReadError::Truncated);
    }
    let mut sum_bytes = [0u8; FRAME_TRAILER_LEN];
    if !read_exact_or_eof(r, &mut sum_bytes)? {
        return Err(FrameReadError::Truncated);
    }
    let sum = u64::from_le_bytes(sum_bytes);
    let verified = checksum_with(&payload, id) == sum;
    Ok(StreamFrame {
        header,
        id,
        payload: verified.then_some(payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips() {
        let h = FrameHeader {
            tag: *b"RPCQ",
            version: 7,
            len: 123_456,
        };
        assert_eq!(FrameHeader::decode(&h.encode()), h);
    }

    #[test]
    fn split_frame_verifies_and_consumes() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, *b"AAAA", 1, b"hello");
        write_frame(&mut bytes, *b"BBBB", 2, b"world!");
        let first = split_frame(&bytes).unwrap();
        assert_eq!(first.header.tag, *b"AAAA");
        assert_eq!(first.payload, Some(&b"hello"[..]));
        let second = split_frame(&bytes[first.consumed..]).unwrap();
        assert_eq!(second.header.tag, *b"BBBB");
        assert_eq!(second.header.version, 2);
        assert_eq!(second.payload, Some(&b"world!"[..]));
        assert_eq!(first.consumed + second.consumed, bytes.len());
    }

    #[test]
    fn split_frame_flags_damage_and_truncation() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, *b"AAAA", 1, b"payload");
        let mut flipped = bytes.clone();
        flipped[FRAME_HEADER_LEN + 2] ^= 0xFF;
        let f = split_frame(&flipped).unwrap();
        assert!(f.payload.is_none(), "checksum must catch the flip");
        assert!(!f.truncated);
        let cut = split_frame(&bytes[..bytes.len() - 1]).unwrap();
        assert!(cut.truncated);
        assert!(cut.payload.is_none());
        assert!(split_frame(&bytes[..FRAME_HEADER_LEN - 1]).is_none());
    }

    #[test]
    fn stream_read_roundtrips_and_bounds_length() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, *b"RPCQ", 3, b"abc");
        let f = read_frame(&mut &bytes[..], 1024).unwrap();
        assert_eq!(f.header.tag, *b"RPCQ");
        assert_eq!(f.payload.as_deref(), Some(&b"abc"[..]));
        // Oversized declared length: only the header is consumed.
        let huge = FrameHeader {
            tag: *b"RPCQ",
            version: 1,
            len: u64::MAX,
        };
        let mut stream = huge.encode().to_vec();
        stream.extend_from_slice(&bytes);
        let mut cursor = &stream[..];
        match read_frame(&mut cursor, 1024) {
            Err(FrameReadError::Oversized { declared, .. }) => assert_eq!(declared, u64::MAX),
            other => panic!("expected oversized, got {other:?}"),
        }
        // The good frame behind it still reads: the reader stayed in sync.
        let f = read_frame(&mut cursor, 1024).unwrap();
        assert_eq!(f.payload.as_deref(), Some(&b"abc"[..]));
    }

    #[test]
    fn id_frames_roundtrip_and_checksum_covers_id() {
        let is_v4 = |h: &FrameHeader| h.tag == *b"RPCQ" && h.version >= 4;
        let mut bytes = Vec::new();
        write_frame_id(&mut bytes, *b"RPCQ", 4, Some(0xDEAD_BEEF), b"abc");
        let f = read_frame_expecting(&mut &bytes[..], 1024, is_v4).unwrap();
        assert_eq!(f.id, Some(0xDEAD_BEEF));
        assert_eq!(f.payload.as_deref(), Some(&b"abc"[..]));
        // A flipped id byte fails the checksum, but the frame still
        // arrives (with the id as read) so the peer can answer it.
        let mut flipped = bytes.clone();
        flipped[FRAME_HEADER_LEN] ^= 0x01;
        let f = read_frame_expecting(&mut &flipped[..], 1024, is_v4).unwrap();
        assert!(f.payload.is_none());
        assert_eq!(f.id, Some(0xDEAD_BEEE));
        // An id-less frame (an RPC peer older than protocol 4) through the
        // same predicate keeps the original checksum and is consumed
        // whole: the two layouts coexist on one stream.
        let mut mixed = Vec::new();
        write_frame(&mut mixed, *b"RPCQ", 3, b"legacy");
        write_frame_id(&mut mixed, *b"RPCQ", 4, Some(7), b"new");
        let mut cursor = &mixed[..];
        let old = read_frame_expecting(&mut cursor, 1024, is_v4).unwrap();
        assert_eq!(old.id, None);
        assert_eq!(old.payload.as_deref(), Some(&b"legacy"[..]));
        let new = read_frame_expecting(&mut cursor, 1024, is_v4).unwrap();
        assert_eq!(new.id, Some(7));
        assert_eq!(new.payload.as_deref(), Some(&b"new"[..]));
        assert_ne!(
            checksum_with(b"abc", Some(1)),
            checksum_with(b"abc", Some(2))
        );
        assert_eq!(checksum_with(b"abc", None), checksum(b"abc"));
    }

    #[test]
    fn oversized_id_frame_consumes_header_and_id_only() {
        let is_v4 = |h: &FrameHeader| h.tag == *b"RPCQ" && h.version >= 4;
        let huge = FrameHeader {
            tag: *b"RPCQ",
            version: 4,
            len: u64::MAX,
        };
        let mut stream = huge.encode().to_vec();
        stream.extend_from_slice(&99u64.to_le_bytes());
        let mut good = Vec::new();
        write_frame_id(&mut good, *b"RPCQ", 4, Some(3), b"ok");
        stream.extend_from_slice(&good);
        let mut cursor = &stream[..];
        assert!(matches!(
            read_frame_expecting(&mut cursor, 1024, is_v4),
            Err(FrameReadError::Oversized { .. })
        ));
        // The reader stayed in sync: the following frame parses whole.
        let f = read_frame_expecting(&mut cursor, 1024, is_v4).unwrap();
        assert_eq!(f.id, Some(3));
        assert_eq!(f.payload.as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn stream_read_reports_eof_vs_truncation() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, *b"RPCQ", 1, b"abcdef");
        assert!(matches!(
            read_frame(&mut &[][..], 64),
            Err(FrameReadError::Eof)
        ));
        for cut in 1..bytes.len() {
            assert!(
                matches!(
                    read_frame(&mut &bytes[..cut], 64),
                    Err(FrameReadError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }
}
