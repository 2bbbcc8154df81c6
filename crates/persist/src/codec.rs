//! The low-level container format: a magic/version header followed by
//! length-prefixed, individually checksummed **sections**.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "DAIP"  magic                                   4 bytes
//! u16     container format version (FORMAT_VERSION)
//! u16     reserved flags (0)
//! then, repeated until end of file:
//!   [u8;4]  section tag ("SESS", "FUNC", …)
//!   u16     section payload version
//!   u64     payload length
//!   bytes   payload
//!   u64     checksum of the payload (FxHash64 over bytes + length)
//! ```
//!
//! The framing is what makes persistence *lossy by section*: a reader can
//! always locate the next section boundary from the length prefix, verify
//! the payload independently via its checksum, and skip a damaged or
//! version-skewed section without giving up on the rest of the file. A
//! truncated file simply yields fewer sections (the cut-off one is
//! reported as damaged). Which sections are *allowed* to be dropped is the
//! caller's policy — see [`crate::snapshot`].

use crate::frame::{split_frame, write_frame};
use std::fmt;

pub use crate::frame::checksum;

/// The 4-byte file magic.
pub const MAGIC: [u8; 4] = *b"DAIP";

/// The container format version. Bumped only when the *framing* changes;
/// section payloads carry their own versions.
pub const FORMAT_VERSION: u16 = 1;

/// Section tag: the per-session header (source, edit history, strategy).
pub const TAG_SESSION: [u8; 4] = *b"SESS";
/// Section tag: one demanded function's DAIG (structure + values).
pub const TAG_FUNC: [u8; 4] = *b"FUNC";

/// Failures surfaced by snapshot encoding/decoding.
///
/// Note the asymmetry with the lossy design: most decoding problems in
/// *optional* sections never become a `PersistError` — they are counted in
/// a [`crate::snapshot::RestoreReport`] instead. Errors are reserved for
/// problems that make the whole file unusable (bad magic, unsupported
/// container version, a damaged required section) or for I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input ended before a fixed-size field was complete.
    Truncated,
    /// Structurally invalid data (bad tag, impossible count, failed
    /// invariant revalidation).
    Corrupt(String),
    /// The file is not a snapshot (wrong magic).
    NotASnapshot,
    /// The container format version is not supported by this build.
    UnsupportedVersion(u16),
    /// A required section is missing or damaged.
    RequiredSection(&'static str),
    /// Filesystem failure.
    Io(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "snapshot data ends mid-field"),
            PersistError::Corrupt(m) => write!(f, "corrupt snapshot data: {m}"),
            PersistError::NotASnapshot => write!(f, "not a dai snapshot (bad magic)"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot container version {v}")
            }
            PersistError::RequiredSection(tag) => {
                write!(f, "required snapshot section `{tag}` missing or damaged")
            }
            PersistError::Io(m) => write!(f, "snapshot i/o: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// An append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Overwrites the `u64` written at byte offset `at` — for a count that
    /// leads what it counts and is known only once that is written.
    pub fn set_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// A bounds-checked cursor over encoded bytes.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once every byte is consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of input.
    pub fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of input.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of input.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] at end of input.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`PersistError::Truncated`] / [`PersistError::Corrupt`] for bad
    /// lengths or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, PersistError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string as a borrow of the input —
    /// the allocation-free path for decoders that intern or copy into
    /// their own representation ([`Symbol`](dai_lang::Symbol)s in
    /// particular, which octagon states carry by the dozen).
    ///
    /// # Errors
    ///
    /// As [`Reader::str`].
    pub fn str_ref(&mut self) -> Result<&'a str, PersistError> {
        let n = self.len_prefix()?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map_err(|_| PersistError::Corrupt("invalid UTF-8 in string".to_string()))
    }

    /// Reads a `u64` length/count prefix, rejecting values that exceed the
    /// remaining input (a corrupted count must fail fast, not attempt a
    /// multi-gigabyte allocation).
    pub fn len_prefix(&mut self) -> Result<usize, PersistError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(PersistError::Corrupt(format!(
                "length prefix {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }
}

/// Builds a snapshot file: header plus appended sections.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

impl SnapshotWriter {
    /// A writer with the magic/version header in place.
    pub fn new() -> SnapshotWriter {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes()); // reserved flags
        SnapshotWriter { buf }
    }

    /// Appends one section: tag, payload version, length, payload,
    /// checksum — one [`crate::frame`] frame, the same layout `dai-rpc`
    /// sends over sockets.
    pub fn section(&mut self, tag: [u8; 4], version: u16, payload: &[u8]) {
        write_frame(&mut self.buf, tag, version, payload);
    }

    /// The finished file bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// One section as found in a snapshot file.
#[derive(Debug, Clone, Copy)]
pub struct RawSection<'a> {
    /// The 4-byte tag.
    pub tag: [u8; 4],
    /// The payload version the writer recorded.
    pub version: u16,
    /// The payload, if its checksum verified; `None` for a damaged
    /// (checksum-mismatched or truncated) section.
    pub payload: Option<&'a [u8]>,
}

/// The parsed section list of a snapshot file.
#[derive(Debug)]
pub struct SectionList<'a> {
    /// Sections in file order, damaged ones included with `payload: None`.
    pub sections: Vec<RawSection<'a>>,
    /// `true` if the file ended mid-section (everything before the cut is
    /// still usable).
    pub truncated: bool,
}

/// Splits a snapshot file into its sections, verifying the header and each
/// payload checksum. Damage is *contained*: a bad checksum or a trailing
/// truncation marks that one section damaged without failing the parse.
///
/// # Errors
///
/// [`PersistError::NotASnapshot`] / [`PersistError::UnsupportedVersion`]
/// when the header itself is unusable.
pub fn read_sections(bytes: &[u8]) -> Result<SectionList<'_>, PersistError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(4).map_err(|_| PersistError::NotASnapshot)?;
    if magic != MAGIC {
        return Err(PersistError::NotASnapshot);
    }
    let version = r.u16().map_err(|_| PersistError::NotASnapshot)?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let _flags = r.u16().map_err(|_| PersistError::NotASnapshot)?;
    let mut rest = r.take(r.remaining()).expect("remaining bytes");
    let mut sections = Vec::new();
    let mut truncated = false;
    while !rest.is_empty() {
        let Some(frame) = split_frame(rest) else {
            // Not even a complete header remains.
            truncated = true;
            break;
        };
        sections.push(RawSection {
            tag: frame.header.tag,
            version: frame.header.version,
            payload: frame.payload,
        });
        if frame.truncated {
            // The payload or its checksum was cut off: the section was
            // recorded as damaged and no resync point exists.
            truncated = true;
            break;
        }
        rest = &rest[frame.consumed..];
    }
    Ok(SectionList {
        sections,
        truncated,
    })
}

/// Rewrites a snapshot file without any section whose tag is `tag`.
/// Damaged trailing data is dropped too. Used by tests to build cold
/// restore points from one full snapshot.
///
/// # Errors
///
/// Propagates header errors from [`read_sections`].
pub fn strip_sections(bytes: &[u8], tag: [u8; 4]) -> Result<Vec<u8>, PersistError> {
    let list = read_sections(bytes)?;
    let mut out = SnapshotWriter::new();
    for s in list.sections {
        if s.tag == tag {
            continue;
        }
        if let Some(payload) = s.payload {
            out.section(s.tag, s.version, payload);
        }
    }
    Ok(out.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip_primitives() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.i64(-42);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_exhausted());
        assert_eq!(r.u8(), Err(PersistError::Truncated));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.len_prefix(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn sections_roundtrip_and_verify() {
        let mut sw = SnapshotWriter::new();
        sw.section(TAG_SESSION, 1, b"hello");
        sw.section(TAG_FUNC, 2, b"world!");
        let bytes = sw.into_bytes();
        let list = read_sections(&bytes).unwrap();
        assert!(!list.truncated);
        assert_eq!(list.sections.len(), 2);
        assert_eq!(list.sections[0].tag, TAG_SESSION);
        assert_eq!(list.sections[0].version, 1);
        assert_eq!(list.sections[0].payload, Some(&b"hello"[..]));
        assert_eq!(list.sections[1].payload, Some(&b"world!"[..]));
    }

    #[test]
    fn flipped_byte_damages_only_its_section() {
        let mut sw = SnapshotWriter::new();
        sw.section(TAG_SESSION, 1, b"intact");
        sw.section(TAG_FUNC, 1, b"to-be-damaged");
        let mut bytes = sw.into_bytes();
        // Flip one byte inside the second payload.
        let at = bytes.len() - 10;
        bytes[at] ^= 0xFF;
        let list = read_sections(&bytes).unwrap();
        assert_eq!(list.sections[0].payload, Some(&b"intact"[..]));
        assert_eq!(list.sections[1].payload, None, "checksum must catch it");
        assert!(!list.truncated);
    }

    #[test]
    fn truncation_keeps_complete_prefix() {
        let mut sw = SnapshotWriter::new();
        sw.section(TAG_SESSION, 1, b"first");
        sw.section(TAG_FUNC, 1, b"second-section-payload");
        let bytes = sw.into_bytes();
        for cut in 9..bytes.len() {
            let list = read_sections(&bytes[..cut]).unwrap();
            for s in &list.sections {
                if let Some(p) = s.payload {
                    // Any payload that survives a cut must be genuine.
                    assert!(p == b"first" || p == b"second-section-payload");
                }
            }
        }
        // Header-only truncation is a header error, not a panic.
        assert!(read_sections(&bytes[..3]).is_err());
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        assert_eq!(
            read_sections(b"NOPE....").unwrap_err(),
            PersistError::NotASnapshot
        );
        let mut bytes = SnapshotWriter::new().into_bytes();
        bytes[4] = 0xFF; // mangle the format version
        assert!(matches!(
            read_sections(&bytes),
            Err(PersistError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn strip_removes_tagged_sections() {
        let mut sw = SnapshotWriter::new();
        sw.section(TAG_SESSION, 1, b"keep");
        sw.section(TAG_FUNC, 1, b"drop");
        sw.section(TAG_SESSION, 1, b"keep2");
        let stripped = strip_sections(&sw.into_bytes(), TAG_FUNC).unwrap();
        let list = read_sections(&stripped).unwrap();
        assert_eq!(list.sections.len(), 2);
        assert!(list.sections.iter().all(|s| s.tag != TAG_FUNC));
    }
}
