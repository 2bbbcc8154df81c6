//! Journal records and their frame codec.
//!
//! Each record is one [`dai_persist::frame`] frame — the same
//! `tag + version + length + payload + FxHash64` layout the snapshot
//! container and the RPC socket use — so journal bytes read off disk can
//! be shipped to a follower verbatim. The payload opens with three
//! sequence numbers (global, session id, per-session) so ordering and
//! attribution survive with no out-of-band state.

use dai_core::driver::ProgramEdit;
use dai_persist::{split_frame, write_frame, Persist, PersistError, Reader, Writer};

/// Frame tag: a session came into existence (name + program source).
pub const TAG_JOURNAL_OPEN: [u8; 4] = *b"JOPN";
/// Frame tag: one [`ProgramEdit`] applied to a session.
pub const TAG_JOURNAL_EDIT: [u8; 4] = *b"JEDT";
/// Frame tag: a session was closed.
pub const TAG_JOURNAL_CLOSE: [u8; 4] = *b"JCLS";
/// Retired frame tag: memo entries, which older binaries journaled on
/// every save. Readers step over such a frame without decoding it, and
/// compaction drops it; nothing writes one.
pub const TAG_JOURNAL_MEMO: [u8; 4] = *b"JMEM";
/// Frame tag: a full `DAIP` snapshot of a session, written by
/// compaction; replaces that session's earlier frames.
pub const TAG_JOURNAL_SNAP: [u8; 4] = *b"JSNP";

/// Payload version for every journal frame kind.
pub const JOURNAL_VERSION: u16 = 1;

/// What happened, without the sequencing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A session opened with this name and program source. Replaying it
    /// re-parses and re-lowers the source, which is deterministic.
    Open {
        /// Human-readable session name.
        name: String,
        /// Full program source text at open.
        source: String,
    },
    /// One structural edit applied to the session's program.
    Edit {
        /// The edit, encoded via its existing [`Persist`] impl.
        edit: ProgramEdit,
    },
    /// The session closed.
    Close,
    /// A full `DAIP` snapshot container for the session (compaction).
    Snapshot {
        /// `SessionImage::to_bytes` output.
        bytes: Vec<u8>,
    },
}

impl JournalRecord {
    /// The frame tag this record serializes under.
    pub fn tag(&self) -> [u8; 4] {
        match self {
            JournalRecord::Open { .. } => TAG_JOURNAL_OPEN,
            JournalRecord::Edit { .. } => TAG_JOURNAL_EDIT,
            JournalRecord::Close => TAG_JOURNAL_CLOSE,
            JournalRecord::Snapshot { .. } => TAG_JOURNAL_SNAP,
        }
    }

    /// Short human name for logs and REPL output.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::Open { .. } => "open",
            JournalRecord::Edit { .. } => "edit",
            JournalRecord::Close => "close",
            JournalRecord::Snapshot { .. } => "snapshot",
        }
    }
}

/// One fully-attributed journal entry: the record plus where it sits in
/// the global and per-session orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global, strictly monotonic sequence number. Survives compaction:
    /// snapshot frames take *fresh* sequence numbers, so a follower's
    /// cursor stays valid across a leader compaction.
    pub seq: u64,
    /// Journal-side session id (the leader's `SessionId` value).
    pub session: u64,
    /// Per-session monotonic sequence number, starting at 1 at `Open`.
    pub session_seq: u64,
    /// The record itself.
    pub record: JournalRecord,
}

impl JournalEntry {
    /// Appends this entry to `out` as one checksummed frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new();
        w.u64(self.seq);
        w.u64(self.session);
        w.u64(self.session_seq);
        match &self.record {
            JournalRecord::Open { name, source } => {
                w.str(name);
                w.str(source);
            }
            JournalRecord::Edit { edit } => edit.put(&mut w),
            JournalRecord::Close => {}
            JournalRecord::Snapshot { bytes } => {
                w.u64(bytes.len() as u64);
                w.bytes(bytes);
            }
        }
        write_frame(out, self.record.tag(), JOURNAL_VERSION, &w.into_bytes());
    }

    /// The entry as a standalone frame (header + payload + checksum).
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes one verified frame payload back into an entry.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on an unknown tag, wrong version, or malformed
    /// payload.
    pub fn decode(
        tag: [u8; 4],
        version: u16,
        payload: &[u8],
    ) -> Result<JournalEntry, PersistError> {
        if version != JOURNAL_VERSION {
            return Err(PersistError::Corrupt(format!(
                "journal frame version {version} (expected {JOURNAL_VERSION})"
            )));
        }
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let session = r.u64()?;
        let session_seq = r.u64()?;
        let record = match tag {
            TAG_JOURNAL_OPEN => JournalRecord::Open {
                name: r.str()?,
                source: r.str()?,
            },
            TAG_JOURNAL_EDIT => JournalRecord::Edit {
                edit: ProgramEdit::get(&mut r)?,
            },
            TAG_JOURNAL_CLOSE => JournalRecord::Close,
            TAG_JOURNAL_SNAP => {
                let n = r.len_prefix()?;
                JournalRecord::Snapshot {
                    bytes: r.take(n)?.to_vec(),
                }
            }
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown journal frame tag {other:?}"
                )))
            }
        };
        if !r.is_exhausted() {
            return Err(PersistError::Corrupt(format!(
                "journal {} frame has {} trailing bytes",
                record.kind(),
                r.remaining()
            )));
        }
        Ok(JournalEntry {
            seq,
            session,
            session_seq,
            record,
        })
    }
}

/// Whether `tag` names one of the journal frame kinds, the retired one
/// included.
pub fn is_journal_tag(tag: [u8; 4]) -> bool {
    matches!(
        tag,
        TAG_JOURNAL_OPEN
            | TAG_JOURNAL_EDIT
            | TAG_JOURNAL_CLOSE
            | TAG_JOURNAL_MEMO
            | TAG_JOURNAL_SNAP
    )
}

/// The result of scanning a byte run for journal frames.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replay {
    /// Entries decoded from the longest clean prefix, in order.
    pub entries: Vec<JournalEntry>,
    /// Bytes of that clean prefix — recovery truncates the file here.
    pub good_len: usize,
    /// Bytes abandoned after the clean prefix (torn tail, bit rot, or
    /// foreign bytes). Zero for a clean journal.
    pub damaged_len: usize,
}

/// Scans `bytes` front to back, decoding frames until the first torn,
/// checksum-damaged, or undecodable frame, then stops — the PR 3 rule:
/// an unreadable suffix costs warmth, never soundness, because every
/// clean prefix of a journal is a consistent (older) state.
pub fn replay_bytes(bytes: &[u8]) -> Replay {
    let mut entries = Vec::new();
    let good_len = scan_frames(bytes, |entry, _| {
        entries.push(entry);
        true
    });
    Replay {
        good_len,
        damaged_len: bytes.len() - good_len,
        entries,
    }
}

/// The walk behind [`replay_bytes`]: hands each clean frame's entry and
/// raw bytes to `visit` while it returns `true`, stepping over retired
/// frames and stopping at the first torn, damaged, foreign or undecodable
/// frame. Returns how many bytes were walked.
pub(crate) fn scan_frames(
    bytes: &[u8],
    mut visit: impl FnMut(JournalEntry, &[u8]) -> bool,
) -> usize {
    let mut offset = 0usize;
    while offset < bytes.len() {
        let Some(split) = split_frame(&bytes[offset..]) else {
            break; // fewer bytes than a header: torn tail
        };
        let Some(payload) = split.payload else {
            break; // truncated or checksum-damaged frame
        };
        if !is_journal_tag(split.header.tag) {
            break; // foreign bytes: treat like damage, stop cleanly
        }
        if split.header.tag == TAG_JOURNAL_MEMO {
            offset += split.consumed;
            continue;
        }
        let Ok(entry) = JournalEntry::decode(split.header.tag, split.header.version, payload)
        else {
            break; // verified checksum but unreadable payload
        };
        let frame = &bytes[offset..offset + split.consumed];
        offset += split.consumed;
        if !visit(entry, frame) {
            break;
        }
    }
    offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_core::driver::ProgramEdit;
    use dai_lang::{EdgeId, Stmt, Symbol};

    fn sample_entries() -> Vec<JournalEntry> {
        vec![
            JournalEntry {
                seq: 1,
                session: 7,
                session_seq: 1,
                record: JournalRecord::Open {
                    name: "main-session".into(),
                    source: "fn main() { x = 1; }".into(),
                },
            },
            JournalEntry {
                seq: 2,
                session: 7,
                session_seq: 2,
                record: JournalRecord::Edit {
                    edit: ProgramEdit::Relabel {
                        func: Symbol::from("main"),
                        edge: EdgeId(0),
                        stmt: Stmt::Skip,
                    },
                },
            },
            JournalEntry {
                seq: 3,
                session: 7,
                session_seq: 3,
                record: JournalRecord::Snapshot { bytes: vec![9; 64] },
            },
            JournalEntry {
                seq: 4,
                session: 7,
                session_seq: 4,
                record: JournalRecord::Close,
            },
        ]
    }

    #[test]
    fn entries_roundtrip_through_frames() {
        let entries = sample_entries();
        let mut bytes = Vec::new();
        for e in &entries {
            e.encode_into(&mut bytes);
        }
        let replay = replay_bytes(&bytes);
        assert_eq!(replay.entries, entries);
        assert_eq!(replay.good_len, bytes.len());
        assert_eq!(replay.damaged_len, 0);
    }

    #[test]
    fn every_prefix_truncation_stops_at_a_frame_boundary() {
        let entries = sample_entries();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for e in &entries {
            e.encode_into(&mut bytes);
            boundaries.push(bytes.len());
        }
        for cut in 0..bytes.len() {
            let replay = replay_bytes(&bytes[..cut]);
            // good_len is the largest boundary ≤ cut.
            let expect = *boundaries.iter().filter(|b| **b <= cut).max().unwrap();
            assert_eq!(replay.good_len, expect, "cut at {cut}");
            let n = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(replay.entries.len(), n, "cut at {cut}");
            assert_eq!(replay.entries[..], entries[..n], "cut at {cut}");
        }
    }

    #[test]
    fn every_byte_flip_keeps_a_clean_prefix() {
        let entries = sample_entries();
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for e in &entries {
            e.encode_into(&mut bytes);
            boundaries.push(bytes.len());
        }
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 0x41;
            let replay = replay_bytes(&mutated);
            // Every decoded entry must be one of the originals, in
            // order from the front — a flip never fabricates state.
            assert!(replay.entries.len() <= entries.len(), "flip at {pos}");
            assert_eq!(
                replay.entries[..],
                entries[..replay.entries.len()],
                "flip at {pos}"
            );
            // The frame containing the flipped byte (or one before it)
            // must be rejected: the clean prefix ends at or before the
            // flipped frame's start boundary.
            let frame_start = *boundaries.iter().filter(|b| **b <= pos).max().unwrap();
            assert!(replay.good_len <= frame_start, "flip at {pos}");
        }
    }
}
