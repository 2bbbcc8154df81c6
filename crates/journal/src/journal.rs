//! The on-disk append-only journal.
//!
//! One file, a run of checksummed frames ([`crate::record`]). Opening
//! replays the longest clean prefix and truncates anything after it —
//! recovery IS the ordinary open path, so every test of open is a test
//! of crash recovery. Appends go to the end under a lock; `Safe`
//! durability fsyncs the file after each append batch. Compaction
//! rewrites the file as one `JSNP` snapshot frame per live session plus
//! every frame no snapshot covers (all with *fresh* sequence numbers, so
//! follower cursors survive) via the same tmp + rename + fsync dance
//! snapshots use.

use crate::record::{
    replay_bytes, scan_frames, JournalEntry, JournalRecord, Replay, TAG_JOURNAL_MEMO,
};
use dai_persist::{sync_file, sync_parent_dir, temp_sibling, Durability, PersistError};
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Fsync policy for appends and compaction (see [`Durability`]).
    pub durability: Durability,
    /// Suggest compaction after this many appended frames since the
    /// last one (`0` disables the hint; callers poll
    /// [`Journal::wants_compaction`]).
    pub compact_every: u64,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            durability: Durability::Fast,
            compact_every: 1024,
        }
    }
}

/// A batch of raw frames pulled for replication.
#[derive(Debug, Clone, Default)]
pub struct FrameBatch {
    /// Concatenated frame bytes, exactly as on disk.
    pub bytes: Vec<u8>,
    /// Number of frames in `bytes`.
    pub count: u32,
    /// Sequence number of the last frame in the batch (or the cursor
    /// unchanged when `count == 0`).
    pub last_seq: u64,
}

/// One session's image for [`Journal::compact`]: its `DAIP` bytes and
/// the last `session_seq` of that session's frames the image reflects.
#[derive(Debug, Clone)]
pub struct SessionCut {
    /// The journal session id.
    pub session: u64,
    /// The image covers this session's frames up to this `session_seq`
    /// ([`Journal::session_head`] when it was taken).
    pub covers: u64,
    /// A complete `DAIP` container.
    pub bytes: Vec<u8>,
}

#[derive(Debug)]
struct Inner {
    file: std::fs::File,
    /// Next global sequence number to assign.
    next_seq: u64,
    /// Per-session next `session_seq`.
    session_seqs: HashMap<u64, u64>,
    /// Good frames currently in the file.
    frames: u64,
    /// Appends since the last compaction (compaction-hint counter).
    appended_since_compact: u64,
}

impl Inner {
    /// Stamps `record` with the next global and per-session sequence
    /// numbers.
    fn entry(&mut self, session: u64, record: JournalRecord) -> JournalEntry {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.session_seqs.entry(session).or_insert(1);
        let session_seq = *slot;
        *slot += 1;
        JournalEntry {
            seq,
            session,
            session_seq,
            record,
        }
    }
}

/// An open journal file. Cheap to share behind an `Arc`; all file
/// access is serialized on an internal lock.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    config: JournalConfig,
    inner: Mutex<Inner>,
}

fn io_err(path: &Path, e: std::io::Error) -> PersistError {
    PersistError::Io(format!("{}: {e}", path.display()))
}

impl Journal {
    /// Opens (or creates) the journal at `path`, replaying the longest
    /// clean prefix and truncating any torn/damaged tail in place.
    /// Returns the journal positioned for append plus the replay — the
    /// caller feeds `replay.entries` through its apply path to rebuild
    /// state.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure. Damage is NOT an
    /// error: it is truncated away and reported via
    /// [`Replay::damaged_len`].
    pub fn open(
        path: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<(Journal, Replay), PersistError> {
        let path = path.into();
        let err = |e| io_err(&path, e);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(err(e)),
        };
        let replay = replay_bytes(&bytes);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)
            .map_err(err)?;
        if replay.damaged_len > 0 {
            file.set_len(replay.good_len as u64).map_err(err)?;
            if config.durability == Durability::Safe {
                sync_file(&file).map_err(err)?;
            }
        }
        let mut session_seqs = HashMap::new();
        let mut next_seq = 1;
        for e in &replay.entries {
            next_seq = e.seq + 1;
            session_seqs.insert(e.session, e.session_seq + 1);
        }
        let mut file_for_append = file;
        std::io::Seek::seek(
            &mut file_for_append,
            std::io::SeekFrom::Start(replay.good_len as u64),
        )
        .map_err(err)?;
        let journal = Journal {
            inner: Mutex::new(Inner {
                file: file_for_append,
                next_seq,
                session_seqs,
                frames: replay.entries.len() as u64,
                appended_since_compact: 0,
            }),
            path,
            config,
        };
        Ok((journal, replay))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The configured durability level.
    pub fn durability(&self) -> Durability {
        self.config.durability
    }

    /// Appends one record for `session`, assigning its sequence
    /// numbers. Returns the entry's global sequence number. Under
    /// [`Durability::Safe`] the file is fsync'd before returning.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on write failure.
    pub fn append(&self, session: u64, record: JournalRecord) -> Result<u64, PersistError> {
        self.append_all(session, std::iter::once(record))
    }

    /// Appends a batch of records for `session` with a single fsync at
    /// the end (the "after each journal append batch" rule). Returns
    /// the last assigned global sequence number.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on write failure.
    pub fn append_all(
        &self,
        session: u64,
        records: impl IntoIterator<Item = JournalRecord>,
    ) -> Result<u64, PersistError> {
        let err = |e| io_err(&self.path, e);
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        let mut buf = Vec::new();
        let mut appended = 0u64;
        for record in records {
            appended += 1;
            inner.entry(session, record).encode_into(&mut buf);
        }
        if appended == 0 {
            return Ok(inner.next_seq.saturating_sub(1));
        }
        inner.file.write_all(&buf).map_err(err)?;
        inner.file.flush().map_err(err)?;
        if self.config.durability == Durability::Safe {
            sync_file(&inner.file).map_err(err)?;
        }
        inner.frames += appended;
        inner.appended_since_compact += appended;
        dai_trace::metrics()
            .counter("dai_journal_appended_frames_total")
            .add(appended);
        Ok(inner.next_seq - 1)
    }

    /// The last assigned global sequence number (0 when empty).
    pub fn last_seq(&self) -> u64 {
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner.next_seq - 1
    }

    /// The last `session_seq` handed to `session`'s frames (0 when it has
    /// none) — the cut-off a [`SessionCut`] taken now covers.
    pub fn session_head(&self, session: u64) -> u64 {
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner.session_seqs.get(&session).map_or(0, |next| next - 1)
    }

    /// Good frames currently in the file (retired frames not counted).
    pub fn frames(&self) -> u64 {
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner.frames
    }

    /// `true` once the append count since the last compaction passes
    /// the configured threshold.
    pub fn wants_compaction(&self) -> bool {
        if self.config.compact_every == 0 {
            return false;
        }
        let inner = self.inner.lock().expect("journal lock poisoned");
        inner.appended_since_compact >= self.config.compact_every
    }

    /// Pulls the raw frame bytes of every entry with `seq > after`, in
    /// order — the replication feed. Frames ship exactly as stored
    /// (checksums and all), so a follower verifies them with the same
    /// [`replay_bytes`] the leader's own recovery uses.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the file cannot be re-read.
    pub fn frames_since(&self, after: u64, max: u32) -> Result<FrameBatch, PersistError> {
        let inner = self.inner.lock().expect("journal lock poisoned");
        let bytes = std::fs::read(&self.path).map_err(|e| io_err(&self.path, e))?;
        drop(inner);
        let mut batch = FrameBatch {
            last_seq: after,
            ..FrameBatch::default()
        };
        scan_frames(&bytes, |entry, frame| {
            if entry.seq > after && batch.count < max {
                batch.bytes.extend_from_slice(frame);
                batch.count += 1;
                batch.last_seq = entry.seq;
            }
            batch.count < max
        });
        Ok(batch)
    }

    /// Hands each entry of the file's clean prefix to `visit`, reading
    /// one frame at a time — the stream form of [`replay_bytes`].
    fn scan_file(&self, mut visit: impl FnMut(JournalEntry)) -> Result<(), PersistError> {
        let file = std::fs::File::open(&self.path).map_err(|e| io_err(&self.path, e))?;
        let len = file.metadata().map_err(|e| io_err(&self.path, e))?.len();
        let mut r = std::io::BufReader::new(file);
        while let Ok(frame) = dai_persist::read_frame(&mut r, len as usize) {
            let Some(payload) = frame.payload else { break };
            if frame.header.tag == TAG_JOURNAL_MEMO {
                continue;
            }
            let Ok(entry) = JournalEntry::decode(frame.header.tag, frame.header.version, &payload)
            else {
                break;
            };
            visit(entry);
        }
        Ok(())
    }

    /// Rewrites the journal as one snapshot frame per [`SessionCut`],
    /// followed by every frame of the old file that no cut covers —
    /// frames above their session's `covers`, and every frame of a
    /// session without a cut — in their old order. A session with a
    /// `Close` frame is dropped whole, cut included, and so is every
    /// retired frame. Every frame takes fresh sequence numbers **above**
    /// every previously handed-out one.
    /// Written atomically (tmp + rename; fsync'd under
    /// [`Durability::Safe`]) under the append lock, so a frame appended
    /// while the caller took its cuts survives. Returns the new last
    /// sequence number.
    ///
    /// A follower whose cursor points into the old file simply receives
    /// the rewritten frames next pull — a snapshot replaces its session
    /// and the frames after it re-apply, so catching up over a
    /// compaction is seamless.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn compact(&self, cuts: Vec<SessionCut>) -> Result<u64, PersistError> {
        let err = |e| io_err(&self.path, e);
        let mut inner = self.inner.lock().expect("journal lock poisoned");
        // Appends hold this lock, so the file holds every frame so far.
        // It is read frame by frame, twice, and only the frames that stay
        // are kept: the old file is never held whole.
        let mut closed = HashSet::new();
        self.scan_file(|e| {
            if matches!(e.record, JournalRecord::Close) {
                closed.insert(e.session);
            }
        })?;
        let cuts: Vec<SessionCut> = cuts
            .into_iter()
            .filter(|c| !closed.contains(&c.session))
            .collect();
        let covers: HashMap<u64, u64> = cuts.iter().map(|c| (c.session, c.covers)).collect();
        let mut kept = Vec::new();
        self.scan_file(|e| {
            let covered = covers.get(&e.session).copied().unwrap_or(0);
            if !closed.contains(&e.session) && e.session_seq > covered {
                kept.push((e.session, e.record));
            }
        })?;
        let snapshots = cuts
            .into_iter()
            .map(|c| (c.session, JournalRecord::Snapshot { bytes: c.bytes }));
        let mut buf = Vec::new();
        let mut frames = 0u64;
        for (session, record) in snapshots.chain(kept) {
            inner.entry(session, record).encode_into(&mut buf);
            frames += 1;
        }
        let tmp = temp_sibling(&self.path, "compact");
        {
            let mut file = std::fs::File::create(&tmp).map_err(err)?;
            file.write_all(&buf).map_err(err)?;
            if self.config.durability == Durability::Safe {
                sync_file(&file).map_err(err)?;
            }
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            err(e)
        })?;
        if self.config.durability == Durability::Safe {
            sync_parent_dir(&self.path).map_err(err)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(err)?;
        std::io::Seek::seek(&mut file, std::io::SeekFrom::End(0)).map_err(err)?;
        inner.file = file;
        inner.frames = frames;
        inner.appended_since_compact = 0;
        dai_trace::metrics()
            .counter("dai_journal_compactions_total")
            .inc();
        Ok(inner.next_seq - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::JOURNAL_VERSION;
    use dai_core::driver::ProgramEdit;
    use dai_lang::{EdgeId, Stmt, Symbol};
    use dai_persist::Writer;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dai-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn open_record(n: u32) -> JournalRecord {
        JournalRecord::Open {
            name: format!("s{n}"),
            source: format!("fn f{n}() {{ x = {n}; }}"),
        }
    }

    #[test]
    fn append_reopen_replays_everything() {
        let path = tmp_path("append-reopen.daij");
        let _ = std::fs::remove_file(&path);
        let (journal, replay) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert!(replay.entries.is_empty());
        for i in 0..5 {
            journal.append(1, open_record(i)).unwrap();
        }
        assert_eq!(journal.last_seq(), 5);
        drop(journal);
        let (journal, replay) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(replay.entries.len(), 5);
        assert_eq!(replay.damaged_len, 0);
        assert_eq!(journal.last_seq(), 5);
        // Sequences continue where they left off.
        let seq = journal.append(1, JournalRecord::Close).unwrap();
        assert_eq!(seq, 6);
        let entry = &replay.entries[4];
        assert_eq!((entry.seq, entry.session, entry.session_seq), (5, 1, 5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp_path("torn-tail.daij");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        journal.append(1, open_record(0)).unwrap();
        journal.append(1, open_record(1)).unwrap();
        drop(journal);
        // Tear the last frame: chop 3 bytes off the file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (journal, replay) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert!(replay.damaged_len > 0);
        // The file was truncated to the clean prefix and appends work.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            replay.good_len
        );
        let seq = journal.append(1, open_record(2)).unwrap();
        assert_eq!(seq, 2, "seq restarts after the lost frame");
        drop(journal);
        let (_, replay) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(replay.entries.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frames_since_pages_through_the_feed() {
        let path = tmp_path("frames-since.daij");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        for i in 0..6 {
            journal.append(u64::from(i % 2), open_record(i)).unwrap();
        }
        let batch = journal.frames_since(0, 4).unwrap();
        assert_eq!(batch.count, 4);
        assert_eq!(batch.last_seq, 4);
        let replayed = replay_bytes(&batch.bytes);
        assert_eq!(replayed.entries.len(), 4);
        assert_eq!(replayed.damaged_len, 0);
        let rest = journal.frames_since(batch.last_seq, 100).unwrap();
        assert_eq!(rest.count, 2);
        assert_eq!(rest.last_seq, 6);
        let empty = journal.frames_since(6, 100).unwrap();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.last_seq, 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_truncates_but_keeps_sequencing_monotonic() {
        let path = tmp_path("compact.daij");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        for i in 0..8 {
            journal.append(3, open_record(i)).unwrap();
        }
        let before = std::fs::metadata(&path).unwrap().len();
        let cut = SessionCut {
            session: 3,
            covers: journal.session_head(3),
            bytes: vec![0xAB; 10],
        };
        let last = journal.compact(vec![cut]).unwrap();
        assert_eq!(last, 9, "snapshot frame takes the next fresh seq");
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        assert_eq!(journal.frames(), 1);
        // A follower parked at seq 5 pulls and gets the snapshot frame.
        let batch = journal.frames_since(5, 100).unwrap();
        assert_eq!(batch.count, 1);
        assert_eq!(batch.last_seq, 9);
        let replay = replay_bytes(&batch.bytes);
        assert!(matches!(
            replay.entries[0].record,
            JournalRecord::Snapshot { .. }
        ));
        // Appends continue past the compaction.
        assert_eq!(journal.append(3, JournalRecord::Close).unwrap(), 10);
        drop(journal);
        let (_, replay) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.entries[1].seq, 10);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frames_above_a_cut_survive_compaction_in_order_and_resequenced() {
        let path = tmp_path("compact-tail.daij");
        let _ = std::fs::remove_file(&path);
        let (journal, _) = Journal::open(&path, JournalConfig::default()).unwrap();
        let relabel = |n: u32| JournalRecord::Edit {
            edit: ProgramEdit::Relabel {
                func: Symbol::from("f"),
                edge: EdgeId(n),
                stmt: Stmt::Skip,
            },
        };
        // Session 1: four frames, cut after the second. Session 2: no
        // cut. Session 3: closed. Session 1 keeps appending after its
        // cut was taken, as a frame racing the compaction would.
        journal.append(1, open_record(1)).unwrap();
        journal.append(1, relabel(10)).unwrap();
        journal.append(2, open_record(2)).unwrap();
        let cut = SessionCut {
            session: 1,
            covers: journal.session_head(1),
            bytes: vec![0xCD; 4],
        };
        journal.append(3, open_record(3)).unwrap();
        journal.append(1, relabel(11)).unwrap();
        journal.append(2, relabel(20)).unwrap();
        journal.append(3, JournalRecord::Close).unwrap();
        journal.append(1, relabel(12)).unwrap();
        let cut3 = SessionCut {
            session: 3,
            covers: 1,
            bytes: vec![0xEF; 4],
        };
        let last = journal.compact(vec![cut, cut3]).unwrap();
        assert_eq!(last, 13, "five frames above the old head of 8");
        assert_eq!(journal.frames(), 5);

        let batch = journal.frames_since(0, 100).unwrap();
        let entries = replay_bytes(&batch.bytes).entries;
        let kept: Vec<(u64, u64, &JournalRecord)> = entries
            .iter()
            .map(|e| (e.seq, e.session, &e.record))
            .collect();
        assert_eq!(
            kept,
            vec![
                (
                    9,
                    1,
                    &JournalRecord::Snapshot {
                        bytes: vec![0xCD; 4]
                    }
                ),
                (10, 2, &open_record(2)),
                (11, 1, &relabel(11)),
                (12, 2, &relabel(20)),
                (13, 1, &relabel(12)),
            ]
        );
        // Per-session numbering continues above the old frames, so a
        // later cut still compares against it.
        assert_eq!(
            entries.iter().map(|e| e.session_seq).collect::<Vec<_>>(),
            vec![5, 3, 6, 4, 7]
        );
        assert_eq!(journal.session_head(1), 7);
        // Recovery reads the same frames back.
        drop(journal);
        let (_, replay) = Journal::open(&path, JournalConfig::default()).unwrap();
        assert_eq!(replay.entries, entries);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retired_frames_are_stepped_over_and_compacted_away() {
        let path = tmp_path("retired.daij");
        let entry = |seq: u64, record: JournalRecord| JournalEntry {
            seq,
            session: 1,
            session_seq: seq,
            record,
        };
        let edit = JournalRecord::Edit {
            edit: ProgramEdit::Relabel {
                func: Symbol::from("f1"),
                edge: EdgeId(0),
                stmt: Stmt::Skip,
            },
        };
        // What an older binary wrote: open, a memo frame, an edit.
        let mut bytes = entry(1, open_record(1)).to_frame_bytes();
        let mut memo = Writer::new();
        for n in [2, 1, 2, 3] {
            memo.u64(n);
        }
        memo.bytes(b"old");
        let memo = memo.into_bytes();
        dai_persist::write_frame(&mut bytes, TAG_JOURNAL_MEMO, JOURNAL_VERSION, &memo);
        entry(3, edit.clone()).encode_into(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let (journal, replay) = Journal::open(&path, JournalConfig::default()).unwrap();
        let seqs = |entries: &[JournalEntry]| entries.iter().map(|e| e.seq).collect::<Vec<_>>();
        assert_eq!((seqs(&replay.entries), replay.damaged_len), (vec![1, 3], 0));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing truncated");
        let batch = journal.frames_since(0, 100).unwrap();
        assert_eq!((batch.count, batch.last_seq), (2, 3));
        assert_eq!(seqs(&replay_bytes(&batch.bytes).entries), [1, 3]);

        // Compaction keeps every frame of the open session but that one.
        journal.compact(Vec::new()).unwrap();
        let after = std::fs::read(&path).unwrap();
        assert!(!after.windows(4).any(|w| w == TAG_JOURNAL_MEMO));
        let kept: Vec<JournalRecord> = replay_bytes(&after)
            .entries
            .into_iter()
            .map(|e| e.record)
            .collect();
        assert_eq!(kept, [open_record(1), edit]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn safe_durability_syncs_on_append() {
        let path = tmp_path("safe-append.daij");
        let _ = std::fs::remove_file(&path);
        let config = JournalConfig {
            durability: Durability::Safe,
            ..JournalConfig::default()
        };
        let (journal, _) = Journal::open(&path, config).unwrap();
        let (f0, _) = dai_persist::sync_counts();
        journal.append(1, open_record(0)).unwrap();
        let (f1, _) = dai_persist::sync_counts();
        assert!(f1 > f0, "Safe journal append must fsync the file");
        let _ = std::fs::remove_file(&path);
    }
}
