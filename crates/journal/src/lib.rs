//! # dai-journal — append-only session journal + replication feed
//!
//! Replaces "rewrite the whole snapshot on every save" with an
//! append-only log of what actually happened: `open` (name + source),
//! `edit` (one [`dai_core::driver::ProgramEdit`]), `close`, and
//! compaction-produced `snapshot` frames. The retired `JMEM` (memo) tag
//! an older binary wrote is stepped over on every read.
//! Every record is one [`dai_persist::frame`] frame — the exact layout
//! snapshot sections and `dai-rpc` messages already use — so the disk
//! format *is* the replication wire format: a leader ships journal
//! bytes to followers verbatim ([`Journal::frames_since`]).
//!
//! ## Why a torn tail is harmless
//!
//! Demanded abstract interpretation's soundness theorem (Stein et al.,
//! PLDI 2021, Theorems 6.1–6.3) says any consistent prior state answers
//! queries correctly — warmth, not truth, is what state carries. A
//! journal prefix *is* a consistent prior state: opens and edits up to
//! any frame boundary describe a program the engine can analyze from
//! scratch. So recovery ([`Journal::open`]) replays the longest clean
//! prefix and truncates the rest. The same argument makes a
//! lagging replica sound: it serves answers for the program as of an
//! older sequence number — correct for that state, merely colder.
//!
//! ## Sequence numbers
//!
//! Each frame carries `(seq, session, session_seq)`: a global strictly
//! monotonic sequence, the leader's session id, and a per-session
//! counter. `seq` survives compaction — snapshot frames take fresh
//! numbers above all prior ones — so follower cursors (`after` in
//! [`Journal::frames_since`]) never go backwards or dangle.

pub mod journal;
pub mod record;

pub use journal::{FrameBatch, Journal, JournalConfig, SessionCut};
pub use record::{
    is_journal_tag, replay_bytes, JournalEntry, JournalRecord, Replay, JOURNAL_VERSION,
    TAG_JOURNAL_CLOSE, TAG_JOURNAL_EDIT, TAG_JOURNAL_MEMO, TAG_JOURNAL_OPEN, TAG_JOURNAL_SNAP,
};
