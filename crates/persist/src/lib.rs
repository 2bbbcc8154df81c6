//! # dai-persist — versioned snapshot/restore for demanded analysis
//!
//! Serializes a demanded-abstract-interpretation session — its **session
//! state** (program source + edit history) and its **per-function DAIGs**
//! (cell structure + computed values) — into a self-describing, versioned
//! binary file, and restores them. The memo table is not saved: it only
//! ever speeds up what a DAIG or the program already determines.
//! Hand-rolled codec: the workspace builds offline, so there is no serde;
//! see [`codec`] for the exact framing.
//!
//! ## Why a *lossy* format is sound (and why that matters here)
//!
//! The central soundness result of demanded abstract interpretation
//! (Stein et al., PLDI 2021, §2.2 and Theorems 6.1–6.3) is that every
//! value a DAIG cell or memo entry caches is something the analysis can
//! recompute from the program alone: **dropping any cached result — or
//! all of them — never changes any query's answer**, only the work needed
//! to produce it. Persistence inherits that guarantee wholesale:
//!
//! * a snapshot's `FUNC` (DAIG) sections are pure *warm-start
//!   accelerators*. If one is corrupt on disk, version-skewed, or simply
//!   cut off, the restore **skips it and degrades to a cold start** for
//!   exactly that state — same answers, more recomputation;
//! * only the `SESS` section (source text + edit history + strategy) is
//!   load-bearing, because it determines *which program* is analyzed.
//!   It is small, checksummed, and replayed through `dai-lang`'s parser
//!   and deterministic edit primitives, so a restored session's CFGs are
//!   identical — location and edge ids included — to the live session's;
//! * restored values cannot silently lie: each `FUNC` section is
//!   revalidated against Definition 4.1 well-formedness after decoding
//!   (and `dai-engine` additionally cross-checks the DAIG's statement
//!   cells against the replayed CFG), falling back to cold on mismatch.
//!
//! This is an unusually friendly persistence problem: most systems must
//! choose between expensive write-ahead durability and correctness,
//! whereas here the worst case of *any* partial write, bit rot, or
//! version skew in the optional sections is a slower first query.
//!
//! ## File format (see [`codec`] for byte-level detail)
//!
//! ```text
//! header   "DAIP" + container version
//! SESS     name, domain tag, strategy, source text, edit history   (required)
//! FUNC*    one per demanded function: name, φ₀, state table, cells (lossy)
//! ```
//!
//! Every section is length-prefixed and carries its own version and
//! checksum, so readers can always skip what they cannot use — a `MEMO`
//! section an older binary wrote among them. Snapshots of equal sessions
//! are byte-identical (cells are written in interning order). A `FUNC`
//! payload writes each distinct abstract state once, in a table its cells
//! index ([`snapshot`]'s module docs have the layout).
//!
//! ## Crate map
//!
//! * [`frame`] — the shared frame layout (tag + version + length +
//!   payload + FxHash64 checksum) used both by snapshot sections here and
//!   by `dai-rpc`'s socket messages — one framing implementation, two
//!   transports;
//! * [`codec`] — the container: header, sections (one [`frame`] each),
//!   checksums, [`codec::strip_sections`] for building partial restore
//!   points;
//! * [`wire`] — the [`wire::Persist`] encode/decode trait and its
//!   implementations for `dai-lang` syntax, `dai-core` names/values, and
//!   every shipped abstract domain ([`wire::PersistDomain`]);
//! * [`snapshot`] — [`snapshot::SessionImage`]: assembling, serializing,
//!   and lossily parsing whole-session snapshots.
//!
//! The engine-facing save/restore logic (sessions, the `Request::Save` /
//! `Request::Load` stream handlers) lives in `dai-engine`, which composes
//! these pieces; the REPL's `save`/`load` commands persist its
//! interprocedural session as source + history (cold restore).

pub mod codec;
pub mod explain;
pub mod frame;
pub mod snapshot;
pub mod trace;
pub mod wire;

pub use codec::{
    read_sections, strip_sections, PersistError, Reader, SnapshotWriter, Writer, FORMAT_VERSION,
    TAG_FUNC, TAG_SESSION,
};
pub use explain::{
    decode_explain_frame, encode_explain_frame, EXPLAIN_FRAME_TAG, EXPLAIN_FRAME_VERSION,
};
pub use frame::{
    checksum, checksum_with, read_frame, read_frame_expecting, split_frame, write_frame,
    write_frame_id, FrameHeader, FrameReadError, StreamFrame, FRAME_HEADER_LEN, FRAME_ID_LEN,
    FRAME_TRAILER_LEN,
};
pub use snapshot::{
    decode_daig, encode_daig, read_snapshot_file, sync_counts, sync_file, sync_parent_dir,
    temp_sibling, write_snapshot_file, write_snapshot_file_durable, Durability, FuncImage,
    RestoreReport, SessionImage, FUNC_VERSION, SESSION_VERSION,
};
pub use trace::{decode_trace_frame, encode_trace_frame, TRACE_FRAME_TAG, TRACE_FRAME_VERSION};
pub use wire::{Persist, PersistDomain, MAX_DECODE_DEPTH};
