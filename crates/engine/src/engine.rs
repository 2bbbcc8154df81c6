//! The long-lived analysis engine: sessions, a request stream, and the
//! worker pool that serves the requests.
//!
//! Concurrency structure:
//!
//! * the **session map** is behind an `RwLock`; opening/closing sessions
//!   takes the write lock, serving requests only reads it;
//! * each **session** is behind its own `Mutex`, so requests against the
//!   same program serialize (edits and queries interleave safely) while
//!   different sessions run in parallel across workers;
//! * the **memo table** is the sharded [`SharedMemoTable`], shared by all
//!   sessions and workers — cross-session reuse is sound because entries
//!   are keyed by content hashes of the computation's inputs;
//! * **requests** are submitted with [`Engine::submit`] (returning a
//!   [`Ticket`]) or synchronously with [`Engine::request`]; workers pull
//!   them FIFO and run them to completion — one worker evaluates a
//!   query's whole demanded cone (see `dai_core::FuncAnalysis::evaluate`);
//! * **queries coalesce**: concurrently pending `Request::Query`s against
//!   the same `(session, function)` are collected in a pending queue and
//!   answered by one *leader* job, which drains them under a **single**
//!   session-lock acquisition and evaluates one **union** demanded cone
//!   for the whole batch ([`crate::session::Session::query_locs`]).
//!   [`Engine::submit_query_batch`] submits a sweep as one deliberate
//!   batch; [`BatchStats`] counts what coalescing saved.
//!
//! ## Edit fencing
//!
//! Coalescing must not reorder a query past a mutation that was submitted
//! before it: a query enqueued *after* an `Edit` was submitted must never
//! be answered from pre-edit state. Every `Edit` bumps its session's fence
//! at **submit** time; queries are stamped with the fence value they
//! were enqueued under, and a draining leader only takes members whose
//! stamps are covered by the fence already **applied**. Later-stamped
//! members stay pending — the batch *splits* at the fence — and the
//! edit re-kicks them once it completes (success or failure;
//! a failed edit still advances the fence, which is sound because it
//! changed nothing). The fences count, so a session's edits must complete
//! in the order they were stamped: each joins its session's edit queue as
//! it is stamped, and whichever worker next holds the session lock applies
//! the queue's front — `n` completions are the first `n` edits, never the
//! second one overtaking the first on another worker.
//!
//! A `Load` fences nothing: it installs a new session, whose id exists
//! only once the restore is done, so no query submitted before that can
//! name it.

use dai_core::compile::TransferMode;
use dai_core::driver::ProgramEdit;
use dai_core::explain::{CellOutcome, ExplainReport, ExplainSink};
use dai_core::graph::{DaigError, Value};
use dai_core::query::QueryStats;
use dai_core::strategy::FixStrategy;
use dai_domains::AbstractDomain;
use dai_journal::{Journal, JournalConfig, JournalEntry, JournalRecord, SessionCut};
use dai_lang::cfg::{lower_program, LoweredProgram};
use dai_lang::{CfgError, Loc};
use dai_memo::{MemoStats, SharedMemoTable};
use dai_persist::{
    read_snapshot_file, write_snapshot_file_durable, Durability, PersistDomain, PersistError,
    SessionImage,
};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

use crate::pool::{PoolHandle, WorkerPool};
use crate::session::{EditOutcome, ResolverChoice, Session, SessionCounters, SessionSnapshot};

/// Identifies a session within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads (minimum 1): requests served concurrently, and so
    /// how many sessions make progress at once; a query is evaluated by
    /// one thread.
    pub workers: usize,
    /// Shards of the shared memo table.
    pub memo_shards: usize,
    /// Optional total memo capacity (entries) across shards. It also
    /// bounds, separately, the memo table an `Interproc` session's
    /// analyzer owns.
    pub memo_capacity: Option<usize>,
    /// Loop-head iteration strategy applied to every session.
    pub strategy: FixStrategy,
    /// Call-resolution backend applied to every session (see
    /// [`ResolverChoice`]).
    pub resolver: ResolverChoice,
    /// Transfer-evaluation mode applied to every session: staged
    /// per-edge closures (the default) or the AST interpreter (see
    /// [`dai_core::compile`]). Both are bit-identical on every value.
    pub transfer: TransferMode,
    /// Fsync policy for snapshot saves (and, unless overridden in the
    /// [`JournalConfig`] handed to [`Engine::open_journal`], journal
    /// appends). `Fast` keeps the historical tmp+rename-only behavior.
    pub durability: Durability,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: 1,
            memo_shards: SharedMemoTable::<()>::DEFAULT_SHARDS,
            memo_capacity: None,
            strategy: FixStrategy::PAPER,
            resolver: ResolverChoice::Intra,
            transfer: TransferMode::Compiled,
            durability: Durability::Fast,
        }
    }
}

/// One request in the engine's stream.
#[derive(Debug, Clone)]
pub enum Request {
    /// Demand the abstract state at `loc` of `func`.
    Query {
        /// Target session.
        session: SessionId,
        /// Function name.
        func: String,
        /// Program location.
        loc: Loc,
    },
    /// Apply a program edit.
    Edit {
        /// Target session.
        session: SessionId,
        /// The edit.
        edit: ProgramEdit,
    },
    /// Export a deterministic DOT snapshot of the session's DAIGs.
    Snapshot {
        /// Target session.
        session: SessionId,
    },
    /// Persist a session (source + edit history + demanded DAIGs) to a
    /// snapshot file. Serialized behind the session's lock like `Edit`,
    /// so the saved image is a consistent point in the request stream.
    Save {
        /// Target session (must have been opened from source —
        /// [`crate::Engine::open_session_src`]).
        session: SessionId,
        /// Destination file path.
        path: String,
    },
    /// Restore a snapshot file into a **new** session (the saved session
    /// name is kept; the id is fresh). Damaged or version-skewed DAIG
    /// sections degrade to a cold start; see `dai-persist`.
    Load {
        /// Source file path.
        path: String,
    },
    /// Read engine-wide statistics.
    Stats,
}

/// What a save or load moved, and what a lossy restore dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistOutcome {
    /// Snapshot file size in bytes.
    pub bytes: usize,
    /// Function DAIGs written (save) or installed warm (load).
    pub funcs: usize,
    /// Function DAIGs dropped on load (damaged section, failed
    /// validation, or an interprocedural session that takes no warm
    /// units) — each one cold-starts, which is sound.
    pub funcs_dropped: usize,
    /// The file ended mid-section (load only).
    pub truncated: bool,
}

impl PersistOutcome {
    /// `true` when a load installed any function's DAIG warm. The memo
    /// table is never saved, so it takes no part.
    pub fn is_warm(&self) -> bool {
        self.funcs > 0
    }
}

/// A successful response.
#[derive(Clone)]
pub enum Response<D> {
    /// The queried abstract state.
    State(D),
    /// Structural outcome of an edit.
    Edited(EditOutcome),
    /// The session snapshot.
    Snapshot(SessionSnapshot),
    /// The session was persisted.
    Saved(PersistOutcome),
    /// A snapshot file was restored into a fresh session.
    Loaded {
        /// The restored session's id.
        session: SessionId,
        /// What was restored and what was dropped.
        outcome: PersistOutcome,
    },
    /// Engine statistics (boxed — the stats dwarf every other variant).
    Stats(Box<EngineStats>),
}

impl<D> Response<D> {
    /// The state, if this response carries one.
    pub fn into_state(self) -> Option<D> {
        match self {
            Response::State(d) => Some(d),
            _ => None,
        }
    }

    /// The edit outcome, if this response carries one.
    pub fn into_edited(self) -> Option<EditOutcome> {
        match self {
            Response::Edited(o) => Some(o),
            _ => None,
        }
    }

    /// The session snapshot, if this response carries one.
    pub fn into_snapshot(self) -> Option<SessionSnapshot> {
        match self {
            Response::Snapshot(s) => Some(s),
            _ => None,
        }
    }

    /// The save outcome, if this response carries one.
    pub fn into_saved(self) -> Option<PersistOutcome> {
        match self {
            Response::Saved(o) => Some(o),
            _ => None,
        }
    }

    /// The restored session id and outcome, if this response carries one.
    pub fn into_loaded(self) -> Option<(SessionId, PersistOutcome)> {
        match self {
            Response::Loaded { session, outcome } => Some((session, outcome)),
            _ => None,
        }
    }

    /// The engine statistics, if this response carries them.
    pub fn into_stats(self) -> Option<EngineStats> {
        match self {
            Response::Stats(s) => Some(*s),
            _ => None,
        }
    }
}

impl<D: AbstractDomain> Response<D> {
    /// The queried state, or the invariant error every query path
    /// reports when a query is somehow answered with a different
    /// response kind.
    ///
    /// # Errors
    ///
    /// [`EngineError::Daig`] with [`DaigError::Invariant`] for non-state
    /// responses.
    pub fn state_or_invariant(self) -> Result<D, EngineError> {
        match self {
            Response::State(d) => Ok(d),
            other => Err(EngineError::Daig(DaigError::Invariant(format!(
                "query answered with a non-state response {other:?}",
            )))),
        }
    }
}

/// Failures surfaced to requesters.
#[derive(Debug)]
pub enum EngineError {
    /// Unknown session id.
    NoSuchSession(SessionId),
    /// Unknown function within a session.
    NoSuchFunction(String),
    /// A DAIG-level failure.
    Daig(DaigError),
    /// A CFG-level edit failure.
    Cfg(CfgError),
    /// A snapshot codec or I/O failure.
    Persist(PersistError),
    /// A restored source failed to parse (the snapshot header lied).
    Parse(String),
    /// The session cannot be saved: it was opened without source text, so
    /// there is no replayable description to persist.
    NotReplayable(String),
    /// The session is a read-only replica: its state is replayed from a
    /// leader's journal, and accepting a local edit would fork it from
    /// the leader. Edit on the leader instead; the change replicates.
    ReadOnly(SessionId),
    /// The responder was dropped (worker panicked or engine shut down).
    Disconnected,
    /// A failure reported by a remote service (`dai-rpc` clients map
    /// wire errors that have no local counterpart into this variant).
    /// `code` is the wire protocol's stable error code.
    Remote {
        /// The stable error code (see `dai-rpc`'s `WireError::code`).
        code: &'static str,
        /// Human-readable detail.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoSuchSession(id) => write!(f, "no such session {id}"),
            EngineError::NoSuchFunction(name) => write!(f, "no such function `{name}`"),
            EngineError::Daig(e) => write!(f, "{e}"),
            EngineError::Cfg(e) => write!(f, "{e}"),
            EngineError::Persist(e) => write!(f, "{e}"),
            EngineError::Parse(m) => write!(f, "snapshot source does not parse: {m}"),
            EngineError::NotReplayable(name) => write!(
                f,
                "session `{name}` was opened without source text and cannot be saved \
                 (open it with open_session_src)"
            ),
            EngineError::ReadOnly(id) => write!(
                f,
                "session {id} is a read-only replica (edits must go to the leader)"
            ),
            EngineError::Disconnected => write!(f, "engine request dropped (worker failure)"),
            EngineError::Remote { code, message } => {
                write!(f, "remote service [{code}]: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DaigError> for EngineError {
    fn from(e: DaigError) -> EngineError {
        EngineError::Daig(e)
    }
}

impl From<CfgError> for EngineError {
    fn from(e: CfgError) -> EngineError {
        EngineError::Cfg(e)
    }
}

impl From<PersistError> for EngineError {
    fn from(e: PersistError) -> EngineError {
        EngineError::Persist(e)
    }
}

/// What the waiting half gets: the request's response or its failure.
type Reply<D> = Result<Response<D>, EngineError>;

/// A single-use reply slot: one allocation per request instead of an
/// mpsc channel. The consumer either parks in [`Ticket::wait`] or leaves
/// a completion hook ([`Ticket::on_complete`]) that receives the value
/// on the producing thread — the RPC server frames and writes the
/// response from there, so no other thread has to be woken.
struct Oneshot<D> {
    slot: Mutex<Slot<D>>,
    ready: Condvar,
}

/// All under one lock: a fill cannot race a hook registration or a
/// parking waiter into a lost wake-up.
struct Slot<D> {
    value: Option<Reply<D>>,
    hook: Option<Box<dyn FnOnce(Reply<D>) + Send>>,
    /// A [`Ticket::wait`] is parked on `ready`; only then does `fill`
    /// signal the condvar — a system call whether or not anyone waits,
    /// and most tickets are hooked, or filled before they are waited on.
    parked: bool,
}

impl<D> Oneshot<D> {
    /// Delivers the value: to the registered hook — on this, the
    /// producing, thread, after the slot lock is released — or else into
    /// the slot, waking the waiter if one is parked.
    fn fill(&self, value: Reply<D>) {
        let mut slot = self.slot.lock().expect("ticket slot poisoned");
        if let Some(hook) = slot.hook.take() {
            drop(slot);
            hook(value);
            return;
        }
        slot.value = Some(value);
        let parked = slot.parked;
        drop(slot);
        if parked {
            self.ready.notify_one();
        }
    }
}

/// The producing side of a [`Ticket`]'s reply slot. Dropping it without
/// replying (worker panic) delivers [`EngineError::Disconnected`], so a
/// waiter can never hang.
pub(crate) struct Responder<D> {
    cell: Arc<Oneshot<D>>,
    sent: bool,
}

impl<D> Responder<D> {
    fn send(mut self, value: Reply<D>) {
        self.sent = true;
        self.cell.fill(value);
    }
}

impl<D> Drop for Responder<D> {
    fn drop(&mut self) {
        if !self.sent {
            self.cell.fill(Err(EngineError::Disconnected));
        }
    }
}

/// A pending response, consumed one of two ways: [`Ticket::wait`] blocks
/// until the worker finishes; [`Ticket::on_complete`] leaves a hook that
/// the finishing thread runs with the value, so nobody blocks at all.
pub struct Ticket<D> {
    cell: Arc<Oneshot<D>>,
}

impl<D> Ticket<D> {
    /// Blocks for the response.
    ///
    /// # Errors
    ///
    /// The request's own failure, or [`EngineError::Disconnected`] if the
    /// worker died.
    pub fn wait(self) -> Result<Response<D>, EngineError> {
        let mut guard = self.cell.slot.lock().expect("ticket slot poisoned");
        loop {
            if let Some(v) = guard.value.take() {
                return v;
            }
            guard.parked = true;
            guard = self.cell.ready.wait(guard).expect("ticket slot poisoned");
        }
    }

    /// Hands the response to `hook` instead of to a waiter: exactly once,
    /// on whichever thread fills the reply slot — or inline, on the
    /// caller's thread, if it is already filled. A request whose worker
    /// died delivers [`EngineError::Disconnected`] like any other value.
    /// The hook runs outside the slot's lock and may do real work (the
    /// RPC server encodes and writes the response in it) — on an engine
    /// worker, so it must not wait on another ticket.
    pub fn on_complete(self, hook: impl FnOnce(Result<Response<D>, EngineError>) + Send + 'static) {
        let mut slot = self.cell.slot.lock().expect("ticket slot poisoned");
        match slot.value.take() {
            Some(value) => {
                drop(slot);
                hook(value);
            }
            None => slot.hook = Some(Box::new(hook)),
        }
    }

    /// Waits for a whole batch, returning responses in submission order.
    ///
    /// Internally the batch is drained in *reverse* submission order:
    /// workers serve the queue roughly FIFO, so the last ticket completes
    /// around the time the whole batch does, and by the time it resolves
    /// the earlier tickets are already filled and return without
    /// blocking. Waiting in submission order instead would put the caller
    /// to sleep once per ticket — on a single-CPU host that is two
    /// context switches per request, which dominates a dense request
    /// stream.
    ///
    /// # Errors
    ///
    /// The first failing response (by submission order), as
    /// [`Ticket::wait`].
    pub fn wait_all(tickets: Vec<Ticket<D>>) -> Result<Vec<Response<D>>, EngineError> {
        let mut out: Vec<Option<Result<Response<D>, EngineError>>> =
            tickets.iter().map(|_| None).collect();
        for (i, t) in tickets.into_iter().enumerate().rev() {
            out[i] = Some(t.wait());
        }
        out.into_iter()
            .map(|r| r.expect("every ticket waited"))
            .collect()
    }
}

/// Per-call query options (see [`Engine::query_sweep_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOptions {
    /// Capture an [`ExplainReport`] for the sweep: the whole sweep is
    /// served synchronously under one session-lock acquisition with cost
    /// attribution riding the evaluation. Off by default — the regular
    /// coalescing path takes no timestamps at all.
    pub explain: bool,
}

/// Per-member sweep answers paired with the optional explain capture
/// (`None` unless [`QueryOptions::explain`] was set).
pub type SweepOutcome<D> = (Vec<Result<D, EngineError>>, Option<ExplainReport>);

/// Aggregate cost-attribution counters across every explain capture the
/// engine has served (each capture also yields its own
/// [`ExplainReport`]; these are the running totals `stats` exposes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplainStats {
    /// Explain captures served.
    pub reports: u64,
    /// Cell records attributed across all captures.
    pub cells: u64,
    /// Fix-cell records attributed across all captures.
    pub fixes: u64,
    /// Total attributed work, ns.
    pub work_ns: u64,
    /// Summed critical-path spans, ns.
    pub span_ns: u64,
    /// Work attributed to `Q-Miss` (computed) cells, ns.
    pub computed_ns: u64,
    /// Work attributed to `Q-Match` (memo) cells, ns.
    pub memo_matched_ns: u64,
    /// Work attributed to fix resolution, ns.
    pub fix_ns: u64,
    /// Captures per domain tag, sorted by tag. An engine is
    /// single-domain, so this normally holds one entry — the `Vec`
    /// keeps the stats domain-erased for the wire.
    pub domains: Vec<(String, u64)>,
}

impl ExplainStats {
    /// Folds one finished capture into the totals.
    pub fn absorb_report(&mut self, report: &ExplainReport) {
        self.reports += 1;
        self.cells += report.cells.len() as u64;
        self.fixes += report.fixes.len() as u64;
        self.work_ns += report.work_ns;
        self.span_ns += report.span_ns;
        self.computed_ns += report.outcome_ns(CellOutcome::Computed);
        self.memo_matched_ns += report.outcome_ns(CellOutcome::MemoMatched);
        self.fix_ns += report.fix_ns();
        match self
            .domains
            .binary_search_by(|(d, _)| d.as_str().cmp(report.domain.as_str()))
        {
            Ok(i) => self.domains[i].1 += 1,
            Err(i) => self.domains.insert(i, (report.domain.clone(), 1)),
        }
    }
}

/// Journal/replication counters: what the engine has durably logged
/// (leader side) and what it has applied from someone else's journal
/// (follower side). Either half may be all zeros — a plain engine has
/// no journal and never applies; a follower has the second half only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Whether a journal is attached ([`Engine::open_journal`]).
    pub journal_attached: bool,
    /// Highest sequence number the journal has handed out.
    pub journal_last_seq: u64,
    /// Good frames currently in the journal file.
    pub journal_frames: u64,
    /// Highest journal sequence number applied via
    /// [`Engine::apply_journal_entry`] (recovery replay + replication).
    pub applied_seq: u64,
    /// Entries applied via [`Engine::apply_journal_entry`].
    pub applied_frames: u64,
}

/// Engine-wide counters plus the shared memo statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker threads serving the engine.
    pub workers: usize,
    /// Open sessions.
    pub sessions: usize,
    /// Queries served — every member that received an answer, including
    /// per-member failures (an unknown location still got its error).
    pub queries: u64,
    /// Edits applied.
    pub edits: u64,
    /// Snapshots exported.
    pub snapshots: u64,
    /// Sessions saved to disk.
    pub saves: u64,
    /// Sessions restored from disk.
    pub loads: u64,
    /// Session-lock acquisitions taken to serve requests. A coalesced
    /// query batch takes exactly one; N sequential queries take N.
    pub session_locks: u64,
    /// Cross-request query-coalescing counters.
    pub batch: BatchStats,
    /// Aggregated evaluation work (computed/memo-matched/reused cells,
    /// unrollings, fixed points) across all requests.
    pub query_stats: QueryStats,
    /// Running totals across explain captures.
    pub explain: ExplainStats,
    /// Memo counters: the shared table's, plus the private tables of
    /// `Interproc` sessions' analyzers (counted per served batch).
    pub memo: MemoStats,
    /// Journal and replication counters.
    pub replication: ReplicationStats,
}

impl EngineStats {
    /// Publishes every counter into the process metrics registry as
    /// `dai_*` gauges. Gauges, not counters: a stats snapshot is a
    /// last-value-wins observation, and re-publishing must not double.
    pub fn publish_metrics(&self) {
        let m = dai_trace::metrics();
        m.gauge("dai_engine_workers").set(self.workers as u64);
        m.gauge("dai_engine_sessions").set(self.sessions as u64);
        m.gauge("dai_engine_queries").set(self.queries);
        m.gauge("dai_engine_edits").set(self.edits);
        m.gauge("dai_engine_snapshots").set(self.snapshots);
        m.gauge("dai_engine_saves").set(self.saves);
        m.gauge("dai_engine_loads").set(self.loads);
        m.gauge("dai_engine_session_locks").set(self.session_locks);
        m.gauge("dai_engine_batches").set(self.batch.batches);
        m.gauge("dai_engine_coalesced_queries")
            .set(self.batch.coalesced_queries);
        m.gauge("dai_engine_singleton_queries")
            .set(self.batch.singleton_queries);
        m.gauge("dai_engine_union_cone_cells")
            .set(self.batch.union_cone_cells);
        m.gauge("dai_engine_union_cone_walks")
            .set(self.batch.union_cone_walks);
        m.gauge("dai_query_cells_computed")
            .set(self.query_stats.computed);
        m.gauge("dai_query_cells_memo_matched")
            .set(self.query_stats.memo_matched);
        m.gauge("dai_query_cells_reused")
            .set(self.query_stats.reused);
        m.gauge("dai_query_unrolls").set(self.query_stats.unrolls);
        m.gauge("dai_query_fix_converged")
            .set(self.query_stats.fix_converged);
        m.gauge("dai_query_cone_walks")
            .set(self.query_stats.cone_walks);
        m.gauge("dai_query_cone_cells")
            .set(self.query_stats.cone_cells);
        m.gauge("dai_transfer_compiled_total")
            .set(self.query_stats.transfers_compiled);
        m.gauge("dai_transfer_interp_fallback_total")
            .set(self.query_stats.transfers_interp);
        m.gauge("dai_explain_reports").set(self.explain.reports);
        m.gauge("dai_explain_cells").set(self.explain.cells);
        m.gauge("dai_explain_fixes").set(self.explain.fixes);
        m.gauge("dai_explain_work_ns").set(self.explain.work_ns);
        m.gauge("dai_explain_span_ns").set(self.explain.span_ns);
        m.gauge("dai_memo_hits").set(self.memo.hits);
        m.gauge("dai_memo_misses").set(self.memo.misses);
        m.gauge("dai_memo_insertions").set(self.memo.insertions);
        m.gauge("dai_memo_evictions").set(self.memo.evictions);
        m.gauge("dai_journal_attached")
            .set(u64::from(self.replication.journal_attached));
        m.gauge("dai_journal_last_seq")
            .set(self.replication.journal_last_seq);
        m.gauge("dai_journal_frames")
            .set(self.replication.journal_frames);
        m.gauge("dai_replica_applied_seq")
            .set(self.replication.applied_seq);
        m.gauge("dai_replica_applied_frames")
            .set(self.replication.applied_frames);
    }

    /// The stats as one line of JSON, mirroring the struct's nesting.
    /// This is the `stats --json` schema; a REPL test locks it.
    pub fn to_json(&self) -> String {
        let mut domains = String::new();
        for (i, (tag, n)) in self.explain.domains.iter().enumerate() {
            if i > 0 {
                domains.push(',');
            }
            use std::fmt::Write as _;
            let _ = write!(domains, "\"{tag}\":{n}");
        }
        format!(
            "{{\"workers\":{},\"sessions\":{},\"queries\":{},\"edits\":{},\
             \"snapshots\":{},\"saves\":{},\"loads\":{},\"session_locks\":{},\
             \"batch\":{{\"batches\":{},\"coalesced_queries\":{},\
             \"singleton_queries\":{},\"union_cone_cells\":{},\
             \"union_cone_walks\":{}}},\
             \"query_stats\":{{\"computed\":{},\"memo_matched\":{},\
             \"reused\":{},\"unrolls\":{},\"fix_converged\":{},\
             \"cone_walks\":{},\"cone_cells\":{},\
             \"transfers_compiled\":{},\"transfers_interp\":{}}},\
             \"explain\":{{\"reports\":{},\"cells\":{},\"fixes\":{},\
             \"work_ns\":{},\"span_ns\":{},\"computed_ns\":{},\
             \"memo_matched_ns\":{},\"fix_ns\":{},\"domains\":{{{}}}}},\
             \"memo\":{{\"hits\":{},\"misses\":{},\"insertions\":{},\
             \"evictions\":{}}},\
             \"replication\":{{\"journal_attached\":{},\
             \"journal_last_seq\":{},\"journal_frames\":{},\
             \"applied_seq\":{},\"applied_frames\":{}}}}}",
            self.workers,
            self.sessions,
            self.queries,
            self.edits,
            self.snapshots,
            self.saves,
            self.loads,
            self.session_locks,
            self.batch.batches,
            self.batch.coalesced_queries,
            self.batch.singleton_queries,
            self.batch.union_cone_cells,
            self.batch.union_cone_walks,
            self.query_stats.computed,
            self.query_stats.memo_matched,
            self.query_stats.reused,
            self.query_stats.unrolls,
            self.query_stats.fix_converged,
            self.query_stats.cone_walks,
            self.query_stats.cone_cells,
            self.query_stats.transfers_compiled,
            self.query_stats.transfers_interp,
            self.explain.reports,
            self.explain.cells,
            self.explain.fixes,
            self.explain.work_ns,
            self.explain.span_ns,
            self.explain.computed_ns,
            self.explain.memo_matched_ns,
            self.explain.fix_ns,
            domains,
            self.memo.hits,
            self.memo.misses,
            self.memo.insertions,
            self.memo.evictions,
            self.replication.journal_attached,
            self.replication.journal_last_seq,
            self.replication.journal_frames,
            self.replication.applied_seq,
            self.replication.applied_frames,
        )
    }
}

/// What query coalescing did: every served query is either a member of a
/// coalesced batch or a singleton, so
/// `coalesced_queries + singleton_queries` equals the total number of
/// queries the engine answered (successes and per-member failures alike).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Coalesced batches served: drains that answered **two or more**
    /// queries under one session-lock acquisition.
    pub batches: u64,
    /// Queries answered as members of coalesced batches.
    pub coalesced_queries: u64,
    /// Queries that were alone in their drain (no coalescing happened).
    pub singleton_queries: u64,
    /// Cells loaded into union demanded-cone tables by coalesced batch
    /// evaluations (`QueryStats::cone_cells` of the shared work). For a
    /// coalesced pair this is at most the sum of the two solo cone walks
    /// — the sharing the paper's demanded cones make possible.
    pub union_cone_cells: u64,
    /// Union-cone traversals performed by coalesced batch evaluations; a
    /// cold coalesced batch performs exactly one.
    pub union_cone_walks: u64,
}

/// A submitted/applied counter pair ordering queries after mutations (see
/// the module docs on edit fencing).
struct Fence<D> {
    submitted: AtomicU64,
    applied: AtomicU64,
    /// A session fence's edits submitted and not yet applied, oldest
    /// first, each with the slot its outcome goes to. An edit joins under
    /// this lock as it takes its stamp, and an edit job applies the
    /// *front* once it holds the session lock — so a session's edits apply
    /// in the order they were submitted whichever worker gets to them
    /// first, and `applied == n` means the first `n` edits are done.
    edits: Mutex<VecDeque<(ProgramEdit, Responder<D>)>>,
}

impl<D> Default for Fence<D> {
    fn default() -> Fence<D> {
        Fence {
            submitted: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            edits: Mutex::new(VecDeque::new()),
        }
    }
}

/// One query waiting in the coalescing queue.
struct PendingQuery<D> {
    loc: Loc,
    responder: Responder<D>,
    /// The target session's fence at enqueue time.
    fence: u64,
}

/// The coalescing key: queries against the same session *and* function
/// share one demanded-cone evaluation (under `ResolverChoice::Interproc`
/// the session resolves the function's `(function, context)` units behind
/// the same single lock acquisition).
type BatchKey = (SessionId, String);

/// The correspondence between journal session ids and this engine's
/// local [`SessionId`]s. Journal ids are allocated independently of
/// local ids (local ids restart at 1 on every process, journal ids live
/// as long as the file), so both directions need a map.
#[derive(Default)]
struct JournalMap {
    /// Journal session id → local session.
    to_local: HashMap<u64, SessionId>,
    /// Local session → journal session id (leader append path).
    to_journal: HashMap<SessionId, u64>,
    /// Next journal session id to hand out (above every replayed one).
    next_id: u64,
}

impl JournalMap {
    fn bind(&mut self, journal_id: u64, local: SessionId) {
        self.to_local.insert(journal_id, local);
        self.to_journal.insert(local, journal_id);
        self.next_id = self.next_id.max(journal_id + 1);
    }

    fn unbind_local(&mut self, local: SessionId) -> Option<u64> {
        let journal_id = self.to_journal.remove(&local)?;
        self.to_local.remove(&journal_id);
        Some(journal_id)
    }
}

struct EngineShared<D: AbstractDomain> {
    sessions: RwLock<HashMap<SessionId, Arc<Mutex<Session<D>>>>>,
    /// Per-session fences. Entries are created on first use and kept for
    /// the engine's lifetime (session ids are never reused, so a stale
    /// fence is unreachable, and keeping it avoids close/submit races).
    fences: RwLock<HashMap<SessionId, Arc<Fence<D>>>>,
    /// The pending-query coalescing queue. Invariant: an entry is present
    /// iff it is non-empty, and then either a leader job is queued/running
    /// for its key or every member is deferred behind a fence whose
    /// completion will re-kick it.
    pending: Mutex<HashMap<BatchKey, Vec<PendingQuery<D>>>>,
    memo: SharedMemoTable<Value<D>>,
    strategy: FixStrategy,
    resolver: ResolverChoice,
    transfer: TransferMode,
    /// Bounds each `Interproc` session's own memo table too.
    memo_capacity: Option<usize>,
    next_session: AtomicU64,
    queries: AtomicU64,
    edits: AtomicU64,
    snapshots: AtomicU64,
    saves: AtomicU64,
    loads: AtomicU64,
    session_locks: AtomicU64,
    batches: AtomicU64,
    coalesced_queries: AtomicU64,
    singleton_queries: AtomicU64,
    union_cone_cells: AtomicU64,
    union_cone_walks: AtomicU64,
    /// Evaluation work across all requests, and the memo traffic of
    /// `Interproc` sessions, whose analyzers own their memo tables
    /// ([`EngineStats::memo`] adds it to `memo`'s own).
    work: Mutex<(QueryStats, MemoStats)>,
    /// Fsync policy for saves and (by default) journal appends.
    durability: Durability,
    /// The attached journal, if any ([`Engine::open_journal`]). Writes
    /// happen with the owning session's lock held, so one session's
    /// frames appear in its edit order.
    journal: RwLock<Option<Arc<Journal>>>,
    /// Journal-session ↔ local-session correspondence.
    journal_map: Mutex<JournalMap>,
    /// Highest journal sequence number applied through
    /// [`Engine::apply_journal_entry`], and how many entries that was.
    applied_seq: AtomicU64,
    applied_frames: AtomicU64,
    /// Running totals across explain captures (see [`ExplainStats`]).
    explain_totals: Mutex<ExplainStats>,
    /// The most recent finished capture, for late retrieval (`Engine::
    /// last_explain`; the RPC byte-identity test diffs against this).
    last_explain: Mutex<Option<ExplainReport>>,
}

/// The concurrent, multi-session demanded-analysis engine.
///
/// `D` must be a [`PersistDomain`] — an [`AbstractDomain`] whose states
/// the snapshot codec can encode — because the request stream includes
/// [`Request::Save`] / [`Request::Load`]. Every domain this workspace
/// ships (and any product of them) qualifies.
pub struct Engine<D: PersistDomain> {
    pool: WorkerPool,
    shared: Arc<EngineShared<D>>,
}

impl<D: PersistDomain> Engine<D> {
    /// An engine with `workers` threads and default memo sharding.
    pub fn new(workers: usize) -> Engine<D> {
        Engine::with_config(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
    }

    /// An engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Engine<D> {
        let memo = match config.memo_capacity {
            Some(cap) => SharedMemoTable::with_capacity_limit(config.memo_shards, cap),
            None => SharedMemoTable::new(config.memo_shards),
        };
        Engine {
            pool: WorkerPool::new(config.workers),
            shared: Arc::new(EngineShared {
                sessions: RwLock::new(HashMap::new()),
                fences: RwLock::new(HashMap::new()),
                pending: Mutex::new(HashMap::new()),
                memo,
                strategy: config.strategy,
                resolver: config.resolver,
                transfer: config.transfer,
                memo_capacity: config.memo_capacity,
                next_session: AtomicU64::new(1),
                queries: AtomicU64::new(0),
                edits: AtomicU64::new(0),
                snapshots: AtomicU64::new(0),
                saves: AtomicU64::new(0),
                loads: AtomicU64::new(0),
                session_locks: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                coalesced_queries: AtomicU64::new(0),
                singleton_queries: AtomicU64::new(0),
                union_cone_cells: AtomicU64::new(0),
                union_cone_walks: AtomicU64::new(0),
                work: Mutex::default(),
                durability: config.durability,
                journal: RwLock::new(None),
                journal_map: Mutex::new(JournalMap {
                    next_id: 1,
                    ..JournalMap::default()
                }),
                applied_seq: AtomicU64::new(0),
                applied_frames: AtomicU64::new(0),
                explain_totals: Mutex::new(ExplainStats::default()),
                last_explain: Mutex::new(None),
            }),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Opens a session over `program`; the returned id addresses it in
    /// requests. The session has no replayable source, so it cannot be
    /// saved — prefer [`Engine::open_session_src`] for sessions that
    /// should survive restarts.
    pub fn open_session(&self, name: impl Into<String>, program: LoweredProgram) -> SessionId {
        self.install_session(Session::with_config(
            name,
            program,
            self.shared.strategy,
            self.shared.resolver,
            self.shared.transfer,
            None,
            self.shared.memo_capacity,
        ))
    }

    /// Opens a session by parsing and lowering `source`, recording the
    /// text so the session is saveable ([`Request::Save`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Parse`] / [`EngineError::Cfg`] when the source does
    /// not compile.
    pub fn open_session_src(
        &self,
        name: impl Into<String>,
        source: &str,
    ) -> Result<SessionId, EngineError> {
        let program = dai_lang::parse_program(source)
            .map_err(|e| EngineError::Parse(e.to_string()))
            .and_then(|p| lower_program(&p).map_err(EngineError::Cfg))?;
        let name = name.into();
        let id = self.install_session(Session::with_config(
            name.clone(),
            program,
            self.shared.strategy,
            self.shared.resolver,
            self.shared.transfer,
            Some(source.to_string()),
            self.shared.memo_capacity,
        ));
        journal_open(&self.shared, id, &name, source);
        Ok(id)
    }

    fn install_session(&self, session: Session<D>) -> SessionId {
        let id = SessionId(self.shared.next_session.fetch_add(1, Ordering::Relaxed));
        self.shared
            .sessions
            .write()
            .expect("session map poisoned")
            .insert(id, Arc::new(Mutex::new(session)));
        id
    }

    /// Closes a session, returning `false` if the id was unknown.
    pub fn close_session(&self, id: SessionId) -> bool {
        let present = self
            .shared
            .sessions
            .write()
            .expect("session map poisoned")
            .remove(&id)
            .is_some();
        if present {
            journal_close(&self.shared, id);
        }
        present
    }

    /// The current program of a session (cloned), for inspection and
    /// oracle comparison in tests.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoSuchSession`] for unknown ids.
    pub fn program_of(&self, id: SessionId) -> Result<LoweredProgram, EngineError> {
        let session = self.session(id)?;
        let guard = session.lock().expect("session poisoned");
        Ok(guard.program().clone())
    }

    fn session(&self, id: SessionId) -> Result<Arc<Mutex<Session<D>>>, EngineError> {
        session_of(&self.shared, id)
    }

    /// Submits a request to the worker pool, returning a [`Ticket`] for
    /// the response.
    ///
    /// `Query` requests go through the coalescing queue: while one is
    /// pending, further queries against the same `(session, function)`
    /// join its batch and the whole group is answered under a single
    /// session-lock acquisition. An `Edit` bumps its session's fence here,
    /// at submit time, so no later-submitted query can be answered from
    /// pre-edit state (see the module docs).
    pub fn submit(&self, request: Request) -> Ticket<D> {
        let (ticket, responder) = reply_slot();
        match request {
            Request::Query { session, func, loc } => {
                enqueue_queries(
                    &self.shared,
                    &self.pool.handle(),
                    session,
                    func,
                    vec![(loc, responder)],
                );
            }
            Request::Edit { session, edit } => {
                let fence = fence_of(&self.shared, session);
                {
                    let mut edits = fence.edits.lock().expect("edit queue poisoned");
                    fence.submitted.fetch_add(1, Ordering::SeqCst);
                    edits.push_back((edit, responder));
                }
                let shared = Arc::clone(&self.shared);
                let pool = self.pool.handle();
                pool.clone()
                    .spawn(move || apply_next_edit(&shared, &pool, session));
            }
            request => {
                let shared = Arc::clone(&self.shared);
                let pool = self.pool.handle();
                pool.clone().spawn(move || {
                    responder.send(process(&shared, &pool, request));
                });
            }
        }
        ticket
    }

    /// Submits a whole sweep of locations against one function as a
    /// single deliberate batch — one pending-queue insertion, one leader,
    /// one session-lock acquisition, one union-cone evaluation — and
    /// returns one [`Ticket`] per location, in `locs` order. Members
    /// succeed or fail individually, exactly as if each had been its own
    /// [`Request::Query`].
    pub fn submit_query_batch(
        &self,
        session: SessionId,
        func: &str,
        locs: &[Loc],
    ) -> Vec<Ticket<D>> {
        let mut tickets = Vec::with_capacity(locs.len());
        let mut members = Vec::with_capacity(locs.len());
        for &loc in locs {
            let (ticket, responder) = reply_slot();
            tickets.push(ticket);
            members.push((loc, responder));
        }
        enqueue_queries(
            &self.shared,
            &self.pool.handle(),
            session,
            func.to_string(),
            members,
        );
        tickets
    }

    /// Submits a whole `(function, location)` sweep, batching each
    /// contiguous run of equal function names into one coalesced batch
    /// (one session-lock acquisition, one union-cone evaluation). Sort
    /// `targets` first to get exactly one batch per function — unsorted
    /// targets still answer correctly, just in more batches. Tickets come
    /// back in `targets` order. This is the sweep the REPL `serve` and
    /// the benches issue.
    pub fn submit_query_sweep(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Vec<Ticket<D>> {
        let mut tickets = Vec::with_capacity(targets.len());
        let mut i = 0;
        while i < targets.len() {
            let func = &targets[i].0;
            let j = targets[i..]
                .iter()
                .position(|(f, _)| f != func)
                .map_or(targets.len(), |n| i + n);
            let locs: Vec<Loc> = targets[i..j].iter().map(|(_, l)| *l).collect();
            tickets.extend(self.submit_query_batch(session, func, &locs));
            i = j;
        }
        tickets
    }

    /// Synchronous [`Engine::submit_query_batch`]: blocks for every
    /// member's state, in `locs` order.
    pub fn query_batch(
        &self,
        session: SessionId,
        func: &str,
        locs: &[Loc],
    ) -> Vec<Result<D, EngineError>> {
        self.submit_query_batch(session, func, locs)
            .into_iter()
            .map(|t| t.wait().and_then(Response::state_or_invariant))
            .collect()
    }

    /// [`Engine::submit_query_sweep`] with per-call options: with
    /// `opts.explain` the sweep is served synchronously under one
    /// session-lock acquisition with cost attribution riding the
    /// evaluation, and the capture comes back alongside the per-member
    /// results. Without it the sweep takes the regular coalescing path
    /// (which takes no timestamps) and the report slot is `None`.
    ///
    /// # Errors
    ///
    /// With `opts.explain`: [`EngineError::NoSuchSession`], or
    /// [`EngineError::Daig`] when the session runs the interprocedural
    /// backend (its callee demands run inside call resolution, which no
    /// sink reaches). Per-member failures stay inside the result vector
    /// either way.
    pub fn query_sweep_with(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
        opts: QueryOptions,
    ) -> Result<SweepOutcome<D>, EngineError> {
        if opts.explain {
            let (results, report) = self.explain_serve(session, targets)?;
            Ok((results, Some(report)))
        } else {
            let results = self
                .submit_query_sweep(session, targets)
                .into_iter()
                .map(|t| t.wait().and_then(Response::state_or_invariant))
                .collect();
            Ok((results, None))
        }
    }

    /// Serves `targets` with cost attribution and returns the capture:
    /// where the sweep's time went, cell by cell, and how parallel the
    /// demanded cone could have been (work/span). The answers themselves
    /// are discarded — use [`Engine::query_sweep_with`] to keep both.
    ///
    /// # Errors
    ///
    /// See [`Engine::query_sweep_with`].
    pub fn explain_sweep(
        &self,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Result<ExplainReport, EngineError> {
        self.explain_serve(session, targets).map(|(_, r)| r)
    }

    /// The most recent finished explain capture, if any.
    pub fn last_explain(&self) -> Option<ExplainReport> {
        self.shared
            .last_explain
            .lock()
            .expect("explain report poisoned")
            .clone()
    }

    /// The synchronous explain path: one session-lock acquisition for
    /// the whole sweep, one [`ExplainSink`] across its contiguous
    /// same-function runs, every engine counter bumped exactly as the
    /// coalescing path would (`coalesced + singleton == queries` holds
    /// through explain traffic too).
    fn explain_serve(
        &self,
        session_id: SessionId,
        targets: &[(String, Loc)],
    ) -> Result<(Vec<Result<D, EngineError>>, ExplainReport), EngineError> {
        let session = session_of(&self.shared, session_id)?;
        let t_wait = std::time::Instant::now();
        let mut guard = lock_session(&self.shared, &session);
        let lock_wait_ns = t_wait.elapsed().as_nanos() as u64;
        let t_held = std::time::Instant::now();
        if !guard.intra_backend() {
            return Err(EngineError::Daig(DaigError::Invariant(
                "explain requires the intraprocedural backend".to_string(),
            )));
        }
        let mut explain_span = dai_trace::span!("engine.explain");
        let mut lock_span = dai_trace::span!("engine.session_lock");
        let mut sink = ExplainSink::new();
        let mut results = Vec::with_capacity(targets.len());
        let mut work = QueryStats::default();
        let mut eval_ns = 0u64;
        let mut i = 0;
        while i < targets.len() {
            let func = &targets[i].0;
            let j = targets[i..]
                .iter()
                .position(|(f, _)| f != func)
                .map_or(targets.len(), |n| i + n);
            let locs: Vec<Loc> = targets[i..j].iter().map(|(_, l)| *l).collect();
            let mut shared_stats = QueryStats::default();
            let mut per_query = vec![QueryStats::default(); locs.len()];
            let t0 = std::time::Instant::now();
            let (r, _) = guard.query_locs(
                func,
                &locs,
                &self.shared.memo,
                &mut shared_stats,
                &mut per_query,
                Some(&mut sink),
            );
            eval_ns += t0.elapsed().as_nanos() as u64;
            results.extend(r);
            let served = locs.len() as u64;
            if served >= 2 {
                self.shared.batches.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .coalesced_queries
                    .fetch_add(served, Ordering::Relaxed);
                self.shared
                    .union_cone_cells
                    .fetch_add(shared_stats.cone_cells, Ordering::Relaxed);
                self.shared
                    .union_cone_walks
                    .fetch_add(shared_stats.cone_walks, Ordering::Relaxed);
            } else {
                self.shared
                    .singleton_queries
                    .fetch_add(1, Ordering::Relaxed);
            }
            self.shared.queries.fetch_add(served, Ordering::Relaxed);
            work.absorb(shared_stats);
            for pq in &per_query {
                work.absorb(*pq);
            }
            i = j;
        }
        lock_span.set_arg(targets.len() as u64);
        drop(lock_span);
        let lock_held_ns = t_held.elapsed().as_nanos() as u64;
        drop(guard);
        self.shared
            .work
            .lock()
            .expect("stats poisoned")
            .0
            .absorb(work);
        let report = sink.finish_report(
            D::domain_tag(),
            self.shared.transfer.as_str().to_string(),
            lock_wait_ns,
            lock_held_ns,
            eval_ns,
        );
        explain_span.set_arg(report.cells.len() as u64);
        drop(explain_span);
        // Per-domain evaluation latency: one histogram per domain tag,
        // registered on first capture.
        dai_trace::metrics()
            .histogram(&format!("dai_explain_eval_seconds_{}", report.domain))
            .observe_ns(eval_ns);
        self.shared
            .explain_totals
            .lock()
            .expect("explain stats poisoned")
            .absorb_report(&report);
        *self
            .shared
            .last_explain
            .lock()
            .expect("explain report poisoned") = Some(report.clone());
        Ok((results, report))
    }

    /// Submits a request and blocks for its response.
    ///
    /// # Errors
    ///
    /// See [`Ticket::wait`].
    pub fn request(&self, request: Request) -> Result<Response<D>, EngineError> {
        self.submit(request).wait()
    }

    /// Convenience: a synchronous query returning the abstract state.
    ///
    /// # Errors
    ///
    /// See [`Engine::request`].
    pub fn query(&self, session: SessionId, func: &str, loc: Loc) -> Result<D, EngineError> {
        self.request(Request::Query {
            session,
            func: func.to_string(),
            loc,
        })?
        .state_or_invariant()
    }

    /// Current engine-wide statistics (read without blocking workers).
    pub fn stats(&self) -> EngineStats {
        snapshot_stats(&self.shared, self.pool.workers())
    }

    /// The `(submitted, applied)` edit-fence counters of a session: how
    /// many `Edit`s were submitted against it, and how many of those have
    /// completed. Pending queries stamped above `applied` are deferred —
    /// this is the epoch a batch splits at.
    pub fn session_fence(&self, id: SessionId) -> (u64, u64) {
        let fence = fence_of(&self.shared, id);
        (
            fence.submitted.load(Ordering::SeqCst),
            fence.applied.load(Ordering::SeqCst),
        )
    }

    /// Flips the runtime tracing switch. The switch (like the per-thread
    /// recorders behind it) is process-wide — it covers every layer's
    /// probes, not just this engine's — so remote `trace on` over the
    /// RPC socket lights up the whole query path.
    pub fn set_tracing(&self, on: bool) {
        dai_trace::config().set_enabled(on);
    }

    /// Whether runtime tracing is currently enabled.
    pub fn tracing_enabled(&self) -> bool {
        dai_trace::config().is_enabled()
    }

    /// Drains every thread's trace ring into one dump (records sorted by
    /// start time). Draining consumes the records.
    pub fn drain_trace(&self) -> dai_trace::TraceDump {
        dai_trace::drain()
    }

    /// Drains the trace and encodes it as one checksummed binary frame;
    /// [`dai_persist::decode_trace_frame`] reads it back.
    pub fn dump_trace_binary(&self) -> Vec<u8> {
        dai_persist::encode_trace_frame(&self.drain_trace())
    }

    /// Prometheus text exposition of the process metrics registry, with
    /// this engine's current [`EngineStats`] published into `dai_*`
    /// gauges first so the scrape always reflects the live counters.
    pub fn metrics_text(&self) -> String {
        self.stats().publish_metrics();
        dai_trace::metrics().render_prometheus()
    }

    /// The per-session activity counters of `id` (queries, edits,
    /// saves, loads) — per-session attribution, unlike the engine-wide
    /// [`EngineStats`] totals.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoSuchSession`] for unknown ids.
    pub fn session_counters(&self, id: SessionId) -> Result<SessionCounters, EngineError> {
        let session = self.session(id)?;
        let guard = session.lock().expect("session poisoned");
        Ok(guard.full_counters())
    }

    /// Whether `id` is a read-only replica session.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoSuchSession`] for unknown ids.
    pub fn session_is_replica(&self, id: SessionId) -> Result<bool, EngineError> {
        let session = self.session(id)?;
        let guard = session.lock().expect("session poisoned");
        Ok(guard.is_replica())
    }

    /// The attached journal, if [`Engine::open_journal`] has run.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.shared
            .journal
            .read()
            .expect("journal slot poisoned")
            .clone()
    }

    /// Opens (or creates) the journal at `path`, **recovers** by
    /// replaying its clean prefix into this engine — opens, edits,
    /// closes, snapshots; any torn tail was already truncated by
    /// [`Journal::open`] — and then attaches the journal so every
    /// subsequent source-backed open, edit, close, and save is
    /// appended. Sessions opened *before* the journal attaches are
    /// adopted lazily: their first journaled event writes their `Open`.
    ///
    /// # Errors
    ///
    /// I/O failures, an already-attached journal, or a replayed entry
    /// that fails to apply (a parse error in a logged source — the
    /// journal lied). Tail damage is NOT an error.
    pub fn open_journal(
        &self,
        path: impl Into<std::path::PathBuf>,
        config: JournalConfig,
    ) -> Result<JournalRecovery, EngineError> {
        if self.journal().is_some() {
            return Err(EngineError::Daig(DaigError::Invariant(
                "a journal is already attached to this engine".to_string(),
            )));
        }
        let (journal, replay) = Journal::open(path, config)?;
        for entry in &replay.entries {
            self.apply_journal_entry(entry, false)?;
        }
        let journal = Arc::new(journal);
        let recovery = JournalRecovery {
            entries_replayed: replay.entries.len(),
            damaged_len: replay.damaged_len,
            last_seq: journal.last_seq(),
        };
        *self.shared.journal.write().expect("journal slot poisoned") = Some(journal);
        Ok(recovery)
    }

    /// Applies one journal entry to this engine — the shared spine of
    /// cold-start recovery (`replica = false`: the replayed sessions
    /// are this engine's own, writable) and follower replication
    /// (`replica = true`: sessions are read-only mirrors; edits arrive
    /// only through this path). Sound at any prefix: a journal prefix
    /// describes a consistent (older) program state, and demanded
    /// evaluation from any consistent prior state answers correctly.
    ///
    /// # Errors
    ///
    /// Parse/CFG failures on `Open`, unknown journal sessions on
    /// `Edit`/`Close`, snapshot decode failures.
    pub fn apply_journal_entry(
        &self,
        entry: &JournalEntry,
        replica: bool,
    ) -> Result<(), EngineError> {
        let shared = &self.shared;
        let local_of = |journal_id: u64| -> Result<SessionId, EngineError> {
            shared
                .journal_map
                .lock()
                .expect("journal map poisoned")
                .to_local
                .get(&journal_id)
                .copied()
                .ok_or(EngineError::NoSuchSession(SessionId(journal_id)))
        };
        match &entry.record {
            JournalRecord::Open { name, source } => {
                let program = dai_lang::parse_program(source)
                    .map_err(|e| EngineError::Parse(e.to_string()))
                    .and_then(|p| lower_program(&p).map_err(EngineError::Cfg))?;
                let mut session = Session::with_config(
                    name.clone(),
                    program,
                    shared.strategy,
                    shared.resolver,
                    shared.transfer,
                    Some(source.clone()),
                    shared.memo_capacity,
                );
                session.set_replica(replica);
                self.install_journaled(entry.session, session);
            }
            JournalRecord::Edit { edit } => {
                let local = local_of(entry.session)?;
                let session = session_of(shared, local)?;
                let mut guard = lock_session(shared.as_ref(), &session);
                // Deliberately NOT gated on `is_replica`: this is the
                // one path through which replica sessions change.
                guard.apply_edit(edit)?;
                drop(guard);
                shared.edits.fetch_add(1, Ordering::Relaxed);
            }
            JournalRecord::Close => {
                let local = local_of(entry.session)?;
                self.close_session(local);
            }
            JournalRecord::Snapshot { bytes } => {
                let (image, report) = SessionImage::<D>::from_bytes(bytes)?;
                let restore_resolver = match image.policy {
                    Some(policy) => ResolverChoice::Interproc { policy },
                    None => ResolverChoice::Intra,
                };
                let (mut session, _, _) = Session::restore(
                    image,
                    restore_resolver,
                    shared.transfer,
                    shared.memo_capacity,
                    &report,
                )?;
                session.set_replica(replica);
                self.install_journaled(entry.session, session);
            }
        }
        shared.applied_seq.store(entry.seq, Ordering::Relaxed);
        shared.applied_frames.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Installs a replayed session for journal session `journal_id`. One
    /// already mapped — a follower meeting a compaction's snapshot, or an
    /// `Open` it re-appended — is refreshed in place, keeping the local
    /// id stable for queries in flight against it.
    fn install_journaled(&self, journal_id: u64, session: Session<D>) {
        let shared = &self.shared;
        let mut map = shared.journal_map.lock().expect("journal map poisoned");
        match map.to_local.get(&journal_id).copied() {
            Some(local) => {
                shared
                    .sessions
                    .write()
                    .expect("session map poisoned")
                    .insert(local, Arc::new(Mutex::new(session)));
            }
            None => {
                let id = self.install_session(session);
                map.bind(journal_id, id);
            }
        }
    }

    /// Compacts the attached journal if it has crossed its configured
    /// append threshold: one `DAIP` snapshot frame per journal-bound
    /// session replaces the history it covers, and frames appended while
    /// the snapshots were taken ride behind them. Returns `true` when a
    /// compaction ran. Called automatically after journaled edits; the
    /// REPL's `journal compact` invokes it directly (`force = true`).
    ///
    /// # Errors
    ///
    /// Imaging or I/O failures (the journal is left as it was).
    pub fn compact_journal(&self, force: bool) -> Result<bool, EngineError> {
        compact_attached_journal(&self.shared, force)
    }
}

/// [`Engine::compact_journal`]'s body, callable from the request path.
fn compact_attached_journal<D: PersistDomain>(
    shared: &EngineShared<D>,
    force: bool,
) -> Result<bool, EngineError> {
    let Some(journal) = shared
        .journal
        .read()
        .expect("journal slot poisoned")
        .clone()
    else {
        return Ok(false);
    };
    if !force && !journal.wants_compaction() {
        return Ok(false);
    }
    // Copy the bindings out first: imaging locks sessions, and the
    // map lock must never be held across a session lock.
    let bound: Vec<(u64, SessionId)> = {
        let map = shared.journal_map.lock().expect("journal map poisoned");
        let mut v: Vec<_> = map.to_local.iter().map(|(j, l)| (*j, *l)).collect();
        v.sort_unstable();
        v
    };
    let mut cuts = Vec::with_capacity(bound.len());
    for (journal_id, local) in bound {
        let Ok(session) = session_of(shared, local) else {
            continue; // closed concurrently — the journal drops it whole
        };
        // A session's frames are appended under its lock (`journal_record`),
        // so under the lock its image is exactly its frames up to the
        // head. The journal lock is taken inside the session lock, never
        // the other way round.
        let guard = session.lock().expect("session poisoned");
        let covers = journal.session_head(journal_id);
        if covers == 0 {
            continue; // its `Open` has not landed: every frame rides the tail
        }
        let image = guard.image()?;
        drop(guard);
        cuts.push(SessionCut {
            session: journal_id,
            covers,
            bytes: image.to_bytes(),
        });
    }
    journal.compact(cuts)?;
    Ok(true)
}

/// The outcome of [`Engine::open_journal`]'s recovery replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Entries replayed from the journal's clean prefix.
    pub entries_replayed: usize,
    /// Bytes of torn/damaged tail truncated away (0 for a clean file).
    pub damaged_len: usize,
    /// The journal's last handed-out sequence number after recovery.
    pub last_seq: u64,
}

/// Appends a source-backed session's `Open` frame (no-op without an
/// attached journal).
fn journal_open<D: AbstractDomain>(
    shared: &EngineShared<D>,
    local: SessionId,
    name: &str,
    source: &str,
) {
    let Some(journal) = shared
        .journal
        .read()
        .expect("journal slot poisoned")
        .clone()
    else {
        return;
    };
    let mut map = shared.journal_map.lock().expect("journal map poisoned");
    let journal_id = map.next_id;
    map.bind(journal_id, local);
    drop(map);
    journal_append(
        &journal,
        journal_id,
        JournalRecord::Open {
            name: name.to_string(),
            source: source.to_string(),
        },
    );
}

/// Appends a `Close` frame for a bound session and drops the binding
/// (no-op for unbound sessions or without a journal).
fn journal_close<D: AbstractDomain>(shared: &EngineShared<D>, local: SessionId) {
    let unbound = shared
        .journal_map
        .lock()
        .expect("journal map poisoned")
        .unbind_local(local);
    let Some(journal_id) = unbound else { return };
    let Some(journal) = shared
        .journal
        .read()
        .expect("journal slot poisoned")
        .clone()
    else {
        return;
    };
    journal_append(&journal, journal_id, JournalRecord::Close);
}

/// Appends `record` for the session `local` is bound to, lazily
/// adopting a pre-journal session (its `Open` is written first, from
/// the locked session's own name and source). Call with the session
/// lock held so the session's frames appear in its edit order. Returns
/// whether the frame landed in the journal.
fn journal_record<D: AbstractDomain>(
    shared: &EngineShared<D>,
    local: SessionId,
    guard: &Session<D>,
    record: JournalRecord,
) -> bool {
    let Some(journal) = shared
        .journal
        .read()
        .expect("journal slot poisoned")
        .clone()
    else {
        return false;
    };
    let mut map = shared.journal_map.lock().expect("journal map poisoned");
    let journal_id = match map.to_journal.get(&local) {
        Some(id) => *id,
        None => {
            // Adopt: sessions without source aren't replayable, so they
            // stay out of the journal entirely.
            let Some(source) = guard.source() else {
                return false;
            };
            let journal_id = map.next_id;
            map.bind(journal_id, local);
            journal_append(
                &journal,
                journal_id,
                JournalRecord::Open {
                    name: guard.name().to_string(),
                    source: source.to_string(),
                },
            );
            journal_id
        }
    };
    drop(map);
    journal_append(&journal, journal_id, record)
}

/// One journal append, with failures counted rather than propagated:
/// the state change the frame describes has already happened, so the
/// caller cannot un-apply it — an append failure costs durability (and
/// is visible in `dai_journal_append_errors_total`), never consistency.
/// Returns whether the frame landed.
fn journal_append(journal: &Journal, journal_id: u64, record: JournalRecord) -> bool {
    let landed = journal.append(journal_id, record).is_ok();
    if !landed {
        dai_trace::metrics()
            .counter("dai_journal_append_errors_total")
            .inc();
    }
    landed
}

/// Builds one reply slot, returning the waiting and the producing half.
pub(crate) fn reply_slot<D>() -> (Ticket<D>, Responder<D>) {
    let cell = Arc::new(Oneshot {
        slot: Mutex::new(Slot {
            value: None,
            hook: None,
            parked: false,
        }),
        ready: Condvar::new(),
    });
    let responder = Responder {
        cell: Arc::clone(&cell),
        sent: false,
    };
    (Ticket { cell }, responder)
}

/// Resolves a session id against the shared map (used by both the
/// `Engine` methods and the in-stream request handler).
fn session_of<D: AbstractDomain>(
    shared: &EngineShared<D>,
    id: SessionId,
) -> Result<Arc<Mutex<Session<D>>>, EngineError> {
    shared
        .sessions
        .read()
        .expect("session map poisoned")
        .get(&id)
        .cloned()
        .ok_or(EngineError::NoSuchSession(id))
}

/// The session's fence, created on first use (see `EngineShared::fences`).
fn fence_of<D: AbstractDomain>(shared: &EngineShared<D>, id: SessionId) -> Arc<Fence<D>> {
    if let Some(f) = shared
        .fences
        .read()
        .expect("fence map poisoned")
        .get(&id)
        .cloned()
    {
        return f;
    }
    Arc::clone(
        shared
            .fences
            .write()
            .expect("fence map poisoned")
            .entry(id)
            .or_default(),
    )
}

/// Locks a session for serving, counting the acquisition.
fn lock_session<'s, D: AbstractDomain>(
    shared: &EngineShared<D>,
    session: &'s Mutex<Session<D>>,
) -> std::sync::MutexGuard<'s, Session<D>> {
    let guard = session.lock().expect("session poisoned");
    shared.session_locks.fetch_add(1, Ordering::Relaxed);
    guard
}

/// Adds `members` to the pending queue under `(session, func)`, stamping
/// each with the current fences, and spawns a leader job iff the key had
/// no pending members (an existing entry already has a responsible party —
/// its leader, or the fence whose completion will kick it).
fn enqueue_queries<D: PersistDomain>(
    shared: &Arc<EngineShared<D>>,
    pool: &PoolHandle,
    session: SessionId,
    func: String,
    members: Vec<(Loc, Responder<D>)>,
) {
    if members.is_empty() {
        return;
    }
    dai_trace::event!("engine.enqueue", members.len());
    let fence = fence_of(shared, session).submitted.load(Ordering::SeqCst);
    let key = (session, func);
    let spawn_leader = {
        let mut pending = shared.pending.lock().expect("pending queue poisoned");
        let entry = pending.entry(key.clone()).or_default();
        let was_empty = entry.is_empty();
        entry.extend(members.into_iter().map(|(loc, responder)| PendingQuery {
            loc,
            responder,
            fence,
        }));
        was_empty
    };
    if spawn_leader {
        spawn_batch_leader(shared, pool, key);
    }
}

/// Queues a leader job that will drain and answer `key`'s pending batch.
fn spawn_batch_leader<D: PersistDomain>(
    shared: &Arc<EngineShared<D>>,
    pool: &PoolHandle,
    key: BatchKey,
) {
    let shared = Arc::clone(shared);
    let pool2 = pool.clone();
    pool.spawn(move || serve_batch(&shared, &pool2, key));
}

/// Re-kicks pending batches after a session's fence completed: spawns a
/// leader for each of its non-empty entries. Spurious leaders are
/// harmless: a drain that finds nothing eligible puts the members back and
/// returns.
fn kick_pending<D: PersistDomain>(
    shared: &Arc<EngineShared<D>>,
    pool: &PoolHandle,
    session: SessionId,
) {
    let keys: Vec<BatchKey> = shared
        .pending
        .lock()
        .expect("pending queue poisoned")
        .iter()
        .filter(|((s, _), members)| !members.is_empty() && *s == session)
        .map(|(k, _)| k.clone())
        .collect();
    for key in keys {
        spawn_batch_leader(shared, pool, key);
    }
}

/// Bumps a session fence's `applied` counter and re-kicks its pending
/// batches when dropped — attached to every edit so the bump happens on
/// *every* exit path, errors included; a query deferred behind a fence
/// must never wait forever.
struct FenceCompletion<'a, D: PersistDomain> {
    shared: &'a Arc<EngineShared<D>>,
    pool: &'a PoolHandle,
    session: SessionId,
}

impl<D: PersistDomain> Drop for FenceCompletion<'_, D> {
    fn drop(&mut self) {
        fence_of(self.shared.as_ref(), self.session)
            .applied
            .fetch_add(1, Ordering::SeqCst);
        kick_pending(self.shared, self.pool, self.session);
    }
}

/// An edit job: applies the oldest queued edit of session `sid` and answers
/// it. One job is spawned per queued edit, so there is always one to take;
/// it need not be the one whose submission spawned this job.
fn apply_next_edit<D: PersistDomain>(
    shared: &Arc<EngineShared<D>>,
    pool: &PoolHandle,
    sid: SessionId,
) {
    let fence = fence_of(shared.as_ref(), sid);
    let next = || {
        let mut edits = fence.edits.lock().expect("edit queue poisoned");
        edits.pop_front().expect("one queued edit per edit job")
    };
    let (out, responder) = {
        // The fence was bumped at submit time; its completion (bump of
        // `applied` + re-kick of deferred queries) must happen on every
        // exit path — a failed edit changed nothing, so releasing the
        // queries it fenced is sound — and before the edit is answered.
        let _fence = FenceCompletion {
            shared,
            pool,
            session: sid,
        };
        let _edit_span = dai_trace::span!("engine.edit");
        match session_of(shared, sid) {
            Err(e) => (Err(e), next().1),
            Ok(session) => {
                let mut guard = lock_session(shared.as_ref(), &session);
                let _lock_span = dai_trace::span!("engine.session_lock");
                // Taken with the session locked: see `Fence::edits`.
                let (edit, responder) = next();
                let out = if guard.is_replica() {
                    Err(EngineError::ReadOnly(sid))
                } else {
                    guard.apply_edit(&edit)
                };
                if out.is_ok() {
                    // Behind the session lock: this session's journal
                    // frames land in its edit order.
                    journal_record(shared.as_ref(), sid, &guard, JournalRecord::Edit { edit });
                }
                drop(guard);
                if out.is_ok() {
                    shared.edits.fetch_add(1, Ordering::Relaxed);
                    // Past the threshold? Fold history into snapshots. A
                    // compaction failure costs journal size, not the edit.
                    let _ = compact_attached_journal(shared.as_ref(), false);
                }
                (out, responder)
            }
        }
    };
    responder.send(out.map(Response::Edited));
}

/// The leader job: drains `key`'s pending batch under one session-lock
/// acquisition, answers every fence-eligible member from one union-cone
/// evaluation, and defers later-stamped members back to the queue (their
/// fence's completion re-kicks them).
fn serve_batch<D: PersistDomain>(shared: &Arc<EngineShared<D>>, pool: &PoolHandle, key: BatchKey) {
    let (session_id, ref func) = key;
    // A kicked leader may race a regular one that already drained the
    // entry; don't take the session lock just to discover that.
    if shared
        .pending
        .lock()
        .expect("pending queue poisoned")
        .get(&key)
        .is_none_or(|m| m.is_empty())
    {
        return;
    }
    let session = match session_of(shared, session_id) {
        Ok(s) => s,
        Err(_) => {
            // The session is gone: answer everyone immediately — fences
            // are moot for a session that no longer exists. The members
            // were still served (an error each), so the accounting
            // identity counts them like any other drain.
            let members = shared
                .pending
                .lock()
                .expect("pending queue poisoned")
                .remove(&key)
                .unwrap_or_default();
            let served = members.len() as u64;
            if served >= 2 {
                shared.batches.fetch_add(1, Ordering::Relaxed);
                shared
                    .coalesced_queries
                    .fetch_add(served, Ordering::Relaxed);
            } else if served == 1 {
                shared.singleton_queries.fetch_add(1, Ordering::Relaxed);
            }
            shared.queries.fetch_add(served, Ordering::Relaxed);
            dai_trace::event!("engine.answer", served);
            for m in members {
                m.responder
                    .send(Err(EngineError::NoSuchSession(session_id)));
            }
            return;
        }
    };
    let t0 = std::time::Instant::now();
    let mut guard = lock_session(shared.as_ref(), &session);
    // Opened only after the lock is held (a leader waiting its turn must
    // not overlap the holder's span — the acceptance trace shows strictly
    // serialized held regions, each enclosing its batch's cone walk and
    // cell evaluations), and explicitly dropped before the answers go
    // out, so a client draining the instant its sweep returns sees it.
    let mut lock_span = dai_trace::span!("engine.session_lock");
    let applied = fence_of(shared.as_ref(), session_id)
        .applied
        .load(Ordering::SeqCst);
    let eligible: Vec<PendingQuery<D>> = {
        let mut pending = shared.pending.lock().expect("pending queue poisoned");
        let members = pending.remove(&key).unwrap_or_default();
        let (eligible, deferred): (Vec<_>, Vec<_>) =
            members.into_iter().partition(|m| m.fence <= applied);
        if !deferred.is_empty() {
            dai_trace::event!("engine.fence_defer", deferred.len());
            // The batch splits at the fence: later-stamped members stay
            // queued for the fence's completion kick (re-inserted *before*
            // the re-check below, so no kick can slip between).
            pending.entry(key.clone()).or_default().extend(deferred);
        }
        eligible
    };
    if eligible.is_empty() {
        drop(lock_span);
        drop(guard);
        recheck_deferred(shared, pool, &key, applied);
        return;
    }
    let locs: Vec<Loc> = eligible.iter().map(|m| m.loc).collect();
    let mut shared_stats = QueryStats::default();
    let mut per_query = vec![QueryStats::default(); locs.len()];
    let (results, inter_memo) = guard.query_locs(
        func,
        &locs,
        &shared.memo,
        &mut shared_stats,
        &mut per_query,
        None,
    );
    let served = eligible.len() as u64;
    lock_span.set_arg(served);
    // Recorded while the lock is still held: closing after the release
    // would let a successor's span open inside ours, and recording after
    // the answers go out would let a client that drains the trace the
    // instant its sweep returns miss this batch's span entirely.
    drop(lock_span);
    drop(guard);
    if served >= 2 {
        dai_trace::event!("engine.coalesce", served);
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .coalesced_queries
            .fetch_add(served, Ordering::Relaxed);
        shared
            .union_cone_cells
            .fetch_add(shared_stats.cone_cells, Ordering::Relaxed);
        shared
            .union_cone_walks
            .fetch_add(shared_stats.cone_walks, Ordering::Relaxed);
    } else {
        shared.singleton_queries.fetch_add(1, Ordering::Relaxed);
    }
    // Every member was served an answer — count failures too, so the
    // `coalesced + singleton == queries` accounting identity holds
    // unconditionally.
    shared.queries.fetch_add(served, Ordering::Relaxed);
    let mut work = shared_stats;
    for pq in &per_query {
        work.absorb(*pq);
    }
    let mut totals = shared.work.lock().expect("stats poisoned");
    totals.0.absorb(work);
    totals.1.absorb(inter_memo);
    drop(totals);
    dai_trace::event!("engine.answer", served);
    for (m, r) in eligible.into_iter().zip(results) {
        m.responder.send(r.map(Response::State));
    }
    batch_latency().observe_ns(t0.elapsed().as_nanos() as u64);
    recheck_deferred(shared, pool, &key, applied);
}

/// The engine-wide batch-serve latency histogram, registered once.
fn batch_latency() -> &'static dai_trace::Histogram {
    static H: std::sync::OnceLock<dai_trace::Histogram> = std::sync::OnceLock::new();
    H.get_or_init(|| dai_trace::metrics().histogram("dai_engine_batch_serve_seconds"))
}

/// After a drain deferred members: if the fence moved past the value the
/// drain used while it held the queue, the completion kick may already
/// have fired into the drained-out window — re-kick so nothing strands.
fn recheck_deferred<D: PersistDomain>(
    shared: &Arc<EngineShared<D>>,
    pool: &PoolHandle,
    key: &BatchKey,
    applied_seen: u64,
) {
    let still_pending = shared
        .pending
        .lock()
        .expect("pending queue poisoned")
        .get(key)
        .is_some_and(|m| !m.is_empty());
    if !still_pending {
        return;
    }
    let applied_now = fence_of(shared.as_ref(), key.0)
        .applied
        .load(Ordering::SeqCst);
    if applied_now > applied_seen {
        spawn_batch_leader(shared, pool, key.clone());
    }
}

/// One place that assembles [`EngineStats`], used by both
/// [`Engine::stats`] and the in-stream [`Request::Stats`] handler.
fn snapshot_stats<D: AbstractDomain>(shared: &EngineShared<D>, workers: usize) -> EngineStats {
    let (query_stats, inter_memo) = *shared.work.lock().expect("stats poisoned");
    EngineStats {
        workers,
        sessions: shared.sessions.read().expect("session map poisoned").len(),
        queries: shared.queries.load(Ordering::Relaxed),
        edits: shared.edits.load(Ordering::Relaxed),
        snapshots: shared.snapshots.load(Ordering::Relaxed),
        saves: shared.saves.load(Ordering::Relaxed),
        loads: shared.loads.load(Ordering::Relaxed),
        session_locks: shared.session_locks.load(Ordering::Relaxed),
        batch: BatchStats {
            batches: shared.batches.load(Ordering::Relaxed),
            coalesced_queries: shared.coalesced_queries.load(Ordering::Relaxed),
            singleton_queries: shared.singleton_queries.load(Ordering::Relaxed),
            union_cone_cells: shared.union_cone_cells.load(Ordering::Relaxed),
            union_cone_walks: shared.union_cone_walks.load(Ordering::Relaxed),
        },
        query_stats,
        explain: shared
            .explain_totals
            .lock()
            .expect("explain stats poisoned")
            .clone(),
        memo: {
            let mut memo = shared.memo.stats();
            memo.absorb(inter_memo);
            memo
        },
        replication: {
            let journal = shared
                .journal
                .read()
                .expect("journal slot poisoned")
                .clone();
            ReplicationStats {
                journal_attached: journal.is_some(),
                journal_last_seq: journal.as_ref().map_or(0, |j| j.last_seq()),
                journal_frames: journal.as_ref().map_or(0, |j| j.frames()),
                applied_seq: shared.applied_seq.load(Ordering::Relaxed),
                applied_frames: shared.applied_frames.load(Ordering::Relaxed),
            }
        },
    }
}

impl<D: AbstractDomain> fmt::Debug for Response<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::State(_) => write!(f, "Response::State(..)"),
            Response::Edited(o) => write!(f, "Response::Edited({o:?})"),
            Response::Snapshot(_) => write!(f, "Response::Snapshot(..)"),
            Response::Saved(o) => write!(f, "Response::Saved({o:?})"),
            Response::Loaded { session, outcome } => {
                write!(f, "Response::Loaded {{ {session}, {outcome:?} }}")
            }
            Response::Stats(s) => write!(f, "Response::Stats({s:?})"),
        }
    }
}

fn process<D: PersistDomain>(
    shared: &Arc<EngineShared<D>>,
    pool: &PoolHandle,
    request: Request,
) -> Result<Response<D>, EngineError> {
    match request {
        Request::Query { .. } | Request::Edit { .. } => {
            // Unreachable: `Engine::submit` routes every query through the
            // coalescing queue (`enqueue_queries`) and every edit through
            // its session's edit queue (`apply_next_edit`).
            Err(EngineError::Daig(DaigError::Invariant(
                "queries and edits are served through their queues, not process()".to_string(),
            )))
        }
        Request::Snapshot { session } => {
            let session = session_of(shared, session)?;
            let guard = lock_session(shared.as_ref(), &session);
            let _lock_span = dai_trace::span!("engine.session_lock");
            let snap = guard.snapshot();
            drop(guard);
            shared.snapshots.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Snapshot(snap))
        }
        Request::Save { session, path } => {
            let mut save_span = dai_trace::span!("engine.save");
            let session = session_of(shared, session)?;
            // Behind the session lock (like Edit): the image is a
            // consistent point in this session's request stream. The
            // engine-wide memo table is not saved — it belongs to no one
            // session, and a restored DAIG answers without it.
            let guard = lock_session(shared.as_ref(), &session);
            let _lock_span = dai_trace::span!("engine.session_lock");
            let image = guard.image()?;
            drop(guard);
            let funcs = image.funcs.len();
            let bytes = image.to_bytes();
            save_span.set_arg(bytes.len() as u64);
            write_snapshot_file_durable(&path, &bytes, shared.durability)?;
            shared.saves.fetch_add(1, Ordering::Relaxed);
            // Per-session attribution happens only once the write has
            // actually landed. The brief relock is bookkeeping, not
            // serving — not a session_lock.
            session.lock().expect("session poisoned").note_saved();
            Ok(Response::Saved(PersistOutcome {
                bytes: bytes.len(),
                funcs,
                ..PersistOutcome::default()
            }))
        }
        Request::Load { path } => {
            // No fence: the restored session's id is assigned below, after
            // the restore, so no pending query can name it.
            let mut load_span = dai_trace::span!("engine.load");
            let bytes = read_snapshot_file(&path)?;
            load_span.set_arg(bytes.len() as u64);
            let (image, report) = SessionImage::<D>::from_bytes(&bytes)?;
            // A snapshot's semantics travel with it: like the iteration
            // strategy, the resolver the restored session runs under is
            // the one it was *saved* under (interprocedural with the
            // saved policy, intraprocedural otherwise) — not the engine's
            // configured default, which applies only to newly opened
            // sessions. Restoring under a different resolver would
            // silently answer with different invariants than the session
            // that was persisted.
            let restore_resolver = match image.policy {
                Some(policy) => ResolverChoice::Interproc { policy },
                None => ResolverChoice::Intra,
            };
            let (session, installed, dropped) = Session::restore(
                image,
                restore_resolver,
                shared.transfer,
                shared.memo_capacity,
                &report,
            )?;
            let id = SessionId(shared.next_session.fetch_add(1, Ordering::Relaxed));
            shared
                .sessions
                .write()
                .expect("session map poisoned")
                .insert(id, Arc::new(Mutex::new(session)));
            shared.loads.fetch_add(1, Ordering::Relaxed);
            Ok(Response::Loaded {
                session: id,
                outcome: PersistOutcome {
                    bytes: bytes.len(),
                    funcs: installed,
                    funcs_dropped: dropped,
                    truncated: report.truncated,
                },
            })
        }
        Request::Stats => Ok(Response::Stats(Box::new(snapshot_stats(
            shared,
            pool.workers(),
        )))),
    }
}
