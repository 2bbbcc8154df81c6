//! Replaying a script against one rung of the stack.
//!
//! [`Backend`] is the operation set of a script; [`ServiceBackend`] runs it
//! through the public `dai_engine::Service` surface (an in-process
//! `Engine` or a `dai_rpc::Client`), and the core rung of the traced run
//! has its own implementation in `ladder.rs`. [`replay`] drives one
//! client's operations closed-loop — the next call is made when the
//! previous one has returned — and takes one latency sample per call.

use crate::gen::{Op, OpKind};
use crate::probe;
use dai_core::driver::ProgramEdit;
use dai_engine::{Engine, EngineError, Service, SessionId};
use dai_lang::Loc;
use dai_persist::PersistDomain;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

/// The operations a script is made of, against numbered sessions.
pub trait Backend<D> {
    fn edit(&mut self, session: usize, edit: &ProgramEdit) -> Result<(), EngineError>;
    fn query(&mut self, session: usize, func: &str, loc: Loc) -> Result<D, EngineError>;
    fn sweep(&mut self, session: usize, targets: &[(String, Loc)]) -> Vec<Result<D, EngineError>>;
    fn burst(&mut self, session: usize, func: &str, locs: &[Loc]) -> Vec<Result<D, EngineError>>;
    fn save(&mut self, session: usize) -> Result<(), EngineError>;
    fn compact(&mut self) -> Result<(), EngineError>;
    /// Waits until every client has reached this point of its script
    /// (before and after a compaction). Nothing to wait for by default.
    fn rendezvous(&mut self) {}
}

/// A burst over the wire is `Client::pipeline_queries`; in process the
/// same members form one `query_batch`.
pub type BurstFn<S, D> = fn(&S, SessionId, &str, &[Loc]) -> Vec<Result<D, EngineError>>;

/// Runs a script through a `Service`.
pub struct ServiceBackend<'a, D: PersistDomain, S: Service<D>> {
    pub service: &'a S,
    pub sessions: &'a [SessionId],
    pub burst: BurstFn<S, D>,
    /// The served engine, for compaction (not a `Service` verb).
    pub engine: &'a Engine<D>,
    /// Whether this client is the one that compacts.
    pub compactor: bool,
    /// Where the clients meet around a compaction, when there are several.
    pub barrier: Option<&'a Barrier>,
    /// Directory snapshot files are saved into.
    pub dir: &'a Path,
}

/// Where `save` of `session` writes.
pub fn snapshot_path(dir: &Path, session: usize) -> String {
    dir.join(format!("session-{session}.daip"))
        .to_string_lossy()
        .into_owned()
}

impl<D: PersistDomain, S: Service<D>> Backend<D> for ServiceBackend<'_, D, S> {
    fn edit(&mut self, session: usize, edit: &ProgramEdit) -> Result<(), EngineError> {
        self.service.edit(self.sessions[session], edit).map(|_| ())
    }

    fn query(&mut self, session: usize, func: &str, loc: Loc) -> Result<D, EngineError> {
        self.service.query(self.sessions[session], func, loc)
    }

    fn sweep(&mut self, session: usize, targets: &[(String, Loc)]) -> Vec<Result<D, EngineError>> {
        self.service.query_sweep(self.sessions[session], targets)
    }

    fn burst(&mut self, session: usize, func: &str, locs: &[Loc]) -> Vec<Result<D, EngineError>> {
        (self.burst)(self.service, self.sessions[session], func, locs)
    }

    fn save(&mut self, session: usize) -> Result<(), EngineError> {
        let path = snapshot_path(self.dir, session);
        self.service.save(self.sessions[session], &path).map(|_| ())
    }

    fn compact(&mut self) -> Result<(), EngineError> {
        if self.compactor {
            self.engine.compact_journal(true)?;
        }
        Ok(())
    }

    fn rendezvous(&mut self) {
        if let Some(barrier) = self.barrier {
            barrier.wait();
        }
    }
}

/// A word-at-a-time hasher for answer digests: answers are hashed on the
/// client between calls, so the hasher has to be cheap next to a 2 KiB
/// DBM. Only ever compared with digests made by this same code in this
/// same process.
#[derive(Debug, Clone, Copy)]
pub struct AnswerHasher(u64);

impl AnswerHasher {
    pub fn new() -> AnswerHasher {
        AnswerHasher(0x5EED_DA16)
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for AnswerHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
        self.mix(bytes.len() as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Which rung a traced replay runs on; names its operation spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    Core,
    Engine,
    Rpc,
    Journal,
}

impl Rung {
    fn span(self, op: &Op) -> &'static str {
        const NAMES: [[&str; 6]; 4] = [
            [
                "core.edit",
                "core.query",
                "core.sweep",
                "core.burst",
                "core.save",
                "core.compact",
            ],
            [
                "engine.edit",
                "engine.query",
                "engine.sweep",
                "engine.burst",
                "engine.save",
                "engine.compact",
            ],
            [
                "rpc.edit",
                "rpc.query",
                "rpc.sweep",
                "rpc.burst",
                "rpc.save",
                "rpc.compact",
            ],
            [
                "journal.edit",
                "journal.query",
                "journal.sweep",
                "journal.burst",
                "journal.save",
                "journal.compact",
            ],
        ];
        NAMES[self as usize][op.kind() as usize]
    }
}

/// What one client's replay measured.
#[derive(Debug, Clone)]
pub struct Outcome<D> {
    /// Latency of every call, ns, in script order, by [`OpKind`].
    pub latency_ns: [Vec<u64>; 6],
    /// Time spent inside calls: the timed window of this client.
    pub busy_ns: u64,
    /// Answers attempted (sweep and burst members count one each).
    pub attempted: u64,
    /// Attempted answers that came back as an error.
    pub failed: u64,
    /// First error seen, for the report.
    pub first_error: Option<String>,
    /// Digest of every answer in script order.
    pub digest: u64,
    /// The answers of each `keep` range, for the oracle.
    pub kept: Vec<Vec<D>>,
}

impl<D> Outcome<D> {
    pub fn latencies(&self, kind: OpKind) -> &[u64] {
        &self.latency_ns[kind as usize]
    }
}

enum Answers<D> {
    /// An edit, save or poll (no state) or a single query.
    One(Result<Option<D>, EngineError>),
    /// The members of a sweep or burst.
    Many(Vec<Result<D, EngineError>>),
}

/// Replays `ops` closed-loop. Answers of ops in the `keep` ranges (sorted,
/// disjoint) are moved into [`Outcome::kept`]. With `traced`, every call
/// is bracketed by a span on this thread's log (see [`probe::begin_op`]).
pub fn replay<D: Hash, B: Backend<D>>(
    backend: &mut B,
    ops: &[Op],
    keep: &[(usize, usize)],
    traced: Option<Rung>,
) -> Outcome<D> {
    let mut out = Outcome {
        latency_ns: Default::default(),
        busy_ns: 0,
        attempted: 0,
        failed: 0,
        first_error: None,
        digest: 0,
        kept: keep.iter().map(|_| Vec::new()).collect(),
    };
    let mut hasher = AnswerHasher::new();
    let mut next_keep = 0;
    for (i, op) in ops.iter().enumerate() {
        while next_keep < keep.len() && keep[next_keep].1 <= i {
            next_keep += 1;
        }
        let kept = (next_keep < keep.len() && keep[next_keep].0 <= i).then_some(next_keep);
        let meet = matches!(op, Op::Compact);
        if meet {
            backend.rendezvous();
        }
        let span = traced.map_or(0, |rung| probe::begin_op(rung.span(op), i as u32));
        let start = Instant::now();
        let answers = match op {
            Op::Edit { session, edit, .. } => {
                Answers::One(backend.edit(*session, edit).map(|()| None))
            }
            Op::Query { session, func, loc } => {
                Answers::One(backend.query(*session, func, *loc).map(Some))
            }
            Op::Sweep { session, targets } => Answers::Many(backend.sweep(*session, targets)),
            Op::Burst {
                session,
                func,
                locs,
            } => Answers::Many(backend.burst(*session, func, locs)),
            Op::Save { session } => Answers::One(backend.save(*session).map(|()| None)),
            Op::Compact => Answers::One(backend.compact().map(|()| None)),
        };
        let ns = start.elapsed().as_nanos() as u64;
        probe::end_op(span);
        if meet {
            backend.rendezvous();
        }
        out.busy_ns += ns;
        out.latency_ns[op.kind() as usize].push(ns);
        // A compaction is timed but is not an answer; it only counts if
        // it fails.
        let expected = crate::gen::op_members(op);
        out.attempted += expected as u64;
        hasher.write_usize(i);
        let fail = |out: &mut Outcome<D>, e: EngineError| {
            out.failed += 1;
            out.first_error.get_or_insert(format!("op {i}: {e}"));
        };
        match answers {
            Answers::One(Ok(Some(state))) => {
                state.hash(&mut hasher);
                if let Some(k) = kept {
                    out.kept[k].push(state);
                }
            }
            Answers::One(Ok(None)) => {}
            Answers::One(Err(e)) => fail(&mut out, e),
            Answers::Many(members) => {
                if members.len() != expected {
                    out.failed += expected as u64;
                    out.first_error.get_or_insert(format!(
                        "op {i}: {} answers for {expected} members",
                        members.len()
                    ));
                    continue;
                }
                for member in members {
                    match member {
                        Ok(state) => {
                            state.hash(&mut hasher);
                            if let Some(k) = kept {
                                out.kept[k].push(state);
                            }
                        }
                        Err(e) => fail(&mut out, e),
                    }
                }
            }
        }
    }
    out.digest = hasher.finish();
    out
}
