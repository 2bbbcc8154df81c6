//! Analysis sessions: one loaded program, analyzed under a configurable
//! call-resolution backend, with a replayable history for persistence.
//!
//! A session is the engine's unit of isolation, serialization *and
//! parallelism*: requests against the same session are serialized behind
//! its lock, while requests against different sessions proceed
//! concurrently on the worker pool.
//!
//! ## Call resolution backends
//!
//! The engine's call handling is a per-engine configuration choice
//! ([`ResolverChoice`]), not a hard-coded policy:
//!
//! * [`ResolverChoice::Intra`] (the default, and the PR 1 behavior) —
//!   per-function units created on demand, entry states from
//!   [`AbstractDomain::entry_default`], calls resolved intraprocedurally
//!   (the domain's conservative transfer), and a batch's demanded cones
//!   evaluated as one union by [`FuncAnalysis::evaluate`]. Every per-function
//!   result is exactly equal to the sequential batch oracle
//!   `dai_core::batch::batch_analyze` on the same CFG — the
//!   from-scratch-consistency gate the engine's test suite enforces.
//! * [`ResolverChoice::Interproc`] — the session wraps a
//!   [`dai_core::InterAnalyzer`] under a [`ContextPolicy`], resolving
//!   calls by demanding callee DAIG exits, exactly the machinery behind
//!   the REPL's `query`/`queryall`. Queries answer with the
//!   context-joined state, so `serve` matches the REPL's
//!   interprocedural answers. Evaluation is sequential (cross-unit
//!   demand is recursive), but still behind the session lock, so
//!   sessions remain concurrent with each other.
//!
//! ## Persistence
//!
//! Sessions opened from source text ([`Session`]'s `source`) record every
//! applied edit; `source + history` is the replayable description of the
//! current program that `dai-persist` snapshots require (see
//! [`Session::image`] / [`Session::restore`]). DAIG warm-start sections
//! are produced by the `Intra` backend (per-function units); an
//! `Interproc` session snapshots cold (source + history only), which is
//! sound — restore just recomputes on demand.

use dai_core::analysis::{resolve_loc_frontier, FuncAnalysis, LocResolution};
use dai_core::compile::TransferMode;
use dai_core::dot::{to_dot, DotOptions};
use dai_core::driver::ProgramEdit;
use dai_core::explain::ExplainSink;
use dai_core::graph::Value;
use dai_core::intern::CellId;
use dai_core::interproc::{ContextPolicy, InterAnalyzer};
use dai_core::name::Name;
use dai_core::query::{IntraResolver, QueryStats};
use dai_core::strategy::FixStrategy;
use dai_domains::AbstractDomain;
use dai_lang::cfg::{lower_program, LoweredProgram};
use dai_lang::{Loc, Symbol};
use dai_memo::{MemoStats, SharedMemoTable};
use dai_persist::{FuncImage, PersistDomain, RestoreReport, SessionImage};
use std::collections::HashMap;

use crate::engine::EngineError;

/// How a session resolves call statements (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolverChoice {
    /// Intraprocedural per-function analysis; calls havoc conservatively;
    /// multi-target evaluation of a batch. The engine's original semantics.
    #[default]
    Intra,
    /// Interprocedural analysis demanding callee exits under the given
    /// context-sensitivity policy; matches the REPL's answers.
    Interproc {
        /// Context-sensitivity policy for callee units.
        policy: ContextPolicy,
    },
}

/// Structural outcome of an edit request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditOutcome {
    /// Locations added by a splice (0 for relabels).
    pub new_locs: usize,
    /// Edges added by a splice (0 for relabels).
    pub new_edges: usize,
}

/// Per-session activity counters (see [`Session::full_counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Queries this session answered.
    pub queries: u64,
    /// Edits applied to this session (replayed history excluded).
    pub edits: u64,
    /// Saves taken of this session.
    pub saves: u64,
    /// Restores that produced or refreshed this session.
    pub loads: u64,
}

/// A deterministic picture of a session's DAIGs: per-function Graphviz
/// exports, sorted by function name (and internally sorted by cell name —
/// see `dai_core::dot`), so two snapshots of structurally identical
/// sessions are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// The session's name.
    pub session: String,
    /// `(function name, DOT source)` pairs, sorted by function name; only
    /// functions whose DAIG has been demanded appear. Interprocedural
    /// sessions list one entry per `(function, context)` unit, labelled
    /// `f @ ctx`.
    pub functions: Vec<(String, String)>,
}

/// One per-function analysis unit plus its query-resolution cache.
///
/// `resolve_loc_cell` is a function of the DAIG's *structure* only (it
/// reads which iterates each converged fix edge points at), so a resolved
/// `(location → cell)` entry stays valid for exactly one structural epoch
/// ([`dai_core::Daig::struct_epoch`]). Caching it turns the steady-state
/// query path — everything already evaluated — into a hash lookup plus a
/// value clone.
struct Unit<D: AbstractDomain> {
    fa: FuncAnalysis<D>,
    resolved: HashMap<Loc, (u64, CellId)>,
}

/// The session's analysis machinery, chosen by [`ResolverChoice`].
///
/// Each backend owns the one copy of the program: an `Inter` session's is
/// its analyzer's.
enum Backend<D: AbstractDomain> {
    Intra {
        program: LoweredProgram,
        units: HashMap<Symbol, Unit<D>>,
    },
    Inter {
        policy: ContextPolicy,
        analyzer: Box<InterAnalyzer<D>>,
    },
}

/// One loaded program and its per-function analyses.
pub struct Session<D: AbstractDomain> {
    name: String,
    strategy: FixStrategy,
    /// Transfer-evaluation mode applied to every unit this session
    /// creates (staged closures vs. the AST interpreter; bit-identical).
    transfer: TransferMode,
    /// The program's original source text, when known; with `history`,
    /// the replayable description persistence saves.
    source: Option<String>,
    /// Every successfully applied edit, in order.
    history: Vec<ProgramEdit>,
    backend: Backend<D>,
    queries: u64,
    edits: u64,
    /// Times this session's state was persisted ([`Session::image`]
    /// successfully taken by a `Save`).
    saves: u64,
    /// 1 for a session that came out of [`Session::restore`], plus any
    /// later re-restores in place (replica snapshot application).
    loads: u64,
    /// `true` for a replica session: state replayed from another
    /// engine's journal, writable only through the replication apply
    /// path — client edits are rejected with `EngineError::ReadOnly`.
    replica: bool,
}

fn make_backend<D: AbstractDomain>(
    resolver: ResolverChoice,
    program: LoweredProgram,
    strategy: FixStrategy,
    transfer: TransferMode,
) -> Backend<D> {
    match resolver {
        ResolverChoice::Intra => Backend::Intra {
            program,
            units: HashMap::new(),
        },
        ResolverChoice::Interproc { policy } => {
            let (entry, phi0) = match program.entry_cfg() {
                Some(cfg) => (cfg.name().to_string(), D::entry_default(cfg.params())),
                None => ("main".to_string(), D::entry_default(&[])),
            };
            Backend::Inter {
                policy,
                analyzer: Box::new(InterAnalyzer::with_config(
                    program, policy, &entry, phi0, strategy, transfer,
                )),
            }
        }
    }
}

/// One `NoSuchFunction` answer per member of a batch on an unknown `func`.
fn no_such_function<D>(func: &str, locs: &[Loc]) -> Vec<Result<D, EngineError>> {
    locs.iter()
        .map(|_| Err(EngineError::NoSuchFunction(func.to_string())))
        .collect()
}

impl<D: AbstractDomain> Session<D> {
    /// Creates an intraprocedural session over `program` under the given
    /// iteration strategy, with no replayable source (not saveable).
    pub fn new(name: impl Into<String>, program: LoweredProgram, strategy: FixStrategy) -> Self {
        Session::with_config(
            name,
            program,
            strategy,
            ResolverChoice::Intra,
            TransferMode::default(),
            None,
        )
    }

    /// Creates a session with an explicit resolver choice, transfer mode,
    /// and (optionally) the program's source text, which makes the
    /// session saveable.
    pub fn with_config(
        name: impl Into<String>,
        program: LoweredProgram,
        strategy: FixStrategy,
        resolver: ResolverChoice,
        transfer: TransferMode,
        source: Option<String>,
    ) -> Self {
        let backend = make_backend(resolver, program, strategy, transfer);
        Session {
            name: name.into(),
            strategy,
            transfer,
            source,
            history: Vec::new(),
            backend,
            queries: 0,
            edits: 0,
            saves: 0,
            loads: 0,
            replica: false,
        }
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program under analysis.
    pub fn program(&self) -> &LoweredProgram {
        match &self.backend {
            Backend::Intra { program, .. } => program,
            Backend::Inter { analyzer, .. } => analyzer.program(),
        }
    }

    /// The resolver choice this session runs under.
    pub fn resolver(&self) -> ResolverChoice {
        match &self.backend {
            Backend::Intra { .. } => ResolverChoice::Intra,
            Backend::Inter { policy, .. } => ResolverChoice::Interproc { policy: *policy },
        }
    }

    /// The original source text, if the session was opened from source.
    pub fn source(&self) -> Option<&str> {
        self.source.as_deref()
    }

    /// The edits applied so far, in order.
    pub fn history(&self) -> &[ProgramEdit] {
        &self.history
    }

    /// Queries served and edits applied so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.queries, self.edits)
    }

    /// All four per-session persistence/activity counters. Per-session,
    /// not engine-global: a `Save` of session A must never inflate
    /// session B's accounting, and a restored session starts with the
    /// query/edit history it actually replayed — zero — plus one load.
    pub fn full_counters(&self) -> SessionCounters {
        SessionCounters {
            queries: self.queries,
            edits: self.edits,
            saves: self.saves,
            loads: self.loads,
        }
    }

    /// Records a successful persist of this session's image.
    pub fn note_saved(&mut self) {
        self.saves += 1;
    }

    /// Whether this session is a read-only replica (see the field doc).
    pub fn is_replica(&self) -> bool {
        self.replica
    }

    /// Marks this session as a read-only replica.
    pub fn set_replica(&mut self, replica: bool) {
        self.replica = replica;
    }

    fn unit_mut<'u>(
        units: &'u mut HashMap<Symbol, Unit<D>>,
        program: &LoweredProgram,
        strategy: FixStrategy,
        transfer: TransferMode,
        func: &str,
    ) -> Result<&'u mut Unit<D>, EngineError> {
        let sym = Symbol::new(func);
        if !units.contains_key(&sym) {
            let cfg = program
                .by_name(func)
                .ok_or_else(|| EngineError::NoSuchFunction(func.to_string()))?
                .clone();
            let phi0 = D::entry_default(cfg.params());
            units.insert(
                sym.clone(),
                Unit {
                    fa: FuncAnalysis::with_config(cfg, phi0, strategy, transfer),
                    resolved: HashMap::new(),
                },
            );
        }
        Ok(units.get_mut(&sym).expect("just ensured"))
    }

    /// Answers a whole batch of location queries against one function in
    /// a single pass — the engine's coalesced-query path.
    ///
    /// `Intra`: the members' demanded cones are evaluated as a **union**:
    /// each round collects, per still-unanswered member, either its
    /// resolved location cell or the outermost unconverged fix cell
    /// blocking its resolution ([`resolve_loc_frontier`]), and demands
    /// all of them in *one* multi-target [`FuncAnalysis::evaluate`] call,
    /// on the calling thread. A cold batch therefore walks one union cone
    /// instead of one cone per member, and applies its cells in the order
    /// sequential per-target queries would — so every answer is exactly
    /// the sequential evaluator's (and the batch oracle's) value.
    /// `Interproc`: members are answered sequentially by
    /// [`dai_core::InterAnalyzer::query_joined`] under the one session
    /// lock the caller already holds — the batching win there is the
    /// single lock acquisition.
    ///
    /// Shared work (the union-cone evaluation) is recorded into
    /// `shared_stats`; per-member bookkeeping (cache hits, reuse,
    /// interprocedural work) into `per_query[i]`. Members fail
    /// individually: an unknown location yields `Err` in its slot while
    /// its siblings are still answered.
    ///
    /// Besides the answers, returns the memo traffic that `memo` does not
    /// count: an `Inter` session's analyzer owns its memo table, so its
    /// hits, misses and insertions over the batch come back here (zero
    /// for `Intra`, whose lookups all go through `memo`).
    ///
    /// Cost attribution is opt-in: a supplied `sink` receives one record
    /// per demanded cell — including the `Q-Reuse` fast paths this layer
    /// answers without evaluating anything — so report cell counts match
    /// the [`QueryStats`] movements exactly. `Inter` sessions ignore the
    /// sink (their callee demands run inside call resolution, which no
    /// sink reaches); callers wanting reports must check
    /// [`Session::intra_backend`] first.
    ///
    /// # Panics
    ///
    /// Panics if `per_query.len() != locs.len()`.
    pub fn query_locs(
        &mut self,
        func: &str,
        locs: &[Loc],
        memo: &SharedMemoTable<Value<D>>,
        shared_stats: &mut QueryStats,
        per_query: &mut [QueryStats],
        sink: Option<&mut ExplainSink>,
    ) -> (Vec<Result<D, EngineError>>, MemoStats) {
        assert_eq!(per_query.len(), locs.len(), "one stats slot per member");
        self.queries += locs.len() as u64;
        match &mut self.backend {
            Backend::Intra { program, units } => {
                let unit = match Self::unit_mut(units, program, self.strategy, self.transfer, func)
                {
                    Ok(unit) => unit,
                    Err(_) => return (no_such_function(func, locs), MemoStats::default()),
                };
                let out = Self::query_unit_locs(unit, locs, memo, shared_stats, per_query, sink);
                (out, MemoStats::default())
            }
            Backend::Inter { analyzer, .. } => {
                if analyzer.program().by_name(func).is_none() {
                    return (no_such_function(func, locs), MemoStats::default());
                }
                let memo_before = analyzer.memo_stats();
                let out = locs
                    .iter()
                    .enumerate()
                    .map(|(i, &loc)| {
                        let before = analyzer.stats();
                        let out = analyzer.query_joined(func, loc).map_err(EngineError::Daig);
                        per_query[i].absorb(analyzer.stats().delta(&before));
                        out
                    })
                    .collect();
                (out, analyzer.memo_stats().delta(&memo_before))
            }
        }
    }

    /// `true` when the session runs the intraprocedural backend — the
    /// only backend whose evaluation path supports cost attribution
    /// (interprocedural call resolution evaluates callees out of the
    /// sink's sight).
    pub fn intra_backend(&self) -> bool {
        matches!(self.backend, Backend::Intra { .. })
    }

    /// The `Intra` union-cone drain behind [`Session::query_locs`].
    fn query_unit_locs(
        unit: &mut Unit<D>,
        locs: &[Loc],
        memo: &SharedMemoTable<Value<D>>,
        shared_stats: &mut QueryStats,
        per_query: &mut [QueryStats],
        mut sink: Option<&mut ExplainSink>,
    ) -> Vec<Result<D, EngineError>> {
        // Finish-time attribution is per id arena: tell the sink a new
        // function's DAIG is in play.
        if let Some(s) = sink.as_deref_mut() {
            s.begin_unit();
        }
        // One span per union drain; its payload is the number of cells the
        // drain wrote (0 for a fully warm batch). Every round's
        // `engine.cells` span falls inside it.
        let mut walk_span = dai_trace::span!("engine.cone_walk");
        let cells_before = shared_stats.cone_cells;
        let mut out: Vec<Option<Result<D, EngineError>>> = (0..locs.len()).map(|_| None).collect();
        let mut resolved: Vec<Option<Name>> = vec![None; locs.len()];
        // Members whose answer required no evaluation at all count as
        // `Q-Reuse`, exactly like an already-filled evaluation target.
        let mut demanded = vec![false; locs.len()];
        // Steady-state fast path: resolved cells are cached per structural
        // epoch; members still filled answer by lookup.
        let epoch = unit.fa.daig().struct_epoch();
        for (i, loc) in locs.iter().enumerate() {
            if let Some(&(cached_epoch, id)) = unit.resolved.get(loc) {
                // Entries are recorded against the post-evaluation epoch
                // and epochs only grow, so a cached epoch from the future
                // would mean the guard below can serve a resolution the
                // current structure never produced.
                debug_assert!(
                    cached_epoch <= epoch,
                    "resolution cache for {loc} is ahead of the DAIG \
                     (cached epoch {cached_epoch} > current {epoch})"
                );
                if cached_epoch == epoch {
                    debug_assert!(
                        unit.fa.daig().contains_id(id),
                        "resolution cache for {loc} points at a dead cell \
                         within its own epoch {epoch}"
                    );
                    if let Some(d) = unit.fa.daig().value_id(id).and_then(Value::as_state) {
                        per_query[i].reused += 1;
                        if let Some(s) = sink.as_deref_mut() {
                            s.record_reused(unit.fa.daig().name_of(id).to_string());
                        }
                        out[i] = Some(Ok(d.clone()));
                    }
                }
            }
        }
        // Round-based union drain: collect every member's frontier (its
        // resolved cell, or the outermost unconverged fix cell blocking
        // resolution), evaluate the union in one call, repeat. A member
        // nested under L loops needs at most L + 1 rounds, and only rounds
        // with unfilled targets traverse (and count) a cone — a cold batch
        // costs one union traversal, a warm one costs none.
        let round_bound = 2 + locs
            .iter()
            .map(|&l| unit.fa.cfg().enclosing_loops(l).len())
            .max()
            .unwrap_or(0);
        for _round in 0..round_bound {
            let mut targets: Vec<Name> = Vec::new();
            for (i, &loc) in locs.iter().enumerate() {
                if out[i].is_some() {
                    continue;
                }
                if resolved[i].is_none() {
                    match resolve_loc_frontier(&unit.fa, loc) {
                        Ok(LocResolution::Resolved(name)) => resolved[i] = Some(name),
                        Ok(LocResolution::NeedsFix(cell)) => {
                            demanded[i] = true;
                            targets.push(cell);
                            continue;
                        }
                        Err(e) => {
                            out[i] = Some(Err(EngineError::Daig(e)));
                            continue;
                        }
                    }
                }
                let name = resolved[i].as_ref().expect("resolved above");
                match unit.fa.daig().value(name) {
                    Some(v) => match v.as_state() {
                        Some(d) => {
                            if !demanded[i] {
                                per_query[i].reused += 1;
                                if let Some(s) = sink.as_deref_mut() {
                                    s.record_reused(name.to_string());
                                }
                            }
                            let d = d.clone();
                            // Record the resolution against the *post*-
                            // evaluation epoch: demanded unrolls changed
                            // the structure, and the resolved cell belongs
                            // to the final one.
                            if let Some(id) = unit.fa.daig().id_of(name) {
                                unit.resolved
                                    .insert(loc, (unit.fa.daig().struct_epoch(), id));
                            }
                            out[i] = Some(Ok(d));
                        }
                        None => {
                            out[i] = Some(Err(EngineError::Daig(dai_core::DaigError::Invariant(
                                format!("location cell {name} holds a statement"),
                            ))));
                        }
                    },
                    None => {
                        demanded[i] = true;
                        targets.push(name.clone());
                    }
                }
            }
            if targets.is_empty() {
                break;
            }
            targets.sort();
            targets.dedup();
            let _cells_span = dai_trace::span!("engine.cells", targets.len());
            if let Err(e) = unit.fa.evaluate(
                &targets,
                &mut memo.clone(),
                &mut IntraResolver,
                shared_stats,
                sink.as_deref_mut(),
            ) {
                // A union-evaluation failure fails every still-pending
                // member; already-extracted answers stand.
                for slot in out.iter_mut().filter(|s| s.is_none()) {
                    *slot = Some(Err(EngineError::Daig(e.clone())));
                }
                break;
            }
        }
        walk_span.set_arg(shared_stats.cone_cells - cells_before);
        out.into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    Err(EngineError::Daig(dai_core::DaigError::Invariant(format!(
                        "batched query at {} did not settle within the round bound",
                        locs[i]
                    ))))
                })
            })
            .collect()
    }

    /// Applies a program edit: the CFG is updated, and the affected DAIGs
    /// (if demanded already) are edited in place with minimal dirtying —
    /// exactly the incremental + demand-driven configuration. Successful
    /// edits are appended to the replayable [`Session::history`].
    ///
    /// The program checks an edit completely before applying it
    /// ([`LoweredProgram::splice`], [`LoweredProgram::relabel`]), so a
    /// rejected edit (unknown edge, call-graph violation, malformed block)
    /// leaves the session exactly as it was: program, call graph, and
    /// DAIGs untouched.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cfg`] for malformed edits; the session is unchanged
    /// on error.
    pub fn apply_edit(&mut self, edit: &ProgramEdit) -> Result<EditOutcome, EngineError> {
        let (ProgramEdit::Relabel { func, .. } | ProgramEdit::Insert { func, .. }) = edit;
        if self.program().by_name(func.as_str()).is_none() {
            return Err(EngineError::NoSuchFunction(func.to_string()));
        }
        let spliced = match &mut self.backend {
            Backend::Intra { program, units } => {
                // Commit to the program, then replay the edit on the
                // function's DAIG if it was demanded already (edits are
                // deterministic, so the unit's CFG clone ends up identical
                // to the program's).
                let unit = units.get_mut(func);
                match edit {
                    ProgramEdit::Relabel { edge, stmt, .. } => {
                        program.relabel(func.as_str(), *edge, stmt.clone())?;
                        // A relabel leaves the structure (and epoch) intact
                        // but empties downstream cells; cached resolutions
                        // stay valid and simply miss on the emptied value.
                        if let Some(unit) = unit {
                            unit.fa.relabel(*edge, stmt.clone())?;
                        }
                        None
                    }
                    ProgramEdit::Insert { edge, block, .. } => {
                        let info = program.splice(func.as_str(), *edge, block)?;
                        // A splice bumps the epoch.
                        if let Some(unit) = unit {
                            unit.fa.splice(*edge, block)?;
                        }
                        Some(info)
                    }
                }
            }
            // The analyzer's edits are atomic and cover its program and
            // its units (cross-unit dirtying included).
            Backend::Inter { analyzer, .. } => match edit {
                ProgramEdit::Relabel { edge, stmt, .. } => {
                    analyzer.relabel(func.as_str(), *edge, stmt.clone())?;
                    None
                }
                ProgramEdit::Insert { edge, block, .. } => {
                    Some(analyzer.splice(func.as_str(), *edge, block)?)
                }
            },
        };
        self.history.push(edit.clone());
        self.edits += 1;
        Ok(
            spliced.map_or_else(EditOutcome::default, |info| EditOutcome {
                new_locs: info.new_locs.len(),
                new_edges: info.new_edges.len(),
            }),
        )
    }

    /// A deterministic DOT snapshot of every demanded DAIG.
    pub fn snapshot(&self) -> SessionSnapshot {
        let mut functions: Vec<(String, String)> = match &self.backend {
            Backend::Intra { units, .. } => units
                .iter()
                .map(|(f, unit)| {
                    let opts = DotOptions {
                        title: Some(format!("{f} — session {}", self.name)),
                        ..DotOptions::default()
                    };
                    (f.to_string(), to_dot(unit.fa.daig(), &opts))
                })
                .collect(),
            Backend::Inter { analyzer, .. } => {
                // Order comes from the unconditional sort below, shared
                // with the Intra arm.
                analyzer
                    .units_iter()
                    .map(|(key, unit)| {
                        let (f, ctx) = key;
                        let label = format!("{f} @ {ctx}");
                        let opts = DotOptions {
                            title: Some(format!("{label} — session {}", self.name)),
                            ..DotOptions::default()
                        };
                        (label, to_dot(unit.daig(), &opts))
                    })
                    .collect()
            }
        };
        functions.sort();
        SessionSnapshot {
            session: self.name.clone(),
            functions,
        }
    }
}

impl<D: PersistDomain> Session<D> {
    /// Assembles this session's durable form, `SESS` + `FUNC`: the
    /// replayable header (source + history + strategy + policy) and the
    /// demanded DAIGs (`Intra` backend only — an `Interproc` session
    /// snapshots cold). The engine-wide memo table is no part of it.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotReplayable`] if the session was opened without
    /// source text — there is nothing sound to replay on restore.
    pub fn image(&self) -> Result<SessionImage<D>, EngineError> {
        let source = self
            .source
            .clone()
            .ok_or_else(|| EngineError::NotReplayable(self.name.clone()))?;
        let mut funcs: Vec<FuncImage<D>> = match &self.backend {
            Backend::Intra { units, .. } => units
                .iter()
                .map(|(f, unit)| FuncImage {
                    func: f.clone(),
                    entry: unit.fa.entry_state().clone(),
                    daig: unit.fa.daig().clone_unparked(),
                })
                .collect(),
            Backend::Inter { .. } => Vec::new(),
        };
        funcs.sort_by(|a, b| a.func.cmp(&b.func));
        let policy = match &self.backend {
            Backend::Intra { .. } => None,
            Backend::Inter { policy, .. } => Some(*policy),
        };
        Ok(SessionImage {
            name: self.name.clone(),
            domain: D::domain_tag(),
            strategy: self.strategy,
            policy,
            source,
            edits: self.history.clone(),
            funcs,
        })
    }

    /// Rebuilds a session from a snapshot image under `resolver` —
    /// normally the choice implied by the snapshot itself
    /// (`image.policy`), which is how the engine's `Load` handler calls
    /// it: the source is re-parsed and lowered, the edit
    /// history replayed (deterministically reproducing the live session's
    /// CFGs, ids included), and — for the `Intra` backend — each restored
    /// DAIG is installed *after* cross-checking its statement cells
    /// against the replayed CFG. A DAIG that fails the cross-check is
    /// dropped (that function cold-starts), never trusted.
    ///
    /// Returns the session plus `(installed, dropped)` DAIG counts.
    ///
    /// # Errors
    ///
    /// [`EngineError::Parse`] / [`EngineError::Cfg`] if the source or an
    /// edit fails to replay (the snapshot header lied), in which case no
    /// session is produced.
    pub fn restore(
        image: SessionImage<D>,
        resolver: ResolverChoice,
        transfer: TransferMode,
        report: &RestoreReport,
    ) -> Result<(Session<D>, usize, usize), EngineError> {
        let program = dai_lang::parse_program(&image.source)
            .map_err(|e| EngineError::Parse(e.to_string()))
            .and_then(|p| lower_program(&p).map_err(EngineError::Cfg))?;
        let mut session = Session::with_config(
            image.name,
            program,
            image.strategy,
            resolver,
            transfer,
            Some(image.source),
        );
        for edit in &image.edits {
            session.apply_edit(edit)?;
        }
        debug_assert_eq!(session.history.len(), image.edits.len());
        // Replay counts as history, not as served work: the restored
        // session keeps its edit-history *provenance* (`history`, so a
        // re-save round-trips byte-identically) but its activity
        // counters start fresh, with exactly one load on the books.
        session.edits = 0;
        session.loads = 1;
        let mut installed = 0usize;
        let mut dropped = report.funcs_dropped;
        if !matches!(session.backend, Backend::Intra { .. }) {
            // An interprocedural session has no per-function units to
            // warm: intact DAIG sections are deliberately (and soundly)
            // unused — and counted as dropped, so a caller monitoring
            // warm-start health can see its sections went unused.
            return Ok((session, 0, dropped + image.funcs.len()));
        }
        if let Backend::Intra { program, units } = &mut session.backend {
            for f in image.funcs {
                let Some(cfg) = program.by_name(f.func.as_str()) else {
                    dropped += 1;
                    continue;
                };
                // Intra units are always built with the domain's default
                // entry state; a snapshot carrying anything else would
                // answer from a different φ₀ than freshly demanded
                // functions in the same session — drop it to cold rather
                // than break batch-oracle equality.
                if f.entry != D::entry_default(cfg.params()) {
                    dropped += 1;
                    continue;
                }
                // Cross-check: the DAIG's statement cells must hold
                // exactly the replayed CFG's edge labels; a mismatch means
                // the snapshot's DAIG does not describe this program.
                let consistent = cfg.edges().all(|e| {
                    f.daig
                        .value(&dai_core::Name::Stmt(e.id))
                        .and_then(Value::as_stmt)
                        == Some(&e.stmt)
                });
                if !consistent {
                    dropped += 1;
                    continue;
                }
                // `from_parts` restages transfers under the default mode;
                // align the unit with the session's configured one.
                let mut fa = FuncAnalysis::from_parts(cfg.clone(), f.daig, f.entry);
                fa.set_transfer_mode(transfer);
                units.insert(
                    f.func.clone(),
                    Unit {
                        fa,
                        resolved: HashMap::new(),
                    },
                );
                installed += 1;
            }
        }
        Ok((session, installed, dropped))
    }
}
