//! The DAIG data structure: reference cells and computation hyperedges
//! (paper §4), with the Definition 4.1 well-formedness checks.
//!
//! # Representation: interned ids over symbolic names
//!
//! Externally, cells are addressed by [`Name`] — symbolic, self-describing,
//! stable across program edits. Internally, every name is interned to a
//! dense [`CellId`] by a [`NameInterner`] the first time the graph sees it,
//! and **all** graph state is `CellId`-indexed:
//!
//! * cells live in a struct-of-arrays arena: liveness, values, cached
//!   content digests, producing computations, and reverse adjacency are
//!   parallel `CellId`-indexed vectors, read by `u32` index, never by
//!   hashing a name. Splitting the columns keeps the hot scans dense —
//!   a digest probe or liveness sweep touches a contiguous `Vec<u128>` /
//!   `Vec<bool>` instead of striding over full slots (whose `Value<D>`
//!   payload can be large for domains like octagons);
//! * computation sources ([`CompSlot::srcs`]) and reverse adjacency
//!   (`Slot::deps`, the flat list of destinations reading a cell) are
//!   `CellId` lists, so the evaluator's demand walk and the edit layer's
//!   dirtying wave are integer traversals.
//!
//! ## Name ↔ CellId lifecycle
//!
//! Interning is append-only: a `CellId` denotes the same `Name` forever.
//! Removing a cell (loop rollback, superseded pre-join) only clears its
//! slot's *live* flag; re-creating the name later (a re-unroll) resurrects
//! the same id. Id-keyed state held outside the graph therefore never
//! dangles — it can only refer to a dead slot, which readers observe via
//! [`Daig::contains_id`]. Ids are graph-local: never mix ids from two
//! DAIGs.
//!
//! ## Loop instances and parked iterations
//!
//! A *loop instance* is one loop head under one enclosing iteration
//! context, identified by the [`CellId`] of its fixed-point cell `ℓ⟨σ⟩`.
//! The graph keeps, per instance, what each demanded unrolling built:
//! **block `k ≥ 1`** is the subgraph `unroll_loop(…, k)` created — the
//! iterate `ℓ⟨σ,k+1⟩`, the pre-widen cell of iteration `k`, the body cells
//! at iteration `k`, and the initial four cells of every loop head nested
//! in the body.
//!
//! **The ownership rule.** Which block owns a cell is a function of the
//! cell's name alone (`owning_block`): walk the iteration context from
//! the innermost component outward; a component `(h, i)` with prefix `σ`
//! claims the cell for instance `h⟨σ⟩`, block `i`, when `i ≥ 1` — except
//! that when the cell *is* `h`'s own iterate (`State { loc: h }` whose
//! context ends in that component) it belongs to block `i − 1`, and
//! `i ≤ 1` passes outward: `ℓ⟨σ,0⟩` and `ℓ⟨σ,1⟩` are initial structure. A
//! cell nobody claims is `Dinit`'s (or a splice's, which builds at
//! iteration 0 only). [`Daig::check_well_formed`] holds the table to this
//! rule — every live cell the rule assigns is listed in a live block of
//! the instance it names and nothing else is — and
//! [`Daig::rebuild_loop_table`] derives the table from it for a decoded
//! graph, so restored graphs roll back by the same code as built ones.
//!
//! **Parked blocks.** `E-Loop` ([`crate::build::rollback_loop`]) removes an
//! instance's live blocks by id — recursing into listed cells that are
//! themselves unrolled fixed-point cells — and *parks* them: a parked
//! block keeps its cell ids and, moved out of the arena, its computations
//! in installation order. `Q-Loop-Unroll` ([`crate::build::unroll_loop`])
//! of the same instance and iteration revives the cells and moves the
//! computations back in that order, so reverse adjacency comes out as a
//! build from names would leave it, without constructing a [`Name`]. Ids
//! make this safe: interning is append-only, so a parked id still denotes
//! the name it was recorded under, and a parked computation reads only
//! cells of its own block, the previous iterate (live whenever the block
//! is next in line) and statement cells (never removed).
//!
//! **Who invalidates.** A parked block is the memoised output of the
//! name-level builders for one loop *shape* — the locations, edges and
//! nested heads of the natural loop. Only a splice changes a shape, and
//! [`crate::analysis::FuncAnalysis::splice`] names the loops whose body
//! gained the spliced region (`Daig::invalidate_loops`): their parked
//! blocks are dropped and their live ones will be dropped, not parked,
//! when they roll back — within the same splice, which rolls back every
//! reshaped loop whether or not a dirtying wave reaches its fixed-point
//! cell. Relabels change no shape. Blocks of a decoded
//! graph are likewise never parked (their installation order was not
//! saved). Parked blocks are a cache, not state: `dai-persist` never
//! writes them and [`Daig::clone_unparked`] does not copy them.
//!
//! ## Structural epochs and deltas
//!
//! Every mutation of graph *structure* (cell added/removed, computation
//! installed/removed — not value writes) bumps [`Daig::struct_epoch`].
//! External caches keyed by ids (CSR snapshots, `dai-engine`'s per-unit
//! location resolutions) are valid for exactly one epoch;
//! [`Daig::begin_delta`]/[`Daig::take_delta`] additionally record *which*
//! cells changed structurally, which is how
//! [`crate::build::unroll_loop`] reports the spliced subgraph.
//!
//! ## Value digests
//!
//! Each filled slot caches a 128-bit content digest of its value, computed
//! once at write time. Memo keys (`f·(v₁⋯v_k)`, see [`dai_memo`]) are
//! built from these cached digests, so evaluating a computation never
//! re-hashes a (potentially large) abstract state that the graph already
//! hashed when it was produced.

use crate::intern::{CellId, NameInterner};
use crate::name::{IterCtx, Name};
use crate::strategy::FixStrategy;
use dai_domains::AbstractDomain;
use dai_lang::{Loc, Stmt};
use dai_memo::{content_digest, FxBuild};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::Hash;

/// A value stored in a reference cell: program syntax or an abstract state
/// (paper Fig. 6's `v ::= s | φ`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value<D> {
    /// A statement.
    Stmt(Stmt),
    /// An abstract state.
    State(D),
}

impl<D: AbstractDomain> Value<D> {
    /// The abstract state, if this value is one.
    pub fn as_state(&self) -> Option<&D> {
        match self {
            Value::State(d) => Some(d),
            Value::Stmt(_) => None,
        }
    }

    /// The statement, if this value is one.
    pub fn as_stmt(&self) -> Option<&Stmt> {
        match self {
            Value::Stmt(s) => Some(s),
            Value::State(_) => None,
        }
    }
}

impl<D: Hash> Value<D> {
    /// The digest a cell holding `Value::State(state)` caches, computed
    /// without building that value.
    pub(crate) fn state_digest(state: &D) -> u128 {
        content_digest(&ValueRef::State(state))
    }

    /// The digest a cell holding `Value::Stmt(stmt)` caches, computed
    /// without building that value.
    pub(crate) fn stmt_digest(stmt: &Stmt) -> u128 {
        content_digest(&ValueRef::<D>::Stmt(stmt))
    }
}

/// [`Value`] by reference: the same variants in the same order, so it
/// hashes exactly as the owned value does.
#[derive(Hash)]
enum ValueRef<'a, D> {
    Stmt(&'a Stmt),
    State(&'a D),
}

impl<D: fmt::Display> fmt::Display for Value<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Stmt(s) => write!(f, "{s}"),
            Value::State(d) => write!(f, "{d}"),
        }
    }
}

/// The analysis functions labelling DAIG edges (paper Fig. 6's
/// `f ::= ⟦·⟧♯ | ⊔ | ∇ | fix`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Func {
    /// Abstract transfer `⟦·⟧♯(stmt, pre-state)`.
    Transfer,
    /// Join `⊔(pre-join states...)`.
    Join,
    /// Widening `∇(previous iterate, pre-widen state)`.
    Widen,
    /// The distinguished fixed-point marker (paper §5.2): not a function
    /// but a demand for convergence of its two iterate sources.
    Fix,
}

impl Func {
    /// The symbol used in memo keys. `Fix` is never memoized (paper's
    /// `Q-Miss` requires `f ≠ fix`).
    pub fn memo_symbol(self) -> &'static str {
        match self {
            Func::Transfer => "transfer",
            Func::Join => "join",
            Func::Widen => "widen",
            Func::Fix => "fix",
        }
    }
}

/// A computation hyperedge `n ← f(n₁, …, n_k)`, materialized with symbolic
/// names (the id-indexed form is [`Daig::comp_srcs`]/[`Daig::comp_func`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comp {
    /// The labelling function.
    pub func: Func,
    /// Source cell names, in argument order.
    pub srcs: Vec<Name>,
}

/// The id-indexed form of a computation: function plus source ids in
/// argument order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompSlot {
    /// The labelling function.
    pub func: Func,
    /// Source cell ids, in argument order.
    pub srcs: Vec<CellId>,
}

/// Errors reported by DAIG operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaigError {
    /// A queried name does not exist in the DAIG's namespace.
    NoSuchCell(String),
    /// An internal invariant was violated (a bug; reported rather than
    /// panicking so harnesses can surface it).
    Invariant(String),
}

impl fmt::Display for DaigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaigError::NoSuchCell(n) => write!(f, "no such cell `{n}`"),
            DaigError::Invariant(m) => write!(f, "DAIG invariant violated: {m}"),
        }
    }
}

impl std::error::Error for DaigError {}

/// What one unrolling of a loop instance built (see "Loop instances and
/// parked iterations" in the module docs).
#[derive(Debug, Clone)]
struct IterBlock {
    /// The cells the unrolling created, ascending.
    cells: Vec<CellId>,
    /// The greatest iterate it created, `ℓ⟨σ,k+1⟩`: the fix edge's second
    /// source while this is the instance's last live block.
    iterate: CellId,
    /// Destinations of the computations it installed, in installation
    /// order (the slid fix edge is not one of them). Empty for a block
    /// rebuilt from names, which is never parked.
    dests: Vec<CellId>,
    /// While parked: the computations of `dests`, in the same order.
    /// Empty while live.
    comps: Vec<CompSlot>,
}

/// One loop instance's unrollings, keyed in [`Daig`] by its fixed-point
/// cell.
#[derive(Debug, Clone)]
struct LoopInst {
    /// `ℓ⟨σ,0⟩` and `ℓ⟨σ,1⟩`: what the fix edge reads when nothing is
    /// unrolled.
    base: [CellId; 2],
    /// `blocks[k − 1]` is block `k`. The first `live` are in the graph, the
    /// rest are parked.
    blocks: Vec<IterBlock>,
    /// Number of live blocks: the fix edge reads iterates `live` and
    /// `live + 1`.
    live: usize,
    /// The live blocks must be dropped, not parked, when they roll back:
    /// the loop's shape changed under them, or they were rebuilt from
    /// names. Implies `live > 0`.
    unparkable: bool,
}

/// The ownership rule of the module docs: the loop instance (head, length
/// of its context prefix within `n`'s context) and block that own the
/// cell named `n`, or `None` for initial structure.
fn owning_block(n: &Name) -> Option<(Loc, usize, u32)> {
    let ctx = &n.ctx()?.0;
    for (depth, &(head, i)) in ctx.iter().enumerate().rev() {
        let own_iterate =
            depth + 1 == ctx.len() && matches!(n, Name::State { loc, .. } if *loc == head);
        let block = if own_iterate { i.saturating_sub(1) } else { i };
        if block >= 1 {
            return Some((head, depth, block));
        }
    }
    None
}

/// Registers `dest` in the reverse adjacency of the cells its computation
/// reads: one entry per *distinct* source, so a dependent is counted (and
/// later decremented) once even if the computation reads the same cell in
/// several argument positions.
fn link(deps: &mut [Vec<CellId>], dest: CellId, srcs: &[CellId]) {
    for (i, &s) in srcs.iter().enumerate() {
        if !srcs[..i].contains(&s) {
            deps[s.idx()].push(dest);
        }
    }
}

/// Structural changes logged between [`Daig::begin_delta`] and
/// [`Daig::take_delta`].
#[derive(Debug, Clone, Default)]
struct Delta {
    /// Cells whose structure changed, in event order (with repeats).
    touched: Vec<CellId>,
    /// Destinations of installed computations, in installation order.
    installed: Vec<CellId>,
}

#[cfg(test)]
thread_local! {
    /// Cells [`Daig::rollback_instance`] looked at on this thread (the
    /// count budget of `build`'s tests: it must equal the cells removed).
    pub(crate) static ROLLBACK_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A demanded abstract interpretation graph: named reference cells plus
/// computation hyperedges keyed by destination (well-formedness (2):
/// destinations are unique). See the module docs for the id-based
/// representation.
///
/// The arena is struct-of-arrays: five parallel vectors indexed by
/// [`CellId`], each holding one column of what was conceptually a per-cell
/// slot. Invariant: all five always have length [`Daig::arena_len`].
///
/// `Clone` copies the parked-iteration cache too; see
/// [`Daig::clone_unparked`].
#[derive(Debug, Clone)]
pub struct Daig<D: AbstractDomain> {
    interner: NameInterner,
    /// Is the cell currently part of the graph's namespace? Dead slots
    /// keep their id reserved for resurrection (see module docs).
    live: Vec<bool>,
    /// Per-cell values, if filled.
    values: Vec<Option<Value<D>>>,
    /// Content digest of `values[i]`, valid iff `values[i].is_some()`.
    digests: Vec<u128>,
    /// The computation producing each cell, if any.
    producers: Vec<Option<CompSlot>>,
    /// Reverse adjacency: destinations whose computations read this cell
    /// (one entry per *distinct* source occurrence).
    deps: Vec<Vec<CellId>>,
    /// Live cells (ids with `live[i]`).
    live_cells: usize,
    /// Installed computations.
    comps: usize,
    /// Bumped on every structural mutation.
    epoch: u64,
    /// When recording, the structural changes so far.
    delta: Option<Delta>,
    /// Loop instances that have unrolled, by fixed-point cell (module docs:
    /// "Loop instances and parked iterations").
    loops: HashMap<CellId, LoopInst, FxBuild>,
    /// The loop-head iteration strategy this DAIG's `∇` and `fix` edges
    /// realize. Carried by the graph so query evaluation and the
    /// Definition 4.3 consistency checker always agree on the abstract
    /// interpretation being encoded (see [`crate::strategy`]).
    strategy: FixStrategy,
}

impl<D: AbstractDomain> Default for Daig<D> {
    fn default() -> Self {
        Daig::new()
    }
}

impl<D: AbstractDomain> Daig<D> {
    /// An empty DAIG with the paper's default strategy.
    pub fn new() -> Daig<D> {
        Daig {
            interner: NameInterner::new(),
            live: Vec::new(),
            values: Vec::new(),
            digests: Vec::new(),
            producers: Vec::new(),
            deps: Vec::new(),
            live_cells: 0,
            comps: 0,
            epoch: 0,
            delta: None,
            loops: HashMap::default(),
            strategy: FixStrategy::PAPER,
        }
    }

    /// The loop-head iteration strategy in effect.
    pub fn strategy(&self) -> FixStrategy {
        self.strategy
    }

    /// Replaces the iteration strategy.
    ///
    /// Changing the strategy of a DAIG that already holds loop-head results
    /// would make those results inconsistent with the new semantics, so
    /// this should only be called on freshly built (or fully dirtied)
    /// graphs; [`crate::analysis::FuncAnalysis::with_strategy`] does so.
    pub fn set_strategy(&mut self, strategy: FixStrategy) {
        self.strategy = strategy;
    }

    // ------------------------------------------------------------------
    // Id resolution.
    // ------------------------------------------------------------------

    /// The id of `n`, if `n` currently names a cell.
    #[inline]
    pub fn id_of(&self, n: &Name) -> Option<CellId> {
        self.interner.get(n).filter(|id| self.live[id.idx()])
    }

    /// The name behind `id` (alive or dead).
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this graph.
    #[inline]
    pub fn name_of(&self, id: CellId) -> &Name {
        self.interner.name(id)
    }

    /// Number of ids ever assigned — the length dense id-indexed side
    /// tables must have. Grows monotonically (unrolls intern new iterate
    /// names); never shrinks on removal.
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.live.len()
    }

    /// The structural epoch: bumped whenever a cell or computation is
    /// added or removed. Id-keyed caches built against one epoch must be
    /// refreshed (or patched via [`Daig::take_delta`]) when it changes.
    #[inline]
    pub fn struct_epoch(&self) -> u64 {
        self.epoch
    }

    fn intern_slot_owned(&mut self, n: Name) -> CellId {
        let id = self.interner.intern_owned(n);
        if id.idx() >= self.live.len() {
            let len = id.idx() + 1;
            self.live.resize(len, false);
            self.values.resize_with(len, || None);
            self.digests.resize(len, 0);
            self.producers.resize_with(len, || None);
            self.deps.resize_with(len, Vec::new);
        }
        id
    }

    fn record(&mut self, id: CellId) {
        if let Some(d) = &mut self.delta {
            d.touched.push(id);
        }
    }

    /// Starts recording structural changes (cells added/removed,
    /// computations installed/removed). Nested recording is not supported:
    /// a second call resets the log.
    pub fn begin_delta(&mut self) {
        self.delta = Some(Delta::default());
    }

    /// Stops recording and returns the ids of structurally changed cells,
    /// deduplicated (ascending id order). The work is O(|delta| log
    /// |delta|) — deliberately independent of the arena size, so per-unroll
    /// delta collection cannot re-introduce an O(arena × unrolls) term.
    pub fn take_delta(&mut self) -> Vec<CellId> {
        let mut d = self.delta.take().unwrap_or_default().touched;
        d.sort_unstable();
        d.dedup();
        d
    }

    // ------------------------------------------------------------------
    // Counts.
    // ------------------------------------------------------------------

    /// Number of reference cells.
    pub fn cell_count(&self) -> usize {
        self.live_cells
    }

    /// Number of computation edges.
    pub fn comp_count(&self) -> usize {
        self.comps
    }

    /// Number of non-empty cells.
    pub fn filled_count(&self) -> usize {
        self.live
            .iter()
            .zip(&self.values)
            .filter(|(&live, v)| live && v.is_some())
            .count()
    }

    // ------------------------------------------------------------------
    // Id-indexed accessors (the hot path).
    // ------------------------------------------------------------------

    /// Is the slot behind `id` a live cell?
    #[inline]
    pub fn contains_id(&self, id: CellId) -> bool {
        self.live[id.idx()]
    }

    /// The value of cell `id`, if live and filled.
    #[inline]
    pub fn value_id(&self, id: CellId) -> Option<&Value<D>> {
        if self.live[id.idx()] {
            self.values[id.idx()].as_ref()
        } else {
            None
        }
    }

    /// The cached content digest of cell `id`'s value (`None` when empty).
    #[inline]
    pub fn digest_id(&self, id: CellId) -> Option<u128> {
        if self.live[id.idx()] && self.values[id.idx()].is_some() {
            Some(self.digests[id.idx()])
        } else {
            None
        }
    }

    /// The function of the computation producing `id`, if any.
    #[inline]
    pub fn comp_func(&self, id: CellId) -> Option<Func> {
        self.producers[id.idx()].as_ref().map(|c| c.func)
    }

    /// The source ids of the computation producing `id` (argument order).
    #[inline]
    pub fn comp_srcs(&self, id: CellId) -> Option<&[CellId]> {
        self.producers[id.idx()].as_ref().map(|c| c.srcs.as_slice())
    }

    /// The id-indexed computation producing `id`, if any.
    #[inline]
    pub fn comp_slot(&self, id: CellId) -> Option<&CompSlot> {
        self.producers[id.idx()].as_ref()
    }

    /// The destinations reading cell `id` (flat id adjacency; unordered).
    #[inline]
    pub fn dependents_ids(&self, id: CellId) -> &[CellId] {
        &self.deps[id.idx()]
    }

    /// Writes a value into the live cell `id`, caching its content digest.
    pub fn write_id(&mut self, id: CellId, v: Value<D>) {
        if self.live[id.idx()] {
            self.digests[id.idx()] = content_digest(&v);
            self.values[id.idx()] = Some(v);
        }
    }

    /// Empties cell `id`, returning its previous value.
    pub fn clear_id(&mut self, id: CellId) -> Option<Value<D>> {
        if self.live[id.idx()] {
            self.values[id.idx()].take()
        } else {
            None
        }
    }

    // ------------------------------------------------------------------
    // Name-level API (resolution layer over the arena).
    // ------------------------------------------------------------------

    /// Does the namespace contain `n`?
    pub fn contains(&self, n: &Name) -> bool {
        self.id_of(n).is_some()
    }

    /// The value of cell `n`, if the cell exists and is non-empty.
    pub fn value(&self, n: &Name) -> Option<&Value<D>> {
        self.id_of(n).and_then(|id| self.values[id.idx()].as_ref())
    }

    /// The computation producing `n`, if any, with sources materialized as
    /// names. Hot paths should prefer [`Daig::comp_srcs`]/
    /// [`Daig::comp_func`], which do not clone names.
    pub fn comp(&self, n: &Name) -> Option<Comp> {
        let id = self.id_of(n)?;
        let c = self.producers[id.idx()].as_ref()?;
        Some(Comp {
            func: c.func,
            srcs: c
                .srcs
                .iter()
                .map(|&s| self.interner.name(s).clone())
                .collect(),
        })
    }

    /// The destinations that read `n`.
    pub fn dependents(&self, n: &Name) -> impl Iterator<Item = &Name> {
        let ids: &[CellId] = match self.id_of(n) {
            Some(id) => &self.deps[id.idx()],
            None => &[],
        };
        ids.iter().map(move |&d| self.interner.name(d))
    }

    /// All cell names (unordered).
    pub fn names(&self) -> impl Iterator<Item = &Name> {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &live)| live)
            .map(|(i, _)| self.interner.name(CellId(i as u32)))
    }

    /// All live cell ids.
    pub fn ids(&self) -> impl Iterator<Item = CellId> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, &live)| live)
            .map(|(i, _)| CellId(i as u32))
    }

    /// The *ready frontier*: empty cells whose computation has every input
    /// filled — the cells a topological scheduler may evaluate right now.
    /// Because the DAIG is acyclic, distinct frontier cells never read
    /// each other, so they can be computed **in any order** with
    /// identical results. Non-consuming: the iterator
    /// borrows the graph and the caller decides what to evaluate.
    ///
    /// This is the whole-graph frontier: the reference model a test can
    /// drain to check that evaluation order does not change any value.
    /// The evaluator itself ([`crate::query`]) applies a cell as soon as
    /// the demand walk finds its inputs filled, in demand order.
    ///
    /// `fix` destinations appear in the frontier once both their iterate
    /// inputs are filled; they mutate the graph when stepped (converge or
    /// unroll) rather than being applied as functions.
    pub fn ready_frontier(&self) -> impl Iterator<Item = &Name> {
        self.live
            .iter()
            .enumerate()
            .filter(move |&(i, &live)| {
                live && self.values[i].is_none()
                    && self.producers[i]
                        .as_ref()
                        .is_some_and(|c| c.srcs.iter().all(|&src| self.value_id(src).is_some()))
            })
            .map(|(i, _)| self.interner.name(CellId(i as u32)))
    }

    /// Adds (or resets) a cell with an initial value. Re-adding a removed
    /// name resurrects its original id.
    pub fn add_cell(&mut self, n: Name, v: Option<Value<D>>) {
        let _ = self.add_cell_id(n, v);
    }

    /// [`Daig::add_cell`], returning the cell's id for id-level wiring.
    pub fn add_cell_id(&mut self, n: Name, v: Option<Value<D>>) -> CellId {
        let id = self.intern_slot_owned(n);
        if !self.live[id.idx()] {
            self.live[id.idx()] = true;
            self.live_cells += 1;
        }
        match v {
            Some(v) => {
                self.digests[id.idx()] = content_digest(&v);
                self.values[id.idx()] = Some(v);
            }
            None => self.values[id.idx()] = None,
        }
        self.epoch += 1;
        self.record(id);
        id
    }

    /// Writes a value into an existing cell (the low-level mutation
    /// `D[n ↦ v]` of the paper — no invalidation; see `edit` for the
    /// dirtying judgment).
    pub fn write(&mut self, n: &Name, v: Value<D>) {
        if let Some(id) = self.id_of(n) {
            self.write_id(id, v);
        }
    }

    /// Empties a cell, returning its previous value.
    pub fn clear(&mut self, n: &Name) -> Option<Value<D>> {
        self.id_of(n).and_then(|id| self.clear_id(id))
    }

    /// Installs a computation `dest ← f(srcs)`, replacing any previous
    /// computation for `dest` and maintaining reverse adjacency.
    pub fn add_comp(&mut self, dest: Name, func: Func, srcs: Vec<Name>) {
        let dest_id = self.intern_slot_owned(dest);
        let src_ids: Vec<CellId> = srcs
            .into_iter()
            .map(|s| self.intern_slot_owned(s))
            .collect();
        self.add_comp_ids(dest_id, func, src_ids);
    }

    /// Id-level [`Daig::add_comp`].
    pub fn add_comp_ids(&mut self, dest: CellId, func: Func, srcs: Vec<CellId>) {
        self.remove_comp_id(dest);
        link(&mut self.deps, dest, &srcs);
        self.producers[dest.idx()] = Some(CompSlot { func, srcs });
        self.comps += 1;
        self.epoch += 1;
        if let Some(d) = &mut self.delta {
            d.touched.push(dest);
            d.installed.push(dest);
        }
    }

    /// Removes the computation for `dest`, if any.
    pub fn remove_comp(&mut self, dest: &Name) {
        if let Some(id) = self.interner.get(dest) {
            self.remove_comp_id(id);
        }
    }

    /// Id-level [`Daig::remove_comp`].
    pub fn remove_comp_id(&mut self, dest: CellId) {
        if let Some(old) = self.producers[dest.idx()].take() {
            for (i, &s) in old.srcs.iter().enumerate() {
                if old.srcs[..i].contains(&s) {
                    continue;
                }
                let deps = &mut self.deps[s.idx()];
                if let Some(pos) = deps.iter().position(|&d| d == dest) {
                    deps.swap_remove(pos);
                }
            }
            self.comps -= 1;
            self.epoch += 1;
            self.record(dest);
        }
    }

    /// Removes a cell and its computation. The caller is responsible for
    /// not leaving dangling sources (checked by [`Daig::check_well_formed`]).
    pub fn remove_cell(&mut self, n: &Name) {
        if let Some(id) = self.interner.get(n) {
            self.remove_cell_id(id);
        }
    }

    /// Id-level [`Daig::remove_cell`]. The id stays reserved for the name
    /// and is resurrected by a later [`Daig::add_cell`].
    pub fn remove_cell_id(&mut self, id: CellId) {
        self.remove_comp_id(id);
        if self.live[id.idx()] {
            self.live[id.idx()] = false;
            self.values[id.idx()] = None;
            self.live_cells -= 1;
            self.epoch += 1;
            self.record(id);
        }
    }

    /// Empties every state cell (statement cells keep their syntax).
    /// Structure is untouched: callers roll unrolled loops back first
    /// ([`Daig::unrolled_loops`]) and re-seed `φ₀` after.
    pub(crate) fn clear_states(&mut self) {
        for (live, v) in self.live.iter().zip(&mut self.values) {
            if *live && matches!(v, Some(Value::State(_))) {
                *v = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Loop instances and parked iterations (see the module docs).
    // ------------------------------------------------------------------

    /// How many unrolled iterations (live blocks) the loop instance with
    /// fixed-point cell `fix` currently has; 0 for any other cell.
    pub fn unrolled_blocks(&self, fix: CellId) -> usize {
        self.loops.get(&fix).map_or(0, |inst| inst.live)
    }

    /// How many rolled-back iterations of the instance `fix` are parked
    /// for replay.
    pub fn parked_blocks(&self, fix: CellId) -> usize {
        self.loops
            .get(&fix)
            .map_or(0, |inst| inst.blocks.len() - inst.live)
    }

    /// The fixed-point cells of every instance with unrolled iterations,
    /// ascending (nested instances included).
    pub fn unrolled_loops(&self) -> Vec<CellId> {
        let mut fixes: Vec<CellId> = self
            .loops
            .iter()
            .filter(|(_, inst)| inst.live > 0)
            .map(|(&fix, _)| fix)
            .collect();
        fixes.sort_unstable();
        fixes
    }

    /// Re-installs block `k` of instance `fix` if it is parked: revives
    /// its cells, moves its computations back in recorded order and slides
    /// the fix edge. Returns the spliced set — the block's cells plus
    /// `fix`, ascending: what [`Daig::take_delta`] returned when the block
    /// was built — or `None` when there is no such block to replay.
    pub(crate) fn replay_block(&mut self, fix: CellId, k: u32) -> Option<Vec<CellId>> {
        let older = self.comp_srcs(fix)?[1];
        let inst = self.loops.get_mut(&fix)?;
        let at = (k as usize).checked_sub(1)?;
        if inst.live != at || inst.blocks.len() <= at {
            return None;
        }
        inst.live = at + 1;
        let block = &mut inst.blocks[at];
        let mut spliced = Vec::with_capacity(block.cells.len() + 1);
        let fix_at = block.cells.partition_point(|&c| c < fix);
        spliced.extend_from_slice(&block.cells[..fix_at]);
        spliced.push(fix);
        spliced.extend_from_slice(&block.cells[fix_at..]);
        for &c in &block.cells {
            debug_assert!(!self.live[c.idx()] && self.producers[c.idx()].is_none());
            self.live[c.idx()] = true;
        }
        self.live_cells += block.cells.len();
        self.comps += block.dests.len();
        for (&dest, comp) in block.dests.iter().zip(block.comps.drain(..)) {
            link(&mut self.deps, dest, &comp.srcs);
            self.producers[dest.idx()] = Some(comp);
        }
        let slide = vec![older, block.iterate];
        self.add_comp_ids(fix, Func::Fix, slide);
        Some(spliced)
    }

    /// Ends the delta recording of a from-names `unroll_loop(fix, k)` and
    /// records what it built as block `k`. `base` is what the fix edge read
    /// before the unrolling slid it (iterates 0 and 1 when `k` is 1, which
    /// is when an instance enters the table). Returns the spliced set.
    pub(crate) fn record_block(&mut self, fix: CellId, k: u32, base: [CellId; 2]) -> Vec<CellId> {
        let delta = self.delta.take().expect("unroll_loop records a delta");
        let mut spliced = delta.touched;
        spliced.sort_unstable();
        spliced.dedup();
        let block = IterBlock {
            cells: spliced.iter().copied().filter(|&c| c != fix).collect(),
            iterate: self.comp_srcs(fix).expect("unroll_loop slid the fix edge")[1],
            dests: delta.installed.into_iter().filter(|&d| d != fix).collect(),
            comps: Vec::new(),
        };
        debug_assert!(
            block.cells.iter().all(|&c| {
                owning_block(self.name_of(c)).map(|(_, _, b)| b) == Some(k)
                    && self.producers[c.idx()].is_some()
            }),
            "unroll {k} of {} built a cell outside its block",
            self.name_of(fix)
        );
        let inst = self.loops.entry(fix).or_insert(LoopInst {
            base,
            blocks: Vec::new(),
            live: 0,
            unparkable: false,
        });
        assert!(
            inst.live + 1 == k as usize && inst.blocks.len() == inst.live,
            "loop table out of step with the graph"
        );
        inst.blocks.push(block);
        inst.live += 1;
        spliced
    }

    /// `E-Loop` by id: removes every live block of the instance `fix` —
    /// and of the unrolled instances nested in them — parks the blocks
    /// that may be replayed, and resets the fix edge to iterates 0 and 1.
    /// Visits exactly the cells it removes.
    pub(crate) fn rollback_instance(&mut self, fix: CellId) {
        // The instances torn down (each after the one whose block lists
        // its fixed-point cell) and their cells.
        let mut insts = vec![fix];
        let mut victims: Vec<CellId> = Vec::new();
        let mut next = 0;
        while let Some(inst) = insts.get(next).and_then(|f| self.loops.get(f)) {
            next += 1;
            for block in &inst.blocks[..inst.live] {
                for &c in &block.cells {
                    victims.push(c);
                    if self.comp_func(c) == Some(Func::Fix) && self.unrolled_blocks(c) > 0 {
                        insts.push(c);
                    }
                }
            }
        }
        if victims.is_empty() {
            return;
        }
        #[cfg(test)]
        ROLLBACK_VISITS.with(|v| v.set(v.get() + victims.len() as u64));
        // Ascending id order is the order a namespace scan removed cells
        // in; keeping it leaves the dependents lists of the sources that
        // survive (statement cells, iterate 1) in the same order.
        victims.sort_unstable();
        for &v in &victims {
            self.live[v.idx()] = false;
            self.values[v.idx()] = None;
        }
        for &v in &victims {
            let Some(comp) = &self.producers[v.idx()] else {
                continue;
            };
            self.comps -= 1;
            for (i, &s) in comp.srcs.iter().enumerate() {
                // A dying source's list is cleared whole below.
                if !self.live[s.idx()] || comp.srcs[..i].contains(&s) {
                    continue;
                }
                let deps = &mut self.deps[s.idx()];
                if let Some(pos) = deps.iter().position(|&d| d == v) {
                    deps.swap_remove(pos);
                }
            }
        }
        self.live_cells -= victims.len();
        // Innermost first: a nested instance's fix edge goes back to its
        // initial sources before the enclosing block parks it.
        for (depth, f) in insts.iter().enumerate().rev() {
            let inst = self.loops.get_mut(f).expect("collected above");
            if depth > 0 {
                let comp = self.producers[f.idx()].as_mut().expect("fix edge");
                comp.srcs.copy_from_slice(&inst.base);
            }
            for block in &mut inst.blocks[..inst.live] {
                if !inst.unparkable {
                    block.comps.extend(block.dests.iter().map(|d| {
                        self.producers[d.idx()]
                            .take()
                            .expect("a live block's computation")
                    }));
                }
                for &c in &block.cells {
                    self.producers[c.idx()] = None;
                    self.deps[c.idx()].clear();
                }
            }
            if inst.unparkable {
                inst.blocks.clear();
                inst.unparkable = false;
            }
            inst.live = 0;
        }
        let base = self.loops[&fix].base;
        self.add_comp_ids(fix, Func::Fix, base.to_vec());
    }

    /// The loops at `heads` changed shape (a splice added to their natural
    /// body): every instance of them drops its parked blocks, and its live
    /// blocks will be dropped rather than parked when they roll back.
    /// Returns the instances that have live blocks — the caller's dirtying
    /// must roll each of them back.
    pub(crate) fn invalidate_loops(&mut self, heads: &[Loc]) -> Vec<CellId> {
        let mut unrolled = Vec::new();
        for (&fix, inst) in &mut self.loops {
            if matches!(self.interner.name(fix), Name::State { loc, .. } if heads.contains(loc)) {
                inst.blocks.truncate(inst.live);
                inst.unparkable = inst.live > 0;
                if inst.unparkable {
                    unrolled.push(fix);
                }
            }
        }
        unrolled
    }

    /// A copy of the graph without its parked blocks, which are a cache
    /// and can be large: what a snapshot image should hold.
    pub fn clone_unparked(&self) -> Daig<D> {
        let loops = self
            .loops
            .iter()
            .filter(|(_, inst)| inst.live > 0)
            .map(|(&fix, inst)| {
                let blocks = inst.blocks[..inst.live].to_vec();
                (fix, LoopInst { blocks, ..*inst })
            })
            .collect();
        Daig {
            interner: self.interner.clone(),
            live: self.live.clone(),
            values: self.values.clone(),
            digests: self.digests.clone(),
            producers: self.producers.clone(),
            deps: self.deps.clone(),
            live_cells: self.live_cells,
            comps: self.comps,
            epoch: self.epoch,
            delta: None,
            loops,
            strategy: self.strategy,
        }
    }

    /// Derives the loop table of a graph whose cells were installed by name
    /// (a decoded snapshot) from the ownership rule, in one pass over the
    /// live cells. The rebuilt blocks are never parked: the order their
    /// computations were installed in is not part of a snapshot.
    ///
    /// # Errors
    ///
    /// [`DaigError::Invariant`] if some cell belongs to an unrolling that
    /// the rest of the graph does not bear out.
    pub fn rebuild_loop_table(&mut self) -> Result<(), DaigError> {
        self.loops = self.loop_table_from_names()?;
        Ok(())
    }

    /// The table the ownership rule assigns to the current live cells, all
    /// blocks live.
    fn loop_table_from_names(&self) -> Result<HashMap<CellId, LoopInst, FxBuild>, DaigError> {
        let broken = |n: &Name| {
            DaigError::Invariant(format!(
                "{n} belongs to an unrolling the graph does not hold"
            ))
        };
        // (instance, block, cell) for every owned cell; consecutive cells
        // mostly share an instance, so its fix cell is looked up once per
        // run.
        let mut claims: Vec<(CellId, u32, CellId)> = Vec::new();
        let mut run: (Loc, &[(Loc, u32)]) = (Loc(0), &[]);
        let mut run_fix = None;
        for id in self.ids() {
            let n = self.name_of(id);
            let Some((head, depth, k)) = owning_block(n) else {
                continue;
            };
            let sigma = &n.ctx().expect("owned cells have contexts").0[..depth];
            if run_fix.is_none() || run != (head, sigma) {
                let fix = Name::State {
                    loc: head,
                    ctx: IterCtx(sigma.to_vec()),
                };
                run_fix = Some(self.id_of(&fix).ok_or_else(|| broken(n))?);
                run = (head, sigma);
            }
            claims.push((run_fix.expect("set above"), k, id));
        }
        claims.sort_unstable();
        let mut table: HashMap<CellId, LoopInst, FxBuild> = HashMap::default();
        for group in claims.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (fix, k, first) = group[0];
            let Name::State { loc, ctx } = self.name_of(fix) else {
                return Err(broken(self.name_of(first)));
            };
            let iterate = |i: u32| {
                self.id_of(&Name::State {
                    loc: *loc,
                    ctx: ctx.push(*loc, i),
                })
                .ok_or_else(|| broken(self.name_of(first)))
            };
            let inst = match table.entry(fix) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(LoopInst {
                    base: [iterate(0)?, iterate(1)?],
                    blocks: Vec::new(),
                    live: 0,
                    unparkable: true,
                }),
            };
            // Sorted claims bring an instance's blocks in order: a gap
            // means iterations are missing.
            if inst.live + 1 != k as usize {
                return Err(broken(self.name_of(first)));
            }
            inst.blocks.push(IterBlock {
                cells: group.iter().map(|c| c.2).collect(),
                iterate: iterate(k + 1)?,
                dests: Vec::new(),
                comps: Vec::new(),
            });
            inst.live += 1;
        }
        Ok(table)
    }

    /// The table check of [`Daig::check_well_formed`]: the live blocks are
    /// exactly what the ownership rule assigns, each unrolled instance's
    /// fix edge reads its two greatest iterates, and parked blocks are
    /// whole.
    fn check_loop_table(&self) -> Result<(), DaigError> {
        let name = |id: CellId| self.name_of(id);
        let expected = self.loop_table_from_names()?;
        for (&fix, want) in &expected {
            if self.unrolled_blocks(fix) != want.live {
                return Err(DaigError::Invariant(format!(
                    "loop table lists {} unrolled iteration(s) of {}, its cells make {}",
                    self.unrolled_blocks(fix),
                    name(fix),
                    want.live
                )));
            }
        }
        for (&fix, inst) in &self.loops {
            let bad = |what: &str| {
                Err(DaigError::Invariant(format!(
                    "loop table entry of {}: {what}",
                    name(fix)
                )))
            };
            if inst.live > inst.blocks.len() || (inst.unparkable && inst.live == 0) {
                return bad("counts out of range");
            }
            let (live, parked) = inst.blocks.split_at(inst.live);
            if parked.iter().any(|b| b.comps.len() != b.dests.len())
                || live.iter().any(|b| !b.comps.is_empty())
            {
                return bad("a block is neither live nor parked");
            }
            let Some(last) = live.last() else {
                continue;
            };
            let Some(want) = expected.get(&fix) else {
                return bad("unrolled iterations without cells");
            };
            if inst.base != want.base {
                return bad("iterates 0 and 1 misrecorded");
            }
            for (k, (have, want)) in live.iter().zip(&want.blocks).enumerate() {
                if have.cells != want.cells || have.iterate != want.iterate {
                    return bad(&format!("block {} does not list its cells", k + 1));
                }
            }
            let older = live
                .len()
                .checked_sub(2)
                .map_or(inst.base[1], |i| live[i].iterate);
            if self.comp_slot(fix).map(|c| (c.func, c.srcs.as_slice()))
                != Some((Func::Fix, &[older, last.iterate][..]))
            {
                return bad("fix edge does not read the two greatest iterates");
            }
        }
        Ok(())
    }

    /// Definition 4.1 well-formedness: unique names and destinations hold
    /// structurally (interner + slot arena); checks (3) acyclicity, (4)
    /// well-typedness, and (5) empty cells have dependencies, plus
    /// adjacency coherence, the AI-consistency condition that non-empty
    /// cells have non-empty sources, and the loop table against the
    /// ownership rule (module docs).
    pub fn check_well_formed(&self) -> Result<(), DaigError> {
        let name = |id: CellId| self.interner.name(id);
        // (2)/(1) namespace: a computation's destination must be a live
        // cell (a comp parked on a dead slot is a builder bug — cells are
        // always installed before their computations).
        for (i, &live) in self.live.iter().enumerate() {
            if !live && self.producers[i].is_some() {
                return Err(DaigError::Invariant(format!(
                    "comp dest {} has no cell",
                    name(CellId(i as u32))
                )));
            }
        }
        // (4) Typing: transfers take (stmt, state); others take states;
        // all destinations are state-typed.
        for dest in self.ids() {
            let Some(comp) = self.comp_slot(dest) else {
                continue;
            };
            let dn = name(dest);
            if dn.is_stmt() {
                return Err(DaigError::Invariant(format!(
                    "statement cell {dn} is a computation destination"
                )));
            }
            for (i, &s) in comp.srcs.iter().enumerate() {
                if !self.contains_id(s) {
                    return Err(DaigError::Invariant(format!(
                        "comp for {dn} reads missing cell {}",
                        name(s)
                    )));
                }
                let should_be_stmt = comp.func == Func::Transfer && i == 0;
                if name(s).is_stmt() != should_be_stmt {
                    return Err(DaigError::Invariant(format!(
                        "comp for {dn} arg {i} has wrong type ({})",
                        name(s)
                    )));
                }
            }
            match comp.func {
                Func::Transfer if comp.srcs.len() != 2 => {
                    return Err(DaigError::Invariant(format!("transfer arity at {dn}")));
                }
                Func::Widen | Func::Fix if comp.srcs.len() != 2 => {
                    return Err(DaigError::Invariant(format!("binary arity at {dn}")));
                }
                Func::Join if comp.srcs.len() < 2 => {
                    return Err(DaigError::Invariant(format!("join arity at {dn}")));
                }
                _ => {}
            }
        }
        // (5) Empty references have dependencies; statement cells must be
        // full; AI-consistency: non-empty cells have non-empty sources.
        for id in self.ids() {
            let n = name(id);
            match &self.values[id.idx()] {
                None => {
                    if self.producers[id.idx()].is_none() {
                        return Err(DaigError::Invariant(format!(
                            "empty cell {n} has no computation"
                        )));
                    }
                    if n.is_stmt() {
                        return Err(DaigError::Invariant(format!("statement cell {n} empty")));
                    }
                }
                Some(_) => {
                    if let Some(c) = &self.producers[id.idx()] {
                        for &src in &c.srcs {
                            if self.value_id(src).is_none() {
                                return Err(DaigError::Invariant(format!(
                                    "non-empty {n} depends on empty {}",
                                    name(src)
                                )));
                            }
                        }
                    }
                }
            }
        }
        // Adjacency coherence: every reverse-adjacency entry is backed by
        // a computation that reads the source, and every computation
        // source is registered.
        for (i, cell_deps) in self.deps.iter().enumerate() {
            let src = CellId(i as u32);
            for &d in cell_deps {
                let Some(c) = self.comp_slot(d) else {
                    return Err(DaigError::Invariant(format!(
                        "dependents lists {} for {} without comp",
                        name(d),
                        name(src)
                    )));
                };
                if !c.srcs.contains(&src) {
                    return Err(DaigError::Invariant(format!(
                        "dependents lists {} for {} but comp does not read it",
                        name(d),
                        name(src)
                    )));
                }
            }
            if let Some(c) = &self.producers[i] {
                for &s in &c.srcs {
                    if !self.deps[s.idx()].contains(&CellId(i as u32)) {
                        return Err(DaigError::Invariant(format!(
                            "comp for {} reads {} without a dependents entry",
                            name(CellId(i as u32)),
                            name(s)
                        )));
                    }
                }
            }
        }
        // (3) Acyclicity via iterative DFS over comps (src → dest edges).
        const FRESH: u8 = 0;
        const OPEN: u8 = 1;
        const DONE: u8 = 2;
        let mut state = vec![FRESH; self.live.len()];
        for start in self.ids() {
            if self.comp_slot(start).is_none() || state[start.idx()] == DONE {
                continue;
            }
            let mut stack: Vec<(CellId, usize)> = vec![(start, 0)];
            state[start.idx()] = OPEN;
            while let Some(&(n, i)) = stack.last() {
                // Children of n: the sources of its computation (walking
                // backwards keeps the traversal within comps).
                let srcs = self.comp_srcs(n).unwrap_or(&[]);
                if i < srcs.len() {
                    stack.last_mut().expect("nonempty").1 += 1;
                    let child = srcs[i];
                    match state[child.idx()] {
                        FRESH => {
                            state[child.idx()] = OPEN;
                            stack.push((child, 0));
                        }
                        OPEN => {
                            return Err(DaigError::Invariant(format!(
                                "dependency cycle through {}",
                                name(child)
                            )));
                        }
                        _ => {}
                    }
                } else {
                    state[n.idx()] = DONE;
                    stack.pop();
                }
            }
        }
        self.check_loop_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::{IterCtx, Name};
    use dai_domains::IntervalDomain;
    use dai_lang::{EdgeId, Loc};

    type D = IntervalDomain;

    fn state(l: u32) -> Name {
        Name::State {
            loc: Loc(l),
            ctx: IterCtx::root(),
        }
    }

    fn simple_daig() -> Daig<D> {
        let mut d: Daig<D> = Daig::new();
        d.add_cell(state(0), Some(Value::State(IntervalDomain::top())));
        d.add_cell(Name::Stmt(EdgeId(0)), Some(Value::Stmt(Stmt::Skip)));
        d.add_cell(state(1), None);
        d.add_comp(
            state(1),
            Func::Transfer,
            vec![Name::Stmt(EdgeId(0)), state(0)],
        );
        d
    }

    #[test]
    fn well_formed_simple_chain() {
        simple_daig().check_well_formed().unwrap();
    }

    #[test]
    fn empty_cell_without_comp_rejected() {
        let mut d = simple_daig();
        d.add_cell(state(9), None);
        assert!(d.check_well_formed().is_err());
    }

    #[test]
    fn cycle_rejected() {
        let mut d = simple_daig();
        d.add_cell(state(2), None);
        d.add_comp(state(2), Func::Widen, vec![state(1), state(2)]);
        let err = d.check_well_formed().unwrap_err();
        assert!(matches!(err, DaigError::Invariant(m) if m.contains("cycle")));
    }

    #[test]
    fn nonempty_cell_with_empty_source_rejected() {
        let mut d = simple_daig();
        d.write(&state(1), Value::State(IntervalDomain::top()));
        d.clear(&state(0));
        assert!(d.check_well_formed().is_err());
    }

    #[test]
    fn transfer_type_checked() {
        let mut d = simple_daig();
        // Wrong: transfer with a state in statement position.
        d.add_cell(state(3), None);
        d.add_comp(state(3), Func::Transfer, vec![state(0), state(1)]);
        assert!(d.check_well_formed().is_err());
    }

    #[test]
    fn ownership_rule_by_name() {
        let (outer, inner) = (Loc(3), Loc(5));
        let sigma = |o: u32| IterCtx::root().push(outer, o);
        let at = |loc: u32, ctx: IterCtx| Name::State { loc: Loc(loc), ctx };
        // (name, owner as (head, prefix length, block))
        let cases = [
            (state(9), None),
            (Name::Stmt(EdgeId(1)), None),
            // The head's fixed-point cell and iterates 0 and 1 are initial.
            (at(3, IterCtx::root()), None),
            (at(3, sigma(0)), None),
            (at(3, sigma(1)), None),
            // Iterate k+1 is built by unrolling k; body and pre-widen cells
            // of iteration k likewise.
            (at(3, sigma(2)), Some((outer, 0, 1))),
            (at(3, sigma(4)), Some((outer, 0, 3))),
            (at(4, sigma(0)), None),
            (at(4, sigma(2)), Some((outer, 0, 2))),
            (
                Name::PreWiden {
                    head: outer,
                    ctx: sigma(0),
                },
                None,
            ),
            (
                Name::PreWiden {
                    head: outer,
                    ctx: sigma(2),
                },
                Some((outer, 0, 2)),
            ),
            // A nested head's initial four cells belong to the enclosing
            // iteration; what it unrolls is its own instance's.
            (at(5, sigma(2)), Some((outer, 0, 2))),
            (at(5, sigma(2).push(inner, 1)), Some((outer, 0, 2))),
            (at(5, sigma(0).push(inner, 1)), None),
            (at(5, sigma(2).push(inner, 2)), Some((inner, 1, 1))),
            (at(6, sigma(2).push(inner, 1)), Some((inner, 1, 1))),
            (at(6, sigma(2).push(inner, 0)), Some((outer, 0, 2))),
            (
                Name::PreJoin {
                    edge: EdgeId(7),
                    ctx: sigma(1).push(inner, 0),
                },
                Some((outer, 0, 1)),
            ),
        ];
        for (name, owner) in cases {
            assert_eq!(owning_block(&name), owner, "{name}");
        }
    }

    #[test]
    fn unrolled_cell_without_its_loop_rejected() {
        // `ℓ2⟨ℓ2:2⟩` is, by its name, block 1 of a loop at `ℓ2`; added by
        // hand it is in no table entry (and the loop has no cells at all).
        let mut d = simple_daig();
        let it2 = Name::State {
            loc: Loc(2),
            ctx: IterCtx::root().push(Loc(2), 2),
        };
        d.add_cell(it2.clone(), None);
        d.add_comp(it2, Func::Widen, vec![state(0), state(1)]);
        let err = d.check_well_formed().unwrap_err();
        assert!(matches!(err, DaigError::Invariant(m) if m.contains("unrolling")));
        assert!(d.rebuild_loop_table().is_err());
    }

    #[test]
    fn dependents_maintained_on_add_remove() {
        let mut d = simple_daig();
        assert_eq!(d.dependents(&state(0)).count(), 1);
        d.remove_comp(&state(1));
        assert_eq!(d.dependents(&state(0)).count(), 0);
    }

    #[test]
    fn ready_frontier_tracks_fill_state() {
        let mut d = simple_daig();
        // state(1) is empty with filled inputs: exactly the frontier.
        let frontier: Vec<Name> = d.ready_frontier().cloned().collect();
        assert_eq!(frontier, vec![state(1)]);
        // Chain another empty cell behind it: not ready until state(1)
        // fills.
        d.add_cell(state(2), None);
        d.add_comp(state(2), Func::Widen, vec![state(0), state(1)]);
        let frontier: Vec<Name> = d.ready_frontier().cloned().collect();
        assert_eq!(frontier, vec![state(1)]);
        d.write(&state(1), Value::State(IntervalDomain::top()));
        let frontier: Vec<Name> = d.ready_frontier().cloned().collect();
        assert_eq!(frontier, vec![state(2)]);
        d.write(&state(2), Value::State(IntervalDomain::top()));
        assert_eq!(d.ready_frontier().count(), 0);
    }

    #[test]
    fn clear_and_write_roundtrip() {
        let mut d = simple_daig();
        let v = d.clear(&state(0)).unwrap();
        assert!(d.value(&state(0)).is_none());
        d.write(&state(0), v);
        assert!(d.value(&state(0)).is_some());
    }

    #[test]
    fn removed_cell_resurrects_with_same_id() {
        let mut d = simple_daig();
        let id = d.id_of(&state(1)).unwrap();
        d.remove_cell(&state(1));
        assert!(!d.contains(&state(1)));
        assert!(!d.contains_id(id));
        assert_eq!(d.id_of(&state(1)), None);
        d.add_cell(state(1), None);
        assert_eq!(d.id_of(&state(1)), Some(id), "id survives removal");
        assert!(d.value_id(id).is_none());
    }

    #[test]
    fn struct_epoch_tracks_structure_not_values() {
        let mut d = simple_daig();
        let e0 = d.struct_epoch();
        d.write(&state(1), Value::State(IntervalDomain::top()));
        assert_eq!(d.struct_epoch(), e0, "value writes are not structural");
        d.clear(&state(1));
        assert_eq!(d.struct_epoch(), e0);
        d.add_cell(state(7), Some(Value::State(IntervalDomain::top())));
        assert!(d.struct_epoch() > e0);
        let e1 = d.struct_epoch();
        d.remove_cell(&state(7));
        assert!(d.struct_epoch() > e1);
    }

    #[test]
    fn delta_records_structural_changes_deduplicated() {
        let mut d = simple_daig();
        d.begin_delta();
        d.add_cell(state(5), None);
        d.add_cell(state(6), None);
        d.add_comp(state(5), Func::Widen, vec![state(0), state(6)]);
        d.add_comp(state(6), Func::Widen, vec![state(0), state(1)]);
        // Re-pointing state(5)'s comp must not duplicate its delta entry.
        d.add_comp(state(5), Func::Widen, vec![state(1), state(6)]);
        let delta = d.take_delta();
        let id5 = d.id_of(&state(5)).unwrap();
        let id6 = d.id_of(&state(6)).unwrap();
        assert!(delta.contains(&id5));
        assert!(delta.contains(&id6));
        let occurrences = delta.iter().filter(|&&i| i == id5).count();
        assert_eq!(occurrences, 1, "delta is deduplicated");
        // Writes outside a recording window are not tracked.
        d.write(&state(5), Value::State(IntervalDomain::top()));
        assert!(d.take_delta().is_empty());
    }

    #[test]
    fn digests_cached_per_write() {
        let d = simple_daig();
        let id = d.id_of(&state(0)).unwrap();
        let dig = d.digest_id(id).unwrap();
        assert_eq!(
            dig,
            content_digest(&Value::<D>::State(IntervalDomain::top())),
            "digest matches the stored value's content hash"
        );
        let empty = d.id_of(&state(1)).unwrap();
        assert_eq!(d.digest_id(empty), None);
    }

    #[test]
    fn borrowed_digests_equal_the_cached_ones() {
        let stmt = Stmt::Assign("x".into(), dai_lang::parse_expr("x + 1").unwrap());
        let state = IntervalDomain::top();
        assert_eq!(
            Value::<D>::stmt_digest(&stmt),
            content_digest(&Value::<D>::Stmt(stmt.clone()))
        );
        assert_eq!(
            Value::state_digest(&state),
            content_digest(&Value::State(state.clone()))
        );
        assert_ne!(Value::<D>::state_digest(&state), content_digest(&state));
    }

    #[test]
    fn duplicate_sources_register_one_dependent_entry() {
        let mut d = simple_daig();
        d.add_cell(state(4), None);
        d.add_comp(state(4), Func::Widen, vec![state(0), state(0)]);
        let id0 = d.id_of(&state(0)).unwrap();
        let entries = d
            .dependents_ids(id0)
            .iter()
            .filter(|&&x| Some(x) == d.id_of(&state(4)))
            .count();
        assert_eq!(entries, 1);
        d.remove_comp(&state(4));
        assert!(d
            .dependents_ids(id0)
            .iter()
            .all(|&x| Some(x) != d.id_of(&state(4))));
    }
}
