//! Edge-labelled control-flow graphs (paper Fig. 5) and lowering from
//! structured ASTs.
//!
//! A program `⟨L, E, ℓ0⟩` is a set of locations, a set of directed
//! statement-labelled edges, and an initial location. Lowering structured
//! `if`/`while` syntax guarantees the well-formedness conditions the paper
//! assumes:
//!
//! * the CFG is **reducible** (every back edge's destination dominates its
//!   source) — guaranteed by construction from structured syntax;
//! * every loop head has **exactly one back edge** (paper Appendix A,
//!   footnote 7) — lowering funnels multi-predecessor loop-body exits
//!   through a fresh `skip` edge;
//! * loops are exited **only at their head** (no `break`/`goto`), so a
//!   DAIG edge out of a loop always reads the head's fixed-point cell;
//! * all locations are reachable from the entry: statements after a
//!   `return` are dropped during lowering, and a `while` whose body never
//!   falls through is lowered as a non-loop.
//!
//! The CFG also tracks each location's chain of enclosing loop heads
//! (outermost first). `dai-core` uses this to assign iteration contexts to
//! DAIG names, and [`crate::loops`] re-derives the same structure from
//! dominators to cross-check it in tests.
//!
//! # Derived structure
//!
//! DAIG construction and demanded unrolling ask per edge whether it is a
//! back edge, which in-edges of a location are forward, whether it is a
//! join, which loops enclose it and what a loop's body is. Those answers
//! (`Derived`) are a function of the adjacency, `loop_parent` and
//! `loop_heads`; `Cfg::compute_derived` is that function and its one
//! definition. [`Cfg::from_function`] runs it once, when lowering is done;
//! clones share the result (an `Arc`, copied on write while a clone still
//! holds it); a splice does not run it again but patches what it changed
//! (`Cfg::patch_derived`), and [`Cfg::validate`] — under `debug_assert`
//! after every splice — compares the patched structure with a
//! recomputation. The patch is local because of four facts about a splice
//! (`crate::edit::splice_block_on_edge`: lower a block at `old_src`, then
//! move one edge's source to the block's end):
//!
//! 1. A location's `loop_parent` is fixed once the lowering call that
//!    created it returns, so an existing location's enclosing chain never
//!    changes.
//! 2. A splice adds loop heads (new locations, or `old_src` promoted by a
//!    leading `while`) and removes none, and a promoted `old_src` was no
//!    location's `loop_parent`; so an existing loop's body only gains new
//!    locations, whose ids exceed every member's — pushing keeps it
//!    ascending.
//! 3. Edges are never deleted; exactly one existing edge changes its
//!    source (the moved one) and none its destination (`merge_locs` only
//!    merges away locations the same lowering created, whose in-edges are
//!    new). Back-edge-ness can therefore change only for new edges and the
//!    moved one.
//! 4. Hence in-edges, forward in-edges and join-ness change only at
//!    destinations of new edges and at new locations — live ones only (an
//!    exit pruned by `prune_dead_exit` has no entry).
//!
//! So the patch computes chains for the live new locations from their
//! `loop_parent`s', opens a body for each new head and pushes each new
//! location onto the bodies of its chain, re-decides the back-edge bit of
//! the new edges and the moved edge, and rebuilds the forward in-edges of
//! those edges' destinations. Lowering itself reads adjacency only.

use crate::ast::{AstStmt, Block, Function, Program, Stmt};
use crate::{Symbol, RETURN_VAR};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A control-flow location `ℓ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u32);

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A stable identifier for a CFG edge.
///
/// Edge identities survive program edits (a [`crate::edit`] splice moves an
/// edge's source but keeps its identity), which is what lets DAIG statement
/// cells be reused across program versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A statement-labelled control-flow edge `ℓ —[s]→ ℓ'`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Stable identity.
    pub id: EdgeId,
    /// Source location.
    pub src: Loc,
    /// Destination location.
    pub dst: Loc,
    /// Statement label.
    pub stmt: Stmt,
}

/// Errors arising while building or editing CFGs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// The program calls an undefined function.
    UndefinedFunction(Symbol),
    /// The (static) call graph contains a cycle; the framework supports
    /// non-recursive programs only (paper §7.1).
    RecursiveCall(Symbol),
    /// A function was defined twice.
    DuplicateFunction(Symbol),
    /// An edit referred to an edge that does not exist.
    NoSuchEdge(EdgeId),
    /// An edit tried to splice a block that never falls through (e.g. it
    /// unconditionally returns), which would orphan the insertion point.
    BlockNeverFallsThrough,
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::UndefinedFunction(s) => write!(f, "call to undefined function `{s}`"),
            CfgError::RecursiveCall(s) => {
                write!(f, "recursive call cycle through `{s}` (unsupported)")
            }
            CfgError::DuplicateFunction(s) => write!(f, "duplicate function `{s}`"),
            CfgError::NoSuchEdge(e) => write!(f, "no such edge `{e}`"),
            CfgError::BlockNeverFallsThrough => {
                write!(
                    f,
                    "spliced block never falls through to the insertion point"
                )
            }
        }
    }
}

impl std::error::Error for CfgError {}

/// Loop/join structure derived from a CFG's adjacency (module docs,
/// "Derived structure").
#[derive(Debug, Default, Clone, PartialEq)]
struct Derived {
    /// Edges whose destination is a loop head dominating their source.
    back_edges: HashSet<EdgeId>,
    /// Incoming non-back edges per live location, ascending.
    fwd_in: HashMap<Loc, Vec<EdgeId>>,
    /// Locations with forward in-degree ≥ 2.
    joins: HashSet<Loc>,
    /// Chain of enclosing loop heads per live location, outermost first
    /// (the location itself excluded even when it is a head).
    enclosing: HashMap<Loc, Vec<Loc>>,
    /// Natural-loop membership per head (head included), ascending.
    natural: HashMap<Loc, Vec<Loc>>,
}

/// The control-flow graph of a single function.
#[derive(Debug, Clone)]
pub struct Cfg {
    name: Symbol,
    params: Vec<Symbol>,
    entry: Loc,
    exit: Loc,
    next_loc: u32,
    next_edge: u32,
    edges: BTreeMap<EdgeId, Edge>,
    out_edges: HashMap<Loc, Vec<EdgeId>>,
    in_edges: HashMap<Loc, Vec<EdgeId>>,
    /// Innermost enclosing loop head of each live location (a lexical
    /// parent chain; only members of `loop_heads` count as real loops).
    loop_parent: HashMap<Loc, Option<Loc>>,
    /// Locations that are the destination of a back edge.
    loop_heads: HashSet<Loc>,
    /// The derived loop/join structure: current whenever no lowering is
    /// in progress. Clones share it until either side splices.
    derived: Arc<Derived>,
}

#[cfg(test)]
thread_local! {
    /// Whole-graph derivations installed on this thread (`validate`'s
    /// reference recomputation is not one).
    pub(crate) static DERIVATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Locations and edges `patch_derived` looked at on this thread.
    pub(crate) static PATCH_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Cfg {
    /// An empty CFG (entry and exit only, no edges) for lowering to start
    /// from; its derived structure is not yet current.
    fn empty(name: Symbol, params: Vec<Symbol>) -> Cfg {
        let mut cfg = Cfg {
            name,
            params,
            entry: Loc(0),
            exit: Loc(1),
            next_loc: 2,
            next_edge: 0,
            edges: BTreeMap::new(),
            out_edges: HashMap::new(),
            in_edges: HashMap::new(),
            loop_parent: HashMap::new(),
            loop_heads: HashSet::new(),
            derived: Arc::default(),
        };
        cfg.loop_parent.insert(cfg.entry, None);
        cfg.loop_parent.insert(cfg.exit, None);
        cfg
    }

    /// Lowers a function's structured body into a CFG.
    pub fn from_function(func: &Function) -> Cfg {
        let mut cfg = Cfg::empty(func.name.clone(), func.params.clone());
        let mut lowerer = Lowerer { cfg: &mut cfg };
        let entry = lowerer.cfg.entry;
        if let Some(end) = lowerer.lower_block(&func.body, entry, &[]) {
            lowerer.finish_at_exit(end);
        }
        cfg.prune_dead_exit();
        #[cfg(test)]
        DERIVATIONS.with(|n| n.set(n.get() + 1));
        cfg.derived = Arc::new(cfg.compute_derived());
        cfg
    }

    /// Function name.
    pub fn name(&self) -> &Symbol {
        &self.name
    }

    /// Formal parameters.
    pub fn params(&self) -> &[Symbol] {
        &self.params
    }

    /// Entry location `ℓ0`.
    pub fn entry(&self) -> Loc {
        self.entry
    }

    /// Exit location `ℓ_ret`.
    pub fn exit(&self) -> Loc {
        self.exit
    }

    /// Number of live locations.
    pub fn loc_count(&self) -> usize {
        self.loop_parent.len()
    }

    /// Number of edges (= atomic statements).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All live locations, in ascending id order.
    pub fn locs(&self) -> Vec<Loc> {
        let mut v: Vec<Loc> = self.loop_parent.keys().copied().collect();
        v.sort();
        v
    }

    /// All edges in ascending id order.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.values()
    }

    /// Looks up an edge by id.
    pub fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.edges.get(&id)
    }

    /// Outgoing edge ids of `loc`, ascending.
    pub fn out_edges(&self, loc: Loc) -> &[EdgeId] {
        self.out_edges.get(&loc).map_or(&[], Vec::as_slice)
    }

    /// Incoming edge ids of `loc`, ascending.
    pub fn in_edges(&self, loc: Loc) -> &[EdgeId] {
        self.in_edges.get(&loc).map_or(&[], Vec::as_slice)
    }

    /// Is `loc` a loop head (the destination of a back edge)?
    pub fn is_loop_head(&self, loc: Loc) -> bool {
        self.loop_heads.contains(&loc)
    }

    /// All loop heads, ascending.
    pub fn loop_heads(&self) -> Vec<Loc> {
        let mut v: Vec<Loc> = self.loop_heads.iter().copied().collect();
        v.sort();
        v
    }

    /// Is edge `id` a back edge (its destination is a loop head whose
    /// natural loop contains the source)?
    pub fn is_back_edge(&self, id: EdgeId) -> bool {
        self.derived.back_edges.contains(&id)
    }

    /// The unique back edge of loop head `head`, if `head` is a loop head.
    pub fn back_edge(&self, head: Loc) -> Option<EdgeId> {
        if !self.loop_heads.contains(&head) {
            return None;
        }
        self.in_edges(head)
            .iter()
            .copied()
            .find(|&e| self.is_back_edge(e))
    }

    /// Incoming *forward* (non-back) edges of `loc`, ascending.
    ///
    /// The paper's `fwd-edges-to`: join points are locations where this has
    /// length ≥ 2. Borrowing variant of [`Cfg::fwd_in_edges`].
    pub fn fwd_in(&self, loc: Loc) -> &[EdgeId] {
        self.derived.fwd_in.get(&loc).map_or(&[], Vec::as_slice)
    }

    /// Incoming *forward* (non-back) edges of `loc`, ascending (owned).
    pub fn fwd_in_edges(&self, loc: Loc) -> Vec<EdgeId> {
        self.fwd_in(loc).to_vec()
    }

    /// Is `loc` a join point (forward in-degree ≥ 2)?
    pub fn is_join(&self, loc: Loc) -> bool {
        self.derived.joins.contains(&loc)
    }

    /// The chain of loop heads whose natural loops contain `loc`, outermost
    /// first. A loop head is *not* a member of its own chain (matching the
    /// paper's naming convention where the head's fixed-point cell lives
    /// outside its own loop). Borrowing variant of
    /// [`Cfg::enclosing_loops`].
    pub fn enclosing_chain(&self, loc: Loc) -> &[Loc] {
        self.derived.enclosing.get(&loc).map_or(&[], Vec::as_slice)
    }

    /// The chain of enclosing loop heads (owned; see
    /// [`Cfg::enclosing_chain`]).
    pub fn enclosing_loops(&self, loc: Loc) -> Vec<Loc> {
        self.enclosing_chain(loc).to_vec()
    }

    /// Like [`Cfg::enclosing_loops`] but including `loc` itself when it is a
    /// loop head (i.e. the loops whose bodies contain `loc`).
    pub fn loops_containing(&self, loc: Loc) -> Vec<Loc> {
        let mut chain = self.enclosing_loops(loc);
        if self.loop_heads.contains(&loc) {
            chain.push(loc);
        }
        chain
    }

    /// All locations in the natural loop of `head` (including `head`),
    /// ascending. Borrowing variant of [`Cfg::natural_loop`].
    pub fn natural_loop_ref(&self, head: Loc) -> &[Loc] {
        self.derived.natural.get(&head).map_or(&[], Vec::as_slice)
    }

    /// All locations in the natural loop of `head` (owned; see
    /// [`Cfg::natural_loop_ref`]).
    pub fn natural_loop(&self, head: Loc) -> Vec<Loc> {
        self.natural_loop_ref(head).to_vec()
    }

    /// Enters live location `l` into `d`: its chain of enclosing heads (its
    /// `loop_parent`'s chain, then the parent itself), its own natural loop
    /// if it is a head, and its membership of the loops of its chain.
    /// Called in ascending order of `l`: a location's `loop_parent` is older
    /// than it, so the parent is placed already and every body stays
    /// ascending.
    fn place(&self, d: &mut Derived, l: Loc) {
        let mut chain = Vec::new();
        if let Some(p) = self.loop_parent[&l] {
            chain.clone_from(&d.enclosing[&p]);
            if self.loop_heads.contains(&p) {
                chain.push(p);
            }
        }
        if self.loop_heads.contains(&l) {
            d.natural.insert(l, vec![l]);
        }
        for h in &chain {
            let body = d.natural.get_mut(h).expect("a head is older than its body");
            body.push(l);
        }
        d.enclosing.insert(l, chain);
    }

    /// Is `e` a back edge, given the enclosing chains in `d`?
    fn closes_loop(&self, d: &Derived, e: &Edge) -> bool {
        self.loop_heads.contains(&e.dst)
            && (e.src == e.dst || d.enclosing.get(&e.src).is_some_and(|c| c.contains(&e.dst)))
    }

    /// Rebuilds `d`'s forward in-edges and join bit of live location `l`
    /// from its in-edges and the back-edge bits.
    fn derive_fwd_in(&self, d: &mut Derived, l: Loc) {
        let fwd: Vec<EdgeId> = self
            .in_edges(l)
            .iter()
            .copied()
            .filter(|e| !d.back_edges.contains(e))
            .collect();
        if fwd.len() >= 2 {
            d.joins.insert(l);
        } else {
            d.joins.remove(&l);
        }
        d.fwd_in.insert(l, fwd);
    }

    /// One pass over the graph computing every derived relation the DAIG
    /// builder queries per edge: the definition [`Cfg::patch_derived`]
    /// must agree with.
    fn compute_derived(&self) -> Derived {
        let mut locs: Vec<Loc> = self.loop_parent.keys().copied().collect();
        locs.sort_unstable();
        let mut d = Derived {
            enclosing: HashMap::with_capacity(locs.len()),
            fwd_in: HashMap::with_capacity(locs.len()),
            ..Derived::default()
        };
        for &l in &locs {
            self.place(&mut d, l);
        }
        for e in self.edges.values() {
            if self.closes_loop(&d, e) {
                d.back_edges.insert(e.id);
            }
        }
        for &l in &locs {
            self.derive_fwd_in(&mut d, l);
        }
        d
    }

    /// Brings the derived structure up to date after a splice that created
    /// the live locations `new_locs` (ascending) and the edges from
    /// `first_edge` on, moved the source of `moved` and made the existing
    /// location `promoted` a loop head (module docs, "Derived structure").
    pub(crate) fn patch_derived(
        &mut self,
        new_locs: &[Loc],
        first_edge: u32,
        moved: EdgeId,
        promoted: Option<Loc>,
    ) {
        let mut derived = std::mem::take(&mut self.derived);
        let d = Arc::make_mut(&mut derived);
        if let Some(h) = promoted {
            d.natural.insert(h, vec![h]);
        }
        for &l in new_locs {
            self.place(d, l);
        }
        let mut touched = new_locs.to_vec();
        for id in (first_edge..self.next_edge).map(EdgeId).chain([moved]) {
            let e = &self.edges[&id];
            if self.closes_loop(d, e) {
                d.back_edges.insert(id);
            } else {
                d.back_edges.remove(&id);
            }
            if self.loop_parent.contains_key(&e.dst) {
                touched.push(e.dst);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        #[cfg(test)]
        PATCH_VISITS.with(|n| {
            n.set(n.get() + u64::from(self.next_edge - first_edge) + 1 + touched.len() as u64)
        });
        for l in touched {
            self.derive_fwd_in(d, l);
        }
        self.derived = derived;
    }

    /// The ids the next location and the next edge will get.
    pub(crate) fn id_marks(&self) -> (u32, u32) {
        (self.next_loc, self.next_edge)
    }

    /// The live locations with ids from `first` on, ascending (lowering
    /// merges some of the locations it creates away).
    pub(crate) fn live_locs_from(&self, first: u32) -> impl Iterator<Item = Loc> + '_ {
        (first..self.next_loc)
            .map(Loc)
            .filter(|l| self.loop_parent.contains_key(l))
    }

    fn fresh_loc(&mut self, parent: Option<Loc>) -> Loc {
        let l = Loc(self.next_loc);
        self.next_loc += 1;
        self.loop_parent.insert(l, parent);
        l
    }

    fn add_edge(&mut self, src: Loc, dst: Loc, stmt: Stmt) -> EdgeId {
        // The greatest id so far: pushing keeps both lists ascending.
        let id = EdgeId(self.next_edge);
        self.next_edge += 1;
        self.edges.insert(id, Edge { id, src, dst, stmt });
        self.out_edges.entry(src).or_default().push(id);
        self.in_edges.entry(dst).or_default().push(id);
        id
    }

    /// Replaces the statement on an edge, returning the old one
    /// (used by [`crate::edit`]).
    pub(crate) fn replace_edge_stmt_internal(&mut self, id: EdgeId, stmt: Stmt) -> Option<Stmt> {
        let e = self.edges.get_mut(&id)?;
        Some(std::mem::replace(&mut e.stmt, stmt))
    }

    /// Moves an edge's source to `new_src`, updating adjacency
    /// (used by [`crate::edit`] splices).
    pub(crate) fn move_edge_src_internal(&mut self, id: EdgeId, new_src: Loc) {
        let Some(e) = self.edges.get_mut(&id) else {
            return;
        };
        let old_src = e.src;
        e.src = new_src;
        if let Some(v) = self.out_edges.get_mut(&old_src) {
            v.retain(|x| *x != id);
        }
        let outs = self.out_edges.entry(new_src).or_default();
        outs.push(id);
        outs.sort();
    }

    /// Redirects all in-edges of `from` to `into` and deletes `from`.
    /// `from` must have no out-edges.
    fn merge_locs(&mut self, from: Loc, into: Loc) {
        debug_assert!(from != into);
        debug_assert!(self.out_edges(from).is_empty());
        let incoming: Vec<EdgeId> = self.in_edges(from).to_vec();
        for id in incoming {
            if let Some(e) = self.edges.get_mut(&id) {
                e.dst = into;
            }
            self.in_edges.entry(into).or_default().push(id);
        }
        self.in_edges.entry(into).or_default().sort();
        self.in_edges.remove(&from);
        self.out_edges.remove(&from);
        self.loop_parent.remove(&from);
    }

    /// Drops the exit location if nothing reaches it (a function whose body
    /// cannot fall through and has no `return` would otherwise leave an
    /// isolated exit violating "all locations reachable").
    fn prune_dead_exit(&mut self) {
        if self.exit != self.entry && self.in_edges(self.exit).is_empty() {
            // Keep a reachable exit: collapse it onto the entry's last
            // reachable location is not meaningful; instead retain the exit
            // only if reachable. An unreachable exit can only arise from an
            // infinite loop covering all paths; the exit is then vestigial.
            self.loop_parent.remove(&self.exit);
        }
    }

    /// Checks internal adjacency/loop-structure invariants, returning a
    /// description of the first violation. Used by tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        // Adjacency agrees with the edge map.
        for (id, e) in &self.edges {
            if e.id != *id {
                return Err(format!("edge {id} has mismatched id {}", e.id));
            }
            if !self.out_edges(e.src).contains(id) {
                return Err(format!("edge {id} missing from out_edges of {}", e.src));
            }
            if !self.in_edges(e.dst).contains(id) {
                return Err(format!("edge {id} missing from in_edges of {}", e.dst));
            }
            if !self.loop_parent.contains_key(&e.src) || !self.loop_parent.contains_key(&e.dst) {
                return Err(format!("edge {id} touches a dead location"));
            }
        }
        for (loc, ids) in &self.out_edges {
            for id in ids {
                let e = self
                    .edges
                    .get(id)
                    .ok_or(format!("dangling out edge {id}"))?;
                if e.src != *loc {
                    return Err(format!("out_edges of {loc} lists {id} with src {}", e.src));
                }
            }
        }
        for (loc, ids) in &self.in_edges {
            for id in ids {
                let e = self.edges.get(id).ok_or(format!("dangling in edge {id}"))?;
                if e.dst != *loc {
                    return Err(format!("in_edges of {loc} lists {id} with dst {}", e.dst));
                }
            }
        }
        // Every live non-entry location is reachable from the entry.
        let mut seen = HashSet::new();
        let mut stack = vec![self.entry];
        while let Some(l) = stack.pop() {
            if !seen.insert(l) {
                continue;
            }
            for id in self.out_edges(l) {
                stack.push(self.edges[id].dst);
            }
        }
        for l in self.loop_parent.keys() {
            if !seen.contains(l) {
                return Err(format!("location {l} unreachable from entry"));
            }
        }
        // Loop heads have exactly one back edge; non-heads have none.
        for l in self.loop_parent.keys() {
            let back: Vec<EdgeId> = self
                .in_edges(*l)
                .iter()
                .copied()
                .filter(|&e| self.is_back_edge(e))
                .collect();
            if self.loop_heads.contains(l) {
                if back.len() != 1 {
                    return Err(format!("loop head {l} has {} back edges", back.len()));
                }
            } else if !back.is_empty() {
                return Err(format!("non-head {l} has a back edge"));
            }
        }
        // Exit has no out-edges.
        if self.loop_parent.contains_key(&self.exit) && !self.out_edges(self.exit).is_empty() {
            return Err("exit has outgoing edges".to_string());
        }
        // The kept (patched) structure is what a derivation would give.
        if *self.derived != self.compute_derived() {
            return Err("derived loop/join structure differs from its recomputation".to_string());
        }
        Ok(())
    }
}

/// Shared lowering machinery, also used by [`crate::edit`] to splice blocks
/// into an existing CFG. Lowering reads adjacency, `loop_parent` and
/// `loop_heads` only, never [`Derived`], which is out of date until the
/// caller derives or patches it.
pub(crate) struct Lowerer<'a> {
    pub(crate) cfg: &'a mut Cfg,
}

impl Lowerer<'_> {
    /// Lowers `block` starting at `cur` under enclosing-loop context `ctx`
    /// (innermost last). Returns the fall-through location, or `None` if
    /// every path returns.
    pub(crate) fn lower_block(&mut self, block: &Block, cur: Loc, ctx: &[Loc]) -> Option<Loc> {
        let mut cur = cur;
        for stmt in &block.0 {
            match self.lower_stmt(stmt, cur, ctx) {
                Some(next) => cur = next,
                None => return None, // paths all return; drop unreachable rest
            }
        }
        Some(cur)
    }

    fn lower_stmt(&mut self, stmt: &AstStmt, cur: Loc, ctx: &[Loc]) -> Option<Loc> {
        let parent = ctx.last().copied();
        match stmt {
            AstStmt::Simple(s) => {
                let next = self.cfg.fresh_loc(parent);
                self.cfg.add_edge(cur, next, s.clone());
                Some(next)
            }
            AstStmt::Nested(block) => self.lower_block(block, cur, ctx),
            AstStmt::Return(value) => {
                let s = match value {
                    Some(e) => Stmt::Assign(Symbol::new(RETURN_VAR), e.clone()),
                    None => Stmt::Skip,
                };
                let exit = self.cfg.exit;
                self.cfg.add_edge(cur, exit, s);
                None
            }
            AstStmt::If { cond, then_, else_ } => {
                let t0 = self.cfg.fresh_loc(parent);
                self.cfg.add_edge(cur, t0, Stmt::Assume(cond.clone()));
                let e0 = self.cfg.fresh_loc(parent);
                self.cfg.add_edge(cur, e0, Stmt::Assume(cond.negate()));
                let t_end = self.lower_block(then_, t0, ctx);
                let e_end = self.lower_block(else_, e0, ctx);
                match (t_end, e_end) {
                    (None, None) => None,
                    (Some(t), None) => Some(t),
                    (None, Some(e)) => Some(e),
                    (Some(t), Some(e)) => {
                        let join = self.cfg.fresh_loc(parent);
                        self.cfg.merge_locs(t, join);
                        self.cfg.merge_locs(e, join);
                        Some(join)
                    }
                }
            }
            AstStmt::While { cond, body } => {
                // A spliced `while` can start at a location that heads a
                // loop already; a second back edge into it would break "one
                // back edge per head", so it gets a head of its own.
                let head = if self.cfg.loop_heads.contains(&cur) {
                    let fresh = self.cfg.fresh_loc(parent);
                    self.cfg.add_edge(cur, fresh, Stmt::Skip);
                    fresh
                } else {
                    cur
                };
                let mut body_ctx = ctx.to_vec();
                body_ctx.push(head);
                let first_body_loc = self.cfg.next_loc;
                let b0 = self.cfg.fresh_loc(Some(head));
                self.cfg.add_edge(head, b0, Stmt::Assume(cond.clone()));
                match self.lower_block(body, b0, &body_ctx) {
                    Some(b_end) => {
                        // Exactly one back edge per head (paper fn. 7): fuse
                        // a unique predecessor, otherwise funnel via `skip`.
                        if self.cfg.in_edges(b_end).len() == 1 && b_end != head {
                            self.cfg.merge_locs(b_end, head);
                        } else {
                            self.cfg.add_edge(b_end, head, Stmt::Skip);
                        }
                        self.cfg.loop_heads.insert(head);
                    }
                    None => {
                        // The body always returns: `head` is not a loop head.
                        // Re-parent locations that optimistically claimed it.
                        for l in first_body_loc..self.cfg.next_loc {
                            if let Some(p) = self.cfg.loop_parent.get_mut(&Loc(l)) {
                                if *p == Some(head) {
                                    *p = parent;
                                }
                            }
                        }
                    }
                }
                let x0 = self.cfg.fresh_loc(parent);
                self.cfg.add_edge(head, x0, Stmt::Assume(cond.negate()));
                Some(x0)
            }
        }
    }

    /// Routes the fall-through location `end` into the function exit
    /// (the implicit `return`).
    pub(crate) fn finish_at_exit(&mut self, end: Loc) {
        let exit = self.cfg.exit;
        if end == exit {
            return;
        }
        if end == self.cfg.entry || !self.cfg.out_edges(end).is_empty() {
            // Cannot merge the entry (or a loop head that already has
            // out-edges) into the exit; add an explicit skip edge.
            self.cfg.add_edge(end, exit, Stmt::Skip);
        } else {
            self.cfg.merge_locs(end, exit);
        }
    }
}

/// Does `block` fall through when lowered? The recursion of
/// [`Lowerer::lower_block`] on the AST alone, so that an edit can be judged
/// before the CFG is touched; `callees` gains, in edge order, the callee of
/// every call lowering would put on an edge (nothing behind a `return` is
/// lowered).
pub(crate) fn falls_through(block: &Block, callees: &mut Vec<Symbol>) -> bool {
    block.0.iter().all(|stmt| match stmt {
        AstStmt::Simple(s) => {
            callees.extend(s.callee().cloned());
            true
        }
        AstStmt::Nested(inner) => falls_through(inner, callees),
        AstStmt::Return(_) => false,
        AstStmt::If { then_, else_, .. } => {
            let (t, e) = (falls_through(then_, callees), falls_through(else_, callees));
            t || e
        }
        AstStmt::While { body, .. } => {
            falls_through(body, callees);
            true
        }
    })
}

/// The call-graph index kept with a [`LoweredProgram`].
///
/// Everything here is a function of the set of `(caller, edge, callee)`
/// triples of the program as of the last successful
/// [`LoweredProgram::refresh_call_graph`]; `version` moves exactly when
/// that set does, so a consumer that derives its own tables from the
/// index (the interprocedural analyzer's context table) can key them on
/// it. Functions are named by their definition index (their position in
/// [`LoweredProgram::cfgs`]).
#[derive(Debug, Clone, Default)]
struct CallIndex {
    /// Per function, its call sites `(edge, callee)`, ascending edge id.
    calls_out: Vec<Vec<(EdgeId, usize)>>,
    /// Per function, the sites `(caller, edge)` calling it: callers in
    /// definition order, then ascending edge id.
    calls_in: Vec<Vec<(usize, EdgeId)>>,
    /// Function names in reverse topological (callees-first) order.
    topo_order: Vec<Symbol>,
    version: u64,
}

/// The CFGs of a whole program, plus its call-graph index.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    cfgs: Vec<Cfg>,
    index: HashMap<Symbol, usize>,
    calls: CallIndex,
    /// Functions handed out mutably since the last successful refresh:
    /// the only ones whose call sites can differ from the index.
    touched: Vec<usize>,
}

impl LoweredProgram {
    /// Looks up a function's CFG by name.
    pub fn by_name(&self, name: &str) -> Option<&Cfg> {
        self.index.get(name).map(|&i| &self.cfgs[i])
    }

    /// A function's definition index (its position in
    /// [`LoweredProgram::cfgs`]), the name the call-graph index uses.
    pub fn func_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The analysis entry CFG: `main` when present, otherwise the first
    /// function — the same rule as [`crate::ast::Program::entry_function`],
    /// shared here so every consumer (REPL, engine sessions, drivers)
    /// resolves the entry identically.
    pub fn entry_cfg(&self) -> Option<&Cfg> {
        self.by_name("main").or_else(|| self.cfgs().first())
    }

    /// Mutable access to a function's CFG by name. The call-graph index
    /// goes stale for this function until the caller runs
    /// [`LoweredProgram::refresh_call_graph`]; prefer
    /// [`LoweredProgram::splice`] and [`LoweredProgram::relabel`], which
    /// reject an edit the refresh would reject before touching anything.
    pub fn by_name_mut(&mut self, name: &str) -> Option<&mut Cfg> {
        let i = self.index.get(name).copied()?;
        self.touched.push(i);
        Some(&mut self.cfgs[i])
    }

    /// All CFGs in definition order.
    pub fn cfgs(&self) -> &[Cfg] {
        &self.cfgs
    }

    /// Function names, callees before callers.
    pub fn topo_order(&self) -> &[Symbol] {
        &self.calls.topo_order
    }

    /// A counter that moves exactly when the set of
    /// `(caller, edge, callee)` triples does (at a successful refresh).
    pub fn call_graph_version(&self) -> u64 {
        self.calls.version
    }

    /// The call sites `(edge, callee)` of the function with definition
    /// index `func`, ascending edge id.
    pub fn calls_out(&self, func: usize) -> &[(EdgeId, usize)] {
        self.calls.calls_out.get(func).map_or(&[], Vec::as_slice)
    }

    /// Direct callees of `name` (deduplicated, in edge order).
    pub fn callees(&self, name: &str) -> Vec<Symbol> {
        let mut seen = HashSet::new();
        self.func_index(name)
            .map_or(&[][..], |f| self.calls_out(f))
            .iter()
            .filter(|(_, callee)| seen.insert(*callee))
            .map(|&(_, callee)| self.cfgs[callee].name().clone())
            .collect()
    }

    /// All call sites `(caller, edge)` whose callee is `name`: callers in
    /// definition order, then ascending edge id.
    pub fn call_sites_of(&self, name: &str) -> Vec<(Symbol, EdgeId)> {
        self.func_index(name)
            .map_or(&[][..], |f| self.calls.calls_in[f].as_slice())
            .iter()
            .map(|&(caller, edge)| (self.cfgs[caller].name().clone(), edge))
            .collect()
    }

    /// `name` and every function from which it is reachable through
    /// calls: exactly the functions whose results can observe an edit to
    /// `name`. Empty for an unknown name.
    pub fn transitive_callers(&self, name: &str) -> HashSet<Symbol> {
        let mut seen: HashSet<usize> = HashSet::new();
        let mut work: Vec<usize> = self.func_index(name).into_iter().collect();
        while let Some(f) = work.pop() {
            if seen.insert(f) {
                work.extend(self.calls.calls_in[f].iter().map(|&(caller, _)| caller));
            }
        }
        seen.into_iter()
            .map(|f| self.cfgs[f].name().clone())
            .collect()
    }

    /// Brings the call-graph index up to date after an edit, re-validating
    /// that the program is call-closed and non-recursive. Only functions
    /// handed out by [`LoweredProgram::by_name_mut`] since the last
    /// successful refresh are rescanned, and when their call sites turn
    /// out unchanged nothing else is recomputed.
    ///
    /// # Errors
    ///
    /// [`CfgError::UndefinedFunction`] or [`CfgError::RecursiveCall`]; the
    /// index then still describes the program as of the last successful
    /// refresh.
    pub fn refresh_call_graph(&mut self) -> Result<(), CfgError> {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        let mut rescanned: Vec<(usize, Vec<(EdgeId, usize)>)> = Vec::new();
        for &f in &touched {
            match self.scan_calls(f) {
                Ok(sites) if sites == self.calls.calls_out[f] => {}
                Ok(sites) => rescanned.push((f, sites)),
                Err(e) => {
                    self.touched = touched;
                    return Err(e);
                }
            }
        }
        if rescanned.is_empty() {
            return Ok(());
        }
        // Install the new sites, keeping the old ones to put back should
        // they close a cycle.
        for (f, sites) in &mut rescanned {
            std::mem::swap(&mut self.calls.calls_out[*f], sites);
        }
        if let Err(e) = self.derive_call_index() {
            for (f, sites) in &mut rescanned {
                std::mem::swap(&mut self.calls.calls_out[*f], sites);
            }
            self.touched = touched;
            return Err(e);
        }
        self.calls.version += 1;
        Ok(())
    }

    /// Recomputes everything the index derives from `calls_out`, checking
    /// that the call graph is acyclic; on error nothing is changed.
    fn derive_call_index(&mut self) -> Result<(), CfgError> {
        self.calls.topo_order = topo_order(&self.cfgs, &self.calls.calls_out)?;
        let mut calls_in = vec![Vec::new(); self.cfgs.len()];
        for (caller, sites) in self.calls.calls_out.iter().enumerate() {
            for &(edge, callee) in sites {
                calls_in[callee].push((caller, edge));
            }
        }
        self.calls.calls_in = calls_in;
        Ok(())
    }

    /// The call sites of function `f` as its CFG has them now.
    fn scan_calls(&self, f: usize) -> Result<Vec<(EdgeId, usize)>, CfgError> {
        let mut sites = Vec::new();
        for e in self.cfgs[f].edges() {
            if let Some(c) = e.stmt.callee() {
                let callee = self
                    .func_index(c.as_str())
                    .ok_or_else(|| CfgError::UndefinedFunction(c.clone()))?;
                sites.push((e.id, callee));
            }
        }
        Ok(sites)
    }

    /// Replaces the statement on `edge` of function `name`, returning the
    /// old one. Atomic: every check runs before the first mutation.
    ///
    /// # Errors
    ///
    /// [`CfgError::UndefinedFunction`] for an unknown `name` or callee,
    /// [`CfgError::NoSuchEdge`], [`CfgError::RecursiveCall`]; the program,
    /// index included, is then unchanged.
    pub fn relabel(&mut self, name: &str, edge: EdgeId, stmt: Stmt) -> Result<Stmt, CfgError> {
        let f = self.editable(name)?;
        let e = self.cfgs[f].edge(edge).ok_or(CfgError::NoSuchEdge(edge))?;
        let callee = stmt.callee().cloned();
        let calls = e.stmt.callee().is_some() || callee.is_some();
        self.check_new_callees(name, callee.as_slice())?;
        let old = crate::edit::relabel_edge(&mut self.cfgs[f], edge, stmt)?;
        self.committed(f, calls);
        Ok(old)
    }

    /// Splices `block` onto `edge` of function `name`
    /// ([`crate::edit::splice_block_on_edge`]). Atomic: every check runs
    /// before the first mutation.
    ///
    /// # Errors
    ///
    /// [`CfgError::UndefinedFunction`] for an unknown `name` or callee,
    /// [`CfgError::NoSuchEdge`], [`CfgError::BlockNeverFallsThrough`],
    /// [`CfgError::RecursiveCall`]; the program, index included, is then
    /// unchanged.
    pub fn splice(
        &mut self,
        name: &str,
        edge: EdgeId,
        block: &Block,
    ) -> Result<crate::edit::SpliceInfo, CfgError> {
        let f = self.editable(name)?;
        // A missing edge or a block that never falls through comes first,
        // and the CFG's own (atomic) splice reports it.
        let mut callees = Vec::new();
        if self.cfgs[f].edge(edge).is_some() && falls_through(block, &mut callees) {
            self.check_new_callees(name, &callees)?;
        }
        let info = crate::edit::splice_block_on_edge(&mut self.cfgs[f], edge, block)?;
        self.committed(f, !callees.is_empty());
        Ok(info)
    }

    /// The definition index of `name`, with the call-graph index brought
    /// up to date first: the checks of an edit read it.
    fn editable(&mut self, name: &str) -> Result<usize, CfgError> {
        if !self.touched.is_empty() {
            self.refresh_call_graph()?;
        }
        self.func_index(name)
            .ok_or_else(|| CfgError::UndefinedFunction(Symbol::new(name)))
    }

    /// What [`LoweredProgram::refresh_call_graph`] would reject once `name`
    /// called `callees`, in its order: an undefined callee first, then one
    /// from which `name` is reachable.
    fn check_new_callees(&self, name: &str, callees: &[Symbol]) -> Result<(), CfgError> {
        let undefined = |c: &&Symbol| self.func_index(c.as_str()).is_none();
        if let Some(c) = callees.iter().find(undefined) {
            return Err(CfgError::UndefinedFunction(c.clone()));
        }
        if callees.is_empty() {
            return Ok(());
        }
        let callers = self.transitive_callers(name);
        match callees.iter().find(|c| callers.contains(*c)) {
            Some(c) => Err(CfgError::RecursiveCall(c.clone())),
            None => Ok(()),
        }
    }

    /// After a validated edit to function `f`: rescans its call sites when
    /// the statements that went or came contain a call.
    fn committed(&mut self, f: usize, calls: bool) {
        if calls {
            self.touched.push(f);
            self.refresh_call_graph()
                .expect("the edit's callees were checked before it was applied");
        }
    }
}

/// Lowers every function of `program` and validates the call graph.
///
/// # Errors
///
/// Returns [`CfgError::DuplicateFunction`], [`CfgError::UndefinedFunction`],
/// or [`CfgError::RecursiveCall`] for ill-formed programs.
pub fn lower_program(program: &Program) -> Result<LoweredProgram, CfgError> {
    let mut cfgs = Vec::new();
    let mut index = HashMap::new();
    for func in &program.functions {
        if index.contains_key(&func.name) {
            return Err(CfgError::DuplicateFunction(func.name.clone()));
        }
        index.insert(func.name.clone(), cfgs.len());
        cfgs.push(Cfg::from_function(func));
    }
    let mut lowered = LoweredProgram {
        cfgs,
        index,
        calls: CallIndex::default(),
        touched: Vec::new(),
    };
    lowered.calls.calls_out = (0..lowered.cfgs.len())
        .map(|f| lowered.scan_calls(f))
        .collect::<Result<_, _>>()?;
    lowered.derive_call_index()?;
    Ok(lowered)
}

/// Checks that the call graph `calls_out` is acyclic; returns function
/// names callees-first.
///
/// # Errors
///
/// Returns [`CfgError::RecursiveCall`].
fn topo_order(cfgs: &[Cfg], calls_out: &[Vec<(EdgeId, usize)>]) -> Result<Vec<Symbol>, CfgError> {
    // Iterative DFS three-color cycle detection + postorder.
    let mut color = vec![0u8; cfgs.len()]; // 0 white, 1 grey, 2 black
    let mut order: Vec<Symbol> = Vec::with_capacity(cfgs.len());
    for root in 0..cfgs.len() {
        if color[root] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = 1;
        while let Some(&(node, next)) = stack.last() {
            if let Some(&(_, child)) = calls_out[node].get(next) {
                stack.last_mut().expect("stack nonempty").1 += 1;
                match color[child] {
                    0 => {
                        color[child] = 1;
                        stack.push((child, 0));
                    }
                    1 => return Err(CfgError::RecursiveCall(cfgs[child].name().clone())),
                    _ => {}
                }
            } else {
                color[node] = 2;
                order.push(cfgs[node].name().clone());
                stack.pop();
            }
        }
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn lower(src: &str) -> LoweredProgram {
        lower_program(&parse_program(src).unwrap()).unwrap()
    }

    const APPEND: &str = r#"
        function append(p, q) {
            if (p == null) { return q; }
            var r = p;
            while (r.next != null) { r = r.next; }
            r.next = q;
            return p;
        }
    "#;

    #[test]
    fn append_cfg_matches_paper_fig2() {
        let prog = lower(APPEND);
        let cfg = prog.by_name("append").unwrap();
        cfg.validate().unwrap();
        // Fig. 2 has 8 locations (ℓ0..ℓ6, ℓret) and 9 edges.
        assert_eq!(cfg.loc_count(), 8);
        assert_eq!(cfg.edge_count(), 9);
        assert_eq!(cfg.loop_heads().len(), 1);
        let head = cfg.loop_heads()[0];
        // The loop body is the single-statement `r = r.next` back edge.
        let back = cfg.back_edge(head).unwrap();
        assert_eq!(cfg.edge(back).unwrap().stmt.to_string(), "r = r.next");
        // The exit location joins the two returns.
        assert_eq!(cfg.fwd_in_edges(cfg.exit()).len(), 2);
    }

    #[test]
    fn straightline_chain() {
        let prog = lower("function f() { var x = 1; x = x + 1; return x; }");
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        assert_eq!(cfg.edge_count(), 3);
        assert_eq!(cfg.loc_count(), 4);
        assert!(cfg.loop_heads().is_empty());
    }

    #[test]
    fn if_produces_join() {
        let prog = lower("function f(x) { if (x > 0) { x = 1; } else { x = 2; } return x; }");
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        let joins: Vec<Loc> = cfg.locs().into_iter().filter(|&l| cfg.is_join(l)).collect();
        assert_eq!(joins.len(), 1);
    }

    #[test]
    fn while_produces_single_back_edge_even_with_if_body() {
        let prog = lower(
            "function f(n) { var i = 0; while (i < n) { if (i % 2 == 0) { i = i + 1; } else { i = i + 3; } } return i; }",
        );
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        let head = cfg.loop_heads()[0];
        let backs: Vec<EdgeId> = cfg
            .in_edges(head)
            .iter()
            .copied()
            .filter(|&e| cfg.is_back_edge(e))
            .collect();
        assert_eq!(backs.len(), 1);
        // The funnel edge is a skip.
        assert_eq!(cfg.edge(backs[0]).unwrap().stmt, Stmt::Skip);
    }

    #[test]
    fn empty_while_body_self_loop() {
        let prog = lower("function f(b) { while (b == 0) { } return b; }");
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        let head = cfg.loop_heads()[0];
        let back = cfg.back_edge(head).unwrap();
        let e = cfg.edge(back).unwrap();
        assert_eq!(e.src, e.dst);
    }

    #[test]
    fn nested_loops_have_nested_contexts() {
        let prog = lower(
            "function f(n) { var i = 0; while (i < n) { var j = 0; while (j < i) { j = j + 1; } i = i + 1; } return i; }",
        );
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        let heads = cfg.loop_heads();
        assert_eq!(heads.len(), 2);
        let (outer, inner) = (heads[0], heads[1]);
        assert_eq!(cfg.enclosing_loops(outer), Vec::<Loc>::new());
        assert_eq!(cfg.enclosing_loops(inner), vec![outer]);
        assert!(cfg.natural_loop(outer).contains(&inner));
    }

    #[test]
    fn while_whose_body_always_returns_is_not_a_loop() {
        let prog = lower("function f(n) { while (n > 0) { return 1; } return 0; }");
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        assert!(cfg.loop_heads().is_empty());
        for l in cfg.locs() {
            assert!(cfg.enclosing_loops(l).is_empty());
        }
    }

    #[test]
    fn statements_after_return_are_dropped() {
        let prog = lower("function f() { return 1; var x = 2; }");
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        assert_eq!(cfg.edge_count(), 1);
    }

    #[test]
    fn loop_as_first_statement_makes_entry_a_head() {
        let prog = lower("function f(n) { while (n > 0) { n = n - 1; } return n; }");
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        assert!(cfg.is_loop_head(cfg.entry()));
    }

    #[test]
    fn call_graph_topological_order() {
        let prog = lower(
            "function h() { return 1; } function g() { var x = h(); return x; } function main() { var y = g(); return y; }",
        );
        let order = prog.topo_order();
        let pos = |n: &str| order.iter().position(|s| s.as_str() == n).unwrap();
        assert!(pos("h") < pos("g"));
        assert!(pos("g") < pos("main"));
    }

    #[test]
    fn recursion_rejected() {
        let err =
            lower_program(&parse_program("function f(n) { var x = f(n); return x; }").unwrap())
                .unwrap_err();
        assert!(matches!(err, CfgError::RecursiveCall(_)));
    }

    #[test]
    fn mutual_recursion_rejected() {
        let err = lower_program(
            &parse_program(
                "function f(n) { var x = g(n); return x; } function g(n) { var y = f(n); return y; }",
            )
            .unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, CfgError::RecursiveCall(_)));
    }

    #[test]
    fn undefined_callee_rejected() {
        let err =
            lower_program(&parse_program("function main() { var x = nope(); return x; }").unwrap())
                .unwrap_err();
        assert!(matches!(err, CfgError::UndefinedFunction(_)));
    }

    #[test]
    fn call_sites_found() {
        let prog = lower(
            "function g(x) { return x; } function main() { var a = g(1); var b = g(2); return a + b; }",
        );
        assert_eq!(prog.call_sites_of("g").len(), 2);
        assert_eq!(prog.callees("main"), vec![Symbol::new("g")]);
    }

    const DIAMOND: &str = "function d(x) { return x; } \
         function b(x) { var u = d(x); return u; } \
         function c(x) { var u = d(x); var w = d(u); return w; } \
         function spare(x) { return x; } \
         function main() { var p = b(1); var q = c(2); return p + q; }";

    fn names(set: &HashSet<Symbol>) -> Vec<&str> {
        let mut v: Vec<&str> = set.iter().map(Symbol::as_str).collect();
        v.sort();
        v
    }

    fn call_edge(prog: &LoweredProgram, f: &str, nth: usize) -> EdgeId {
        let f = prog.func_index(f).unwrap();
        prog.calls_out(f)[nth].0
    }

    #[test]
    fn index_answers_callers_and_sites() {
        let prog = lower(DIAMOND);
        assert_eq!(
            names(&prog.transitive_callers("d")),
            ["b", "c", "d", "main"]
        );
        assert_eq!(names(&prog.transitive_callers("main")), ["main"]);
        assert_eq!(names(&prog.transitive_callers("spare")), ["spare"]);
        assert!(prog.transitive_callers("nope").is_empty());
        // Callers in definition order, then by edge.
        let sites: Vec<(String, EdgeId)> = prog
            .call_sites_of("d")
            .into_iter()
            .map(|(g, e)| (g.to_string(), e))
            .collect();
        assert_eq!(
            sites,
            [
                ("b".to_string(), call_edge(&prog, "b", 0)),
                ("c".to_string(), call_edge(&prog, "c", 0)),
                ("c".to_string(), call_edge(&prog, "c", 1)),
            ]
        );
        assert_eq!(prog.callees("c"), vec![Symbol::new("d")]);
        assert!(prog.callees("nope").is_empty());
        assert!(prog.call_sites_of("nope").is_empty());
    }

    #[test]
    fn index_version_moves_only_with_the_call_sites() {
        let mut prog = lower(DIAMOND);
        let v0 = prog.call_graph_version();
        // A refresh with nothing handed out, and an edit that moves no
        // call, leave the index alone.
        prog.refresh_call_graph().unwrap();
        let ret = prog.by_name("spare").unwrap().edges().next().unwrap().id;
        prog.relabel("spare", ret, Stmt::Skip).unwrap();
        let block = crate::parser::parse_block("var t = 1;").unwrap();
        let first = call_edge(&prog, "c", 0);
        prog.splice("c", first, &block).unwrap();
        assert_eq!(prog.call_graph_version(), v0);
        // Retargeting one call moves it, and every answer with it.
        let call = Stmt::Call {
            lhs: Some("u".into()),
            callee: Symbol::new("spare"),
            args: vec![],
        };
        let cfg = prog.by_name_mut("c").unwrap();
        crate::edit::relabel_edge(cfg, first, call).unwrap();
        assert_eq!(prog.call_sites_of("d").len(), 3, "stale until refreshed");
        prog.refresh_call_graph().unwrap();
        assert_eq!(prog.call_graph_version(), v0 + 1);
        assert_eq!(prog.call_sites_of("d").len(), 2);
        assert_eq!(prog.call_sites_of("spare").len(), 1);
        assert_eq!(
            prog.callees("c"),
            vec![Symbol::new("spare"), Symbol::new("d")]
        );
        assert_eq!(
            names(&prog.transitive_callers("spare")),
            ["c", "main", "spare"]
        );
        let order = prog.topo_order();
        let pos = |n: &str| order.iter().position(|s| s.as_str() == n).unwrap();
        assert!(pos("spare") < pos("c") && pos("c") < pos("main"));
    }

    #[test]
    fn rejected_function_edit_restores_the_program() {
        let mut prog = lower(DIAMOND);
        let text = |p: &LoweredProgram| -> String {
            p.cfgs().iter().map(crate::pretty::cfg_to_string).collect()
        };
        let (before, order) = (text(&prog), prog.topo_order().to_vec());
        let ret = prog.by_name("d").unwrap().edges().next().unwrap().id;
        let call_main = Stmt::Call {
            lhs: None,
            callee: Symbol::new("main"),
            args: vec![],
        };
        let err = prog.relabel("d", ret, call_main).unwrap_err();
        assert!(matches!(err, CfgError::RecursiveCall(_)), "{err}");
        let block = crate::parser::parse_block("x = 1; return x;").unwrap();
        let err = prog.splice("d", ret, &block).unwrap_err();
        assert_eq!(err, CfgError::BlockNeverFallsThrough);
        assert!(matches!(
            prog.relabel("nope", ret, Stmt::Skip),
            Err(CfgError::UndefinedFunction(_))
        ));
        assert_eq!(text(&prog), before);
        assert_eq!(prog.topo_order(), order);
        assert_eq!(prog.call_graph_version(), 0);
        prog.by_name("d").unwrap().validate().unwrap();
        // The raw path keeps its contract: a failed refresh leaves the
        // index at the last good program, and the next one tries again.
        let call_nope = Stmt::Call {
            lhs: None,
            callee: Symbol::new("nope"),
            args: vec![],
        };
        let cfg = prog.by_name_mut("d").unwrap();
        crate::edit::relabel_edge(cfg, ret, call_nope).unwrap();
        for _ in 0..2 {
            assert_eq!(
                prog.refresh_call_graph(),
                Err(CfgError::UndefinedFunction(Symbol::new("nope")))
            );
        }
        assert_eq!(prog.topo_order(), order);
        let cfg = prog.by_name_mut("d").unwrap();
        crate::edit::relabel_edge(cfg, ret, Stmt::Skip).unwrap();
        prog.refresh_call_graph().unwrap();
        assert_eq!(prog.call_graph_version(), 0);
    }

    #[test]
    fn empty_function_body() {
        let prog = lower("function f() { }");
        let cfg = prog.by_name("f").unwrap();
        // Entry falls straight to exit via a skip edge.
        cfg.validate().unwrap();
        assert_eq!(cfg.edge_count(), 1);
    }

    #[test]
    fn edge_ids_are_stable_and_ordered() {
        let prog = lower("function f() { var a = 1; var b = 2; return a; }");
        let cfg = prog.by_name("f").unwrap();
        let ids: Vec<u32> = cfg.edges().map(|e| e.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }
    #[test]
    fn for_loop_lowers_to_while_core() {
        let prog = lower(
            "function f(n) { var s = 0; for (var i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
        );
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        assert_eq!(cfg.loop_heads().len(), 1, "for produces exactly one loop");
        let head = cfg.loop_heads()[0];
        // The update statement is inside the loop body (last before the
        // back edge).
        let back = cfg.back_edge(head).unwrap();
        assert_eq!(cfg.edge(back).unwrap().stmt.to_string(), "i = (i + 1)");
    }

    #[test]
    fn do_while_lowers_to_unrolled_body_plus_loop() {
        let prog = lower("function f() { var x = 0; do { x = x + 1; } while (x < 5); return x; }");
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        assert_eq!(cfg.loop_heads().len(), 1);
        // The body statement appears twice: the unrolled first run and the
        // loop copy (distinct CFG edges).
        let copies = cfg
            .edges()
            .filter(|e| e.stmt.to_string() == "x = (x + 1)")
            .count();
        assert_eq!(copies, 2);
    }

    #[test]
    fn nested_bare_blocks_add_no_structure() {
        let flat = lower("function f() { var x = 1; x = x + 1; return x; }");
        let nested = lower("function f() { { var x = 1; { x = x + 1; } } return x; }");
        let (a, b) = (flat.by_name("f").unwrap(), nested.by_name("f").unwrap());
        assert_eq!(a.loc_count(), b.loc_count(), "lexical blocks are free");
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn nested_for_loops_have_nested_contexts() {
        let prog = lower(
            "function f() { var t = 0; for (var i = 0; i < 3; i = i + 1) { for (var j = 0; j < 2; j = j + 1) { t = t + 1; } } return t; }",
        );
        let cfg = prog.by_name("f").unwrap();
        cfg.validate().unwrap();
        let heads = cfg.loop_heads();
        assert_eq!(heads.len(), 2);
        // One head encloses the other.
        let nested = heads.iter().any(|&h| cfg.enclosing_loops(h).len() == 1);
        assert!(nested, "inner for must sit inside the outer one");
    }
}
