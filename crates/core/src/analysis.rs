//! Per-function analysis state: a CFG paired with its DAIG, exposing
//! program edits and fixed-point-consistent location queries.

use crate::build::{
    add_edge_structure, add_join_comp, add_loc_cells, dest_name, entry_cell_name, initial_daig,
    rollback_loop, Overrides,
};
use crate::compile::{TransferMode, TransferTable};
use crate::edit::{dirty_from, dirty_from_ids, write_with_invalidation};
use crate::explain::ExplainSink;
use crate::graph::{Daig, DaigError, Value};
use crate::intern::CellId;
use crate::name::{IterCtx, Name};
use crate::query::{CallResolver, QueryStats};
use dai_domains::AbstractDomain;
use dai_lang::cfg::{Cfg, CfgError};
use dai_lang::edit::{relabel_edge, splice_block_on_edge, SpliceInfo};
use dai_lang::{Block, EdgeId, Loc, Stmt};
use dai_memo::MemoStore;

/// A function's CFG, its DAIG, and the entry state `φ₀`.
///
/// This is the paper's per-procedure analysis unit: queries demand values
/// (§5.1–5.2), edits dirty them (§5.3), and both keep the DAIG consistent
/// with the evolving CFG.
#[derive(Debug, Clone)]
pub struct FuncAnalysis<D: AbstractDomain> {
    cfg: Cfg,
    daig: Daig<D>,
    entry_state: D,
    /// How transfer edges are evaluated (see [`crate::compile`]).
    mode: TransferMode,
    /// The staged per-edge transfer table, present iff `mode` is
    /// [`TransferMode::Compiled`]. Kept in sync with CFG edits by
    /// [`FuncAnalysis::relabel`]/[`FuncAnalysis::splice`]; stale entries
    /// are additionally fail-safe via the digest guard in
    /// [`TransferTable::lookup`].
    transfers: Option<TransferTable<D>>,
}

impl<D: AbstractDomain> FuncAnalysis<D> {
    /// Builds the initial DAIG for `cfg` with entry state `φ₀` under the
    /// paper's default strategy.
    pub fn new(cfg: Cfg, phi0: D) -> FuncAnalysis<D> {
        FuncAnalysis::with_strategy(cfg, phi0, crate::strategy::FixStrategy::PAPER)
    }

    /// Builds the initial DAIG for `cfg` with entry state `φ₀` under the
    /// given loop-head iteration strategy (see [`crate::strategy`]).
    pub fn with_strategy(
        cfg: Cfg,
        phi0: D,
        strategy: crate::strategy::FixStrategy,
    ) -> FuncAnalysis<D> {
        FuncAnalysis::with_config(cfg, phi0, strategy, TransferMode::default())
    }

    /// Builds the initial DAIG for `cfg` with entry state `φ₀` under the
    /// given strategy and transfer-evaluation mode.
    pub fn with_config(
        cfg: Cfg,
        phi0: D,
        strategy: crate::strategy::FixStrategy,
        mode: TransferMode,
    ) -> FuncAnalysis<D> {
        let mut daig = initial_daig(&cfg, phi0.clone());
        daig.set_strategy(strategy);
        let transfers = match mode {
            TransferMode::Compiled => Some(TransferTable::build(&cfg)),
            TransferMode::Interp => None,
        };
        FuncAnalysis {
            cfg,
            daig,
            entry_state: phi0,
            mode,
            transfers,
        }
    }

    /// Reassembles an analysis unit from restored parts (the persistence
    /// path: `dai-persist` decodes the DAIG, the session layer replays the
    /// CFG from source + edit history). The caller is responsible for the
    /// parts belonging together — `daig` must be a DAIG *of* `cfg` (its
    /// statement cells hold `cfg`'s edge labels) in a Definition 4.1
    /// well-formed state; `dai-engine` validates both before installing a
    /// restored unit and falls back to a cold rebuild otherwise.
    ///
    /// The transfer table is not persisted (it holds closures); it is
    /// restaged from the restored CFG under the default mode. Use
    /// [`FuncAnalysis::set_transfer_mode`] to switch afterwards.
    pub fn from_parts(cfg: Cfg, daig: Daig<D>, entry_state: D) -> FuncAnalysis<D> {
        let transfers = Some(TransferTable::build(&cfg));
        FuncAnalysis {
            cfg,
            daig,
            entry_state,
            mode: TransferMode::Compiled,
            transfers,
        }
    }

    /// The transfer-evaluation mode in effect.
    pub fn transfer_mode(&self) -> TransferMode {
        self.mode
    }

    /// Switches transfer evaluation between staged and interpreted.
    /// Safe at any time: both modes are bit-identical on every value, so
    /// filled cells and memo entries stay valid.
    pub fn set_transfer_mode(&mut self, mode: TransferMode) {
        if mode == self.mode {
            return;
        }
        self.mode = mode;
        self.transfers = match mode {
            TransferMode::Compiled => Some(TransferTable::build(&self.cfg)),
            TransferMode::Interp => None,
        };
    }

    /// The staged transfer table, when running compiled.
    pub fn transfers(&self) -> Option<&TransferTable<D>> {
        self.transfers.as_ref()
    }

    /// The underlying CFG.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The underlying DAIG.
    pub fn daig(&self) -> &Daig<D> {
        &self.daig
    }

    /// Mutable access to the DAIG, for cross-DAIG dirtying. Callers must
    /// preserve Definition 4.1 well-formedness; writing anything other
    /// than the result of the cell's own computation breaks from-scratch
    /// consistency.
    pub fn daig_mut(&mut self) -> &mut Daig<D> {
        &mut self.daig
    }

    /// The current entry state `φ₀`.
    pub fn entry_state(&self) -> &D {
        &self.entry_state
    }

    /// Replaces the entry state, dirtying downstream results (an edit to
    /// the `φ₀` cell — how the interprocedural layer feeds callee entry
    /// joins).
    pub fn set_entry_state(&mut self, phi0: D) {
        if phi0 == self.entry_state {
            return;
        }
        self.entry_state = phi0.clone();
        let ec = entry_cell_name(&self.cfg);
        write_with_invalidation(&mut self.daig, &ec, Value::State(phi0));
    }

    /// Replaces the statement on `edge` (in-place program edit).
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::NoSuchEdge`] for unknown edges.
    pub fn relabel(&mut self, edge: EdgeId, stmt: Stmt) -> Result<(), CfgError> {
        relabel_edge(&mut self.cfg, edge, stmt.clone())?;
        if let Some(t) = &mut self.transfers {
            t.relabel(edge, &stmt);
        }
        write_with_invalidation(&mut self.daig, &Name::Stmt(edge), Value::Stmt(stmt));
        Ok(())
    }

    /// Deletes the statement on `edge` (relabels it to `skip`).
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::NoSuchEdge`] for unknown edges.
    pub fn delete(&mut self, edge: EdgeId) -> Result<(), CfgError> {
        self.relabel(edge, Stmt::Skip)
    }

    /// Splices `block` onto `edge` (the §7.3 insertion edit): the moved
    /// edge keeps its statement cell, downstream cells are dirtied, and
    /// enclosing loops roll back via the dirtying pass.
    ///
    /// # Errors
    ///
    /// Propagates [`CfgError`]s from the CFG splice.
    pub fn splice(&mut self, edge: EdgeId, block: &Block) -> Result<SpliceInfo, CfgError> {
        let info = splice_block_on_edge(&mut self.cfg, edge, block)?;
        let ov = Overrides::new();
        // A `while` at the start of the block turns the insertion point —
        // an existing location — into a loop head; its cells must be
        // restructured (plain state cell becomes the fix cell, in-edges
        // re-target the 0th iterate).
        let promoted: Vec<Loc> = info
            .new_loop_heads
            .iter()
            .copied()
            .filter(|h| !info.new_locs.contains(h))
            .collect();
        // A new forward edge into any other *existing* location (a spliced
        // `return` into the exit) makes it a join, or a wider one: its old
        // in-edges must write pre-join cells and one `⊔` edge read them all.
        let mut joined: Vec<Loc> = Vec::new();
        for &e in &info.new_edges {
            let dst = self.cfg.edge(e).expect("new edge exists").dst;
            let handled = info.new_locs.contains(&dst) || promoted.contains(&dst);
            if !self.cfg.is_back_edge(e) && !handled && !joined.contains(&dst) {
                joined.push(dst);
            }
        }
        let mut reshaped = self.invalidate_reshaped_loops(&info, &promoted);
        for &h in &promoted {
            let ctx = crate::build::iter_ctx(&self.cfg, h, &ov);
            let old_cell = Name::State {
                loc: h,
                ctx: ctx.clone(),
            };
            dirty_from(&mut self.daig, vec![old_cell]);
            // Pre-join cells of the promoted head carried the old context;
            // they are superseded by freshly named ones below.
            for e in self.cfg.fwd_in_edges(h) {
                let stale = Name::PreJoin {
                    edge: e,
                    ctx: ctx.clone(),
                };
                if self.daig.contains(&stale) {
                    self.daig.remove_cell(&stale);
                }
            }
        }
        // Dirty the moved edge's destination cell (its pre-state source is
        // about to change); this also rolls back enclosing loops when the
        // wave reaches their fix cells.
        let dest = self.moved_edge_dest(edge);
        let joined_cells = joined.iter().map(|&l| dest_name(&self.cfg, l, &ov));
        dirty_from(&mut self.daig, joined_cells.chain([dest]).collect());
        // A reshaped loop the waves did not reach (the spliced region leaves
        // the loop without reaching its back edge) would keep iterations
        // `≥ 1` that lack the new cells: roll it back as well.
        reshaped.retain(|&fix| self.daig.unrolled_blocks(fix) > 0);
        dirty_from_ids(&mut self.daig, reshaped);
        // Install the structure for the inserted region (iteration 0).
        for &l in info.new_locs.iter().chain(&promoted) {
            add_loc_cells(&mut self.daig, &self.cfg, l, &ov);
        }
        for &e in &info.new_edges {
            let edge_ref = self.cfg.edge(e).expect("new edge exists");
            add_edge_structure(&mut self.daig, &self.cfg, edge_ref, &ov);
        }
        // In-edges of promoted heads re-target the 0th iterate; those of a
        // new or widened join, its pre-join cells.
        for &h in promoted.iter().chain(&joined) {
            for &e in self.cfg.fwd_in(h) {
                let edge_ref = self.cfg.edge(e).expect("edge exists");
                add_edge_structure(&mut self.daig, &self.cfg, edge_ref, &ov);
            }
        }
        for &l in info.new_locs.iter().chain(&promoted).chain(&joined) {
            add_join_comp(&mut self.daig, &self.cfg, l, &ov);
        }
        // Re-point the moved edge's computation at its new source.
        let moved = self.cfg.edge(edge).expect("moved edge exists");
        add_edge_structure(&mut self.daig, &self.cfg, moved, &ov);
        // A promoted entry re-seeds φ₀ into its 0th iterate.
        if promoted.contains(&self.cfg.entry()) {
            let ec = entry_cell_name(&self.cfg);
            self.daig.write(&ec, Value::State(self.entry_state.clone()));
        }
        // Restage transfers for the respliced region (new edges, and the
        // moved edge whose id now labels a different statement). A splice
        // only adds and moves edges, so targeted staging suffices — and
        // keeps the staging cost proportional to the edit instead of
        // re-digesting the whole function.
        if let Some(t) = &mut self.transfers {
            t.sync_edges(
                &self.cfg,
                info.new_edges.iter().copied().chain(std::iter::once(edge)),
            );
        }
        Ok(info)
    }

    /// Tells the DAIG which loops a splice reshaped, so that what they
    /// unrolled under the old shape is not replayed: every loop whose
    /// natural body gained the spliced region — those enclosing a new
    /// location, a promoted head or the moved edge's destination (the
    /// moved edge reads a new source in every iteration of them), and the
    /// destination itself when the moved edge is its back edge. Loops
    /// elsewhere in the function keep their parked iterations. Returns the
    /// reshaped loops' unrolled instances (by fixed-point cell).
    fn invalidate_reshaped_loops(&mut self, info: &SpliceInfo, promoted: &[Loc]) -> Vec<CellId> {
        let mut reshaped: Vec<Loc> = Vec::new();
        for &l in info.new_locs.iter().chain(promoted).chain([&info.dst]) {
            for &h in self.cfg.enclosing_chain(l) {
                if !reshaped.contains(&h) {
                    reshaped.push(h);
                }
            }
        }
        if self.cfg.is_back_edge(info.edge) && !reshaped.contains(&info.dst) {
            reshaped.push(info.dst);
        }
        if reshaped.is_empty() {
            return Vec::new();
        }
        self.daig.invalidate_loops(&reshaped)
    }

    /// The destination cell of `edge`'s transfer at iteration 0.
    fn moved_edge_dest(&self, edge: EdgeId) -> Name {
        let ov = Overrides::new();
        let e = self.cfg.edge(edge).expect("edge exists");
        if self.cfg.is_back_edge(edge) {
            let ctx = crate::build::iter_ctx(&self.cfg, e.dst, &ov);
            Name::PreWiden {
                head: e.dst,
                ctx: ctx.push(e.dst, 0),
            }
        } else if self.cfg.is_join(e.dst) {
            let ctx = match dest_name(&self.cfg, e.dst, &ov) {
                Name::State { ctx, .. } => ctx,
                _ => unreachable!("dest_name returns a state name"),
            };
            Name::PreJoin { edge, ctx }
        } else {
            dest_name(&self.cfg, e.dst, &ov)
        }
    }

    /// Dirties every analysis result (the paper's demand-driven-only
    /// configuration "dirties the full DAIG after each edit"): unrolled
    /// loops are rolled back, all state cells emptied, and `φ₀` re-seeded.
    pub fn dirty_everything(&mut self) {
        // Roll every unrolled loop instance back to its initial structure,
        // outermost first (an enclosing rollback takes nested ones along).
        for fix in self.daig.unrolled_loops() {
            rollback_loop(&mut self.daig, fix);
        }
        self.daig.clear_states();
        let ec = entry_cell_name(&self.cfg);
        self.daig.write(&ec, Value::State(self.entry_state.clone()));
    }

    /// Replaces the entry state and drops every result in one pass:
    /// [`FuncAnalysis::set_entry_state`] then
    /// [`FuncAnalysis::dirty_everything`], without the dirtying walk the
    /// first would spend on cells the second empties anyway.
    pub(crate) fn reset(&mut self, phi0: D) {
        self.entry_state = phi0;
        self.dirty_everything();
    }

    /// Demands every cell in `targets`, in order, through the one Fig. 8
    /// evaluator (see [`crate::query`]): on success each target holds a
    /// value. A batch applies cells in exactly the order
    /// sequential one-target evaluations would; a supplied `sink` receives
    /// one cost record per counter bump (see [`crate::explain`]).
    ///
    /// # Errors
    ///
    /// [`DaigError::NoSuchCell`] if a target is not in the DAIG's
    /// namespace; [`DaigError::Invariant`] on internal inconsistency or
    /// divergence.
    pub fn evaluate(
        &mut self,
        targets: &[Name],
        memo: &mut dyn MemoStore<Value<D>>,
        resolver: &mut dyn CallResolver<D>,
        stats: &mut QueryStats,
        sink: Option<&mut ExplainSink>,
    ) -> Result<(), DaigError> {
        let ids = targets
            .iter()
            .map(|t| self.cell_id(t))
            .collect::<Result<Vec<CellId>, DaigError>>()?;
        self.evaluate_ids(&ids, memo, resolver, stats, sink)
    }

    fn cell_id(&self, n: &Name) -> Result<CellId, DaigError> {
        self.daig
            .id_of(n)
            .ok_or_else(|| DaigError::NoSuchCell(n.to_string()))
    }

    fn evaluate_ids(
        &mut self,
        targets: &[CellId],
        memo: &mut dyn MemoStore<Value<D>>,
        resolver: &mut dyn CallResolver<D>,
        stats: &mut QueryStats,
        sink: Option<&mut ExplainSink>,
    ) -> Result<(), DaigError> {
        crate::query::evaluate(
            &mut self.daig,
            &self.cfg,
            self.transfers.as_ref(),
            targets,
            memo,
            resolver,
            stats,
            sink,
        )
    }

    /// Queries the raw cell named `n`.
    ///
    /// # Errors
    ///
    /// See [`FuncAnalysis::evaluate`].
    pub fn query_name(
        &mut self,
        memo: &mut dyn MemoStore<Value<D>>,
        n: &Name,
        resolver: &mut dyn CallResolver<D>,
        stats: &mut QueryStats,
    ) -> Result<Value<D>, DaigError> {
        let id = self.cell_id(n)?;
        self.evaluate_ids(&[id], memo, resolver, stats, None)?;
        Ok(self.daig.value_id(id).expect("evaluated").clone())
    }

    /// Queries the fixed-point-consistent abstract state at a program
    /// location: for each enclosing loop (outermost first) the fixed point
    /// is demanded, and the body cell of the last (converged) iteration is
    /// returned — which equals the batch invariant at that location
    /// (Theorem 6.1).
    ///
    /// # Errors
    ///
    /// [`DaigError::NoSuchCell`] for locations not in the CFG; otherwise
    /// see [`FuncAnalysis::evaluate`].
    pub fn query_loc(
        &mut self,
        memo: &mut dyn MemoStore<Value<D>>,
        loc: Loc,
        resolver: &mut dyn CallResolver<D>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        let name = self.resolve_loc_name(memo, loc, resolver, stats)?;
        let id = self.cell_id(&name)?;
        self.evaluate_ids(&[id], memo, resolver, stats, None)?;
        self.daig
            .value_id(id)
            .and_then(Value::as_state)
            .cloned()
            .ok_or_else(|| DaigError::Invariant(format!("location cell {name} holds a statement")))
    }

    /// Demands enclosing fixed points and resolves the name of the
    /// fixed-point-consistent cell at `loc`.
    fn resolve_loc_name(
        &mut self,
        memo: &mut dyn MemoStore<Value<D>>,
        loc: Loc,
        resolver: &mut dyn CallResolver<D>,
        stats: &mut QueryStats,
    ) -> Result<Name, DaigError> {
        resolve_loc_cell(self, loc, |fa, cell| {
            let id = fa.cell_id(cell)?;
            fa.evaluate_ids(&[id], memo, resolver, stats, None)
        })
    }

    /// Queries the abstract state at the function's exit.
    ///
    /// # Errors
    ///
    /// See [`FuncAnalysis::query_loc`].
    pub fn query_exit(
        &mut self,
        memo: &mut dyn MemoStore<Value<D>>,
        resolver: &mut dyn CallResolver<D>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.query_loc(memo, self.cfg.exit(), resolver, stats)
    }

    /// Evaluates every cell (exhaustive configurations).
    ///
    /// # Errors
    ///
    /// See [`FuncAnalysis::evaluate`].
    pub fn evaluate_all(
        &mut self,
        memo: &mut dyn MemoStore<Value<D>>,
        resolver: &mut dyn CallResolver<D>,
        stats: &mut QueryStats,
    ) -> Result<(), DaigError> {
        crate::query::evaluate_all(
            &mut self.daig,
            &self.cfg,
            self.transfers.as_ref(),
            memo,
            resolver,
            stats,
        )
    }
}

/// One non-evaluating step of the fix-chain walk: either `loc`'s
/// fixed-point-consistent cell is resolvable right now (every enclosing
/// loop's fixed point is already converged), or the walk is blocked on
/// the outermost *unconverged* fix cell, which the caller must demand
/// before retrying.
///
/// This is the batching counterpart of [`resolve_loc_cell`]: where the
/// demanding walk evaluates each enclosing fixed point as it descends,
/// the frontier form lets a caller collect the blocking fix cells of
/// *many* locations first and demand them in one multi-target
/// [`FuncAnalysis::evaluate`] (`dai_engine`'s coalesced query batches do
/// exactly that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocResolution {
    /// The fixed-point-consistent cell at the queried location.
    Resolved(Name),
    /// The outermost enclosing fix cell that has not converged yet; the
    /// caller must demand it (filling it) and retry the walk.
    NeedsFix(Name),
}

/// Walks `loc`'s enclosing-loop chain without demanding anything; see
/// [`LocResolution`].
///
/// # Errors
///
/// [`DaigError::NoSuchCell`] if the fully resolved location cell is not in
/// the DAIG; [`DaigError::Invariant`] if the chain structure is broken.
pub fn resolve_loc_frontier<D: AbstractDomain>(
    fa: &FuncAnalysis<D>,
    loc: Loc,
) -> Result<LocResolution, DaigError> {
    let chain = fa.cfg.enclosing_loops(loc);
    let mut sigma = IterCtx::root();
    for h in chain {
        let fix_cell = Name::State {
            loc: h,
            ctx: sigma.clone(),
        };
        // Id-level walk: resolve the fix cell once, then read its source
        // ids and their interned names in place — this runs once per
        // location per evaluation round of a `dai-engine` batch, so it
        // must not clone the computation's source names each time.
        let fix_id = fa
            .daig
            .id_of(&fix_cell)
            .filter(|&id| fa.daig.comp_srcs(id).is_some())
            .ok_or_else(|| DaigError::Invariant(format!("loop head {h} has no fix computation")))?;
        if fa.daig.value_id(fix_id).is_none() {
            return Ok(LocResolution::NeedsFix(fix_cell));
        }
        let srcs = fa.daig.comp_srcs(fix_id).expect("checked above");
        let (hd, k_prev) = fa
            .daig
            .name_of(srcs[0])
            .ctx()
            .and_then(|c| c.last())
            .ok_or_else(|| DaigError::Invariant(format!("bad fix source at {h}")))?;
        debug_assert_eq!(hd, h);
        sigma = sigma.push(h, k_prev);
    }
    let name = Name::State { loc, ctx: sigma };
    if !fa.daig.contains(&name) {
        return Err(DaigError::NoSuchCell(name.to_string()));
    }
    Ok(LocResolution::Resolved(name))
}

/// Resolves the name of the fixed-point-consistent cell at `loc`,
/// demanding each enclosing loop's fixed point (outermost first) through
/// `demand` — the one place the demanding fix-chain walk is encoded
/// ([`FuncAnalysis::query_loc`] runs it; [`resolve_loc_frontier`] is its
/// non-demanding counterpart).
///
/// `demand(fa, cell)` must leave `cell` filled on success.
///
/// # Errors
///
/// [`DaigError::NoSuchCell`] if `loc` has no cell in the resolved
/// iteration context; otherwise whatever `demand` reports.
pub fn resolve_loc_cell<D, F>(
    fa: &mut FuncAnalysis<D>,
    loc: Loc,
    mut demand: F,
) -> Result<Name, DaigError>
where
    D: AbstractDomain,
    F: FnMut(&mut FuncAnalysis<D>, &Name) -> Result<(), DaigError>,
{
    let chain = fa.cfg.enclosing_loops(loc);
    let mut sigma = IterCtx::root();
    for h in chain {
        let fix_cell = Name::State {
            loc: h,
            ctx: sigma.clone(),
        };
        demand(fa, &fix_cell)?;
        let srcs = fa
            .daig
            .id_of(&fix_cell)
            .and_then(|id| fa.daig.comp_srcs(id))
            .ok_or_else(|| DaigError::Invariant(format!("loop head {h} has no fix computation")))?;
        let (hd, k_prev) = fa
            .daig
            .name_of(srcs[0])
            .ctx()
            .and_then(|c| c.last())
            .ok_or_else(|| DaigError::Invariant(format!("bad fix source at {h}")))?;
        debug_assert_eq!(hd, h);
        sigma = sigma.push(h, k_prev);
    }
    let name = Name::State { loc, ctx: sigma };
    if !fa.daig.contains(&name) {
        return Err(DaigError::NoSuchCell(name.to_string()));
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::IntraResolver;
    use dai_domains::interval::Interval;
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::{parse_block, parse_program};
    use dai_memo::MemoTable;

    type D = IntervalDomain;

    fn analysis(src: &str) -> FuncAnalysis<D> {
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        FuncAnalysis::new(cfg, IntervalDomain::top())
    }

    fn exit_state(fa: &mut FuncAnalysis<D>) -> D {
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap()
    }

    #[test]
    fn straightline_query() {
        let mut fa = analysis("function f() { var x = 1; x = x + 2; return x; }");
        let s = exit_state(&mut fa);
        assert_eq!(s.interval_of(dai_lang::RETURN_VAR), Interval::constant(3));
    }

    #[test]
    fn branch_join_query() {
        let mut fa = analysis(
            "function f(c) { var x = 0; if (c > 0) { x = 1; } else { x = 9; } return x; }",
        );
        let s = exit_state(&mut fa);
        assert_eq!(s.interval_of("x"), Interval::of(1, 9));
    }

    #[test]
    fn loop_fixpoint_with_widening() {
        let mut fa =
            analysis("function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }");
        let s = exit_state(&mut fa);
        // After the loop: i >= 10 (exit guard refines the widened [0, +inf]).
        let iv = s.interval_of("i");
        assert!(iv.contains(10));
        assert!(!iv.contains(9), "exit guard must exclude i < 10, got {iv}");
    }

    #[test]
    fn query_loc_inside_loop_is_fixpoint_consistent() {
        let mut fa =
            analysis("function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }");
        let head = fa.cfg().loop_heads()[0];
        // Body location right after the loop guard.
        let guard_edge = fa
            .cfg()
            .out_edges(head)
            .iter()
            .map(|&e| fa.cfg().edge(e).unwrap().clone())
            .find(|e| e.stmt.to_string().contains('<'))
            .unwrap();
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let body_state = fa
            .query_loc(&mut memo, guard_edge.dst, &mut IntraResolver, &mut stats)
            .unwrap();
        // At the fixpoint, inside the loop body: 0 <= i <= 9.
        let iv = body_state.interval_of("i");
        assert!(iv.contains(0) && iv.contains(9) && !iv.contains(10), "{iv}");
    }

    #[test]
    fn relabel_then_requery_reflects_edit() {
        let mut fa = analysis("function f() { var x = 1; return x; }");
        assert_eq!(exit_state(&mut fa).interval_of("x"), Interval::constant(1));
        let e0 = fa.cfg().edges().next().unwrap().id;
        fa.relabel(
            e0,
            Stmt::Assign("x".into(), dai_lang::parse_expr("41").unwrap()),
        )
        .unwrap();
        assert_eq!(exit_state(&mut fa).interval_of("x"), Interval::constant(41));
    }

    #[test]
    fn splice_then_requery_like_fig4b() {
        let mut fa = analysis("function f() { var x = 1; return x; }");
        let _ = exit_state(&mut fa);
        let ret_edge = fa
            .cfg()
            .edges()
            .find(|e| e.stmt.to_string().contains("__ret"))
            .unwrap()
            .id;
        fa.splice(ret_edge, &parse_block("x = x + 10;").unwrap())
            .unwrap();
        fa.daig().check_well_formed().unwrap();
        assert_eq!(exit_state(&mut fa).interval_of("x"), Interval::constant(11));
    }

    #[test]
    fn splice_into_loop_body() {
        let mut fa =
            analysis("function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }");
        let before = exit_state(&mut fa);
        assert!(!before.interval_of("i").contains(9));
        let head = fa.cfg().loop_heads()[0];
        let back = fa.cfg().back_edge(head).unwrap();
        // Insert a second increment before the back edge statement.
        fa.splice(back, &parse_block("i = i + 1;").unwrap())
            .unwrap();
        fa.daig().check_well_formed().unwrap();
        let after = exit_state(&mut fa);
        // i now increases by 2 per iteration: still converges, exit i >= 10.
        assert!(after.interval_of("i").contains(10) || after.interval_of("i").contains(11));
    }

    #[test]
    fn splice_while_into_straightline() {
        let mut fa = analysis("function f() { var x = 0; return x; }");
        let _ = exit_state(&mut fa);
        let ret_edge = fa
            .cfg()
            .edges()
            .find(|e| e.stmt.to_string().contains("__ret"))
            .unwrap()
            .id;
        fa.splice(
            ret_edge,
            &parse_block("while (x < 5) { x = x + 1; }").unwrap(),
        )
        .unwrap();
        fa.daig().check_well_formed().unwrap();
        let s = exit_state(&mut fa);
        assert!(s.interval_of("x").contains(5));
        assert!(!s.interval_of("x").contains(4));
    }

    #[test]
    fn incremental_reuse_preserves_upstream_results() {
        let mut fa =
            analysis("function f() { var a = 1; var b = 2; var c = 3; return a + b + c; }");
        let _ = exit_state(&mut fa);
        let filled_before = fa.daig().filled_count();
        // Edit the *last* assignment: upstream cells must stay filled.
        let c_edge = fa
            .cfg()
            .edges()
            .find(|e| e.stmt.to_string() == "c = 3")
            .unwrap()
            .id;
        fa.relabel(
            c_edge,
            Stmt::Assign("c".into(), dai_lang::parse_expr("4").unwrap()),
        )
        .unwrap();
        let filled_after_edit = fa.daig().filled_count();
        assert!(filled_after_edit >= filled_before - 3, "over-dirtied");
        assert!(filled_after_edit < filled_before, "nothing dirtied");
    }

    #[test]
    fn set_entry_state_dirties_everything_downstream() {
        let mut fa = analysis("function f(p) { var x = p; return x; }");
        let _ = exit_state(&mut fa);
        fa.set_entry_state(IntervalDomain::from_bindings([(
            "p".into(),
            dai_domains::interval::AbsVal::Num(Interval::of(5, 6)),
        )]));
        let s = exit_state(&mut fa);
        assert_eq!(s.interval_of("x"), Interval::of(5, 6));
    }

    #[test]
    fn dirty_everything_forces_recomputation_but_same_result() {
        let mut fa =
            analysis("function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }");
        let before = exit_state(&mut fa);
        fa.dirty_everything();
        fa.daig().check_well_formed().unwrap();
        let after = exit_state(&mut fa);
        assert_eq!(before, after);
    }

    #[test]
    fn splice_into_inner_body_invalidates_inner_and_outer_not_a_sibling_loop() {
        let mut fa = analysis(
            "function f(n) { var i = 0; while (i < 5) { var j = 0; while (j < 3) { j = j + 1; } i = i + 1; } \
             var k = 0; while (k < 4) { k = k + 1; } return k; }",
        );
        let heads = fa.cfg().loop_heads();
        let (outer, inner, sibling) = (heads[0], heads[1], heads[2]);
        assert_eq!(fa.cfg().enclosing_chain(inner), [outer]);
        assert!(fa.cfg().enclosing_chain(sibling).is_empty());
        let fix = |fa: &FuncAnalysis<D>, loc: Loc, ctx: IterCtx| {
            fa.daig().id_of(&Name::State { loc, ctx }).unwrap()
        };
        let (outer_fix, sibling_fix) = (
            fix(&fa, outer, IterCtx::root()),
            fix(&fa, sibling, IterCtx::root()),
        );
        let inner_fix = fix(&fa, inner, IterCtx::root().push(outer, 0));
        let parked = |fa: &FuncAnalysis<D>| {
            [outer_fix, inner_fix, sibling_fix].map(|f| fa.daig().parked_blocks(f))
        };
        let inner_back = fa.cfg().back_edge(inner).unwrap();
        let block = parse_block("j = j + 0;").unwrap();

        // Parked blocks of the reshaped loops are dropped; the sibling's
        // stay.
        let before = exit_state(&mut fa);
        fa.dirty_everything();
        assert_eq!(parked(&fa), [1, 1, 1]);
        fa.splice(inner_back, &block).unwrap();
        assert_eq!(parked(&fa), [0, 0, 1]);
        assert_eq!(exit_state(&mut fa), before);
        fa.daig().check_well_formed().unwrap();

        // Live blocks of the reshaped loops are dropped by the rollback the
        // splice causes, where the sibling's are parked.
        assert!(fa.daig().unrolled_blocks(sibling_fix) > 0);
        fa.splice(inner_back, &block).unwrap();
        assert_eq!(fa.daig().unrolled_loops(), []);
        assert_eq!(parked(&fa), [0, 0, 1]);
        assert_eq!(exit_state(&mut fa), before);
        fa.daig().check_well_formed().unwrap();
    }

    #[test]
    fn splice_the_wave_cannot_carry_to_the_fix_cell_still_rolls_the_loop_back() {
        // The `return` branch is lexically inside the loop but leaves it
        // without reaching the back edge, so dirtying from a splice there
        // never arrives at the loop's fixed-point cell.
        let mut fa = analysis(
            "function f() { var i = 0; var x = 0; while (i < 5) { if (i > 2) { x = 7; return x; } i = i + 1; } return i; }",
        );
        let _ = exit_state(&mut fa);
        let head = fa.cfg().loop_heads()[0];
        let fix = fa
            .daig()
            .id_of(&Name::State {
                loc: head,
                ctx: IterCtx::root(),
            })
            .unwrap();
        assert!(fa.daig().unrolled_blocks(fix) > 0);
        let in_branch = fa
            .cfg()
            .edges()
            .find(|e| e.stmt.to_string() == "x = 7")
            .unwrap()
            .id;
        let info = fa
            .splice(in_branch, &parse_block("x = x + 1;").unwrap())
            .unwrap();
        assert_eq!(fa.daig().unrolled_blocks(fix), 0);
        fa.daig().check_well_formed().unwrap();
        // The new location is queryable at the fixed point: re-unrolling
        // builds it at every iteration.
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        fa.query_loc(&mut memo, info.new_locs[0], &mut IntraResolver, &mut stats)
            .unwrap();
    }

    #[test]
    fn rejected_splice_leaves_cfg_and_daig_as_they_were() {
        let mut fa = analysis("function f() { var x = 1; x = x + 1; return x; }");
        let before = exit_state(&mut fa);
        let text = dai_lang::pretty::cfg_to_string(fa.cfg());
        let cells = fa.daig().cell_count();
        let second = fa.cfg().edges().nth(1).unwrap().id;
        let err = fa.splice(second, &parse_block("x = 1; return x;").unwrap());
        assert_eq!(err.unwrap_err(), CfgError::BlockNeverFallsThrough);
        assert_eq!(dai_lang::pretty::cfg_to_string(fa.cfg()), text);
        fa.cfg().validate().unwrap();
        fa.daig().check_well_formed().unwrap();
        assert_eq!(fa.daig().cell_count(), cells);
        // Nothing was dirtied: the answer is read back, not recomputed.
        let mut stats = QueryStats::default();
        let after = fa
            .query_exit(&mut MemoTable::new(), &mut IntraResolver, &mut stats)
            .unwrap();
        assert_eq!(after, before);
        assert_eq!(stats.computed, 0);
    }

    #[test]
    fn query_missing_location_errors() {
        let mut fa = analysis("function f() { return 0; }");
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let err = fa
            .query_loc(&mut memo, Loc(424242), &mut IntraResolver, &mut stats)
            .unwrap_err();
        assert!(matches!(err, DaigError::NoSuchCell(_)));
    }
}
