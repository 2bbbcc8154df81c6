//! Demand-driven query evaluation (paper Fig. 8) with demanded unrolling
//! of fixed points (§5.2).
//!
//! The judgment `D, M ⊢ n ⇒ v ; D', M'` is realized by an explicit-stack
//! evaluator (so deep straight-line programs from the §7.3 generator cannot
//! overflow the call stack). Each step applies exactly one of the paper's
//! rules:
//!
//! * `Q-Reuse` — the cell already holds a value;
//! * `Q-Match` — all inputs evaluated and `f·(v₁⋯v_k)` is in the memo
//!   table: copy the memoized result into the cell;
//! * `Q-Miss` — compute `f(v₁, …, v_k)`, store it in the cell *and* the
//!   memo table;
//! * `Q-Loop-Converge` — a `fix` edge whose two iterate inputs are equal:
//!   the fixed point is reached and written;
//! * `Q-Loop-Unroll` — the iterates differ: unroll the loop one abstract
//!   iteration ([`crate::build::unroll_loop`]) and re-demand.
//!
//! Internally the evaluator walks interned [`CellId`]s (see
//! [`crate::intern`]); names only appear at the API boundary and in error
//! messages. Memo keys are built from the per-cell content digests the
//! graph caches at write time, so no abstract state is hashed more than
//! once after it is produced.
//!
//! Call statements are resolved through a [`CallResolver`] so the
//! interprocedural layer (paper §7.1) can evaluate callee DAIGs on demand;
//! call results are deliberately **not** memoized in `M`, because their
//! value depends on the callee's current program text, not only on the
//! argument values.

use crate::build::unroll_loop;
use crate::compile::TransferTable;
use crate::graph::{Daig, DaigError, Func, Value};
use crate::intern::CellId;
use crate::name::Name;
use dai_domains::AbstractDomain;
use dai_lang::cfg::Cfg;
use dai_lang::{EdgeId, Stmt};
use dai_memo::{KeyBuilder, MemoStore};

/// Resolves the abstract post-state of a call statement from the caller's
/// pre-state. The interprocedural layer implements this by demanding the
/// callee's exit; the intraprocedural default havocs via
/// [`AbstractDomain::transfer`]. The shared memo store and statistics are
/// threaded through so nested cross-DAIG queries reuse them.
pub trait CallResolver<D: AbstractDomain> {
    /// Computes the post-state of `stmt` (a call) on edge `edge` from
    /// `pre`.
    ///
    /// # Errors
    ///
    /// Returns a [`DaigError`] if demanding the callee fails.
    fn resolve(
        &mut self,
        pre: &D,
        stmt: &Stmt,
        edge: EdgeId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError>;
}

/// The intraprocedural resolver: treats calls with the domain's own
/// (conservative) transfer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntraResolver;

impl<D: AbstractDomain> CallResolver<D> for IntraResolver {
    fn resolve(
        &mut self,
        pre: &D,
        stmt: &Stmt,
        _edge: EdgeId,
        _memo: &mut dyn MemoStore<Value<D>>,
        _stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        Ok(pre.transfer(stmt))
    }
}

/// Counters describing the work a query performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Cells whose values were computed by applying an analysis function
    /// (`Q-Miss`).
    pub computed: u64,
    /// Cells filled from the memo table (`Q-Match`).
    pub memo_matched: u64,
    /// Cells that already held values when first demanded (`Q-Reuse`),
    /// counted per distinct demanded cell.
    pub reused: u64,
    /// Demanded loop unrollings (`Q-Loop-Unroll`).
    pub unrolls: u64,
    /// Fixed points written (`Q-Loop-Converge`).
    pub fix_converged: u64,
    /// Full demanded-cone traversals performed by a cone-maintaining
    /// scheduler (`dai_engine::scheduler::evaluate_targets`). With
    /// incremental cone maintenance this stays at one per evaluation call
    /// no matter how many times loops unroll; the sequential stack
    /// evaluator never counts it.
    pub cone_walks: u64,
    /// Cells loaded into a cone-maintaining scheduler's missing-input
    /// table (initial traversal plus unroll splices). For a multi-target
    /// evaluation this is the size of the *union* cone, which is what
    /// makes query coalescing measurable: a batch's union cone is at most
    /// as large as the sum of its members' solo cones. The sequential
    /// stack evaluator never counts it.
    pub cone_cells: u64,
    /// `Q-Miss` transfer computations evaluated through a staged
    /// [`TransferTable`] closure (see [`crate::compile`]).
    pub transfers_compiled: u64,
    /// `Q-Miss` transfer computations evaluated by the
    /// [`AbstractDomain::transfer`] interpreter — either because no table
    /// was supplied (interp mode), the statement has no compiled form
    /// (calls, unstaged domains), or a stale entry failed the digest
    /// guard.
    pub transfers_interp: u64,
}

impl QueryStats {
    /// Merges another stats record into this one.
    pub fn absorb(&mut self, other: QueryStats) {
        self.computed += other.computed;
        self.memo_matched += other.memo_matched;
        self.reused += other.reused;
        self.unrolls += other.unrolls;
        self.fix_converged += other.fix_converged;
        self.cone_walks += other.cone_walks;
        self.cone_cells += other.cone_cells;
        self.transfers_compiled += other.transfers_compiled;
        self.transfers_interp += other.transfers_interp;
    }

    /// The work between an `earlier` cumulative reading and this one
    /// (field-wise subtraction). Lives next to [`QueryStats::absorb`] so a
    /// new counter cannot be added to one without the other: the
    /// exhaustive destructuring below fails to compile if a field is
    /// missed.
    pub fn delta(&self, earlier: &QueryStats) -> QueryStats {
        let QueryStats {
            computed,
            memo_matched,
            reused,
            unrolls,
            fix_converged,
            cone_walks,
            cone_cells,
            transfers_compiled,
            transfers_interp,
        } = *self;
        QueryStats {
            computed: computed - earlier.computed,
            memo_matched: memo_matched - earlier.memo_matched,
            reused: reused - earlier.reused,
            unrolls: unrolls - earlier.unrolls,
            fix_converged: fix_converged - earlier.fix_converged,
            cone_walks: cone_walks - earlier.cone_walks,
            cone_cells: cone_cells - earlier.cone_cells,
            transfers_compiled: transfers_compiled - earlier.transfers_compiled,
            transfers_interp: transfers_interp - earlier.transfers_interp,
        }
    }
}

/// Upper bound on unrollings of a single loop instance, as a guard against
/// domains with broken widening; hitting it is reported as an invariant
/// violation rather than diverging. Shared with `dai-engine`'s cone
/// scheduler, so the two evaluators cannot drift.
pub const MAX_UNROLLS_PER_QUERY: u64 = 1_000_000;

/// The iterate index `k ≥ 1` a widen edge produces, read off its
/// destination name `ℓ⟨k⟩` (the strategy uses it to schedule `⊔` vs `∇`).
pub(crate) fn widen_dest_iterate(dest: &Name) -> Result<u32, DaigError> {
    match dest {
        Name::State { loc, ctx } => match ctx.last() {
            Some((head, k)) if head == *loc && k >= 1 => Ok(k),
            _ => Err(DaigError::Invariant(format!(
                "widen destination {dest} is not an iterate of its own head"
            ))),
        },
        other => Err(DaigError::Invariant(format!(
            "widen destination {other} is not a state cell"
        ))),
    }
}

/// Applies the ready computation for `dest`: exactly the `Q-Match`/`Q-Miss`
/// step of Fig. 8, and the one place it is implemented. Inputs are borrowed
/// directly from the graph — no input values are cloned — and the caller
/// writes the returned value into `dest`. The sequential [`query`] loop and
/// `dai-engine`'s cone scheduler both call this, which is what makes union
/// evaluation bit-identical to sequential evaluation: every cell value is
/// produced by this one function from the same inputs.
///
/// Transfers are evaluated through a staged [`TransferTable`] when one is
/// supplied (`None` interprets; the results are bit-identical either way,
/// see [`crate::compile`]).
///
/// # Errors
///
/// [`DaigError::Invariant`] if `dest` has no computation, the computation
/// is a `fix` edge (those are demands for convergence, not functions; see
/// [`fix_step_id`]), or any input is still empty; resolver failures and
/// input-typing violations are propagated.
pub fn apply_ready_at_with<D: AbstractDomain>(
    daig: &Daig<D>,
    dest: CellId,
    memo: &mut dyn MemoStore<Value<D>>,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
    transfers: Option<&TransferTable<D>>,
) -> Result<Value<D>, DaigError> {
    let comp = daig.comp_slot(dest).ok_or_else(|| {
        DaigError::Invariant(format!("cell {} has no computation", daig.name_of(dest)))
    })?;
    if comp.func == Func::Fix {
        return Err(DaigError::Invariant(format!(
            "fix edge at {} cannot be applied as a ready computation",
            daig.name_of(dest)
        )));
    }
    // Every source must be filled before any is looked at more closely;
    // after that they are read in place, cell by cell.
    for &s in &comp.srcs {
        if daig.value_id(s).is_none() {
            return Err(DaigError::Invariant(format!(
                "{} input {} is empty",
                daig.name_of(dest),
                daig.name_of(s)
            )));
        }
    }
    let input = |s: CellId| daig.value_id(s).expect("checked above");
    let digest = |s: CellId| daig.digest_id(s).expect("filled cells have digests");
    let dest = daig.name_of(dest);
    if comp.func == Func::Transfer {
        let (stmt_cell, pre_cell) = (comp.srcs[0], comp.srcs[1]);
        let stmt = input(stmt_cell)
            .as_stmt()
            .ok_or_else(|| DaigError::Invariant(format!("transfer for {dest} has no statement")))?;
        let pre = input(pre_cell)
            .as_state()
            .ok_or_else(|| DaigError::Invariant(format!("transfer for {dest} has no pre-state")))?;
        // The CFG edge whose statement cell is argument 0: calls resolve
        // against it, staged closures are looked up by it.
        let edge = match daig.name_of(stmt_cell) {
            Name::Stmt(e) => *e,
            other => {
                return Err(DaigError::Invariant(format!(
                    "transfer stmt source {other} is not a statement cell"
                )));
            }
        };
        if let Stmt::Call { .. } = stmt {
            // Calls: resolve through the interprocedural layer and do
            // not memoize (the result depends on the callee's current
            // body).
            stats.computed += 1;
            Ok(Value::State(
                resolver.resolve(pre, stmt, edge, memo, stats)?,
            ))
        } else {
            let key = KeyBuilder::new(Func::Transfer.memo_symbol())
                .push_digest(digest(stmt_cell))
                .push_digest(digest(pre_cell))
                .finish();
            match memo.fetch(key) {
                Some(v) => {
                    stats.memo_matched += 1;
                    dai_trace::event!("core.memo_hit");
                    Ok(v)
                }
                None => {
                    // The statement cell's content digest is exactly
                    // what the table's staleness guard wants. A stale or
                    // missing entry falls back to the interpreter; both
                    // paths are bit-identical by the
                    // `dai_domains::compile` contract.
                    let staged = transfers.and_then(|t| t.lookup(edge, digest(stmt_cell)));
                    let post = match staged {
                        Some(ct) => {
                            stats.transfers_compiled += 1;
                            ct.apply(pre)
                        }
                        None => {
                            stats.transfers_interp += 1;
                            pre.transfer(stmt)
                        }
                    };
                    let v = Value::State(post);
                    memo.record(key, v.clone());
                    stats.computed += 1;
                    dai_trace::event!("core.memo_miss");
                    Ok(v)
                }
            }
        }
    } else {
        // `Join` or `Widen`.
        if comp.srcs.iter().any(|&s| input(s).as_state().is_none()) {
            return Err(DaigError::Invariant(format!("{dest} input is not a state")));
        }
        let mut states = comp
            .srcs
            .iter()
            .map(|&s| input(s).as_state().expect("checked above"));
        // The operator a widen edge applies depends on the strategy
        // and on which iterate it produces (delayed widening joins
        // early iterations); the memo key uses the symbol of the
        // operator actually applied, so a delayed widen shares
        // entries with genuine joins.
        let strategy = daig.strategy();
        let iterate = if comp.func == Func::Widen {
            Some(widen_dest_iterate(dest)?)
        } else {
            None
        };
        let symbol = match iterate {
            Some(k) => strategy.combine_symbol(k),
            None => Func::Join.memo_symbol(),
        };
        let key = comp
            .srcs
            .iter()
            .fold(KeyBuilder::new(symbol), |kb, &s| kb.push_digest(digest(s)))
            .finish();
        match memo.fetch(key) {
            Some(v) => {
                stats.memo_matched += 1;
                dai_trace::event!("core.memo_hit");
                Ok(v)
            }
            None => {
                dai_trace::event!("core.memo_miss");
                let first = states.next().expect("join arity >= 2");
                let out = match iterate {
                    None => states.fold(first.clone(), |acc, s| acc.join(s)),
                    Some(k) => strategy.combine(k, first, states.next().expect("widen arity 2")),
                };
                let v = Value::State(out);
                memo.record(key, v.clone());
                stats.computed += 1;
                Ok(v)
            }
        }
    }
}

/// The outcome of resolving one `fix` edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixOutcome {
    /// The iterates agreed: the fixed point was written
    /// (`Q-Loop-Converge`).
    Converged,
    /// The loop was unrolled one abstract iteration (`Q-Loop-Unroll`).
    /// `spliced` lists every cell the unroll added or re-pointed —
    /// including the fix cell itself — so cone-maintaining schedulers can
    /// patch their ready-counts for exactly this subgraph instead of
    /// re-traversing the demanded cone.
    Unrolled {
        /// Structurally changed cells, deduplicated.
        spliced: Vec<CellId>,
    },
}

impl FixOutcome {
    /// Did the fixed point converge?
    pub fn converged(&self) -> bool {
        matches!(self, FixOutcome::Converged)
    }
}

/// Resolves one `fix` edge whose two iterate inputs are filled: either the
/// iterates agree under the strategy's convergence test and the fixed
/// point is written (`Q-Loop-Converge`), or the loop is unrolled one more
/// abstract iteration (`Q-Loop-Unroll`, reporting the spliced cells) and
/// the caller must re-demand the (new) inputs.
///
/// # Errors
///
/// [`DaigError::Invariant`] if `dest` is not a fix destination with filled
/// state inputs.
pub fn fix_step_id<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    dest: CellId,
    stats: &mut QueryStats,
) -> Result<FixOutcome, DaigError> {
    let (src0, src1) = {
        let comp = daig.comp_slot(dest).ok_or_else(|| {
            DaigError::Invariant(format!("cell {} has no computation", daig.name_of(dest)))
        })?;
        if comp.func != Func::Fix {
            return Err(DaigError::Invariant(format!(
                "{} is not a fix cell",
                daig.name_of(dest)
            )));
        }
        (comp.srcs[0], comp.srcs[1])
    };
    let v0 = daig.value_id(src0).ok_or_else(|| {
        DaigError::Invariant(format!("fix at {} input 0 empty", daig.name_of(dest)))
    })?;
    let v1 = daig.value_id(src1).ok_or_else(|| {
        DaigError::Invariant(format!("fix at {} input 1 empty", daig.name_of(dest)))
    })?;
    let converged = match (v0.as_state(), v1.as_state()) {
        (Some(older), Some(newer)) => daig.strategy().converged(older, newer),
        _ => {
            return Err(DaigError::Invariant(format!(
                "fix at {} reads non-state iterates",
                daig.name_of(dest)
            )));
        }
    };
    if converged {
        // Q-Loop-Converge: the older iterate is the (post-) fixed point;
        // under `=` convergence the two coincide.
        let v0 = v0.clone();
        daig.write_id(dest, v0);
        stats.fix_converged += 1;
        return Ok(FixOutcome::Converged);
    }
    // Q-Loop-Unroll.
    let head = match daig.name_of(dest) {
        Name::State { loc, .. } => *loc,
        other => {
            return Err(DaigError::Invariant(format!(
                "fix destination {other} is not a state cell"
            )));
        }
    };
    let k = match daig.name_of(src1).ctx().and_then(|c| c.last()) {
        Some((h, k)) if h == head => k,
        _ => {
            return Err(DaigError::Invariant(format!(
                "fix source {} is not an iterate of {head}",
                daig.name_of(src1)
            )));
        }
    };
    let spliced = unroll_loop(daig, cfg, dest, k);
    stats.unrolls += 1;
    dai_trace::event!("core.unroll", spliced.len());
    Ok(FixOutcome::Unrolled { spliced })
}

/// Evaluates the cell named `n`, demanding its transitive dependencies and
/// unrolling loops as needed.
///
/// # Errors
///
/// * [`DaigError::NoSuchCell`] if `n` is not in the DAIG's namespace;
/// * [`DaigError::Invariant`] on internal inconsistency (a bug) or
///   divergence-guard trip.
pub fn query<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    memo: &mut dyn MemoStore<Value<D>>,
    n: &Name,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
) -> Result<Value<D>, DaigError> {
    query_with(daig, cfg, memo, n, resolver, stats, None)
}

/// [`query`] evaluating transfers through a staged [`TransferTable`]
/// when one is supplied.
///
/// # Errors
///
/// As [`query`].
#[allow(clippy::too_many_arguments)]
pub fn query_with<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    memo: &mut dyn MemoStore<Value<D>>,
    n: &Name,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
    transfers: Option<&TransferTable<D>>,
) -> Result<Value<D>, DaigError> {
    let Some(id) = daig.id_of(n) else {
        return Err(DaigError::NoSuchCell(n.to_string()));
    };
    query_id_with(daig, cfg, memo, id, resolver, stats, transfers)
}

/// Id-level [`query_with`]: the explicit-stack Fig. 8 evaluator over
/// interned cells.
///
/// # Errors
///
/// As [`query`] (the id must be live).
#[allow(clippy::too_many_arguments)]
pub fn query_id_with<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    memo: &mut dyn MemoStore<Value<D>>,
    target: CellId,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
    transfers: Option<&TransferTable<D>>,
) -> Result<Value<D>, DaigError> {
    if !daig.contains_id(target) {
        return Err(DaigError::NoSuchCell(daig.name_of(target).to_string()));
    }
    if let Some(v) = daig.value_id(target) {
        stats.reused += 1;
        return Ok(v.clone());
    }
    let _walk = dai_trace::span!("core.demand_walk");

    let mut stack: Vec<CellId> = vec![target];
    let mut missing: Vec<CellId> = Vec::new();
    let mut unroll_guard: u64 = 0;
    while let Some(&top) = stack.last() {
        if daig.value_id(top).is_some() {
            stack.pop();
            continue;
        }
        // Demand unevaluated inputs first. A cell may appear several times
        // on the stack (it is a DAG, not a tree); the topmost occurrence
        // evaluates it and deeper duplicates pop as already-filled. A true
        // dependency cycle would instead grow the stack beyond any bound
        // proportional to the graph, which the depth guard below converts
        // into an invariant error.
        let func = {
            let comp = daig.comp_slot(top).ok_or_else(|| {
                DaigError::Invariant(format!(
                    "empty cell {} has no computation",
                    daig.name_of(top)
                ))
            })?;
            missing.clear();
            for &s in &comp.srcs {
                if daig.value_id(s).is_none() && !missing.contains(&s) {
                    missing.push(s);
                }
            }
            comp.func
        };
        if !missing.is_empty() {
            for &m in &missing {
                if !daig.contains_id(m) {
                    return Err(DaigError::Invariant(format!(
                        "computation for {} reads missing cell {}",
                        daig.name_of(top),
                        daig.name_of(m)
                    )));
                }
            }
            stack.extend_from_slice(&missing);
            if stack.len() > 4 * daig.cell_count() + 1024 {
                return Err(DaigError::Invariant(format!(
                    "demand stack exploded at {}: dependency cycle (acyclicity violated)",
                    daig.name_of(top)
                )));
            }
            continue;
        }
        // All inputs ready: apply the matching rule.
        if func == Func::Fix {
            if fix_step_id(daig, cfg, top, stats)?.converged() {
                stack.pop();
            } else {
                // Leave `top` on the stack: the fix edge now demands the
                // next iterate.
                unroll_guard += 1;
                if unroll_guard > MAX_UNROLLS_PER_QUERY {
                    return Err(DaigError::Invariant(format!(
                        "loop at {} exceeded {MAX_UNROLLS_PER_QUERY} unrollings: \
                         widening does not converge",
                        daig.name_of(top)
                    )));
                }
            }
        } else {
            let value = apply_ready_at_with(daig, top, memo, resolver, stats, transfers)?;
            daig.write_id(top, value);
            stack.pop();
        }
    }
    Ok(daig.value_id(target).expect("query completed").clone())
}

/// Evaluates every cell in the DAIG (used by the exhaustive analysis
/// configurations), evaluating transfers through a staged
/// [`TransferTable`] when one is supplied.
///
/// # Errors
///
/// Propagates the first [`DaigError`] encountered.
pub fn evaluate_all_with<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    memo: &mut dyn MemoStore<Value<D>>,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
    transfers: Option<&TransferTable<D>>,
) -> Result<(), DaigError> {
    // Demanding all fix cells (and the exit) forces the whole graph; the
    // set of names grows during unrolling, so iterate to quiescence.
    loop {
        let pending: Vec<CellId> = daig
            .ids()
            .filter(|&id| daig.value_id(id).is_none())
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        for id in pending {
            if daig.contains_id(id) && daig.value_id(id).is_none() {
                query_id_with(daig, cfg, memo, id, resolver, stats, transfers)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::initial_daig;
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;
    use dai_memo::{MemoTable, SharedMemoTable};

    type D = IntervalDomain;

    fn cfg_of(src: &str) -> Cfg {
        lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone()
    }

    /// Drains the ready frontier to quiescence — a model of the dai-engine
    /// scheduler's evaluation order: pure computations via
    /// `apply_ready_at_with`, fix edges via `fix_step_id`.
    fn frontier_schedule(daig: &mut Daig<D>, cfg: &Cfg, memo: &mut dyn MemoStore<Value<D>>) {
        let mut stats = QueryStats::default();
        loop {
            let mut ready: Vec<Name> = daig.ready_frontier().cloned().collect();
            if ready.is_empty() {
                break;
            }
            ready.sort();
            let mut progressed = false;
            for n in ready {
                if daig.value(&n).is_some() || !daig.contains(&n) {
                    continue; // filled or removed by an unroll this round
                }
                let comp = daig.comp(&n).expect("frontier cells have comps");
                if comp.srcs.iter().any(|s| daig.value(s).is_none()) {
                    continue; // inputs dirtied by an unroll this round
                }
                let id = daig.id_of(&n).unwrap();
                if comp.func == Func::Fix {
                    let _ = fix_step_id(daig, cfg, id, &mut stats).unwrap();
                } else {
                    let v =
                        apply_ready_at_with(daig, id, memo, &mut IntraResolver, &mut stats, None)
                            .unwrap();
                    daig.write_id(id, v);
                }
                progressed = true;
            }
            assert!(progressed, "frontier stalled");
        }
    }

    const LOOPY: &str =
        "function f(n) { var i = 0; var s = 0; while (i < 8) { s = s + i; i = i + 1; } return s; }";

    #[test]
    fn frontier_schedule_matches_sequential_query() {
        // Evaluate one copy by demanded sequential query, another by
        // draining the ready frontier; every shared cell must agree.
        let cfg = cfg_of(LOOPY);
        let mut seq = initial_daig::<D>(&cfg, IntervalDomain::top());
        let mut seq_memo = MemoTable::new();
        let mut stats = QueryStats::default();
        evaluate_all_with(
            &mut seq,
            &cfg,
            &mut seq_memo,
            &mut IntraResolver,
            &mut stats,
            None,
        )
        .unwrap();

        let mut par = initial_daig::<D>(&cfg, IntervalDomain::top());
        let mut shared = SharedMemoTable::new(4);
        frontier_schedule(&mut par, &cfg, &mut shared);

        let mut names: Vec<Name> = seq.names().cloned().collect();
        names.sort();
        let mut par_names: Vec<Name> = par.names().cloned().collect();
        par_names.sort();
        assert_eq!(names, par_names, "same namespace after unrolling");
        for n in &names {
            assert_eq!(seq.value(n), par.value(n), "cell {n} differs");
        }
    }

    #[test]
    fn apply_ready_rejects_fix_and_unready_cells() {
        let cfg = cfg_of(LOOPY);
        let daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        let apply = |n: &Name| {
            apply_ready_at_with(
                &daig,
                daig.id_of(n).unwrap(),
                &mut MemoTable::new(),
                &mut IntraResolver,
                &mut QueryStats::default(),
                None,
            )
        };
        // Some cell is empty with empty inputs initially; applying it must
        // be refused, as must applying a fix edge.
        let unready = daig
            .names()
            .find(|n| {
                daig.value(n).is_none()
                    && daig
                        .comp(n)
                        .is_some_and(|c| c.srcs.iter().any(|s| daig.value(s).is_none()))
            })
            .expect("fresh loop DAIG has unready cells");
        assert!(apply(unready).is_err());
        let fix = daig
            .names()
            .find(|n| daig.comp(n).is_some_and(|c| c.func == Func::Fix))
            .expect("loop DAIG has a fix cell");
        assert!(apply(fix).is_err());
    }

    #[test]
    fn fix_step_unrolls_then_converges() {
        let cfg = cfg_of(LOOPY);
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let head = cfg.loop_heads()[0];
        let fix_cell = Name::State {
            loc: head,
            ctx: crate::name::IterCtx::root(),
        };
        // Demand everything below the fix cell, then step it by hand.
        let mut unrolled = 0;
        loop {
            let comp = daig.comp(&fix_cell).unwrap();
            for s in &comp.srcs {
                query(
                    &mut daig,
                    &cfg,
                    &mut memo,
                    s,
                    &mut IntraResolver,
                    &mut stats,
                )
                .unwrap();
            }
            let fix_id = daig.id_of(&fix_cell).unwrap();
            match fix_step_id(&mut daig, &cfg, fix_id, &mut stats).unwrap() {
                FixOutcome::Converged => break,
                FixOutcome::Unrolled { spliced } => {
                    assert!(!spliced.is_empty(), "unroll reports spliced cells");
                    // The fix cell itself is re-pointed, so it is in the
                    // spliced set; every spliced id resolves to a live
                    // cell.
                    assert!(spliced.contains(&fix_id));
                    for &id in &spliced {
                        assert!(daig.contains_id(id), "spliced cell is live");
                    }
                }
            }
            unrolled += 1;
            assert!(unrolled < 100, "diverged");
        }
        assert!(unrolled >= 1, "interval loop needs at least one unroll");
        assert!(daig.value(&fix_cell).is_some());
        daig.check_well_formed().unwrap();
    }
}
