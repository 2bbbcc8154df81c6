//! Demand-driven query evaluation (paper Fig. 8) with demanded unrolling
//! of fixed points (§5.2).
//!
//! The judgment `D, M ⊢ n ⇒ v ; D', M'` is realized by one explicit-stack
//! evaluator over one or many targets, exposed as
//! [`crate::analysis::FuncAnalysis::evaluate`]; every query path in the
//! repository (`FuncAnalysis`, the interprocedural layer, `dai-engine`
//! sessions) runs through it. Each step applies exactly one of the
//! paper's rules:
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
//! interprocedural layer (paper §7.1) can evaluate callee DAIGs on demand.
//! A call cell is never filled by `Q-Match` here: its value depends on the
//! callee's current exit, not only on the cell's inputs. The resolver
//! memoizes what is a function of its inputs — the interprocedural layer
//! keys the two call bindings (`call_entry`, `call_return`) by the cell
//! digests handed over in [`CallInput`].

use crate::build::unroll_loop;
use crate::compile::TransferTable;
use crate::explain::ExplainSink;
use crate::graph::{Daig, DaigError, Func, Value};
use crate::intern::CellId;
use crate::name::Name;
use dai_domains::AbstractDomain;
use dai_lang::cfg::Cfg;
use dai_lang::{EdgeId, Stmt};
use dai_memo::{KeyBuilder, MemoStore};
use std::time::Instant;

/// One call to resolve: the caller's pre-state and the call statement on
/// CFG edge `edge`.
#[derive(Debug)]
pub struct CallInput<'a, D> {
    /// The caller's state before the call.
    pub pre: &'a D,
    /// The call statement.
    pub stmt: &'a Stmt,
    /// The CFG edge the statement labels.
    pub edge: EdgeId,
    /// The statement and pre-state cells' digests, when the DAIG holds
    /// them.
    held: Option<(u128, u128)>,
}

impl<'a, D: AbstractDomain> CallInput<'a, D> {
    /// A call whose statement and pre-state are not DAIG cells.
    pub(crate) fn new(pre: &'a D, stmt: &'a Stmt, edge: EdgeId) -> CallInput<'a, D> {
        CallInput {
            pre,
            stmt,
            edge,
            held: None,
        }
    }

    /// The digests of the statement and the pre-state, `(stmt, pre)`, as
    /// cells holding them cache them ([`Value::stmt_digest`],
    /// [`Value::state_digest`]): the DAIG's own, or computed here.
    pub(crate) fn digests(&self) -> (u128, u128) {
        self.held.unwrap_or_else(|| {
            (
                Value::<D>::stmt_digest(self.stmt),
                Value::state_digest(self.pre),
            )
        })
    }
}

/// Resolves the abstract post-state of a call statement from the caller's
/// pre-state. The interprocedural layer implements this by demanding the
/// callee's exit; the intraprocedural default havocs via
/// [`AbstractDomain::transfer`]. The shared memo store and statistics are
/// threaded through so nested cross-DAIG queries reuse them.
pub trait CallResolver<D: AbstractDomain> {
    /// Computes the post-state of `call.stmt` from `call.pre`.
    ///
    /// # Errors
    ///
    /// Returns a [`DaigError`] if demanding the callee fails.
    fn resolve(
        &mut self,
        call: &CallInput<'_, D>,
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
        call: &CallInput<'_, D>,
        _memo: &mut dyn MemoStore<Value<D>>,
        _stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        Ok(call.pre.transfer(call.stmt))
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
    /// Evaluations that demanded at least one unfilled cell: one per
    /// evaluation call, however many targets it had and however many
    /// times its loops unrolled.
    pub cone_walks: u64,
    /// Cells an evaluation wrote (`Q-Miss`, `Q-Match` and
    /// `Q-Loop-Converge`): the size of its demanded cone, including the
    /// iterates its unrolls added. For a multi-target evaluation this is
    /// the *union* cone, which is what makes query coalescing measurable:
    /// a batch's union cone is at most as large as the sum of its
    /// members' solo cones.
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

/// Upper bound on unrollings within one evaluation, as a guard against
/// domains with broken widening; hitting it is reported as an invariant
/// violation rather than diverging.
const MAX_UNROLLS_PER_QUERY: u64 = 1_000_000;

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
/// ([`evaluate`]) writes the returned value into `dest`.
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
fn apply_ready_at_with<D: AbstractDomain>(
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
            // Calls: no `Q-Match` on the cell, whose value depends on the
            // callee's current exit; the resolver memoizes the bindings,
            // which depend only on what is handed over here.
            stats.computed += 1;
            let call = CallInput {
                pre,
                stmt,
                edge,
                held: Some((digest(stmt_cell), digest(pre_cell))),
            };
            Ok(Value::State(resolver.resolve(&call, memo, stats)?))
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FixOutcome {
    /// The iterates agreed: the fixed point was written
    /// (`Q-Loop-Converge`).
    Converged,
    /// The loop was unrolled one abstract iteration (`Q-Loop-Unroll`).
    Unrolled,
}

/// Resolves one `fix` edge whose two iterate inputs are filled: either the
/// iterates agree under the strategy's convergence test and the fixed
/// point is written (`Q-Loop-Converge`), or the loop is unrolled one more
/// abstract iteration (`Q-Loop-Unroll`) and the caller must re-demand the
/// (new) inputs.
///
/// # Errors
///
/// [`DaigError::Invariant`] if `dest` is not a fix destination with filled
/// state inputs.
fn fix_step_id<D: AbstractDomain>(
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
    Ok(FixOutcome::Unrolled)
}

#[cfg(test)]
thread_local! {
    /// Cells [`evaluate`] pushed onto its demand stack on this thread,
    /// seeded targets included (the visit budget of this module's tests).
    pub(crate) static PUSHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The Fig. 8 evaluator: demands every cell in `targets`, in order,
/// unrolling loops as needed.
///
/// One explicit stack (so deep straight-line programs from the §7.3
/// generator cannot overflow the call stack) is seeded with the unfilled
/// targets, first target on top, so a batch applies cells in exactly the
/// order sequential one-target evaluations would. A target that is
/// already filled is a `Q-Reuse`; any other cell is applied by
/// [`apply_ready_at_with`] or stepped by [`fix_step_id`] once its inputs
/// are filled.
///
/// Counters: `reused` per target filled on entry; `cone_walks` once if
/// any target was not; `cone_cells` per cell written. When `sink` is
/// supplied, every reuse, application and fix step is also recorded
/// there with its wall time (see [`crate::explain`]) — one record per
/// counter bump. With `None` no timestamps are taken.
///
/// §8 of the paper notes that cells whose inputs are all filled could be
/// applied concurrently. This evaluator does not: the cones measured so
/// far have a work/span ceiling of about 1.5×
/// ([`crate::explain::ExplainReport::parallelism`]) and frontiers a few
/// cells wide, less than a cross-thread hand-off costs. Concurrency lives
/// one level up, in `dai-engine`'s workers serving different sessions.
///
/// # Errors
///
/// * [`DaigError::NoSuchCell`] if a target is not live;
/// * [`DaigError::Invariant`] on internal inconsistency (a bug) or
///   divergence-guard trip.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    transfers: Option<&TransferTable<D>>,
    targets: &[CellId],
    memo: &mut dyn MemoStore<Value<D>>,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
    mut sink: Option<&mut ExplainSink>,
) -> Result<(), DaigError> {
    let mut stack: Vec<CellId> = Vec::new();
    for &t in targets {
        if !daig.contains_id(t) {
            return Err(DaigError::NoSuchCell(daig.name_of(t).to_string()));
        }
        if daig.value_id(t).is_some() {
            stats.reused += 1;
            if let Some(s) = sink.as_deref_mut() {
                s.record_reused(daig.name_of(t).to_string());
            }
        } else {
            stack.push(t);
        }
    }
    if stack.is_empty() {
        return Ok(());
    }
    stack.reverse();
    #[cfg(test)]
    PUSHES.with(|p| p.set(p.get() + stack.len() as u64));
    stats.cone_walks += 1;
    let _walk = dai_trace::span!("core.demand_walk");

    let mut unrolls: u64 = 0;
    while let Some(&top) = stack.last() {
        if daig.value_id(top).is_some() {
            stack.pop();
            continue;
        }
        // Demand unevaluated inputs first, each distinct one once. A cell
        // may appear several times on the stack (it is a DAG, not a
        // tree); the topmost occurrence evaluates it and deeper duplicates
        // pop as already-filled. A true dependency cycle would instead
        // grow the stack beyond any bound proportional to the graph, which
        // the depth guard below converts into an invariant error.
        let depth = stack.len();
        let func = {
            let comp = daig.comp_slot(top).ok_or_else(|| {
                DaigError::Invariant(format!(
                    "empty cell {} has no computation",
                    daig.name_of(top)
                ))
            })?;
            for (i, &s) in comp.srcs.iter().enumerate() {
                if daig.value_id(s).is_some() || comp.srcs[..i].contains(&s) {
                    continue;
                }
                if !daig.contains_id(s) {
                    return Err(DaigError::Invariant(format!(
                        "computation for {} reads missing cell {}",
                        daig.name_of(top),
                        daig.name_of(s)
                    )));
                }
                stack.push(s);
            }
            comp.func
        };
        if stack.len() > depth {
            #[cfg(test)]
            PUSHES.with(|p| p.set(p.get() + (stack.len() - depth) as u64));
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
            let t0 = sink.is_some().then(Instant::now);
            let outcome = fix_step_id(daig, cfg, top, stats)?;
            if let (Some(s), Some(t0)) = (sink.as_deref_mut(), t0) {
                let converged = outcome == FixOutcome::Converged;
                s.record_fix_step(daig, top, t0.elapsed().as_nanos() as u64, converged);
            }
            match outcome {
                FixOutcome::Converged => {
                    stats.cone_cells += 1;
                    stack.pop();
                }
                // Leave `top` on the stack: the fix edge now demands the
                // next iterate.
                FixOutcome::Unrolled => {
                    unrolls += 1;
                    if unrolls > MAX_UNROLLS_PER_QUERY {
                        return Err(DaigError::Invariant(format!(
                            "loop at {} exceeded {MAX_UNROLLS_PER_QUERY} unrollings: \
                             widening does not converge",
                            daig.name_of(top)
                        )));
                    }
                }
            }
        } else {
            let timed = sink.is_some().then(|| (*stats, Instant::now()));
            let value = apply_ready_at_with(daig, top, memo, resolver, stats, transfers)?;
            if let (Some(s), Some((before, t0))) = (sink.as_deref_mut(), timed) {
                let wall_ns = t0.elapsed().as_nanos() as u64;
                s.record_applied(daig, top, &stats.delta(&before), wall_ns);
            }
            daig.write_id(top, value);
            stats.cone_cells += 1;
            stack.pop();
        }
    }
    Ok(())
}

/// Evaluates every cell in the DAIG (used by the exhaustive analysis
/// configurations), one [`evaluate`] per cell still empty.
///
/// # Errors
///
/// Propagates the first [`DaigError`] encountered.
pub(crate) fn evaluate_all<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    transfers: Option<&TransferTable<D>>,
    memo: &mut dyn MemoStore<Value<D>>,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
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
                evaluate(daig, cfg, transfers, &[id], memo, resolver, stats, None)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalysis;
    use crate::build::initial_daig;
    use dai_domains::{IntervalDomain, OctagonDomain};
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;
    use dai_memo::{MemoKey, MemoTable, SharedMemoTable};

    type D = IntervalDomain;

    fn cfg_of(src: &str) -> Cfg {
        lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone()
    }

    fn root_state(loc: dai_lang::Loc) -> Name {
        Name::State {
            loc,
            ctx: crate::name::IterCtx::root(),
        }
    }

    /// Drains the ready frontier to quiescence — an evaluation order other
    /// than [`evaluate`]'s demand order: pure computations via
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

    /// Two nested loops that need several unrollings to converge.
    const SRC: &str = "function f(n) { var i = 0; var s = 0; \
                       while (i < 9) { var j = 0; while (j < 4) { s = s + j; j = j + 1; } i = i + 1; } \
                       return s; }";

    /// Five independent branches, so a sweep demands many locations at
    /// once.
    const WIDE: &str = "function f(n) { var a = 0; var b = 0; var c = 0; var d = 0; var e = 0; \
                        if (n < 1) { a = n + 1; } else { a = n - 1; } \
                        if (n < 2) { b = n + 2; } else { b = n - 2; } \
                        if (n < 3) { c = n + 3; } else { c = n - 3; } \
                        if (n < 4) { d = n + 4; } else { d = n - 4; } \
                        while (e < 5) { e = e + 1; } \
                        return a + b + c + d + e; }";

    /// A memo store that logs every fetch as `H` (hit) or `M` (miss), and
    /// the key it fetched: the order in which an evaluation applies cells,
    /// as far as the memo table can see it.
    struct Recording<V> {
        table: MemoTable<V>,
        log: String,
        keys: Vec<MemoKey>,
    }

    impl<V: Clone> MemoStore<V> for Recording<V> {
        fn fetch(&mut self, key: MemoKey) -> Option<V> {
            let hit = self.table.fetch(key);
            self.log.push(if hit.is_some() { 'H' } else { 'M' });
            self.keys.push(key);
            hit
        }

        fn record(&mut self, key: MemoKey, value: V) {
            self.table.record(key, value);
        }
    }

    /// Demands every location outside a loop of `src` at once, then the
    /// same targets one query at a time on a fresh copy, in the same
    /// order: even-indexed locations first, then odd ones, so that no
    /// single demand walk happens to visit cells in target order — and
    /// then backwards. Both memo tables start warm with the middle
    /// target's cone, so the log mixes hits and misses.
    fn assert_union_equals_sequential<Dom: AbstractDomain>(src: &str, top: Dom, at_least: usize) {
        let cfg = cfg_of(src);
        let locs: Vec<Name> = cfg
            .locs()
            .into_iter()
            .filter(|&l| cfg.enclosing_loops(l).is_empty())
            .map(root_state)
            .collect();
        let mut targets: Vec<Name> = locs.iter().step_by(2).cloned().collect();
        targets.extend(locs.iter().skip(1).step_by(2).cloned());
        assert!(targets.len() >= at_least, "{} targets", targets.len());
        let middle = locs[locs.len() / 2].clone();
        let warm = || {
            let mut memo = Recording {
                table: MemoTable::new(),
                log: String::new(),
                keys: Vec::new(),
            };
            let mut fa = FuncAnalysis::new(cfg.clone(), top.clone());
            fa.query_name(
                &mut memo,
                &middle,
                &mut IntraResolver,
                &mut QueryStats::default(),
            )
            .unwrap();
            memo.log.clear();
            memo.keys.clear();
            memo
        };
        for order in ["forwards", "backwards"] {
            let mut union = FuncAnalysis::new(cfg.clone(), top.clone());
            let mut union_memo = warm();
            let mut stats = QueryStats::default();
            union
                .evaluate(
                    &targets,
                    &mut union_memo,
                    &mut IntraResolver,
                    &mut stats,
                    None,
                )
                .unwrap();
            assert_eq!(stats.cone_walks, 1, "one evaluation for all targets");

            let mut seq = FuncAnalysis::new(cfg.clone(), top.clone());
            let mut seq_memo = warm();
            let mut seq_stats = QueryStats::default();
            for target in &targets {
                let expected = seq
                    .query_name(&mut seq_memo, target, &mut IntraResolver, &mut seq_stats)
                    .unwrap();
                assert_eq!(union.daig().value(target), Some(&expected), "{target}");
            }
            let work = |s: QueryStats| QueryStats {
                reused: 0,
                cone_walks: 0,
                cone_cells: 0,
                ..s
            };
            assert_eq!(
                work(stats),
                work(seq_stats),
                "same cells applied either way"
            );
            assert_eq!(stats.cone_cells, seq_stats.cone_cells, "same cells written");
            assert!(union_memo.log.contains('H') && union_memo.log.contains('M'));
            assert_eq!(
                union_memo.log, seq_memo.log,
                "{order}: same memo hits and misses, in order"
            );
            assert_eq!(
                union_memo.keys, seq_memo.keys,
                "{order}: same keys, in order"
            );
            union.daig().check_well_formed().unwrap();
            targets.reverse();
        }
    }

    #[test]
    fn union_evaluation_is_bit_identical_to_sequential_query() {
        // A few targets on the nested-loop workload, many on the
        // five-branch one (locations inside loops resolve to iterate cells
        // that only exist after unrolling; `FuncAnalysis::query_loc`
        // covers those), and the nested loops again under octagon.
        assert_union_equals_sequential(SRC, IntervalDomain::top(), 2);
        assert_union_equals_sequential(WIDE, IntervalDomain::top(), 8);
        assert_union_equals_sequential(SRC, OctagonDomain::top(), 2);
    }

    #[test]
    fn frontier_schedule_matches_sequential_query() {
        // Evaluate one copy by demanded sequential query, another by
        // draining the ready frontier; every shared cell must agree.
        let cfg = cfg_of(LOOPY);
        let mut seq = initial_daig::<D>(&cfg, IntervalDomain::top());
        let mut seq_memo = MemoTable::new();
        let mut stats = QueryStats::default();
        evaluate_all(
            &mut seq,
            &cfg,
            None,
            &mut seq_memo,
            &mut IntraResolver,
            &mut stats,
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
        let fix_cell = root_state(head);
        // Demand everything below the fix cell, then step it by hand.
        let mut unrolled = 0;
        loop {
            let fix_id = daig.id_of(&fix_cell).unwrap();
            let srcs = daig.comp_srcs(fix_id).unwrap().to_vec();
            evaluate(
                &mut daig,
                &cfg,
                None,
                &srcs,
                &mut memo,
                &mut IntraResolver,
                &mut stats,
                None,
            )
            .unwrap();
            match fix_step_id(&mut daig, &cfg, fix_id, &mut stats).unwrap() {
                FixOutcome::Converged => break,
                FixOutcome::Unrolled => {
                    // The fix cell is re-pointed at the next iterate: a
                    // live cell the unroll added, still empty.
                    let next = daig.comp_srcs(fix_id).unwrap()[1];
                    assert!(!srcs.contains(&next), "unroll re-points the fix cell");
                    assert!(daig.contains_id(next), "the new iterate is live");
                    assert!(daig.value_id(next).is_none(), "and not yet evaluated");
                }
            }
            unrolled += 1;
            assert!(unrolled < 100, "diverged");
        }
        assert!(unrolled >= 1, "interval loop needs at least one unroll");
        assert!(daig.value(&fix_cell).is_some());
        daig.check_well_formed().unwrap();
    }

    #[test]
    fn unknown_target_is_reported() {
        let mut fa = FuncAnalysis::new(cfg_of(SRC), IntervalDomain::top());
        let bogus = root_state(dai_lang::Loc(4242));
        let err = fa
            .evaluate(
                &[bogus],
                &mut MemoTable::new(),
                &mut IntraResolver,
                &mut QueryStats::default(),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, DaigError::NoSuchCell(_)));
    }

    #[test]
    fn already_filled_targets_count_as_reuse() {
        let mut fa = FuncAnalysis::new(cfg_of(SRC), IntervalDomain::top());
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let entry = [root_state(fa.cfg().entry())];
        fa.evaluate(&entry, &mut memo, &mut IntraResolver, &mut stats, None)
            .unwrap();
        let computed_before = stats.computed;
        fa.evaluate(&entry, &mut memo, &mut IntraResolver, &mut stats, None)
            .unwrap();
        assert_eq!(stats.computed, computed_before, "no recomputation");
        assert!(stats.reused >= 1);
    }

    #[test]
    fn demanded_cone_is_visited_within_its_budget_despite_unrolls() {
        // The nested-loop workload needs several unrollings to converge.
        // Cost stays O(cone + spliced), not O(cone × unrolls): every push
        // onto the demand stack is a seeded target or a non-statement
        // input of a cell the evaluation wrote (statement cells are never
        // empty; an unrolled fix cell's re-demand of its new iterate is
        // paid for by that iterate, whose previous-iterate input is
        // already filled when it is demanded).
        let mut fa = FuncAnalysis::new(cfg_of(SRC), IntervalDomain::top());
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let exit = [root_state(fa.cfg().exit())];
        let filled_before: Vec<CellId> = fa
            .daig()
            .ids()
            .filter(|&id| fa.daig().value_id(id).is_some())
            .collect();
        let pushes = || PUSHES.with(|p| p.get());
        let before = pushes();
        fa.evaluate(&exit, &mut memo, &mut IntraResolver, &mut stats, None)
            .unwrap();
        let pushed = pushes() - before;
        assert!(
            stats.unrolls >= 2,
            "workload must unroll several times (got {})",
            stats.unrolls
        );
        assert_eq!(
            stats.cone_walks, 1,
            "one evaluation regardless of {} unrolls",
            stats.unrolls
        );
        let daig = fa.daig();
        let written: Vec<CellId> = daig
            .ids()
            .filter(|&id| daig.value_id(id).is_some() && !filled_before.contains(&id))
            .collect();
        assert_eq!(written.len() as u64, stats.cone_cells, "cells written");
        let budget = exit.len()
            + written
                .iter()
                .flat_map(|&id| daig.comp_srcs(id).unwrap_or(&[]))
                .filter(|&&src| !matches!(daig.name_of(src), Name::Stmt(_)))
                .count();
        assert!(
            pushed <= budget as u64,
            "{pushed} pushes for a budget of {budget} ({} unrolls)",
            stats.unrolls
        );
        // A repeated evaluation reuses the filled target without walking
        // or pushing anything.
        let before = pushes();
        fa.evaluate(&exit, &mut memo, &mut IntraResolver, &mut stats, None)
            .unwrap();
        assert_eq!(pushes(), before, "filled targets push nothing");
        assert_eq!(stats.cone_walks, 1, "filled targets walk nothing");
        fa.daig().check_well_formed().unwrap();
    }
}
