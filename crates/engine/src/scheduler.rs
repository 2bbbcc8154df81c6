//! Topological evaluation of demanded DAIG cells, one thread per query.
//!
//! The paper's Definition 4.1 makes DAIGs acyclic, so the cells on the
//! ready frontier never read each other and any order of applying them
//! gives identical results. The scheduler evaluates the **union** cone of
//! a whole batch of targets on the calling thread, alternating two moves
//! until the demanded targets are filled:
//!
//! 1. **apply** — every ready pure computation in the demanded cone is
//!    applied in place ([`dai_core::query::apply_ready_at_with`],
//!    borrowing inputs straight from the graph). This is the *same*
//!    `Q-Match`/`Q-Miss` code the sequential `query` loop uses, which is
//!    what makes union evaluation bit-identical to it;
//! 2. **fix resolution** — when no pure computation is ready, step one
//!    `fix` edge ([`dai_core::query::fix_step_id`]): either its fixed
//!    point is written or the loop unrolls and the new iterate's subgraph
//!    joins the demand.
//!
//! §8 of the paper notes that frontier cells could also be applied
//! *concurrently*. This scheduler does not: the cones measured so far
//! have a work/span ceiling of ~1.5×
//! ([`dai_core::explain::ExplainReport::parallelism`]) and frontiers a few
//! cells wide, less than a cross-thread hand-off costs. Concurrency lives
//! one level up: the engine's workers serve different sessions at once.
//!
//! # Incremental cone maintenance
//!
//! The demanded cone — unfilled cells backward-reachable from the targets
//! — is traversed **once** per evaluation ([`QueryStats::cone_walks`]
//! counts these), loading a dense [`CellId`]-indexed table of
//! missing-input counts. From then on the counts are maintained
//! incrementally: every write decrements its cone-dependents, cells
//! reaching zero join the ready queue, and when a loop *unrolls* the
//! spliced subgraph reported by [`dai_core::query::FixOutcome::Unrolled`]
//! is patched into the table — the new iterate's cells are counted and
//! the re-pointed fix cell's count is refreshed. Per-query cost is thus
//! O(cone + spliced) rather than O(cone × unrolls); convergence of a
//! fixed point was already an ordinary write.

use dai_core::analysis::FuncAnalysis;
use dai_core::explain::ExplainSink;
use dai_core::graph::{Daig, DaigError, Func, Value};
use dai_core::intern::CellId;
use dai_core::name::Name;
use dai_core::query::{
    apply_ready_at_with, fix_step_id, CallResolver, FixOutcome, QueryStats, MAX_UNROLLS_PER_QUERY,
};
use dai_domains::AbstractDomain;
use dai_memo::SharedMemoTable;

/// Sentinel for cells outside the demanded cone.
const NOT_IN_CONE: u32 = u32::MAX;

/// Dense per-[`CellId`] missing-input counts for the demanded cone.
///
/// Loaded by one traversal, then patched: writes decrement, unroll splices
/// insert. Ids are stable across unrolls (the arena only grows), so the
/// table survives structural change — it just grows with the arena.
struct Cone {
    counts: Vec<u32>,
}

impl Cone {
    fn new(arena_len: usize) -> Cone {
        Cone {
            counts: vec![NOT_IN_CONE; arena_len],
        }
    }

    /// Tracks arena growth (new ids spliced in by unrolls).
    fn grow(&mut self, arena_len: usize) {
        if arena_len > self.counts.len() {
            self.counts.resize(arena_len, NOT_IN_CONE);
        }
    }

    #[inline]
    fn contains(&self, id: CellId) -> bool {
        self.counts.get(id.idx()).copied().unwrap_or(NOT_IN_CONE) != NOT_IN_CONE
    }

    #[inline]
    fn set(&mut self, id: CellId, count: u32) {
        self.counts[id.idx()] = count;
    }

    #[inline]
    fn remove(&mut self, id: CellId) {
        if let Some(c) = self.counts.get_mut(id.idx()) {
            *c = NOT_IN_CONE;
        }
    }

    /// Decrements `id`'s count if it is in the cone with a positive count;
    /// returns `true` when the count reaches zero (the cell became ready).
    #[inline]
    fn decrement(&mut self, id: CellId) -> bool {
        match self.counts.get_mut(id.idx()) {
            Some(c) if *c != NOT_IN_CONE && *c > 0 => {
                *c -= 1;
                *c == 0
            }
            _ => false,
        }
    }
}

/// Computes the number of *distinct* unfilled sources of `id` (dead
/// sources are reported as an invariant error), optionally pushing each
/// first-seen unfilled source onto `stack`.
fn missing_inputs<D: AbstractDomain>(
    daig: &Daig<D>,
    id: CellId,
    mut stack: Option<&mut Vec<CellId>>,
) -> Result<u32, DaigError> {
    let comp = daig.comp_slot(id).ok_or_else(|| {
        DaigError::Invariant(format!(
            "empty cell {} has no computation",
            daig.name_of(id)
        ))
    })?;
    let mut count: u32 = 0;
    for (i, &s) in comp.srcs.iter().enumerate() {
        if !daig.contains_id(s) {
            return Err(DaigError::Invariant(format!(
                "computation for {} reads missing cell {}",
                daig.name_of(id),
                daig.name_of(s)
            )));
        }
        if daig.value_id(s).is_some() || comp.srcs[..i].contains(&s) {
            continue;
        }
        count += 1;
        if let Some(stack) = stack.as_deref_mut() {
            stack.push(s);
        }
    }
    Ok(count)
}

/// Evaluates `targets` (and their transitive demands) in `fa` on the
/// calling thread, threading the shared memo table through every
/// application.
///
/// Call statements are resolved through `resolver`.
/// `dai_core::IntraResolver` is the session default. Fully demand-driven
/// interprocedural resolution does not plug in here — demanding a
/// callee's DAIG needs cross-unit mutable access this per-function
/// evaluation does not have — which is why
/// `dai_engine::session::ResolverChoice::Interproc` routes around the
/// scheduler instead.
///
/// When `sink` is supplied, every demanded cell's outcome, wall time, and
/// critical-path finish time is recorded into it (see
/// [`dai_core::explain`]). The sink mirrors the [`QueryStats`] movements
/// one-for-one — each record here corresponds to exactly one counter bump
/// — which is what makes explain reports accounting-exact. With `None` no
/// timestamps are taken.
///
/// On success every target cell holds a value — the same value the
/// sequential [`dai_core::query`] evaluator produces.
///
/// # Errors
///
/// * [`DaigError::NoSuchCell`] if a target is not in the DAIG's namespace;
/// * [`DaigError::Invariant`] on internal inconsistency or divergence.
pub fn evaluate_targets<D: AbstractDomain>(
    fa: &mut FuncAnalysis<D>,
    targets: &[Name],
    memo: &SharedMemoTable<Value<D>>,
    resolver: &mut dyn CallResolver<D>,
    stats: &mut QueryStats,
    mut sink: Option<&mut ExplainSink>,
) -> Result<(), DaigError> {
    // Split borrow: the CFG is read-only for the whole evaluation, so fix
    // resolution never clones it, and the staged transfer table rides
    // along for compiled evaluation.
    let (cfg, daig, transfers) = fa.sched_parts_mut();
    let mut pending: Vec<CellId> = Vec::new();
    for t in targets {
        match daig.id_of(t) {
            None => return Err(DaigError::NoSuchCell(t.to_string())),
            Some(id) => {
                if daig.value_id(id).is_some() {
                    stats.reused += 1;
                    if let Some(s) = sink.as_deref_mut() {
                        s.record_reused(daig.name_of(id).to_string());
                    }
                } else {
                    pending.push(id);
                }
            }
        }
    }
    if pending.is_empty() {
        return Ok(());
    }

    // The one full traversal: load the demanded cone — unfilled cells
    // backward-reachable from the unfilled targets — with each cell's
    // count of distinct unfilled inputs.
    stats.cone_walks += 1;
    let mut cone = Cone::new(daig.arena_len());
    let mut ready: Vec<CellId> = Vec::new();
    let mut stack: Vec<CellId> = pending.clone();
    while let Some(n) = stack.pop() {
        if cone.contains(n) {
            continue;
        }
        let count = missing_inputs(daig, n, Some(&mut stack))?;
        cone.set(n, count);
        stats.cone_cells += 1;
        if count == 0 {
            ready.push(n);
        }
    }

    // Drain the cone. Writing a cell decrements its cone-dependents'
    // counts; cells reaching zero join the ready queue. Loop unrolls patch
    // the spliced subgraph in; they do not end the traversal's validity.
    let mut memo = memo.clone();
    let mut unroll_guard: u64 = 0;
    let mut pure: Vec<CellId> = Vec::new();
    let mut fixes: Vec<CellId> = Vec::new();
    loop {
        for n in ready.drain(..) {
            match daig.comp_func(n) {
                Some(Func::Fix) => fixes.push(n),
                Some(_) => pure.push(n),
                None => {
                    return Err(DaigError::Invariant(format!(
                        "ready cell {} lost its computation",
                        daig.name_of(n)
                    )));
                }
            }
        }
        if !pure.is_empty() {
            // Sorting makes the application order deterministic; cell
            // *values* do not depend on it, but reproducible schedules
            // make debugging and statistics saner.
            pure.sort_unstable();
            let _cells_span = dai_trace::span!("engine.cells", pure.len());
            for &id in &pure {
                // Per-cell timestamps are taken only when a sink is
                // attached, so the plain path stays timestamp-free.
                let timed = sink.is_some().then(|| (*stats, std::time::Instant::now()));
                let v = apply_ready_at_with(daig, id, &mut memo, resolver, stats, transfers)?;
                if let (Some(s), Some((before, t0))) = (sink.as_deref_mut(), timed) {
                    let wall_ns = t0.elapsed().as_nanos() as u64;
                    s.record_applied(daig, id, &stats.delta(&before), wall_ns);
                }
                daig.write_id(id, v);
                settle_write(daig, id, &mut cone, &mut ready);
            }
            pure.clear();
            // Fix cells seen this round stay ready for the next one.
            ready.append(&mut fixes);
            continue;
        }
        if let Some(n) = fixes.pop() {
            // Resolve one fix edge at a time: convergence is an ordinary
            // write; an unroll splices a fresh iterate subgraph whose
            // counts are patched into the cone.
            ready.append(&mut fixes);
            let t0 = sink.is_some().then(std::time::Instant::now);
            let outcome = fix_step_id(daig, cfg, n, stats)?;
            if let (Some(s), Some(t0)) = (sink.as_deref_mut(), t0) {
                s.record_fix_step(daig, n, t0.elapsed().as_nanos() as u64, outcome.converged());
            }
            match outcome {
                FixOutcome::Converged => {
                    settle_write(daig, n, &mut cone, &mut ready);
                }
                FixOutcome::Unrolled { spliced } => {
                    unroll_guard += 1;
                    if unroll_guard > MAX_UNROLLS_PER_QUERY {
                        return Err(DaigError::Invariant(format!(
                            "loop at {} exceeded {MAX_UNROLLS_PER_QUERY} unrollings: \
                             widening does not converge",
                            daig.name_of(n)
                        )));
                    }
                    // Patch the spliced subgraph: every structurally
                    // changed, still-unfilled cell (re-pointed fix cell
                    // included) gets a fresh missing-input count. All of
                    // it is demanded — the new iterate feeds the fix cell
                    // that demanded the unroll — and its inputs are either
                    // filled (statement cells, the previous iterate) or
                    // themselves spliced, so no wider re-traversal is
                    // needed.
                    cone.grow(daig.arena_len());
                    for &id in &spliced {
                        if !daig.contains_id(id) || daig.value_id(id).is_some() {
                            continue;
                        }
                        let count = missing_inputs(daig, id, None)?;
                        if !cone.contains(id) {
                            stats.cone_cells += 1;
                        }
                        cone.set(id, count);
                        if count == 0 {
                            ready.push(id);
                        }
                    }
                }
            }
            continue;
        }
        // Nothing ready at all: done if the targets are filled; otherwise
        // the cone is wedged, which acyclicity rules out.
        if pending.iter().all(|&t| daig.value_id(t).is_some()) {
            return Ok(());
        }
        return Err(DaigError::Invariant(
            "scheduler stalled: no ready computation in the demanded cone \
             (dependency cycle?)"
                .to_string(),
        ));
    }
}

/// After `dest` was written: drop it from the cone and decrement each
/// cone-dependent's missing-input count, promoting cells that reach zero
/// onto the ready queue.
fn settle_write<D: AbstractDomain>(
    daig: &Daig<D>,
    dest: CellId,
    cone: &mut Cone,
    ready: &mut Vec<CellId>,
) {
    cone.remove(dest);
    for &dep in daig.dependents_ids(dest) {
        if cone.decrement(dep) {
            ready.push(dep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};
    use dai_core::query::{query, IntraResolver};
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;
    use dai_memo::MemoTable;

    type D = IntervalDomain;

    const SRC: &str = "function f(n) { var i = 0; var s = 0; \
                       while (i < 9) { var j = 0; while (j < 4) { s = s + j; j = j + 1; } i = i + 1; } \
                       return s; }";

    /// Five independent branches, so ready frontiers are wide and a sweep
    /// demands many locations at once.
    const WIDE: &str = "function f(n) { var a = 0; var b = 0; var c = 0; var d = 0; var e = 0; \
                        if (n < 1) { a = n + 1; } else { a = n - 1; } \
                        if (n < 2) { b = n + 2; } else { b = n - 2; } \
                        if (n < 3) { c = n + 3; } else { c = n - 3; } \
                        if (n < 4) { d = n + 4; } else { d = n - 4; } \
                        while (e < 5) { e = e + 1; } \
                        return a + b + c + d + e; }";

    fn fresh_of(src: &str) -> FuncAnalysis<D> {
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        FuncAnalysis::new(cfg, IntervalDomain::top())
    }

    fn fresh() -> FuncAnalysis<D> {
        fresh_of(SRC)
    }

    fn root_state(loc: dai_lang::Loc) -> Name {
        Name::State {
            loc,
            ctx: dai_core::name::IterCtx::root(),
        }
    }

    fn evaluate(fa: &mut FuncAnalysis<D>, targets: &[Name], stats: &mut QueryStats) {
        let memo = SharedMemoTable::new(8);
        evaluate_targets(fa, targets, &memo, &mut IntraResolver, stats, None).unwrap();
    }

    #[test]
    fn union_evaluation_is_bit_identical_to_sequential_query() {
        // Every location outside a loop, demanded at once: a few on the
        // nested-loop workload, many on the five-branch one (locations
        // inside loops resolve to iterate cells that only exist after
        // unrolling; `Session::query_locs` covers those).
        for (src, at_least) in [(SRC, 2), (WIDE, 8)] {
            let mut union = fresh_of(src);
            let cfg = union.cfg().clone();
            let targets: Vec<Name> = cfg
                .locs()
                .into_iter()
                .filter(|&l| cfg.enclosing_loops(l).is_empty())
                .map(root_state)
                .collect();
            assert!(targets.len() >= at_least, "{} targets", targets.len());
            let mut stats = QueryStats::default();
            evaluate(&mut union, &targets, &mut stats);
            assert_eq!(stats.cone_walks, 1, "one union cone for all targets");

            let mut seq = fresh_of(src);
            let mut seq_memo = MemoTable::new();
            let mut seq_stats = QueryStats::default();
            for target in &targets {
                let expected = query(
                    seq.daig_mut(),
                    &cfg,
                    &mut seq_memo,
                    target,
                    &mut IntraResolver,
                    &mut seq_stats,
                )
                .unwrap();
                assert_eq!(union.daig().value(target), Some(&expected), "{target}");
            }
            assert_eq!(
                stats.computed + stats.memo_matched,
                seq_stats.computed + seq_stats.memo_matched,
                "same cells applied either way"
            );
            union.daig().check_well_formed().unwrap();
        }
    }

    #[test]
    fn evaluated_cell_counts_do_not_depend_on_the_worker_count() {
        // `workers` is how many sessions are served at once; a query's
        // cone is evaluated by one thread, so the work a sweep does — and
        // its split into computed and memo-matched cells, which racing
        // appliers could shift — is the same whatever the pool size.
        let locs = fresh_of(WIDE).cfg().locs();
        assert!(locs.len() >= 8);
        let sweep = |workers: usize| {
            let engine: Engine<D> = Engine::with_config(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let session = engine.open_session_src("wide", WIDE).unwrap();
            let answers: Vec<D> = engine
                .query_batch(session, "f", &locs)
                .into_iter()
                .map(|a| a.unwrap())
                .collect();
            let stats = engine.stats().query_stats;
            (answers, stats.computed, stats.memo_matched)
        };
        let (expected, computed, matched) = sweep(1);
        assert!(computed > 0);
        for workers in [2, 4] {
            let (answers, c, m) = sweep(workers);
            assert_eq!(answers, expected, "workers = {workers}");
            assert_eq!(c + m, computed + matched, "workers = {workers}");
            assert_eq!((c, m), (computed, matched), "workers = {workers}");
        }
    }

    #[test]
    fn unknown_target_is_reported() {
        let mut fa = fresh();
        let memo = SharedMemoTable::new(2);
        let mut stats = QueryStats::default();
        let bogus = root_state(dai_lang::Loc(4242));
        let err = evaluate_targets(
            &mut fa,
            &[bogus],
            &memo,
            &mut IntraResolver,
            &mut stats,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, DaigError::NoSuchCell(_)));
    }

    #[test]
    fn already_filled_targets_count_as_reuse() {
        let mut fa = fresh();
        let mut stats = QueryStats::default();
        let entry = root_state(fa.cfg().entry());
        evaluate(&mut fa, std::slice::from_ref(&entry), &mut stats);
        let computed_before = stats.computed;
        evaluate(&mut fa, &[entry], &mut stats);
        assert_eq!(stats.computed, computed_before, "no recomputation");
        assert!(stats.reused >= 1);
    }

    #[test]
    fn demanded_cone_is_traversed_once_despite_unrolls() {
        // The nested-loop workload needs several unrollings to converge;
        // incremental cone maintenance must keep the traversal count at
        // one — the whole point of patching spliced subgraphs instead of
        // ending the epoch.
        let mut fa = fresh();
        let mut stats = QueryStats::default();
        let exit = root_state(fa.cfg().exit());
        evaluate(&mut fa, std::slice::from_ref(&exit), &mut stats);
        assert!(
            stats.unrolls >= 2,
            "workload must unroll several times (got {})",
            stats.unrolls
        );
        assert_eq!(
            stats.cone_walks, 1,
            "one traversal regardless of {} unrolls",
            stats.unrolls
        );
        // A repeated evaluation reuses the filled target without walking
        // anything.
        evaluate(&mut fa, &[exit], &mut stats);
        assert_eq!(stats.cone_walks, 1, "filled targets walk nothing");
        fa.daig().check_well_formed().unwrap();
    }
}
