//! The Sharir–Pnueli "functional approach" to interprocedural demanded
//! analysis (paper §2.3):
//!
//! > "The 'functional approach' to interprocedural analysis of Sharir and
//! > Pnueli could also potentially be adapted to our framework by
//! > constructing disjoint DAIGs for each phase and inserting dependencies
//! > from phase-2 callsites to corresponding phase-1 summaries."
//!
//! This module realizes that adaptation. Where [`crate::interproc`] keys
//! callee DAIGs by *call strings* (k-limited, so distinct call paths may
//! collapse into one context whose entry is an accumulated join), the
//! [`SummaryAnalyzer`] keys them by the **entry abstract state itself**:
//!
//! * A *phase-1 unit* is a DAIG for `(procedure, entry state)` whose `φ₀`
//!   is exactly that entry state — never a join of several call sites. Its
//!   exit cell is the procedure's *summary* for that entry.
//! * A *phase-2 callsite* (a call transfer in some caller's DAIG) depends
//!   on the summary for the entry its pre-state induces: resolving the
//!   call demands the summary, memoized in a summary table.
//!
//! Precision: two call paths get joined **only if** they produce literally
//! the same abstract entry — so the functional approach is at least as
//! precise as any k-call-string policy (and strictly more precise when
//! k-limiting merges distinct entries; see the tests).
//!
//! Incrementality: summaries are keyed by entry state and depend only on
//! the *callee's (transitive) code*. Editing a procedure `f` therefore
//! invalidates the summaries of `f` and of every transitive **caller** of
//! `f` (their exits may flow through `f`), while summaries of unrelated
//! procedures survive untouched — a sharper invalidation rule than the
//! call-string layer's conservative entry reset, and tested as such.
//!
//! Termination relies on the same assumption as §7.1: a static,
//! non-recursive call graph (checked at lowering), so the demand recursion
//! along calls is well-founded and each procedure sees finitely many
//! distinct entries (at most one per call path).

use crate::analysis::FuncAnalysis;
use crate::graph::{DaigError, Value};
use crate::query::{CallResolver, QueryStats};
use crate::strategy::FixStrategy;
use dai_domains::{AbstractDomain, CallSite};
use dai_lang::cfg::LoweredProgram;
use dai_lang::edit::SpliceInfo;
use dai_lang::{Block, CfgError, EdgeId, Loc, Stmt, Symbol};
use dai_memo::{MemoStore, MemoTable};
use std::collections::HashMap;

/// Counters for summary-table reuse (the phase-2 → phase-1 dependency
/// traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Calls answered from an existing summary.
    pub hits: u64,
    /// Calls that had to compute a fresh summary (demanding a phase-1
    /// DAIG's exit).
    pub misses: u64,
}

impl SummaryStats {
    /// `hits / (hits + misses)`, or 0 when no calls were resolved.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Interprocedural analyzer keying callee DAIGs by entry abstract state
/// (the functional approach). See the module docs for the design.
pub struct SummaryAnalyzer<D: AbstractDomain> {
    program: LoweredProgram,
    entry_fn: Symbol,
    phi0: D,
    strategy: FixStrategy,
    /// Phase-1 DAIGs: one per (procedure, entry state) demanded so far.
    units: HashMap<(Symbol, D), FuncAnalysis<D>>,
    /// Completed summaries: entry state ↦ exit state.
    summaries: HashMap<(Symbol, D), D>,
    /// Entry states per procedure under the *current* program, recomputed
    /// demand-first after edits ([`SummaryAnalyzer::entries_of`]).
    entries_cache: Option<HashMap<Symbol, Vec<D>>>,
    memo: MemoTable<Value<D>>,
    stats: QueryStats,
    summary_stats: SummaryStats,
}

/// Resolves calls by demanding phase-1 summaries.
struct FunctionalResolver<'a, D: AbstractDomain> {
    analyzer: &'a mut SummaryAnalyzer<D>,
    caller: Symbol,
}

impl<D: AbstractDomain> CallResolver<D> for FunctionalResolver<'_, D> {
    fn resolve(
        &mut self,
        pre: &D,
        stmt: &Stmt,
        edge: EdgeId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.analyzer
            .resolve_call(&self.caller, pre, stmt, edge, memo, stats)
    }
}

impl<D: AbstractDomain> SummaryAnalyzer<D> {
    /// Creates an analyzer for `program`, analyzing from `entry_fn` with
    /// entry state `φ₀` under the paper's default iteration strategy.
    pub fn new(program: LoweredProgram, entry_fn: &str, phi0: D) -> SummaryAnalyzer<D> {
        SummaryAnalyzer::with_strategy(program, entry_fn, phi0, FixStrategy::PAPER)
    }

    /// Like [`SummaryAnalyzer::new`] with an explicit loop-head iteration
    /// strategy (see [`crate::strategy`]).
    pub fn with_strategy(
        program: LoweredProgram,
        entry_fn: &str,
        phi0: D,
        strategy: FixStrategy,
    ) -> SummaryAnalyzer<D> {
        SummaryAnalyzer {
            program,
            entry_fn: Symbol::new(entry_fn),
            phi0,
            strategy,
            units: HashMap::new(),
            summaries: HashMap::new(),
            entries_cache: None,
            memo: MemoTable::new(),
            stats: QueryStats::default(),
            summary_stats: SummaryStats::default(),
        }
    }

    /// The program under analysis.
    pub fn program(&self) -> &LoweredProgram {
        &self.program
    }

    /// Cumulative query statistics.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Summary-table reuse statistics.
    pub fn summary_stats(&self) -> SummaryStats {
        self.summary_stats
    }

    /// Number of phase-1 DAIG units constructed so far (including units
    /// retained for entries no longer reachable after edits; see
    /// [`SummaryAnalyzer::purge`]).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Number of completed summaries currently valid.
    pub fn summary_count(&self) -> usize {
        self.summaries.len()
    }

    /// Drops every unit, summary, and memo entry (sound: paper §2.2 —
    /// dropping cached results trades reuse for footprint). Queries
    /// recompute on demand.
    pub fn purge(&mut self) {
        self.units.clear();
        self.summaries.clear();
        self.entries_cache = None;
        self.memo.clear();
    }

    /// Resolves one call: compute the callee entry from the caller's
    /// pre-state, demand the matching summary, apply the return transfer.
    fn resolve_call(
        &mut self,
        caller: &Symbol,
        pre: &D,
        stmt: &Stmt,
        edge: EdgeId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        let Stmt::Call { lhs, callee, args } = stmt else {
            return Err(DaigError::Invariant("resolve_call on non-call".to_string()));
        };
        if pre.is_bottom() {
            return Ok(D::bottom());
        }
        let Some(callee_cfg) = self.program.by_name(callee.as_str()) else {
            // Unknown callee: the domain's conservative call transfer.
            return Ok(pre.transfer(stmt));
        };
        let params: Vec<Symbol> = callee_cfg.params().to_vec();
        let site_key = format!("{caller}:{edge}");
        let site = CallSite {
            lhs: lhs.as_ref(),
            callee,
            args: args.as_slice(),
            site_key: &site_key,
        };
        let entry = pre.call_entry(site, &params);
        let exit = self.summary_exit(callee, entry, memo, stats)?;
        Ok(pre.call_return(site, &exit))
    }

    /// The summary (exit state) of `f` for `entry`, computed by demanding
    /// a phase-1 DAIG on a miss.
    fn summary_exit(
        &mut self,
        f: &Symbol,
        entry: D,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        let key = (f.clone(), entry);
        if let Some(exit) = self.summaries.get(&key) {
            self.summary_stats.hits += 1;
            return Ok(exit.clone());
        }
        self.summary_stats.misses += 1;
        self.ensure_unit(&key);
        let mut unit = self.units.remove(&key).expect("ensured");
        let mut resolver = FunctionalResolver {
            analyzer: self,
            caller: f.clone(),
        };
        let out = unit.query_exit(memo, &mut resolver, stats);
        self.units.insert(key.clone(), unit);
        let exit = out?;
        self.summaries.insert(key, exit.clone());
        Ok(exit)
    }

    fn ensure_unit(&mut self, key: &(Symbol, D)) {
        if self.units.contains_key(key) {
            return;
        }
        let cfg = self
            .program
            .by_name(key.0.as_str())
            .expect("callers resolve callees before ensuring units")
            .clone();
        self.units.insert(
            key.clone(),
            FuncAnalysis::with_strategy(cfg, key.1.clone(), self.strategy),
        );
    }

    /// Demands the fixed-point-consistent state at `loc` in the phase-1
    /// unit for `(f, entry)`.
    fn query_loc_of(
        &mut self,
        f: &Symbol,
        entry: &D,
        loc: Loc,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        let key = (f.clone(), entry.clone());
        self.ensure_unit(&key);
        let mut unit = self.units.remove(&key).expect("ensured");
        let mut resolver = FunctionalResolver {
            analyzer: self,
            caller: f.clone(),
        };
        let out = unit.query_loc(memo, loc, &mut resolver, stats);
        self.units.insert(key, unit);
        out
    }

    /// The entry states reaching each procedure under the current program,
    /// discovered by walking call sites callers-first and evaluating each
    /// site's pre-state on demand. The walk itself populates summaries, so
    /// subsequent queries are cheap.
    fn discover_entries(
        &mut self,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<HashMap<Symbol, Vec<D>>, DaigError> {
        if let Some(cached) = &self.entries_cache {
            return Ok(cached.clone());
        }
        let mut entries: HashMap<Symbol, Vec<D>> = HashMap::new();
        entries.insert(self.entry_fn.clone(), vec![self.phi0.clone()]);
        // Callers first (topo_order is callees-first).
        let order: Vec<Symbol> = self.program.topo_order().iter().rev().cloned().collect();
        for f in order {
            let Some(cfg) = self.program.by_name(f.as_str()) else {
                continue;
            };
            let call_edges: Vec<(EdgeId, Loc, Stmt)> = cfg
                .edges()
                .filter(|e| e.stmt.is_call())
                .map(|e| (e.id, e.src, e.stmt.clone()))
                .collect();
            let f_entries = entries.get(&f).cloned().unwrap_or_default();
            for fe in f_entries {
                for (edge, src, stmt) in &call_edges {
                    let Some(callee) = stmt.callee() else {
                        continue;
                    };
                    if self.program.by_name(callee.as_str()).is_none() {
                        continue;
                    }
                    let pre = self.query_loc_of(&f, &fe, *src, memo, stats)?;
                    if pre.is_bottom() {
                        continue; // dead call site under this entry
                    }
                    let Stmt::Call { lhs, callee, args } = stmt else {
                        unreachable!()
                    };
                    let params: Vec<Symbol> = self
                        .program
                        .by_name(callee.as_str())
                        .expect("checked above")
                        .params()
                        .to_vec();
                    let site_key = format!("{f}:{edge}");
                    let site = CallSite {
                        lhs: lhs.as_ref(),
                        callee,
                        args: args.as_slice(),
                        site_key: &site_key,
                    };
                    let contribution = pre.call_entry(site, &params);
                    let slot = entries.entry(callee.clone()).or_default();
                    if !slot.contains(&contribution) {
                        slot.push(contribution);
                    }
                }
            }
        }
        self.entries_cache = Some(entries.clone());
        Ok(entries)
    }

    /// The entry states reaching `f` under the current program. Empty when
    /// `f` is unreachable from the entry function.
    ///
    /// # Errors
    ///
    /// Returns [`DaigError`] on internal failures while evaluating callers.
    pub fn entries_of(&mut self, f: &str) -> Result<Vec<D>, DaigError> {
        let mut memo = std::mem::take(&mut self.memo);
        let mut stats = QueryStats::default();
        let result = self.discover_entries(&mut memo, &mut stats);
        self.memo = memo;
        self.stats.absorb(stats);
        Ok(result?.remove(&Symbol::new(f)).unwrap_or_default())
    }

    /// The abstract state at `loc` of `f`, per entry state reaching `f`.
    ///
    /// # Errors
    ///
    /// Returns [`DaigError`] for unknown functions/locations or internal
    /// failures.
    pub fn query_at(&mut self, f: &str, loc: Loc) -> Result<Vec<(D, D)>, DaigError> {
        let fsym = Symbol::new(f);
        let mut memo = std::mem::take(&mut self.memo);
        let mut stats = QueryStats::default();
        let result = (|| {
            let entries = self
                .discover_entries(&mut memo, &mut stats)?
                .remove(&fsym)
                .unwrap_or_default();
            let mut out = Vec::new();
            for entry in entries {
                let v = self.query_loc_of(&fsym, &entry, loc, &mut memo, &mut stats)?;
                out.push((entry, v));
            }
            Ok(out)
        })();
        self.memo = memo;
        self.stats.absorb(stats);
        result
    }

    /// Like [`SummaryAnalyzer::query_at`] but joined over entries.
    ///
    /// # Errors
    ///
    /// See [`SummaryAnalyzer::query_at`].
    pub fn query_joined(&mut self, f: &str, loc: Loc) -> Result<D, DaigError> {
        let per_entry = self.query_at(f, loc)?;
        let mut acc = D::bottom();
        for (_, v) in per_entry {
            acc = acc.join(&v);
        }
        Ok(acc)
    }

    /// Applies an in-place statement relabel to `f`, invalidating exactly
    /// the summaries that can observe it (those of `f` and of its
    /// transitive callers).
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] for unknown edges and call-graph violations;
    /// the analyzer is then unchanged.
    pub fn relabel(&mut self, f: &str, edge: EdgeId, stmt: Stmt) -> Result<(), CfgError> {
        self.program.relabel(f, edge, stmt.clone())?;
        for ((g, _), unit) in self.units.iter_mut() {
            if g.as_str() == f {
                unit.relabel(edge, stmt.clone())?;
            }
        }
        self.invalidate_after_edit(f);
        Ok(())
    }

    /// Applies a block splice to `f` (the §7.3 insertion edit), with the
    /// same invalidation rule as [`SummaryAnalyzer::relabel`].
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] for unknown edges, non-falling blocks, and
    /// call-graph violations; the analyzer is then unchanged.
    pub fn splice(&mut self, f: &str, edge: EdgeId, block: &Block) -> Result<SpliceInfo, CfgError> {
        let info = self.program.splice(f, edge, block)?;
        for ((g, _), unit) in self.units.iter_mut() {
            if g.as_str() == f {
                unit.splice(edge, block)?;
            }
        }
        self.invalidate_after_edit(f);
        Ok(info)
    }

    /// Summary invalidation for an edit to `f`: summaries (and post-call
    /// results) of `f` and its transitive callers — exactly the procedures
    /// whose summaries can observe the edit — are dropped; everything
    /// else, including summaries of `f`'s *callees*, survives.
    fn invalidate_after_edit(&mut self, f: &str) {
        let affected = self.program.transitive_callers(f);
        self.summaries.retain(|(g, _), _| !affected.contains(g));
        self.entries_cache = None;
        let units = self.units.iter_mut().map(|((g, _), unit)| (g, unit));
        crate::interproc::dirty_calls_reaching(&self.program, f, units);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interproc::{ContextPolicy, InterAnalyzer};
    use dai_domains::interval::Interval;
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;

    type D = IntervalDomain;

    fn analyzer(src: &str) -> SummaryAnalyzer<D> {
        let program = lower_program(&parse_program(src).unwrap()).unwrap();
        SummaryAnalyzer::new(program, "main", IntervalDomain::top())
    }

    fn exit_of(an: &SummaryAnalyzer<D>, f: &str) -> Loc {
        an.program().by_name(f).unwrap().exit()
    }

    const CHAIN: &str = r#"
        function f3(z) { return z; }
        function f2(y) { var r = f3(y); return r; }
        function f1(x) { var r = f2(x); return r; }
        function main() {
            var a = f1(1);
            var b = f1(2);
            return a + b;
        }
    "#;

    #[test]
    fn functional_is_exact_through_deep_chains() {
        let mut an = analyzer(CHAIN);
        let exit = exit_of(&an, "main");
        let v = an.query_joined("main", exit).unwrap();
        // Functional summaries keep the two chains apart: a = 1, b = 2.
        assert_eq!(v.interval_of("a"), Interval::constant(1));
        assert_eq!(v.interval_of("b"), Interval::constant(2));
    }

    #[test]
    fn two_call_strings_merge_where_functional_does_not() {
        // Under 2-call-strings, f3 has a *single* context for both chains —
        // the two distinguishing main-callsites are truncated away, leaving
        // [(f2, call), (f1, call)] either way — so its entry joins {1, 2}.
        let program = lower_program(&parse_program(CHAIN).unwrap()).unwrap();
        let mut cs = InterAnalyzer::<D>::new(
            program,
            ContextPolicy::CallString(2),
            "main",
            IntervalDomain::top(),
        );
        let f3_exit = cs.program().by_name("f3").unwrap().exit();
        let per_ctx = cs.query_at("f3", f3_exit).unwrap();
        assert_eq!(
            per_ctx.len(),
            1,
            "k=2 collapses both chains into one context"
        );
        assert_eq!(per_ctx[0].1.interval_of("z"), Interval::of(1, 2));

        // The functional analyzer keeps the two entries apart and is exact
        // in each — the precision-separation witness.
        let mut fa = analyzer(CHAIN);
        let per_entry = fa.query_at("f3", f3_exit).unwrap();
        assert_eq!(per_entry.len(), 2, "two distinct entries reach f3");
        let mut zs: Vec<Interval> = per_entry.iter().map(|(_, v)| v.interval_of("z")).collect();
        zs.sort_by_key(|iv| format!("{iv}"));
        assert_eq!(zs, vec![Interval::constant(1), Interval::constant(2)]);
    }

    #[test]
    fn identical_entries_share_one_summary() {
        let mut an = analyzer(
            r#"
            function g(x) { return x * 2; }
            function main() {
                var a = g(7);
                var b = g(7);
                var c = g(9);
                return a + b + c;
            }
        "#,
        );
        let exit = exit_of(&an, "main");
        let v = an.query_joined("main", exit).unwrap();
        assert_eq!(v.interval_of("a"), Interval::constant(14));
        assert_eq!(v.interval_of("b"), Interval::constant(14));
        assert_eq!(v.interval_of("c"), Interval::constant(18));
        // Two distinct entries (7 and 9) → two summaries; the second g(7)
        // call is a summary hit.
        assert_eq!(an.summary_count(), 2);
        assert!(an.summary_stats().hits >= 1, "{:?}", an.summary_stats());
    }

    #[test]
    fn entries_of_reports_distinct_entries() {
        let mut an = analyzer(CHAIN);
        let e1 = an.entries_of("f3").unwrap();
        assert_eq!(e1.len(), 2, "two distinct entries reach f3");
        let e_main = an.entries_of("main").unwrap();
        assert_eq!(e_main.len(), 1);
        assert!(an.entries_of("nosuch").unwrap().is_empty());
    }

    #[test]
    fn editing_callee_invalidates_caller_summaries_only() {
        let mut an = analyzer(
            r#"
            function leaf(z) { return z + 1; }
            function mid(y) { var r = leaf(y); return r; }
            function other(w) { return w * 3; }
            function main() {
                var a = mid(10);
                var b = other(5);
                return a + b;
            }
        "#,
        );
        let exit = exit_of(&an, "main");
        let before = an.query_joined("main", exit).unwrap();
        assert_eq!(before.interval_of("a"), Interval::constant(11));
        assert_eq!(before.interval_of("b"), Interval::constant(15));
        let summaries_before = an.summary_count();

        // Edit leaf: z + 1 → z + 100.
        let ret_edge = an
            .program()
            .by_name("leaf")
            .unwrap()
            .edges()
            .find(|e| e.stmt.to_string().contains("__ret"))
            .unwrap()
            .id;
        an.relabel(
            "leaf",
            ret_edge,
            Stmt::Assign(
                dai_lang::RETURN_VAR.into(),
                dai_lang::parse_expr("z + 100").unwrap(),
            ),
        )
        .unwrap();

        // `other`'s summary survived; leaf/mid/main summaries were dropped.
        assert!(an.summary_count() < summaries_before);
        let other_alive = an.summaries.keys().any(|(g, _)| g.as_str() == "other");
        assert!(other_alive, "unaffected summary must survive the edit");

        let after = an.query_joined("main", exit).unwrap();
        assert_eq!(after.interval_of("a"), Interval::constant(110));
        assert_eq!(after.interval_of("b"), Interval::constant(15));
    }

    #[test]
    fn agrees_with_call_strings_when_no_merging_occurs() {
        const SRC: &str = r#"
            function inc(x) { return x + 1; }
            function main() {
                var s = 0;
                var i = 0;
                while (i < 4) { var t = inc(i); s = s + t; i = i + 1; }
                return s;
            }
        "#;
        let program = lower_program(&parse_program(SRC).unwrap()).unwrap();
        let mut fa = SummaryAnalyzer::<D>::new(program.clone(), "main", IntervalDomain::top());
        let mut cs = InterAnalyzer::<D>::new(
            program,
            ContextPolicy::CallString(1),
            "main",
            IntervalDomain::top(),
        );
        let exit = fa.program().by_name("main").unwrap().exit();
        let a = fa.query_joined("main", exit).unwrap();
        let b = cs.query_joined("main", exit).unwrap();
        // One call site: k-call-strings do not merge anything here, but the
        // functional entry is the widened loop state, so results may only
        // differ in the functional analyzer's favor. Both must contain the
        // concrete result (soundness) and agree at `__ret`.
        assert!(!a.is_bottom() && !b.is_bottom());
        assert!(a.interval_of(dai_lang::RETURN_VAR).contains(10));
        assert!(b.interval_of(dai_lang::RETURN_VAR).contains(10));
    }

    #[test]
    fn bottom_pre_state_short_circuits_calls() {
        let mut an = analyzer(
            r#"
            function g(x) { return x; }
            function main() {
                var a = 0;
                while (a >= 0) { a = a + 1; }
                var dead = g(a);
                return dead;
            }
        "#,
        );
        // The loop never exits, so the call site is dead and g gets no
        // entries.
        let entries = an.entries_of("g").unwrap();
        assert!(
            entries.is_empty(),
            "dead call site must contribute no entry"
        );
        assert_eq!(an.summary_count(), 0);
    }

    #[test]
    fn purge_drops_state_but_preserves_answers() {
        let mut an = analyzer(CHAIN);
        let exit = exit_of(&an, "main");
        let before = an.query_joined("main", exit).unwrap();
        assert!(an.unit_count() > 0 && an.summary_count() > 0);
        an.purge();
        assert_eq!(an.unit_count(), 0);
        assert_eq!(an.summary_count(), 0);
        let after = an.query_joined("main", exit).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn splice_into_callee_updates_summaries() {
        let mut an = analyzer(
            r#"
            function g(x) { return x; }
            function main() { var a = g(1); return a; }
        "#,
        );
        let exit = exit_of(&an, "main");
        assert_eq!(
            an.query_joined("main", exit).unwrap().interval_of("a"),
            Interval::constant(1)
        );
        let ret_edge = an
            .program()
            .by_name("g")
            .unwrap()
            .edges()
            .find(|e| e.stmt.to_string().contains("__ret"))
            .unwrap()
            .id;
        an.splice(
            "g",
            ret_edge,
            &dai_lang::parser::parse_block("x = x + 41;").unwrap(),
        )
        .unwrap();
        assert_eq!(
            an.query_joined("main", exit).unwrap().interval_of("a"),
            Interval::constant(42)
        );
    }
}
