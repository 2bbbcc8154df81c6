//! Per-query cost attribution over the demanded cone — `EXPLAIN ANALYZE`
//! for demanded abstract interpretation.
//!
//! The paper's demanded cone *is* a query plan: the set of cells a query
//! forces (`Q-Miss`), matches (`Q-Match`), or reuses (`Q-Reuse`), plus the
//! fix cells it iterates (`Q-Loop-Converge` / `Q-Loop-Unroll`). This
//! module captures that plan's cost while it executes:
//!
//! * [`ExplainSink`] rides the evaluation path — the evaluator
//!   ([`crate::analysis::FuncAnalysis::evaluate`]) feeds it one
//!   record per demanded cell (outcome class, wall time, compiled vs.
//!   interpreted transfer) and one accumulated record per fix cell
//!   (widening iterations, unroll depth);
//! * the sink folds per-cell finish times along dependency edges, so the
//!   **critical path (span)** through the cone's DAG falls out of the
//!   same traversal the evaluator already does in dependency order:
//!   `finish(c) = wall(c) + max(finish(src) for src in inputs)`;
//! * [`ExplainReport`] is the finished, domain-erased artifact: total
//!   work, span, the work/span parallelism ratio (the ceiling an
//!   intra-query fan-out could have reached; one thread evaluates a
//!   query today), per-outcome breakdowns, and the hottest cells.
//!
//! Attribution is accounting-honest by construction: every record in
//! `cells` corresponds to exactly one `computed` / `memo_matched` /
//! `reused` bump in [`QueryStats`], and every [`FixCost`] iteration to
//! one `fix_converged` or `unrolls` bump — tests enforce the identity.

use std::collections::HashMap;

use crate::graph::Daig;
use crate::intern::CellId;
use crate::query::QueryStats;
use dai_domains::AbstractDomain;

/// How a demanded cell's value was obtained (the Fig. 8 rule that fired).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellOutcome {
    /// `Q-Miss`: the computation actually ran.
    Computed,
    /// `Q-Match`: the memo table supplied the value.
    MemoMatched,
    /// `Q-Reuse`: the cell (or its whole resolution) was already filled.
    Reused,
}

impl CellOutcome {
    /// Stable lowercase tag, used in rendering and JSON.
    pub fn tag(self) -> &'static str {
        match self {
            CellOutcome::Computed => "computed",
            CellOutcome::MemoMatched => "memo_matched",
            CellOutcome::Reused => "reused",
        }
    }
}

/// One demanded cell's attribution record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCost {
    /// The cell's name (rendered; reports are domain- and id-erased).
    pub cell: String,
    /// Which Fig. 8 rule produced the value.
    pub outcome: CellOutcome,
    /// Whether a staged (compiled) transfer served the computation.
    pub compiled: bool,
    /// Wall time spent evaluating this cell, in nanoseconds. Zero for
    /// reused cells — reuse is the whole point of the DAIG.
    pub wall_ns: u64,
    /// Critical-path finish time: this cell's wall time plus the maximum
    /// finish time of its inputs. The cone's span is the maximum finish
    /// over all cells.
    pub finish_ns: u64,
}

/// One fix cell's accumulated attribution across its widening iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixCost {
    /// The fix cell's name.
    pub cell: String,
    /// Number of `fix` resolutions attempted (convergence checks).
    pub iters: u64,
    /// Number of `Q-Loop-Unroll` steps taken (unroll depth reached).
    pub unrolls: u64,
    /// Wall time spent in fix resolution (checks + splicing), in ns.
    pub wall_ns: u64,
    /// Whether the loop reached `Q-Loop-Converge` during this evaluation.
    pub converged: bool,
}

/// A finished, domain-erased attribution report for one query batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExplainReport {
    /// The abstract domain's stable tag ("interval", "octagon", …).
    pub domain: String,
    /// Transfer evaluation mode at capture time ("compiled" | "interp").
    pub transfer: String,
    /// Per-cell records in evaluation order (union cone of the batch).
    pub cells: Vec<CellCost>,
    /// Per-fix-cell records, completed (converged) fixes first.
    pub fixes: Vec<FixCost>,
    /// Total attributed evaluation work, in ns (cells + fix steps).
    pub work_ns: u64,
    /// Critical path through the dependency DAG, in ns.
    pub span_ns: u64,
    /// Time spent waiting to acquire the session lock, in ns.
    pub lock_wait_ns: u64,
    /// Time the session lock was held, in ns.
    pub lock_held_ns: u64,
    /// Time inside evaluation proper (resolution + scheduling), in ns.
    pub eval_ns: u64,
}

impl ExplainReport {
    /// Number of cells with the given outcome.
    pub fn outcome_cells(&self, outcome: CellOutcome) -> u64 {
        self.cells.iter().filter(|c| c.outcome == outcome).count() as u64
    }

    /// Wall time attributed to cells with the given outcome, in ns.
    pub fn outcome_ns(&self, outcome: CellOutcome) -> u64 {
        self.cells
            .iter()
            .filter(|c| c.outcome == outcome)
            .map(|c| c.wall_ns)
            .sum()
    }

    /// Wall time attributed to fix resolution, in ns.
    pub fn fix_ns(&self) -> u64 {
        self.fixes.iter().map(|f| f.wall_ns).sum()
    }

    /// Total unroll depth across all fix cells.
    pub fn unrolls(&self) -> u64 {
        self.fixes.iter().map(|f| f.unrolls).sum()
    }

    /// Number of fix cells that converged during this evaluation.
    pub fn converged_fixes(&self) -> u64 {
        self.fixes.iter().filter(|f| f.converged).count() as u64
    }

    /// The work/span parallelism ratio — the recorded ceiling an
    /// intra-query cell fan-out could have reached on this cone. One
    /// thread evaluates a query, so this ratio is how anyone wanting a
    /// fan-out must justify it: a cone has to show real headroom here
    /// first. `1.0` when no timed work was captured (an all-reused warm
    /// batch has no span).
    pub fn parallelism(&self) -> f64 {
        if self.span_ns == 0 {
            1.0
        } else {
            self.work_ns as f64 / self.span_ns as f64
        }
    }

    /// The `n` hottest cells by wall time, descending (ties by name so
    /// the order is deterministic).
    pub fn hottest(&self, n: usize) -> Vec<&CellCost> {
        let mut by_heat: Vec<&CellCost> = self.cells.iter().filter(|c| c.wall_ns > 0).collect();
        by_heat.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then_with(|| a.cell.cmp(&b.cell)));
        by_heat.truncate(n);
        by_heat
    }

    /// Verifies the accounting identity against a [`QueryStats`] delta
    /// covering the same evaluation: per-outcome cell counts must equal
    /// the counters, converged fixes must equal `fix_converged`, and the
    /// total unroll depth must equal `unrolls`. Returns the first
    /// discrepancy as text.
    pub fn check_accounting(&self, delta: &QueryStats) -> Result<(), String> {
        let pairs = [
            (CellOutcome::Computed, delta.computed, "computed"),
            (CellOutcome::MemoMatched, delta.memo_matched, "memo_matched"),
            (CellOutcome::Reused, delta.reused, "reused"),
        ];
        for (outcome, counter, what) in pairs {
            let attributed = self.outcome_cells(outcome);
            if attributed != counter {
                return Err(format!(
                    "explain attributed {attributed} {what} cells but QueryStats counted {counter}"
                ));
            }
        }
        if self.converged_fixes() != delta.fix_converged {
            return Err(format!(
                "explain attributed {} converged fixes but QueryStats counted {}",
                self.converged_fixes(),
                delta.fix_converged
            ));
        }
        if self.unrolls() != delta.unrolls {
            return Err(format!(
                "explain attributed {} unrolls but QueryStats counted {}",
                self.unrolls(),
                delta.unrolls
            ));
        }
        Ok(())
    }

    /// Renders the report as a human-readable text block with the `top`
    /// hottest cells.
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explain: domain {} · transfers {} · {} cells ({} computed / {} memo / {} reused) · {} fixes",
            self.domain,
            self.transfer,
            self.cells.len(),
            self.outcome_cells(CellOutcome::Computed),
            self.outcome_cells(CellOutcome::MemoMatched),
            self.outcome_cells(CellOutcome::Reused),
            self.fixes.len(),
        );
        let _ = writeln!(
            out,
            "  work {} · span {} · parallelism {:.2}x",
            fmt_ns(self.work_ns),
            fmt_ns(self.span_ns),
            self.parallelism()
        );
        let _ = writeln!(
            out,
            "  lock wait {} · lock held {} · eval {}",
            fmt_ns(self.lock_wait_ns),
            fmt_ns(self.lock_held_ns),
            fmt_ns(self.eval_ns)
        );
        let _ = writeln!(
            out,
            "  by outcome: computed {} · memo {} · fix {}",
            fmt_ns(self.outcome_ns(CellOutcome::Computed)),
            fmt_ns(self.outcome_ns(CellOutcome::MemoMatched)),
            fmt_ns(self.fix_ns())
        );
        let mut rows: Vec<[String; 4]> = Vec::new();
        for c in self.hottest(top) {
            rows.push([
                c.cell.clone(),
                c.outcome.tag().to_string(),
                if c.compiled { "compiled" } else { "-" }.to_string(),
                fmt_ns(c.wall_ns),
            ]);
        }
        if !rows.is_empty() {
            let _ = writeln!(out, "  hottest cells:");
            out.push_str(&dai_trace::render_table(
                &["cell", "outcome", "transfer", "wall"],
                &rows,
                "    ",
            ));
        }
        for f in &self.fixes {
            let _ = writeln!(
                out,
                "  fix {}: {} iter(s), {} unroll(s), {}{}",
                f.cell,
                f.iters,
                f.unrolls,
                fmt_ns(f.wall_ns),
                if f.converged { "" } else { " (not converged)" }
            );
        }
        out
    }

    /// Renders the report as a single-line JSON object (hand-rolled, like
    /// every other artifact in the workspace — no serde dependency).
    pub fn to_json(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"domain\":\"{}\",\"transfer\":\"{}\",\"cells\":{},\"computed\":{},\
             \"memo_matched\":{},\"reused\":{},\"fixes\":{},\"converged_fixes\":{},\
             \"unrolls\":{},\"work_ns\":{},\"span_ns\":{},\"parallelism\":{:.3},\
             \"lock_wait_ns\":{},\"lock_held_ns\":{},\"eval_ns\":{},\
             \"computed_ns\":{},\"memo_matched_ns\":{},\"fix_ns\":{},\"hottest\":[",
            json_escape(&self.domain),
            json_escape(&self.transfer),
            self.cells.len(),
            self.outcome_cells(CellOutcome::Computed),
            self.outcome_cells(CellOutcome::MemoMatched),
            self.outcome_cells(CellOutcome::Reused),
            self.fixes.len(),
            self.converged_fixes(),
            self.unrolls(),
            self.work_ns,
            self.span_ns,
            self.parallelism(),
            self.lock_wait_ns,
            self.lock_held_ns,
            self.eval_ns,
            self.outcome_ns(CellOutcome::Computed),
            self.outcome_ns(CellOutcome::MemoMatched),
            self.fix_ns(),
        );
        for (i, c) in self.hottest(top).iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"cell\":\"{}\",\"outcome\":\"{}\",\"compiled\":{},\"wall_ns\":{},\
                 \"finish_ns\":{}}}",
                json_escape(&c.cell),
                c.outcome.tag(),
                c.compiled,
                c.wall_ns,
                c.finish_ns
            );
        }
        s.push_str("]}");
        s
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// An in-flight fix cell's accumulator (completed on `Q-Loop-Converge`).
#[derive(Debug, Clone)]
struct OpenFix {
    cell: String,
    iters: u64,
    unrolls: u64,
    wall_ns: u64,
}

/// The capture side of a report: the evaluator feeds it records while it
/// runs, and [`ExplainSink::finish_report`] seals the result.
///
/// Finish times are tracked in a dense `CellId`-indexed table, so the
/// sink must be told when evaluation crosses into a different function's
/// DAIG (whose ids are a separate arena) via [`ExplainSink::begin_unit`].
#[derive(Debug, Default)]
pub struct ExplainSink {
    cells: Vec<CellCost>,
    fixes: Vec<FixCost>,
    work_ns: u64,
    span_ns: u64,
    /// Per-unit critical-path finish times, `CellId`-indexed. Cells
    /// filled before this capture (reuse) implicitly finish at 0.
    finish: Vec<u64>,
    open_fixes: HashMap<usize, OpenFix>,
}

impl ExplainSink {
    /// A fresh sink.
    pub fn new() -> ExplainSink {
        ExplainSink::default()
    }

    /// Marks the start of evaluation against a different function's DAIG:
    /// finish times are per-arena and must not leak across units. Fix
    /// cells still open (unrolled but not converged here) are flushed as
    /// unconverged records.
    pub fn begin_unit(&mut self) {
        self.flush_open_fixes();
        self.finish.clear();
    }

    /// Records one ready-computation application. `delta` is the
    /// [`QueryStats`] movement of exactly this application: one
    /// `memo_matched` bump means `Q-Match`, otherwise `Q-Miss`
    /// (`computed`); a `transfers_compiled` bump marks the staged path.
    pub fn record_applied<D: AbstractDomain>(
        &mut self,
        daig: &Daig<D>,
        id: CellId,
        delta: &QueryStats,
        wall_ns: u64,
    ) {
        let outcome = if delta.memo_matched > 0 {
            CellOutcome::MemoMatched
        } else {
            CellOutcome::Computed
        };
        let finish_ns = wall_ns + self.input_finish(daig, id);
        self.set_finish(id, finish_ns);
        self.work_ns += wall_ns;
        self.span_ns = self.span_ns.max(finish_ns);
        self.cells.push(CellCost {
            cell: daig.name_of(id).to_string(),
            outcome,
            compiled: delta.transfers_compiled > 0,
            wall_ns,
            finish_ns,
        });
    }

    /// Records a `Q-Reuse`: the cell (or the query's whole cached
    /// resolution) was already filled, costing nothing now.
    pub fn record_reused(&mut self, cell: String) {
        self.cells.push(CellCost {
            cell,
            outcome: CellOutcome::Reused,
            compiled: false,
            wall_ns: 0,
            finish_ns: 0,
        });
    }

    /// Records one `fix` resolution step on `id`. Steps accumulate into
    /// one [`FixCost`] per fix cell, sealed when the loop converges (or
    /// flushed unconverged at unit/report boundaries).
    pub fn record_fix_step<D: AbstractDomain>(
        &mut self,
        daig: &Daig<D>,
        id: CellId,
        wall_ns: u64,
        converged: bool,
    ) {
        self.work_ns += wall_ns;
        let entry = self.open_fixes.entry(id.idx()).or_insert_with(|| OpenFix {
            cell: daig.name_of(id).to_string(),
            iters: 0,
            unrolls: 0,
            wall_ns: 0,
        });
        entry.iters += 1;
        entry.wall_ns += wall_ns;
        if converged {
            let open = self
                .open_fixes
                .remove(&id.idx())
                .expect("entry just inserted");
            // The fix wrote its destination: it joins the critical path
            // at its total accumulated cost on top of its final iterates.
            let finish_ns = open.wall_ns + self.input_finish(daig, id);
            self.set_finish(id, finish_ns);
            self.span_ns = self.span_ns.max(finish_ns);
            self.fixes.push(FixCost {
                cell: open.cell,
                iters: open.iters,
                unrolls: open.unrolls,
                wall_ns: open.wall_ns,
                converged: true,
            });
        } else {
            entry.unrolls += 1;
        }
    }

    /// Seals the capture into a report. `domain`/`transfer` tag the
    /// engine context; the three timings come from the serving path.
    pub fn finish_report(
        mut self,
        domain: String,
        transfer: String,
        lock_wait_ns: u64,
        lock_held_ns: u64,
        eval_ns: u64,
    ) -> ExplainReport {
        self.flush_open_fixes();
        ExplainReport {
            domain,
            transfer,
            cells: self.cells,
            fixes: self.fixes,
            work_ns: self.work_ns,
            span_ns: self.span_ns,
            lock_wait_ns,
            lock_held_ns,
            eval_ns,
        }
    }

    fn flush_open_fixes(&mut self) {
        if self.open_fixes.is_empty() {
            return;
        }
        let mut open: Vec<OpenFix> = self.open_fixes.drain().map(|(_, f)| f).collect();
        open.sort_by(|a, b| a.cell.cmp(&b.cell));
        for f in open {
            self.fixes.push(FixCost {
                cell: f.cell,
                iters: f.iters,
                unrolls: f.unrolls,
                wall_ns: f.wall_ns,
                converged: false,
            });
        }
    }

    fn input_finish<D: AbstractDomain>(&self, daig: &Daig<D>, id: CellId) -> u64 {
        daig.comp_slot(id)
            .map(|comp| {
                comp.srcs
                    .iter()
                    .map(|s| self.finish.get(s.idx()).copied().unwrap_or(0))
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }

    fn set_finish(&mut self, id: CellId, finish_ns: u64) {
        if id.idx() >= self.finish.len() {
            self.finish.resize(id.idx() + 1, 0);
        }
        self.finish[id.idx()] = finish_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalysis;
    use dai_domains::IntervalDomain;

    fn sink_with_chain() -> (ExplainSink, FuncAnalysis<IntervalDomain>) {
        let program =
            dai_lang::parse_program("function f(n) { var i = 0; var j = i + 1; return j; }")
                .unwrap();
        let cfg = dai_lang::cfg::lower_program(&program).unwrap().cfgs()[0].clone();
        let fa = FuncAnalysis::new(cfg, IntervalDomain::top());
        (ExplainSink::new(), fa)
    }

    #[test]
    fn span_is_longest_weighted_path_not_total_work() {
        let (mut sink, fa) = sink_with_chain();
        let daig = fa.daig();
        // Three filled-input cells: two independent (10ns, 30ns) and one
        // depending on whichever the graph wires — we fake the DAG by
        // recording ids with no computations (finish = own wall) plus one
        // real dependent. Simplest honest check: independent cells give
        // span = max(wall), work = sum(wall).
        let ids: Vec<CellId> = daig
            .ids()
            .filter(|id| daig.comp_slot(*id).is_none())
            .take(2)
            .collect();
        assert_eq!(ids.len(), 2, "fixture needs two source cells");
        let delta = QueryStats {
            computed: 1,
            ..QueryStats::default()
        };
        sink.record_applied(daig, ids[0], &delta, 10);
        sink.record_applied(daig, ids[1], &delta, 30);
        let report = sink.finish_report("interval".into(), "compiled".into(), 1, 2, 3);
        assert_eq!(report.work_ns, 40);
        assert_eq!(report.span_ns, 30);
        assert!(report.parallelism() > 1.3 && report.parallelism() < 1.34);
    }

    #[test]
    fn finish_times_propagate_along_dependencies() {
        let (mut sink, fa) = sink_with_chain();
        let daig = fa.daig();
        // Pick a real computation cell and one of its sources.
        let dep = daig
            .ids()
            .find(|id| daig.comp_slot(*id).is_some_and(|c| !c.srcs.is_empty()))
            .expect("fixture has a computation");
        let src = daig.comp_slot(dep).unwrap().srcs[0];
        let delta = QueryStats {
            computed: 1,
            ..QueryStats::default()
        };
        sink.record_applied(daig, src, &delta, 100);
        sink.record_applied(daig, dep, &delta, 7);
        let report = sink.finish_report("interval".into(), "interp".into(), 0, 0, 0);
        assert_eq!(report.span_ns, 107, "dependent chains, not max of walls");
        assert_eq!(report.cells[1].finish_ns, 107);
    }

    #[test]
    fn accounting_identity_checks_both_directions() {
        let (mut sink, fa) = sink_with_chain();
        let daig = fa.daig();
        let id = daig.ids().next().expect("fixture has cells");
        let computed = QueryStats {
            computed: 1,
            ..QueryStats::default()
        };
        let matched = QueryStats {
            memo_matched: 1,
            ..QueryStats::default()
        };
        sink.record_applied(daig, id, &computed, 5);
        sink.record_applied(daig, id, &matched, 5);
        sink.record_reused("f:sigma".to_string());
        let report = sink.finish_report("interval".into(), "compiled".into(), 0, 0, 0);
        let good = QueryStats {
            computed: 1,
            memo_matched: 1,
            reused: 1,
            ..QueryStats::default()
        };
        assert_eq!(report.check_accounting(&good), Ok(()));
        let bad = QueryStats {
            computed: 2,
            ..QueryStats::default()
        };
        assert!(report.check_accounting(&bad).is_err());
    }

    #[test]
    fn unit_boundaries_do_not_leak_finish_times() {
        let (mut sink, fa) = sink_with_chain();
        let daig = fa.daig();
        let dep = daig
            .ids()
            .find(|id| daig.comp_slot(*id).is_some_and(|c| !c.srcs.is_empty()))
            .expect("fixture has a computation");
        let src = daig.comp_slot(dep).unwrap().srcs[0];
        let delta = QueryStats {
            computed: 1,
            ..QueryStats::default()
        };
        sink.record_applied(daig, src, &delta, 1_000);
        sink.begin_unit(); // a different function's arena starts here
        sink.record_applied(daig, dep, &delta, 5);
        let report = sink.finish_report("interval".into(), "compiled".into(), 0, 0, 0);
        // Without the unit boundary this would be 1005.
        assert_eq!(report.cells[1].finish_ns, 5);
    }

    #[test]
    fn fix_steps_accumulate_and_seal_on_convergence() {
        let (mut sink, fa) = sink_with_chain();
        let daig = fa.daig();
        let id = daig.ids().next().expect("fixture has cells");
        sink.record_fix_step(daig, id, 10, false);
        sink.record_fix_step(daig, id, 10, false);
        sink.record_fix_step(daig, id, 5, true);
        let report = sink.finish_report("interval".into(), "compiled".into(), 0, 0, 0);
        assert_eq!(report.fixes.len(), 1);
        let f = &report.fixes[0];
        assert_eq!(
            (f.iters, f.unrolls, f.wall_ns, f.converged),
            (3, 2, 25, true)
        );
        assert_eq!(report.unrolls(), 2);
        assert_eq!(report.converged_fixes(), 1);
        assert_eq!(report.work_ns, 25);
    }

    #[test]
    fn render_and_json_are_total() {
        let (mut sink, fa) = sink_with_chain();
        let daig = fa.daig();
        let delta = QueryStats {
            computed: 1,
            transfers_compiled: 1,
            ..QueryStats::default()
        };
        let mut ids = daig.ids();
        let first = ids.next().expect("fixture has cells");
        let second = ids.next().expect("fixture has two cells");
        sink.record_applied(daig, first, &delta, 1_500);
        sink.record_fix_step(daig, second, 10, false);
        let report = sink.finish_report("octagon".into(), "compiled".into(), 10, 20, 30);
        let text = report.render(5);
        assert!(text.contains("octagon"), "{text}");
        assert!(text.contains("not converged"), "{text}");
        let json = report.to_json(5);
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"parallelism\":"), "{json}");
    }
}
