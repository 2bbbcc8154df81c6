//! The interned-id DAIG representation (PR 2) against the Name-keyed
//! semantics it replaced.
//!
//! Two layers of evidence:
//!
//! 1. **Graph-level model agreement** — a `ModelDaig` reimplementing the
//!    original `HashMap<Name, …>`/`BTreeSet<Name>` graph is driven
//!    through random operation sequences in lock-step with the interned
//!    [`dai_core::Daig`]; every observable (`contains`, `value`, `comp`,
//!    `dependents`, counts, the ready frontier) must agree after every
//!    step, including cell removal and id-resurrecting re-adds.
//! 2. **Pipeline-level representation independence** — random
//!    build/edit/unroll/query histories leave the graph with interning
//!    orders that depend on the whole history; a freshly built analysis
//!    of the final program must nevertheless produce identical
//!    `value(&Name)` answers for every cell *and* byte-identical DOT
//!    export after full evaluation.
//!
//! Plus the incrementality regression check: an evaluation whose loops
//! unroll N times still counts as one demanded-cone walk
//! (`QueryStats::cone_walks`); dai-core's own tests bound the cells it
//! visits.

use dai_bench::workload::Workload;
use dai_core::analysis::FuncAnalysis;
use dai_core::dot::{to_dot, DotOptions};
use dai_core::graph::{Daig, Func, Value};
use dai_core::name::{IterCtx, Name};
use dai_core::query::{IntraResolver, QueryStats};
use dai_domains::IntervalDomain;
use dai_lang::{EdgeId, Loc, Stmt};
use dai_memo::MemoTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};

type D = IntervalDomain;

// ---------------------------------------------------------------------
// Layer 1: the Name-keyed reference model (the pre-interning Daig).
// ---------------------------------------------------------------------

#[derive(Default)]
struct ModelDaig {
    cells: HashMap<Name, Option<Value<D>>>,
    comps: HashMap<Name, (Func, Vec<Name>)>,
    dependents: HashMap<Name, BTreeSet<Name>>,
}

impl ModelDaig {
    fn add_cell(&mut self, n: Name, v: Option<Value<D>>) {
        self.cells.insert(n, v);
    }

    fn write(&mut self, n: &Name, v: Value<D>) {
        if let Some(slot) = self.cells.get_mut(n) {
            *slot = Some(v);
        }
    }

    fn clear(&mut self, n: &Name) {
        if let Some(slot) = self.cells.get_mut(n) {
            *slot = None;
        }
    }

    fn add_comp(&mut self, dest: Name, func: Func, srcs: Vec<Name>) {
        self.remove_comp(&dest);
        for s in &srcs {
            self.dependents
                .entry(s.clone())
                .or_default()
                .insert(dest.clone());
        }
        self.comps.insert(dest, (func, srcs));
    }

    fn remove_comp(&mut self, dest: &Name) {
        if let Some((_, srcs)) = self.comps.remove(dest) {
            for s in &srcs {
                if let Some(ds) = self.dependents.get_mut(s) {
                    ds.remove(dest);
                    if ds.is_empty() {
                        self.dependents.remove(s);
                    }
                }
            }
        }
    }

    fn remove_cell(&mut self, n: &Name) {
        self.remove_comp(n);
        self.cells.remove(n);
    }

    fn value(&self, n: &Name) -> Option<&Value<D>> {
        self.cells.get(n).and_then(|v| v.as_ref())
    }

    fn ready_frontier(&self) -> BTreeSet<Name> {
        // The namespace is the cell map: a computation whose destination
        // cell was never added (or was removed) is latent until the cell
        // (re)appears.
        self.comps
            .iter()
            .filter(|(dest, (_, srcs))| {
                self.cells.contains_key(*dest)
                    && self.value(dest).is_none()
                    && srcs.iter().all(|s| self.value(s).is_some())
            })
            .map(|(dest, _)| dest.clone())
            .collect()
    }
}

fn name_pool() -> Vec<Name> {
    let mut pool = Vec::new();
    for l in 0..6u32 {
        pool.push(Name::State {
            loc: Loc(l),
            ctx: IterCtx::root(),
        });
        pool.push(Name::State {
            loc: Loc(l),
            ctx: IterCtx::root().push(Loc(l), l % 3),
        });
        pool.push(Name::Stmt(EdgeId(l)));
        pool.push(Name::PreJoin {
            edge: EdgeId(l),
            ctx: IterCtx::root(),
        });
        pool.push(Name::PreWiden {
            head: Loc(l),
            ctx: IterCtx::root().push(Loc(l), 0),
        });
    }
    pool
}

fn random_value(rng: &mut StdRng) -> Value<D> {
    if rng.gen_range(0..4usize) == 0 {
        Value::Stmt(Stmt::Skip)
    } else {
        Value::State(IntervalDomain::top())
    }
}

/// Drives the interned graph and the Name-keyed model through the same
/// random op sequence and checks every observable after each step.
fn run_model_agreement(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = name_pool();
    let mut daig: Daig<D> = Daig::new();
    let mut model = ModelDaig::default();
    let pick = |rng: &mut StdRng| pool[rng.gen_range(0..30usize) % 30].clone();

    for step in 0..steps {
        match rng.gen_range(0..7usize) {
            0 => {
                let n = pick(&mut rng);
                let v = if rng.gen_range(0..2usize) == 0 {
                    Some(random_value(&mut rng))
                } else {
                    None
                };
                daig.add_cell(n.clone(), v.clone());
                model.add_cell(n, v);
            }
            1 => {
                let n = pick(&mut rng);
                let v = random_value(&mut rng);
                daig.write(&n, v.clone());
                model.write(&n, v);
            }
            2 => {
                let n = pick(&mut rng);
                daig.clear(&n);
                model.clear(&n);
            }
            3 => {
                let dest = pick(&mut rng);
                let arity = rng.gen_range(1..4usize);
                let srcs: Vec<Name> = (0..arity).map(|_| pick(&mut rng)).collect();
                let func =
                    [Func::Transfer, Func::Join, Func::Widen, Func::Fix][rng.gen_range(0..4usize)];
                daig.add_comp(dest.clone(), func, srcs.clone());
                model.add_comp(dest, func, srcs);
            }
            4 => {
                let n = pick(&mut rng);
                daig.remove_comp(&n);
                model.remove_comp(&n);
            }
            5 => {
                let n = pick(&mut rng);
                daig.remove_cell(&n);
                model.remove_cell(&n);
            }
            _ => {
                // Resurrection: remove then re-add the same name; the
                // interned graph must reuse the id and look identical.
                let n = pick(&mut rng);
                let id_before = daig.id_of(&n);
                daig.remove_cell(&n);
                model.remove_cell(&n);
                daig.add_cell(n.clone(), None);
                model.add_cell(n.clone(), None);
                if let Some(id) = id_before {
                    assert_eq!(daig.id_of(&n), Some(id), "step {step}: id resurrects");
                }
            }
        }

        // Observable agreement on the full pool.
        assert_eq!(
            daig.cell_count(),
            model.cells.len(),
            "step {step}: cell count"
        );
        assert_eq!(
            daig.comp_count(),
            model.comps.len(),
            "step {step}: comp count"
        );
        assert_eq!(
            daig.filled_count(),
            model.cells.values().filter(|v| v.is_some()).count(),
            "step {step}: filled count"
        );
        for n in &pool {
            assert_eq!(
                daig.contains(n),
                model.cells.contains_key(n),
                "step {step}: contains({n})"
            );
            assert_eq!(daig.value(n), model.value(n), "step {step}: value({n})");
            let comp = daig.comp(n);
            let model_comp = model.comps.get(n).filter(|_| model.cells.contains_key(n));
            assert_eq!(
                comp.as_ref().map(|c| (c.func, c.srcs.clone())),
                model_comp.map(|(f, s)| (*f, s.clone())),
                "step {step}: comp({n})"
            );
            let deps: BTreeSet<Name> = daig.dependents(n).cloned().collect();
            let model_deps: BTreeSet<Name> =
                match (model.cells.contains_key(n), model.dependents.get(n)) {
                    (true, Some(ds)) => ds.clone(),
                    _ => BTreeSet::new(),
                };
            assert_eq!(deps, model_deps, "step {step}: dependents({n})");
        }
        let frontier: BTreeSet<Name> = daig.ready_frontier().cloned().collect();
        assert_eq!(frontier, model.ready_frontier(), "step {step}: frontier");
    }
}

// ---------------------------------------------------------------------
// Layer 2: pipeline representation independence.
// ---------------------------------------------------------------------

/// Applies a random splice/query history to a demanded analysis, then
/// compares it — values for every cell, and DOT export — against a fresh
/// analysis of the final program. The two graphs interned their names in
/// completely different orders (the history one carries unroll/rollback
/// churn); every Name-level observable must agree.
fn run_history_vs_fresh(seed: u64, edits: usize) {
    let mut gen = Workload::new(seed);
    let program = Workload::initial_program();
    let cfg = program.by_name("main").unwrap().clone();
    let mut fa: FuncAnalysis<D> = FuncAnalysis::new(cfg, IntervalDomain::top());
    let mut memo = MemoTable::new();
    let mut stats = QueryStats::default();

    for step in 0..edits {
        let edges: Vec<EdgeId> = fa.cfg().edges().map(|e| e.id).collect();
        let edge = edges[gen.pick_index(edges.len())];
        let block = gen.random_block_no_calls();
        fa.splice(edge, &block).unwrap();
        // Interleave demanded queries so unroll/rollback churn happens
        // mid-history (this is what scrambles interning order).
        if step % 2 == 0 {
            fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
                .unwrap();
        }
    }
    // Fully evaluate the edited analysis.
    fa.evaluate_all(&mut memo, &mut IntraResolver, &mut stats)
        .unwrap();
    fa.daig().check_well_formed().unwrap();

    // A fresh analysis of the final program, fully evaluated.
    let final_cfg = fa.cfg().clone();
    let mut fresh: FuncAnalysis<D> = FuncAnalysis::new(final_cfg, IntervalDomain::top());
    let mut fresh_memo = MemoTable::new();
    let mut fresh_stats = QueryStats::default();
    fresh
        .evaluate_all(&mut fresh_memo, &mut IntraResolver, &mut fresh_stats)
        .unwrap();

    // Identical namespaces and identical value(&Name) answers.
    let mut names: Vec<Name> = fa.daig().names().cloned().collect();
    names.sort();
    let mut fresh_names: Vec<Name> = fresh.daig().names().cloned().collect();
    fresh_names.sort();
    assert_eq!(names, fresh_names, "seed {seed}: namespace");
    for n in &names {
        assert_eq!(
            fa.daig().value(n),
            fresh.daig().value(n),
            "seed {seed}: value({n})"
        );
    }
    // Byte-identical DOT export despite disjoint interning histories.
    let opts = DotOptions::default();
    assert_eq!(
        to_dot(fa.daig(), &opts),
        to_dot(fresh.daig(), &opts),
        "seed {seed}: dot export"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn interned_daig_agrees_with_name_keyed_model(seed in 0u64..10_000) {
        run_model_agreement(seed, 60);
    }

    #[test]
    fn edit_unroll_history_matches_fresh_build(seed in 0u64..10_000) {
        run_history_vs_fresh(seed, 5);
    }
}

#[test]
fn converged_query_walks_cone_once_despite_unrolls() {
    // The incremental-cone regression gate: an evaluation that unrolls
    // nested loops several times performs exactly one demanded cone
    // walk.
    let src = "function f(n) { var i = 0; var s = 0; \
               while (i < 9) { var j = 0; while (j < 4) { s = s + j; j = j + 1; } i = i + 1; } \
               return s; }";
    let cfg = dai_lang::cfg::lower_program(&dai_lang::parse_program(src).unwrap())
        .unwrap()
        .cfgs()[0]
        .clone();
    let mut fa: FuncAnalysis<D> = FuncAnalysis::new(cfg, IntervalDomain::top());
    let mut memo = dai_memo::SharedMemoTable::new(4);
    let mut stats = QueryStats::default();
    let exit = Name::State {
        loc: fa.cfg().exit(),
        ctx: IterCtx::root(),
    };
    fa.evaluate(
        std::slice::from_ref(&exit),
        &mut memo,
        &mut IntraResolver,
        &mut stats,
        None,
    )
    .unwrap();
    assert!(
        stats.unrolls >= 2,
        "workload must unroll (got {})",
        stats.unrolls
    );
    assert_eq!(
        stats.cone_walks, 1,
        "one cone traversal for {} unrolls",
        stats.unrolls
    );
    // Re-evaluating the now-filled target walks nothing at all.
    fa.evaluate(&[exit], &mut memo, &mut IntraResolver, &mut stats, None)
        .unwrap();
    assert_eq!(stats.cone_walks, 1);
}
