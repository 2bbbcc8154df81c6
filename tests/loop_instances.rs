//! Loop instances keep their iterations (`dai_core::graph`, "Loop
//! instances and parked iterations"): a long-lived analysis whose loops
//! roll back by id, park what they unrolled and re-unroll by replay must
//! stay indistinguishable from one built from the current program.
//!
//! The differential harness drives one [`FuncAnalysis`] through a random
//! relabel / splice / query / `evaluate_all` / `dirty_everything` stream
//! and, after **every** step, builds a fresh analysis of the current CFG,
//! evaluates both to quiescence and compares them byte for byte
//! ([`encode_daig`] of each graph re-interned in name order, so the two
//! interning histories do not show) — with [`Daig::check_well_formed`],
//! which now includes the loop table, on the long-lived graph before and
//! after. The snapshot variant swaps the long-lived graph for its own
//! decoded image mid-stream: a restored graph's loop table is rebuilt from
//! names, and it must roll back and re-unroll like one that was built.

use dai_bench::workload::Workload;
use dai_core::analysis::FuncAnalysis;
use dai_core::graph::Daig;
use dai_core::name::Name;
use dai_core::query::{IntraResolver, QueryStats};
use dai_core::strategy::FixStrategy;
use dai_domains::IntervalDomain;
use dai_lang::ast::AstStmt;
use dai_lang::cfg::{lower_program, Cfg};
use dai_lang::parser::parse_program;
use dai_lang::{EdgeId, Stmt};
use dai_memo::MemoTable;
use dai_persist::{decode_daig, encode_daig, Reader, Writer};
use proptest::prelude::*;

type D = IntervalDomain;

/// One function of `benchmark/programs/loop_nest.dai` (a copy: the
/// benchmark's files are not this suite's to import): four loops deep,
/// a branch in the innermost body.
const NEST4: &str = include_str!("fixtures/loop_nest4.dai");

fn nest4_cfg() -> Cfg {
    lower_program(&parse_program(NEST4).unwrap())
        .unwrap()
        .cfgs()[0]
        .clone()
}

/// A nest grown from the §7.3 generator's own blocks: every `while` it
/// draws goes onto an edge of the deepest loop body so far, everything
/// else onto a random edge, until three loops are in.
fn generated_nest(gen: &mut Workload) -> Cfg {
    let mut cfg = Workload::initial_program().by_name("main").unwrap().clone();
    while cfg.loop_heads().len() < 3 {
        let block = gen.random_block_no_calls();
        let edges: Vec<EdgeId> = cfg.edges().map(|e| e.id).collect();
        let is_loop = block.0.iter().any(|s| matches!(s, AstStmt::While { .. }));
        let edge = if is_loop {
            let depth = |e: &EdgeId| cfg.enclosing_chain(cfg.edge(*e).unwrap().src).len();
            *edges.iter().max_by_key(|e| depth(e)).unwrap()
        } else {
            edges[gen.pick_index(edges.len())]
        };
        dai_lang::edit::splice_block_on_edge(&mut cfg, edge, &block).unwrap();
    }
    cfg
}

/// `encode_daig` of the graph re-interned in name order: equal bytes iff
/// the two graphs have the same cells, values and computations.
fn canonical_bytes(daig: &Daig<D>) -> Vec<u8> {
    let mut names: Vec<&Name> = daig.names().collect();
    names.sort();
    let mut canon: Daig<D> = Daig::new();
    canon.set_strategy(daig.strategy());
    for &n in &names {
        canon.add_cell(n.clone(), daig.value(n).cloned());
    }
    for &n in &names {
        if let Some(c) = daig.comp(n) {
            canon.add_comp(n.clone(), c.func, c.srcs);
        }
    }
    let mut w = Writer::new();
    encode_daig(&canon, &mut w);
    w.into_bytes()
}

/// The long-lived analysis against a fresh one of its current CFG, both
/// evaluated to quiescence. The long-lived side is evaluated on a clone,
/// so the stream goes on from whatever partial state it had reached.
fn assert_matches_fresh(fa: &FuncAnalysis<D>, memo: &MemoTable<dai_core::Value<D>>, at: &str) {
    fa.daig()
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{at}: {e}"));
    let mut stats = QueryStats::default();
    let mut lived = fa.clone();
    lived
        .evaluate_all(&mut memo.clone(), &mut IntraResolver, &mut stats)
        .unwrap();
    lived
        .daig()
        .check_well_formed()
        .unwrap_or_else(|e| panic!("{at}, evaluated: {e}"));
    let mut fresh: FuncAnalysis<D> = FuncAnalysis::with_strategy(
        fa.cfg().clone(),
        fa.entry_state().clone(),
        fa.daig().strategy(),
    );
    fresh
        .evaluate_all(&mut MemoTable::new(), &mut IntraResolver, &mut stats)
        .unwrap();
    assert!(
        canonical_bytes(lived.daig()) == canonical_bytes(fresh.daig()),
        "{at}: the long-lived graph differs from one built from its CFG"
    );
}

/// Runs `steps` random operations on an analysis of `cfg`; with
/// `restore_at`, the graph is replaced by its own decoded snapshot before
/// that step. Odd seeds delay widening by two iterations, so instances
/// hold several blocks. Returns how often the long-lived analysis unrolled
/// a loop (a relabel can send a loop's entry state to ⊤, where it converges
/// at once, so a single stream may legitimately never unroll).
fn run_stream(seed: u64, cfg: Cfg, steps: usize, restore_at: Option<usize>) -> u64 {
    let mut gen = Workload::new(seed ^ 0x100b);
    let strategy = FixStrategy::delayed(2 * (seed % 2) as u32);
    let mut fa: FuncAnalysis<D> = FuncAnalysis::with_strategy(cfg, IntervalDomain::top(), strategy);
    let mut memo = MemoTable::new();
    let mut stats = QueryStats::default();
    for step in 0..steps {
        if restore_at == Some(step) {
            let mut w = Writer::new();
            encode_daig(fa.daig(), &mut w);
            let bytes = w.into_bytes();
            let restored: Daig<D> =
                decode_daig(&mut Reader::new(&bytes), fa.daig().strategy()).unwrap();
            fa = FuncAnalysis::from_parts(fa.cfg().clone(), restored, fa.entry_state().clone());
            assert_matches_fresh(&fa, &memo, &format!("seed {seed} step {step} (restored)"));
        }
        let edges: Vec<EdgeId> = fa.cfg().edges().map(|e| e.id).collect();
        let op = match gen.pick_index(20) {
            0..=5 => {
                // Relabel an assignment with a generated one.
                let assigns: Vec<EdgeId> = fa
                    .cfg()
                    .edges()
                    .filter(|e| matches!(e.stmt, Stmt::Assign(..)))
                    .map(|e| e.id)
                    .collect();
                let stmt = match gen.random_block_no_calls().0.pop() {
                    Some(AstStmt::Simple(s)) => s,
                    _ => Stmt::Skip,
                };
                fa.relabel(assigns[gen.pick_index(assigns.len())], stmt)
                    .unwrap();
                "relabel"
            }
            6..=9 => {
                let block = gen.random_block_no_calls();
                fa.splice(edges[gen.pick_index(edges.len())], &block)
                    .unwrap();
                "splice"
            }
            10..=16 => {
                let locs = fa.cfg().locs();
                fa.query_loc(
                    &mut memo,
                    locs[gen.pick_index(locs.len())],
                    &mut IntraResolver,
                    &mut stats,
                )
                .unwrap();
                "query"
            }
            17..=18 => {
                fa.evaluate_all(&mut memo, &mut IntraResolver, &mut stats)
                    .unwrap();
                "evaluate_all"
            }
            _ => {
                fa.dirty_everything();
                "dirty_everything"
            }
        };
        assert_matches_fresh(&fa, &memo, &format!("seed {seed} step {step} ({op})"));
    }
    // Whatever the stream left parked, one full round trip replays it.
    fa.dirty_everything();
    fa.evaluate_all(&mut memo, &mut IntraResolver, &mut stats)
        .unwrap();
    assert_matches_fresh(&fa, &memo, &format!("seed {seed} at the end"));
    stats.unrolls
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    #[test]
    fn edit_query_stream_on_generated_nests_matches_fresh_builds(seed in 0u64..10_000) {
        let cfg = generated_nest(&mut Workload::new(seed));
        run_stream(seed, cfg, 40, None);
    }

    #[test]
    fn edit_query_stream_on_the_four_deep_nest_matches_fresh_builds(seed in 0u64..10_000) {
        run_stream(seed, nest4_cfg(), 12, None);
    }

    #[test]
    fn a_restored_graph_continues_the_stream_like_a_built_one(seed in 0u64..10_000) {
        let cfg = generated_nest(&mut Workload::new(seed));
        run_stream(seed, cfg, 30, Some(10 + (seed % 10) as usize));
    }
}

#[test]
fn the_streams_do_unroll_and_re_unroll() {
    // Guard against a vacuous pass of the properties above.
    let generated = generated_nest(&mut Workload::new(1));
    assert!(run_stream(1, generated.clone(), 40, None) > 100);
    assert!(run_stream(2, generated.clone(), 40, None) > 10);
    assert!(run_stream(1, generated, 30, Some(12)) > 100);
    assert!(run_stream(1, nest4_cfg(), 12, None) > 100);
    assert!(run_stream(2, nest4_cfg(), 12, None) > 10);
}

#[test]
fn a_restored_four_deep_nest_rolls_back_through_the_table() {
    // Restore while every loop is unrolled, then dirty at the top: the
    // rebuilt table must account for every unrolled cell, and what rolls
    // back must equal the initial graph.
    let mut fa: FuncAnalysis<D> = FuncAnalysis::new(nest4_cfg(), IntervalDomain::top());
    let mut stats = QueryStats::default();
    fa.evaluate_all(&mut MemoTable::new(), &mut IntraResolver, &mut stats)
        .unwrap();
    let unrolled = fa.daig().unrolled_loops();
    assert!(unrolled.len() >= 4, "every level of the nest unrolled");
    let mut w = Writer::new();
    encode_daig(fa.daig(), &mut w);
    let bytes = w.into_bytes();
    let restored: Daig<D> = decode_daig(&mut Reader::new(&bytes), fa.daig().strategy()).unwrap();
    restored.check_well_formed().unwrap();
    assert_eq!(
        restored.unrolled_loops().len(),
        unrolled.len(),
        "the table rebuilt from names lists the same instances"
    );
    let mut back = FuncAnalysis::from_parts(fa.cfg().clone(), restored, IntervalDomain::top());
    let cells_unrolled = back.daig().cell_count();
    back.dirty_everything();
    back.daig().check_well_formed().unwrap();
    assert!(back.daig().unrolled_loops().is_empty());
    let initial: FuncAnalysis<D> = FuncAnalysis::new(fa.cfg().clone(), IntervalDomain::top());
    assert!(back.daig().cell_count() < cells_unrolled);
    assert!(canonical_bytes(back.daig()) == canonical_bytes(initial.daig()));
}
