//! Failure injection around result caching (paper §2.2):
//!
//! > "it is sound to drop cached results from the DAIG and/or memo table
//! > and later recompute those results if needed, trading efficiency of
//! > reuse for a lower memory footprint."
//!
//! These tests adversarially drop cached state at random points of an
//! edit/query stream — clearing the memo table, bounding its capacity so
//! it continually evicts, dirtying whole DAIGs, and dropping every result
//! of the interprocedural analyzer — and assert that query answers never change relative to an
//! unperturbed twin run over the same stream. A failed save is the same
//! kind of fault one layer up: it must cost nothing but the save.

use dai_bench::workload::Workload;
use dai_core::analysis::FuncAnalysis;
use dai_core::consistency::{check_ai_consistency, check_cfg_consistency};
use dai_core::interproc::{ContextPolicy, InterAnalyzer};
use dai_core::query::{IntraResolver, QueryStats};
use dai_domains::{AbstractDomain, IntervalDomain, OctagonDomain};
use dai_lang::cfg::lower_program;
use dai_lang::parser::parse_program;
use dai_memo::MemoTable;

const SEED_PROGRAM: &str = "function main() { var x0 = 1; return x0; }";

/// Runs the same random edit/query stream twice — once with a pristine
/// memo table, once with `perturb` applied after every step — and checks
/// that all query answers agree.
fn check_against_unperturbed<D, F>(phi0: D, seed: u64, steps: usize, mut perturb: F)
where
    D: AbstractDomain,
    F: FnMut(usize, &mut FuncAnalysis<D>, &mut MemoTable<dai_core::Value<D>>),
{
    let cfg = lower_program(&parse_program(SEED_PROGRAM).unwrap())
        .unwrap()
        .cfgs()[0]
        .clone();
    let mut clean = FuncAnalysis::new(cfg.clone(), phi0.clone());
    let mut dirty = FuncAnalysis::new(cfg, phi0);
    let mut clean_memo = MemoTable::new();
    let mut dirty_memo = MemoTable::new();
    // Identical streams: one generator drives both runs.
    let mut gen = Workload::new(seed);
    for step in 0..steps {
        let edges: Vec<_> = clean.cfg().edges().map(|e| e.id).collect();
        let edge = edges[gen.pick_index(edges.len())];
        let block = gen.random_block_no_calls();
        clean.splice(edge, &block).unwrap();
        dirty.splice(edge, &block).unwrap();

        perturb(step, &mut dirty, &mut dirty_memo);

        let locs = clean.cfg().locs();
        let loc = locs[gen.pick_index(locs.len())];
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        let a = clean
            .query_loc(&mut clean_memo, loc, &mut IntraResolver, &mut s1)
            .unwrap();
        let b = dirty
            .query_loc(&mut dirty_memo, loc, &mut IntraResolver, &mut s2)
            .unwrap();
        assert_eq!(
            a, b,
            "seed {seed} step {step}: perturbed run diverged at {loc}"
        );
        dirty.daig().check_well_formed().unwrap();
    }
    check_cfg_consistency(dirty.daig(), dirty.cfg()).unwrap();
    check_ai_consistency(dirty.daig()).unwrap();
}

#[test]
fn clearing_memo_table_every_step_is_sound() {
    check_against_unperturbed(
        IntervalDomain::top(),
        101,
        30,
        |_, _, memo: &mut MemoTable<_>| memo.clear(),
    );
}

#[test]
fn clearing_memo_at_random_steps_is_sound() {
    let mut chaos = Workload::new(0xC4A05);
    check_against_unperturbed(IntervalDomain::top(), 202, 30, move |_, _, memo| {
        if chaos.pick_index(3) == 0 {
            memo.clear();
        }
    });
}

#[test]
fn tiny_memo_capacity_is_sound() {
    // A 4-entry table evicts constantly: reuse rates collapse, answers
    // must not.
    let cfg = lower_program(&parse_program(SEED_PROGRAM).unwrap())
        .unwrap()
        .cfgs()[0]
        .clone();
    let mut clean = FuncAnalysis::new(cfg.clone(), IntervalDomain::top());
    let mut bounded = FuncAnalysis::new(cfg, IntervalDomain::top());
    let mut clean_memo = MemoTable::new();
    let mut bounded_memo = MemoTable::with_capacity_limit(4);
    let mut gen = Workload::new(303);
    for step in 0..30 {
        let edges: Vec<_> = clean.cfg().edges().map(|e| e.id).collect();
        let edge = edges[gen.pick_index(edges.len())];
        let block = gen.random_block_no_calls();
        clean.splice(edge, &block).unwrap();
        bounded.splice(edge, &block).unwrap();
        let locs = clean.cfg().locs();
        let loc = locs[gen.pick_index(locs.len())];
        let mut s = QueryStats::default();
        let a = clean
            .query_loc(&mut clean_memo, loc, &mut IntraResolver, &mut s)
            .unwrap();
        let b = bounded
            .query_loc(&mut bounded_memo, loc, &mut IntraResolver, &mut s)
            .unwrap();
        assert_eq!(a, b, "step {step}: bounded-memo run diverged");
        assert!(bounded_memo.len() <= 4, "capacity bound violated");
    }
    assert!(
        bounded_memo.stats().evictions > 0,
        "the bounded table must actually have evicted"
    );
}

#[test]
fn dirtying_everything_at_random_steps_is_sound() {
    let mut chaos = Workload::new(0xD117);
    check_against_unperturbed(IntervalDomain::top(), 404, 25, move |_, fa, memo| {
        if chaos.pick_index(4) == 0 {
            fa.dirty_everything();
            memo.clear();
        }
    });
}

#[test]
fn octagon_survives_combined_perturbations() {
    let mut chaos = Workload::new(0x0C7A);
    check_against_unperturbed(
        OctagonDomain::top(),
        505,
        15,
        move |_, fa, memo| match chaos.pick_index(4) {
            0 => memo.clear(),
            1 => fa.dirty_everything(),
            _ => {}
        },
    );
}

#[test]
fn interproc_dirty_everything_is_sound() {
    const SRC: &str = r#"
        function dbl(x) { return x * 2; }
        function addsq(y) { var t = dbl(y); return t + y; }
        function main() {
            var a = addsq(3);
            var b = dbl(a);
            return a + b;
        }
    "#;
    let program = lower_program(&parse_program(SRC).unwrap()).unwrap();
    for policy in [ContextPolicy::Insensitive, ContextPolicy::CallString(1)] {
        let mut an = InterAnalyzer::<IntervalDomain>::new(
            program.clone(),
            policy,
            "main",
            IntervalDomain::top(),
        );
        let exit = an.program().by_name("main").unwrap().exit();
        let reference = an.query_joined("main", exit).unwrap();
        // Drop every result and the memo between re-queries: answers must
        // be stable.
        for _ in 0..3 {
            an.dirty_everything();
            let before = an.stats();
            let again = an.query_joined("main", exit).unwrap();
            assert_eq!(again, reference);
            assert!(an.stats().delta(&before).computed > 0, "{policy:?}");
        }
    }
}

#[test]
fn memo_reuse_actually_happens_when_not_perturbed() {
    // Guard against the trivial pass: the clean runs above must be
    // genuinely exercising memoization, otherwise "sound under eviction"
    // is vacuous.
    let cfg = lower_program(&parse_program(SEED_PROGRAM).unwrap())
        .unwrap()
        .cfgs()[0]
        .clone();
    let mut fa = FuncAnalysis::new(cfg, IntervalDomain::top());
    let mut memo = MemoTable::new();
    let mut gen = Workload::new(606);
    for _ in 0..20 {
        let edges: Vec<_> = fa.cfg().edges().map(|e| e.id).collect();
        let edge = edges[gen.pick_index(edges.len())];
        fa.splice(edge, &gen.random_block_no_calls()).unwrap();
        let mut s = QueryStats::default();
        let locs = fa.cfg().locs();
        let loc = locs[gen.pick_index(locs.len())];
        fa.query_loc(&mut memo, loc, &mut IntraResolver, &mut s)
            .unwrap();
    }
    assert!(memo.stats().hits > 0, "no memo reuse in the clean run");
}

// ---------------------------------------------------------------------
// A query that fails inside a loop (Thm 6.1 after the failure).
// ---------------------------------------------------------------------

/// Havocs calls like [`IntraResolver`], except that its `fail_at`-th call
/// is an error — a callee that cannot be demanded, or a query that runs
/// out of fuel mid-loop (`MAX_UNROLLS_PER_QUERY` is a constant, so the
/// test injects the failure here instead).
struct FailingResolver {
    calls: u32,
    fail_at: u32,
}

impl dai_core::query::CallResolver<IntervalDomain> for FailingResolver {
    fn resolve(
        &mut self,
        call: &dai_core::CallInput<'_, IntervalDomain>,
        _memo: &mut dyn dai_memo::MemoStore<dai_core::Value<IntervalDomain>>,
        _stats: &mut QueryStats,
    ) -> Result<IntervalDomain, dai_core::DaigError> {
        self.calls += 1;
        if self.calls == self.fail_at {
            return Err(dai_core::DaigError::Invariant("injected failure".into()));
        }
        Ok(call.pre.transfer(call.stmt))
    }
}

/// Fails the `fail_at`-th call of a query on a loop whose every iteration
/// makes one call — so `fail_at − 1` unrollings are done and the
/// fixed-point cell is empty — then splices into the loop body and checks
/// the next answer against a from-scratch analysis of the edited program.
fn splice_after_query_failed_in_loop(fail_at: u32, strategy: dai_core::FixStrategy) {
    const SRC: &str = "function g(x) { return x; } \
        function f(n) { var i = 0; var s = 0; \
        while (i < 10) { s = g(s); i = i + 1; } return s; }";
    let cfg = lower_program(&parse_program(SRC).unwrap())
        .unwrap()
        .by_name("f")
        .unwrap()
        .clone();
    let head = cfg.loop_heads()[0];
    let mut fa = FuncAnalysis::with_strategy(cfg, IntervalDomain::top(), strategy);
    let mut memo = MemoTable::new();
    let mut stats = QueryStats::default();
    let mut resolver = FailingResolver { calls: 0, fail_at };
    fa.query_exit(&mut memo, &mut resolver, &mut stats)
        .expect_err("the injected failure surfaces");
    let fix = fa
        .daig()
        .id_of(&dai_core::Name::State {
            loc: head,
            ctx: dai_core::name::IterCtx::root(),
        })
        .unwrap();
    assert!(fa.daig().value_id(fix).is_none());
    assert_eq!(fa.daig().unrolled_blocks(fix), fail_at as usize - 1);
    fa.daig().check_well_formed().unwrap();

    let increment = fa.cfg().back_edge(head).unwrap();
    let block = dai_lang::parser::parse_block("s = s + 100;").unwrap();
    fa.splice(increment, &block).unwrap();
    assert_eq!(
        fa.daig().unrolled_blocks(fix),
        0,
        "E-Loop fires on an unrolled instance whose fixed-point cell is empty"
    );
    fa.daig().check_well_formed().unwrap();
    let demanded = fa.query_exit(&mut memo, &mut resolver, &mut stats).unwrap();

    let mut fresh = FuncAnalysis::with_strategy(fa.cfg().clone(), IntervalDomain::top(), strategy);
    let from_scratch = fresh
        .query_exit(&mut MemoTable::new(), &mut IntraResolver, &mut stats)
        .unwrap();
    assert_eq!(demanded, from_scratch);
    check_cfg_consistency(fa.daig(), fa.cfg()).unwrap();
    check_ai_consistency(fa.daig()).unwrap();
}

#[test]
fn splice_after_a_query_failed_inside_a_loop_is_from_scratch_consistent() {
    // The second call is iteration 1's: one unrolling done.
    splice_after_query_failed_in_loop(2, dai_core::FixStrategy::PAPER);
}

#[test]
fn splice_after_a_query_ran_out_of_fuel_mid_loop_is_from_scratch_consistent() {
    // Delayed widening keeps the loop unrolling; the failure lands three
    // unrollings in, as exhausted fuel would.
    splice_after_query_failed_in_loop(4, dai_core::FixStrategy::delayed(6));
}

#[test]
fn a_failed_save_journals_nothing_and_leaves_no_temporary() {
    use dai_engine::{Engine, EngineError, JournalConfig, Service};
    let dir = std::env::temp_dir().join(format!("dai-failed-save-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("journal.daij");
    let _ = std::fs::remove_file(&journal_path);
    let engine: Engine<OctagonDomain> = Engine::new(1);
    engine
        .open_journal(&journal_path, JournalConfig::default())
        .unwrap();
    let src = "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }";
    let session = engine.open_session_src("s", src).unwrap();
    let exit = engine
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .exit();
    engine.query(session, "f", exit).unwrap();
    let journal = engine.journal().unwrap();
    let journaled = || std::fs::read(&journal_path).unwrap();
    let before = journaled();

    // The directory does not exist: the temporary cannot be created.
    let unwritable = dir.join("no-such-dir").join("snap.daip");
    let err =
        Service::<OctagonDomain>::save(&engine, session, unwritable.to_str().unwrap()).unwrap_err();
    assert!(
        matches!(&err, EngineError::Persist(dai_persist::PersistError::Io(m)) if m.contains("no-such-dir")),
        "{err}"
    );
    assert_eq!((journal.frames(), journaled()), (1, before.clone()));
    assert_eq!(engine.stats().saves, 0);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        1,
        "no temporary left behind"
    );

    // A save that lands writes the snapshot file and still journals
    // nothing: what it wrote is the session's image, which the journal's
    // `JOPN`/`JEDT` frames already determine.
    let good = dir.join("snap.daip");
    let saved = Service::<OctagonDomain>::save(&engine, session, good.to_str().unwrap()).unwrap();
    assert_eq!((saved.funcs, engine.stats().saves), (1, 1));
    assert_eq!(journaled(), before);
    let _ = std::fs::remove_dir_all(&dir);
}
