//! Widening strategies and convergence modes (paper §2.3, footnote 4):
//!
//! > "We describe here the widening strategy of applying ∇ every iteration
//! > until a fixed-point is reached for simplicity, but the same general
//! > idea applies for other widening strategies or checking convergence
//! > with ⊑ instead of =."
//!
//! These tests exercise `dai_core::strategy`: delayed widening improves
//! precision on the textbook count-up loop; every strategy stays
//! from-scratch consistent with a batch oracle running the *same*
//! strategy; `⊑`-convergence equals `=`-convergence for well-behaved
//! domains but converges strictly earlier for domains whose widening
//! carries non-semantic bookkeeping; and the meta-theoretic checkers
//! (well-formedness, Definition 4.2/4.3) hold at every step under every
//! strategy.

use dai_bench::workload::Workload;
use dai_core::analysis::FuncAnalysis;
use dai_core::batch::batch_analyze_with;
use dai_core::consistency::{check_ai_consistency, check_cfg_consistency};
use dai_core::driver::{Config, Driver, ProgramEdit};
use dai_core::interproc::ContextPolicy;
use dai_core::query::{IntraResolver, QueryStats};
use dai_core::strategy::{Convergence, FixStrategy};
use dai_domains::interval::Interval;
use dai_domains::{AbstractDomain, CallSite, IntervalDomain, OctagonDomain};
use dai_lang::cfg::lower_program;
use dai_lang::interp::ConcreteState;
use dai_lang::parser::{parse_block, parse_program};
use dai_lang::{Stmt, Symbol};
use dai_memo::MemoTable;
use std::fmt;

const COUNT_UP: &str = "function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }";

fn analysis_with(src: &str, strategy: FixStrategy) -> FuncAnalysis<IntervalDomain> {
    let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
    FuncAnalysis::with_strategy(cfg, IntervalDomain::top(), strategy)
}

fn exit_interval(fa: &mut FuncAnalysis<IntervalDomain>, var: &str) -> Interval {
    let mut memo = MemoTable::new();
    let mut stats = QueryStats::default();
    fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
        .unwrap()
        .interval_of(var)
}

#[test]
fn paper_strategy_widens_to_infinity_on_count_up_loop() {
    let mut fa = analysis_with(COUNT_UP, FixStrategy::PAPER);
    let iv = exit_interval(&mut fa, "i");
    // Widening every iteration overshoots the upper bound; the exit guard
    // recovers the lower bound only: [10, +∞].
    assert!(iv.contains(10) && iv.contains(1_000_000), "{iv}");
}

#[test]
fn delayed_widening_recovers_exact_bound() {
    // Delaying widening past the loop's trip count lets plain joins reach
    // the exact invariant [0, 10] at the head, hence exactly 10 at exit.
    let mut fa = analysis_with(COUNT_UP, FixStrategy::delayed(12));
    let iv = exit_interval(&mut fa, "i");
    assert_eq!(
        iv,
        Interval::constant(10),
        "delayed widening must be exact, got {iv}"
    );
}

#[test]
fn short_delay_still_widens() {
    // A delay smaller than the trip count runs out and ∇ fires: imprecise
    // again, but convergent.
    let mut fa = analysis_with(COUNT_UP, FixStrategy::delayed(3));
    let iv = exit_interval(&mut fa, "i");
    assert!(iv.contains(10) && iv.contains(1_000_000), "{iv}");
}

#[test]
fn delayed_widening_costs_more_unrollings() {
    let mut stats_paper = QueryStats::default();
    let mut stats_delayed = QueryStats::default();
    for (strategy, stats) in [
        (FixStrategy::PAPER, &mut stats_paper),
        (FixStrategy::delayed(12), &mut stats_delayed),
    ] {
        let mut fa = analysis_with(COUNT_UP, strategy);
        let mut memo = MemoTable::new();
        fa.query_exit(&mut memo, &mut IntraResolver, stats).unwrap();
    }
    assert!(
        stats_delayed.unrolls > stats_paper.unrolls,
        "precision is paid for in unrollings: {} vs {}",
        stats_delayed.unrolls,
        stats_paper.unrolls
    );
}

#[test]
fn leq_convergence_equals_equal_convergence_for_intervals() {
    // Interval iterates are increasing (∇ and ⊔ are upper bounds), so
    // `newer ⊑ older` can only hold at equality: both modes agree.
    for delay in [0, 2, 12] {
        let eq = FixStrategy::delayed(delay);
        let leq = eq.with_convergence(Convergence::Leq);
        let mut fa_eq = analysis_with(COUNT_UP, eq);
        let mut fa_leq = analysis_with(COUNT_UP, leq);
        assert_eq!(
            exit_interval(&mut fa_eq, "i"),
            exit_interval(&mut fa_leq, "i")
        );
    }
}

#[test]
fn strategies_agree_with_batch_oracle_under_edits() {
    // From-scratch consistency (Theorem 6.1), strategy by strategy: after
    // random splices and interleaved queries, every location equals the
    // batch engine running the same strategy.
    let strategies = [
        FixStrategy::PAPER,
        FixStrategy::delayed(2),
        FixStrategy::delayed(7).with_convergence(Convergence::Leq),
        FixStrategy::PAPER.with_convergence(Convergence::Leq),
    ];
    for (si, &strategy) in strategies.iter().enumerate() {
        let cfg =
            lower_program(&parse_program("function main() { var x0 = 0; return x0; }").unwrap())
                .unwrap()
                .cfgs()[0]
                .clone();
        let mut gen = Workload::new(0xA11CE + si as u64);
        let mut fa = FuncAnalysis::with_strategy(cfg, IntervalDomain::top(), strategy);
        let mut memo = MemoTable::new();
        for step in 0..40 {
            let edges: Vec<_> = fa.cfg().edges().map(|e| e.id).collect();
            let edge = edges[gen.pick_index(edges.len())];
            let block = gen.random_block_no_calls();
            fa.splice(edge, &block)
                .unwrap_or_else(|e| panic!("strategy {strategy} step {step}: {e}"));
            let locs = fa.cfg().locs();
            let loc = locs[gen.pick_index(locs.len())];
            let mut stats = QueryStats::default();
            fa.query_loc(&mut memo, loc, &mut IntraResolver, &mut stats)
                .unwrap_or_else(|e| panic!("strategy {strategy} step {step}: {e}"));
            fa.daig().check_well_formed().unwrap();
        }
        let batch = batch_analyze_with(
            fa.cfg(),
            IntervalDomain::top(),
            &mut IntraResolver,
            strategy,
        )
        .unwrap();
        for loc in fa.cfg().locs() {
            let mut stats = QueryStats::default();
            let demanded = fa
                .query_loc(&mut memo, loc, &mut IntraResolver, &mut stats)
                .unwrap();
            assert_eq!(
                demanded, batch[&loc],
                "strategy {strategy}: mismatch at {loc}"
            );
        }
        check_cfg_consistency(fa.daig(), fa.cfg()).unwrap();
        check_ai_consistency(fa.daig()).unwrap();
    }
}

#[test]
fn octagon_strategies_agree_with_batch_oracle() {
    let src =
        "function f(n) { var i = 0; var j = 0; while (i < 8) { i = i + 1; j = j + 2; } return j; }";
    for strategy in [FixStrategy::PAPER, FixStrategy::delayed(10)] {
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        let mut fa = FuncAnalysis::with_strategy(cfg.clone(), OctagonDomain::top(), strategy);
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let demanded = fa
            .query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        let batch =
            batch_analyze_with(&cfg, OctagonDomain::top(), &mut IntraResolver, strategy).unwrap();
        assert_eq!(demanded, batch[&cfg.exit()], "strategy {strategy}");
    }
}

#[test]
fn driver_configs_agree_under_delayed_widening() {
    const SRC: &str = r#"
        function main() {
            var i = 0;
            while (i < 6) { i = i + 1; }
            return i;
        }
    "#;
    let strategy = FixStrategy::delayed(8);
    let mut finals = Vec::new();
    for config in Config::ALL {
        let program = lower_program(&parse_program(SRC).unwrap()).unwrap();
        let mut d = Driver::with_strategy(
            config,
            program,
            ContextPolicy::Insensitive,
            "main",
            IntervalDomain::top(),
            strategy,
        );
        let exit = d.analyzer().program().by_name("main").unwrap().exit();
        let _ = d.query("main", exit).unwrap();
        let edge = d
            .analyzer()
            .program()
            .by_name("main")
            .unwrap()
            .edges()
            .find(|e| e.stmt.to_string() == "i = 0")
            .unwrap()
            .id;
        d.apply_edit(&ProgramEdit::Insert {
            func: Symbol::new("main"),
            edge,
            block: parse_block("var extra = 1;").unwrap(),
        })
        .unwrap();
        finals.push(d.query("main", exit).unwrap());
    }
    for r in &finals[1..] {
        assert_eq!(*r, finals[0]);
    }
    // Exactness under delayed widening: the count-up loop exits at i = 6
    // precisely (the paper's strategy would report [6, +∞]).
    assert_eq!(finals[0].interval_of("i"), Interval::constant(6));
}

#[test]
fn edits_inside_loops_preserve_strategy_results() {
    let strategy = FixStrategy::delayed(12);
    let mut fa = analysis_with(COUNT_UP, strategy);
    assert_eq!(exit_interval(&mut fa, "i"), Interval::constant(10));
    // Edit the loop body: i now advances by 2, converging to i ∈ {0,2,…,10}
    // with exact bound [0,10] at the head under delayed widening.
    let head = fa.cfg().loop_heads()[0];
    let back = fa.cfg().back_edge(head).unwrap();
    fa.relabel(
        back,
        Stmt::Assign("i".into(), dai_lang::parse_expr("i + 2").unwrap()),
    )
    .unwrap();
    fa.daig().check_well_formed().unwrap();
    let after = exit_interval(&mut fa, "i");
    assert_eq!(
        after,
        Interval::of(10, 11),
        "exit guard i >= 10 over [0,11], got {after}"
    );
    // And the result matches a from-scratch analysis with the same strategy.
    let mut fresh = FuncAnalysis::with_strategy(fa.cfg().clone(), IntervalDomain::top(), strategy);
    assert_eq!(exit_interval(&mut fresh, "i"), after);
}

// ---------------------------------------------------------------------
// Footnote 4's "⊑ instead of =", demonstrated with a domain whose widen
// carries non-semantic bookkeeping: a tag that keeps changing for a few
// iterations after the *meaning* of the state has stabilized. `=`
// convergence must wait for the tag to saturate; `⊑` convergence (which
// ignores the tag) stops as soon as the meaning stabilizes.
// ---------------------------------------------------------------------

/// Semantic part: a saturating upper bound on every variable (a one-knob
/// caricature of an interval domain). `tag` is bookkeeping incremented by
/// every widen, saturating at [`TaggedBound::TAG_CAP`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TaggedBound {
    /// `None` = ⊥; `Some(b)` = "every variable ≤ b", saturating at
    /// [`TaggedBound::SAT`].
    bound: Option<i64>,
    tag: u32,
}

impl TaggedBound {
    const SAT: i64 = 1 << 20;
    const TAG_CAP: u32 = 3;
}

impl fmt::Display for TaggedBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bound {
            None => write!(f, "⊥"),
            Some(b) => write!(f, "≤{b}#{}", self.tag),
        }
    }
}

impl AbstractDomain for TaggedBound {
    fn bottom() -> Self {
        TaggedBound {
            bound: None,
            tag: 0,
        }
    }

    fn is_bottom(&self) -> bool {
        self.bound.is_none()
    }

    fn entry_default(_params: &[Symbol]) -> Self {
        TaggedBound {
            bound: Some(0),
            tag: 0,
        }
    }

    fn join(&self, other: &Self) -> Self {
        match (self.bound, other.bound) {
            (None, _) => other.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(b)) => TaggedBound {
                bound: Some(a.max(b)),
                tag: self.tag.max(other.tag),
            },
        }
    }

    fn widen(&self, next: &Self) -> Self {
        // Semantically: saturate on any unstable bound. Bookkeeping: bump
        // the tag (capped), so consecutive widen outputs differ
        // syntactically for a few iterations even after `bound`
        // stabilizes.
        let bound = match (self.bound, next.bound) {
            (None, b) => b,
            (a, None) => a,
            (Some(a), Some(b)) if b > a => Some(TaggedBound::SAT),
            (Some(a), Some(_)) => Some(a),
        };
        TaggedBound {
            bound,
            tag: (self.tag + 1).min(TaggedBound::TAG_CAP),
        }
    }

    fn leq(&self, other: &Self) -> bool {
        match (self.bound, other.bound) {
            (None, _) => true,
            (_, None) => false,
            // The tag is bookkeeping, invisible to the order.
            (Some(a), Some(b)) => a <= b,
        }
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        // Any assignment may increase a variable by 1 in this caricature;
        // guards and skips are identity.
        match stmt {
            Stmt::Assign(..) | Stmt::ArrayWrite(..) | Stmt::FieldWrite(..) | Stmt::Call { .. } => {
                match self.bound {
                    None => self.clone(),
                    Some(b) => TaggedBound {
                        bound: Some((b + 1).min(TaggedBound::SAT)),
                        tag: self.tag,
                    },
                }
            }
            Stmt::Skip | Stmt::Assume(_) | Stmt::Print(_) => self.clone(),
        }
    }

    fn call_entry(&self, _site: CallSite<'_>, _params: &[Symbol]) -> Self {
        self.clone()
    }

    fn call_return(&self, _site: CallSite<'_>, callee_exit: &Self) -> Self {
        self.join(callee_exit)
    }

    fn models(&self, _concrete: &ConcreteState) -> bool {
        true // coarse by construction; irrelevant to this test
    }
}

#[test]
fn leq_convergence_beats_equal_on_tagged_domain() {
    let src = "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }";
    let mut unrolls = Vec::new();
    for convergence in [Convergence::Equal, Convergence::Leq] {
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        let strategy = FixStrategy::PAPER.with_convergence(convergence);
        let mut fa = FuncAnalysis::with_strategy(cfg, TaggedBound::entry_default(&[]), strategy);
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let exit = fa
            .query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        assert_eq!(
            exit.bound,
            Some(TaggedBound::SAT),
            "meaning agrees either way"
        );
        fa.daig().check_well_formed().unwrap();
        check_ai_consistency(fa.daig()).unwrap();
        unrolls.push(stats.unrolls);
    }
    let (equal, leq) = (unrolls[0], unrolls[1]);
    assert!(
        leq < equal,
        "⊑-convergence must stop before the tag saturates: leq={leq} equal={equal}"
    );
}

#[test]
fn tagged_domain_batch_agrees_per_convergence_mode() {
    let src = "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }";
    for convergence in [Convergence::Equal, Convergence::Leq] {
        let strategy = FixStrategy::PAPER.with_convergence(convergence);
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        let mut fa =
            FuncAnalysis::with_strategy(cfg.clone(), TaggedBound::entry_default(&[]), strategy);
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let demanded = fa
            .query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        let batch = batch_analyze_with(
            &cfg,
            TaggedBound::entry_default(&[]),
            &mut IntraResolver,
            strategy,
        )
        .unwrap();
        assert_eq!(demanded, batch[&cfg.exit()], "convergence {convergence}");
    }
}

#[test]
fn call_strings_compose_with_strategies() {
    // Delayed widening inside a callee, demanded through the
    // interprocedural analyzer: the callee's exit carries the exact loop
    // bound back to the caller.
    use dai_core::interproc::{ContextPolicy, InterAnalyzer};
    const SRC: &str = r#"
        function count(n) {
            var i = 0;
            while (i < 10) { i = i + 1; }
            return i;
        }
        function main() { var a = count(0); return a; }
    "#;
    let program = lower_program(&parse_program(SRC).unwrap()).unwrap();
    let exit = program.by_name("main").unwrap().exit();
    let mut precise = InterAnalyzer::<IntervalDomain>::with_strategy(
        program.clone(),
        ContextPolicy::CallString(1),
        "main",
        IntervalDomain::top(),
        FixStrategy::delayed(12),
    );
    let mut paper = InterAnalyzer::<IntervalDomain>::new(
        program,
        ContextPolicy::CallString(1),
        "main",
        IntervalDomain::top(),
    );
    let a_precise = precise.query_joined("main", exit).unwrap().interval_of("a");
    let a_paper = paper.query_joined("main", exit).unwrap().interval_of("a");
    assert_eq!(a_precise, Interval::constant(10));
    assert!(
        a_paper.contains(1_000_000),
        "paper strategy widens: {a_paper}"
    );
}
