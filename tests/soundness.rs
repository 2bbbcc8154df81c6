//! Corollary 6.2 (query results are sound), as an executable property:
//! every concrete state the interpreter witnesses at a location is
//! modelled (`σ ⊨ φ`, i.e. `σ ∈ γ(φ)`) by the abstract state a demanded
//! query returns there — for all three domains, including across edits.

use dai_bench::workload::Workload;
use dai_core::analysis::FuncAnalysis;
use dai_core::batch::batch_analyze;
use dai_core::query::{IntraResolver, QueryStats};
use dai_domains::{
    AbstractDomain, ConstDomain, IntervalDomain, OctagonDomain, ParityDomain, Prod, ShapeDomain,
    SignDomain,
};
use dai_lang::cfg::lower_program;
use dai_lang::interp::{collect, Value as CValue};
use dai_lang::parser::parse_program;
use dai_memo::MemoTable;

/// Checks, for one single-function program, that the demanded analysis
/// covers the bounded collecting semantics.
fn check_soundness<D: AbstractDomain>(src: &str, phi0: D, args: Vec<CValue>) {
    let lowered = lower_program(&parse_program(src).unwrap()).unwrap();
    let fname = lowered.cfgs()[0].name().clone();
    let run = collect(&lowered, fname.as_str(), args, 50_000);
    let cfg = lowered.cfgs()[0].clone();
    let mut fa = FuncAnalysis::new(cfg.clone(), phi0);
    let mut memo = MemoTable::new();
    for loc in cfg.locs() {
        let mut stats = QueryStats::default();
        let abs = fa
            .query_loc(&mut memo, loc, &mut IntraResolver, &mut stats)
            .unwrap_or_else(|e| panic!("query {loc}: {e}"));
        for (i, concrete) in run.states_at(fname.as_str(), loc).iter().enumerate() {
            assert!(
                abs.models(concrete),
                "UNSOUND at {loc} (witness {i}):\n  concrete: {concrete:?}\n  abstract: {abs}\n  program:\n{src}"
            );
        }
    }
}

const NUMERIC_PROGRAMS: &[&str] = &[
    "function main() { var x = 1; var y = x + 2; if (y > 2) { x = y * y; } else { x = 0 - y; } return x; }",
    "function main() { var i = 0; var s = 0; while (i < 7) { s = s + i; i = i + 1; } return s; }",
    "function main() { var i = 0; var j = 0; while (i < 5) { i = i + 1; if (j < i) { j = j + 2; } } return j - i; }",
    "function main() { var a = [1, 2, 3]; var i = 0; var s = 0; while (i < len(a)) { s = s + a[i]; i = i + 1; } return s; }",
    "function main() { var x = 9223372036854775807; var y = x + 1; return y; }", // wraps!
    "function main() { var b = true; var x = 0; if (b) { x = 5; } return x % 3; }",
    "function main() { var n = 4; var f = 1; while (n > 0) { f = f * n; n = n - 1; } return f; }",
    "function main() { var a = [5, 6]; a[0] = a[1] + 1; var m = a[0]; if (m == 7) { m = m - 7; } return m; }",
    "function main() { var x = 10; var y = x / 3; var z = x % 3; return y * 3 + z; }",
    // Surface sugar: `for` and `do`-`while` desugar to the while core.
    "function main() { var s = 0; for (var i = 0; i < 5; i = i + 1) { s = s + i; } return s; }",
    "function main() { var x = 0; do { x = x + 3; } while (x < 10); return x; }",
    "function main() { var t = 0; for (var i = 0; i < 3; i = i + 1) { for (var j = 0; j < 2; j = j + 1) { t = t + 1; } } return t; }",
];

#[test]
fn interval_sound_on_numeric_programs() {
    for src in NUMERIC_PROGRAMS {
        check_soundness(src, IntervalDomain::top(), vec![]);
    }
}

#[test]
fn octagon_sound_on_numeric_programs() {
    for src in NUMERIC_PROGRAMS {
        check_soundness(src, OctagonDomain::top(), vec![]);
    }
}

#[test]
fn shape_sound_on_numeric_programs() {
    // The shape domain must remain sound even on programs it does not
    // track precisely.
    for src in NUMERIC_PROGRAMS {
        check_soundness(src, ShapeDomain::top_state(), vec![]);
    }
}

#[test]
fn sign_sound_on_numeric_programs() {
    for src in NUMERIC_PROGRAMS {
        check_soundness(src, SignDomain::top(), vec![]);
    }
}

#[test]
fn constprop_sound_on_numeric_programs() {
    for src in NUMERIC_PROGRAMS {
        check_soundness(src, ConstDomain::top(), vec![]);
    }
}

#[test]
fn parity_sound_on_numeric_programs() {
    let evens = "function main() { var x = 9; var e = 0; while (x > 0) { if (x % 2 == 0) { e = e + x; } x = x - 1; } return e; }";
    for src in NUMERIC_PROGRAMS.iter().chain([&evens]) {
        check_soundness(src, ParityDomain::top(), vec![]);
    }
}

#[test]
fn product_sound_on_numeric_programs() {
    // Products must inherit soundness componentwise, including the
    // ⊥-smashing interaction.
    for src in NUMERIC_PROGRAMS {
        check_soundness(
            src,
            Prod::new(IntervalDomain::top(), SignDomain::top()),
            vec![],
        );
        check_soundness(
            src,
            Prod::new(SignDomain::top(), ConstDomain::top()),
            vec![],
        );
    }
}

const LIST_PROGRAMS: &[&str] = &[
    "function main() { var a = new Node(); a.next = null; var b = new Node(); b.next = a; var r = b; while (r.next != null) { r = r.next; } return r == a; }",
    "function main() { var p = null; var i = 0; while (i < 3) { var n = new Node(); n.next = p; p = n; i = i + 1; } var c = 0; while (p != null) { c = c + 1; p = p.next; } return c; }",
    "function main() { var a = new Node(); a.next = null; a.data = 5; var x = a.data; var t = a.next; return t == null; }",
];

#[test]
fn shape_sound_on_list_programs() {
    for src in LIST_PROGRAMS {
        check_soundness(src, ShapeDomain::top_state(), vec![]);
    }
}

#[test]
fn interval_sound_on_list_programs() {
    for src in LIST_PROGRAMS {
        check_soundness(src, IntervalDomain::top(), vec![]);
    }
}

#[test]
fn sign_and_constprop_sound_on_list_programs() {
    // Numeric domains must stay sound on heap-manipulating programs they
    // do not track (references untracked, field reads havoc).
    for src in LIST_PROGRAMS {
        check_soundness(src, SignDomain::top(), vec![]);
        check_soundness(src, ConstDomain::top(), vec![]);
    }
}

fn check_soundness_across_random_edits<D: AbstractDomain>(phi0: D, seeds: &[u64]) {
    // Grow a program by random (call-free) edits; at each step, run the
    // concrete semantics of the *current* program and compare with the
    // incremental analysis results at every location.
    for &seed in seeds {
        let cfg =
            lower_program(&parse_program("function main() { var x0 = 1; return x0; }").unwrap())
                .unwrap()
                .cfgs()[0]
                .clone();
        let mut gen = Workload::new(seed);
        let mut fa = FuncAnalysis::new(cfg, phi0.clone());
        let mut memo = MemoTable::new();
        for _step in 0..12 {
            let edges: Vec<_> = fa.cfg().edges().map(|e| e.id).collect();
            let edge = edges[gen.pick_index(edges.len())];
            let block = gen.random_block_no_calls();
            fa.splice(edge, &block).unwrap();
            // Rebuild a Program-source equivalent for the interpreter by
            // running the concrete collector directly over the edited CFG.
            let mut lowered = lower_program(
                &parse_program("function main() { var x0 = 1; return x0; }").unwrap(),
            )
            .unwrap();
            *lowered.by_name_mut("main").unwrap() = fa.cfg().clone();
            let run = collect(&lowered, "main", vec![], 20_000);
            for loc in fa.cfg().locs() {
                let mut stats = QueryStats::default();
                let abs = fa
                    .query_loc(&mut memo, loc, &mut IntraResolver, &mut stats)
                    .unwrap();
                for concrete in run.states_at("main", loc) {
                    assert!(
                        abs.models(concrete),
                        "seed {seed}: UNSOUND at {loc}\n  concrete: {concrete:?}\n  abstract: {abs}"
                    );
                }
            }
        }
    }
}

#[test]
fn soundness_preserved_across_random_edits() {
    check_soundness_across_random_edits(IntervalDomain::top(), &[3, 11, 42]);
}

#[test]
fn sign_soundness_preserved_across_random_edits() {
    check_soundness_across_random_edits(SignDomain::top(), &[5, 23]);
}

#[test]
fn constprop_soundness_preserved_across_random_edits() {
    check_soundness_across_random_edits(ConstDomain::top(), &[7, 31]);
}

#[test]
fn product_soundness_preserved_across_random_edits() {
    check_soundness_across_random_edits(Prod::new(IntervalDomain::top(), SignDomain::top()), &[13]);
}

// ---------------------------------------------------------------------
// ROADMAP item 1: the two holes around `return`, both fixed.
// ---------------------------------------------------------------------

/// Item 1(a): an edge that leaves a loop from a non-head body location
/// reads the location in the loop's converged iteration (`a⟨ℓ: fix⟩`).
/// Read at iteration 0, as it was before the fix, the exit answered
/// `{__ret: [5,+inf], i: [5,+inf], x: [0,0]}` where the program returns
/// with `__ret = 7, i = 3, x = 7`.
#[test]
fn early_return_from_a_loop_body_is_modelled_at_the_exit() {
    let src = include_str!("corpus/return_in_loop.dai");
    check_soundness(src, IntervalDomain::top(), vec![]);
    check_soundness(src, OctagonDomain::top(), vec![]);
}

/// A corpus edit script: `splice FUNC eN BLOCK`, one edit a line.
fn edit_script(script: &str) -> Vec<(String, dai_lang::EdgeId, dai_lang::Block)> {
    let lines = script.lines().filter(|l| !l.trim().is_empty());
    let edits = lines.map(|line| {
        let mut parts = line.splitn(4, ' ');
        let (op, func, edge, block) = (parts.next(), parts.next(), parts.next(), parts.next());
        assert_eq!(op, Some("splice"), "{line}");
        let edge = edge
            .and_then(|e| e.strip_prefix('e'))
            .and_then(|e| e.parse().ok());
        let edge = dai_lang::EdgeId(edge.unwrap_or_else(|| panic!("edge in `{line}`")));
        let block = dai_lang::parse_block(block.expect("a block")).expect("block parses");
        (func.expect("a function").to_string(), edge, block)
    });
    edits.collect()
}

/// Item 1(b): a splice that gives an *existing* location one more forward
/// in-edge (the new `return` into the exit) installs a join there, as a
/// fresh analysis of the same CFG does. Before the fix the demanded exit
/// of the first program answered ⊥ where a fresh one answers
/// `{__ret: [5,5], x: [1,1]}`.
#[test]
fn a_spliced_return_joins_at_the_exit_like_a_fresh_analysis() {
    // Program and edit script; the second `return` leaves a loop body
    // (item 1(a)).
    let corpus = [
        (
            include_str!("corpus/return_after_splice.dai"),
            include_str!("corpus/return_after_splice.edits"),
        ),
        (
            include_str!("corpus/return_spliced_in_loop.dai"),
            include_str!("corpus/return_spliced_in_loop.edits"),
        ),
    ];
    for (src, edits) in corpus {
        let mut lowered = lower_program(&parse_program(src).unwrap()).unwrap();
        let mut fa = FuncAnalysis::new(lowered.cfgs()[0].clone(), IntervalDomain::top());
        let mut memo = MemoTable::new();
        let sweep = |fa: &mut FuncAnalysis<IntervalDomain>, memo: &mut MemoTable<_>| {
            let locs = fa.cfg().locs();
            let answer = |loc| {
                fa.query_loc(memo, loc, &mut IntraResolver, &mut QueryStats::default())
                    .unwrap_or_else(|e| panic!("query {loc}: {e}"))
            };
            locs.into_iter().map(answer).collect::<Vec<_>>()
        };
        sweep(&mut fa, &mut memo);
        for (func, edge, block) in edit_script(edits) {
            fa.splice(edge, &block).unwrap();
            lowered.splice(&func, edge, &block).unwrap();
        }
        let demanded = sweep(&mut fa, &mut memo);
        let mut fresh = FuncAnalysis::new(fa.cfg().clone(), IntervalDomain::top());
        assert_eq!(demanded, sweep(&mut fresh, &mut MemoTable::new()), "{src}");
        // And what both say covers what the program does.
        let run = collect(&lowered, "main", vec![], 50_000);
        for (loc, abs) in fa.cfg().locs().into_iter().zip(&demanded) {
            for concrete in run.states_at("main", loc) {
                assert!(
                    abs.models(concrete),
                    "UNSOUND at {loc}: {concrete:?} vs {abs}"
                );
            }
        }
    }
}

/// Item 1(a) two loops deep: a `return` leaves both loops, and its source
/// resolves the outer loop's converged iteration first, then the inner
/// loop's within it. Both programs are held against the concrete
/// interpreter, and after each relabel the demanded answers — on a DAIG
/// that answered every location before — must equal a fresh analysis's.
/// In the second program the inner loop sits in a branch the outer loop's
/// back edge never sees, so only the inner loop's fixed point at outer
/// iteration 0 carries an inner-body edit to the exit.
#[test]
fn a_return_two_loops_deep_is_sound_and_demanded_equals_fresh() {
    let corpus: [(&str, &[(&str, &str)]); 2] = [
        (
            include_str!("corpus/return_two_loops_deep.dai"),
            &[("s = (s + 1)", "s + 2"), ("j = (j + 1)", "j + 3")],
        ),
        (
            include_str!("corpus/return_from_a_branch_loop.dai"),
            &[("j = (j + 1)", "j + 2"), ("i = (i + 1)", "i + 2")],
        ),
    ];
    for (src, relabels) in corpus {
        check_soundness(src, IntervalDomain::top(), vec![]);
        check_soundness(src, OctagonDomain::top(), vec![]);
        demanded_equals_fresh_after_relabels(src, IntervalDomain::top(), relabels);
        demanded_equals_fresh_after_relabels(src, OctagonDomain::top(), relabels);
    }
}

/// Answers every location of `src`'s first function, then, per relabel
/// `(statement, new right-hand side)` of an assignment, edits the DAIG and
/// compares a full sweep with a fresh analysis of the edited CFG.
fn demanded_equals_fresh_after_relabels<D: AbstractDomain>(
    src: &str,
    phi0: D,
    relabels: &[(&str, &str)],
) {
    let lowered = lower_program(&parse_program(src).unwrap()).unwrap();
    let mut fa = FuncAnalysis::new(lowered.cfgs()[0].clone(), phi0.clone());
    let mut memo = MemoTable::new();
    let sweep = |fa: &mut FuncAnalysis<D>, memo: &mut MemoTable<_>| {
        let locs = fa.cfg().locs();
        let answer = |loc| {
            fa.query_loc(memo, loc, &mut IntraResolver, &mut QueryStats::default())
                .unwrap_or_else(|e| panic!("query {loc}: {e}"))
        };
        locs.into_iter().map(answer).collect::<Vec<_>>()
    };
    sweep(&mut fa, &mut memo);
    for (stmt, rhs) in relabels {
        let edge = fa.cfg().edges().find(|e| e.stmt.to_string() == *stmt);
        let edge = edge.unwrap_or_else(|| panic!("no edge `{stmt}`"));
        let (id, var) = match &edge.stmt {
            dai_lang::Stmt::Assign(var, _) => (edge.id, var.clone()),
            other => panic!("`{other}` is not an assignment"),
        };
        let expr = dai_lang::parse_expr(rhs).unwrap();
        fa.relabel(id, dai_lang::Stmt::Assign(var, expr)).unwrap();
        let demanded = sweep(&mut fa, &mut memo);
        let mut fresh = FuncAnalysis::new(fa.cfg().clone(), phi0.clone());
        let expected = sweep(&mut fresh, &mut MemoTable::new());
        assert_eq!(demanded, expected, "after `{stmt}` := {rhs}:\n{src}");
        // The batch oracle feeds a loop's exits from its converged
        // iteration too.
        let oracle = batch_analyze(fa.cfg(), phi0.clone(), &mut IntraResolver).unwrap();
        let batch: Vec<D> = fa.cfg().locs().iter().map(|l| oracle[l].clone()).collect();
        assert_eq!(batch, expected, "batch after `{stmt}` := {rhs}:\n{src}");
        dai_core::consistency::check_cfg_consistency(fa.daig(), fa.cfg()).unwrap();
        dai_core::consistency::check_ai_consistency(fa.daig()).unwrap();
        fa.daig().check_well_formed().unwrap();
    }
}
