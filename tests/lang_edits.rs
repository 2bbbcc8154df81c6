//! `dai-lang` edits cost what they change and are atomic
//! (`dai_lang::cfg`, "Derived structure"; `dai_lang::edit`, "Atomicity").
//!
//! The differential streams splice and relabel generated blocks — the
//! §7.3 generator's own, and wilder ones it never draws (a leading
//! `while`, nesting, empty arms, `return`s) — into the benchmark's three
//! programs (copies: the benchmark's files are not this suite's to import)
//! and, after **every** step, call [`Cfg::validate`] explicitly (so the
//! patched-structure-equals-recomputation check also runs in `--release`),
//! compare heads and enclosing chains with the dominator-based derivation
//! of [`dai_lang::loops`], and compare the [`SpliceInfo`] read off the id
//! counters with the set-difference definition it replaced.
//!
//! The atomicity streams mix valid edits with every kind of rejection and
//! check each outcome against the raw route (`by_name_mut` + `edit::*` +
//! `refresh_call_graph`) applied to a clone.

use dai_bench::workload::Workload;
use dai_core::driver::ProgramEdit;
use dai_lang::ast::{AstStmt, BinOp, Block, Expr, Stmt};
use dai_lang::cfg::{lower_program, Cfg, CfgError, LoweredProgram};
use dai_lang::edit::{relabel_edge, splice_block_on_edge, SpliceInfo};
use dai_lang::loops::LoopAnalysis;
use dai_lang::parser::{parse_block, parse_program};
use dai_lang::pretty::cfg_to_string;
use dai_lang::{EdgeId, Loc, Symbol};
use proptest::prelude::*;
use std::collections::HashSet;

const FIG10: &str = include_str!("fixtures/fig10_skeleton.dai");
const LOOP_NEST: &str = include_str!("fixtures/loop_nest.dai");
const CALL_FAN: &str = include_str!("fixtures/call_fan.dai");

fn lower(src: &str) -> LoweredProgram {
    lower_program(&parse_program(src).unwrap()).unwrap()
}

/// One of the generator's call-free simple statements.
fn simple_stmt(gen: &mut Workload) -> Stmt {
    match gen.random_block_no_calls().0.swap_remove(0) {
        AstStmt::Simple(s) => s,
        _ => Stmt::Skip,
    }
}

/// A structured block the §7.3 generator never draws: up to three
/// statements, each simple, a branch, a loop (possibly leading, possibly
/// empty), a bare nested block or — with `returns` — a `return`.
fn wild_block(gen: &mut Workload, depth: usize, returns: bool) -> Block {
    let simple = |gen: &mut Workload| AstStmt::Simple(simple_stmt(gen));
    let cond = |gen: &mut Workload| {
        let var = Expr::var(format!("x{}", gen.pick_index(8)));
        Expr::binary(BinOp::Lt, var, Expr::Int(gen.pick_index(9) as i64))
    };
    (0..gen.pick_index(4))
        .map(|_| match gen.pick_index(if depth == 0 { 5 } else { 10 }) {
            0..=3 => simple(gen),
            4 if returns => AstStmt::Return(Some(Expr::Int(1))),
            4 => simple(gen),
            5..=6 => AstStmt::If {
                cond: cond(gen),
                then_: wild_block(gen, depth - 1, returns),
                else_: wild_block(gen, depth - 1, returns),
            },
            7..=8 => AstStmt::While {
                cond: cond(gen),
                body: wild_block(gen, depth - 1, returns),
            },
            _ => AstStmt::Nested(wild_block(gen, depth - 1, returns)),
        })
        .collect()
}

/// What a splice created, by the definition the counters replaced: the
/// locations, edges and heads that were not there before.
struct Before {
    locs: HashSet<Loc>,
    edges: HashSet<EdgeId>,
    heads: HashSet<Loc>,
}

impl Before {
    fn of(cfg: &Cfg) -> Before {
        Before {
            locs: cfg.locs().into_iter().collect(),
            edges: cfg.edges().map(|e| e.id).collect(),
            heads: cfg.loop_heads().into_iter().collect(),
        }
    }

    fn assert_explains(&self, info: &SpliceInfo, cfg: &Cfg, at: &str) {
        let mut locs = cfg.locs();
        locs.retain(|l| !self.locs.contains(l));
        let mut edges: Vec<EdgeId> = cfg.edges().map(|e| e.id).collect();
        edges.retain(|e| !self.edges.contains(e));
        let mut heads = cfg.loop_heads();
        heads.retain(|h| !self.heads.contains(h));
        assert_eq!(info.new_locs, locs, "{at}: new_locs");
        assert_eq!(info.new_edges, edges, "{at}: new_edges");
        assert_eq!(info.new_loop_heads, heads, "{at}: new_loop_heads");
        let moved = cfg.edge(info.edge).unwrap();
        assert_eq!((moved.src, moved.dst), (info.new_src, info.dst), "{at}");
    }
}

fn assert_agrees_with_dominators(cfg: &Cfg, at: &str) {
    let la = LoopAnalysis::of(cfg);
    assert!(la.is_reducible(cfg), "{at}: irreducible");
    assert_eq!(la.heads(), cfg.loop_heads(), "{at}: heads");
    assert_eq!(la.back_edges.len(), cfg.loop_heads().len(), "{at}");
    for l in cfg.locs() {
        assert_eq!(la.enclosing_chain(l), cfg.enclosing_loops(l), "{at}: {l}");
    }
    for h in cfg.loop_heads() {
        let mut body: Vec<Loc> = la.natural_loops[&h].iter().copied().collect();
        body.sort();
        assert_eq!(cfg.natural_loop(h), body, "{at}: body of {h}");
    }
}

fn program_text(program: &LoweredProgram) -> String {
    program.cfgs().iter().map(cfg_to_string).collect()
}

/// `steps` random splices and relabels on `src`. A location that leaves a
/// loop through `return` is lexically inside it and dominator-wise outside
/// (at from-scratch lowering too), so only the streams without `return`
/// are held against [`dai_lang::loops`].
fn run_differential_stream(seed: u64, src: &str, steps: usize, returns: bool) {
    let mut program = lower(src);
    let mut gen = Workload::new(seed);
    let mut spliced = 0;
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        let text = program_text(&program);
        let roll = gen.pick_index(10);
        let (func, edge, block) = match gen.next_edit(&program) {
            ProgramEdit::Insert { func, edge, block } => (func, edge, block),
            ProgramEdit::Relabel { .. } => unreachable!("the generator inserts"),
        };
        let before = Before::of(program.by_name(func.as_str()).unwrap());
        let outcome = match roll {
            // The generator's block: its calls exist only in its skeleton.
            0..=2 => program.splice(func.as_str(), edge, &block).map(Some),
            3..=7 => {
                let block = wild_block(&mut gen, 2, returns);
                program.splice(func.as_str(), edge, &block).map(Some)
            }
            _ => {
                let stmt = simple_stmt(&mut gen);
                let assigns: Vec<EdgeId> = program
                    .by_name(func.as_str())
                    .unwrap()
                    .edges()
                    .filter(|e| matches!(e.stmt, Stmt::Assign(..)))
                    .map(|e| e.id)
                    .collect();
                let edge = assigns[gen.pick_index(assigns.len())];
                program.relabel(func.as_str(), edge, stmt).map(|_| None)
            }
        };
        let cfg = program.by_name(func.as_str()).unwrap();
        match outcome {
            Ok(Some(info)) => {
                before.assert_explains(&info, cfg, &at);
                spliced += 1;
            }
            Ok(None) => {}
            Err(e) => {
                assert!(
                    matches!(
                        e,
                        CfgError::BlockNeverFallsThrough | CfgError::UndefinedFunction(_)
                    ),
                    "{at}: {e}"
                );
                assert_eq!(program_text(&program), text, "{at}: rejected, yet edited");
            }
        }
        cfg.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
        if !returns {
            assert_agrees_with_dominators(cfg, &at);
        }
    }
    assert!(
        spliced > steps / 4,
        "seed {seed}: {spliced} splices applied"
    );
}

/// A statement calling `callee`.
fn call(callee: &str) -> Stmt {
    Stmt::Call {
        lhs: Some(Symbol::new("u")),
        callee: Symbol::new(callee),
        args: vec![Expr::Int(1)],
    }
}

/// One edit of the atomicity stream.
enum Probe {
    Splice(&'static str, EdgeId, Block),
    Relabel(&'static str, EdgeId, Stmt),
}

/// What the program and its index look like from outside.
fn observe(program: &LoweredProgram) -> impl PartialEq {
    let sites: Vec<Vec<(Symbol, EdgeId)>> = program
        .cfgs()
        .iter()
        .map(|cfg| program.call_sites_of(cfg.name().as_str()))
        .collect();
    (
        program_text(program),
        program.topo_order().to_vec(),
        program.call_graph_version(),
        sites,
    )
}

/// The raw route on `program`: edit the CFG, then refresh the index.
fn raw_route(program: &mut LoweredProgram, probe: &Probe) -> Result<(), CfgError> {
    let (Probe::Splice(func, ..) | Probe::Relabel(func, ..)) = probe;
    let cfg = program
        .by_name_mut(func)
        .ok_or_else(|| CfgError::UndefinedFunction(Symbol::new(*func)))?;
    match probe {
        Probe::Splice(_, edge, block) => splice_block_on_edge(cfg, *edge, block).map(|_| ())?,
        Probe::Relabel(_, edge, stmt) => relabel_edge(cfg, *edge, stmt.clone()).map(|_| ())?,
    }
    program.refresh_call_graph()
}

/// `steps` edits to the call fan: valid ones, each kind of rejection, and
/// the acceptance of an undefined callee that is never lowered.
fn run_atomicity_stream(seed: u64, steps: usize) {
    let mut program = lower(CALL_FAN);
    let mut gen = Workload::new(seed);
    let (mut accepted, mut rejected) = (0, 0);
    for step in 0..steps {
        let at = format!("seed {seed} step {step}");
        let any_edge = |gen: &mut Workload, program: &LoweredProgram, f: &str| {
            let edges: Vec<EdgeId> = program.by_name(f).unwrap().edges().map(|e| e.id).collect();
            edges[gen.pick_index(edges.len())]
        };
        let block = |src: &str| parse_block(src).unwrap();
        let (kind, probe, expect_ok) = match gen.pick_index(12) {
            0 => {
                let e = any_edge(&mut gen, &program, "d1");
                (
                    "valid splice",
                    Probe::Splice("d1", e, wild_block(&mut gen, 2, false)),
                    true,
                )
            }
            1 => {
                let e = any_edge(&mut gen, &program, "c2");
                (
                    "valid call",
                    Probe::Splice("c2", e, block("u = leaf(3);")),
                    true,
                )
            }
            2 => {
                // Possibly a call: a2 is on none of the cycles probed below.
                let e = any_edge(&mut gen, &program, "a2");
                ("valid relabel", Probe::Relabel("a2", e, Stmt::Skip), true)
            }
            3 => {
                let e = any_edge(&mut gen, &program, "a1");
                (
                    "valid relabel to a call",
                    Probe::Relabel("a1", e, call("d3")),
                    true,
                )
            }
            4 => (
                "missing edge",
                Probe::Splice("d0", EdgeId(9_999), block("x = 1;")),
                false,
            ),
            5 => (
                "missing edge",
                Probe::Relabel("d0", EdgeId(9_999), Stmt::Skip),
                false,
            ),
            6 => (
                "unknown function",
                Probe::Splice("nope", EdgeId(0), block("x = 1;")),
                false,
            ),
            7 => {
                let e = any_edge(&mut gen, &program, "c1");
                let never = "if (x < 1) { x = 2; return x; } else { return 0; }";
                (
                    "never falls through",
                    Probe::Splice("c1", e, block(never)),
                    false,
                )
            }
            8 => {
                let e = any_edge(&mut gen, &program, "c3");
                let b = block("x = 1; while (x < 3) { u = nope(x); x = x + 1; }");
                ("undefined callee", Probe::Splice("c3", e, b), false)
            }
            9 => {
                // d0 calls leaf.
                let e = any_edge(&mut gen, &program, "leaf");
                ("direct cycle", Probe::Relabel("leaf", e, call("d0")), false)
            }
            10 => {
                // b0 calls c0 calls d0.
                let e = any_edge(&mut gen, &program, "d0");
                let b = block("if (x < 2) { u = leaf(x); } else { w = b0(x); }");
                (
                    "cycle through two functions",
                    Probe::Splice("d0", e, b),
                    false,
                )
            }
            _ => {
                let e = any_edge(&mut gen, &program, "d2");
                let b = block("if (x < 1) { return 0; u = nope(x); } x = x + 1;");
                (
                    "undefined callee behind a return",
                    Probe::Splice("d2", e, b),
                    true,
                )
            }
        };
        let before = observe(&program);
        let mut clone = program.clone();
        let raw = raw_route(&mut clone, &probe);
        let got = match &probe {
            Probe::Splice(f, edge, block) => program.splice(f, *edge, block).map(|_| ()),
            Probe::Relabel(f, edge, stmt) => program.relabel(f, *edge, stmt.clone()).map(|_| ()),
        };
        assert_eq!(got.is_ok(), expect_ok, "{at} ({kind}): {got:?}");
        match (&got, &raw) {
            (Ok(()), Ok(())) => {
                assert!(observe(&program) == observe(&clone), "{at} ({kind})");
                accepted += 1;
            }
            (Err(e), Err(raw)) => {
                assert_eq!(
                    std::mem::discriminant(e),
                    std::mem::discriminant(raw),
                    "{at} ({kind}): {e} / raw route: {raw}"
                );
                assert!(
                    observe(&program) == before,
                    "{at} ({kind}): rejected, yet edited"
                );
                rejected += 1;
            }
            _ => panic!("{at} ({kind}): {got:?} / raw route: {raw:?}"),
        }
        for cfg in program.cfgs() {
            cfg.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
        }
    }
    assert!(accepted > 0 && rejected > 0, "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, .. ProptestConfig::default() })]

    #[test]
    fn edit_streams_keep_the_derived_structure_and_splice_info_right(seed in 0u64..10_000) {
        for src in [FIG10, LOOP_NEST, CALL_FAN] {
            run_differential_stream(seed, src, 60, false);
            run_differential_stream(seed ^ 0x5eed, src, 60, true);
        }
    }

    #[test]
    fn edits_are_atomic_and_agree_with_the_raw_route(seed in 0u64..10_000) {
        run_atomicity_stream(seed, 80);
    }
}
