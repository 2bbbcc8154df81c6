//! Differential suite for staged transfer compilation (PR 7): under
//! every domain, analyses evaluated in [`TransferMode::Compiled`] must be
//! **bit-for-bit identical** to the interpreted oracle — every queried
//! value, the DOT bytes of the final DAIG, and the memo table's `(key,
//! value-digest)` set — across random programs, random edit
//! (splice/relabel) sequences, and the demanded unrolling those queries
//! force. The octagon is the one domain that stages closures, and a
//! divergence there means a closure took a different branch than
//! `AbstractDomain::transfer`; the `NonRel` domains (and products of them)
//! stage nothing, so their rows prove that the compiled mode's fall-through
//! to the interpreter is exact and counted as interpretation.

use dai_bench::workload::Workload;
use dai_core::analysis::FuncAnalysis;
use dai_core::dot::{to_dot, DotOptions};
use dai_core::query::{IntraResolver, QueryStats};
use dai_core::strategy::FixStrategy;
use dai_core::{TransferMode, Value};
use dai_domains::product::Prod;
use dai_domains::{AbstractDomain, ConstDomain, IntervalDomain, OctagonDomain, SignDomain};
use dai_engine::{Engine, EngineConfig, Request, ResolverChoice, Response};
use dai_lang::cfg::lower_program;
use dai_lang::{parse_program, Stmt};
use dai_memo::{content_digest, MemoTable};
use dai_persist::PersistDomain;
use proptest::prelude::*;

const SEED_PROGRAM: &str = "function main() { var x0 = 0; return x0; }";

fn seed_cfg() -> dai_lang::Cfg {
    lower_program(&parse_program(SEED_PROGRAM).unwrap())
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone()
}

/// The memo table's contents as a canonical `(key, value-digest)` set —
/// bit-identical modes must memoize bit-identical values under the same
/// keys.
fn memo_digests<D: AbstractDomain>(memo: &MemoTable<Value<D>>) -> Vec<(u128, u128)> {
    let mut v: Vec<(u128, u128)> = memo
        .entries()
        .map(|(k, val)| (k.0, content_digest(val)))
        .collect();
    v.sort_unstable();
    v
}

/// Runs the same random splice/relabel/query script through a compiled
/// and an interpreted [`FuncAnalysis`] and asserts bit-identity of
/// values, DOT bytes, and memo digests after every round.
fn run_core_differential<D: AbstractDomain>(domain: &str, seed: u64, rounds: usize, stages: bool) {
    let cfg = seed_cfg();
    let phi0 = D::entry_default(cfg.params());
    let mut compiled = FuncAnalysis::<D>::with_config(
        cfg.clone(),
        phi0.clone(),
        FixStrategy::PAPER,
        TransferMode::Compiled,
    );
    let mut interp =
        FuncAnalysis::<D>::with_config(cfg, phi0, FixStrategy::PAPER, TransferMode::Interp);
    let mut memo_c = MemoTable::new();
    let mut memo_i = MemoTable::new();
    let mut stats_c = QueryStats::default();
    let mut stats_i = QueryStats::default();
    let mut gen = Workload::new(seed);
    for round in 0..rounds {
        let label = format!("{domain} seed {seed} round {round}");
        // One random structured splice, applied to both analyses.
        let edges: Vec<_> = compiled.cfg().edges().map(|e| e.id).collect();
        let edge = edges[gen.pick_index(edges.len())];
        let block = gen.random_block_no_calls();
        compiled
            .splice(edge, &block)
            .unwrap_or_else(|e| panic!("{label}: splice: {e}"));
        interp
            .splice(edge, &block)
            .unwrap_or_else(|e| panic!("{label}: splice: {e}"));
        // Every other round, relabel an assignment edge — the path that
        // restages the table and exercises the digest guard.
        if round % 2 == 1 {
            let target = compiled
                .cfg()
                .edges()
                .filter_map(|e| match &e.stmt {
                    Stmt::Assign(v, _) => Some((e.id, v.clone())),
                    _ => None,
                })
                .next();
            if let Some((id, var)) = target {
                let expr = dai_lang::parse_expr(&format!("{} + {}", var.as_str(), round)).unwrap();
                let stmt = Stmt::Assign(var, expr);
                compiled
                    .relabel(id, stmt.clone())
                    .unwrap_or_else(|e| panic!("{label}: relabel: {e}"));
                interp
                    .relabel(id, stmt)
                    .unwrap_or_else(|e| panic!("{label}: relabel: {e}"));
            }
        }
        // Query every location (forces demanded unrolling of any loops
        // the splices introduced) and compare bit-for-bit.
        for loc in compiled.cfg().locs() {
            let a = compiled
                .query_loc(&mut memo_c, loc, &mut IntraResolver, &mut stats_c)
                .unwrap_or_else(|e| panic!("{label}: compiled query at {loc}: {e}"));
            let b = interp
                .query_loc(&mut memo_i, loc, &mut IntraResolver, &mut stats_i)
                .unwrap_or_else(|e| panic!("{label}: interp query at {loc}: {e}"));
            assert_eq!(a, b, "{label}: value at {loc} diverges");
        }
        // The rendered DAIGs must be byte-identical…
        let opts = DotOptions::default();
        assert_eq!(
            to_dot(compiled.daig(), &opts),
            to_dot(interp.daig(), &opts),
            "{label}: DOT bytes diverge"
        );
        // …and so must what the two runs memoized.
        assert_eq!(
            memo_digests(&memo_c),
            memo_digests(&memo_i),
            "{label}: memo digests diverge"
        );
    }
    // The comparison is only meaningful if the compiled run took the
    // staged path exactly where the domain stages (and the oracle never
    // did).
    assert_eq!(
        stats_c.transfers_compiled > 0,
        stages,
        "{domain} seed {seed}: staged closures used by the compiled run"
    );
    assert_eq!(
        stats_i.transfers_compiled, 0,
        "{domain} seed {seed}: interp oracle used a staged closure"
    );
    assert!(stats_i.transfers_interp > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    #[test]
    fn compiled_matches_interpreter_on_every_compilable_domain(seed in 0u64..100_000) {
        run_core_differential::<SignDomain>("sign", seed, 4, false);
        run_core_differential::<ConstDomain>("const", seed, 4, false);
        run_core_differential::<IntervalDomain>("interval", seed, 4, false);
        run_core_differential::<OctagonDomain>("octagon", seed, 3, true);
        run_core_differential::<Prod<SignDomain, IntervalDomain>>("sign×interval", seed, 3, false);
    }
}

/// Engine-level differential under a resolver choice: the same edit
/// stream and query load through two engines that differ only in
/// [`EngineConfig::transfer`]; every answer and the final DOT snapshots
/// must be bit-identical, and each engine's counters must show it
/// evaluated through its configured path (`stages`: whether `D` has
/// closures for the compiled engine to take).
fn run_engine_differential<D: PersistDomain>(
    seed: u64,
    resolver: ResolverChoice,
    rounds: usize,
    stages: bool,
) {
    let label = format!("{} seed {seed} resolver {resolver:?}", D::domain_tag());
    let mk = |transfer| {
        Engine::<D>::with_config(EngineConfig {
            workers: 2,
            resolver,
            transfer,
            ..EngineConfig::default()
        })
    };
    let compiled = mk(TransferMode::Compiled);
    let interp = mk(TransferMode::Interp);
    let sc = compiled.open_session("diff", Workload::initial_program());
    let si = interp.open_session("diff", Workload::initial_program());
    let mut gen = Workload::new(seed);
    for round in 0..rounds {
        let edit = gen.next_edit(&compiled.program_of(sc).unwrap());
        for (engine, s) in [(&compiled, sc), (&interp, si)] {
            engine
                .request(Request::Edit {
                    session: s,
                    edit: edit.clone(),
                })
                .unwrap_or_else(|e| panic!("{label} round {round}: edit: {e}"));
        }
        for (f, loc) in gen.next_queries(&compiled.program_of(sc).unwrap(), 4) {
            let a = compiled
                .query(sc, f.as_str(), loc)
                .unwrap_or_else(|e| panic!("{label} round {round}: compiled {f} {loc}: {e}"));
            let b = interp
                .query(si, f.as_str(), loc)
                .unwrap_or_else(|e| panic!("{label} round {round}: interp {f} {loc}: {e}"));
            assert_eq!(a, b, "{label} round {round}: answer at {f} {loc} diverges");
        }
    }
    let snap =
        |engine: &Engine<D>, s| match engine.request(Request::Snapshot { session: s }).unwrap() {
            Response::Snapshot(snap) => snap,
            other => panic!("{label}: unexpected {other:?}"),
        };
    assert_eq!(
        snap(&compiled, sc),
        snap(&interp, si),
        "{label}: final DOT snapshots diverge"
    );
    let (cs, is) = (compiled.stats(), interp.stats());
    assert_eq!(
        cs.query_stats.transfers_compiled > 0,
        stages,
        "{label}: staged closures used by the compiled engine"
    );
    assert_eq!(
        is.query_stats.transfers_compiled, 0,
        "{label}: interp engine used a staged closure"
    );
    assert!(is.query_stats.transfers_interp > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, .. ProptestConfig::default() })]

    #[test]
    fn engine_transfer_modes_agree_under_both_resolvers(seed in 0u64..100_000) {
        let interproc = ResolverChoice::Interproc { policy: dai_core::ContextPolicy::CallString(1) };
        run_engine_differential::<IntervalDomain>(seed, ResolverChoice::Intra, 4, false);
        run_engine_differential::<IntervalDomain>(seed, interproc, 4, false);
        run_engine_differential::<OctagonDomain>(seed, ResolverChoice::Intra, 4, true);
        run_engine_differential::<OctagonDomain>(seed, interproc, 4, true);
    }
}

/// The digest guard end to end: after a relabel, a query must never be
/// answered from a closure staged for the old statement — the new value
/// must reflect the new statement immediately in both modes.
#[test]
fn relabel_never_serves_a_stale_closure() {
    let cfg = lower_program(&parse_program("function main() { var x0 = 7; return x0; }").unwrap())
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    for mode in [TransferMode::Compiled, TransferMode::Interp] {
        let mut fa = FuncAnalysis::<OctagonDomain>::with_config(
            cfg.clone(),
            OctagonDomain::entry_default(cfg.params()),
            FixStrategy::PAPER,
            mode,
        );
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let first = fa
            .query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        let edge = fa
            .cfg()
            .edges()
            .find(|e| matches!(&e.stmt, Stmt::Assign(v, _) if v.as_str() == "x0"))
            .unwrap()
            .id;
        fa.relabel(
            edge,
            Stmt::Assign("x0".into(), dai_lang::parse_expr("42").unwrap()),
        )
        .unwrap();
        let second = fa
            .query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        assert_ne!(
            first, second,
            "{mode:?}: relabel to a different constant must change the exit value"
        );
    }
}
