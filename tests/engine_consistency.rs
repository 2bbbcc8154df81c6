//! From-scratch consistency of the concurrent engine (extends
//! `from_scratch_consistency.rs` to `dai-engine`): after an arbitrary
//! interleaving of edits and queries served through the engine's request
//! stream, every answer — at **every worker count 1..=8** — equals the
//! result of the sequential batch oracle (`dai_core::batch`,
//! Theorem 6.1) on the current program. Answers are additionally compared
//! *across* worker counts, which must be bit-identical: parallel frontier
//! evaluation applies the same `apply_ready` computations to the same
//! inputs, only in a different order.

use dai_bench::workload::Workload;
use dai_core::batch::batch_analyze;
use dai_core::driver::ProgramEdit;
use dai_core::interproc::ContextPolicy;
use dai_core::query::IntraResolver;
use dai_domains::{AbstractDomain, IntervalDomain, OctagonDomain};
use dai_engine::{Engine, EngineConfig, Request, ResolverChoice, Response, SessionId, Ticket};
use dai_lang::cfg::lower_program;
use dai_lang::{parse_program, Loc, Symbol};
use dai_persist::PersistDomain;
use proptest::prelude::*;

const SEED_PROGRAM: &str = "function main() { var x0 = 0; return x0; }";

fn initial_program() -> dai_lang::cfg::LoweredProgram {
    lower_program(&parse_program(SEED_PROGRAM).unwrap()).unwrap()
}

/// Sends `request` the way the script's configuration asks: through the
/// worker pool (`Engine::submit` + `Ticket::wait_all`) when `workers > 1`,
/// else synchronously (`Engine::request`, served on this thread — where
/// the worker count plays no part).
fn send<D: PersistDomain>(
    engine: &Engine<D>,
    workers: usize,
    request: Request,
) -> Result<Response<D>, dai_engine::EngineError> {
    if workers > 1 {
        Ticket::wait_all(vec![engine.submit(request)]).map(|mut r| r.remove(0))
    } else {
        engine.request(request)
    }
}

/// Runs one randomized edit/query script through an engine with `workers`
/// workers under `transfer`, asserting every answer against the batch
/// oracle; returns the full answer trace for cross-worker-count (and
/// cross-transfer-mode) comparison. With one worker the script is served
/// on this thread; with more, through the pool (see [`send`]).
fn run_script<D: PersistDomain>(
    workers: usize,
    seed: u64,
    steps: usize,
    transfer: dai_core::TransferMode,
) -> Vec<D> {
    let engine: Engine<D> = Engine::with_config(EngineConfig {
        workers,
        transfer,
        ..EngineConfig::default()
    });
    let session = engine.open_session(format!("seed-{seed}"), initial_program());
    let mut gen = Workload::new(seed);
    let mut trace = Vec::new();
    for step in 0..steps {
        // Random call-free structured edit at a random edge.
        let cfg = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .clone();
        let edges: Vec<_> = cfg.edges().map(|e| e.id).collect();
        let edge = edges[gen.pick_index(edges.len())];
        let block = gen.random_block_no_calls();
        send(
            &engine,
            workers,
            Request::Edit {
                session,
                edit: ProgramEdit::Insert {
                    func: Symbol::new("main"),
                    edge,
                    block,
                },
            },
        )
        .unwrap_or_else(|e| panic!("workers {workers} seed {seed} step {step}: edit: {e}"));
        // Random query, checked against a from-scratch batch run of the
        // *current* program.
        let cfg = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .clone();
        let locs = cfg.locs();
        let loc = locs[gen.pick_index(locs.len())];
        let query = Request::Query {
            session,
            func: "main".to_string(),
            loc,
        };
        let answer = send(&engine, workers, query)
            .and_then(Response::state_or_invariant)
            .unwrap_or_else(|e| panic!("workers {workers} seed {seed} step {step}: query: {e}"));
        let oracle = batch_analyze(&cfg, D::entry_default(cfg.params()), &mut IntraResolver)
            .unwrap_or_else(|e| panic!("seed {seed} step {step}: oracle: {e}"));
        assert_eq!(
            answer, oracle[&loc],
            "workers {workers} seed {seed} step {step}: engine answer at {loc} \
             differs from the batch oracle"
        );
        trace.push(answer);
    }
    // Final sweep: every location of the final program.
    let cfg = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    let oracle = batch_analyze(&cfg, D::entry_default(cfg.params()), &mut IntraResolver).unwrap();
    let answers: Vec<D> = if workers > 1 {
        // Every query in flight at once: they coalesce on the pool.
        let tickets = cfg
            .locs()
            .into_iter()
            .map(|loc| {
                engine.submit(Request::Query {
                    session,
                    func: "main".to_string(),
                    loc,
                })
            })
            .collect();
        Ticket::wait_all(tickets)
            .unwrap()
            .into_iter()
            .map(|r| r.state_or_invariant().unwrap())
            .collect()
    } else {
        cfg.locs()
            .into_iter()
            .map(|loc| engine.query(session, "main", loc).unwrap())
            .collect()
    };
    for (loc, answer) in cfg.locs().into_iter().zip(answers) {
        assert_eq!(
            answer, oracle[&loc],
            "workers {workers} seed {seed}: final sweep at {loc}"
        );
        trace.push(answer);
    }
    trace
}

#[test]
fn interval_engine_matches_batch_oracle_at_every_worker_count() {
    use dai_core::TransferMode;
    for seed in [0xE11, 0xE12] {
        // The 1-worker compiled trace anchors every other configuration:
        // worker counts AND transfer modes must be bit-identical.
        let reference = run_script::<IntervalDomain>(1, seed, 12, TransferMode::Compiled);
        for transfer in [TransferMode::Compiled, TransferMode::Interp] {
            for workers in 1..=8 {
                if workers == 1 && transfer == TransferMode::Compiled {
                    continue; // the reference itself
                }
                let trace = run_script::<IntervalDomain>(workers, seed, 12, transfer);
                assert_eq!(
                    trace, reference,
                    "seed {seed}: {workers}-worker {transfer:?} trace differs from \
                     the 1-worker compiled trace"
                );
            }
        }
    }
}

#[test]
fn octagon_engine_matches_batch_oracle_at_every_worker_count() {
    use dai_core::TransferMode;
    for seed in [0xE21] {
        let reference = run_script::<OctagonDomain>(1, seed, 8, TransferMode::Compiled);
        for (workers, transfer) in [
            (1, TransferMode::Interp),
            (2, TransferMode::Compiled),
            (4, TransferMode::Interp),
            (8, TransferMode::Compiled),
        ] {
            let trace = run_script::<OctagonDomain>(workers, seed, 8, transfer);
            assert_eq!(
                trace, reference,
                "seed {seed}: {workers}-worker {transfer:?} trace differs from \
                 the 1-worker compiled trace"
            );
        }
    }
}

#[test]
fn concurrent_sessions_all_match_the_oracle() {
    // Eight sessions evolve independently (distinct seeds); their queries
    // are fired concurrently through the async request stream and every
    // in-flight answer must match each session's own oracle.
    let engine: Engine<IntervalDomain> = Engine::new(4);
    let mut sessions: Vec<(SessionId, Workload)> = (0..8u64)
        .map(|i| {
            (
                engine.open_session(format!("c{i}"), initial_program()),
                Workload::new(0xC0 + i),
            )
        })
        .collect();
    for _round in 0..6 {
        // Apply one random edit per session (serialized per session by the
        // engine; concurrent across sessions).
        let edit_tickets: Vec<Ticket<IntervalDomain>> = sessions
            .iter_mut()
            .map(|(s, gen)| {
                let cfg = engine
                    .program_of(*s)
                    .unwrap()
                    .by_name("main")
                    .unwrap()
                    .clone();
                let edges: Vec<_> = cfg.edges().map(|e| e.id).collect();
                let edge = edges[gen.pick_index(edges.len())];
                let block = gen.random_block_no_calls();
                engine.submit(Request::Edit {
                    session: *s,
                    edit: ProgramEdit::Insert {
                        func: Symbol::new("main"),
                        edge,
                        block,
                    },
                })
            })
            .collect();
        for t in edit_tickets {
            assert!(matches!(t.wait().unwrap(), Response::Edited(_)));
        }
        // Fire one query per session concurrently, then check each against
        // its own batch oracle.
        let targets: Vec<(SessionId, dai_lang::Cfg, dai_lang::Loc)> = sessions
            .iter_mut()
            .map(|(s, gen)| {
                let cfg = engine
                    .program_of(*s)
                    .unwrap()
                    .by_name("main")
                    .unwrap()
                    .clone();
                let locs = cfg.locs();
                let loc = locs[gen.pick_index(locs.len())];
                (*s, cfg, loc)
            })
            .collect();
        let query_tickets: Vec<Ticket<IntervalDomain>> = targets
            .iter()
            .map(|(s, _, loc)| {
                engine.submit(Request::Query {
                    session: *s,
                    func: "main".to_string(),
                    loc: *loc,
                })
            })
            .collect();
        for ((s, cfg, loc), t) in targets.iter().zip(query_tickets) {
            let answer = t.wait().unwrap().into_state().unwrap();
            let oracle = batch_analyze(
                cfg,
                IntervalDomain::entry_default(cfg.params()),
                &mut IntraResolver,
            )
            .unwrap();
            assert_eq!(answer, oracle[loc], "session {s} at {loc}");
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.sessions, 8);
    assert_eq!(stats.queries, 48);
    assert_eq!(stats.edits, 48);
}

/// Drains a session's DOT snapshot through the request stream.
fn dot_of<D: PersistDomain>(engine: &Engine<D>, session: SessionId) -> dai_engine::SessionSnapshot {
    match engine.request(Request::Snapshot { session }).unwrap() {
        Response::Snapshot(s) => s,
        other => panic!("unexpected {other:?}"),
    }
}

/// One randomized batched-vs-sequential trial: the same edit stream is
/// applied to two engines under the same resolver; queries — a random mix
/// of same-function batches and cross-function singletons — are answered
/// *batched* (through `submit_query_batch` and the coalescing queue) on
/// one engine and *one at a time, synchronously* on the oracle engine.
/// Every value must agree, and so must the final DOT snapshots.
fn run_batched_vs_sequential(seed: u64, workers: usize, resolver: ResolverChoice) {
    let label = format!("seed {seed} workers {workers} resolver {resolver:?}");
    let batched: Engine<IntervalDomain> = Engine::with_config(EngineConfig {
        workers,
        resolver,
        ..EngineConfig::default()
    });
    let oracle: Engine<IntervalDomain> = Engine::with_config(EngineConfig {
        workers: 1,
        resolver,
        ..EngineConfig::default()
    });
    let sb = batched.open_session("prop", Workload::initial_program());
    let so = oracle.open_session("prop", Workload::initial_program());
    let mut gen = Workload::new(seed);
    for round in 0..3 {
        let edit = gen.next_edit(&batched.program_of(sb).unwrap());
        for (engine, s) in [(&batched, sb), (&oracle, so)] {
            engine
                .request(Request::Edit {
                    session: s,
                    edit: edit.clone(),
                })
                .unwrap_or_else(|e| panic!("{label} round {round}: edit: {e}"));
        }
        let program = batched.program_of(sb).unwrap();
        // Two same-function location batches plus two cross-function
        // singletons per round.
        let mut plan: Vec<(String, Vec<Loc>)> = Vec::new();
        for _ in 0..2 {
            let cfg = &program.cfgs()[gen.pick_index(program.cfgs().len())];
            let locs = cfg.locs();
            let batch: Vec<Loc> = (0..3).map(|_| locs[gen.pick_index(locs.len())]).collect();
            plan.push((cfg.name().to_string(), batch));
        }
        let singles: Vec<(Symbol, Loc)> = gen.next_queries(&program, 2);
        let mut tickets: Vec<(String, Loc, Ticket<IntervalDomain>)> = Vec::new();
        for (f, locs) in &plan {
            for (loc, t) in locs.iter().zip(batched.submit_query_batch(sb, f, locs)) {
                tickets.push((f.clone(), *loc, t));
            }
        }
        for (f, loc) in &singles {
            let t = batched.submit(Request::Query {
                session: sb,
                func: f.to_string(),
                loc: *loc,
            });
            tickets.push((f.to_string(), *loc, t));
        }
        for (f, loc, t) in tickets {
            let answer = t
                .wait()
                .unwrap_or_else(|e| panic!("{label} round {round}: batched {f} {loc}: {e}"))
                .into_state()
                .unwrap();
            let expected = oracle
                .query(so, &f, loc)
                .unwrap_or_else(|e| panic!("{label} round {round}: oracle {f} {loc}: {e}"));
            assert_eq!(
                answer, expected,
                "{label} round {round}: batched answer at {f} {loc} \
                 differs from the one-at-a-time oracle"
            );
        }
    }
    assert_eq!(
        dot_of(&batched, sb),
        dot_of(&oracle, so),
        "{label}: final DOT snapshots differ"
    );
    let stats = batched.stats();
    assert_eq!(
        stats.batch.coalesced_queries + stats.batch.singleton_queries,
        stats.queries,
        "{label}: every served query is coalesced or singleton"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, .. ProptestConfig::default() })]

    #[test]
    fn batched_queries_match_the_sequential_oracle(seed in 0u64..100_000) {
        for resolver in [
            ResolverChoice::Intra,
            ResolverChoice::Interproc { policy: ContextPolicy::CallString(1) },
        ] {
            for workers in 1..=8usize {
                run_batched_vs_sequential(seed, workers, resolver);
            }
        }
    }
}
