//! # dai-engine — a concurrent, multi-session demanded-analysis engine
//!
//! A whole batch of queries against one function can be answered from one
//! **union** demanded cone: `dai_core`'s one evaluator takes many targets
//! and applies cells in exactly the order sequential per-target queries
//! would. This crate turns that into a long-lived service whose unit of
//! parallelism is the **session**: `workers` threads serve that many
//! requests — and so that many sessions — at once, and one thread
//! evaluates a query.
//!
//! * [`pool`] — a fixed worker pool draining a FIFO of request jobs;
//!   workers claim queued jobs in small batches so a dense request stream
//!   does not ping-pong the queue lock;
//! * [`session`] — one loaded program analyzed under a configurable
//!   call-resolution backend ([`ResolverChoice`]): intraprocedural
//!   per-function `FuncAnalysis` units (the default), whose batches are
//!   demanded in rounds through one multi-target
//!   `dai_core::FuncAnalysis::evaluate` each, or an interprocedural
//!   `InterAnalyzer` matching the REPL's answers. Units
//!   are created on demand and edited incrementally; each caches its
//!   `(location → cell)` query resolutions per structural epoch, so a
//!   steady-state query is a hash lookup plus a value clone. Sessions
//!   opened from source record their edit history, which is what makes
//!   them persistable;
//! * [`engine`] — the request stream: `Query { func, loc }`,
//!   `Edit(ProgramEdit)`, `Snapshot`, `Save`/`Load` (snapshot/restore
//!   through `dai-persist` — sessions survive restarts, with lossy
//!   warm-start sections that degrade to cold on damage), and `Stats`
//!   against many sessions, served concurrently over a sharded
//!   [`dai_memo::SharedMemoTable`] that all sessions share. Responses
//!   travel through one-allocation reply slots; `Ticket::wait_all` drains
//!   a batch without a per-request sleep/wake cycle. Concurrently pending
//!   queries against the same `(session, function)` **coalesce**: a
//!   pending queue keyed by target collects them and one leader job
//!   answers the whole group from a single union-cone evaluation under a
//!   single session-lock acquisition ([`BatchStats`] counts the savings;
//!   `Engine::submit_query_batch` submits a sweep as one deliberate
//!   batch). Submit-time fences keep coalescing honest: a query enqueued
//!   after an `Edit` to its session was submitted is never answered from
//!   pre-edit state — the batch splits at the fence instead.
//!
//! ## The consistency contract
//!
//! Every value the engine returns is **bit-identical** to what the
//! sequential evaluator — and therefore the from-scratch batch oracle
//! (`dai_core::batch`, Theorem 6.1) — produces for the same program and
//! location, at every worker count. It holds by construction: there is
//! one evaluator (`dai_core::FuncAnalysis::evaluate`), which computes a
//! cell's value from the cell's own inputs; memo entries are keyed by
//! content hashes of those inputs (so cross-session reuse can only
//! substitute equal values); and a session's graph is only ever touched
//! by the one thread holding its lock. The `engine_consistency`
//! integration suite checks the contract against randomized edit/query
//! interleavings for 1..=8 workers and both transfer modes.
//!
//! ## Quickstart
//!
//! ```
//! use dai_engine::{Engine, Request, Response};
//! use dai_domains::IntervalDomain;
//!
//! let program = dai_lang::cfg::lower_program(&dai_lang::parse_program(
//!     "function main() { var x = 1; while (x < 5) { x = x + 1; } return x; }",
//! )?)?;
//! let engine: Engine<IntervalDomain> = Engine::new(2);
//! let session = engine.open_session("demo", program);
//! let exit = engine.program_of(session)?.by_name("main").unwrap().exit();
//! let state = engine.query(session, "main", exit)?;
//! assert!(state.interval_of("x").contains(5));
//! assert_eq!(engine.stats().queries, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod engine;
pub mod pool;
pub mod service;
pub mod session;
pub mod wire;

pub use engine::{
    BatchStats, Engine, EngineConfig, EngineError, EngineStats, ExplainStats, JournalRecovery,
    PersistOutcome, QueryOptions, ReplicationStats, Request, Response, SessionId, SweepOutcome,
    Ticket,
};
// Re-exported so replication consumers (the RPC replica, the REPL's
// `journal` command) can configure and read journals without depending
// on `dai-journal` directly.
pub use dai_journal::{Journal, JournalConfig, JournalEntry, JournalRecord};
// Re-exported so explain consumers (the RPC layer, the REPL, benches)
// can name the report types without depending on `dai-core` directly.
pub use dai_core::explain::{CellCost, CellOutcome, ExplainReport, FixCost};
// Re-exported so engine users (the RPC server, the REPL) can name the
// trace types `Engine::set_tracing` / `Engine::drain_trace` work with
// without depending on `dai-trace` directly.
pub use dai_trace::{TraceDump, TraceOp};
pub use pool::{PoolHandle, WorkerPool};
pub use service::Service;
pub use session::{EditOutcome, ResolverChoice, Session, SessionCounters, SessionSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use dai_core::driver::ProgramEdit;
    use dai_core::explain::CellOutcome;
    use dai_domains::interval::Interval;
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::{parse_program, Symbol};

    const SRC: &str = "function main() { var a = 1; var b = a + 2; return b; }
                       function aux(p) { var q = p * 2; return q; }";

    fn program() -> dai_lang::cfg::LoweredProgram {
        lower_program(&parse_program(SRC).unwrap()).unwrap()
    }

    #[test]
    fn query_edit_requery_through_the_request_stream() {
        let engine: Engine<IntervalDomain> = Engine::new(2);
        let session = engine.open_session("t", program());
        let exit = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .exit();
        let before = engine.query(session, "main", exit).unwrap();
        assert_eq!(before.interval_of("b"), Interval::constant(3));
        // Edit a = 1 → a = 10 and re-query.
        let edge = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .edges()
            .find(|e| e.stmt.to_string() == "a = 1")
            .unwrap()
            .id;
        let response = engine
            .request(Request::Edit {
                session,
                edit: ProgramEdit::Relabel {
                    func: Symbol::new("main"),
                    edge,
                    stmt: dai_lang::Stmt::Assign("a".into(), dai_lang::parse_expr("10").unwrap()),
                },
            })
            .unwrap();
        assert!(matches!(response, Response::Edited(_)));
        let after = engine.query(session, "main", exit).unwrap();
        assert_eq!(after.interval_of("b"), Interval::constant(12));
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.edits, 1);
        assert_eq!(stats.sessions, 1);
    }

    #[test]
    fn sessions_are_independent_and_concurrent() {
        let engine: Engine<IntervalDomain> = Engine::new(4);
        let ids: Vec<SessionId> = (0..8)
            .map(|i| engine.open_session(format!("s{i}"), program()))
            .collect();
        let exit = engine
            .program_of(ids[0])
            .unwrap()
            .by_name("main")
            .unwrap()
            .exit();
        // Fire all queries asynchronously, then collect.
        let tickets: Vec<Ticket<IntervalDomain>> = ids
            .iter()
            .map(|&s| {
                engine.submit(Request::Query {
                    session: s,
                    func: "main".to_string(),
                    loc: exit,
                })
            })
            .collect();
        for t in tickets {
            let state = t.wait().unwrap().into_state().unwrap();
            assert_eq!(state.interval_of("b"), Interval::constant(3));
        }
        assert_eq!(engine.stats().queries, 8);
        // Memo sharing across sessions: 8 identical programs mean the
        // transfer/join entries recur, so hits must be strictly positive.
        assert!(engine.stats().memo.hits > 0, "{:?}", engine.stats().memo);
    }

    #[test]
    fn completion_hooks_get_the_value_exactly_once() {
        use std::sync::mpsc;
        let engine: Engine<IntervalDomain> = Engine::new(2);
        let session = engine.open_session("t", program());
        let exit = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .exit();
        // The hook receives the value itself, on the filling thread. The
        // sender moves into the hook, so a second firing could not
        // compile, and a hook dropped unfired would end the channel.
        let (tx, rx) = mpsc::channel();
        engine
            .submit(Request::Query {
                session,
                func: "main".to_string(),
                loc: exit,
            })
            .on_complete(move |response| {
                let _ = tx.send((std::thread::current().id(), response));
            });
        let (_, response) = rx.recv().expect("the hook fires");
        let state = response.unwrap().into_state().unwrap();
        assert_eq!(state.interval_of("b"), Interval::constant(3));
        assert!(rx.recv().is_err(), "the hook fired once and was dropped");

        // Registering on an already-filled ticket runs the hook inline,
        // on the caller's thread. A second ticket behind the first on the
        // same worker is the barrier: it cannot be answered before the
        // first is filled.
        let one: Engine<IntervalDomain> = Engine::new(1);
        let filled = one.submit(Request::Stats);
        one.submit(Request::Stats).wait().unwrap();
        let (tx, rx) = mpsc::channel();
        filled.on_complete(move |response| {
            let _ = tx.send((std::thread::current().id(), response));
        });
        let (thread, response) = rx.try_recv().expect("ran before on_complete returned");
        assert_eq!(thread, std::thread::current().id());
        assert!(matches!(response, Ok(Response::Stats(_))));

        // A responder dropped without an answer (a worker that died)
        // delivers `Disconnected` to the hook, as it would to a waiter.
        let (ticket, responder) = crate::engine::reply_slot::<IntervalDomain>();
        let (tx, rx) = mpsc::channel();
        ticket.on_complete(move |response| {
            let _ = tx.send(response);
        });
        assert!(rx.try_recv().is_err(), "nothing to deliver yet");
        drop(responder);
        assert!(matches!(rx.try_recv(), Ok(Err(EngineError::Disconnected))));
    }

    #[test]
    fn unknown_targets_error_cleanly() {
        let engine: Engine<IntervalDomain> = Engine::new(1);
        let session = engine.open_session("t", program());
        assert!(matches!(
            engine.query(SessionId(999), "main", dai_lang::Loc(0)),
            Err(EngineError::NoSuchSession(_))
        ));
        assert!(matches!(
            engine.query(session, "nope", dai_lang::Loc(0)),
            Err(EngineError::NoSuchFunction(_))
        ));
        assert!(matches!(
            engine.query(session, "main", dai_lang::Loc(424242)),
            Err(EngineError::Daig(dai_core::DaigError::NoSuchCell(_)))
        ));
        assert!(engine.close_session(session));
        assert!(!engine.close_session(session));
    }

    fn exit_of(engine: &Engine<IntervalDomain>, s: SessionId, f: &str) -> dai_lang::Loc {
        engine.program_of(s).unwrap().by_name(f).unwrap().exit()
    }

    #[test]
    fn rejected_edit_leaves_the_session_untouched() {
        let engine: Engine<IntervalDomain> = Engine::new(2);
        let session = engine.open_session("t", program());
        let exit = exit_of(&engine, session, "main");
        let before = engine.query(session, "main", exit).unwrap();
        let edge = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .edges()
            .find(|e| e.stmt.to_string() == "a = 1")
            .unwrap()
            .id;
        // A self-recursive call violates the call-graph invariant; the
        // edit must be rejected during staging, not half-applied.
        let err = engine
            .request(Request::Edit {
                session,
                edit: ProgramEdit::Relabel {
                    func: Symbol::new("main"),
                    edge,
                    stmt: dai_lang::Stmt::Call {
                        lhs: Some("a".into()),
                        callee: Symbol::new("main"),
                        args: vec![],
                    },
                },
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::Cfg(_)), "{err}");
        // Program text is unchanged and further requests still work.
        let still_there = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .edges()
            .any(|e| e.stmt.to_string() == "a = 1");
        assert!(still_there, "rejected edit mutated the program");
        assert_eq!(engine.query(session, "main", exit).unwrap(), before);
        // A valid edit afterwards still applies (the session is not
        // poisoned).
        let ok = engine.request(Request::Edit {
            session,
            edit: ProgramEdit::Relabel {
                func: Symbol::new("main"),
                edge,
                stmt: dai_lang::Stmt::Assign("a".into(), dai_lang::parse_expr("7").unwrap()),
            },
        });
        assert!(ok.is_ok());
        let after = engine.query(session, "main", exit).unwrap();
        assert_eq!(after.interval_of("b"), Interval::constant(9));
        assert_eq!(engine.stats().edits, 1, "failed edits are not counted");
    }

    #[test]
    fn snapshots_are_deterministic_across_identical_sessions() {
        let engine: Engine<IntervalDomain> = Engine::new(2);
        let a = engine.open_session("snap", program());
        let b = engine.open_session("snap", program());
        for &s in &[a, b] {
            let _ = engine
                .query(s, "main", exit_of(&engine, s, "main"))
                .unwrap();
            let _ = engine.query(s, "aux", exit_of(&engine, s, "aux")).unwrap();
        }
        let snap_a = match engine.request(Request::Snapshot { session: a }).unwrap() {
            Response::Snapshot(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        let snap_b = match engine.request(Request::Snapshot { session: b }).unwrap() {
            Response::Snapshot(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(
            snap_a, snap_b,
            "structurally identical sessions must snapshot identically"
        );
        assert_eq!(snap_a.functions.len(), 2);
        assert!(snap_a.functions[0].1.starts_with("digraph daig {"));
    }

    const LOOP_SRC: &str = "function main() { var x = 0; while (x < 12) { x = x + 1; } return x; }
         function aux(p) { var q = p + 3; return q; }";

    fn loop_program() -> dai_lang::cfg::LoweredProgram {
        lower_program(&parse_program(LOOP_SRC).unwrap()).unwrap()
    }

    fn all_targets(engine: &Engine<IntervalDomain>, s: SessionId) -> Vec<(String, dai_lang::Loc)> {
        let program = engine.program_of(s).unwrap();
        let mut targets = Vec::new();
        for cfg in program.cfgs() {
            for loc in cfg.locs() {
                targets.push((cfg.name().to_string(), loc));
            }
        }
        targets.sort();
        targets
    }

    #[test]
    fn explain_capture_matches_query_stats_exactly() {
        let engine: Engine<IntervalDomain> = Engine::new(2);
        let session = engine.open_session("t", loop_program());
        let targets = all_targets(&engine, session);
        let before = engine.stats();
        let (results, report) = engine
            .query_sweep_with(session, &targets, QueryOptions { explain: true })
            .unwrap();
        let report = report.expect("explain was requested");
        assert_eq!(results.len(), targets.len());
        for r in &results {
            assert!(r.is_ok(), "{r:?}");
        }
        // The accounting identity: every cell record corresponds to
        // exactly one QueryStats bump of this sweep, in both directions.
        let after = engine.stats();
        let delta = after.query_stats.delta(&before.query_stats);
        report.check_accounting(&delta).unwrap();
        // A cold loop program has real work, a real critical path, and a
        // converged fix; span can never exceed work.
        assert!(report.outcome_cells(CellOutcome::Computed) > 0);
        assert!(report.converged_fixes() > 0, "{report:?}");
        assert!(report.work_ns >= report.span_ns);
        assert!(report.parallelism() >= 1.0);
        // Explain traffic keeps the engine's counter identity intact and
        // feeds the running totals.
        assert_eq!(
            after.batch.coalesced_queries + after.batch.singleton_queries,
            after.queries
        );
        assert_eq!(after.explain.reports, before.explain.reports + 1);
        assert_eq!(after.explain.cells, report.cells.len() as u64);
        assert_eq!(after.explain.domains, vec![("interval".to_string(), 1)]);
        assert_eq!(engine.last_explain().as_ref(), Some(&report));

        // A warm repeat answers everything from cached resolutions; the
        // identity must hold for the all-reused capture too.
        let before = engine.stats().query_stats;
        let warm = engine.explain_sweep(session, &targets).unwrap();
        let delta = engine.stats().query_stats.delta(&before);
        warm.check_accounting(&delta).unwrap();
        assert_eq!(
            warm.outcome_cells(CellOutcome::Reused),
            warm.cells.len() as u64,
            "{warm:?}"
        );
    }

    #[test]
    fn explain_requires_the_intraprocedural_backend() {
        let engine: Engine<IntervalDomain> = Engine::with_config(engine::EngineConfig {
            resolver: ResolverChoice::Interproc {
                policy: dai_core::ContextPolicy::CallString(1),
            },
            ..engine::EngineConfig::default()
        });
        let session = engine.open_session("t", loop_program());
        let exit = exit_of(&engine, session, "main");
        let err = engine
            .explain_sweep(session, &[("main".to_string(), exit)])
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::Daig(dai_core::DaigError::Invariant(m))
                if m.contains("intraprocedural")),
            "{err}"
        );
        // The plain sweep path still answers afterwards.
        let (results, report) = engine
            .query_sweep_with(
                session,
                &[("main".to_string(), exit)],
                QueryOptions::default(),
            )
            .unwrap();
        assert!(report.is_none());
        assert!(results[0].is_ok());
    }

    #[test]
    fn stats_request_reports_through_the_stream() {
        let engine: Engine<IntervalDomain> = Engine::new(3);
        let _ = engine.open_session("t", program());
        match engine.request(Request::Stats).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.workers, 3);
                assert_eq!(s.sessions, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Five independent branches, so ready frontiers are wide and a sweep
    /// demands many locations at once.
    const WIDE: &str = "function f(n) { var a = 0; var b = 0; var c = 0; var d = 0; var e = 0; \
                        if (n < 1) { a = n + 1; } else { a = n - 1; } \
                        if (n < 2) { b = n + 2; } else { b = n - 2; } \
                        if (n < 3) { c = n + 3; } else { c = n - 3; } \
                        if (n < 4) { d = n + 4; } else { d = n - 4; } \
                        while (e < 5) { e = e + 1; } \
                        return a + b + c + d + e; }";

    #[test]
    fn evaluated_cell_counts_do_not_depend_on_the_worker_count() {
        // `workers` is how many sessions are served at once; a query's
        // cone is evaluated by one thread, so the work a sweep does — and
        // its split into computed and memo-matched cells, which racing
        // appliers could shift — is the same whatever the pool size.
        let locs = lower_program(&parse_program(WIDE).unwrap()).unwrap().cfgs()[0].locs();
        assert!(locs.len() >= 8);
        let sweep = |workers: usize| {
            let engine: Engine<IntervalDomain> = Engine::with_config(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let session = engine.open_session_src("wide", WIDE).unwrap();
            let answers: Vec<IntervalDomain> = engine
                .query_batch(session, "f", &locs)
                .into_iter()
                .map(|a| a.unwrap())
                .collect();
            let stats = engine.stats().query_stats;
            (answers, stats.computed, stats.memo_matched)
        };
        let (expected, computed, matched) = sweep(1);
        assert!(computed > 0);
        for workers in [2, 4] {
            let (answers, c, m) = sweep(workers);
            assert_eq!(answers, expected, "workers = {workers}");
            assert_eq!(c + m, computed + matched, "workers = {workers}");
            assert_eq!((c, m), (computed, matched), "workers = {workers}");
        }
    }
}
