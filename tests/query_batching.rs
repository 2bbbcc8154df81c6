//! Cross-request query batching: coalescing, edit fencing, and
//! `BatchStats` accounting.
//!
//! The engine answers every concurrently pending query against one
//! `(session, function)` from a single union demanded-cone evaluation
//! under a single session-lock acquisition. These tests lock down the
//! three properties that make that sound and worth having:
//!
//! * **identity** — a coalesced batch answers every member with exactly
//!   the sequential batch oracle's value, per member (a bad member fails
//!   alone);
//! * **fencing** — an `Edit` interleaved into a pending batch splits it
//!   at the fence: no query submitted after the edit is ever answered
//!   from pre-edit state, and a *failed* edit still releases the queries
//!   it fenced; a `Load`, which only adds a session, holds back nothing;
//! * **accounting** — `coalesced_queries + singleton_queries` equals the
//!   queries served, one session lock and one union-cone traversal per
//!   cold coalesced batch, a union cone is never larger than the sum
//!   of its members' solo cones, and an `Interproc` session's memo
//!   traffic reaches `EngineStats::memo`;
//! * **caller-served** — a synchronous request runs on the thread that
//!   made it: it answers while every worker is busy, and from inside a
//!   completion hook running on the only worker.

use dai_core::batch::batch_analyze;
use dai_core::driver::ProgramEdit;
use dai_core::interproc::{ContextPolicy, InterAnalyzer};
use dai_core::query::IntraResolver;
use dai_domains::{AbstractDomain, IntervalDomain, OctagonDomain};
use dai_engine::{
    Engine, EngineConfig, EngineError, Request, ResolverChoice, Response, SessionId, Ticket,
};
use dai_lang::cfg::lower_program;
use dai_lang::{parse_program, Loc, Symbol};

use dai_bench::workload::Workload;

const LOOPY: &str = "function f(n) { var i = 0; var s = 0; \
                     while (i < 9) { s = s + i; i = i + 1; } \
                     return s; }";

const STRAIGHT: &str = "function main() { var a = 1; var b = a + 2; return b; }";

fn program(src: &str) -> dai_lang::cfg::LoweredProgram {
    lower_program(&parse_program(src).unwrap()).unwrap()
}

fn oracle_of(cfg: &dai_lang::Cfg) -> dai_core::batch::InvariantMap<IntervalDomain> {
    batch_analyze(
        cfg,
        IntervalDomain::entry_default(cfg.params()),
        &mut IntraResolver,
    )
    .unwrap()
}

#[test]
fn coalesced_batch_takes_one_lock_and_one_union_walk() {
    let engine: Engine<IntervalDomain> = Engine::new(1);
    let session = engine.open_session("batch", program(LOOPY));
    let cfg = engine
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .clone();
    let locs = cfg.locs();
    assert!(locs.len() >= 4, "loopy function has a real sweep");
    let before = engine.stats();
    let answers = engine.query_batch(session, "f", &locs);
    let after = engine.stats();
    // One drain: one session-lock acquisition, one coalesced batch, one
    // union-cone traversal for the whole (cold) sweep.
    assert_eq!(after.session_locks - before.session_locks, 1);
    assert_eq!(after.batch.batches - before.batch.batches, 1);
    assert_eq!(
        after.batch.coalesced_queries - before.batch.coalesced_queries,
        locs.len() as u64
    );
    assert_eq!(
        after.batch.union_cone_walks - before.batch.union_cone_walks,
        1
    );
    assert!(after.batch.union_cone_cells > before.batch.union_cone_cells);
    // Every member answers with the sequential batch oracle's value.
    let oracle = oracle_of(&cfg);
    for (loc, answer) in locs.iter().zip(answers) {
        assert_eq!(answer.unwrap(), oracle[loc], "batched answer at {loc}");
    }
    // A warm repeat of the same batch: still one lock, but no traversal.
    let before = engine.stats();
    let _ = engine.query_batch(session, "f", &locs);
    let after = engine.stats();
    assert_eq!(after.session_locks - before.session_locks, 1);
    assert_eq!(
        after.batch.union_cone_walks - before.batch.union_cone_walks,
        0
    );
}

#[test]
fn batch_members_fail_individually() {
    let engine: Engine<IntervalDomain> = Engine::new(1);
    let session = engine.open_session("batch", program(STRAIGHT));
    let cfg = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    let mut locs = cfg.locs();
    locs.push(Loc(424242)); // bogus member
    let before = engine.stats();
    let answers = engine.query_batch(session, "main", &locs);
    let after = engine.stats();
    // Failed members were still served: the accounting identity holds
    // with failures in the batch.
    assert_eq!(after.queries - before.queries, locs.len() as u64);
    assert_eq!(
        (after.batch.coalesced_queries + after.batch.singleton_queries)
            - (before.batch.coalesced_queries + before.batch.singleton_queries),
        after.queries - before.queries
    );
    let oracle = oracle_of(&cfg);
    for (loc, answer) in locs.iter().zip(&answers) {
        if *loc == Loc(424242) {
            assert!(
                matches!(
                    answer,
                    Err(EngineError::Daig(dai_core::DaigError::NoSuchCell(_)))
                ),
                "bogus member must fail alone: {answer:?}"
            );
        } else {
            assert_eq!(*answer.as_ref().unwrap(), oracle[loc]);
        }
    }
    // Unknown functions and sessions fail every member cleanly.
    for r in engine.query_batch(session, "nope", &cfg.locs()) {
        assert!(matches!(r, Err(EngineError::NoSuchFunction(_))));
    }
    for r in engine.query_batch(SessionId(999), "main", &cfg.locs()) {
        assert!(matches!(r, Err(EngineError::NoSuchSession(_))));
    }
}

/// An `Edit` interleaved between two pending batches: the first batch is
/// answered from the pre-edit program, the second — submitted *after* the
/// edit — must never see pre-edit values, even though it may well be
/// sitting in the same pending queue when the first batch drains. The
/// fence splits the batch instead.
#[test]
fn edit_interleaved_into_pending_batches_never_yields_stale_answers() {
    let engine: Engine<IntervalDomain> = Engine::new(1);
    let session = engine.open_session("fence", program(STRAIGHT));
    let cfg_before = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    let locs = cfg_before.locs();
    assert!(locs.len() >= 2);
    let edge = cfg_before
        .edges()
        .find(|e| e.stmt.to_string() == "a = 1")
        .unwrap()
        .id;
    assert_eq!(engine.session_fence(session), (0, 0), "no fences yet");

    // Pending batch 1 → edit → pending batch 2, all submitted before the
    // single worker can possibly have served them all.
    let batch1 = engine.submit_query_batch(session, "main", &locs);
    let edit_ticket = engine.submit(Request::Edit {
        session,
        edit: ProgramEdit::Relabel {
            func: Symbol::new("main"),
            edge,
            stmt: dai_lang::Stmt::Assign("a".into(), dai_lang::parse_expr("10").unwrap()),
        },
    });
    assert_eq!(
        engine.session_fence(session).0,
        1,
        "the edit bumped the fence at submit time"
    );
    let batch2 = engine.submit_query_batch(session, "main", &locs);

    let pre_oracle = oracle_of(&cfg_before);
    for (loc, t) in locs.iter().zip(batch1) {
        let answer = t.wait().unwrap().into_state().unwrap();
        assert_eq!(answer, pre_oracle[loc], "batch 1 at {loc} is pre-edit");
    }
    assert!(matches!(edit_ticket.wait().unwrap(), Response::Edited(_)));
    // Batch 2 must reflect the edit: check against a fresh-from-scratch
    // analysis of the *edited* program.
    let cfg_after = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    let post_oracle = oracle_of(&cfg_after);
    assert_ne!(
        pre_oracle[&cfg_before.exit()],
        post_oracle[&cfg_after.exit()],
        "the edit must change the exit invariant for this test to bite"
    );
    for (loc, t) in locs.iter().zip(batch2) {
        let answer = t.wait().unwrap().into_state().unwrap();
        assert_eq!(
            answer, post_oracle[loc],
            "batch 2 at {loc} was submitted after the edit and must be post-edit"
        );
    }
    // Epoch assertions: exactly one fence submitted and applied, and the
    // two sweeps were two separate coalesced batches — the pending queue
    // split at the fence rather than merging them.
    assert_eq!(engine.session_fence(session), (1, 1));
    let stats = engine.stats();
    assert_eq!(stats.batch.batches, 2, "{:?}", stats.batch);
    assert_eq!(stats.batch.coalesced_queries, 2 * locs.len() as u64);
    assert_eq!(stats.batch.singleton_queries, 0);
}

/// A failed edit must still advance the fence: the queries it deferred
/// are released (and answered from the unchanged program), never stranded.
#[test]
fn pipelined_edits_to_one_session_apply_in_submit_order_on_any_worker() {
    // Two edits in flight at once, on a pool wide enough to run both: the
    // fence counts completions, so if the second could finish first the
    // query stamped between them would be released against the first's
    // old program. Each round's answers name the round.
    const SRC: &str =
        "function f(n) { var a = 0; return a; } function g(n) { var b = 0; return b; }";
    let engine: Engine<IntervalDomain> = Engine::new(4);
    let session = engine.open_session_src("ordered", SRC).unwrap();
    let program = engine.program_of(session).unwrap();
    let site = |func: &str, var: &str| {
        let cfg = program.by_name(func).unwrap();
        let prefix = format!("{var} = ");
        let mut edges = cfg.edges();
        let edge = edges.find(|e| e.stmt.to_string().starts_with(&prefix));
        (edge.unwrap().id, cfg.exit())
    };
    let ((edge_f, exit_f), (edge_g, exit_g)) = (site("f", "a"), site("g", "b"));
    let relabel = |func: &str, edge, var: &str, k: i64| Request::Edit {
        session,
        edit: ProgramEdit::Relabel {
            func: Symbol::new(func),
            edge,
            stmt: dai_lang::Stmt::Assign(var.into(), dai_lang::Expr::Int(k)),
        },
    };
    let query = |func: &str, loc| Request::Query {
        session,
        func: func.to_string(),
        loc,
    };
    for k in 1..=300 {
        let tickets = [
            engine.submit(relabel("f", edge_f, "a", k)),
            engine.submit(query("f", exit_f)),
            engine.submit(relabel("g", edge_g, "b", -k)),
            engine.submit(query("g", exit_g)),
            engine.submit(query("f", exit_f)),
        ];
        let answers: Vec<String> = tickets
            .into_iter()
            .filter_map(|t| t.wait().unwrap().into_state())
            .map(|s| s.to_string())
            .collect();
        let (a, b) = (format!("a: [{k}, {k}]"), format!("b: [{}, {}]", -k, -k));
        let named = [&a, &b, &a]
            .iter()
            .zip(&answers)
            .all(|(v, s)| s.contains(*v));
        assert!(named && answers.len() == 3, "round {k}: {answers:?}");
    }
}

#[test]
fn failed_edit_still_releases_fenced_queries() {
    let engine: Engine<IntervalDomain> = Engine::new(1);
    let session = engine.open_session("fence", program(STRAIGHT));
    let cfg = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    let locs = cfg.locs();
    let edge = cfg.edges().next().unwrap().id;
    let batch1 = engine.submit_query_batch(session, "main", &locs);
    // A self-recursive call violates the call-graph invariant: rejected.
    let edit_ticket = engine.submit(Request::Edit {
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
    });
    let batch2 = engine.submit_query_batch(session, "main", &locs);
    let oracle = oracle_of(&cfg);
    for t in batch1 {
        let _ = t.wait().unwrap();
    }
    assert!(edit_ticket.wait().is_err(), "the edit must be rejected");
    for (loc, t) in locs.iter().zip(batch2) {
        let answer = t.wait().unwrap().into_state().unwrap();
        assert_eq!(answer, oracle[loc], "released member at {loc}");
    }
    assert_eq!(engine.session_fence(session), (1, 1));
}

extern "C" {
    fn mkfifo(path: *const std::os::raw::c_char, mode: u32) -> i32;
}

/// A `Load` fences nothing: the session it restores has no id until the
/// restore is done, so no pending query can name it. Here it reads its
/// snapshot from a fifo that is written only once both batches around it
/// have answered — it is still in progress while they are served — and
/// then the restored session serves too.
#[test]
fn a_load_between_pending_batches_holds_neither_back() {
    let dir = std::env::temp_dir().join(format!("dai-batch-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("saved.daip").to_string_lossy().into_owned();
    {
        let engine: Engine<IntervalDomain> = Engine::new(1);
        let session = engine.open_session_src("saved", STRAIGHT).unwrap();
        match engine
            .request(Request::Save {
                session,
                path: snap.clone(),
            })
            .unwrap()
        {
            Response::Saved(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    let image = std::fs::read(&snap).unwrap();
    let fifo = dir.join("load.fifo").to_string_lossy().into_owned();
    let c_path = std::ffi::CString::new(fifo.clone()).unwrap();
    // SAFETY: `c_path` is a live NUL-terminated string for the call.
    assert_eq!(unsafe { mkfifo(c_path.as_ptr(), 0o600) }, 0, "mkfifo");

    // Two workers: the load blocks one on the fifo, the other serves.
    let engine: Engine<IntervalDomain> = Engine::new(2);
    let session = engine.open_session("live", program(STRAIGHT));
    let cfg = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    let locs = cfg.locs();
    let mut tickets = engine.submit_query_batch(session, "main", &locs);
    let load_ticket = engine.submit(Request::Load { path: fifo.clone() });
    tickets.extend(engine.submit_query_batch(session, "main", &locs));

    let (served, answered) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let answers: Vec<IntervalDomain> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().into_state().unwrap())
            .collect();
        let _ = served.send(());
        answers
    });
    let before_load = answered.recv_timeout(std::time::Duration::from_secs(60));
    // Only now does the load get its bytes (after a timeout too, so that
    // every thread can finish).
    std::fs::write(&fifo, &image).unwrap();
    let answers = waiter.join().unwrap();
    assert!(before_load.is_ok(), "a batch was held back behind the load");
    let oracle = oracle_of(&cfg);
    for (loc, v) in locs.iter().chain(&locs).zip(answers) {
        assert_eq!(v, oracle[loc], "at {loc}");
    }
    let restored = match load_ticket.wait().unwrap() {
        Response::Loaded { session, .. } => session,
        other => panic!("unexpected {other:?}"),
    };
    let restored_answers = engine.query_batch(restored, "main", &locs);
    for (loc, r) in locs.iter().zip(restored_answers) {
        assert_eq!(r.unwrap(), oracle[loc]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `BatchStats` accounting on the Fig. 10 workload: every served query is
/// either coalesced or a singleton, with one batch (and one lock) per
/// function sweep.
#[test]
fn accounting_balances_on_the_fig10_workload() {
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session("fig10", Workload::initial_program());
    let mut gen = Workload::new(0xBA7C);
    for _ in 0..6 {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        engine.request(Request::Edit { session, edit }).unwrap();
    }
    let program = engine.program_of(session).unwrap();
    let functions: Vec<(String, Vec<Loc>)> = program
        .cfgs()
        .iter()
        .map(|cfg| (cfg.name().to_string(), cfg.locs()))
        .collect();
    let before = engine.stats();
    let mut tickets: Vec<Ticket<OctagonDomain>> = Vec::new();
    for (f, locs) in &functions {
        tickets.extend(engine.submit_query_batch(session, f, locs));
    }
    Ticket::wait_all(tickets).unwrap();
    // A few synchronous one-off queries ride along as singletons.
    let singles = 3u64;
    for _ in 0..singles {
        let (f, loc) = gen.next_queries(&program, 1).pop().unwrap();
        engine.query(session, f.as_str(), loc).unwrap();
    }
    let after = engine.stats();
    let served = after.queries - before.queries;
    let coalesced = after.batch.coalesced_queries - before.batch.coalesced_queries;
    let singleton = after.batch.singleton_queries - before.batch.singleton_queries;
    assert_eq!(
        coalesced + singleton,
        served,
        "every query is coalesced or singleton: {:?}",
        after.batch
    );
    assert_eq!(singleton, singles, "synchronous queries cannot coalesce");
    assert_eq!(
        after.batch.batches - before.batch.batches,
        functions.len() as u64,
        "one coalesced batch per function sweep"
    );
    assert_eq!(
        after.session_locks - before.session_locks,
        functions.len() as u64 + singles,
        "one lock per batch and per singleton"
    );
}

/// The socket path keeps the accounting identity: the same Fig. 10
/// sweep submitted as one wire frame per function (plus a few singleton
/// query frames) produces the same `coalesced + singleton == served`
/// balance and the same one-lock-per-batch profile, observed entirely
/// through the wire's own `stats()` — a remote client never needs
/// in-process access to assert coalescing happened.
#[test]
fn accounting_balances_over_the_socket_path() {
    use dai_engine::Service;
    use dai_rpc::{Addr, Client, Server};
    use std::sync::Arc;

    let engine: Arc<Engine<OctagonDomain>> = Arc::new(Engine::new(1));
    let sock = std::env::temp_dir()
        .join(format!("dai-batch-socket-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let server = Server::bind(&Addr::Unix(sock), Arc::clone(&engine)).unwrap();
    let client: Client<OctagonDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client
        .open("fig10-socket", &Workload::initial_source())
        .unwrap();
    let mut gen = Workload::new(0xBA7C);
    for _ in 0..6 {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        client.edit(session, &edit).unwrap();
    }
    let program = engine.program_of(session).unwrap();
    let functions: Vec<(String, Vec<Loc>)> = program
        .cfgs()
        .iter()
        .map(|cfg| (cfg.name().to_string(), cfg.locs()))
        .collect();
    let before = client.stats().unwrap();
    for (f, locs) in &functions {
        // One wire frame per function: the whole batch coalesces.
        for r in client.query_batch(session, f, locs) {
            r.unwrap();
        }
    }
    // A few per-query frames ride along as singletons.
    let singles = 3u64;
    for _ in 0..singles {
        let (f, loc) = gen.next_queries(&program, 1).pop().unwrap();
        client.query(session, f.as_str(), loc).unwrap();
    }
    let after = client.stats().unwrap();
    let served = after.queries - before.queries;
    let coalesced = after.batch.coalesced_queries - before.batch.coalesced_queries;
    let singleton = after.batch.singleton_queries - before.batch.singleton_queries;
    assert_eq!(
        coalesced + singleton,
        served,
        "every query is coalesced or singleton: {:?}",
        after.batch
    );
    assert_eq!(singleton, singles, "per-query frames cannot coalesce");
    assert_eq!(
        after.batch.batches - before.batch.batches,
        functions.len() as u64,
        "one coalesced batch per function's wire frame"
    );
    assert_eq!(
        after.session_locks - before.session_locks,
        functions.len() as u64 + singles,
        "one lock per batch frame and per singleton frame"
    );
    // The wire's stats byte-agree with the engine's own.
    assert_eq!(after, engine.stats());
    server.shutdown();
}

/// The union cone of a coalesced pair is no larger than the sum of the
/// two members' solo cones — the sharing is the point of coalescing.
#[test]
fn union_cone_is_at_most_the_sum_of_solo_cones() {
    let solo_cone = |loc: Loc| -> u64 {
        let engine: Engine<IntervalDomain> = Engine::new(1);
        let session = engine.open_session("solo", program(LOOPY));
        let before = engine.stats().query_stats.cone_cells;
        engine.query(session, "f", loc).unwrap();
        engine.stats().query_stats.cone_cells - before
    };
    let cfg = program(LOOPY).by_name("f").unwrap().clone();
    let exit = cfg.exit();
    // A location inside the loop body (destination of the guard edge).
    let head = cfg.loop_heads()[0];
    let body = cfg
        .out_edges(head)
        .iter()
        .map(|&e| cfg.edge(e).unwrap().clone())
        .find(|e| e.stmt.to_string().contains('<'))
        .unwrap()
        .dst;
    let c_exit = solo_cone(exit);
    let c_body = solo_cone(body);
    assert!(c_exit > 0 && c_body > 0, "cold solo queries load cones");

    let engine: Engine<IntervalDomain> = Engine::new(1);
    let session = engine.open_session("pair", program(LOOPY));
    let before = engine.stats();
    for r in engine.query_batch(session, "f", &[exit, body]) {
        r.unwrap();
    }
    let after = engine.stats();
    let union = after.batch.union_cone_cells - before.batch.union_cone_cells;
    assert!(union > 0);
    assert!(
        union <= c_exit + c_body,
        "union cone ({union}) exceeds the sum of solo cones ({c_exit} + {c_body})"
    );

    // Same property on the grown Fig. 10 workload's `main`.
    let grow = |seed: u64| -> (Engine<OctagonDomain>, SessionId, Vec<Loc>) {
        let engine: Engine<OctagonDomain> = Engine::new(1);
        let session = engine.open_session("fig10", Workload::initial_program());
        let mut gen = Workload::new(seed);
        for _ in 0..8 {
            let program = engine.program_of(session).unwrap();
            let edit = gen.next_edit(&program);
            engine.request(Request::Edit { session, edit }).unwrap();
        }
        let locs = engine
            .program_of(session)
            .unwrap()
            .by_name("main")
            .unwrap()
            .locs();
        (engine, session, locs)
    };
    let seed = 0xF16;
    let (pair, pair_session, locs) = grow(seed);
    let (a, b) = (locs[0], *locs.last().unwrap());
    let before = pair.stats();
    for r in pair.query_batch(pair_session, "main", &[a, b]) {
        r.unwrap();
    }
    let union = pair.stats().batch.union_cone_cells - before.batch.union_cone_cells;
    let solo = |loc: Loc| -> u64 {
        let (engine, session, _) = grow(seed);
        let before = engine.stats().query_stats.cone_cells;
        engine.query(session, "main", loc).unwrap();
        engine.stats().query_stats.cone_cells - before
    };
    assert!(
        union <= solo(a) + solo(b),
        "fig10 union cone exceeds the sum of solo cones"
    );
}

#[test]
fn interproc_memo_traffic_reaches_the_engine_stats() {
    // An `Interproc` session's analyzer owns its memo table, which the
    // engine's shared table never sees; the engine still reports its
    // traffic. Checked against a twin analyzer given the same queries in
    // the same order: the engine's `memo` is the sum of its batch deltas.
    let src = "function inc(x) { return x + 1; }
               function twice(y) { var a = inc(y); var b = inc(a); return b; }
               function main() { var i = 0; var s = 0;
                                 while (i < 5) { s = twice(s); i = inc(i); }
                                 return s; }";
    let policy = ContextPolicy::CallString(1);
    let config = EngineConfig {
        resolver: ResolverChoice::Interproc { policy },
        ..EngineConfig::default()
    };
    let engine: Engine<IntervalDomain> = Engine::with_config(config);
    let session = engine.open_session_src("memo", src).unwrap();
    let program = engine.program_of(session).unwrap();
    let mut twin: InterAnalyzer<IntervalDomain> = InterAnalyzer::with_config(
        program.clone(),
        policy,
        "main",
        IntervalDomain::entry_default(&[]),
        config.strategy,
        config.transfer,
    );
    let mut twin_memo = dai_memo::MemoStats::default();
    for cfg in program.cfgs() {
        let (func, locs) = (cfg.name().as_str(), cfg.locs());
        for r in engine.query_batch(session, func, &locs) {
            r.unwrap();
        }
        let before = twin.memo_stats();
        for &loc in &locs {
            twin.query_joined(func, loc).unwrap();
        }
        twin_memo.absorb(twin.memo_stats().delta(&before));
    }
    let memo = engine.stats().memo;
    assert!(
        memo.hits + memo.misses > 0,
        "no memo lookups counted: {memo:?}"
    );
    assert_eq!(memo, twin_memo);
}

#[test]
fn memo_capacity_bounds_interproc_sessions_and_answers_alike() {
    // An `Interproc` session's analyzer owns its memo table; the engine's
    // `memo_capacity` bounds it as it bounds the shared one. A small bound
    // rotates entries out, and answers stay those of an unbounded twin,
    // before and after an edit.
    let src = "function inc(x) { return x + 1; }
               function count(n) { var i = 0; while (i < n) { i = i + 1; } return i; }
               function main() { var i = 0; var s = 0;
                                 while (i < 5) { s = inc(s); i = inc(i); }
                                 var c = count(s); return c; }";
    let config = |memo_capacity| EngineConfig {
        resolver: ResolverChoice::Interproc {
            policy: ContextPolicy::CallString(1),
        },
        memo_capacity,
        ..EngineConfig::default()
    };
    let answers = |memo_capacity| {
        let engine: Engine<IntervalDomain> = Engine::with_config(config(memo_capacity));
        let session = engine.open_session_src("bounded", src).unwrap();
        let sweep = |engine: &Engine<IntervalDomain>| {
            let program = engine.program_of(session).unwrap();
            let mut out = Vec::new();
            for cfg in program.cfgs() {
                let (func, locs) = (cfg.name().as_str(), cfg.locs());
                for r in engine.query_batch(session, func, &locs) {
                    out.push(r.unwrap());
                }
            }
            out
        };
        let mut out = sweep(&engine);
        let edge = engine
            .program_of(session)
            .unwrap()
            .by_name("inc")
            .unwrap()
            .edges()
            .next()
            .unwrap()
            .id;
        let edit = ProgramEdit::Relabel {
            func: Symbol::new("inc"),
            edge,
            stmt: dai_lang::Stmt::Assign(
                Symbol::new(dai_lang::RETURN_VAR),
                dai_lang::parse_expr("x + 2").unwrap(),
            ),
        };
        let edited = engine.request(Request::Edit { session, edit }).unwrap();
        assert!(matches!(edited, Response::Edited(_)));
        out.extend(sweep(&engine));
        (out, engine.stats().memo)
    };
    let (bounded, bounded_memo) = answers(Some(8));
    let (unbounded, unbounded_memo) = answers(None);
    assert!(bounded_memo.evictions > 0, "{bounded_memo:?}");
    assert_eq!(unbounded_memo.evictions, 0, "{unbounded_memo:?}");
    assert_eq!(bounded, unbounded);
}

/// Submits asynchronous queries until one's completion hook runs on an
/// engine worker, and runs `on_worker` in that hook. A hook registered
/// after its request was answered runs on the registering thread instead;
/// such an attempt reports `false` and the next one is made.
fn in_a_hook_on_a_worker(
    engine: &Engine<IntervalDomain>,
    session: SessionId,
    exit: Loc,
    on_worker: impl Fn() + Send + Sync + 'static,
) {
    let on_worker = std::sync::Arc::new(on_worker);
    for _ in 0..1000 {
        let (tx, rx) = std::sync::mpsc::channel();
        let on_worker = std::sync::Arc::clone(&on_worker);
        engine
            .submit(Request::Query {
                session,
                func: "main".to_string(),
                loc: exit,
            })
            .on_complete(move |_| {
                let here = std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("dai-worker"));
                let _ = tx.send(here);
                if here {
                    on_worker();
                }
            });
        let here = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the hook ran");
        if here {
            return;
        }
    }
    panic!("no completion hook ran on a worker in 1000 attempts");
}

#[test]
fn a_synchronous_query_answers_while_the_only_worker_is_parked() {
    let engine = std::sync::Arc::new(Engine::<IntervalDomain>::new(1));
    let parked = engine.open_session("parked", program(STRAIGHT));
    let free = engine.open_session("free", program(STRAIGHT));
    let exit = engine
        .program_of(free)
        .unwrap()
        .by_name("main")
        .unwrap()
        .exit();
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let gate = std::sync::Mutex::new(gate);
    in_a_hook_on_a_worker(&engine, parked, exit, move || {
        let _ = gate.lock().unwrap().recv();
    });
    // The only worker now waits on `gate`; a query that needed it would
    // wait too.
    let (tx, rx) = std::sync::mpsc::channel();
    let caller = std::sync::Arc::clone(&engine);
    let asker = std::thread::spawn(move || {
        let _ = tx.send(caller.query(free, "main", exit));
    });
    let answer = rx.recv_timeout(std::time::Duration::from_secs(10));
    release.send(()).unwrap();
    let answer = answer.expect("the synchronous query waited for the parked worker");
    asker.join().unwrap();
    assert_eq!(
        answer.unwrap().interval_of("b"),
        dai_domains::interval::Interval::constant(3)
    );
}

#[test]
fn a_synchronous_request_inside_a_completion_hook_answers() {
    let engine = std::sync::Arc::new(Engine::<IntervalDomain>::new(1));
    let session = engine.open_session("hooked", program(STRAIGHT));
    let cfg = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .clone();
    let exit = cfg.exit();
    let edge = cfg
        .edges()
        .find(|e| e.stmt.to_string() == "a = 1")
        .unwrap()
        .id;
    // The hook holds the engine only weakly, so a hook that never returns
    // keeps no engine alive whose drop would join the stuck worker.
    let weak = std::sync::Arc::downgrade(&engine);
    let (tx, rx) = std::sync::mpsc::channel();
    let tx = std::sync::Mutex::new(tx);
    in_a_hook_on_a_worker(&engine, session, exit, move || {
        let answers = {
            let engine = weak.upgrade().expect("the test holds the engine");
            let edited = engine.request(Request::Edit {
                session,
                edit: ProgramEdit::Relabel {
                    func: Symbol::new("main"),
                    edge,
                    stmt: dai_lang::Stmt::Assign("a".into(), dai_lang::parse_expr("10").unwrap()),
                },
            });
            (edited.is_ok(), engine.query(session, "main", exit))
        };
        let _ = tx.lock().unwrap().send(answers);
    });
    let (edited, answer) = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("a synchronous request inside a hook on the only worker deadlocked");
    assert!(edited);
    assert_eq!(
        answer.unwrap().interval_of("b"),
        dai_domains::interval::Interval::constant(12)
    );
}
