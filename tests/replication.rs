//! End-to-end contract of streaming replication (`dai_rpc::Replica`):
//! a follower that tails a leader's journal over a real socket must be
//! indistinguishable from the leader once caught up — answer for
//! answer, DOT byte for DOT byte — and a follower that has *not*
//! caught up must still be sound: it is simply the leader as of an
//! earlier journal frame, and its answers match the batch oracle on
//! that older program (Stein et al., PLDI 2021, Theorems 6.1–6.3).
//!
//! * **equality** — on the Fig. 10 synthetic workload, a caught-up
//!   follower's full sweep and session DOT byte-match the leader's,
//!   under both `ResolverChoice::Intra` and `Interproc`;
//! * **lag soundness** — a follower frozen mid-history answers exactly
//!   like the batch oracle of its own (older) program, and rejects
//!   direct edits with `EngineError::ReadOnly`;
//! * **compaction** — a follower whose cursor points into compacted-
//!   away history catches up seamlessly through the snapshot frames;
//! * **retired frames** — a `JMEM` frame an older leader ships between
//!   two edits is stepped over, and the edits after it apply.

use dai_bench::workload::Workload;
use dai_core::batch::batch_analyze;
use dai_core::driver::ProgramEdit;
use dai_core::query::IntraResolver;
use dai_domains::{AbstractDomain, IntervalDomain, OctagonDomain};
use dai_engine::{
    Engine, EngineConfig, EngineError, JournalConfig, ResolverChoice, Service, SessionId,
};
use dai_lang::Loc;
use dai_persist::PersistDomain;
use dai_rpc::{Addr, Replica, Server};
use std::sync::Arc;

/// A unique scratch path for sockets and journals.
fn scratch(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "dai-replication-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Replays `grow` Workload edits through a scratch engine, returning
/// the deterministic (source, edit script, sorted sweep targets).
fn fig10_script(grow: usize, seed: u64) -> (String, Vec<ProgramEdit>, Vec<(String, Loc)>) {
    let source = Workload::initial_source();
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("gen", &source).unwrap();
    let mut gen = Workload::new(seed);
    let mut edits = Vec::new();
    for _ in 0..grow {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        Service::<OctagonDomain>::edit(&engine, session, &edit).unwrap();
        edits.push(edit);
    }
    let program = engine.program_of(session).unwrap();
    let mut targets = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    (source, edits, targets)
}

/// A journaled leader engine under the given resolver.
fn journaled_leader<D: PersistDomain>(resolver: ResolverChoice, tag: &str) -> Arc<Engine<D>> {
    let engine: Arc<Engine<D>> = Arc::new(Engine::with_config(EngineConfig {
        workers: 1,
        resolver,
        ..EngineConfig::default()
    }));
    let journal = scratch(&format!("{tag}.daij"));
    let _ = std::fs::remove_file(&journal);
    engine
        .open_journal(&journal, JournalConfig::default())
        .expect("fresh journal attaches");
    engine
}

/// The acceptance gate: a follower that caught up over a real socket
/// answers the full sweep and renders the session DOT byte-identically
/// to the leader.
fn follower_matches_leader(resolver: ResolverChoice, tag: &str) {
    let (source, edits, targets) = fig10_script(10, 379422);
    let leader = journaled_leader::<OctagonDomain>(resolver, tag);

    // The leader's own lifecycle: open, edit history, sweep, DOT.
    let session = leader.open(tag, &source).unwrap();
    for edit in &edits {
        leader.edit(session, edit).unwrap();
    }
    let leader_answers: Vec<_> = leader
        .query_sweep(session, &targets)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let leader_dot = leader.snapshot(session).unwrap();
    assert!(leader_answers.iter().all(|r| r.is_ok()), "leader sweep");

    // Serve the leader and catch a fresh follower up over the socket.
    let server = Server::bind(&Addr::Unix(scratch(tag)), Arc::clone(&leader)).unwrap();
    // The follower engine mirrors the leader's resolver configuration
    // (the stream carries edits, not resolver policy).
    let fresh_follower = || {
        let client = dai_rpc::Client::connect(&server.addr().to_string()).unwrap();
        let engine: Arc<Engine<OctagonDomain>> = Arc::new(Engine::with_config(EngineConfig {
            workers: 1,
            resolver,
            ..EngineConfig::default()
        }));
        Replica::new(client, engine)
    };
    let follower = fresh_follower();
    let applied = follower.catch_up().unwrap();
    assert_eq!(
        applied,
        1 + edits.len() as u64,
        "one open frame plus one frame per edit"
    );

    // The replicated session is the follower's first: id 1. Its sweep
    // and DOT must byte-match the leader's.
    let replica_session = SessionId(1);
    let follower_answers: Vec<_> = follower
        .engine()
        .query_sweep(replica_session, &targets)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    assert_eq!(follower_answers, leader_answers, "follower sweep differs");
    let follower_dot = follower.engine().snapshot(replica_session).unwrap();
    assert_eq!(
        follower_dot, leader_dot,
        "follower session DOT is not byte-identical"
    );

    // Caught up means zero lag, and the replication stats say so.
    let stats = follower.engine().stats();
    assert_eq!(stats.replication.applied_seq, follower.applied_seq());
    assert_eq!(
        stats.replication.applied_frames,
        1 + edits.len() as u64,
        "every frame applied exactly once"
    );

    // A follower keeps no journal of its own, so a restart loses all of
    // its state: the next one replays the leader's from frame zero and
    // applies exactly the frames the first did.
    drop(follower);
    let restarted = fresh_follower();
    assert_eq!(restarted.catch_up().unwrap(), applied, "restart replay");
    assert_eq!(
        restarted.engine().stats().replication.applied_frames,
        applied
    );
    server.shutdown();
}

#[test]
fn caught_up_follower_matches_leader_intra() {
    follower_matches_leader(ResolverChoice::Intra, "intra");
}

#[test]
fn caught_up_follower_matches_leader_interproc() {
    follower_matches_leader(
        ResolverChoice::Interproc {
            policy: dai_core::interproc::ContextPolicy::CallString(1),
        },
        "interproc",
    );
}

#[test]
fn lagged_follower_is_the_leader_as_of_an_earlier_frame() {
    let (source, edits, _) = fig10_script(8, 911);
    let split = 4;
    let leader = journaled_leader::<IntervalDomain>(ResolverChoice::Intra, "lag");
    let session = leader.open("lag", &source).unwrap();
    for edit in &edits[..split] {
        leader.edit(session, edit).unwrap();
    }
    let server = Server::bind(&Addr::Unix(scratch("lag")), Arc::clone(&leader)).unwrap();
    let follower: Replica<IntervalDomain> =
        Replica::connect(&server.addr().to_string(), 1).unwrap();
    follower.catch_up().unwrap();
    let frozen_at = follower.applied_seq();

    // The leader moves on; the follower deliberately does not sync.
    for edit in &edits[split..] {
        leader.edit(session, edit).unwrap();
    }

    // The frozen follower answers exactly like the batch oracle of its
    // OWN (older) program — sound, merely stale.
    let replica_session = SessionId(1);
    let program = follower.engine().program_of(replica_session).unwrap();
    for cfg in program.cfgs() {
        let oracle = batch_analyze(
            cfg,
            IntervalDomain::entry_default(cfg.params()),
            &mut IntraResolver,
        )
        .unwrap();
        for loc in cfg.locs() {
            let func = cfg.name().to_string();
            let got = follower
                .engine()
                .query(replica_session, &func, loc)
                .unwrap();
            assert_eq!(
                got, oracle[&loc],
                "lagged follower differs from its own oracle at {loc}"
            );
        }
    }

    // Replica sessions are read-only: the only write path is the
    // stream. A direct edit is refused in-protocol.
    match follower.engine().edit(replica_session, &edits[split]) {
        Err(EngineError::ReadOnly(id)) => assert_eq!(id, replica_session),
        other => panic!("edit on a replica session: {other:?}"),
    }

    // Syncing now applies exactly the missed frames and re-converges
    // with the leader.
    let outcome = follower.sync_batch(dai_rpc::DEFAULT_PULL_BATCH).unwrap();
    assert_eq!(outcome.applied, (edits.len() - split) as u64);
    assert_eq!(outcome.lag, 0);
    assert!(follower.applied_seq() > frozen_at);
    let program = leader.program_of(session).unwrap();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            let func = cfg.name().to_string();
            assert_eq!(
                follower
                    .engine()
                    .query(replica_session, &func, loc)
                    .unwrap(),
                leader.query(session, &func, loc).unwrap(),
                "post-sync follower differs from leader at {loc}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn a_retired_memo_frame_in_the_stream_is_stepped_over() {
    use dai_journal::{replay_bytes, JournalEntry, JOURNAL_VERSION, TAG_JOURNAL_MEMO};
    let (source, edits, targets) = fig10_script(2, 77);
    let leader = journaled_leader::<IntervalDomain>(ResolverChoice::Intra, "retired");
    let session = leader.open("retired", &source).unwrap();
    for edit in &edits {
        leader.edit(session, edit).unwrap();
    }
    let want: Vec<_> = leader.query_sweep(session, &targets);
    let server = Server::bind(&Addr::Unix(scratch("retired")), Arc::clone(&leader)).unwrap();
    let follower: Replica<IntervalDomain> =
        Replica::connect(&server.addr().to_string(), 1).unwrap();

    // The leader's JOPN, JEDT, JEDT with a JMEM frame cut in after the
    // first edit, numbered as an older leader numbered it.
    let feed = leader.journal().unwrap().frames_since(0, 100).unwrap();
    let mut frames = Vec::new();
    for (i, entry) in replay_bytes(&feed.bytes).entries.into_iter().enumerate() {
        if i == 2 {
            let mut memo = dai_persist::Writer::new();
            for n in [3, entry.session, 3, 2] {
                memo.u64(n);
            }
            memo.bytes(&[5, 0]);
            let memo = memo.into_bytes();
            dai_persist::write_frame(&mut frames, TAG_JOURNAL_MEMO, JOURNAL_VERSION, &memo);
        }
        let shift = u64::from(i >= 2);
        let entry = JournalEntry {
            seq: entry.seq + shift,
            session_seq: entry.session_seq + shift,
            ..entry
        };
        entry.encode_into(&mut frames);
    }
    let batch = dai_rpc::StreamBatch {
        head_seq: 4,
        last_seq: 4,
        count: 4,
        frames,
    };
    let outcome = follower.apply_stream(&batch).unwrap();
    assert_eq!(
        (outcome.applied, outcome.applied_seq, outcome.lag),
        (3, 4, 0)
    );
    let got = follower.engine().query_sweep(SessionId(1), &targets);
    let unwrap = |v: Vec<Result<IntervalDomain, EngineError>>| -> Vec<IntervalDomain> {
        v.into_iter().map(|r| r.unwrap()).collect()
    };
    assert_eq!(unwrap(got), unwrap(want), "follower differs from leader");
    server.shutdown();
}

#[test]
fn follower_catches_up_across_a_compaction() {
    let (source, edits, targets) = fig10_script(6, 2024);
    let leader = journaled_leader::<IntervalDomain>(ResolverChoice::Intra, "compact");
    let session = leader.open("compact", &source).unwrap();
    for edit in &edits[..3] {
        leader.edit(session, edit).unwrap();
    }
    let server = Server::bind(&Addr::Unix(scratch("compact")), Arc::clone(&leader)).unwrap();
    let follower: Replica<IntervalDomain> =
        Replica::connect(&server.addr().to_string(), 1).unwrap();
    follower.catch_up().unwrap();
    let parked_at = follower.applied_seq();

    // The leader edits on, then compacts: the frames the follower's
    // cursor points past are gone, replaced by snapshot frames with
    // FRESH sequence numbers above the old head.
    for edit in &edits[3..] {
        leader.edit(session, edit).unwrap();
    }
    assert!(leader.compact_journal(true).unwrap());
    let journal = leader.journal().expect("journal attached");
    assert!(journal.last_seq() > parked_at);

    // The parked follower pulls: it receives the snapshot frame(s),
    // applies them idempotently over its live session, and converges.
    let applied = follower.catch_up().unwrap();
    assert!(applied >= 1, "the snapshot frame must arrive");
    let replica_session = SessionId(1);
    let leader_answers: Vec<_> = leader
        .query_sweep(session, &targets)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let follower_answers: Vec<_> = follower
        .engine()
        .query_sweep(replica_session, &targets)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    assert_eq!(
        follower_answers, leader_answers,
        "post-compaction follower differs from leader"
    );
    server.shutdown();
}

#[test]
fn subscribing_to_a_journal_less_leader_is_a_structured_rejection() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("nojournal")), engine).unwrap();
    let follower: Replica<IntervalDomain> =
        Replica::connect(&server.addr().to_string(), 1).unwrap();
    match follower.sync_batch(16) {
        Err(EngineError::Remote { code, message }) => {
            assert_eq!(code, "rejected");
            assert!(message.contains("no-journal"), "{message}");
        }
        other => panic!("expected the no-journal rejection, got {other:?}"),
    }
    server.shutdown();
}
