//! Crash-injection sweep over the append-only journal (`dai-journal`):
//! however the journal file is damaged, `Engine::open_journal` must
//! recover — without panicking — to a state that IS some prefix of the
//! recorded history, and that state must answer exactly like the
//! sequential batch oracle (`dai_core::batch`, Theorem 6.1) on the
//! prefix's program. A torn tail costs recency, never soundness: every
//! journal prefix is a program state the engine actually passed
//! through.
//!
//! * **every-prefix truncation** — for each byte length `0..=len`, the
//!   file cut there recovers to the longest clean frame prefix and the
//!   recovered session's full sweep matches the batch oracle;
//! * **every-byte flip** — each single corrupted byte is caught by the
//!   frame checksums (or the frame headers), truncating from the
//!   damaged frame on, and the surviving prefix again matches the
//!   oracle;
//! * **compaction equivalence** — under proptest, a journal that was
//!   compacted mid-history (snapshot frames + edit tail) recovers to
//!   the same answers as the full uncompacted history;
//! * **retired frames keep what follows them** — a journal an older
//!   binary wrote, with a `JMEM` (memo) frame between its edits, recovers
//!   every edit and answers like the batch oracle; the leader serves the
//!   edits but not the frame, and compaction drops it;
//! * **compaction loses nothing** — edits, opens and closes hammered in
//!   from several threads while compaction after compaction runs all
//!   survive: recovery answers like the live engine.

use dai_bench::workload::Workload;
use dai_core::batch::batch_analyze;
use dai_core::driver::ProgramEdit;
use dai_core::query::IntraResolver;
use dai_domains::{AbstractDomain, IntervalDomain};
use dai_engine::{Engine, JournalConfig, Service, SessionId};
use dai_journal::{replay_bytes, JournalEntry, JOURNAL_VERSION, TAG_JOURNAL_MEMO};
use dai_lang::Loc;
use dai_persist::PersistDomain;
use proptest::prelude::*;
use std::collections::HashMap;

/// A unique scratch path for journal files.
fn scratch(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "dai-journal-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Records a history — one source-backed open plus `grow` Fig. 10
/// workload edits — into a fresh journal at `path`, returning the edit
/// script (the journal on disk is the artifact under test).
fn record_history(path: &str, grow: usize, seed: u64) -> Vec<ProgramEdit> {
    let _ = std::fs::remove_file(path);
    let engine: Engine<IntervalDomain> = Engine::new(1);
    engine
        .open_journal(path, JournalConfig::default())
        .expect("fresh journal opens");
    let session = engine
        .open_session_src("crash", &Workload::initial_source())
        .unwrap();
    let mut gen = Workload::new(seed);
    let mut edits = Vec::new();
    for _ in 0..grow {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        Service::<IntervalDomain>::edit(&engine, session, &edit).unwrap();
        edits.push(edit);
    }
    edits
}

/// Sorted sweep targets plus the batch-oracle answer at each.
type Oracle = (Vec<(String, Loc)>, Vec<IntervalDomain>);

/// The expected state after `k` replayed journal entries (entry 1 is
/// the open, entries 2..=k the first `k - 1` edits): the sorted sweep
/// targets of that prefix's program plus the batch-oracle answer at
/// each. `k == 0` means no session at all.
fn oracle_for(k: usize, edits: &[ProgramEdit]) -> Oracle {
    assert!(k >= 1, "oracle_for needs at least the open entry");
    let engine: Engine<IntervalDomain> = Engine::new(1);
    let session = engine
        .open_session_src("oracle", &Workload::initial_source())
        .unwrap();
    for edit in &edits[..k - 1] {
        Service::<IntervalDomain>::edit(&engine, session, edit).unwrap();
    }
    let program = engine.program_of(session).unwrap();
    let mut targets = Vec::new();
    let mut answers = Vec::new();
    let mut per_cfg = Vec::new();
    for cfg in program.cfgs() {
        let oracle = batch_analyze(
            cfg,
            IntervalDomain::entry_default(cfg.params()),
            &mut IntraResolver,
        )
        .unwrap_or_else(|e| panic!("prefix {k}: batch oracle: {e}"));
        per_cfg.push((cfg.name().to_string(), cfg.locs(), oracle));
    }
    per_cfg.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, locs, oracle) in per_cfg {
        for loc in locs {
            targets.push((name.clone(), loc));
            answers.push(oracle[&loc].clone());
        }
    }
    (targets, answers)
}

/// Recovers a fresh engine from the journal bytes in `file`, asserts
/// the replayed prefix answers like its batch oracle, and returns how
/// many entries survived. `oracles` caches per-prefix references.
fn assert_recovered_matches_oracle(
    file: &str,
    edits: &[ProgramEdit],
    oracles: &mut HashMap<usize, Oracle>,
    label: &str,
) -> usize {
    let engine: Engine<IntervalDomain> = Engine::new(1);
    let recovery = engine
        .open_journal(file, JournalConfig::default())
        .unwrap_or_else(|e| panic!("{label}: recovery must not fail: {e}"));
    let k = recovery.entries_replayed;
    assert!(k <= 1 + edits.len(), "{label}: impossible prefix {k}");
    if k == 0 {
        // Nothing survived: the engine must be empty, not wrong.
        assert!(
            engine.program_of(SessionId(1)).is_err(),
            "{label}: zero entries replayed but a session exists"
        );
        return 0;
    }
    let (targets, expected) = oracles
        .entry(k)
        .or_insert_with(|| oracle_for(k, edits))
        .clone();
    // Journal replay installs the recovered session first: id 1.
    let got: Vec<IntervalDomain> = engine
        .query_sweep(SessionId(1), &targets)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{label}: sweep failed: {e}")))
        .collect();
    assert_eq!(
        got, expected,
        "{label}: recovered prefix of {k} entries disagrees with the batch oracle"
    );
    k
}

#[test]
fn every_truncation_prefix_recovers_to_an_oracle_consistent_state() {
    let journal = scratch("prefix");
    let edits = record_history(&journal, 5, 379422);
    let bytes = std::fs::read(&journal).unwrap();
    let total = 1 + edits.len();
    let mut oracles = HashMap::new();
    let cut_file = scratch("prefix-cut");
    let mut deepest = 0;
    for cut in 0..=bytes.len() {
        std::fs::write(&cut_file, &bytes[..cut]).unwrap();
        let k = assert_recovered_matches_oracle(
            &cut_file,
            &edits,
            &mut oracles,
            &format!("cut at {cut}"),
        );
        deepest = deepest.max(k);
    }
    assert_eq!(deepest, total, "the uncut file must replay everything");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&cut_file);
}

#[test]
fn every_single_byte_flip_recovers_to_an_oracle_consistent_state() {
    let journal = scratch("flip");
    let edits = record_history(&journal, 4, 911);
    let bytes = std::fs::read(&journal).unwrap();
    let total = 1 + edits.len();
    let mut oracles = HashMap::new();
    let flip_file = scratch("flip-cut");
    let mut shallowest = usize::MAX;
    for i in 0..bytes.len() {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0xFF;
        let k = assert_recovered_matches_oracle(
            flip_file_write(&flip_file, &flipped),
            &edits,
            &mut oracles,
            &format!("flip at {i}"),
        );
        // A flip damages the frame it lands in, so the surviving prefix
        // is always strictly shorter than the whole history.
        assert!(
            k < total,
            "flip at {i}: a corrupted journal replayed all {total} entries"
        );
        shallowest = shallowest.min(k);
    }
    // Flips in the very first frame wipe the whole history.
    assert_eq!(shallowest, 0, "no flip ever landed in the first frame?");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&flip_file);
}

fn flip_file_write<'a>(path: &'a str, bytes: &[u8]) -> &'a str {
    std::fs::write(path, bytes).unwrap();
    path
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Compacting mid-history (snapshot frames replacing the prefix,
    /// later edits riding as the tail) changes the journal's bytes but
    /// not the state it recovers: snapshot + tail ≡ full history.
    #[test]
    fn compacted_journal_recovers_identically_to_full_history(seed in 0u64..100_000) {
        let grow = 3 + (seed as usize % 4);
        let compact_at = 1 + (seed as usize % grow.max(1));

        // Full history, no compaction: the reference journal.
        let full = scratch("proptest-full");
        let edits = record_history(&full, grow, seed);

        // Same history, force-compacted after `compact_at` edits.
        let compacted = scratch("proptest-compacted");
        let _ = std::fs::remove_file(&compacted);
        {
            let engine: Engine<IntervalDomain> = Engine::new(1);
            engine.open_journal(&compacted, JournalConfig::default()).unwrap();
            let session = engine
                .open_session_src("crash", &Workload::initial_source())
                .unwrap();
            for (i, edit) in edits.iter().enumerate() {
                Service::<IntervalDomain>::edit(&engine, session, edit).unwrap();
                if i + 1 == compact_at {
                    prop_assert!(engine.compact_journal(true).unwrap());
                }
            }
        }

        // Both recover; the compacted file holds strictly fewer frames
        // when any tail edits followed the compaction, yet both sweeps
        // agree with the full history's oracle.
        let mut oracles = HashMap::new();
        let k_full = assert_recovered_matches_oracle(&full, &edits, &mut oracles, "full");
        prop_assert_eq!(k_full, 1 + edits.len());

        let (targets, expected) = oracles[&k_full].clone();
        let engine: Engine<IntervalDomain> = Engine::new(1);
        let recovery = engine.open_journal(&compacted, JournalConfig::default()).unwrap();
        prop_assert_eq!(recovery.damaged_len, 0);
        prop_assert!(recovery.entries_replayed <= k_full);
        let got: Vec<IntervalDomain> = engine
            .query_sweep(SessionId(1), &targets)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        prop_assert_eq!(
            got, expected,
            "snapshot + tail recovered differently from the full history"
        );

        let _ = std::fs::remove_file(&full);
        let _ = std::fs::remove_file(&compacted);
    }
}

// ---------------------------------------------------------------------
// Journals written by an older binary.
// ---------------------------------------------------------------------

#[test]
fn a_retired_memo_frame_between_edits_loses_no_edit() {
    let recorded = scratch("retired-recorded");
    let edits = record_history(&recorded, 3, 0x1E7);
    let entries = replay_bytes(&std::fs::read(&recorded).unwrap()).entries;
    assert_eq!(entries.len(), 4, "JOPN and three JEDT");
    // JOPN, JEDT, JMEM, JEDT, JEDT: the memo frame takes sequence number
    // 3 and the edits after it move up one, as an older binary numbered
    // them. Its payload is never read, so any bytes do.
    let mut bytes = Vec::new();
    for (i, entry) in entries.into_iter().enumerate() {
        let seq = entry.seq + u64::from(i >= 2);
        let session_seq = entry.session_seq + u64::from(i >= 2);
        if i == 2 {
            let mut memo = dai_persist::Writer::new();
            for n in [3, entry.session, 3, 4] {
                memo.u64(n);
            }
            memo.bytes(&[5, 0, 0xAB, 0xCD]);
            let memo = memo.into_bytes();
            dai_persist::write_frame(&mut bytes, TAG_JOURNAL_MEMO, JOURNAL_VERSION, &memo);
        }
        let entry = JournalEntry {
            seq,
            session_seq,
            ..entry
        };
        entry.encode_into(&mut bytes);
    }
    let journal = scratch("retired");
    std::fs::write(&journal, &bytes).unwrap();

    let mut oracles = HashMap::new();
    let k = assert_recovered_matches_oracle(&journal, &edits, &mut oracles, "retired JMEM");
    assert_eq!(k, 4, "every edit after the memo frame recovered");
    assert_eq!(std::fs::read(&journal).unwrap(), bytes, "nothing truncated");

    // The leader serves the edits, not the memo frame, and appends above
    // the file's head; compaction then drops the frame.
    let engine: Engine<IntervalDomain> = Engine::new(1);
    engine
        .open_journal(&journal, JournalConfig::default())
        .unwrap();
    let feed = engine.journal().unwrap().frames_since(0, 100).unwrap();
    assert_eq!((feed.count, feed.last_seq), (4, 5));
    assert!(engine.compact_journal(true).unwrap());
    let compacted = std::fs::read(&journal).unwrap();
    assert!(!compacted.windows(4).any(|w| w == TAG_JOURNAL_MEMO));
    let (targets, expected) = &oracles[&4];
    let recovered: Engine<IntervalDomain> = Engine::new(1);
    let recovery = recovered
        .open_journal(&journal, JournalConfig::default())
        .unwrap();
    assert_eq!(recovery.entries_replayed, 1, "one JSNP frame");
    let got = recovered.query_sweep(SessionId(1), targets);
    let got: Vec<IntervalDomain> = got.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(
        &got, expected,
        "the compacted journal answers like the oracle"
    );
    let _ = std::fs::remove_file(&recorded);
    let _ = std::fs::remove_file(&journal);
}

// ---------------------------------------------------------------------
// Compaction racing appends.
// ---------------------------------------------------------------------

/// Every `(function, location)` of the session's program, sorted.
fn all_targets<D: PersistDomain>(engine: &Engine<D>, session: SessionId) -> Vec<(String, Loc)> {
    let program = engine.program_of(session).unwrap();
    let mut targets = Vec::new();
    for cfg in program.cfgs() {
        targets.extend(cfg.locs().into_iter().map(|l| (cfg.name().to_string(), l)));
    }
    targets.sort();
    targets
}

fn full_sweep<D: PersistDomain>(engine: &Engine<D>, session: SessionId) -> Vec<D> {
    let targets = all_targets(engine, session);
    let answers = engine.query_sweep(session, &targets).into_iter();
    answers.map(|r| r.expect("sweep member")).collect()
}

/// A session as recovery must reproduce it: its program's edges and
/// its full sweep's answers.
fn fingerprint(engine: &Engine<IntervalDomain>, session: SessionId) -> String {
    let program = engine.program_of(session).unwrap();
    let mut cfgs: Vec<_> = program
        .cfgs()
        .iter()
        .map(|cfg| {
            let mut edges: Vec<_> = cfg.edges().cloned().collect();
            edges.sort_by_key(|e| e.id);
            (cfg.name().to_string(), edges)
        })
        .collect();
    cfgs.sort_by(|a, b| a.0.cmp(&b.0));
    format!("{cfgs:?} {:?}", full_sweep(engine, session))
}

/// Four threads edit their own sessions — and open, edit and close a
/// throwaway one now and then — while the calling thread forces one
/// compaction after another. A frame appended between a compaction's
/// images and its rename must survive it, so the recovered sessions are
/// exactly the live ones, answer for answer.
fn hammer_through_compactions(seed: u64) {
    const THREADS: u64 = 4;
    const EDITS: usize = 96;
    let journal = scratch("hammer");
    let _ = std::fs::remove_file(&journal);
    let engine: Engine<IntervalDomain> = Engine::new(THREADS as usize);
    engine
        .open_journal(&journal, JournalConfig::default())
        .expect("fresh journal opens");
    let source = Workload::initial_source();
    let running = std::sync::atomic::AtomicU64::new(THREADS);
    let mut compactions = 0;
    let sessions: Vec<SessionId> = std::thread::scope(|scope| {
        let editors: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, source, running) = (&engine, &source, &running);
                scope.spawn(move || {
                    let edit = |session: SessionId, gen: &mut Workload| {
                        let program = engine.program_of(session).unwrap();
                        let edit = gen.next_edit(&program);
                        Service::<IntervalDomain>::edit(engine, session, &edit).unwrap();
                        // Filled DAIGs make the images, and so the race
                        // window, larger.
                        full_sweep(engine, session);
                    };
                    let session = engine.open_session_src(format!("h{t}"), source).unwrap();
                    let mut gen = Workload::new(seed * THREADS + t);
                    for round in 0..EDITS {
                        edit(session, &mut gen);
                        if round % 8 == 3 {
                            let throwaway = engine.open_session_src("throwaway", source).unwrap();
                            edit(throwaway, &mut gen);
                            assert!(engine.close_session(throwaway));
                        }
                    }
                    running.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                    session
                })
            })
            .collect();
        while running.load(std::sync::atomic::Ordering::SeqCst) > 0 {
            assert!(engine.compact_journal(true).unwrap());
            compactions += 1;
        }
        editors.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(
        compactions > 1,
        "only {compactions} compaction(s) raced the edits"
    );
    let mut live: Vec<String> = sessions.iter().map(|&s| fingerprint(&engine, s)).collect();
    live.sort();
    drop(engine);

    let recovered: Engine<IntervalDomain> = Engine::new(1);
    let recovery = recovered
        .open_journal(&journal, JournalConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    assert_eq!(recovery.damaged_len, 0);
    assert_eq!(recovered.stats().sessions, sessions.len(), "seed {seed}");
    // Replay numbers sessions from 1 in journal order; closed ones leave
    // gaps.
    let mut got: Vec<String> = (1..=64)
        .map(SessionId)
        .filter(|&s| recovered.program_of(s).is_ok())
        .map(|s| fingerprint(&recovered, s))
        .collect();
    got.sort();
    assert_eq!(
        got, live,
        "seed {seed}: recovery differs from the live engine"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn edits_racing_forced_compactions_all_survive_recovery() {
    for seed in 1..=6 {
        hammer_through_compactions(seed);
    }
}
