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
//! * **the memo delta is a delta** — over edit/query/save rounds on two
//!   octagon sessions, each memo key is journaled in exactly one `JMEM`
//!   frame, recovery from those frames is warm, a compaction makes the
//!   next save carry the table whole, and every flipped byte of such a
//!   journal — state tables and packed octagons included — still leaves
//!   a prefix that answers like the leader did there;
//! * **compaction loses nothing** — edits, opens and closes hammered in
//!   from several threads while compaction after compaction runs all
//!   survive: recovery answers like the live engine.

use dai_bench::workload::Workload;
use dai_core::batch::batch_analyze;
use dai_core::driver::ProgramEdit;
use dai_core::query::IntraResolver;
use dai_domains::{AbstractDomain, IntervalDomain, OctagonDomain};
use dai_engine::{Engine, JournalConfig, JournalRecord, PersistOutcome, Service, SessionId};
use dai_journal::{replay_bytes, TAG_JOURNAL_MEMO};
use dai_lang::Loc;
use dai_memo::MemoKey;
use dai_persist::PersistDomain;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

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
// The `JMEM` frame: what a save journals, and what recovery makes of it.
// ---------------------------------------------------------------------

type Oct = OctagonDomain;

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

/// Two journaled octagon sessions and the generators that edit them.
struct Rounds {
    engine: Engine<Oct>,
    sessions: [SessionId; 2],
    gens: [Workload; 2],
    snapshot: String,
    /// Every save's outcome, in order.
    saves: Vec<PersistOutcome>,
}

impl Rounds {
    fn start(journal: &str, tag: &str, seed: u64) -> Rounds {
        let _ = std::fs::remove_file(journal);
        let engine: Engine<Oct> = Engine::new(1);
        engine
            .open_journal(journal, JournalConfig::default())
            .expect("fresh journal opens");
        let source = Workload::initial_source();
        let sessions = ["a", "b"].map(|n| engine.open_session_src(n, &source).unwrap());
        Rounds {
            engine,
            sessions,
            gens: [Workload::new(seed), Workload::new(seed + 1)],
            snapshot: scratch(tag),
            saves: Vec::new(),
        }
    }

    /// One round: each session is edited, swept and saved.
    fn round(&mut self) {
        for (session, gen) in self.sessions.into_iter().zip(&mut self.gens) {
            let program = self.engine.program_of(session).unwrap();
            let edit = gen.next_edit(&program);
            Service::<Oct>::edit(&self.engine, session, &edit).unwrap();
            full_sweep(&self.engine, session);
            let outcome = Service::<Oct>::save(&self.engine, session, &self.snapshot).unwrap();
            self.saves.push(outcome);
        }
    }

    fn answers(&self) -> Vec<Vec<Oct>> {
        let sweeps = self.sessions.iter().map(|s| full_sweep(&self.engine, *s));
        sweeps.collect()
    }
}

/// The memo keys of each `JMEM` frame in the journal file, in order.
fn jmem_frames(journal: &str) -> Vec<Vec<MemoKey>> {
    let replay = replay_bytes(&std::fs::read(journal).unwrap());
    assert_eq!(replay.damaged_len, 0);
    let mut frames = Vec::new();
    for entry in replay.entries {
        if let JournalRecord::MemoDelta { bytes } = entry.record {
            let entries = dai_persist::decode_memo_entries::<Oct>(&bytes).expect("frame decodes");
            frames.push(entries.into_iter().map(|(k, _)| k).collect());
        }
    }
    frames
}

/// The journal file without its `JMEM` frames.
fn without_jmem(journal: &str, out: &str) {
    let bytes = std::fs::read(journal).unwrap();
    let (mut kept, mut rest) = (Vec::new(), &bytes[..]);
    while let Some(frame) = dai_persist::split_frame(rest) {
        if frame.header.tag != TAG_JOURNAL_MEMO {
            kept.extend_from_slice(&rest[..frame.consumed]);
        }
        rest = &rest[frame.consumed..];
    }
    assert!(
        rest.is_empty(),
        "a clean journal is a whole number of frames"
    );
    std::fs::write(out, kept).unwrap();
}

/// Recovers a fresh engine from `journal` and sweeps both sessions:
/// the answers, and what the first sweeps cost.
fn recover_and_sweep(journal: &str) -> (Vec<Vec<Oct>>, dai_core::query::QueryStats) {
    let engine: Engine<Oct> = Engine::new(1);
    let recovery = engine
        .open_journal(journal, JournalConfig::default())
        .unwrap();
    assert_eq!(recovery.damaged_len, 0);
    // Replay installs sessions in journal order: ids 1 and 2.
    let answers = [1, 2].map(|id| full_sweep(&engine, SessionId(id)));
    (answers.to_vec(), engine.stats().query_stats)
}

#[test]
fn each_memo_entry_is_journaled_once_and_recovery_from_the_deltas_is_warm() {
    let journal = scratch("delta");
    let mut rounds = Rounds::start(&journal, "delta-snap", 4242);
    for _ in 0..4 {
        rounds.round();
    }
    let table = rounds.saves.last().unwrap().memo_entries;
    let frames = jmem_frames(&journal);
    let journaled: Vec<usize> = rounds.saves.iter().map(|s| s.memo_journaled).collect();
    assert_eq!(frames.iter().map(Vec::len).collect::<Vec<_>>(), journaled);
    assert!(
        journaled.iter().all(|&n| n > 0),
        "every round computed something new: {journaled:?}"
    );
    assert!(
        journaled[1..].iter().all(|&n| n < table),
        "a delta, not the table: {journaled:?}"
    );
    let keys: HashSet<MemoKey> = frames.iter().flatten().copied().collect();
    assert_eq!(
        keys.len(),
        frames.iter().map(Vec::len).sum::<usize>(),
        "no key twice"
    );
    assert_eq!(keys.len(), table, "and every key of the table once");
    // A save with nothing new since the last journals no frame at all.
    let idle = Service::<Oct>::save(&rounds.engine, rounds.sessions[0], &rounds.snapshot).unwrap();
    assert_eq!((idle.memo_journaled, idle.memo_entries), (0, table));
    assert_eq!(jmem_frames(&journal).len(), frames.len());

    // Recovery replays the deltas into the shared table: the first sweep
    // matches where a journal without them must compute.
    let live = rounds.answers();
    let stripped = scratch("delta-stripped");
    without_jmem(&journal, &stripped);
    let (warm_answers, warm) = recover_and_sweep(&journal);
    let (cold_answers, cold) = recover_and_sweep(&stripped);
    assert_eq!(warm_answers, live);
    assert_eq!(cold_answers, live);
    // (Cold still matches a little: the two sessions share a table.)
    assert!(
        warm.memo_matched > cold.memo_matched,
        "{warm:?} vs {cold:?}"
    );
    assert!(warm.computed < cold.computed, "{warm:?} vs {cold:?}");

    // A compaction drops every `JMEM` frame, so the next save carries the
    // table whole, and recovery is as warm as it was.
    assert!(rounds.engine.compact_journal(true).unwrap());
    assert!(jmem_frames(&journal).is_empty());
    let whole = Service::<Oct>::save(&rounds.engine, rounds.sessions[1], &rounds.snapshot).unwrap();
    assert_eq!((whole.memo_journaled, whole.memo_entries), (table, table));
    assert_eq!(
        jmem_frames(&journal)
            .iter()
            .map(Vec::len)
            .collect::<Vec<_>>(),
        [table]
    );
    let (after_answers, after) = recover_and_sweep(&journal);
    assert_eq!(after_answers, live);
    assert!(after.computed <= warm.computed, "{after:?} vs {warm:?}");
    // And the round after that is a delta again.
    rounds.round();
    let last = &rounds.saves[rounds.saves.len() - 2..];
    assert!(last
        .iter()
        .all(|s| 0 < s.memo_journaled && s.memo_journaled < s.memo_entries));
    assert_eq!(recover_and_sweep(&journal).0, rounds.answers());
    for file in [&journal, &stripped, &rounds.snapshot] {
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn every_byte_flip_of_a_journal_with_memo_deltas_recovers_to_a_state_the_leader_was_in() {
    // Two rounds on a small program: opens, edits and two `JMEM` frames
    // per session whose octagons share states through the frame's table.
    let journal = scratch("delta-flip");
    let mut rounds = Rounds::start(&journal, "delta-flip-snap", 77);
    // What the leader answered after each journal frame, by frame count.
    let mut history: Vec<(u64, Vec<Option<Vec<Oct>>>)> = Vec::new();
    let mut note = |rounds: &Rounds| {
        let frames = rounds.engine.journal().unwrap().frames();
        let answers = rounds.sessions.map(|s| Some(full_sweep(&rounds.engine, s)));
        history.push((frames, answers.to_vec()));
    };
    note(&rounds);
    for _ in 0..2 {
        for i in 0..2 {
            let session = rounds.sessions[i];
            let program = rounds.engine.program_of(session).unwrap();
            let edit = rounds.gens[i].next_edit(&program);
            Service::<Oct>::edit(&rounds.engine, session, &edit).unwrap();
            note(&rounds);
            Service::<Oct>::save(&rounds.engine, session, &rounds.snapshot).unwrap();
            note(&rounds);
        }
    }
    let bytes = std::fs::read(&journal).unwrap();
    let total = rounds.engine.journal().unwrap().frames() as usize;
    let deltas = jmem_frames(&journal).len();
    assert!(
        deltas >= 2 && total == 2 + 4 + deltas,
        "{deltas} of {total} frames"
    );
    // The leader's answers once `k` frames were in the journal. The two
    // opens are frames 1 and 2; before both, a session may be absent.
    let expected = |k: usize| -> Vec<Option<Vec<Oct>>> {
        match k {
            0 => vec![None, None],
            1 => vec![history[0].1[0].clone(), None],
            _ => {
                let at = history
                    .iter()
                    .rev()
                    .find(|(frames, _)| *frames as usize <= k);
                at.expect("noted from frame 2 on").1.clone()
            }
        }
    };
    let flip_file = scratch("delta-flip-cut");
    // Every byte of the frames that carry states, and a stride elsewhere.
    let jmem_ranges: Vec<std::ops::Range<usize>> = {
        let (mut ranges, mut at) = (Vec::new(), 0);
        while let Some(frame) = dai_persist::split_frame(&bytes[at..]) {
            if frame.header.tag == TAG_JOURNAL_MEMO {
                ranges.push(at..at + frame.consumed);
            }
            at += frame.consumed;
        }
        ranges
    };
    let in_jmem = |i: usize| jmem_ranges.iter().any(|r| r.contains(&i));
    let stride = (bytes.len() / 400).max(1);
    for i in (0..bytes.len()).filter(|&i| i % stride == 0 || in_jmem(i)) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0xFF;
        std::fs::write(&flip_file, &flipped).unwrap();
        let engine: Engine<Oct> = Engine::new(1);
        let recovery = engine
            .open_journal(&flip_file, JournalConfig::default())
            .unwrap_or_else(|e| panic!("flip at {i}: recovery must not fail: {e}"));
        let k = recovery.entries_replayed;
        assert!(
            k < total,
            "flip at {i}: a corrupted journal replayed all {total} frames"
        );
        let got: Vec<Option<Vec<Oct>>> = [1, 2]
            .map(|id| {
                engine
                    .program_of(SessionId(id))
                    .ok()
                    .map(|_| full_sweep(&engine, SessionId(id)))
            })
            .to_vec();
        assert_eq!(got, expected(k), "flip at {i}: prefix of {k} frames");
    }
    for file in [&journal, &flip_file, &rounds.snapshot] {
        let _ = std::fs::remove_file(file);
    }
}

// ---------------------------------------------------------------------
// Compaction racing appends.
// ---------------------------------------------------------------------

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
