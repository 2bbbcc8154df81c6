//! End-to-end persistence: save → restore → requery must agree with the
//! never-persisted session — value-for-value on every query, and
//! byte-for-byte on the deterministic DOT snapshot — while damaged or
//! truncated snapshot files degrade to a (sound) cold start instead of
//! erroring or panicking.
//!
//! Three layers of evidence:
//!
//! 1. a deterministic fig10-workload roundtrip (grow through the engine's
//!    request stream, save, load into a fresh engine, full query sweep);
//! 2. a property test over random edit histories, checking values *and*
//!    DOT bytes against the live session;
//! 3. adversarial files: corrupted `FUNC` sections must load cold with
//!    identical answers, a `MEMO` section an older binary wrote — intact
//!    or corrupted — must be skipped without costing a `FUNC` section its
//!    warmth, a corrupted `SESS` section must fail cleanly, and every
//!    truncation prefix must either fail cleanly or restore a session
//!    that still answers identically.

use dai_bench::workload::Workload;
use dai_core::interproc::{ContextPolicy, InterAnalyzer};
use dai_domains::{IntervalDomain, OctagonDomain};
use dai_engine::{Engine, EngineConfig, EngineError, Request, ResolverChoice, Response, SessionId};
use dai_lang::cfg::lower_program;
use dai_lang::{parse_program, Loc, Symbol};
use dai_persist::{
    read_sections, Persist, PersistDomain, Reader, SessionImage, SnapshotWriter, Writer, TAG_FUNC,
    TAG_SESSION,
};
use proptest::prelude::*;
use std::sync::Arc;

type D = OctagonDomain;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dai-persistence-tests-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

/// Every `(function, location)` of the session's program, sorted.
fn all_targets<P: PersistDomain>(engine: &Engine<P>, session: SessionId) -> Vec<(String, Loc)> {
    let program = engine.program_of(session).expect("session open");
    let mut targets = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    targets
}

fn sweep<P: PersistDomain>(
    engine: &Engine<P>,
    session: SessionId,
    targets: &[(String, Loc)],
) -> Vec<P> {
    targets
        .iter()
        .map(|(f, loc)| engine.query(session, f, *loc).expect("query succeeds"))
        .collect()
}

fn dot_snapshot<P: PersistDomain>(engine: &Engine<P>, session: SessionId) -> Vec<(String, String)> {
    match engine.request(Request::Snapshot { session }).unwrap() {
        Response::Snapshot(s) => s.functions,
        other => panic!("unexpected {other:?}"),
    }
}

/// An engine + session, the sweep targets, and the live answers.
type GrownSession = (Engine<D>, SessionId, Vec<(String, Loc)>, Vec<D>);

/// Grows a saveable fig10 session through the request stream and fully
/// sweeps it; returns the engine, session, targets, and live answers.
fn grown_session(edits: usize, seed: u64) -> GrownSession {
    let engine: Engine<D> = Engine::new(1);
    let session = engine
        .open_session_src("fig10", &Workload::initial_source())
        .expect("workload source compiles");
    let mut gen = Workload::new(seed);
    for _ in 0..edits {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        engine
            .request(Request::Edit { session, edit })
            .expect("edit applies");
    }
    let targets = all_targets(&engine, session);
    let answers = sweep(&engine, session, &targets);
    (engine, session, targets, answers)
}

fn save_to<P: PersistDomain>(engine: &Engine<P>, session: SessionId, path: &std::path::Path) {
    match engine
        .request(Request::Save {
            session,
            path: path.to_string_lossy().into_owned(),
        })
        .expect("save succeeds")
    {
        Response::Saved(outcome) => {
            assert!(outcome.bytes > 0);
        }
        other => panic!("unexpected {other:?}"),
    }
}

fn load_from(
    engine: &Engine<D>,
    path: &std::path::Path,
) -> Result<(SessionId, dai_engine::PersistOutcome), EngineError> {
    match engine.request(Request::Load {
        path: path.to_string_lossy().into_owned(),
    })? {
        Response::Loaded { session, outcome } => Ok((session, outcome)),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn fig10_roundtrip_restores_identical_answers_and_dot() {
    let (engine, session, targets, live) = grown_session(12, 0xF16);
    let path = scratch("fig10.daip");
    save_to(&engine, session, &path);
    let live_dot = dot_snapshot(&engine, session);
    drop(engine);

    let fresh: Engine<D> = Engine::new(1);
    let (restored, outcome) = load_from(&fresh, &path).expect("load succeeds");
    assert!(outcome.funcs > 0, "warm DAIGs restored: {outcome:?}");
    assert_eq!(outcome.funcs_dropped, 0);
    // The restored session must answer every query with the exact live
    // value, without recomputing anything (pure Q-Reuse).
    let before = fresh.stats().query_stats;
    let answers = sweep(&fresh, restored, &targets);
    assert_eq!(answers, live, "restored answers differ");
    let after = fresh.stats().query_stats;
    assert_eq!(
        after.computed - before.computed,
        0,
        "warm restore recomputed"
    );
    // And the DOT export is byte-identical to the live session's.
    assert_eq!(dot_snapshot(&fresh, restored), live_dot);
}

#[test]
fn corrupted_func_and_memo_sections_degrade_to_cold_start() {
    let (engine, session, targets, live) = grown_session(8, 0xC0);
    let path = scratch("damaged.daip");
    save_to(&engine, session, &path);
    drop(engine);
    // The image with a `MEMO` section behind its `FUNC` sections, as an
    // older binary wrote it. Its payload is never read.
    const TAG_MEMO: [u8; 4] = *b"MEMO";
    let mut with_memo = SnapshotWriter::new();
    let saved = std::fs::read(&path).unwrap();
    let sections = read_sections(&saved).unwrap().sections;
    for s in &sections {
        with_memo.section(s.tag, s.version, s.payload.unwrap());
    }
    with_memo.section(TAG_MEMO, 5, &[0x5A; 32]);
    let clean = with_memo.into_bytes();
    let funcs = sections.iter().filter(|s| s.tag == TAG_FUNC).count();

    // One byte flipped inside every payload tagged one of `tags`, loaded
    // into a fresh engine and swept: what the load kept, and how many
    // cells the sweep had to compute.
    let restore_damaged = |tags: &[[u8; 4]]| {
        let mut bytes = clean.clone();
        let positions: Vec<usize> = bytes
            .windows(4)
            .enumerate()
            .filter(|(_, w)| tags.iter().any(|t| w == t))
            .map(|(i, _)| i)
            .collect();
        assert!(positions.len() >= tags.len());
        for at in positions {
            bytes[at + 24] ^= 0xA5;
        }
        let damaged = scratch("damaged_flipped.daip");
        std::fs::write(&damaged, &bytes).unwrap();
        let fresh: Engine<D> = Engine::new(1);
        let (restored, outcome) = load_from(&fresh, &damaged).expect("lossy load still succeeds");
        // Whatever was dropped, requerying gives the identical answers.
        let answers = sweep(&fresh, restored, &targets);
        assert_eq!(answers, live, "damaged {tags:?}: answers differ");
        (outcome, fresh.stats().query_stats.computed)
    };

    // `SESS`, `FUNC`, `MEMO` loads FUNC-warm: nothing recomputed.
    let (warm, warm_computed) = restore_damaged(&[]);
    assert_eq!((warm.funcs, warm.funcs_dropped), (funcs, 0), "{warm:?}");
    assert_eq!(warm_computed, 0, "a warm restore recomputes nothing");
    // A damaged `MEMO` section costs nothing either.
    let (memo_damaged, computed) = restore_damaged(&[TAG_MEMO]);
    assert_eq!((memo_damaged, computed), (warm, 0));

    let (cold, cold_computed) = restore_damaged(&[TAG_FUNC, TAG_MEMO]);
    assert_eq!(cold.funcs, 0, "every warm section dropped: {cold:?}");
    assert_eq!(cold.funcs_dropped, funcs, "{cold:?}");
    assert!(cold_computed > 0, "cold restore must recompute");
}

/// `bytes` with the payload of every `FUNC` section passed through `edit`
/// and re-framed, so its checksum is good and only the decoder can object.
fn with_func_payloads_edited(bytes: &[u8], edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = SnapshotWriter::new();
    let mut edited = 0;
    for s in read_sections(bytes).unwrap().sections {
        let mut payload = s.payload.expect("clean file").to_vec();
        if s.tag == TAG_FUNC {
            edit(&mut payload);
            edited += 1;
        }
        out.section(s.tag, s.version, &payload);
    }
    assert!(edited > 0);
    out.into_bytes()
}

#[test]
fn hostile_state_tables_and_retired_octagon_tags_drop_their_section_and_restore_cold() {
    let (engine, session, targets, live) = grown_session(6, 0x7AB1E);
    let path = scratch("hostile.daip");
    save_to(&engine, session, &path);
    drop(engine);
    let bytes = std::fs::read(&path).unwrap();
    // Where a FUNC payload's state table starts: after the name and φ₀.
    let table_at = |payload: &[u8]| {
        let mut r = Reader::new(payload);
        Symbol::get(&mut r).unwrap();
        D::get(&mut r).unwrap();
        payload.len() - r.remaining()
    };
    // … and where its first cell's state index sits: after the table, the
    // cell count, the cell's name and the marker that says "a state".
    let first_ref_at = |payload: &[u8]| {
        let mut r = Reader::new(&payload[table_at(payload)..]);
        Vec::<D>::get(&mut r).unwrap();
        r.u64().unwrap();
        dai_core::name::Name::get(&mut r).unwrap();
        assert_eq!(r.u8().unwrap(), 2, "the entry cell holds a state");
        payload.len() - r.remaining()
    };
    let funcs = read_sections(&bytes).unwrap();
    let funcs = funcs.sections.iter().filter(|s| s.tag == TAG_FUNC).count();
    type Edit<'a> = Box<dyn Fn(&mut Vec<u8>) + 'a>;
    let cases: Vec<(&str, Edit)> = vec![
        (
            "a table count beyond the input",
            Box::new(|p| {
                let at = table_at(p);
                p[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            }),
        ),
        (
            "a state index out of range",
            Box::new(|p| {
                let at = first_ref_at(p);
                p[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            }),
        ),
        (
            "a forward state index",
            Box::new(|p| {
                let at = first_ref_at(p);
                p[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
            }),
        ),
        (
            "a retired octagon tag in the table",
            Box::new(|p| {
                let at = table_at(p) + 8;
                assert_eq!(p[at], 3, "the table's first state is a packed octagon");
                p[at] = 2;
            }),
        ),
    ];
    let hostile = scratch("hostile_edited.daip");
    for (what, edit) in cases {
        std::fs::write(&hostile, with_func_payloads_edited(&bytes, edit)).unwrap();
        let fresh: Engine<D> = Engine::new(1);
        let (restored, outcome) =
            load_from(&fresh, &hostile).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!((outcome.funcs, outcome.funcs_dropped), (0, funcs), "{what}");
        assert_eq!(sweep(&fresh, restored, &targets), live, "{what}");
    }
}

#[test]
fn corrupted_session_header_fails_cleanly() {
    let (engine, session, _, _) = grown_session(4, 0x5E55);
    let path = scratch("badsess.daip");
    save_to(&engine, session, &path);
    drop(engine);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes
        .windows(4)
        .position(|w| w == TAG_SESSION)
        .expect("has SESS");
    bytes[at + 16] ^= 0xFF;
    let bad = scratch("badsess_flipped.daip");
    std::fs::write(&bad, &bytes).unwrap();
    let fresh: Engine<D> = Engine::new(1);
    let err = load_from(&fresh, &bad).unwrap_err();
    assert!(matches!(err, EngineError::Persist(_)), "{err}");
    assert_eq!(fresh.stats().sessions, 0, "no half-restored session");
}

#[test]
fn every_truncation_prefix_is_cold_start_or_clean_error() {
    let (engine, session, targets, live) = grown_session(6, 0x7A);
    let path = scratch("trunc.daip");
    save_to(&engine, session, &path);
    drop(engine);
    let bytes = std::fs::read(&path).unwrap();
    // The file under the knife holds state tables that do something: its
    // cells repeat states, and decoding hands the repeats one handle.
    let (image, _) = SessionImage::<D>::from_bytes(&bytes).unwrap();
    let states = image.funcs.iter().flat_map(|f| {
        let cells = f
            .daig
            .ids()
            .filter_map(|id| f.daig.value_id(id)?.as_state());
        cells.map(|s| s.encode_identity().unwrap())
    });
    let states: Vec<u64> = states.collect();
    let handles: std::collections::HashSet<u64> = states.iter().copied().collect();
    assert!(
        handles.len() < states.len(),
        "{} of {}",
        handles.len(),
        states.len()
    );
    drop(image);
    // Sample prefixes across the whole file (every byte would be slow with
    // engine startup per cut; a stride still crosses every section
    // boundary region).
    let cuts: Vec<usize> = (0..bytes.len())
        .step_by((bytes.len() / 97).max(1))
        .chain([bytes.len() - 1, bytes.len() - 9, bytes.len() / 2])
        .collect();
    let trunc = scratch("trunc_cut.daip");
    for cut in cuts {
        std::fs::write(&trunc, &bytes[..cut]).unwrap();
        let fresh: Engine<D> = Engine::new(1);
        match load_from(&fresh, &trunc) {
            Err(EngineError::Persist(_)) => {} // header or SESS gone: clean error
            Err(other) => panic!("cut {cut}: unexpected error {other}"),
            Ok((restored, _)) => {
                // Whatever survived must still answer identically.
                let answers = sweep(&fresh, restored, &targets);
                assert_eq!(answers, live, "cut {cut}: truncated restore answers differ");
            }
        }
    }
}

#[test]
fn two_saves_racing_to_one_path_leave_one_whole_image() {
    // Two workers, two sessions, one path: each save writes its own
    // temporary and renames it, so whichever rename lands last the file is
    // one of the two images, whole — never a mix, and never a failed save
    // because the other renamed "its" temporary away.
    let engine: Arc<Engine<D>> = Arc::new(Engine::new(2));
    let sessions = [3usize, 5].map(|edits| {
        let session = engine
            .open_session_src(format!("racer-{edits}"), &Workload::initial_source())
            .unwrap();
        let mut gen = Workload::new(edits as u64);
        for _ in 0..edits {
            let edit = gen.next_edit(&engine.program_of(session).unwrap());
            engine.request(Request::Edit { session, edit }).unwrap();
        }
        let targets = all_targets(&*engine, session);
        (session, sweep(&*engine, session, &targets), targets)
    });
    let path = scratch("raced.daip");
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (session, _, _) in &sessions {
            let (engine, path, start) = (&engine, &path, &start);
            scope.spawn(move || {
                start.wait();
                for _ in 0..25 {
                    save_to(&**engine, *session, path);
                }
            });
        }
    });
    let fresh: Engine<D> = Engine::new(1);
    let (restored, outcome) = load_from(&fresh, &path).expect("the survivor loads");
    assert!(
        !outcome.truncated && outcome.funcs_dropped == 0,
        "{outcome:?}"
    );
    let whole = sessions.iter().any(|(_, live, targets)| {
        all_targets(&fresh, restored) == *targets && sweep(&fresh, restored, targets) == *live
    });
    assert!(whole, "the file is neither session's image");
    let dir = path.parent().unwrap();
    let litter: Vec<_> = std::fs::read_dir(dir).unwrap().flatten().collect();
    let stray = litter
        .iter()
        .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"));
    assert_eq!(stray.count(), 0, "temporaries are renamed, not left");
}

#[test]
fn saving_a_sourceless_session_reports_not_replayable() {
    let program =
        lower_program(&parse_program("function main() { var x = 1; return x; }").unwrap()).unwrap();
    let engine: Engine<IntervalDomain> = Engine::new(1);
    let session = engine.open_session("no-source", program);
    let err = engine
        .request(Request::Save {
            session,
            path: scratch("never.daip").to_string_lossy().into_owned(),
        })
        .unwrap_err();
    assert!(matches!(err, EngineError::NotReplayable(_)), "{err}");
}

#[test]
fn interproc_sessions_match_the_repl_analyzer() {
    // The pluggable resolver: an engine configured with
    // `ResolverChoice::Interproc` must answer exactly like the REPL's
    // `InterAnalyzer` (same policy) — the ROADMAP's "serve matches the
    // REPL's interprocedural answers".
    let src = "function inc(x) { return x + 1; }
               function main() { var a = 1; var b = inc(a); var i = 0;
                                 while (i < b) { i = i + 1; } return i; }";
    let policy = ContextPolicy::CallString(1);
    let engine: Engine<IntervalDomain> = Engine::with_config(EngineConfig {
        resolver: ResolverChoice::Interproc { policy },
        ..EngineConfig::default()
    });
    let session = engine.open_session_src("interproc", src).unwrap();
    let mut analyzer: InterAnalyzer<IntervalDomain> = InterAnalyzer::new(
        lower_program(&parse_program(src).unwrap()).unwrap(),
        policy,
        "main",
        IntervalDomain::top(),
    );
    for (f, loc) in all_targets(&engine, session) {
        let engine_answer = engine.query(session, &f, loc).unwrap();
        let repl_answer = analyzer.query_joined(&f, loc).unwrap();
        assert_eq!(engine_answer, repl_answer, "{f} {loc}");
    }
    // Interprocedural effect is visible (not the havoc answer): b = 2.
    let exit = engine
        .program_of(session)
        .unwrap()
        .by_name("main")
        .unwrap()
        .exit();
    let state = engine.query(session, "main", exit).unwrap();
    assert_eq!(
        state.interval_of("b"),
        dai_domains::interval::Interval::constant(2)
    );
    // Edits route through the interprocedural units too.
    let inc_edge = engine
        .program_of(session)
        .unwrap()
        .by_name("inc")
        .unwrap()
        .edges()
        .find(|e| e.stmt.to_string().contains("__ret"))
        .unwrap()
        .id;
    engine
        .request(Request::Edit {
            session,
            edit: dai_core::ProgramEdit::Relabel {
                func: Symbol::new("inc"),
                edge: inc_edge,
                stmt: dai_lang::Stmt::Assign(
                    dai_lang::RETURN_VAR.into(),
                    dai_lang::parse_expr("x + 10").unwrap(),
                ),
            },
        })
        .unwrap();
    let after = engine.query(session, "main", exit).unwrap();
    assert_eq!(
        after.interval_of("b"),
        dai_domains::interval::Interval::constant(11),
        "editing the callee dirties the caller through the resolver"
    );
}

#[test]
fn snapshots_restore_under_their_saved_resolver_not_the_engines() {
    // A snapshot's semantics travel with it: an Intra-saved warm snapshot
    // loaded into an Interproc-configured engine restores as an *Intra*
    // session (that is what was persisted), so its warm DAIGs install and
    // it answers exactly like the saved session —
    // the engine's resolver config applies only to newly opened sessions.
    let (engine, session, targets, live) = grown_session(4, 0xAB);
    let path = scratch("cross-config.daip");
    save_to(&engine, session, &path);
    drop(engine);
    let interproc: Engine<D> = Engine::with_config(EngineConfig {
        resolver: ResolverChoice::Interproc {
            policy: ContextPolicy::Insensitive,
        },
        ..EngineConfig::default()
    });
    let (restored, outcome) = match interproc
        .request(Request::Load {
            path: path.to_string_lossy().into_owned(),
        })
        .expect("load succeeds")
    {
        Response::Loaded { session, outcome } => (session, outcome),
        other => panic!("unexpected {other:?}"),
    };
    assert!(
        outcome.funcs > 0,
        "saved-resolver warm units install: {outcome:?}"
    );
    assert_eq!(outcome.funcs_dropped, 0, "{outcome:?}");
    assert_eq!(
        sweep(&interproc, restored, &targets),
        live,
        "restored session answers like the session that was saved"
    );
    // A *new* session on the same engine still gets the engine's
    // configured interprocedural resolver.
    let fresh = interproc
        .open_session_src("fresh", &Workload::initial_source())
        .unwrap();
    let snap = match interproc
        .request(Request::Save {
            session: fresh,
            path: scratch("fresh-ip.daip").to_string_lossy().into_owned(),
        })
        .expect("save succeeds")
    {
        Response::Saved(outcome) => outcome,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(snap.funcs, 0, "interproc sessions snapshot cold");
}

#[test]
fn interproc_save_restores_cold_with_identical_answers() {
    let src = "function inc(x) { return x + 1; }
               function main() { var a = 1; var b = inc(a); return b; }";
    let policy = ContextPolicy::CallString(1);
    let config = EngineConfig {
        resolver: ResolverChoice::Interproc { policy },
        ..EngineConfig::default()
    };
    let engine: Engine<IntervalDomain> = Engine::with_config(config);
    let session = engine.open_session_src("ip", src).unwrap();
    let targets = all_targets(&engine, session);
    let live = sweep(&engine, session, &targets);
    let path = scratch("interproc.daip");
    save_to(&engine, session, &path);
    drop(engine);
    let fresh: Engine<IntervalDomain> = Engine::with_config(config);
    let (restored, outcome) = load_from_iv(&fresh, &path);
    assert_eq!(outcome.funcs, 0, "interproc restores cold");
    assert_eq!(sweep(&fresh, restored, &targets), live);
}

fn load_from_iv(
    engine: &Engine<IntervalDomain>,
    path: &std::path::Path,
) -> (SessionId, dai_engine::PersistOutcome) {
    match engine
        .request(Request::Load {
            path: path.to_string_lossy().into_owned(),
        })
        .expect("load succeeds")
    {
        Response::Loaded { session, outcome } => (session, outcome),
        other => panic!("unexpected {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Property test: random edit histories roundtrip value-for-value and
// DOT-byte-for-byte.
// ---------------------------------------------------------------------

fn run_random_roundtrip(seed: u64, edits: usize) {
    let engine: Engine<D> = Engine::new(1);
    let session = engine
        .open_session_src(format!("prop-{seed}"), &Workload::initial_source())
        .expect("workload source compiles");
    let mut gen = Workload::new(seed);
    // Random call-free structured edits at random edges of random
    // functions (call-free keeps any edge a valid insertion point).
    for _ in 0..edits {
        let program = engine.program_of(session).unwrap();
        let cfgs = program.cfgs();
        let cfg = &cfgs[gen.pick_index(cfgs.len())];
        let edges: Vec<_> = cfg.edges().map(|e| e.id).collect();
        let edge = edges[gen.pick_index(edges.len())];
        let func = cfg.name().clone();
        let block = gen.random_block_no_calls();
        engine
            .request(Request::Edit {
                session,
                edit: dai_core::ProgramEdit::Insert { func, edge, block },
            })
            .expect("edit applies");
    }
    let targets = all_targets(&engine, session);
    let live = sweep(&engine, session, &targets);
    let live_dot = dot_snapshot(&engine, session);
    let path = scratch(&format!("prop-{seed}.daip"));
    save_to(&engine, session, &path);
    drop(engine);

    let fresh: Engine<D> = Engine::new(1);
    let (restored, outcome) = load_from(&fresh, &path).expect("load succeeds");
    assert_eq!(outcome.funcs_dropped, 0, "intact file drops nothing");
    let answers = sweep(&fresh, restored, &targets);
    assert_eq!(answers, live, "seed {seed}: value mismatch after restore");
    assert_eq!(
        dot_snapshot(&fresh, restored),
        live_dot,
        "seed {seed}: DOT mismatch after restore"
    );
}

/// Entries on the edges of the token codec (±126 and ±127: one byte or
/// the escape), of `i64`, of the `INF` sentinel and of the closure's
/// exactness bound 2⁴⁰.
const EDGE_ENTRIES: [i64; 21] = [
    i64::MAX,
    i64::MAX - 1,
    i64::MIN,
    i64::MIN + 1,
    0,
    1,
    -1,
    126,
    -126,
    127,
    -127,
    128,
    -128,
    1 << 40,
    -(1 << 40),
    (1 << 40) + 1,
    -(1 << 40) - 1,
    (1 << 40) - 1,
    1 - (1 << 40),
    i64::MAX / 2,
    i64::MIN / 2,
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Any half the domain can hold survives the wire exactly: the decoded
    /// octagon is equal, hashes to the same fingerprint, and encodes to
    /// the same bytes — whatever sits in its entries.
    #[test]
    fn packed_octagons_with_edge_entries_roundtrip_exactly(
        n in 0usize..5,
        picks in prop::collection::vec(0usize..EDGE_ENTRIES.len() * 2, 60..61),
    ) {
        use dai_domains::octagon::Oct;
        let vars: Vec<Symbol> = (0..n).map(|i| Symbol::new(format!("v{i}"))).collect();
        // Half the draws are INF, as in a real matrix, so runs form.
        let entry = |p: usize| EDGE_ENTRIES.get(p).copied().unwrap_or(i64::MAX);
        let mut half: Vec<i64> = picks[..2 * n * (n + 1)].iter().map(|&p| entry(p)).collect();
        for k in 0..n {
            // Row i starts at ⌊(i+1)²/2⌋; a block's two diagonal entries
            // are twins that are both stored.
            let (even, odd) = (2 * k, 2 * k + 1);
            half[(odd + 1) * (odd + 1) / 2 + odd] = half[(even + 1) * (even + 1) / 2 + even];
        }
        let oct = D::seal(Oct::from_packed(vars, half.clone()).expect("valid parts"));
        let mut w = Writer::new();
        oct.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = D::get(&mut r).expect("decodes");
        prop_assert!(r.is_exhausted());
        prop_assert_eq!(&back, &oct);
        prop_assert_eq!(dai_memo::content_digest(&back), dai_memo::content_digest(&oct));
        let D::Oct(o) = &back else { panic!("not ⊥") };
        prop_assert_eq!(o.packed(), &half[..]);
        let mut again = Writer::new();
        back.put(&mut again);
        prop_assert_eq!(again.into_bytes(), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    #[test]
    fn save_restore_requery_agrees_with_live_session(seed in 0u64..100_000) {
        run_random_roundtrip(seed, 6);
    }
}

// ---------------------------------------------------------------------
// Per-session counter accounting.
// ---------------------------------------------------------------------

#[test]
fn save_and_load_counters_are_attributed_per_session_not_engine_wide() {
    // Two sessions with deliberately different persistence traffic: the
    // engine-wide `saves`/`loads` totals must decompose into the
    // per-session counters, and neither session may see the other's.
    let engine: Engine<D> = Engine::new(1);
    let source = "function main() { var x = 1; return x; }";
    let busy = engine.open_session_src("busy", source).unwrap();
    let quiet = engine.open_session_src("quiet", source).unwrap();

    let busy_path = scratch("per-session-busy.daip");
    let quiet_path = scratch("per-session-quiet.daip");
    for _ in 0..3 {
        save_to(&engine, busy, &busy_path);
    }
    save_to(&engine, quiet, &quiet_path);

    let busy_counters = engine.session_counters(busy).unwrap();
    let quiet_counters = engine.session_counters(quiet).unwrap();
    assert_eq!(busy_counters.saves, 3, "busy session saves");
    assert_eq!(quiet_counters.saves, 1, "quiet session saves");
    assert_eq!(busy_counters.loads, 0, "never restored");
    assert_eq!(quiet_counters.loads, 0, "never restored");

    // A restore produces a NEW session whose loads counter starts at 1;
    // the source session's counters are untouched.
    let (restored, _) = match engine
        .request(Request::Load {
            path: busy_path.to_string_lossy().into_owned(),
        })
        .expect("load succeeds")
    {
        Response::Loaded { session, outcome } => (session, outcome),
        other => panic!("unexpected {other:?}"),
    };
    let restored_counters = engine.session_counters(restored).unwrap();
    assert_eq!(restored_counters.loads, 1, "restored session loads");
    assert_eq!(restored_counters.saves, 0, "restored session never saved");
    assert_eq!(engine.session_counters(busy).unwrap().saves, 3);

    // The engine-wide totals are exactly the per-session sums.
    let stats = engine.stats();
    assert_eq!(
        stats.saves,
        busy_counters.saves + quiet_counters.saves,
        "engine saves != sum of session saves"
    );
    assert_eq!(stats.loads, 1, "engine loads != sum of session loads");

    // Query/edit attribution splits the same way: drive only `busy`.
    let exit = engine
        .program_of(busy)
        .unwrap()
        .by_name("main")
        .unwrap()
        .exit();
    engine.query(busy, "main", exit).unwrap();
    assert_eq!(engine.session_counters(busy).unwrap().queries, 1);
    assert_eq!(engine.session_counters(quiet).unwrap().queries, 0);

    let _ = std::fs::remove_file(&busy_path);
    let _ = std::fs::remove_file(&quiet_path);
}
