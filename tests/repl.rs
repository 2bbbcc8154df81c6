//! End-to-end tests of the `dai-repl` binary: pipe command scripts through
//! stdin and check the printed analysis results, exercising the
//! query → edit → re-query loop the way an IDE integration would.

use std::io::Write;
use std::process::{Command, Stdio};

const PROGRAM: &str = r#"
function inc(x) { return x + 1; }
function main() {
    var a = 1;
    var b = inc(a);
    var i = 0;
    while (i < b) { i = i + 1; }
    return i;
}
"#;

/// Runs the REPL on `program` with `args`, feeding `script` to stdin;
/// returns (stdout, stderr).
fn run_repl(program: &str, args: &[&str], script: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!(
        "dai-repl-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("program.js");
    std::fs::write(&path, program).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_dai_repl"))
        .args(args)
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dai-repl");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("repl exits");
    assert!(out.status.success(), "repl failed: {out:?}");
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn loads_and_lists_functions() {
    let (stdout, stderr) = run_repl(PROGRAM, &[], "list\nquit\n");
    assert!(stdout.contains("loaded 2 function(s)"), "{stdout}");
    assert!(stdout.contains("main()"), "{stdout}");
    assert!(stdout.contains("loop heads"), "{stdout}");
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
}

#[test]
fn queries_report_interval_states() {
    let (stdout, _) = run_repl(PROGRAM, &[], "queryall main\nquit\n");
    // b = inc(1) = 2, and the loop exit refines i to [2, +inf].
    assert!(stdout.contains("b: [2, 2]"), "{stdout}");
    assert!(stdout.contains("i: [2, +inf]"), "{stdout}");
}

#[test]
fn edit_then_requery_reflects_change() {
    // Find the `a = 1` edge deterministically: it is e0 of main… rather
    // than hard-coding, relabel via the printed CFG. The CFG printer lists
    // edges as `eN: lA -[stmt]-> lB`; `a = 1` is main's first edge.
    let (cfg_out, _) = run_repl(PROGRAM, &[], "cfg main\nquit\n");
    let edge = cfg_out
        .lines()
        .find(|l| l.contains("a = 1"))
        .and_then(|l| l.split(':').next())
        .map(|s| s.trim().trim_start_matches("dai> ").to_string())
        .expect("a = 1 edge in CFG printout");
    let script = format!("relabel main {edge} a = 40\nqueryall main\nstats\nquit\n");
    let (stdout, stderr) = run_repl(PROGRAM, &[], &script);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    assert!(stdout.contains("ok"), "{stdout}");
    // a = 40 ⇒ b = 41 at the exit.
    assert!(stdout.contains("b: [41, 41]"), "{stdout}");
}

#[test]
fn splice_reports_new_structure() {
    let (cfg_out, _) = run_repl(PROGRAM, &[], "cfg main\nquit\n");
    let edge = cfg_out
        .lines()
        .find(|l| l.contains("a = 1"))
        .and_then(|l| l.split(':').next())
        .map(|s| s.trim().trim_start_matches("dai> ").to_string())
        .expect("a = 1 edge");
    let script = format!("splice main {edge} if (a > 0) {{ a = a + 1; }}\nquit\n");
    let (stdout, stderr) = run_repl(PROGRAM, &[], &script);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    assert!(stdout.contains("ok: +"), "{stdout}");
}

#[test]
fn rejected_edits_leave_the_repl_session_untouched() {
    let (cfg_out, _) = run_repl(PROGRAM, &[], "cfg main\nquit\n");
    let edge = cfg_out
        .lines()
        .find(|l| l.contains("a = 1"))
        .and_then(|l| l.split(':').next())
        .map(|s| s.trim().trim_start_matches("dai> ").to_string())
        .expect("a = 1 edge");
    // What the session shows of itself: both CFGs and every answer.
    let show = "cfg main\ncfg inc\nqueryall main\nqueryall inc\n";
    let (baseline, _) = run_repl(PROGRAM, &[], &format!("{show}quit\n"));
    // A recursive call, an undefined callee, a block that never falls
    // through: each is refused, and none may leave a trace — the program
    // text, and (the call graph being what it was) every answer. Before
    // edits were atomic the first of these left `a = main()` in the
    // program and the next query overflowed the stack.
    let script = format!(
        "relabel main {edge} a = main()\n\
         relabel inc e0 __ret = nowhere(x)\n\
         splice main {edge} a = 2; return a;\n\
         {show}stats\nquit\n"
    );
    let (stdout, stderr) = run_repl(PROGRAM, &[], &script);
    assert!(
        stderr.contains("relabel failed: recursive call"),
        "{stderr}"
    );
    assert!(stderr.contains("undefined function `nowhere`"), "{stderr}");
    assert!(stderr.contains("splice failed"), "{stderr}");
    let shown = |out: &str| -> String {
        let from = out.find("function main()").expect("cfg main printed");
        let to = out.find("queries:").unwrap_or(out.len());
        out[from..to].trim_end_matches("dai> ").to_string()
    };
    assert_eq!(shown(&stdout), shown(&baseline), "{stdout}");
    // Nothing was dirtied by the refused edits: had they been applied and
    // rolled back on the units, the answers would have been recomputed.
    let (edited, _) = run_repl(
        PROGRAM,
        &[],
        &format!("{show}relabel main {edge} a = main()\n{show}stats\nquit\n"),
    );
    let (unedited, _) = run_repl(PROGRAM, &[], &format!("{show}{show}stats\nquit\n"));
    let stats = |out: &str| out[out.find("queries:").expect("stats printed")..].to_string();
    assert_eq!(stats(&edited), stats(&unedited));
}

#[test]
fn octagon_domain_flag_works() {
    let (stdout, _) = run_repl(PROGRAM, &["--domain", "octagon"], "queryall main\nquit\n");
    // Octagons print relational constraints; at minimum the run succeeds
    // and reports non-⊥ states at the exit.
    assert!(stdout.contains("l1:"), "{stdout}");
    assert!(!stdout.contains("l1: ⊥"), "{stdout}");
}

#[test]
fn sign_domain_flag_works() {
    let (stdout, _) = run_repl(
        "function main() { var x = 5; var y = 0 - x; return y; }",
        &["--domain", "sign"],
        "queryall main\nquit\n",
    );
    assert!(stdout.contains("x: +"), "{stdout}");
    assert!(stdout.contains("y: −"), "{stdout}");
}

#[test]
fn dot_requires_a_demanded_unit_then_exports() {
    let (stdout, stderr) = run_repl(PROGRAM, &[], "dot main\nquit\n");
    // No query yet: helpful error on stderr.
    assert!(stderr.contains("query it first"), "{stdout} / {stderr}");
    let (stdout2, _) = run_repl(PROGRAM, &[], "queryall main\ndot main\nquit\n");
    assert!(stdout2.contains("digraph daig {"), "{stdout2}");
}

#[test]
fn unknown_commands_and_bad_args_are_reported() {
    let (_, stderr) = run_repl(
        PROGRAM,
        &[],
        "frobnicate\nquery main\nquery main zz9\nquit\n",
    );
    assert!(stderr.contains("unknown command"), "{stderr}");
    assert!(stderr.contains("usage: query"), "{stderr}");
    assert!(stderr.contains("bad location"), "{stderr}");
}

#[test]
fn stats_track_incremental_reuse() {
    let (cfg_out, _) = run_repl(PROGRAM, &[], "cfg main\nquit\n");
    let edge = cfg_out
        .lines()
        .find(|l| l.contains("a = 1"))
        .and_then(|l| l.split(':').next())
        .map(|s| s.trim().trim_start_matches("dai> ").to_string())
        .expect("a = 1 edge");
    let script =
        format!("queryall main\nstats\nrelabel main {edge} a = 2\nqueryall main\nstats\nquit\n");
    let (stdout, _) = run_repl(PROGRAM, &[], &script);
    // Two stats blocks; the second shows strictly more work done but also
    // memo hits (reuse across the edit).
    let hits: Vec<&str> = stdout.lines().filter(|l| l.starts_with("memo:")).collect();
    assert_eq!(hits.len(), 2, "{stdout}");
    assert!(hits[1].contains("hits"), "{stdout}");
}

#[test]
fn serve_routes_queries_through_the_engine() {
    for threads in ["1", "4"] {
        let (stdout, stderr) = run_repl(PROGRAM, &["--threads", threads], "serve\nquit\n");
        assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
        // Every location of both functions is answered...
        assert!(stdout.contains("main l1:"), "{stdout}");
        assert!(stdout.contains("inc l"), "{stdout}");
        // ...and the engine reports its configuration and work.
        assert!(
            stdout.contains(&format!("service: {threads} workers")),
            "{stdout}"
        );
        assert!(stdout.contains("memo"), "{stdout}");
    }
}

#[test]
fn serve_results_are_identical_across_thread_counts() {
    let serve_lines = |threads: &str| -> Vec<String> {
        let (stdout, _) = run_repl(PROGRAM, &["--threads", threads], "serve\nquit\n");
        stdout
            .lines()
            .filter(|l| l.contains("l") && l.contains(':') && !l.starts_with("service:"))
            .map(|l| l.trim_start_matches("dai> ").to_string())
            .filter(|l| l.starts_with("main ") || l.starts_with("inc "))
            .collect()
    };
    let one = serve_lines("1");
    assert!(!one.is_empty());
    for threads in ["2", "8"] {
        assert_eq!(serve_lines(threads), one, "threads = {threads}");
    }
}

#[test]
fn save_then_load_replays_the_edit_history() {
    let dir = std::env::temp_dir().join(format!("dai-repl-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("session.daip");
    let snap_str = snap.to_string_lossy().into_owned();
    // Find the `a = 1` edge, relabel it, save, load, and requery: the
    // loaded session must reflect the replayed edit.
    let (cfg_out, _) = run_repl(PROGRAM, &[], "cfg main\nquit\n");
    let edge = cfg_out
        .lines()
        .find(|l| l.contains("a = 1"))
        .and_then(|l| l.split(':').next())
        .map(|s| s.trim().trim_start_matches("dai> ").to_string())
        .expect("a = 1 edge");
    let script = format!(
        "relabel main {edge} a = 40\nsave {snap_str}\nload {snap_str}\nqueryall main\nquit\n"
    );
    let (stdout, stderr) = run_repl(PROGRAM, &[], &script);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    assert!(stdout.contains("saved "), "{stdout}");
    assert!(stdout.contains("1 edit(s) replayed"), "{stdout}");
    // a = 40 ⇒ b = 41 in the *restored* session.
    assert!(stdout.contains("b: [41, 41]"), "{stdout}");
}

#[test]
fn load_missing_or_garbage_file_reports_cleanly() {
    let dir = std::env::temp_dir().join(format!("dai-repl-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let garbage = dir.join("garbage.daip");
    std::fs::write(&garbage, b"this is not a snapshot").unwrap();
    let script = format!(
        "load {}\nload {}\nqueryall main\nquit\n",
        dir.join("missing.daip").to_string_lossy(),
        garbage.to_string_lossy()
    );
    let (stdout, stderr) = run_repl(PROGRAM, &[], &script);
    assert!(stderr.matches("load failed").count() == 2, "{stderr}");
    // The live session survives both failed loads.
    assert!(stdout.contains("b: [2, 2]"), "{stdout}");
}

#[test]
fn interproc_serve_matches_queryall() {
    // `serve --resolver interproc` must print the interprocedural values
    // (b = inc(1) = 2), not the intraprocedural havoc.
    let (stdout, stderr) = run_repl(PROGRAM, &["--resolver", "interproc"], "serve\nquit\n");
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    assert!(stdout.contains("answers match queryall"), "{stdout}");
    let serve_states: Vec<String> = stdout
        .lines()
        .filter_map(|l| {
            l.trim_start_matches("dai> ")
                .strip_prefix("main ")
                .map(str::to_string)
        })
        .collect();
    assert!(!serve_states.is_empty(), "{stdout}");
    let (qa_out, _) = run_repl(PROGRAM, &[], "queryall main\nquit\n");
    for line in qa_out.lines().map(|l| l.trim_start_matches("dai> ")) {
        if let Some((loc, _)) = line.split_once(": ") {
            if loc.starts_with('l') {
                assert!(
                    serve_states.iter().any(|s| s == line),
                    "queryall line `{line}` missing from interproc serve:\n{stdout}"
                );
            }
        }
    }
}

#[test]
fn deadcode_reports_unreachable_branch() {
    let program = r#"
function main() {
    var x = 1;
    if (x > 0) { x = 2; } else { x = 3; }
    return x;
}
"#;
    let (stdout, _) = run_repl(program, &[], "deadcode main\nquit\n");
    // The else branch (x = 3) is infeasible under x = 1.
    assert!(stdout.contains("unreachable:"), "{stdout}");
    let (stdout2, _) = run_repl(
        "function main() { var x = 1; return x; }",
        &[],
        "deadcode main\nquit\n",
    );
    assert!(stdout2.contains("no unreachable locations"), "{stdout2}");
}

#[test]
fn listen_and_connect_answer_like_serve() {
    // One REPL process both listens (a dai-rpc server over a unix
    // socket) and connects to itself: the remote sweep must print the
    // same per-location answers as the in-process `serve`.
    let sock = std::env::temp_dir().join(format!(
        "dai-repl-listen-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ));
    let script = format!(
        "listen unix:{sock}\nconnect unix:{sock}\nserve\nquit\n",
        sock = sock.display()
    );
    let (stdout, stderr) = run_repl(PROGRAM, &[], &script);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    assert!(stdout.contains("listening on unix:"), "{stdout}");
    assert!(stdout.contains("connected to unix:"), "{stdout}");
    // Both sweeps print the same answer lines; the remote one appears
    // first (connect precedes serve in the script).
    let answers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("main l") || l.starts_with("inc l"))
        .collect();
    assert!(!answers.is_empty(), "{stdout}");
    assert_eq!(answers.len() % 2, 0, "two sweeps: {stdout}");
    let (remote, local) = answers.split_at(answers.len() / 2);
    assert_eq!(remote, local, "socket sweep differs from serve: {stdout}");
    // Two service summaries: one from the remote engine, one in-process.
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("service:")).count(),
        2,
        "{stdout}"
    );
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn connect_to_a_dead_address_fails_cleanly() {
    let (stdout, stderr) = run_repl(
        PROGRAM,
        &[],
        "connect unix:/nonexistent/dai-test.sock\nquit\n",
    );
    assert!(stderr.contains("connect failed"), "{stderr}");
    assert!(!stdout.contains("connected"), "{stdout}");
}

#[test]
fn stats_json_emits_the_locked_schema() {
    // Before any engine runs there is nothing to report — error, not {}.
    let (stdout, stderr) = run_repl(PROGRAM, &[], "stats --json\nquit\n");
    assert!(stderr.contains("no engine stats yet"), "{stderr}");
    assert!(!stdout.contains("{\"workers\""), "{stdout}");

    // After `serve` and an `explain` (whose engine stats replace the
    // serve's, carrying real attribution totals), one line of JSON with
    // the exact field order below. This is the machine-readable
    // contract: replacing every integer run with N must reproduce the
    // template verbatim, so adding, removing, renaming, or reordering a
    // field fails this test. The domain tag is alphabetic, so the
    // per-domain report count stays literal in the shape.
    let (stdout, stderr) = run_repl(
        PROGRAM,
        &["--threads", "2"],
        "serve\nexplain main\nstats --json\nquit\n",
    );
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    let json = stdout
        .lines()
        .map(|l| l.trim_start_matches("dai> "))
        .find(|l| l.starts_with("{\"workers\""))
        .unwrap_or_else(|| panic!("no stats --json line in {stdout}"));
    let shape: String = {
        let mut out = String::new();
        let mut in_digits = false;
        for c in json.chars() {
            if c.is_ascii_digit() {
                if !in_digits {
                    out.push('N');
                }
                in_digits = true;
            } else {
                in_digits = false;
                out.push(c);
            }
        }
        out
    };
    assert_eq!(
        shape,
        "{\"workers\":N,\"sessions\":N,\"queries\":N,\"edits\":N,\
         \"snapshots\":N,\"saves\":N,\"loads\":N,\"session_locks\":N,\
         \"batch\":{\"batches\":N,\"coalesced_queries\":N,\
         \"singleton_queries\":N,\"union_cone_cells\":N,\
         \"union_cone_walks\":N},\
         \"query_stats\":{\"computed\":N,\"memo_matched\":N,\
         \"reused\":N,\"unrolls\":N,\"fix_converged\":N,\
         \"cone_walks\":N,\"cone_cells\":N,\
         \"transfers_compiled\":N,\"transfers_interp\":N},\
         \"explain\":{\"reports\":N,\"cells\":N,\"fixes\":N,\
         \"work_ns\":N,\"span_ns\":N,\"computed_ns\":N,\
         \"memo_matched_ns\":N,\"fix_ns\":N,\
         \"domains\":{\"interval\":N}},\
         \"memo\":{\"hits\":N,\"misses\":N,\"insertions\":N,\
         \"evictions\":N},\
         \"replication\":{\"journal_attached\":false,\
         \"journal_last_seq\":N,\"journal_frames\":N,\
         \"applied_seq\":N,\"applied_frames\":N}}",
        "stats --json schema drifted: {json}"
    );
    // Sanity on the values themselves: 2 workers served a real sweep,
    // and the explain run left real attribution totals.
    assert!(json.contains("\"workers\":2"), "{json}");
    assert!(!json.contains("\"queries\":0,"), "{json}");
    assert!(json.contains("\"explain\":{\"reports\":1,"), "{json}");
    assert!(json.contains("\"domains\":{\"interval\":1}"), "{json}");
}

#[test]
fn explain_command_attributes_cost_and_reports_json() {
    let script = "explain main\nexplain --json\nexplain nosuch\nexplain main zz9\nquit\n";
    let (stdout, stderr) = run_repl(PROGRAM, &["--threads", "2"], script);
    assert!(stderr.contains("no function `nosuch`"), "{stderr}");
    assert!(stderr.contains("bad location"), "{stderr}");
    // The rendered block: header, work/span split, lock accounting,
    // hottest-cell table, and the fixpoint line (main has a loop).
    assert!(stdout.contains("explain: domain interval"), "{stdout}");
    assert!(stdout.contains("parallelism"), "{stdout}");
    assert!(stdout.contains("lock wait"), "{stdout}");
    assert!(stdout.contains("hottest cells:"), "{stdout}");
    assert!(stdout.contains("  fix "), "{stdout}");
    // `explain --json` emits one line of report JSON.
    let json = stdout
        .lines()
        .map(|l| l.trim_start_matches("dai> "))
        .find(|l| l.starts_with("{\"domain\""))
        .unwrap_or_else(|| panic!("no explain --json line in {stdout}"));
    assert!(json.contains("\"transfer\":"), "{json}");
    assert!(json.contains("\"parallelism\":"), "{json}");
    assert!(json.contains("\"hottest\":["), "{json}");
    assert!(json.ends_with("]}"), "{json}");
    // Attribution needs the intraprocedural backend; the
    // interprocedural resolver refuses in a structured way.
    let (_, stderr) = run_repl(
        PROGRAM,
        &["--resolver", "interproc"],
        "explain main\nquit\n",
    );
    assert!(stderr.contains("intraprocedural"), "{stderr}");
}

#[test]
fn trace_commands_dump_and_expose_metrics() {
    let dir = std::env::temp_dir().join(format!(
        "dai-repl-trace-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("trace.json");
    let bin_path = dir.join("trace.trc");
    let script = format!(
        "trace on\nserve\ntrace dump {}\ntrace on\nserve\ntrace dump {}\ntrace metrics\nquit\n",
        json_path.display(),
        bin_path.display()
    );
    let (stdout, stderr) = run_repl(PROGRAM, &["--threads", "2"], &script);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    assert!(stdout.contains("tracing enabled (local)"), "{stdout}");
    assert!(
        stdout.contains("chrome trace_event JSON"),
        "dump format line missing: {stdout}"
    );
    assert!(stdout.contains("binary trace frame"), "{stdout}");
    // The Chrome export re-parses, and the binary one decodes. Under the
    // probes-compiled default build both carry the serve's records.
    let json = std::fs::read_to_string(&json_path).unwrap();
    let summary = dai_trace::validate_chrome_trace(&json).expect("dumped chrome trace re-parses");
    let bin = std::fs::read(&bin_path).unwrap();
    let dump = dai_persist::decode_trace_frame(&bin).expect("dumped binary frame decodes");
    if dai_trace::TraceConfig::probes_compiled() {
        assert!(summary.total > 0, "empty chrome trace: {json}");
        assert!(!dump.records.is_empty(), "empty binary dump");
        assert!(
            dump.labels.iter().any(|l| l == "engine.session_lock"),
            "{:?}",
            dump.labels
        );
    }
    // `trace metrics` renders Prometheus text exposition on stdout.
    assert!(
        stdout.contains("# TYPE dai_engine_queries gauge"),
        "{stdout}"
    );
    assert!(
        stdout.contains("dai_engine_batch_serve_seconds_count"),
        "{stdout}"
    );
}

#[test]
fn remote_trace_commands_address_the_connected_server() {
    let sock = std::env::temp_dir().join(format!(
        "dai-repl-trace-remote-{}-{:?}.sock",
        std::process::id(),
        std::thread::current().id()
    ));
    let dir = std::env::temp_dir().join(format!(
        "dai-repl-trace-remote-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let dump_path = dir.join("remote.json");
    // `connect` retains the client, so every later trace command goes
    // over the wire (the REPL prints the `(remote)` side marker).
    let script = format!(
        "listen unix:{sock}\ntrace on\nconnect unix:{sock}\ntrace on\nserve\n\
         trace dump {dump}\ntrace metrics\ntrace off\nquit\n",
        sock = sock.display(),
        dump = dump_path.display()
    );
    let (stdout, stderr) = run_repl(PROGRAM, &[], &script);
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
    // Before connect: local; after: remote.
    assert!(stdout.contains("tracing enabled (local)"), "{stdout}");
    assert!(stdout.contains("tracing enabled (remote)"), "{stdout}");
    assert!(stdout.contains("tracing disabled (remote)"), "{stdout}");
    assert!(
        stdout.contains("# TYPE dai_engine_queries gauge"),
        "{stdout}"
    );
    let json = std::fs::read_to_string(&dump_path).unwrap();
    dai_trace::validate_chrome_trace(&json).expect("remote dump re-parses");
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn shape_domain_flag_works() {
    let program = r#"
function main() {
    var p = null;
    var i = 0;
    while (i < 3) { var n = new Node(); n.next = p; p = n; i = i + 1; }
    return p;
}
"#;
    let (stdout, _) = run_repl(program, &["--domain", "shape"], "queryall main\nquit\n");
    // Shape states print separation-logic formulas.
    assert!(stdout.contains("l1:"), "{stdout}");
    assert!(!stdout.contains("l1: ⊥"), "{stdout}");
}
