//! `dai-repl` — an interactive front end for demanded abstract
//! interpretation, driving the paper's IDE scenario by hand: load a
//! program, demand abstract states at locations, edit statements, and
//! re-query with incremental reuse, watching the work counters.
//!
//! ```text
//! $ cargo run --bin dai_repl -- program.js            # interval domain
//! $ cargo run --bin dai_repl -- --domain octagon p.js
//! $ cargo run --bin dai_repl -- --threads 4 p.js      # engine worker pool
//! dai> help
//! dai> list
//! dai> cfg main
//! dai> query main l3
//! dai> relabel main e2 x = x + 10
//! dai> splice main e4 if (x > 0) { y = 1; }
//! dai> save session.daip
//! dai> load session.daip
//! dai> serve
//! dai> listen tcp:127.0.0.1:7777
//! dai> connect tcp:127.0.0.1:7777
//! dai> stats
//! dai> dot main
//! dai> quit
//! ```
//!
//! `serve` routes the current program through the concurrent `dai-engine`:
//! a session is opened from source (edit history replayed), every
//! function's location sweep is submitted as **one coalesced query batch**
//! (a single session-lock acquisition and one union demanded-cone
//! evaluation per function), answers are drained and printed (sorted),
//! and the engine's own statistics follow. By default
//! the engine analyzes intraprocedurally per function (calls havoc); with
//! `--resolver interproc` the engine sessions resolve calls by demanding
//! callee exits under the REPL's context policy, so `serve` answers match
//! `queryall`.
//!
//! `listen ADDR` binds the same engine behind `dai-rpc`'s socket server,
//! and `connect ADDR` runs the identical sweep against a remote engine
//! through the typed socket client — the sweep code is one function over
//! the `dai_engine::Service` trait, so the two paths cannot drift.
//!
//! `save PATH` persists the session — original source text plus the edit
//! history — through `dai-persist`; `load PATH` replays such a snapshot
//! (any snapshot the engine wrote works too: the REPL uses the required
//! `SESS` header and lets the `FUNC` sections lapse, which is sound —
//! DAIGs rebuild on demand).
//!
//! Commands read from stdin, one per line; results go to stdout (errors to
//! stderr, which keeps piped sessions scriptable — the integration tests
//! drive the binary exactly that way).

use dai_core::dot::{to_dot, DotOptions};
use dai_core::driver::ProgramEdit;
use dai_core::interproc::{ContextPolicy, InterAnalyzer};
use dai_core::strategy::FixStrategy;
use dai_core::{Context, TransferMode};
use dai_domains::{
    AbstractDomain, ConstDomain, IntervalDomain, OctagonDomain, ShapeDomain, SignDomain,
};
use dai_engine::{Engine, EngineConfig, ResolverChoice, Service};
use dai_lang::cfg::lower_program;
use dai_lang::{EdgeId, Loc, Symbol};
use dai_persist::{read_snapshot_file, write_snapshot_file, PersistDomain, SessionImage};
use dai_rpc::{Addr, Client, ClientOptions, Replica, Server, ServerConfig};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut domain = "interval".to_string();
    let mut policy = ContextPolicy::CallString(1);
    let mut threads: usize = 1;
    let mut interproc_serve = false;
    let mut transfer = TransferMode::default();
    let mut path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--domain" => {
                i += 1;
                domain = args.get(i).cloned().unwrap_or_default();
            }
            "--insensitive" => policy = ContextPolicy::Insensitive,
            "--call-strings" => {
                i += 1;
                let k: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--call-strings needs a number"));
                policy = ContextPolicy::CallString(k);
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| die("--threads needs a positive number"));
            }
            "--resolver" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("intra") => interproc_serve = false,
                    Some("interproc") => interproc_serve = true,
                    _ => die("--resolver takes intra|interproc"),
                }
            }
            "--transfer" => {
                i += 1;
                transfer = args
                    .get(i)
                    .and_then(|s| TransferMode::parse(s))
                    .unwrap_or_else(|| die("--transfer takes compiled|interp"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: dai-repl [--domain interval|octagon|sign|const|shape] \
                     [--insensitive | --call-strings K] [--threads N] \
                     [--resolver intra|interproc] [--transfer compiled|interp] FILE"
                );
                return;
            }
            other => path = Some(other.to_string()),
        }
        i += 1;
    }
    let Some(path) = path else {
        die("missing program file (try --help)")
    };
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    match domain.as_str() {
        "interval" => repl(
            &src,
            policy,
            threads,
            interproc_serve,
            transfer,
            IntervalDomain::top(),
        ),
        "octagon" => repl(
            &src,
            policy,
            threads,
            interproc_serve,
            transfer,
            OctagonDomain::top(),
        ),
        "sign" => repl(
            &src,
            policy,
            threads,
            interproc_serve,
            transfer,
            SignDomain::top(),
        ),
        "const" => repl(
            &src,
            policy,
            threads,
            interproc_serve,
            transfer,
            ConstDomain::top(),
        ),
        "shape" => repl(
            &src,
            policy,
            threads,
            interproc_serve,
            transfer,
            ShapeDomain::top_state(),
        ),
        other => die(&format!(
            "unknown domain `{other}` (interval|octagon|sign|const|shape)"
        )),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("dai-repl: {msg}");
    std::process::exit(2)
}

/// Parses `lNN` / `eNN` style identifiers.
fn parse_loc(s: &str) -> Option<Loc> {
    s.strip_prefix('l').and_then(|n| n.parse().ok()).map(Loc)
}

fn parse_edge(s: &str) -> Option<EdgeId> {
    s.strip_prefix('e').and_then(|n| n.parse().ok()).map(EdgeId)
}

/// The queryall-style sweep targets of `program`, sorted so the sweep
/// coalesces into exactly one batch per function.
fn sweep_targets(program: &dai_lang::cfg::LoweredProgram) -> Vec<(String, Loc)> {
    let mut targets: Vec<(String, Loc)> = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    targets
}

/// Splits a `listen`/`connect` argument line into the address and an
/// optional `--token TOKEN` (in either order). `None` when the address
/// is missing, a flag is unknown, or `--token` has no value.
fn split_addr_token(rest: &str) -> Option<(String, Option<String>)> {
    let mut addr = None;
    let mut token = None;
    let mut words = rest.split_whitespace();
    while let Some(word) = words.next() {
        if word == "--token" {
            token = Some(words.next()?.to_string());
        } else if word.starts_with("--") || addr.is_some() {
            return None;
        } else {
            addr = Some(word.to_string());
        }
    }
    addr.map(|a| (a, token))
}

/// `serve`/`connect`: route every (function, location) query of the
/// current program through a demanded-analysis [`Service`] — the
/// in-process engine or a remote socket client; the sweep logic cannot
/// tell the difference. A session is opened from source, the edit
/// history is replayed, the whole sweep goes out as **one** submission
/// (one coalesced batch per function — over the wire, a single sweep
/// frame), and the service's statistics follow.
fn sweep_via_service<D: PersistDomain>(
    service: &impl Service<D>,
    source: &str,
    history: &[ProgramEdit],
    targets: &[(String, Loc)],
) -> Result<dai_engine::EngineStats, String> {
    let session = service.open("repl", source).map_err(|e| e.to_string())?;
    for edit in history {
        service
            .edit(session, edit)
            .map_err(|e| format!("replaying edit: {e}"))?;
    }
    for ((f, loc), answer) in targets.iter().zip(service.query_sweep(session, targets)) {
        match answer {
            Ok(state) => println!("{f} {loc}: {state}"),
            Err(e) => eprintln!("{f} {loc}: sweep failed: {e}"),
        }
    }
    let s = service.stats().map_err(|e| e.to_string())?;
    println!(
        "service: {} workers, {} queries ({} coalesced into {} batches, {} locks); \
         {} computed, {} memo-matched, {} reused; memo {} hits / {} misses; \
         {} saves, {} loads",
        s.workers,
        s.queries,
        s.batch.coalesced_queries,
        s.batch.batches,
        s.session_locks,
        s.query_stats.computed,
        s.query_stats.memo_matched,
        s.query_stats.reused,
        s.memo.hits,
        s.memo.misses,
        s.saves,
        s.loads,
    );
    service.close(session).map_err(|e| e.to_string())?;
    Ok(s)
}

/// `explain`: serve an attributed sweep through a demanded-analysis
/// [`Service`] — local engine or remote client — on a throwaway session
/// (source + history replayed, exactly like the serve sweep).
fn explain_via_service<D: PersistDomain>(
    service: &impl Service<D>,
    source: &str,
    history: &[ProgramEdit],
    targets: &[(String, Loc)],
) -> Result<dai_engine::ExplainReport, String> {
    let session = service
        .open("repl-explain", source)
        .map_err(|e| e.to_string())?;
    for edit in history {
        service
            .edit(session, edit)
            .map_err(|e| format!("replaying edit: {e}"))?;
    }
    let report = service.explain(session, targets).map_err(|e| e.to_string());
    let _ = service.close(session);
    report
}

fn print_resolver_banner(what: &str, resolver: ResolverChoice) {
    match resolver {
        ResolverChoice::Intra => println!(
            "{what}: intraprocedural per-function analysis (calls havoc; \
             entry states are the domain's defaults)"
        ),
        ResolverChoice::Interproc { .. } => println!(
            "{what}: interprocedural analysis (calls demand callee exits; \
             answers match queryall)"
        ),
    }
}

/// The REPL's replayable session state: the analyzer plus what persistence
/// needs (original source, applied edits, construction parameters).
struct ReplSession<D: AbstractDomain> {
    analyzer: InterAnalyzer<D>,
    source: String,
    history: Vec<ProgramEdit>,
    policy: ContextPolicy,
    strategy: FixStrategy,
    transfer: TransferMode,
    entry: String,
    phi0: D,
}

impl<D: AbstractDomain> ReplSession<D> {
    fn open(
        source: &str,
        policy: ContextPolicy,
        strategy: FixStrategy,
        transfer: TransferMode,
        phi0: D,
    ) -> Result<ReplSession<D>, String> {
        let program = dai_lang::parse_program(source)
            .map_err(|e| e.to_string())
            .and_then(|p| lower_program(&p).map_err(|e| e.to_string()))?;
        let entry = program
            .entry_cfg()
            .ok_or_else(|| "program has no functions".to_string())?
            .name()
            .to_string();
        Ok(ReplSession {
            analyzer: InterAnalyzer::with_config(
                program,
                policy,
                &entry,
                phi0.clone(),
                strategy,
                transfer,
            ),
            source: source.to_string(),
            history: Vec::new(),
            policy,
            strategy,
            transfer,
            entry,
            phi0,
        })
    }

    /// Replays a persisted edit onto the analyzer (used by `load`).
    fn replay(&mut self, edit: &ProgramEdit) -> Result<(), String> {
        match edit {
            ProgramEdit::Relabel { func, edge, stmt } => self
                .analyzer
                .relabel(func.as_str(), *edge, stmt.clone())
                .map_err(|e| e.to_string())?,
            ProgramEdit::Insert { func, edge, block } => {
                self.analyzer
                    .splice(func.as_str(), *edge, block)
                    .map_err(|e| e.to_string())?;
            }
        }
        self.history.push(edit.clone());
        Ok(())
    }
}

impl<D: PersistDomain> ReplSession<D> {
    /// Persists source + edit history (a cold snapshot: the REPL's
    /// interprocedural units rebuild on demand after a load, which is
    /// sound — see `dai-persist`'s crate docs).
    fn save(&self, path: &str) -> Result<usize, String> {
        let image: SessionImage<D> = SessionImage {
            name: "repl".to_string(),
            domain: D::domain_tag(),
            strategy: self.strategy,
            policy: Some(self.policy),
            source: self.source.clone(),
            edits: self.history.clone(),
            funcs: Vec::new(),
        };
        let bytes = image.to_bytes();
        write_snapshot_file(path, &bytes).map_err(|e| e.to_string())?;
        Ok(bytes.len())
    }

    /// Restores a snapshot: parse the saved source, replay the saved edit
    /// history, and swap the rebuilt session in. Returns the replayed
    /// edit count and a note about the `FUNC` sections it did not use, if
    /// any.
    fn load(&mut self, path: &str) -> Result<(usize, String), String> {
        let bytes = read_snapshot_file(path).map_err(|e| e.to_string())?;
        let (image, report) = SessionImage::<D>::from_bytes(&bytes).map_err(|e| e.to_string())?;
        // The snapshot's semantics travel with it: replaying under a
        // different widening schedule or context-sensitivity policy would
        // compute different invariants than the saved session, so both
        // the saved strategy and the saved policy are honored (snapshots
        // from intraprocedural engine sessions carry no policy and adopt
        // the REPL's current one).
        let policy = image.policy.unwrap_or(self.policy);
        let mut fresh = ReplSession::open(
            &image.source,
            policy,
            image.strategy,
            self.transfer,
            self.phi0.clone(),
        )?;
        for edit in &image.edits {
            fresh
                .replay(edit)
                .map_err(|e| format!("replaying edit: {e}"))?;
        }
        let mut note = if report.is_warm() || report.is_lossy() {
            format!(" (FUNC sections not used by the repl: {report})")
        } else {
            String::new()
        };
        if policy != self.policy {
            note.push_str(&format!(
                " (session analyzes under its saved policy {policy:?}, \
                 not this repl's {:?})",
                self.policy
            ));
        }
        let edits = fresh.history.len();
        *self = fresh;
        Ok((edits, note))
    }
}

fn repl<D: PersistDomain>(
    src: &str,
    policy: ContextPolicy,
    threads: usize,
    interproc_serve: bool,
    transfer: TransferMode,
    phi0: D,
) {
    let mut session: ReplSession<D> =
        match ReplSession::open(src, policy, FixStrategy::PAPER, transfer, phi0) {
            Ok(s) => s,
            Err(e) => die(&e),
        };
    println!(
        "loaded {} function(s); entry `{}`; type `help`",
        session.analyzer.program().cfgs().len(),
        session.entry
    );
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    // Servers started by `listen`; kept alive (and serving) until quit.
    let mut servers: Vec<Server<D>> = Vec::new();
    // The engine stats of the most recent `serve`/`connect` sweep —
    // what `stats --json` reports.
    let mut last_engine_stats: Option<dai_engine::EngineStats> = None;
    // The connection of the most recent `connect`, kept open so `trace`
    // and `stats --json` address the remote engine.
    let mut remote: Option<Client<D>> = None;
    // The journaled engine of the most recent `journal PATH`, kept so
    // `journal status|compact` address it (and `listen` could serve it).
    let mut journaled: Option<Arc<Engine<D>>> = None;
    loop {
        print!("dai> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => die(&format!("stdin: {e}")),
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        // Derived per command: `load` may have swapped in a session with
        // a different saved policy, and `serve` must match the *current*
        // session's queryall answers.
        let serve_resolver = if interproc_serve {
            ResolverChoice::Interproc {
                policy: session.policy,
            }
        } else {
            ResolverChoice::Intra
        };
        let analyzer = &mut session.analyzer;
        match cmd {
            "quit" | "exit" => break,
            "help" => print_help(),
            "serve" => {
                print_resolver_banner("serve", serve_resolver);
                let engine: Engine<D> = Engine::with_config(EngineConfig {
                    workers: threads,
                    resolver: serve_resolver,
                    transfer: session.transfer,
                    ..EngineConfig::default()
                });
                let targets = sweep_targets(analyzer.program());
                match sweep_via_service(&engine, &session.source, &session.history, &targets) {
                    Ok(stats) => last_engine_stats = Some(stats),
                    Err(e) => eprintln!("serve failed: {e}"),
                }
            }
            "listen" => {
                let (addr, token) = match split_addr_token(rest) {
                    Some(parsed) => parsed,
                    None => {
                        eprintln!("usage: listen tcp:HOST:PORT | listen unix:PATH [--token TOKEN]");
                        continue;
                    }
                };
                // Serve the journaled engine when one is attached (so a
                // `follow` from another repl has a journal to pull);
                // otherwise a fresh engine.
                let engine: Arc<Engine<D>> = match &journaled {
                    Some(engine) => Arc::clone(engine),
                    None => Arc::new(Engine::with_config(EngineConfig {
                        workers: threads,
                        resolver: serve_resolver,
                        transfer: session.transfer,
                        ..EngineConfig::default()
                    })),
                };
                let authed = token.is_some();
                let config = ServerConfig { auth_token: token };
                match Addr::parse(&addr)
                    .map_err(std::io::Error::other)
                    .and_then(|addr| Server::bind_with(&addr, engine, config))
                {
                    Ok(server) => {
                        println!(
                            "listening on {} (domain {}, {} worker(s){}); \
                             `connect {}` from another repl",
                            server.addr(),
                            D::domain_tag(),
                            threads,
                            if authed { ", auth required" } else { "" },
                            server.addr(),
                        );
                        servers.push(server);
                    }
                    Err(e) => eprintln!("listen failed: {e}"),
                }
            }
            "connect" => {
                let (addr, token) = match split_addr_token(rest) {
                    Some(parsed) => parsed,
                    None => {
                        eprintln!(
                            "usage: connect tcp:HOST:PORT | connect unix:PATH [--token TOKEN]"
                        );
                        continue;
                    }
                };
                let connected = Addr::parse(&addr)
                    .map_err(|e| dai_engine::EngineError::Remote {
                        code: "transport",
                        message: e,
                    })
                    .and_then(|addr| {
                        Client::<D>::connect_with(&addr, ClientOptions { auth: token })
                    });
                match connected {
                    Ok(client) => {
                        println!("connected to {addr} (domain {})", D::domain_tag());
                        let targets = sweep_targets(analyzer.program());
                        match sweep_via_service(
                            &client,
                            &session.source,
                            &session.history,
                            &targets,
                        ) {
                            Ok(stats) => last_engine_stats = Some(stats),
                            Err(e) => eprintln!("remote sweep failed: {e}"),
                        }
                        // Keep the connection: `trace …` now addresses the
                        // remote engine until the next connect or quit.
                        remote = Some(client);
                    }
                    Err(e) => eprintln!("connect failed: {e}"),
                }
            }
            "list" => {
                for cfg in analyzer.program().cfgs() {
                    println!(
                        "{}({}) — {} locations, {} edges{}",
                        cfg.name(),
                        cfg.params()
                            .iter()
                            .map(|p| p.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                        cfg.loc_count(),
                        cfg.edge_count(),
                        if cfg.loop_heads().is_empty() {
                            String::new()
                        } else {
                            format!(", loop heads {:?}", cfg.loop_heads())
                        }
                    );
                }
            }
            "cfg" => match analyzer.program().by_name(rest.trim()) {
                Some(cfg) => print!("{}", dai_lang::pretty::cfg_to_string(cfg)),
                None => eprintln!("no function `{}`", rest.trim()),
            },
            "query" => {
                let mut parts = rest.split_whitespace();
                let (Some(f), Some(l)) = (parts.next(), parts.next()) else {
                    eprintln!("usage: query FN lNN");
                    continue;
                };
                let Some(loc) = parse_loc(l) else {
                    eprintln!("bad location `{l}` (use lNN)");
                    continue;
                };
                match analyzer.query_at(f, loc) {
                    Ok(results) if results.is_empty() => {
                        println!("{f} unreachable from `{}`: ⊥ at {loc}", session.entry);
                    }
                    Ok(results) => {
                        for (ctx, state) in results {
                            println!("[{ctx}] {state}");
                        }
                    }
                    Err(e) => eprintln!("query failed: {e}"),
                }
            }
            "queryall" => {
                let f = rest.trim();
                let Some(cfg) = analyzer.program().by_name(f).cloned() else {
                    eprintln!("no function `{f}`");
                    continue;
                };
                for loc in cfg.locs() {
                    match analyzer.query_joined(f, loc) {
                        Ok(state) => println!("{loc}: {state}"),
                        Err(e) => eprintln!("{loc}: query failed: {e}"),
                    }
                }
            }
            "deadcode" => {
                // A small analysis client: locations whose invariant is ⊥
                // in every calling context are unreachable.
                let f = rest.trim();
                let Some(cfg) = analyzer.program().by_name(f).cloned() else {
                    eprintln!("no function `{f}`");
                    continue;
                };
                let mut dead = Vec::new();
                for loc in cfg.locs() {
                    match analyzer.query_joined(f, loc) {
                        Ok(state) if state.is_bottom() => dead.push(loc),
                        Ok(_) => {}
                        Err(e) => eprintln!("{loc}: query failed: {e}"),
                    }
                }
                if dead.is_empty() {
                    println!("no unreachable locations in {f}");
                } else {
                    println!(
                        "unreachable: {}",
                        dead.iter()
                            .map(|l| l.to_string())
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                }
            }
            "relabel" => {
                let mut parts = rest.splitn(3, ' ');
                let (Some(f), Some(e), Some(stmt_src)) = (parts.next(), parts.next(), parts.next())
                else {
                    eprintln!("usage: relabel FN eNN STMT");
                    continue;
                };
                let Some(edge) = parse_edge(e) else {
                    eprintln!("bad edge `{e}` (use eNN)");
                    continue;
                };
                let block_src = format!("{};", stmt_src.trim_end_matches(';'));
                match dai_lang::parse_block(&block_src) {
                    Ok(block) if block.0.len() == 1 => {
                        let stmt = match &block.0[0] {
                            dai_lang::AstStmt::Simple(s) => s.clone(),
                            _ => {
                                eprintln!("relabel takes an atomic statement; use `splice` for control flow");
                                continue;
                            }
                        };
                        match analyzer.relabel(f, edge, stmt.clone()) {
                            Ok(()) => {
                                session.history.push(ProgramEdit::Relabel {
                                    func: Symbol::new(f),
                                    edge,
                                    stmt,
                                });
                                println!("ok");
                            }
                            Err(e) => eprintln!("relabel failed: {e}"),
                        }
                    }
                    Ok(_) => eprintln!("relabel takes exactly one statement"),
                    Err(e) => eprintln!("parse error: {e}"),
                }
            }
            "splice" => {
                let mut parts = rest.splitn(3, ' ');
                let (Some(f), Some(e), Some(block_src)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    eprintln!("usage: splice FN eNN BLOCK");
                    continue;
                };
                let Some(edge) = parse_edge(e) else {
                    eprintln!("bad edge `{e}` (use eNN)");
                    continue;
                };
                match dai_lang::parse_block(block_src) {
                    Ok(block) => match analyzer.splice(f, edge, &block) {
                        Ok(info) => {
                            session.history.push(ProgramEdit::Insert {
                                func: Symbol::new(f),
                                edge,
                                block,
                            });
                            println!(
                                "ok: +{} locations, +{} edges",
                                info.new_locs.len(),
                                info.new_edges.len()
                            );
                        }
                        Err(e) => eprintln!("splice failed: {e}"),
                    },
                    Err(e) => eprintln!("parse error: {e}"),
                }
            }
            "save" => {
                let path = rest.trim();
                if path.is_empty() {
                    eprintln!("usage: save PATH");
                    continue;
                }
                match session.save(path) {
                    Ok(bytes) => println!(
                        "saved {bytes} bytes to {path} (source + {} edit(s))",
                        session.history.len()
                    ),
                    Err(e) => eprintln!("save failed: {e}"),
                }
            }
            "load" => {
                let path = rest.trim();
                if path.is_empty() {
                    eprintln!("usage: load PATH");
                    continue;
                }
                match session.load(path) {
                    Ok((edits, note)) => println!(
                        "loaded {path}: {} function(s), {edits} edit(s) replayed; \
                         caches cold (recomputation on demand is sound){note}",
                        session.analyzer.program().cfgs().len()
                    ),
                    Err(e) => eprintln!("load failed: {e}"),
                }
            }
            "stats" if rest.trim() == "--json" => {
                // One JSON line of the full EngineStats of the most recent
                // `serve`/`connect` sweep (schema locked by tests/repl.rs).
                match &last_engine_stats {
                    Some(stats) => println!("{}", stats.to_json()),
                    None => eprintln!("no engine stats yet (run `serve` or `connect` first)"),
                }
            }
            "stats" => {
                let q = analyzer.stats();
                let m = analyzer.memo_stats();
                println!(
                    "queries: {} computed, {} memo-matched, {} reused, {} unrollings, {} fixed points",
                    q.computed, q.memo_matched, q.reused, q.unrolls, q.fix_converged
                );
                println!(
                    "memo: {} hits / {} misses ({:.0}% hit rate), {} insertions",
                    m.hits,
                    m.misses,
                    m.hit_rate() * 100.0,
                    m.insertions
                );
                println!("units: {} (function, context) DAIGs", analyzer.unit_count());
            }
            "explain" => {
                let mut json = false;
                let mut words: Vec<&str> = Vec::new();
                for tok in rest.split_whitespace() {
                    if tok == "--json" {
                        json = true;
                    } else {
                        words.push(tok);
                    }
                }
                let targets: Vec<(String, Loc)> = match words.as_slice() {
                    [] => sweep_targets(analyzer.program()),
                    [f] => match analyzer.program().by_name(f) {
                        Some(cfg) => cfg.locs().iter().map(|&l| (f.to_string(), l)).collect(),
                        None => {
                            eprintln!("no function `{f}`");
                            continue;
                        }
                    },
                    [f, l] => match parse_loc(l) {
                        Some(loc) => vec![(f.to_string(), loc)],
                        None => {
                            eprintln!("bad location `{l}` (use lNN)");
                            continue;
                        }
                    },
                    _ => {
                        eprintln!("usage: explain [--json] [FN [lNN]]");
                        continue;
                    }
                };
                // Remote after a `connect`, else a fresh local engine —
                // the same split as the serve sweep. The engine itself
                // rejects explain under the interprocedural resolver.
                let served = match remote.as_ref() {
                    Some(client) => {
                        explain_via_service(client, &session.source, &session.history, &targets)
                            .and_then(|report| {
                                client
                                    .stats()
                                    .map(|stats| (report, stats))
                                    .map_err(|e| e.to_string())
                            })
                    }
                    None => {
                        let engine: Engine<D> = Engine::with_config(EngineConfig {
                            workers: threads,
                            resolver: serve_resolver,
                            transfer: session.transfer,
                            ..EngineConfig::default()
                        });
                        explain_via_service(&engine, &session.source, &session.history, &targets)
                            .map(|report| {
                                let stats = engine.stats();
                                (report, stats)
                            })
                    }
                };
                match served {
                    Ok((report, stats)) => {
                        if json {
                            println!("{}", report.to_json(10));
                        } else {
                            print!("{}", report.render(10));
                        }
                        last_engine_stats = Some(stats);
                    }
                    Err(e) => eprintln!("explain failed: {e}"),
                }
            }
            "journal" => match rest.trim() {
                "" => eprintln!("usage: journal PATH | journal status | journal compact"),
                "status" => match &journaled {
                    Some(engine) => {
                        let r = engine.stats().replication;
                        println!(
                            "journal: attached, head seq {}, {} frame(s); \
                             applied seq {} ({} frame(s))",
                            r.journal_last_seq, r.journal_frames, r.applied_seq, r.applied_frames,
                        );
                    }
                    None => eprintln!("no journal attached (run `journal PATH` first)"),
                },
                "compact" => match &journaled {
                    Some(engine) => match engine.compact_journal(true) {
                        Ok(true) => {
                            let r = engine.stats().replication;
                            println!(
                                "compacted: journal now {} frame(s), head seq {}",
                                r.journal_frames, r.journal_last_seq
                            );
                        }
                        Ok(false) => println!("nothing to compact"),
                        Err(e) => eprintln!("compact failed: {e}"),
                    },
                    None => eprintln!("no journal attached (run `journal PATH` first)"),
                },
                path => {
                    // A journaled engine: recover whatever the file holds,
                    // then run the serve sweep through it — the open and
                    // replayed edits land in the journal as they happen.
                    let engine: Arc<Engine<D>> = Arc::new(Engine::with_config(EngineConfig {
                        workers: threads,
                        resolver: serve_resolver,
                        transfer: session.transfer,
                        ..EngineConfig::default()
                    }));
                    match engine.open_journal(path, dai_engine::JournalConfig::default()) {
                        Ok(recovery) => {
                            println!(
                                "journal {path}: {} entr{} replayed, head seq {}{}",
                                recovery.entries_replayed,
                                if recovery.entries_replayed == 1 {
                                    "y"
                                } else {
                                    "ies"
                                },
                                recovery.last_seq,
                                if recovery.damaged_len > 0 {
                                    format!(
                                        " ({} torn tail byte(s) truncated)",
                                        recovery.damaged_len
                                    )
                                } else {
                                    String::new()
                                },
                            );
                            match sweep_via_service(
                                engine.as_ref(),
                                &session.source,
                                &session.history,
                                &sweep_targets(analyzer.program()),
                            ) {
                                Ok(stats) => last_engine_stats = Some(stats),
                                Err(e) => eprintln!("journaled sweep failed: {e}"),
                            }
                            journaled = Some(engine);
                        }
                        Err(e) => eprintln!("journal {path} failed: {e}"),
                    }
                }
            },
            "follow" => {
                let addr = rest.trim();
                if addr.is_empty() {
                    eprintln!("usage: follow ADDR (a `listen` server with a journal)");
                    continue;
                }
                match Replica::<D>::connect(addr, threads) {
                    Ok(replica) => match replica.catch_up() {
                        Ok(applied) => {
                            let stats = replica.engine().stats();
                            println!(
                                "caught up with {addr}: {applied} entr{} applied, \
                                 seq {}, {} replica session(s) serving read-only",
                                if applied == 1 { "y" } else { "ies" },
                                replica.applied_seq(),
                                stats.sessions,
                            );
                            last_engine_stats = Some(stats);
                        }
                        Err(e) => eprintln!("catch-up failed: {e}"),
                    },
                    Err(e) => eprintln!("follow failed: {e}"),
                }
            }
            "trace" => {
                if let Err(e) =
                    trace_command(rest.trim(), remote.as_ref(), last_engine_stats.as_ref())
                {
                    eprintln!("{e}");
                }
            }
            "dot" => {
                let f = rest.trim();
                match analyzer.unit(f, &Context::root()) {
                    Some(unit) => {
                        let opts = DotOptions {
                            title: Some(format!("{f} under ε")),
                            ..DotOptions::default()
                        };
                        print!("{}", to_dot(unit.daig(), &opts));
                    }
                    None => eprintln!("no DAIG for `{f}` in the root context yet (query it first)"),
                }
            }
            other => eprintln!("unknown command `{other}` (try `help`)"),
        }
    }
}

/// The `trace on|off|dump PATH|metrics` command. With a live `connect`
/// client the ops address the *remote* engine's recorder over the wire;
/// otherwise they act on this process's recorder.
fn trace_command<D: PersistDomain>(
    args: &str,
    remote: Option<&Client<D>>,
    last_engine_stats: Option<&dai_engine::EngineStats>,
) -> Result<(), String> {
    let side = if remote.is_some() { "remote" } else { "local" };
    let (sub, rest) = args.split_once(' ').unwrap_or((args, ""));
    match sub {
        "on" | "off" => {
            let enable = sub == "on";
            match remote {
                Some(client) => client
                    .trace(if enable {
                        dai_engine::TraceOp::Enable
                    } else {
                        dai_engine::TraceOp::Disable
                    })
                    .map(|_| ())
                    .map_err(|e| e.to_string())?,
                None => dai_trace::config().set_enabled(enable),
            }
            if enable && !dai_trace::TraceConfig::probes_compiled() && remote.is_none() {
                eprintln!("note: this build has trace probes compiled out (no-default-features)");
            }
            println!(
                "tracing {} ({side})",
                if enable { "enabled" } else { "disabled" }
            );
            Ok(())
        }
        "dump" => {
            let path = rest.trim();
            if path.is_empty() {
                return Err(
                    "usage: trace dump PATH (.json for Chrome trace_event, else binary)"
                        .to_string(),
                );
            }
            let dump = match remote {
                Some(client) => client.trace_dump().map_err(|e| e.to_string())?,
                None => dai_trace::drain(),
            };
            let (bytes, format) = if path.ends_with(".json") {
                (
                    dai_trace::chrome_trace_json(&dump).into_bytes(),
                    "chrome trace_event JSON (chrome://tracing, perfetto.dev)",
                )
            } else {
                (
                    dai_persist::encode_trace_frame(&dump),
                    "binary trace frame (dai_persist::decode_trace_frame)",
                )
            };
            std::fs::write(path, &bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "dumped {} record(s) from {} thread(s) ({} dropped) to {path} — {format}",
                dump.records.len(),
                dump.threads.len(),
                dump.dropped,
            );
            Ok(())
        }
        "metrics" => {
            let text = match remote {
                Some(client) => client.metrics().map_err(|e| e.to_string())?,
                None => {
                    // The server publishes its live stats into the gauges
                    // before rendering; locally the engine from the last
                    // `serve` is gone, so publish its retained stats.
                    if let Some(stats) = last_engine_stats {
                        stats.publish_metrics();
                    }
                    dai_trace::metrics().render_prometheus()
                }
            };
            print!("{text}");
            Ok(())
        }
        _ => Err("usage: trace on|off|dump PATH|metrics".to_string()),
    }
}

fn print_help() {
    println!(
        "commands:
  list                      functions, sizes, loop heads
  cfg FN                    print FN's control-flow graph
  query FN lNN              abstract state at a location, per context
  queryall FN               abstract states at every location (joined)
  deadcode FN               locations proven unreachable (⊥ invariant)
  relabel FN eNN STMT       replace the statement on an edge
  splice FN eNN BLOCK       insert a block before an edge's statement
  save PATH                 persist the session (source + edit history)
  load PATH                 restore a saved session (replays the history)
  serve                     answer every (function, location) query through
                            the concurrent engine (--threads N workers,
                            --resolver intra|interproc)
  listen ADDR [--token T]   serve a fresh engine over a socket (ADDR is
                            tcp:HOST:PORT or unix:PATH); runs until quit;
                            --token requires clients to present T
  connect ADDR [--token T]  run the serve sweep against a remote engine
                            through the dai-rpc socket client (the server's
                            domain must match --domain; --token presents an
                            auth token)
  journal PATH              attach an append-only journal (recovering its
                            clean prefix first), then run the serve sweep
                            through the journaled engine
  journal status            head/applied sequence numbers of that journal
  journal compact           fold the journal into one snapshot per session
  follow ADDR               replicate a journaled `listen` server: pull its
                            journal, apply it into a read-only follower,
                            report the catch-up
  stats                     query/memo work counters
  stats --json              last serve/connect engine stats, one JSON line
  explain [--json] [FN [lNN]]
                            serve the sweep (whole program, one function,
                            or one location) with per-cell cost attribution:
                            outcome/wall per cell, fixpoint iterations,
                            work/span parallelism, lock wait vs. held
                            (remote after a connect; needs --resolver intra)
  trace on|off              flip runtime trace recording (remote after a
                            connect, else this process)
  trace dump PATH           drain the trace (.json: Chrome trace_event for
                            chrome://tracing; otherwise binary frame)
  trace metrics             Prometheus text exposition of the metrics registry
  dot FN                    Graphviz export of FN's DAIG (root context)
  help | quit"
    );
}
