//! The traced run: the same script replayed down a depth ladder.
//!
//! Layers are the crates. The script is replayed once per rung, from the
//! inside out, each rung through public entry points only:
//!
//! 1. `core` — `dai-core` driven directly (`FuncAnalysis::query_loc` +
//!    `IntraResolver`, or `InterAnalyzer`), once over
//!    [`ProbeDomain`]/[`ProbeMemo`], which count and time every call into
//!    `dai-domains` and `dai-memo`, and once without them;
//! 2. `engine` — an in-process `Engine` through `Service`;
//! 3. `rpc` — a `Client` over a Unix socket (socket workloads only);
//! 4. `journal` — rung 3 with a journal attached (the durable workload).
//!
//! A layer's self time is its rung's time minus the rung below; inside
//! rung 1 the probes split `dai-domains` and `dai-memo` from `dai-core`.
//! Direct timings of entry points on inputs taken from the script fill
//! what the ladder cannot separate (state codec, snapshot save/load,
//! journal append, parse/lower, edit application). Counts come from
//! public stats deltas. Every call the benchmark makes is bracketed by a
//! span, written to `out/trace-<workload>.json` at the end.

use crate::check;
use crate::exec::{replay, Backend, Outcome, Rung};
use crate::gen::{all_targets, apply_edit, lower, Op, OpKind, Script};
use crate::probe::{self, Kind, ProbeCounters, ProbeDomain, ProbeMemo};
use crate::run::{check_durable_end_state, metric, DurableTimes, Report};
use crate::stack::Stack;
use crate::stats::{mean, rusage};
use crate::trace::{self, SpanLog};
use crate::workloads::{self, Sizes, Spec, Transport};
use dai_core::driver::ProgramEdit;
use dai_core::query::{IntraResolver, QueryStats};
use dai_core::{FixStrategy, FuncAnalysis, InterAnalyzer, TransferMode, Value};
use dai_domains::AbstractDomain;
use dai_engine::{
    EngineError, EngineStats, Journal, JournalConfig, JournalRecord, ResolverChoice, Service,
};
use dai_lang::cfg::LoweredProgram;
use dai_lang::Loc;
use dai_memo::{MemoStats, MemoTable};
use dai_persist::PersistDomain;
use dai_rpc::proto::{decode_message, encode_message};
use dai_rpc::{WireRequest, WireResponse, WireState};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Spans kept per rung and client; further ones count as dropped.
const SPAN_CAP: usize = 20_000;

/// One session of the core rung.
enum CoreSession<P: AbstractDomain> {
    Intra {
        program: LoweredProgram,
        units: HashMap<String, FuncAnalysis<P>>,
    },
    Inter(Box<InterAnalyzer<P>>),
}

/// Rung 1: the script against `dai-core`, configured as a session of the
/// engine would configure it (paper strategy, compiled transfers, entry
/// state from `entry_default`, one memo table shared by the sessions).
pub struct CoreBackend<P: AbstractDomain> {
    sessions: Vec<CoreSession<P>>,
    memo: MemoTable<Value<P>>,
    stats: QueryStats,
    /// Route the shared memo table through [`ProbeMemo`].
    probe_memo: bool,
}

impl<P: AbstractDomain> CoreBackend<P> {
    pub fn start(spec: &Spec, script: &Script, probe_memo: bool) -> Result<Self, EngineError> {
        let sessions = script
            .sources
            .iter()
            .map(|source| {
                let program = lower(source);
                match spec.resolver {
                    ResolverChoice::Intra => CoreSession::Intra {
                        program,
                        units: HashMap::new(),
                    },
                    ResolverChoice::Interproc { policy } => {
                        let entry = program.entry_cfg().expect("program has an entry function");
                        let (name, phi0) =
                            (entry.name().to_string(), P::entry_default(entry.params()));
                        CoreSession::Inter(Box::new(InterAnalyzer::with_config(
                            program,
                            policy,
                            &name,
                            phi0,
                            FixStrategy::PAPER,
                            TransferMode::Compiled,
                        )))
                    }
                }
            })
            .collect();
        let mut core = CoreBackend {
            sessions,
            memo: MemoTable::new(),
            stats: QueryStats::default(),
            probe_memo,
        };
        for (session, edit) in &script.grow {
            core.edit(*session, edit)?;
        }
        for (session, program) in script.initials.iter().enumerate() {
            for answer in core.sweep(session, &all_targets(program)) {
                answer?;
            }
        }
        Ok(core)
    }

    /// Work counters: this backend's plus each interprocedural analyzer's.
    pub fn query_stats(&self) -> QueryStats {
        let mut total = self.stats;
        for s in &self.sessions {
            if let CoreSession::Inter(analyzer) = s {
                total.absorb(analyzer.stats());
            }
        }
        total
    }

    pub fn memo_stats(&self) -> MemoStats {
        let mut total = *self.memo.stats();
        for s in &self.sessions {
            if let CoreSession::Inter(analyzer) = s {
                let m = analyzer.memo_stats();
                total.hits += m.hits;
                total.misses += m.misses;
                total.insertions += m.insertions;
                total.evictions += m.evictions;
            }
        }
        total
    }
}

impl<P: AbstractDomain> Backend<P> for CoreBackend<P> {
    fn edit(&mut self, session: usize, edit: &ProgramEdit) -> Result<(), EngineError> {
        match &mut self.sessions[session] {
            CoreSession::Intra { program, units } => {
                apply_edit(program, edit);
                match edit {
                    ProgramEdit::Relabel { func, edge, stmt } => {
                        if let Some(fa) = units.get_mut(func.as_str()) {
                            fa.relabel(*edge, stmt.clone())?;
                        }
                    }
                    ProgramEdit::Insert { func, edge, block } => {
                        if let Some(fa) = units.get_mut(func.as_str()) {
                            fa.splice(*edge, block)?;
                        }
                    }
                }
            }
            CoreSession::Inter(analyzer) => match edit {
                ProgramEdit::Relabel { func, edge, stmt } => {
                    analyzer.relabel(func.as_str(), *edge, stmt.clone())?;
                }
                ProgramEdit::Insert { func, edge, block } => {
                    analyzer.splice(func.as_str(), *edge, block)?;
                }
            },
        }
        Ok(())
    }

    fn query(&mut self, session: usize, func: &str, loc: Loc) -> Result<P, EngineError> {
        match &mut self.sessions[session] {
            CoreSession::Intra { program, units } => {
                if !units.contains_key(func) {
                    let cfg = program
                        .by_name(func)
                        .ok_or_else(|| EngineError::NoSuchFunction(func.to_string()))?
                        .clone();
                    let phi0 = P::entry_default(cfg.params());
                    units.insert(
                        func.to_string(),
                        FuncAnalysis::with_config(
                            cfg,
                            phi0,
                            FixStrategy::PAPER,
                            TransferMode::Compiled,
                        ),
                    );
                }
                let fa = units.get_mut(func).expect("just ensured");
                let state = if self.probe_memo {
                    let mut memo = ProbeMemo(&mut self.memo);
                    fa.query_loc(&mut memo, loc, &mut IntraResolver, &mut self.stats)
                } else {
                    fa.query_loc(&mut self.memo, loc, &mut IntraResolver, &mut self.stats)
                };
                Ok(state?)
            }
            CoreSession::Inter(analyzer) => Ok(analyzer.query_joined(func, loc)?),
        }
    }

    fn sweep(&mut self, session: usize, targets: &[(String, Loc)]) -> Vec<Result<P, EngineError>> {
        targets
            .iter()
            .map(|(func, loc)| self.query(session, func, *loc))
            .collect()
    }

    fn burst(&mut self, session: usize, func: &str, locs: &[Loc]) -> Vec<Result<P, EngineError>> {
        locs.iter()
            .map(|&loc| self.query(session, func, loc))
            .collect()
    }

    /// Persistence starts at the engine rung.
    fn save(&mut self, _session: usize) -> Result<(), EngineError> {
        Ok(())
    }

    fn compact(&mut self) -> Result<(), EngineError> {
        Ok(())
    }
}

/// What one rung measured, clients summed.
#[derive(Default)]
struct RungTotals {
    busy_ns: u64,
    /// Latencies by [`OpKind`].
    latency_ns: [Vec<u64>; 6],
    answered: u64,
    failed: u64,
    digests: Vec<u64>,
    first_error: Option<String>,
}

impl RungTotals {
    fn absorb<D>(&mut self, o: Outcome<D>) {
        self.busy_ns += o.busy_ns;
        for (all, client) in self.latency_ns.iter_mut().zip(o.latency_ns) {
            all.extend(client);
        }
        self.answered += o.attempted - o.failed;
        self.failed += o.failed;
        self.digests.push(o.digest);
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
    }

    /// Mean latency of calls of `kind`, in microseconds.
    fn mean_us(&self, kind: OpKind) -> f64 {
        mean(&self.latency_ns[kind as usize]) / 1e3
    }

    fn save_total_ns(&self) -> u64 {
        self.latency_ns[OpKind::Save as usize].iter().sum()
    }
}

/// Replays every client's script on the core rung, one after another on
/// this thread (the probes are thread-local; nothing contends here).
fn core_rung<P: AbstractDomain>(
    spec: &Spec,
    script: &Script,
    probed: bool,
) -> Result<(RungTotals, CoreBackend<P>, ProbeCounters, Option<SpanLog>), EngineError> {
    let mut core: CoreBackend<P> = CoreBackend::start(spec, script, probed)?;
    probe::reset(probed.then(|| SpanLog::new(SPAN_CAP)));
    let mut totals = RungTotals::default();
    for ops in &script.clients {
        totals.absorb(replay(&mut core, ops, &[], probed.then_some(Rung::Core)));
    }
    let (counters, log) = probe::take();
    Ok((totals, core, counters, log))
}

/// Field-wise `after − before` of the engine counters the metrics use.
struct EngineDelta {
    session_locks: u64,
    batches: u64,
    coalesced: u64,
    singletons: u64,
    union_cone_cells: u64,
    union_cone_walks: u64,
    query: QueryStats,
    memo: MemoStats,
}

fn engine_delta(before: &EngineStats, after: &EngineStats) -> EngineDelta {
    EngineDelta {
        session_locks: after.session_locks - before.session_locks,
        batches: after.batch.batches - before.batch.batches,
        coalesced: after.batch.coalesced_queries - before.batch.coalesced_queries,
        singletons: after.batch.singleton_queries - before.batch.singleton_queries,
        union_cone_cells: after.batch.union_cone_cells - before.batch.union_cone_cells,
        union_cone_walks: after.batch.union_cone_walks - before.batch.union_cone_walks,
        query: after.query_stats.delta(&before.query_stats),
        memo: MemoStats {
            hits: after.memo.hits - before.memo.hits,
            misses: after.memo.misses - before.memo.misses,
            insertions: after.memo.insertions - before.memo.insertions,
            evictions: after.memo.evictions - before.memo.evictions,
        },
    }
}

/// What a service rung yields besides its totals.
struct ServiceRung<D> {
    totals: RungTotals,
    logs: Vec<SpanLog>,
    delta: EngineDelta,
    /// Answers kept for the last checkpoint (states to time the codec on).
    states: Vec<D>,
    journal_frames: u64,
    journal_bytes: u64,
    compact_ms: f64,
    snapshot: SnapshotTimes,
    durable: Option<(u64, Vec<String>, DurableTimes)>,
}

#[derive(Default, Clone, Copy)]
struct SnapshotTimes {
    save_ms: f64,
    load_ms: f64,
    bytes: f64,
}

fn service_rung<D: PersistDomain>(
    spec: &Spec,
    script: &Script,
    transport: Transport,
    rung: Rung,
    dir: &Path,
) -> Result<ServiceRung<D>, EngineError> {
    let stack: Stack<D> = Stack::start(spec, script, transport)?;
    let before = stack.engine.stats();
    // Keep the last checkpoint's answers: real states for the codec.
    let mut keep = vec![Vec::new(); script.clients.len()];
    if let Some(cp) = script.checkpoints.iter().rev().find(|cp| cp.client == 0) {
        keep[0].push(cp.ops);
    }
    let mut totals = RungTotals::default();
    let mut logs = Vec::new();
    let mut states = Vec::new();
    for (mut outcome, log) in stack.run(script, &keep, dir, Some((rung, SPAN_CAP))) {
        states.extend(outcome.kept.drain(..).flatten());
        totals.absorb(outcome);
        logs.extend(log);
    }
    let delta = engine_delta(&before, &stack.engine.stats());
    let mut out = ServiceRung {
        totals,
        logs,
        delta,
        states,
        journal_frames: 0,
        journal_bytes: 0,
        compact_ms: 0.0,
        snapshot: SnapshotTimes::default(),
        durable: None,
    };
    if rung == Rung::Engine {
        // Snapshot save and load of session 0 as the script left it,
        // timed directly on the engine.
        let path = crate::exec::snapshot_path(dir, 0);
        let start = Instant::now();
        let saved = stack.engine.save(stack.sessions[0], &path);
        out.snapshot.save_ms = start.elapsed().as_secs_f64() * 1e3;
        // Interprocedural sessions snapshot cold; a session that cannot
        // be saved at all reports zeros.
        if let Ok(saved) = saved {
            out.snapshot.bytes = saved.bytes as f64;
            let start = Instant::now();
            let _ = black_box(stack.engine.load(&path)?);
            out.snapshot.load_ms = start.elapsed().as_secs_f64() * 1e3;
        }
    }
    if transport == Transport::SocketJournal {
        let journal = stack.engine.journal().expect("journal attached");
        out.journal_frames = journal.frames();
        out.journal_bytes = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
        out.durable = Some(check_durable_end_state(spec, script, &stack, dir)?);
        let start = Instant::now();
        stack.engine.compact_journal(true)?;
        out.compact_ms = start.elapsed().as_secs_f64() * 1e3;
    }
    stack.stop();
    Ok(out)
}

/// Mean microseconds per call of `f` over `items`, repeated until about
/// five milliseconds have been measured.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_millis() < 5 {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs the ladder for one workload and reports the per-layer metrics.
pub fn traced<D: PersistDomain>(
    spec: &Spec,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    out: &Path,
) -> Result<Report, EngineError> {
    let mut report = Report::default();
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let script = workloads::script(spec, seed, sizes);
    crate::run::check_frozen(&mut report, spec, seed, sizes, &script);
    let edits: Vec<(usize, &ProgramEdit)> = script
        .grow
        .iter()
        .map(|(s, e)| (*s, e))
        .chain(script.clients.iter().flatten().filter_map(|op| match op {
            Op::Edit { session, edit, .. } => Some((*session, edit)),
            _ => None,
        }))
        .collect();

    // dai-lang, timed directly: parse + lower of the sources, and the
    // script's edits replayed on bare lowered programs.
    let start = Instant::now();
    let mut programs: Vec<LoweredProgram> = script.sources.iter().map(|s| lower(s)).collect();
    m.insert("lang.parse_lower_us", start.elapsed().as_secs_f64() * 1e6);
    m.insert(
        "lang.source_bytes",
        script.sources.iter().map(String::len).sum::<usize>() as f64,
    );
    let start = Instant::now();
    for (session, edit) in &edits {
        apply_edit(&mut programs[*session], edit);
    }
    let lang_edit_ns = start.elapsed().as_nanos() as f64;
    m.insert(
        "lang.edit_apply_us",
        lang_edit_ns / 1e3 / edits.len().max(1) as f64,
    );
    m.insert(
        "lang.cfg_edges",
        script
            .finals
            .iter()
            .flat_map(|p| p.cfgs())
            .map(|c| c.edge_count())
            .sum::<usize>() as f64,
    );

    // Rung 1: without probes, with them, and without again. The host
    // disturbs single replays by tens of percent, and a ladder subtracts
    // rung from rung, so the two inner rungs are replayed twice and the
    // faster replay is the rung's time.
    let usage_before = rusage();
    let (first, first_core, _, _) = core_rung::<D>(spec, &script, false)?;
    drop(first_core);
    let (probed, probed_core, counters, core_log) =
        core_rung::<ProbeDomain<D>>(spec, &script, true)?;
    let (second, plain_core, _, _) = core_rung::<D>(spec, &script, false)?;
    let core_stats = plain_core.query_stats();
    let core_memo = plain_core.memo_stats();
    drop((probed_core, plain_core));
    let first_rep_ratio = share(first.busy_ns as f64, second.busy_ns as f64);
    let (plain, slower_core) = if first.busy_ns < second.busy_ns {
        (first, second)
    } else {
        (second, first)
    };

    // Rungs 2 to 4.
    let engine = {
        let a = service_rung::<D>(spec, &script, Transport::InProcess, Rung::Engine, dir)?;
        let b = service_rung::<D>(spec, &script, Transport::InProcess, Rung::Engine, dir)?;
        if a.totals.busy_ns < b.totals.busy_ns {
            a
        } else {
            b
        }
    };
    let rpc = match spec.transport {
        Transport::InProcess => None,
        _ => Some(service_rung::<D>(
            spec,
            &script,
            Transport::Socket,
            Rung::Rpc,
            dir,
        )?),
    };
    let journal = match spec.transport {
        Transport::SocketJournal => Some(service_rung::<D>(
            spec,
            &script,
            Transport::SocketJournal,
            Rung::Journal,
            dir,
        )?),
        _ => None,
    };
    let usage = rusage().since(&usage_before);

    // Every rung must answer alike: through the probes, without them,
    // through the engine, over the wire, with the journal on.
    let mut rungs: Vec<(&str, &RungTotals)> = vec![
        ("core+probes", &probed),
        ("core", &plain),
        ("core (slower replay)", &slower_core),
        ("engine", &engine.totals),
    ];
    rungs.extend(rpc.as_ref().map(|r| ("rpc", &r.totals)));
    rungs.extend(journal.as_ref().map(|r| ("journal", &r.totals)));
    for (name, totals) in &rungs {
        report.attempted += totals.answered + totals.failed + 1;
        if totals.failed > 0 {
            let e = totals.first_error.clone().unwrap_or_default();
            report.problem(totals.failed, format!("rung {name}: {e}"));
        }
        if totals.digests != engine.totals.digests {
            report.problem(
                1,
                format!("rung {name} answers differ from the engine rung's"),
            );
        }
    }
    if let Some((compared, wrong, _)) = journal.as_ref().and_then(|j| j.durable.as_ref()) {
        report.attempted += compared;
        for w in wrong {
            report.problem(1, w.clone());
        }
    }

    // The from-scratch oracle on the last checkpoint, timed.
    if let Some(cp) = script.checkpoints.iter().rev().find(|cp| cp.client == 0) {
        let start = Instant::now();
        let (checked, wrong) =
            check::verify::<D>(spec.resolver, cp, &script.clients[0], &engine.states);
        m.insert("core.batch_oracle_ms", start.elapsed().as_secs_f64() * 1e3);
        report.attempted += checked as u64;
        crate::run::file_oracle_verdict(&mut report, spec, wrong);
    }

    // dai-domains and dai-memo, from the probes.
    for (kind, calls, us) in [
        (
            Kind::Transfer,
            "domains.transfer_calls",
            "domains.transfer_us",
        ),
        (Kind::Join, "domains.join_calls", "domains.join_us"),
        (Kind::Widen, "domains.widen_calls", "domains.widen_us"),
        (Kind::Leq, "domains.leq_calls", "domains.leq_us"),
        (Kind::Clone, "domains.clone_calls", "domains.clone_us"),
        (Kind::EqHash, "domains.eq_hash_calls", "domains.eq_hash_us"),
        (
            Kind::CallBind,
            "domains.call_bind_calls",
            "domains.call_bind_us",
        ),
        (Kind::MemoFetch, "memo.fetch_calls", "memo.fetch_us"),
        (Kind::MemoRecord, "memo.record_calls", "memo.record_us"),
    ] {
        m.insert(calls, counters.calls_of(kind) as f64);
        // Total microseconds inside calls of this kind over the script.
        m.insert(us, counters.ns_of(kind) as f64 / 1e3);
    }
    // Interprocedural analyzers own their memo table, which no probe can
    // wrap: its traffic is counted from `MemoStats`, its time stays in
    // dai-core's share.
    if matches!(spec.resolver, ResolverChoice::Interproc { .. }) {
        m.insert(
            "memo.fetch_calls",
            (core_memo.hits + core_memo.misses) as f64,
        );
        m.insert("memo.record_calls", core_memo.insertions as f64);
    }
    m.insert("memo.hit_rate", core_memo.hit_rate());
    m.insert("memo.insertions", core_memo.insertions as f64);
    m.insert("memo.evictions", core_memo.evictions as f64);

    // Self times. `top` is the rung the end-to-end run uses.
    let top = journal
        .as_ref()
        .or(rpc.as_ref())
        .unwrap_or(&engine)
        .totals
        .busy_ns as f64;
    let core_busy = plain.busy_ns as f64;
    // The probes slow rung 1 down; the split they measured is scaled to
    // the unprobed time.
    let scale = core_busy / probed.busy_ns.max(1) as f64;
    let domains_self = counters.domain_ns() as f64 * scale;
    let memo_self = counters.memo_ns() as f64 * scale;
    let lang_self = lang_edit_ns.min(core_busy);
    let core_self = (core_busy - domains_self - memo_self - lang_self).max(0.0);
    let persist_self = engine.totals.save_total_ns() as f64;
    let engine_self = (engine.totals.busy_ns as f64 - persist_self - core_busy).max(0.0);
    let rpc_self = rpc.as_ref().map_or(0.0, |r| {
        (r.totals.busy_ns as f64 - engine.totals.busy_ns as f64).max(0.0)
    });
    let journal_self = match (&journal, &rpc) {
        (Some(j), Some(r)) => (j.totals.busy_ns as f64 - r.totals.busy_ns as f64).max(0.0),
        _ => 0.0,
    };
    let parts = domains_self
        + memo_self
        + lang_self
        + core_self
        + persist_self
        + engine_self
        + rpc_self
        + journal_self;
    m.insert("domains.busy_share", share(domains_self, top));
    m.insert("memo.self_share", share(memo_self, top));
    m.insert("lang.self_share", share(lang_self, top));
    m.insert("core.self_share", share(core_self, top));
    m.insert("persist.self_share", share(persist_self, top));
    m.insert("engine.self_share", share(engine_self, top));
    m.insert("rpc.self_share", share(rpc_self, top));
    m.insert("journal.self_share", share(journal_self, top));
    m.insert("trace.unattributed_share", (1.0 - share(parts, top)).abs());
    m.insert(
        "trace.probe_overhead_share",
        share(probed.busy_ns as f64 - core_busy, probed.busy_ns as f64).max(0.0),
    );

    // dai-core.
    m.insert("core.query_us", plain.mean_us(OpKind::Query));
    m.insert("core.edit_us", plain.mean_us(OpKind::Edit));
    m.insert("core.cells_computed", core_stats.computed as f64);
    m.insert("core.cells_memo_matched", core_stats.memo_matched as f64);
    m.insert("core.cells_reused", core_stats.reused as f64);
    let demanded = core_stats.computed + core_stats.memo_matched + core_stats.reused;
    m.insert(
        "core.recompute_ratio",
        share(core_stats.computed as f64, demanded as f64),
    );
    m.insert("core.unrolls", core_stats.unrolls as f64);
    m.insert("core.fix_converged", core_stats.fix_converged as f64);
    m.insert(
        "core.transfers_compiled",
        core_stats.transfers_compiled as f64,
    );
    m.insert("core.transfers_interp", core_stats.transfers_interp as f64);
    // Cone counters exist only in the engine's scheduler.
    m.insert("core.cone_cells", engine.delta.query.cone_cells as f64);

    // dai-engine.
    let top_delta = &journal.as_ref().or(rpc.as_ref()).unwrap_or(&engine).delta;
    m.insert(
        "engine.query_self_us",
        engine.totals.mean_us(OpKind::Query) - plain.mean_us(OpKind::Query),
    );
    m.insert(
        "engine.edit_self_us",
        engine.totals.mean_us(OpKind::Edit) - plain.mean_us(OpKind::Edit),
    );
    m.insert("engine.sweep_us", engine.totals.mean_us(OpKind::Sweep));
    m.insert("engine.session_locks", top_delta.session_locks as f64);
    m.insert("engine.batches", top_delta.batches as f64);
    m.insert(
        "engine.coalesced_share",
        share(
            top_delta.coalesced as f64,
            (top_delta.coalesced + top_delta.singletons) as f64,
        ),
    );
    m.insert("engine.union_cone_cells", top_delta.union_cone_cells as f64);
    m.insert("engine.union_cone_walks", top_delta.union_cone_walks as f64);
    m.insert("engine.memo_hit_rate", top_delta.memo.hit_rate());

    // dai-rpc: ladder differences, and the message codec timed directly.
    if let Some(r) = &rpc {
        let (t, e) = (&r.totals, &engine.totals);
        m.insert(
            "rpc.query_self_us",
            t.mean_us(OpKind::Query) - e.mean_us(OpKind::Query),
        );
        m.insert(
            "rpc.edit_self_us",
            t.mean_us(OpKind::Edit) - e.mean_us(OpKind::Edit),
        );
        m.insert(
            "rpc.sweep_self_us",
            t.mean_us(OpKind::Sweep) - e.mean_us(OpKind::Sweep),
        );
        m.insert("rpc.pipeline_burst_us", t.mean_us(OpKind::Burst));
    }
    let queries: Vec<WireRequest> = script
        .clients
        .iter()
        .flatten()
        .filter_map(|op| match op {
            Op::Query { func, loc, .. } => Some(WireRequest::Query {
                session: 1,
                func: func.clone(),
                loc: *loc,
            }),
            _ => None,
        })
        .take(256)
        .collect();
    let states = &engine.states[..engine.states.len().min(256)];
    let blobs: Vec<WireState> = states.iter().map(WireState::encode).collect();
    let responses: Vec<Vec<u8>> = blobs
        .iter()
        .map(|b| encode_message(&WireResponse::State(b.clone())))
        .collect();
    let request_bytes = mean(
        &queries
            .iter()
            .map(|q| encode_message(q).len() as u64)
            .collect::<Vec<_>>(),
    );
    let response_bytes = mean(&responses.iter().map(|r| r.len() as u64).collect::<Vec<_>>());
    if rpc.is_some() {
        m.insert(
            "rpc.request_encode_us",
            time_each(&queries, |q| {
                black_box(encode_message(q));
            }),
        );
        m.insert(
            "rpc.response_decode_us",
            time_each(&responses, |r| {
                black_box(decode_message::<WireResponse>(r).is_ok());
            }),
        );
        // Payloads plus two frame headers and trailers.
        let framing = 2
            * (dai_persist::FRAME_HEADER_LEN
                + dai_persist::FRAME_ID_LEN
                + dai_persist::FRAME_TRAILER_LEN);
        m.insert(
            "rpc.bytes_per_query",
            request_bytes + response_bytes + framing as f64,
        );
    }

    // dai-persist: the state codec on states the script produced, and a
    // snapshot of session 0 as the script left it.
    m.insert(
        "persist.state_encode_us",
        time_each(states, |s| {
            black_box(WireState::encode(s));
        }),
    );
    m.insert(
        "persist.state_decode_us",
        time_each(&blobs, |b| {
            black_box(b.decode::<D>().is_ok());
        }),
    );
    m.insert(
        "persist.state_bytes",
        mean(&blobs.iter().map(|b| b.0.len() as u64).collect::<Vec<_>>()),
    );
    m.insert("persist.snapshot_save_ms", engine.snapshot.save_ms);
    m.insert("persist.snapshot_load_ms", engine.snapshot.load_ms);
    m.insert("persist.snapshot_bytes", engine.snapshot.bytes);

    // dai-journal: appends timed directly on the script's edits; the
    // rest from the journal rung.
    if let Some(j) = &journal {
        let path = "append-probe.daij";
        let _ = std::fs::remove_file(path);
        let (direct, _) = Journal::open(path, JournalConfig::default())?;
        let start = Instant::now();
        for (session, edit) in &edits {
            direct.append(
                *session as u64 + 1,
                JournalRecord::Edit {
                    edit: (*edit).clone(),
                },
            )?;
        }
        let appended = edits.len().max(1) as f64;
        m.insert(
            "journal.append_us",
            start.elapsed().as_secs_f64() * 1e6 / appended,
        );
        m.insert(
            "journal.bytes_per_edit",
            std::fs::metadata(path).map_or(0, |meta| meta.len()) as f64 / appended,
        );
        m.insert("journal.frames", j.journal_frames as f64);
        m.insert("journal.file_bytes", j.journal_bytes as f64);
        m.insert("journal.compact_ms", j.compact_ms);
        if let Some((_, _, times)) = &j.durable {
            m.insert("journal.recover_ms", times.recover_ms);
            m.insert("journal.replica_catchup_ms", times.replica_catchup_ms);
            m.insert("persist.snapshot_load_ms", times.snapshot_load_ms);
        }
    }

    // Process.
    let ops = rungs.iter().map(|(_, t)| t.answered).sum::<u64>().max(1) as f64;
    m.insert("proc.sys_cpu_share", share(usage.sys_s, usage.cpu_s()));
    m.insert("proc.minor_faults_per_op", usage.minor_faults as f64 / ops);
    m.insert("proc.ctx_switches_per_op", usage.ctx_switches as f64 / ops);
    // The first replay in this process against the same replay later:
    // what a cold allocator and cold caches cost.
    m.insert("proc.first_rep_ratio", first_rep_ratio);

    // Spans.
    let mut named: Vec<(&str, &SpanLog)> = Vec::new();
    named.extend(core_log.as_ref().map(|l| ("core", l)));
    named.extend(engine.logs.iter().map(|l| ("engine", l)));
    named.extend(rpc.iter().flat_map(|r| r.logs.iter().map(|l| ("rpc", l))));
    named.extend(
        journal
            .iter()
            .flat_map(|j| j.logs.iter().map(|l| ("journal", l))),
    );
    m.insert(
        "trace.spans_dropped",
        named.iter().map(|(_, l)| l.dropped).sum::<u64>() as f64,
    );
    let path = out.join(format!("trace-{}.json", spec.name));
    if let Err(e) = std::fs::write(&path, trace::render(spec.name, &named)) {
        report.problem(1, format!("{}: {e}", path.display()));
    }
    m.insert(
        "check.failed_share",
        share(report.failed as f64, report.attempted as f64),
    );
    m.insert("check.answers_checked", report.attempted as f64);
    m.insert(
        "check.from_scratch_mismatches",
        report.known_mismatches as f64,
    );

    // Report every per-layer metric of the manifest, in its order; a
    // metric the workload has no use for (rpc.* in process) reads 0.
    report.metrics = crate::manifest::PER_LAYER
        .iter()
        .map(|&(name, unit, _)| metric(name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    report.notes = vec![
        format!(
            "script digest {:016x}, {} ops per replay",
            script.digest,
            script.op_count()
        ),
        format!(
            "rung busy time, s: {}",
            rungs
                .iter()
                .map(|(n, t)| format!("{n} {:.3}", t.busy_ns as f64 / 1e9))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!("spans in {}", path.display()),
    ];
    Ok(report)
}
