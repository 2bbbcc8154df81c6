//! The DAIG representation microbench behind `BENCH_daig.json`.
//!
//! Measures two things about the interned-id DAIG (PR 2):
//!
//! 1. **End-to-end single-worker throughput** on the Fig. 10 synthetic
//!    octagon workload — the same sweep `BENCH_engine.json` records
//!    (sessions grown by random edits, then every `(function, location)`
//!    queried through the engine), repeated several times because
//!    single-CPU container timing is noisy; the medians are what count.
//! 2. **Representation micro-costs**: `initial_daig` construction,
//!    a cold demanded exit query, an edit-plus-requery round trip, and a
//!    counter check that the demanded cone is traversed exactly once per
//!    evaluation no matter how many times loops unroll.
//!
//! The `--check` mode is the CI contract: it validates a committed
//! `BENCH_daig.json` (fields present), re-runs the smoke profile under
//! the compiled warm path, and fails on a large throughput regression
//! against the committed smoke point.
//!
//! Since PR 7 the sweep runs **dual-mode**: compiled (staged transfer
//! closures) and interpreted repeats are interleaved A/B on the same
//! host so the `transfer` section's speedup compares like with like, and
//! [`measure_transfer_micro`] isolates the per-cell transfer-application
//! latency (compiled vs interpreted vs fused straight-line runs).

use dai_core::analysis::FuncAnalysis;
use dai_core::explain::{CellOutcome, ExplainReport};
use dai_core::query::{IntraResolver, QueryStats};
use dai_core::{TransferMode, TransferTable, Value};
use dai_domains::{AbstractDomain, OctagonDomain};
use dai_lang::cfg::lower_program;
use dai_lang::parser::parse_program;
use dai_memo::{content_digest, MemoTable};
use std::time::Instant;

use crate::engine_scaling::{run_scaling, ScalingParams};

/// Workload sizes for one measurement.
#[derive(Debug, Clone)]
pub struct DaigBenchParams {
    /// Engine sessions.
    pub sessions: usize,
    /// Random edits growing each session before measurement.
    pub grow_edits: usize,
    /// Workload seed (the PR 1 baseline used 379422).
    pub seed: u64,
    /// Full-sweep repetitions (medians reported).
    pub repeats: usize,
}

impl DaigBenchParams {
    /// The profile matching the PR 1 `BENCH_engine.json` recording.
    pub fn full() -> DaigBenchParams {
        DaigBenchParams {
            sessions: 8,
            grow_edits: 40,
            seed: 379422,
            repeats: 7,
        }
    }

    /// A seconds-scale profile for CI smoke runs.
    pub fn smoke() -> DaigBenchParams {
        DaigBenchParams {
            sessions: 2,
            grow_edits: 6,
            seed: 379422,
            repeats: 3,
        }
    }
}

/// One measured throughput series.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Queries per sweep.
    pub queries: usize,
    /// Per-repeat queries/second, unsorted.
    pub runs: Vec<f64>,
}

impl Throughput {
    /// The median of the runs.
    pub fn median(&self) -> f64 {
        let mut v = self.runs.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The best run.
    pub fn best(&self) -> f64 {
        self.runs.iter().copied().fold(0.0, f64::max)
    }
}

/// Representation micro-costs and the incrementality witness.
#[derive(Debug, Clone)]
pub struct MicroCosts {
    /// `initial_daig` construction over the loopy reference function.
    pub initial_daig_ns: f64,
    /// Cold demanded exit query (sequential evaluator, octagon).
    pub cold_exit_query_ns: f64,
    /// Statement relabel + exit re-query (incremental path).
    pub edit_requery_ns: f64,
    /// Unrolls the cold query performed.
    pub unrolls: u64,
    /// Demanded-cone traversals the *engine scheduler* performed for one
    /// exit evaluation of the same function (must be 1 — the whole point
    /// of incremental cone maintenance).
    pub cone_walks: u64,
}

const LOOPY: &str = "function f(n) { var i = 0; var s = 0; \
                     while (i < 9) { var j = 0; while (j < 4) { s = s + j; j = j + 1; } i = i + 1; } \
                     return s; }";

/// Per-cell transfer-application latency, compiled vs interpreted
/// (PR 7's staged-closure tentpole), plus the fused straight-line runs.
#[derive(Debug, Clone)]
pub struct TransferMicro {
    /// One staged-closure application (octagon, loopy reference CFG).
    pub compiled_ns: f64,
    /// One `AbstractDomain::transfer` interpretation of the same
    /// (statement, pre-state) pairs.
    pub interp_ns: f64,
    /// Amortized per-statement cost through the fused straight-line
    /// runs (`NaN` when the CFG fuses no run).
    pub fused_ns_per_stmt: f64,
    /// Edges with a staged closure.
    pub compiled_edges: usize,
    /// Edges falling back to the interpreter.
    pub interp_edges: usize,
    /// Fused runs the table precomputed.
    pub fused_runs: usize,
    /// Median of the per-round interp/compiled ratios (each round times
    /// both modes back to back, so host noise cancels within the pair).
    pub per_cell_ratio: f64,
}

impl TransferMicro {
    /// Interpreted-over-compiled latency ratio (> 1 means staging wins):
    /// the paired-round median, which is robust to the drift that makes
    /// a single ratio-of-totals swing wildly on a shared host.
    pub fn speedup(&self) -> f64 {
        self.per_cell_ratio
    }
}

/// Measures [`TransferMicro`] on the loopy reference function under the
/// octagon domain. Pre-states are grown by interpreting the edge
/// statements in order, so closures are applied to constrained octagons
/// rather than ⊤ — the shape the warm path actually sees.
pub fn measure_transfer_micro() -> TransferMicro {
    let cfg = lower_program(&parse_program(LOOPY).expect("loopy parses"))
        .expect("loopy lowers")
        .cfgs()[0]
        .clone();
    let table = TransferTable::<OctagonDomain>::build(&cfg);
    let digest =
        |stmt: &dai_lang::Stmt| content_digest(&Value::<OctagonDomain>::Stmt(stmt.clone()));

    // (edge, statement, pre-state) in edge order, state evolved by the
    // interpreter so both measured paths see identical inputs.
    let mut state = OctagonDomain::top();
    let mut pairs = Vec::new();
    for e in cfg.edges() {
        pairs.push((e.id, e.stmt.clone(), state.clone()));
        state = state.transfer(&e.stmt);
    }

    let staged: Vec<_> = pairs
        .iter()
        .filter_map(|(id, stmt, pre)| table.lookup(*id, digest(stmt)).map(|ct| (ct, pre)))
        .collect();
    assert!(!staged.is_empty(), "loopy edges stage under octagon");

    // Paired rounds: each round times both modes back to back (order
    // alternating to cancel drift) and contributes one ratio sample.
    // On a shared 1-CPU host a single long timing pass per mode is
    // hopeless — the medians below are stable where one pass is not.
    let rounds = 25usize;
    let iters = 200u32;
    let time_interp = || {
        let t0 = Instant::now();
        for _ in 0..iters {
            for (_, stmt, pre) in &pairs {
                std::hint::black_box(pre.transfer(stmt));
            }
        }
        t0.elapsed().as_nanos() as f64 / (iters as usize * pairs.len()) as f64
    };
    let time_compiled = || {
        let t0 = Instant::now();
        for _ in 0..iters {
            for (ct, pre) in &staged {
                std::hint::black_box(ct.apply(pre));
            }
        }
        t0.elapsed().as_nanos() as f64 / (iters as usize * staged.len()) as f64
    };
    let mut interp_samples = Vec::with_capacity(rounds);
    let mut compiled_samples = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let (c, i) = if r % 2 == 0 {
            let c = time_compiled();
            (c, time_interp())
        } else {
            let i = time_interp();
            (time_compiled(), i)
        };
        compiled_samples.push(c);
        interp_samples.push(i);
        ratios.push(i / c.max(1e-9));
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let compiled_ns = median(compiled_samples);
    let interp_ns = median(interp_samples);
    let per_cell_ratio = median(ratios);

    // Fused runs: one closure application covers the whole chain; the
    // per-statement figure amortizes it over the member edges.
    let runs = table.fused_runs();
    let fused_ns_per_stmt = if runs.is_empty() {
        f64::NAN
    } else {
        let inputs: Vec<_> = runs
            .iter()
            .map(|r| {
                let pre = pairs
                    .iter()
                    .find(|(id, _, _)| *id == r.edges[0])
                    .map(|(_, _, pre)| pre.clone())
                    .unwrap_or_else(OctagonDomain::top);
                (&r.ct, pre, r.edges.len())
            })
            .collect();
        let stmts: usize = inputs.iter().map(|(_, _, n)| n).sum();
        let t0 = Instant::now();
        for _ in 0..iters {
            for (ct, pre, _) in &inputs {
                std::hint::black_box(ct.apply(pre));
            }
        }
        t0.elapsed().as_nanos() as f64 / (iters as usize * stmts) as f64
    };

    TransferMicro {
        compiled_ns,
        interp_ns,
        fused_ns_per_stmt,
        compiled_edges: table.compiled_edges(),
        interp_edges: table.interp_edges(),
        fused_runs: runs.len(),
        per_cell_ratio,
    }
}

/// Per-cell transfer latency over the **grown fig10 workload program**
/// — the same statement population the end-to-end sweep evaluates, so
/// this is the per-cell figure for the acceptance workload. The fig10
/// octagons track up to the full 8-variable pool, so the shared
/// matrix-clone-and-write cost (paid identically by both modes)
/// dominates and the staging win is structurally smaller than on the
/// 4-variable loopy function.
#[derive(Debug, Clone)]
pub struct TransferMicroFig10 {
    /// One staged-closure application, median of paired rounds.
    pub compiled_ns: f64,
    /// One interpreter application of the same (statement, pre-state)s.
    pub interp_ns: f64,
    /// Median of per-round interp/compiled ratios.
    pub per_cell_ratio: f64,
    /// Edges with a staged closure (the measured population).
    pub staged_edges: usize,
    /// Edges the table left to the interpreter (calls), excluded from
    /// both timed loops so the comparison stays like-with-like.
    pub unstaged_edges: usize,
}

/// Measures [`TransferMicroFig10`]: one session grown by the sweep's
/// edit mix, every staged edge applied to a pre-state evolved by
/// interpreting its function's edges in order (bottoms skipped so the
/// closures see real matrices).
pub fn measure_transfer_micro_fig10() -> TransferMicroFig10 {
    use dai_engine::{Engine, EngineConfig, Request};
    let engine: Engine<OctagonDomain> = Engine::with_config(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = engine.open_session(
        "transfer-micro".to_string(),
        crate::workload::Workload::initial_program(),
    );
    let defaults = DaigBenchParams::full();
    let mut gen = crate::workload::Workload::new(defaults.seed);
    for _ in 0..defaults.grow_edits {
        let program = engine.program_of(id).expect("session open");
        let edit: dai_core::driver::ProgramEdit = gen.next_edit(&program);
        engine
            .request(Request::Edit { session: id, edit })
            .expect("bench edit applies");
    }
    let program = engine.program_of(id).expect("session open");

    let tables: Vec<TransferTable<OctagonDomain>> = program
        .cfgs()
        .iter()
        .map(TransferTable::<OctagonDomain>::build)
        .collect();
    let mut triples = Vec::new();
    let mut unstaged_edges = 0usize;
    for (cfg, table) in program.cfgs().iter().zip(&tables) {
        let mut state = OctagonDomain::top();
        for e in cfg.edges() {
            let d = content_digest(&Value::<OctagonDomain>::Stmt(e.stmt.clone()));
            match table.lookup(e.id, d) {
                Some(ct) => triples.push((ct, e.stmt.clone(), state.clone())),
                None => unstaged_edges += 1,
            }
            let next = state.transfer(&e.stmt);
            if !next.is_bottom() {
                state = next;
            }
        }
    }
    assert!(!triples.is_empty(), "grown fig10 program stages edges");

    let rounds = 25usize;
    let iters = 40u32;
    let time_interp = || {
        let t0 = Instant::now();
        for _ in 0..iters {
            for (_, stmt, pre) in &triples {
                std::hint::black_box(pre.transfer(stmt));
            }
        }
        t0.elapsed().as_nanos() as f64 / (iters as usize * triples.len()) as f64
    };
    let time_compiled = || {
        let t0 = Instant::now();
        for _ in 0..iters {
            for (ct, _, pre) in &triples {
                std::hint::black_box(ct.apply(pre));
            }
        }
        t0.elapsed().as_nanos() as f64 / (iters as usize * triples.len()) as f64
    };
    let mut compiled_samples = Vec::with_capacity(rounds);
    let mut interp_samples = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let (c, i) = if r % 2 == 0 {
            let c = time_compiled();
            (c, time_interp())
        } else {
            let i = time_interp();
            (time_compiled(), i)
        };
        compiled_samples.push(c);
        interp_samples.push(i);
        ratios.push(i / c.max(1e-9));
    }
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    TransferMicroFig10 {
        compiled_ns: median(compiled_samples),
        interp_ns: median(interp_samples),
        per_cell_ratio: median(ratios),
        staged_edges: triples.len(),
        unstaged_edges,
    }
}

/// The fig10 explain captures behind the artifact's `"explain"` section:
/// one session grown by the sweep's edit mix, the whole-program sweep
/// served twice with cost attribution on — **cold** (the union cone
/// computed from scratch; the work/span figure the paper's demanded-cone
/// parallelism argument is about) and **warm** (the same sweep re-served
/// against the populated DAIG, so reuse dominates and the attributed
/// work collapses).
#[derive(Debug, Clone)]
pub struct ExplainFig10 {
    /// The cold-sweep capture.
    pub cold: ExplainReport,
    /// The warm re-sweep capture.
    pub warm: ExplainReport,
}

/// A field-wise `QueryStats` delta (`after - before`), for checking the
/// explain accounting identity against exactly one sweep's counters.
fn stats_delta(after: &QueryStats, before: &QueryStats) -> QueryStats {
    QueryStats {
        computed: after.computed - before.computed,
        memo_matched: after.memo_matched - before.memo_matched,
        reused: after.reused - before.reused,
        unrolls: after.unrolls - before.unrolls,
        fix_converged: after.fix_converged - before.fix_converged,
        cone_walks: after.cone_walks - before.cone_walks,
        cone_cells: after.cone_cells - before.cone_cells,
        transfers_compiled: after.transfers_compiled - before.transfers_compiled,
        transfers_interp: after.transfers_interp - before.transfers_interp,
    }
}

/// Measures [`ExplainFig10`] on the grown fig10 octagon workload. Both
/// captures have the accounting identity checked against the engine's
/// `QueryStats` delta before this returns — a report that disagrees
/// with the counters aborts the bench rather than recording fiction.
pub fn measure_explain() -> ExplainFig10 {
    use dai_engine::{Engine, EngineConfig, Request};
    let engine: Engine<OctagonDomain> = Engine::with_config(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = engine.open_session(
        "explain-bench".to_string(),
        crate::workload::Workload::initial_program(),
    );
    let defaults = DaigBenchParams::full();
    let mut gen = crate::workload::Workload::new(defaults.seed);
    for _ in 0..defaults.grow_edits {
        let program = engine.program_of(id).expect("session open");
        let edit: dai_core::driver::ProgramEdit = gen.next_edit(&program);
        engine
            .request(Request::Edit { session: id, edit })
            .expect("bench edit applies");
    }
    let program = engine.program_of(id).expect("session open");
    let mut targets: Vec<(String, dai_lang::Loc)> = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();

    let capture = |label: &str| {
        let before = engine.stats().query_stats;
        let report = engine.explain_sweep(id, &targets).expect("explain sweep");
        let delta = stats_delta(&engine.stats().query_stats, &before);
        report
            .check_accounting(&delta)
            .unwrap_or_else(|e| panic!("{label} explain capture is not accounting-exact: {e}"));
        report
    };
    let cold = capture("cold");
    let warm = capture("warm");
    ExplainFig10 { cold, warm }
}

/// Runs the end-to-end single-worker sweep `repeats` times under
/// `transfer`.
pub fn measure_throughput_mode(params: &DaigBenchParams, transfer: TransferMode) -> Throughput {
    let mut runs = Vec::with_capacity(params.repeats);
    let mut queries = 0;
    for _ in 0..params.repeats {
        let run = run_scaling(&ScalingParams {
            sessions: params.sessions,
            grow_edits: params.grow_edits,
            worker_counts: vec![1],
            seed: params.seed,
            transfer,
        });
        let p = run.points.first().expect("one point per sweep");
        queries = p.queries;
        runs.push(p.qps);
    }
    Throughput { queries, runs }
}

/// Runs the sweep under the default (compiled) warm path.
pub fn measure_throughput(params: &DaigBenchParams) -> Throughput {
    measure_throughput_mode(params, TransferMode::default())
}

/// Compiled and interpreted sweeps, measured **interleaved A/B** — one
/// compiled repeat then one interpreted repeat, `repeats` times — so
/// host noise (thermal drift, noisy neighbors) hits both series alike
/// and the ratio is meaningful.
pub fn measure_throughput_dual(params: &DaigBenchParams) -> (Throughput, Throughput) {
    let one = DaigBenchParams {
        repeats: 1,
        ..params.clone()
    };
    let mut compiled = Throughput {
        queries: 0,
        runs: Vec::with_capacity(params.repeats),
    };
    let mut interp = Throughput {
        queries: 0,
        runs: Vec::with_capacity(params.repeats),
    };
    for _ in 0..params.repeats {
        let c = measure_throughput_mode(&one, TransferMode::Compiled);
        compiled.queries = c.queries;
        compiled.runs.extend(c.runs);
        let i = measure_throughput_mode(&one, TransferMode::Interp);
        interp.queries = i.queries;
        interp.runs.extend(i.runs);
    }
    (compiled, interp)
}

/// Measures the representation micro-costs on the loopy reference
/// function.
pub fn measure_micro() -> MicroCosts {
    let cfg = lower_program(&parse_program(LOOPY).expect("loopy parses"))
        .expect("loopy lowers")
        .cfgs()[0]
        .clone();

    let iters = 400u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(dai_core::build::initial_daig::<OctagonDomain>(
            &cfg,
            OctagonDomain::top(),
        ));
    }
    let initial_daig_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // Cold demanded exit query (sequential evaluator).
    let cold_iters = 50u32;
    let mut unrolls = 0;
    let t0 = Instant::now();
    for _ in 0..cold_iters {
        let mut fa: FuncAnalysis<OctagonDomain> =
            FuncAnalysis::new(cfg.clone(), OctagonDomain::top());
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .expect("cold query succeeds");
        unrolls = stats.unrolls;
    }
    let cold_exit_query_ns = t0.elapsed().as_nanos() as f64 / cold_iters as f64;

    // Edit + requery round trip on a warm analysis.
    let mut fa: FuncAnalysis<OctagonDomain> = FuncAnalysis::new(cfg.clone(), OctagonDomain::top());
    let mut memo = MemoTable::new();
    let mut stats = QueryStats::default();
    fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
        .expect("warm-up query succeeds");
    let edit_edge = fa
        .cfg()
        .edges()
        .find(|e| e.stmt.to_string() == "s = (s + j)")
        .expect("edit target exists")
        .id;
    let edit_iters = 100u32;
    let t0 = Instant::now();
    for i in 0..edit_iters {
        let stmt = dai_lang::Stmt::Assign(
            "s".into(),
            dai_lang::parse_expr(&format!("s + j + {}", i % 2)).expect("expr parses"),
        );
        fa.relabel(edit_edge, stmt).expect("relabel succeeds");
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .expect("requery succeeds");
    }
    let edit_requery_ns = t0.elapsed().as_nanos() as f64 / edit_iters as f64;

    // Incrementality witness: one engine-side evaluation, however many
    // unrolls it takes, walks the cone once.
    let memo = dai_memo::SharedMemoTable::new(4);
    let mut fa: FuncAnalysis<OctagonDomain> = FuncAnalysis::new(cfg.clone(), OctagonDomain::top());
    let mut estats = QueryStats::default();
    let exit = dai_core::Name::State {
        loc: fa.cfg().exit(),
        ctx: dai_core::IterCtx::root(),
    };
    dai_engine::evaluate_targets(
        &mut fa,
        &[exit],
        &memo,
        &mut IntraResolver,
        &mut estats,
        None,
    )
    .expect("engine evaluation succeeds");

    MicroCosts {
        initial_daig_ns,
        cold_exit_query_ns,
        edit_requery_ns,
        unrolls,
        cone_walks: estats.cone_walks,
    }
}

/// Renders the JSON artifact. `transfer_dual` is the interleaved
/// (compiled, interpreted) sweep pair; `tmicro` the per-cell
/// transfer-application latencies.
#[allow(clippy::too_many_arguments)]
pub fn to_json(
    profile: &str,
    params: &DaigBenchParams,
    full: &Throughput,
    smoke: &Throughput,
    micro: &MicroCosts,
    transfer_dual: &(Throughput, Throughput),
    tmicro: &TransferMicro,
    tmicro_fig10: &TransferMicroFig10,
    explain: &ExplainFig10,
    before_file_qps: f64,
    before_remeasured_qps: Option<f64>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"daig_interned\",\n");
    out.push_str("  \"workload\": \"fig10_synthetic_octagon\",\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    out.push_str(&format!(
        "  \"sessions\": {}, \"grow_edits\": {}, \"seed\": {}, \"repeats\": {},\n",
        params.sessions, params.grow_edits, params.seed, params.repeats
    ));
    let runs = |t: &Throughput| {
        t.runs
            .iter()
            .map(|q| format!("{q:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str("  \"before\": {\n");
    out.push_str(&format!("    \"pr1_file_qps\": {before_file_qps:.1},\n"));
    match before_remeasured_qps {
        Some(q) => out.push_str(&format!(
            "    \"remeasured_qps_median\": {q:.1},\n    \"remeasured_how\": \"PR 1 binary rebuilt from its commit and interleaved A/B on this host\"\n"
        )),
        None => out.push_str("    \"remeasured_qps_median\": null\n"),
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"after\": {{\"workers\": 1, \"queries\": {}, \"qps_median\": {:.1}, \"qps_best\": {:.1}, \"runs\": [{}]}},\n",
        full.queries,
        full.median(),
        full.best(),
        runs(full)
    ));
    out.push_str(&format!(
        "  \"smoke\": {{\"queries\": {}, \"qps_median\": {:.1}, \"runs\": [{}]}},\n",
        smoke.queries,
        smoke.median(),
        runs(smoke)
    ));
    out.push_str(&format!(
        "  \"speedup_vs_pr1_file\": {:.2},\n",
        full.median() / before_file_qps
    ));
    if let Some(q) = before_remeasured_qps {
        out.push_str(&format!(
            "  \"speedup_vs_remeasured\": {:.2},\n",
            full.median() / q
        ));
    }
    let (compiled, interp) = transfer_dual;
    out.push_str("  \"transfer\": {\n");
    out.push_str(&format!(
        "    \"compiled_qps_median\": {:.1}, \"interp_qps_median\": {:.1}, \"compiled_speedup\": {:.2},\n",
        compiled.median(),
        interp.median(),
        compiled.median() / interp.median().max(1e-9)
    ));
    out.push_str(&format!(
        "    \"compiled_runs\": [{}], \"interp_runs\": [{}],\n",
        runs(compiled),
        runs(interp)
    ));
    out.push_str(&format!(
        "    \"measured_how\": \"single worker, fig10 octagon sweep, repeats interleaved A/B\",\n\
         \x20   \"micro\": {{\"compiled_ns\": {:.1}, \"interp_ns\": {:.1}, \"fused_ns_per_stmt\": {}, \"per_cell_speedup\": {:.2}, \"compiled_edges\": {}, \"interp_edges\": {}, \"fused_runs\": {}}},\n",
        tmicro.compiled_ns,
        tmicro.interp_ns,
        if tmicro.fused_ns_per_stmt.is_nan() {
            "null".to_string()
        } else {
            format!("{:.1}", tmicro.fused_ns_per_stmt)
        },
        tmicro.speedup(),
        tmicro.compiled_edges,
        tmicro.interp_edges,
        tmicro.fused_runs
    ));
    out.push_str(&format!(
        "    \"micro_fig10\": {{\"compiled_ns\": {:.1}, \"interp_ns\": {:.1}, \"per_cell_speedup\": {:.2}, \"staged_edges\": {}, \"unstaged_edges\": {}}}\n",
        tmicro_fig10.compiled_ns,
        tmicro_fig10.interp_ns,
        tmicro_fig10.per_cell_ratio,
        tmicro_fig10.staged_edges,
        tmicro_fig10.unstaged_edges
    ));
    out.push_str("  },\n");
    let report_json = |r: &ExplainReport| {
        format!(
            "{{\"cells\": {}, \"computed\": {}, \"memo_matched\": {}, \"reused\": {}, \
             \"fixes\": {}, \"unrolls\": {}, \"work_ns\": {}, \"span_ns\": {}, \
             \"work_span_parallelism\": {:.2}, \"lock_wait_ns\": {}, \"lock_held_ns\": {}, \
             \"eval_ns\": {}}}",
            r.cells.len(),
            r.outcome_cells(CellOutcome::Computed),
            r.outcome_cells(CellOutcome::MemoMatched),
            r.outcome_cells(CellOutcome::Reused),
            r.fixes.len(),
            r.unrolls(),
            r.work_ns,
            r.span_ns,
            r.parallelism(),
            r.lock_wait_ns,
            r.lock_held_ns,
            r.eval_ns
        )
    };
    out.push_str(&format!(
        "  \"explain\": {{\n    \"domain\": \"{}\", \"transfer\": \"{}\", \"accounting\": \"exact\",\n",
        explain.cold.domain, explain.cold.transfer
    ));
    out.push_str(&format!(
        "    \"cold\": {},\n    \"warm\": {}\n  }},\n",
        report_json(&explain.cold),
        report_json(&explain.warm)
    ));
    out.push_str(&format!(
        "  \"micro\": {{\"initial_daig_ns\": {:.0}, \"cold_exit_query_ns\": {:.0}, \"edit_requery_ns\": {:.0}, \"unrolls\": {}, \"cone_walks\": {}}}\n",
        micro.initial_daig_ns,
        micro.cold_exit_query_ns,
        micro.edit_requery_ns,
        micro.unrolls,
        micro.cone_walks
    ));
    out.push_str("}\n");
    out
}

/// Fields the CI check requires in a committed `BENCH_daig.json`, paired
/// with the smoke-point extractor. Returns the committed smoke median.
///
/// # Errors
///
/// A human-readable description of the first missing field.
pub fn validate_artifact(json: &str) -> Result<f64, String> {
    for field in [
        "\"bench\"",
        "\"workload\"",
        "\"before\"",
        "\"after\"",
        "\"smoke\"",
        "\"qps_median\"",
        "\"speedup_vs_pr1_file\"",
        "\"transfer\"",
        "\"compiled_qps_median\"",
        "\"interp_qps_median\"",
        "\"micro_fig10\"",
        "\"explain\"",
        "\"work_span_parallelism\"",
        "\"micro\"",
        "\"cone_walks\"",
    ] {
        if !json.contains(field) {
            return Err(format!("BENCH_daig.json is missing field {field}"));
        }
    }
    // Extract the smoke median: the `"qps_median"` inside the "smoke"
    // object (the artifact is written by `to_json`, so plain scanning is
    // reliable).
    let smoke_at = json
        .find("\"smoke\"")
        .ok_or_else(|| "missing smoke section".to_string())?;
    let tail = &json[smoke_at..];
    let key = "\"qps_median\": ";
    let at = tail
        .find(key)
        .ok_or_else(|| "smoke section lacks qps_median".to_string())?;
    let rest = &tail[at + key.len()..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| "malformed smoke qps_median".to_string())?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("smoke qps_median is not a number: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_measures_and_serializes() {
        let params = DaigBenchParams {
            sessions: 1,
            grow_edits: 2,
            seed: 7,
            repeats: 2,
        };
        let t = measure_throughput(&params);
        assert_eq!(t.runs.len(), 2);
        assert!(t.median() > 0.0);
        assert!(t.best() >= t.median());
        let micro = measure_micro();
        assert!(micro.initial_daig_ns > 0.0);
        assert!(micro.unrolls >= 2, "loopy function must unroll");
        assert_eq!(micro.cone_walks, 1, "cone traversed once despite unrolls");
        let tmicro = measure_transfer_micro();
        assert!(tmicro.compiled_ns > 0.0 && tmicro.interp_ns > 0.0);
        assert!(tmicro.compiled_edges > 0, "loopy edges stage under octagon");
        let tmicro_fig10 = measure_transfer_micro_fig10();
        assert!(tmicro_fig10.compiled_ns > 0.0 && tmicro_fig10.interp_ns > 0.0);
        assert!(tmicro_fig10.staged_edges > 0, "fig10 edges stage");
        let dual = measure_throughput_dual(&DaigBenchParams {
            repeats: 1,
            ..params.clone()
        });
        assert_eq!(dual.0.runs.len(), 1);
        assert_eq!(dual.1.runs.len(), 1);
        // Both modes answer the identical sweep.
        assert_eq!(dual.0.queries, dual.1.queries);
        // Explain: accounting identity is checked inside measure_explain;
        // here the structural shape of the two captures.
        let explain = measure_explain();
        assert!(!explain.cold.cells.is_empty(), "cold cone has cells");
        assert!(explain.cold.parallelism() >= 1.0, "span never exceeds work");
        assert!(
            explain.cold.outcome_cells(CellOutcome::Computed) > 0,
            "a cold sweep computes"
        );
        assert_eq!(
            explain.warm.outcome_cells(CellOutcome::Computed),
            0,
            "a warm re-sweep recomputes nothing"
        );
        let json = to_json(
            "smoke",
            &params,
            &t,
            &t,
            &micro,
            &dual,
            &tmicro,
            &tmicro_fig10,
            &explain,
            55697.9,
            Some(45991.0),
        );
        let committed_median = validate_artifact(&json).expect("artifact validates");
        // The artifact rounds to one decimal place.
        assert!((committed_median - t.median()).abs() <= 0.05 + 1e-9);
    }

    #[test]
    fn validate_rejects_missing_fields() {
        assert!(validate_artifact("{}").is_err());
        assert!(validate_artifact("{\"bench\": 1}").is_err());
    }
}
