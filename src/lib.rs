//! # dai — Demanded Abstract Interpretation, in Rust
//!
//! Umbrella crate for the reproduction of *Demanded Abstract
//! Interpretation* (Stein, Chang, Sridharan — PLDI 2021). Re-exports the
//! workspace crates:
//!
//! * [`lang`] (`dai-lang`) — the subject language: AST, parser,
//!   control-flow graphs, concrete semantics, program edits;
//! * [`domains`] (`dai-domains`) — interval, octagon, and separation-logic
//!   shape abstract domains;
//! * [`memo`] (`dai-memo`) — the auxiliary memoization table `M`;
//! * [`core`] (`dai-core`) — demanded abstract interpretation graphs:
//!   construction, query/edit semantics, demanded unrolling,
//!   interprocedural contexts, and the four analysis configurations;
//! * [`engine`] (`dai-engine`) — the concurrent, multi-session analysis
//!   engine (see below);
//! * [`bench`](mod@bench) (`dai-bench`) — the paper's evaluation workloads and
//!   harnesses.
//!
//! `crates/README.md` maps how the crates compose. The `examples/`
//! directory contains runnable walkthroughs, starting with
//! `cargo run --example quickstart` (and `engine_concurrent` for the
//! engine).
//!
//! # Architecture: the engine
//!
//! `dai-engine` grows the single-threaded library into a long-lived
//! service. Its layering, bottom to top:
//!
//! ```text
//!   requests:  Query{func,loc} · Edit(ProgramEdit) · Snapshot · Stats
//!      │                (engine::Engine — request stream, tickets)
//!      ▼
//!   sessions:  Mutex<Session> per client — a LoweredProgram plus one
//!              FuncAnalysis (CFG + DAIG) per function, built on demand
//!      │                (session::Session — serialize per session,
//!      ▼                 parallel across sessions: one worker each)
//!   evaluator: the union demanded cone of a batch of queries, walked
//!              in demand order on the worker that holds the session
//!              lock: a cell is applied once its inputs are filled; fix
//!              edges converge or unroll
//!      │                (dai-core: FuncAnalysis::evaluate, the one
//!      ▼                 implementation of the Fig. 8 rules)
//!   substrate: SharedMemoTable (dai-memo): sharded, lock-per-shard,
//!              shared by all sessions
//! ```
//!
//! Three properties make this a faithful extension of the paper rather
//! than a bolt-on:
//!
//! 1. **One thread per query.** A whole batch of queries against one
//!    function shares one union cone, evaluated by the one worker
//!    serving its request; `workers` is how many sessions are served at
//!    once.
//! 2. **One evaluator.** Every query path — the library, the
//!    interprocedural layer and the engine — demands cells through
//!    `dai_core::FuncAnalysis::evaluate`, and a batch applies cells in
//!    exactly the order sequential per-target queries would, so engine
//!    answers are bit-identical to sequential answers — and therefore to
//!    the from-scratch batch oracle (Theorem 6.1). The
//!    `engine_consistency` suite checks this for 1..=8 workers over
//!    randomized edit/query interleavings.
//! 3. **Content-addressed sharing.** The shared memo table is keyed by
//!    hashes of computation inputs (paper §2.1, "names are hashes,
//!    essentially"), so cross-session and cross-thread reuse can only
//!    ever substitute equal values, and dropping entries under capacity
//!    pressure is always sound (§2.2).
//!
//! Throughput is measured by the one benchmark under `benchmark/`
//! (`bash benchmark/run.sh`; `durable_multi_session` is the workload with
//! concurrent clients and `workers: 2`, and `engine.query_self_us`,
//! `engine.session_locks` and `engine.coalesced_share` are the engine's
//! per-layer metrics); a result that depends on threads is only as good
//! as the core count of the host it was taken on.

pub use dai_bench as bench;
pub use dai_core as core;
pub use dai_domains as domains;
pub use dai_engine as engine;
pub use dai_lang as lang;
pub use dai_memo as memo;
