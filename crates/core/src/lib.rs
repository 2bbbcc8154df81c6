//! # dai-core — demanded abstract interpretation graphs
//!
//! A Rust reproduction of *Demanded Abstract Interpretation* (Stein, Chang,
//! Sridharan — PLDI 2021): a framework that makes an **arbitrary** abstract
//! interpretation both **incremental** and **demand-driven** by reifying
//! the analysis of a program into a *demanded abstract interpretation
//! graph* (DAIG) — an acyclic dependency hypergraph whose vertices are
//! named reference cells holding program statements and abstract states,
//! and whose hyperedges are the analysis computations (`⟦·⟧♯`, `⊔`, `∇`,
//! and the distinguished `fix`).
//!
//! * [`name`] — the cell naming scheme (paper Fig. 6), generalized with
//!   per-loop iteration contexts for nested loops;
//! * [`intern`] — dense [`CellId`]s for names: every name is interned
//!   once, and all graph state is id-indexed (ids survive removal and
//!   resurrect on re-unroll, so external id-keyed state never dangles);
//! * [`graph`] — cells, computations, and Definition 4.1 well-formedness,
//!   over a `CellId` slot arena with flat adjacency, structural epochs,
//!   and per-cell content digests (see the module docs for the
//!   Name ↔ CellId lifecycle);
//! * [`build`] — `Dinit` (Appendix A) and the loop-region builder shared
//!   by demanded unrolling and rollback;
//! * [`compile`] — the staged-transfer table: per-edge compiled closures
//!   (from `dai_domains::compile`) with digest-guarded lookup and fused
//!   straight-line runs;
//! * [`query`] — the Fig. 8 operational semantics (`Q-Reuse`, `Q-Match`,
//!   `Q-Miss`, `Q-Loop-Converge`, `Q-Loop-Unroll`) with an auxiliary memo
//!   table from `dai-memo`;
//! * [`edit`] — the Fig. 9 edit semantics (`E-Commit`, `E-Propagate`,
//!   `E-Loop`);
//! * [`analysis`] — a function's CFG + DAIG with program edits and
//!   fixed-point-consistent location queries;
//! * [`interproc`] — the interprocedural analyzer (paper §7.1): one DAIG
//!   per `(function, context)` built on demand, context-sensitivity
//!   policies, callee entries as joined `φ₀` edits, and one edit rule that
//!   keeps a session from-scratch consistent;
//! * [`batch`] — an independent reference batch interpreter used as the
//!   from-scratch-consistency oracle (Theorem 6.1);
//! * [`consistency`] — executable Definition 4.2 / 4.3 checkers;
//! * [`driver`] — the four evaluation configurations of §7.3;
//! * [`strategy`] — widening schedules and `⊑`-based convergence (the
//!   alternatives footnote 4 alludes to);
//! * [`dot`] — Graphviz export of DAIGs (renders the paper's Figs. 3/4).
//!
//! ## Quickstart
//!
//! ```
//! use dai_core::analysis::FuncAnalysis;
//! use dai_core::query::{IntraResolver, QueryStats};
//! use dai_domains::IntervalDomain;
//! use dai_memo::MemoTable;
//!
//! let program = dai_lang::parse_program(
//!     "function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }",
//! )?;
//! let cfg = dai_lang::cfg::lower_program(&program)?.cfgs()[0].clone();
//! let mut analysis = FuncAnalysis::new(cfg, IntervalDomain::top());
//! let mut memo = MemoTable::new();
//! let mut stats = QueryStats::default();
//! let exit = analysis.query_exit(&mut memo, &mut IntraResolver, &mut stats)?;
//! assert!(exit.interval_of("i").contains(10));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod batch;
pub mod build;
pub mod compile;
pub mod consistency;
pub mod dot;
pub mod driver;
pub mod edit;
pub mod explain;
pub mod graph;
pub mod intern;
pub mod interproc;
pub mod name;
pub mod query;
pub mod strategy;

pub use analysis::{resolve_loc_cell, FuncAnalysis};
pub use compile::{FusedRun, TransferMode, TransferTable};
pub use driver::{Config, Driver, ProgramEdit};
pub use explain::{CellCost, CellOutcome, ExplainReport, ExplainSink, FixCost};
pub use graph::{Daig, DaigError, Func, Value};
pub use intern::{CellId, NameInterner};
pub use interproc::{Context, ContextPolicy, InterAnalyzer};
pub use name::{IterCtx, Name};
pub use query::{CallInput, CallResolver, IntraResolver, QueryStats};
pub use strategy::{Convergence, FixStrategy};
