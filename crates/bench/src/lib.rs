//! # dai-bench — the paper's experiments and the workload generator
//!
//! Reproduces the evaluation of *Demanded Abstract Interpretation*
//! (PLDI 2021):
//!
//! * [`workload`] — the §7.3 synthetic workload: random edit streams
//!   (85% statement / 10% `if` / 5% `while` insertions, expressions
//!   sampled from the grammar) interleaved with random queries; the
//!   differential suites under `tests/` draw their programs from it;
//! * [`harness`] — the Fig. 10 measurement pipeline over the four driver
//!   configurations, producing the scatter series, the latency CDF, and
//!   the summary statistics table (`fig10` binary);
//! * [`buckets`] — the §7.2 interval / context-sensitivity experiment on
//!   ports of the Buckets.js array functions, one row per context policy
//!   of `dai_core::InterAnalyzer` (`interval_buckets`);
//! * [`lists`] — the §7.2 shape-analysis experiment (Fig. 1 `append` and
//!   linked-list utilities; `shape_lists`).
//!
//! These are the paper's figures, not this repository's performance
//! record. Throughput, latency, memory and the per-layer budgets of the
//! engine, wire, snapshot and journal layers are measured by the one
//! benchmark under `benchmark/` (`bash benchmark/run.sh`, five workloads,
//! contract in `BENCHMARK.json`); the count invariants of those layers
//! (locks per batch, cells recomputed after a restore, follower
//! byte-equality) are asserted by the suites under
//! `tests/`.

pub mod buckets;
pub mod harness;
pub mod lists;
pub mod workload;
