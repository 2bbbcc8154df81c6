//! The metric lists, and `BENCHMARK.json` rendered from them.
//!
//! `BENCHMARK.json` at the repository root is the output of
//! `run.sh --manifest`; a unit test fails if the two drift apart, so the
//! names the runs print and the names the manifest promises are one list.

use crate::workloads::SPECS;
use std::fmt::Write as _;

/// How long one run measures (`--seconds`), in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 10;

/// End-to-end metrics: name, unit, better, bound (the share of the
/// parent's median by which a later PR may worsen it). Every bound is the
/// largest the contract allows: on the recording host the quartile spread
/// over ten seeds reaches 10–14% for the edit tails and for the concurrent
/// workload's query metrics (`README.md`, "Steadiness"), and a bound has to
/// sit well clear of that to tell a regression from the host.
pub const END_TO_END: [(&str, &str, &str, f64); 10] = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("query_mean_us", "us", "lower", 0.25),
    ("query_p50_us", "us", "lower", 0.25),
    ("query_p95_us", "us", "lower", 0.25),
    ("query_p99_us", "us", "lower", 0.25),
    ("edit_p50_us", "us", "lower", 0.25),
    ("edit_p95_us", "us", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
];

/// Per-layer metrics: name, unit, better. Informational, no bound.
pub const PER_LAYER: [(&str, &str, &str); 84] = [
    ("lang.parse_lower_us", "us", "lower"),
    ("lang.source_bytes", "count", "lower"),
    ("lang.cfg_edges", "count", "lower"),
    ("lang.edit_apply_us", "us", "lower"),
    ("lang.self_share", "share", "lower"),
    ("domains.transfer_calls", "count", "lower"),
    ("domains.transfer_us", "us", "lower"),
    ("domains.join_calls", "count", "lower"),
    ("domains.join_us", "us", "lower"),
    ("domains.widen_calls", "count", "lower"),
    ("domains.widen_us", "us", "lower"),
    ("domains.leq_calls", "count", "lower"),
    ("domains.leq_us", "us", "lower"),
    ("domains.clone_calls", "count", "lower"),
    ("domains.clone_us", "us", "lower"),
    ("domains.eq_hash_calls", "count", "lower"),
    ("domains.eq_hash_us", "us", "lower"),
    ("domains.call_bind_calls", "count", "lower"),
    ("domains.call_bind_us", "us", "lower"),
    ("domains.busy_share", "share", "lower"),
    ("memo.fetch_calls", "count", "lower"),
    ("memo.fetch_us", "us", "lower"),
    ("memo.record_calls", "count", "lower"),
    ("memo.record_us", "us", "lower"),
    ("memo.hit_rate", "share", "higher"),
    ("memo.insertions", "count", "lower"),
    ("memo.evictions", "count", "lower"),
    ("memo.self_share", "share", "lower"),
    ("core.query_us", "us", "lower"),
    ("core.edit_us", "us", "lower"),
    ("core.self_share", "share", "lower"),
    ("core.cells_computed", "count", "lower"),
    ("core.cells_memo_matched", "count", "higher"),
    ("core.cells_reused", "count", "higher"),
    ("core.recompute_ratio", "share", "lower"),
    ("core.unrolls", "count", "lower"),
    ("core.fix_converged", "count", "lower"),
    ("core.cone_cells", "count", "lower"),
    ("core.transfers_compiled", "count", "higher"),
    ("core.transfers_interp", "count", "lower"),
    ("core.batch_oracle_ms", "ms", "lower"),
    ("engine.query_self_us", "us", "lower"),
    ("engine.edit_self_us", "us", "lower"),
    ("engine.sweep_us", "us", "lower"),
    ("engine.self_share", "share", "lower"),
    ("engine.session_locks", "count", "lower"),
    ("engine.batches", "count", "lower"),
    ("engine.coalesced_share", "share", "higher"),
    ("engine.union_cone_cells", "count", "lower"),
    ("engine.union_cone_walks", "count", "lower"),
    ("engine.memo_hit_rate", "share", "higher"),
    ("rpc.query_self_us", "us", "lower"),
    ("rpc.edit_self_us", "us", "lower"),
    ("rpc.sweep_self_us", "us", "lower"),
    ("rpc.pipeline_burst_us", "us", "lower"),
    ("rpc.request_encode_us", "us", "lower"),
    ("rpc.response_decode_us", "us", "lower"),
    ("rpc.bytes_per_query", "count", "lower"),
    ("rpc.self_share", "share", "lower"),
    ("persist.state_encode_us", "us", "lower"),
    ("persist.state_decode_us", "us", "lower"),
    ("persist.state_bytes", "count", "lower"),
    ("persist.snapshot_save_ms", "ms", "lower"),
    ("persist.snapshot_load_ms", "ms", "lower"),
    ("persist.snapshot_bytes", "count", "lower"),
    ("persist.self_share", "share", "lower"),
    ("journal.append_us", "us", "lower"),
    ("journal.bytes_per_edit", "count", "lower"),
    ("journal.frames", "count", "lower"),
    ("journal.file_bytes", "count", "lower"),
    ("journal.self_share", "share", "lower"),
    ("journal.compact_ms", "ms", "lower"),
    ("journal.recover_ms", "ms", "lower"),
    ("journal.replica_catchup_ms", "ms", "lower"),
    ("trace.probe_overhead_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("trace.spans_dropped", "count", "lower"),
    ("proc.first_rep_ratio", "ratio", "lower"),
    ("proc.sys_cpu_share", "share", "lower"),
    ("proc.minor_faults_per_op", "1/op", "lower"),
    ("proc.ctx_switches_per_op", "1/op", "lower"),
    ("check.failed_share", "share", "lower"),
    ("check.answers_checked", "count", "higher"),
    ("check.from_scratch_mismatches", "count", "lower"),
];

/// A finite JSON number with all its digits.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// `BENCHMARK.json`, exactly the keys the contract prescribes.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, spec) in SPECS.iter().enumerate() {
        let sep = if i + 1 == SPECS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            spec.name, spec.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {bound}}}{sep}"
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}
