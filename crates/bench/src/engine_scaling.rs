//! Engine worker-pool scaling on the §7.3 workload.
//!
//! Measures end-to-end query throughput (queries/second) of
//! [`dai_engine::Engine`] at several worker counts over the Fig. 10
//! synthetic workload: a fleet of sessions, each holding the workload
//! program grown by a stream of random edits, is swept with a full
//! (function × location) query load submitted through the concurrent
//! request stream. Sessions are independent, so the engine can serve them
//! in parallel; within a session one thread evaluates each query.
//!
//! Interpreting the numbers: scaling is bounded by the hardware — on a
//! single-CPU host every worker count measures the same serial machine
//! (speedup ≈ 1.0×), so baselines recorded by the `engine_scaling` binary
//! embed `available_parallelism` alongside the throughput points.

use dai_core::driver::ProgramEdit;
use dai_core::TransferMode;
use dai_domains::OctagonDomain;
use dai_engine::{Engine, EngineConfig, Request, SessionId, Ticket};
use dai_lang::Loc;
use std::time::{Duration, Instant};

use crate::workload::Workload;

/// Parameters of a scaling run.
#[derive(Debug, Clone)]
pub struct ScalingParams {
    /// Independent sessions to open (the cross-session parallelism axis).
    pub sessions: usize,
    /// Random edits growing each session's program before measurement.
    pub grow_edits: usize,
    /// Worker counts to measure.
    pub worker_counts: Vec<usize>,
    /// Base seed; session `i` uses `seed + i`.
    pub seed: u64,
    /// How transfer edges evaluate (staged closures vs the interpreter).
    pub transfer: TransferMode,
}

impl Default for ScalingParams {
    fn default() -> ScalingParams {
        ScalingParams {
            sessions: 8,
            grow_edits: 40,
            worker_counts: vec![1, 2, 4, 8],
            seed: 0x5CA1E,
            transfer: TransferMode::default(),
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Worker threads.
    pub workers: usize,
    /// Queries served.
    pub queries: usize,
    /// Wall-clock time for the whole sweep.
    pub elapsed: Duration,
    /// Queries per second.
    pub qps: f64,
}

/// A whole sweep plus its hardware provenance, captured **at measurement
/// time** (`available_parallelism` when the sweep ran, not when an
/// artifact is later serialized) — scaling numbers without the CPU count
/// that produced them are meaningless, and PR 1's baseline proved it:
/// recorded on a 1-CPU container, its flat speedup says nothing about the
/// engine.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// `available_parallelism` observed when the sweep started.
    pub host_cpus: usize,
    /// One point per requested worker count, in request order.
    pub points: Vec<ScalingPoint>,
}

/// Runs the sweep at every requested worker count.
pub fn run_scaling(params: &ScalingParams) -> ScalingRun {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    ScalingRun {
        host_cpus,
        points: params
            .worker_counts
            .iter()
            .map(|&workers| run_at(workers, params))
            .collect(),
    }
}

/// The scaling sanity gate: on a multi-core host, adding workers must not
/// tank throughput (best multi-worker point ≥ `MIN_MULTI_WORKER_SPEEDUP` ×
/// the 1-worker point — a regression canary, deliberately lenient for
/// noisy shared runners, not a parallel-speedup target). On a single-CPU
/// host every worker count measures the same serial machine, so the
/// assertion is **skipped** (`Ok(Some(reason))`).
///
/// # Errors
///
/// A human-readable description of the violated expectation.
pub fn flat_scaling_check(run: &ScalingRun) -> Result<Option<String>, String> {
    if run.host_cpus <= 1 {
        return Ok(Some(format!(
            "flat-scaling assertion skipped: host_cpus == {} (worker scaling \
             is necessarily flat on a serial machine)",
            run.host_cpus
        )));
    }
    let base = speedup_base(&run.points);
    let best_multi = run
        .points
        .iter()
        .filter(|p| p.workers > 1)
        .map(|p| p.qps)
        .fold(f64::NAN, f64::max);
    if best_multi.is_nan() {
        return Ok(Some(
            "flat-scaling assertion skipped: sweep has no multi-worker point".to_string(),
        ));
    }
    let speedup = best_multi / base.max(1e-9);
    if speedup < MIN_MULTI_WORKER_SPEEDUP {
        return Err(format!(
            "multi-worker throughput collapsed on a {}-CPU host: best multi-worker \
             speedup {speedup:.2}x < {MIN_MULTI_WORKER_SPEEDUP}x floor",
            run.host_cpus
        ));
    }
    Ok(None)
}

/// Floor for [`flat_scaling_check`] on multi-core hosts.
pub const MIN_MULTI_WORKER_SPEEDUP: f64 = 0.8;

fn run_at(workers: usize, params: &ScalingParams) -> ScalingPoint {
    let engine: Engine<OctagonDomain> = Engine::with_config(EngineConfig {
        workers,
        transfer: params.transfer,
        ..EngineConfig::default()
    });
    let sessions: Vec<SessionId> = (0..params.sessions)
        .map(|i| {
            let id = engine.open_session(format!("bench-{i}"), Workload::initial_program());
            grow(&engine, id, params.seed + i as u64, params.grow_edits);
            id
        })
        .collect();
    // The measured load: every (function, location) of every session,
    // interleaved round-robin across sessions so independent work is
    // available from the first request on.
    let mut per_session: Vec<Vec<(String, Loc)>> = sessions
        .iter()
        .map(|&s| {
            let program = engine.program_of(s).expect("session open");
            let mut targets = Vec::new();
            for cfg in program.cfgs() {
                for loc in cfg.locs() {
                    targets.push((cfg.name().to_string(), loc));
                }
            }
            targets
        })
        .collect();
    let mut load: Vec<(SessionId, String, Loc)> = Vec::new();
    loop {
        let mut emitted = false;
        for (i, targets) in per_session.iter_mut().enumerate() {
            if let Some((f, loc)) = targets.pop() {
                load.push((sessions[i], f, loc));
                emitted = true;
            }
        }
        if !emitted {
            break;
        }
    }

    let t0 = Instant::now();
    let tickets: Vec<Ticket<OctagonDomain>> = load
        .iter()
        .map(|(s, f, loc)| {
            engine.submit(Request::Query {
                session: *s,
                func: f.clone(),
                loc: *loc,
            })
        })
        .collect();
    Ticket::wait_all(tickets).expect("bench queries succeed");
    let elapsed = t0.elapsed();
    ScalingPoint {
        workers,
        queries: load.len(),
        elapsed,
        qps: load.len() as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// Grows a session's program with the §7.3 edit mix (applied through the
/// engine so the DAIGs are edited incrementally, not rebuilt).
fn grow(engine: &Engine<OctagonDomain>, session: SessionId, seed: u64, edits: usize) {
    let mut gen = Workload::new(seed);
    for _ in 0..edits {
        let program = engine.program_of(session).expect("session open");
        let edit: ProgramEdit = gen.next_edit(&program);
        engine
            .request(Request::Edit { session, edit })
            .expect("bench edit applies");
    }
}

/// Renders points as an aligned table with speedups relative to the
/// 1-worker point (first point if the sweep has no 1-worker entry).
pub fn format_points(points: &[ScalingPoint]) -> String {
    let base = speedup_base(points);
    let mut out = String::from("engine_scaling (Fig. 10 workload, octagon)\n");
    out.push_str(&format!(
        "{:>8} {:>9} {:>12} {:>12} {:>9}\n",
        "workers", "queries", "elapsed", "queries/s", "speedup"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>8} {:>9} {:>12.3?} {:>12.1} {:>8.2}x\n",
            p.workers,
            p.queries,
            p.elapsed,
            p.qps,
            p.qps / base.max(1e-9),
        ));
    }
    out
}

/// The qps denominator for speedup columns: the 1-worker point when the
/// sweep contains one (regardless of its position in the list), else the
/// first point.
pub fn speedup_base(points: &[ScalingPoint]) -> f64 {
    points
        .iter()
        .find(|p| p.workers == 1)
        .or(points.first())
        .map(|p| p.qps)
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_points_and_serves_all_queries() {
        let params = ScalingParams {
            sessions: 2,
            grow_edits: 4,
            worker_counts: vec![1, 2],
            seed: 7,
            transfer: TransferMode::default(),
        };
        let run = run_scaling(&params);
        assert!(
            run.host_cpus >= 1,
            "provenance captured at measurement time"
        );
        let points = &run.points;
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].workers, 1);
        assert_eq!(points[1].workers, 2);
        // Both counts answer the identical query load.
        assert_eq!(points[0].queries, points[1].queries);
        assert!(points[0].queries > 10);
        assert!(points[0].qps > 0.0);
        let table = format_points(points);
        assert!(table.contains("speedup"));
    }

    #[test]
    fn flat_scaling_check_skips_on_one_cpu_and_gates_on_many() {
        let point = |workers, qps| ScalingPoint {
            workers,
            queries: 100,
            elapsed: Duration::from_millis(10),
            qps,
        };
        // 1-CPU host: always skipped, regardless of how flat the points
        // are.
        let serial = ScalingRun {
            host_cpus: 1,
            points: vec![point(1, 100.0), point(4, 40.0)],
        };
        let skip = flat_scaling_check(&serial).unwrap();
        assert!(skip.is_some_and(|m| m.contains("host_cpus == 1")));
        // Multi-core host: a collapse fails, healthy scaling passes.
        let collapsed = ScalingRun {
            host_cpus: 4,
            points: vec![point(1, 100.0), point(4, 40.0)],
        };
        assert!(flat_scaling_check(&collapsed).is_err());
        let healthy = ScalingRun {
            host_cpus: 4,
            points: vec![point(1, 100.0), point(4, 250.0)],
        };
        assert_eq!(flat_scaling_check(&healthy).unwrap(), None);
        // No multi-worker point: nothing to assert.
        let single = ScalingRun {
            host_cpus: 4,
            points: vec![point(1, 100.0)],
        };
        assert!(flat_scaling_check(&single).unwrap().is_some());
    }
}
