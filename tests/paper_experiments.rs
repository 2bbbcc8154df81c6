//! End-to-end checks that the paper's evaluation artifacts regenerate with
//! the reported *shape*:
//!
//! * E1–E3 (Fig. 10): the latency ordering batch > incremental >
//!   demand-driven > incremental+demand-driven holds on the synthetic
//!   workload, with the combined configuration best at the tail;
//! * E4 (§7.2 intervals): the context-sensitivity precision gradient;
//! * E5 (§7.2 shapes): list procedures verify; append needs one unrolling.

use dai_bench::buckets::run_buckets;
use dai_bench::harness::{run_fig10, summarize, Fig10Params};
use dai_bench::lists::check_procedure;
use dai_core::driver::Config;
use dai_core::interproc::ContextPolicy;

#[test]
fn fig10_latency_ordering_holds() {
    // Small but meaningful run: 60 edits x 2 trials, 3 queries per edit.
    let params = Fig10Params {
        edits: 60,
        trials: 2,
        queries_per_edit: 3,
    };
    let samples = run_fig10(params);
    let rows = summarize(&samples);
    let mean_of = |c: Config| {
        rows.iter()
            .find(|r| r.config == c)
            .expect("config present")
            .mean
    };
    let p95_of = |c: Config| {
        rows.iter()
            .find(|r| r.config == c)
            .expect("config present")
            .p95
    };
    // The paper's headline ordering (Fig. 10 table).
    assert!(
        mean_of(Config::Batch) > mean_of(Config::Incremental),
        "batch {:?} vs incr {:?}",
        mean_of(Config::Batch),
        mean_of(Config::Incremental)
    );
    assert!(
        mean_of(Config::Incremental) > mean_of(Config::IncrementalDemandDriven),
        "incr {:?} vs incr+dd {:?}",
        mean_of(Config::Incremental),
        mean_of(Config::IncrementalDemandDriven)
    );
    assert!(
        mean_of(Config::DemandDriven) > mean_of(Config::IncrementalDemandDriven),
        "dd {:?} vs incr+dd {:?}",
        mean_of(Config::DemandDriven),
        mean_of(Config::IncrementalDemandDriven)
    );
    // Tail latency: the combined configuration wins there too.
    assert!(p95_of(Config::IncrementalDemandDriven) <= p95_of(Config::Batch));
    assert!(p95_of(Config::IncrementalDemandDriven) <= p95_of(Config::DemandDriven));
}

#[test]
fn buckets_context_sensitivity_gradient() {
    let k0 = run_buckets(ContextPolicy::Insensitive);
    let k1 = run_buckets(ContextPolicy::CallString(1));
    let k2 = run_buckets(ContextPolicy::CallString(2));
    // Paper: 4/18 (22%) -> 71/74 (96%) -> 85/85 (100%).
    assert_eq!(k2.verified, k2.total, "k=2 verifies everything: {k2:?}");
    assert!(
        k1.ratio() > 0.85 && k1.verified < k1.total,
        "k=1 near-complete: {k1:?}"
    );
    assert!(
        k0.ratio() < 0.5 && k0.verified > 0,
        "k=0 mostly fails: {k0:?}"
    );
    assert!(
        k0.total < k1.total && k1.total <= k2.total,
        "context multiplication"
    );
}

#[test]
fn shape_verification_results() {
    let append = check_procedure("append", true);
    assert!(append.memory_safe);
    assert_eq!(append.returns_list, Some(true));
    assert_eq!(
        append.unrollings, 1,
        "paper: one demanded unrolling: {append:?}"
    );
    for name in ["foreach", "cons", "tail"] {
        let c = check_procedure(name, true);
        assert!(c.memory_safe, "{c:?}");
        assert_eq!(c.returns_list, Some(true), "{c:?}");
    }
    let idx = check_procedure("indexof", false);
    assert!(idx.memory_safe, "{idx:?}");
}
