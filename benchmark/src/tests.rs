//! Unit tests that span modules: script determinism, probe bit-identity,
//! and the files that must agree with the code that generates them.

use crate::exec::{replay, Rung};
use crate::gen::source_programs;
use crate::ladder::CoreBackend;
use crate::probe::{self, ProbeDomain};
use crate::workloads::{script, DomainKind, Spec, FULL, SMOKE, SPECS};
use crate::{manifest, DEFAULT_SEED};
use dai_domains::{IntervalDomain, OctagonDomain};
use dai_persist::PersistDomain;
use std::path::Path;

#[test]
fn same_seed_same_script_other_seed_other_script() {
    for spec in &SPECS {
        let a = script(spec, 7, &SMOKE);
        let b = script(spec, 7, &SMOKE);
        let c = script(spec, 8, &SMOKE);
        assert_eq!(a.digest, b.digest, "{}: seed 7 twice", spec.name);
        assert_eq!(a.op_count(), b.op_count(), "{}", spec.name);
        assert_ne!(a.digest, c.digest, "{}: seeds 7 and 8", spec.name);
        // Seeds change labels, never sizes: counts must repeat exactly.
        assert_eq!(a.op_count(), c.op_count(), "{}", spec.name);
    }
}

#[test]
fn frozen_scripts_have_not_moved() {
    for (spec, &(name, digest, ops)) in SPECS.iter().zip(&crate::workloads::FROZEN) {
        assert_eq!(spec.name, name);
        let s = script(spec, DEFAULT_SEED, &FULL);
        assert_eq!(
            (s.digest, s.op_count()),
            (digest, ops),
            "{name}: regenerated script differs from the frozen one \
             (got digest {:#018x}, {} ops)",
            s.digest,
            s.op_count()
        );
    }
}

/// Digests of one script on the core rung with and without the probes.
fn core_digests<D: PersistDomain>(spec: &Spec) -> (Vec<u64>, Vec<u64>, u64) {
    let s = script(spec, DEFAULT_SEED, &SMOKE);
    let mut probed: CoreBackend<ProbeDomain<D>> = CoreBackend::start(spec, &s, true).unwrap();
    probe::reset(None);
    let with: Vec<u64> = s
        .clients
        .iter()
        .map(|ops| replay(&mut probed, ops, &[], Some(Rung::Core)).digest)
        .collect();
    let (counters, _) = probe::take();
    let mut plain: CoreBackend<D> = CoreBackend::start(spec, &s, false).unwrap();
    let without: Vec<u64> = s
        .clients
        .iter()
        .map(|ops| replay(&mut plain, ops, &[], None).digest)
        .collect();
    (with, without, counters.calls.iter().sum())
}

#[test]
fn answers_through_the_probes_equal_answers_without_them() {
    for spec in &SPECS {
        let (with, without, calls) = match spec.domain {
            DomainKind::Octagon => core_digests::<OctagonDomain>(spec),
            DomainKind::Interval => core_digests::<IntervalDomain>(spec),
        };
        assert_eq!(with, without, "{}", spec.name);
        assert!(calls > 0, "{}: the probes saw no call", spec.name);
    }
}

#[test]
fn committed_programs_are_what_the_generator_emits() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    for (name, text) in source_programs() {
        let committed = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(committed, text, "{name}: rerun `run.sh --emit-programs`");
    }
}

#[test]
fn benchmark_json_is_the_manifest() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).unwrap();
    assert_eq!(
        committed,
        manifest::benchmark_json(),
        "rerun `run.sh --manifest > BENCHMARK.json`"
    );
}

#[test]
fn manifest_names_are_unique_and_well_formed() {
    let mut names: Vec<&str> = manifest::END_TO_END.iter().map(|m| m.0).collect();
    names.extend(manifest::PER_LAYER.iter().map(|m| m.0));
    names.extend(SPECS.iter().map(|s| s.name));
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    for n in &names {
        assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");
    for s in &SPECS {
        assert!(s.why.len() <= 200 && !s.why.contains('"'), "{}", s.name);
    }
    for m in &manifest::END_TO_END {
        assert!(m.3 > 0.0 && m.3 <= 0.25, "{} bound", m.0);
    }
}
