//! The five workloads: what each one configures and how big it is.
//!
//! Names are fixed (later issues cite them). Sizes are operation counts,
//! not durations, so every count repeats exactly; they were calibrated
//! once on the recording host (`nproc` = 2) so that one timed repetition
//! lasts about 2.5 s, and are frozen here. `README.md` has the table with
//! the reason each workload exists.

use crate::gen::{self, Script};
use dai_core::ContextPolicy;
use dai_engine::ResolverChoice;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainKind {
    Octagon,
    Interval,
}

/// How the script reaches the engine in the end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Service` calls on an in-process `Engine`.
    InProcess,
    /// `dai_rpc::Client` over a Unix socket to `dai_rpc::Server`.
    Socket,
    /// As `Socket`, with a journal attached to the served engine.
    SocketJournal,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub domain: DomainKind,
    pub resolver: ResolverChoice,
    pub transport: Transport,
    /// `EngineConfig::workers`; every other field keeps its default.
    pub workers: usize,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "fig10_edit_query",
        why: "the paper's 7.3 stream on a growing program: splice, interprocedural demand and octagon transfers share the bill",
        domain: DomainKind::Octagon,
        resolver: ResolverChoice::Interproc {
            policy: ContextPolicy::Insensitive,
        },
        transport: Transport::InProcess,
        workers: 1,
    },
    Spec {
        name: "loop_nest_octagon",
        why: "28x28 DBMs under repeated unroll/widen: dai-domains and dai-core's fix machinery do nearly all the work",
        domain: DomainKind::Octagon,
        resolver: ResolverChoice::Intra,
        transport: Transport::InProcess,
        workers: 1,
    },
    Spec {
        name: "call_fan_interproc",
        why: "cheap interval domain under call strings: interproc entry joins and dai-memo dominate; control for octagon changes",
        domain: DomainKind::Interval,
        resolver: ResolverChoice::Interproc {
            policy: ContextPolicy::CallString(1),
        },
        transport: Transport::InProcess,
        workers: 1,
    },
    Spec {
        name: "warm_sweep_socket",
        why: "every answer is a reuse hit over a Unix socket: framing, state codec and ticket plumbing are the whole cost",
        domain: DomainKind::Octagon,
        resolver: ResolverChoice::Intra,
        transport: Transport::Socket,
        workers: 1,
    },
    Spec {
        name: "durable_multi_session",
        why: "two clients, four journaled sessions, edits beside reads and saves: journal, snapshots, locks and shared memo on the path",
        domain: DomainKind::Octagon,
        resolver: ResolverChoice::Intra,
        transport: Transport::SocketJournal,
        workers: 2,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The frozen operation counts.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub fig10_edits: usize,
    pub nest_rounds: usize,
    pub fan_rounds: usize,
    pub warm_grow: usize,
    pub warm_rounds: usize,
    pub warm_singles: usize,
    pub warm_burst: usize,
    pub durable_rounds: usize,
    pub durable_save_every: usize,
    pub durable_compact_every: usize,
}

pub const FULL: Sizes = Sizes {
    fig10_edits: 540,
    nest_rounds: 600,
    fan_rounds: 175,
    warm_grow: 400,
    warm_rounds: 400,
    warm_singles: 200,
    warm_burst: 200,
    durable_rounds: 840,
    durable_save_every: 50,
    durable_compact_every: 200,
};

/// About a twentieth of [`FULL`], for `run.sh --smoke` and the unit tests;
/// save and compaction intervals shrink too so both still happen.
pub const SMOKE: Sizes = Sizes {
    fig10_edits: 50,
    nest_rounds: 30,
    fan_rounds: 12,
    warm_grow: 60,
    warm_rounds: 20,
    warm_singles: 40,
    warm_burst: 40,
    durable_rounds: 50,
    durable_save_every: 10,
    durable_compact_every: 25,
};

/// Script digest and operation count of each workload at [`FULL`] size and
/// the default seed, frozen when the sizes were: a run (or the unit test)
/// that regenerates a different script has different inputs, and its
/// numbers must not be compared with the recorded ones.
pub const FROZEN: [(&str, u64, usize); 5] = [
    ("fig10_edit_query", 0x5f9d_d898_9516_6e43, 3240),
    ("loop_nest_octagon", 0x29e5_96d8_0cfc_f9d6, 2400),
    ("call_fan_interproc", 0x3f23_608d_f2d9_d1a5, 700),
    ("warm_sweep_socket", 0x921a_dbd3_0361_9d26, 370_400),
    ("durable_multi_session", 0x5cae_8a19_22be_3260, 6754),
];

/// The frozen `(digest, ops)` a script must match, if it is one of the
/// frozen ones (default seed, full size).
pub fn frozen(spec: &Spec, seed: u64, sizes: &Sizes) -> Option<(u64, usize)> {
    if seed != crate::DEFAULT_SEED || !std::ptr::eq(sizes, &FULL) {
        return None;
    }
    FROZEN
        .iter()
        .find(|(name, _, _)| *name == spec.name)
        .map(|&(_, digest, ops)| (digest, ops))
}

pub fn script(spec: &Spec, seed: u64, sizes: &Sizes) -> Script {
    match spec.name {
        "fig10_edit_query" => gen::fig10_script(seed, sizes.fig10_edits),
        "loop_nest_octagon" => gen::loop_nest_script(seed, sizes.nest_rounds),
        "call_fan_interproc" => gen::call_fan_script(seed, sizes.fan_rounds),
        "warm_sweep_socket" => gen::warm_sweep_script(
            seed,
            sizes.warm_grow,
            sizes.warm_rounds,
            sizes.warm_singles,
            sizes.warm_burst,
        ),
        "durable_multi_session" => gen::durable_script(
            seed,
            sizes.durable_rounds,
            sizes.durable_save_every,
            sizes.durable_compact_every,
        ),
        other => unreachable!("no generator for workload `{other}`"),
    }
}
