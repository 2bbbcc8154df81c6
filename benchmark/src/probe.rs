//! `ProbeDomain` and `ProbeMemo`: benchmark-owned wrappers that count and
//! time every call `dai-core` makes into `dai-domains` and `dai-memo`.
//!
//! The traced run's lowest rung drives `dai-core` directly with
//! `ProbeDomain<D>` in place of `D`. Every lattice operation forwards to
//! the wrapped state, so values, `Eq` and `Hash` — and with them memo keys,
//! convergence checks and answer digests — are those of `D` (the unit
//! tests assert answers through the probes equal answers without them).
//!
//! Trait methods get no context argument, so the counters live in a
//! thread-local; rung 1 runs on one thread.

use crate::trace::SpanLog;
use dai_domains::{AbstractDomain, CallSite, CompiledTransfer};
use dai_lang::interp::ConcreteState;
use dai_lang::{Stmt, Symbol};
use dai_memo::{MemoKey, MemoStore};
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// The call kinds the probes tell apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Transfer,
    Join,
    Widen,
    Leq,
    Clone,
    EqHash,
    CallBind,
    MemoFetch,
    MemoRecord,
}

pub const KINDS: [Kind; 9] = [
    Kind::Transfer,
    Kind::Join,
    Kind::Widen,
    Kind::Leq,
    Kind::Clone,
    Kind::EqHash,
    Kind::CallBind,
    Kind::MemoFetch,
    Kind::MemoRecord,
];

impl Kind {
    /// The span name, `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Transfer => "domains.transfer",
            Kind::Join => "domains.join",
            Kind::Widen => "domains.widen",
            Kind::Leq => "domains.leq",
            Kind::Clone => "domains.clone",
            Kind::EqHash => "domains.eq_hash",
            Kind::CallBind => "domains.call_bind",
            Kind::MemoFetch => "memo.fetch",
            Kind::MemoRecord => "memo.record",
        }
    }
}

/// Calls and nanoseconds per [`Kind`], plus memo hits.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounters {
    pub calls: [u64; KINDS.len()],
    pub ns: [u64; KINDS.len()],
    pub memo_hits: u64,
}

impl ProbeCounters {
    pub fn calls_of(&self, kind: Kind) -> u64 {
        self.calls[kind as usize]
    }

    pub fn ns_of(&self, kind: Kind) -> u64 {
        self.ns[kind as usize]
    }

    /// Nanoseconds inside `dai-domains`.
    pub fn domain_ns(&self) -> u64 {
        KINDS
            .iter()
            .filter(|k| !matches!(k, Kind::MemoFetch | Kind::MemoRecord))
            .map(|&k| self.ns_of(k))
            .sum()
    }

    /// Nanoseconds inside `dai-memo`.
    pub fn memo_ns(&self) -> u64 {
        self.ns_of(Kind::MemoFetch) + self.ns_of(Kind::MemoRecord)
    }
}

#[derive(Default)]
struct ProbeState {
    counters: ProbeCounters,
    /// When set, every probed call is also recorded as a span under
    /// `parent` (the span of the operation being replayed).
    spans: Option<SpanLog>,
    parent: u32,
    op_id: u32,
    /// Time probed calls nested in the one now running have taken.
    nested_ns: u64,
}

thread_local! {
    static STATE: RefCell<ProbeState> = RefCell::new(ProbeState::default());
}

/// Clears the counters and installs (or removes) the span log.
pub fn reset(spans: Option<SpanLog>) {
    STATE.with(|s| {
        *s.borrow_mut() = ProbeState {
            spans,
            ..ProbeState::default()
        }
    });
}

/// Opens the span of scripted operation `op_id` on this thread's log (if
/// one is installed) and makes it the parent of the probed calls that
/// follow. Returns the span's id for [`end_op`], 0 when nothing was logged.
pub fn begin_op(name: &'static str, op_id: u32) -> u32 {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let now = Instant::now();
        let id = match s.spans.as_mut() {
            Some(log) => log.push(name, now, now, 0, op_id),
            None => 0,
        };
        s.parent = id;
        s.op_id = op_id;
        id
    })
}

/// Closes the span [`begin_op`] opened.
pub fn end_op(id: u32) {
    if id == 0 {
        return;
    }
    STATE.with(|s| {
        if let Some(log) = s.borrow_mut().spans.as_mut() {
            log.close(id, Instant::now());
        }
    });
}

/// The counters so far, and the span log if one was installed.
pub fn take() -> (ProbeCounters, Option<SpanLog>) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        (s.counters, s.spans.take())
    })
}

/// Runs `f` as one probed call. A probed call can contain another (a memo
/// fetch clones the stored state), so each call is charged its own time
/// only: what nested calls took is subtracted, and the parts add up.
#[inline]
fn timed<T>(kind: Kind, f: impl FnOnce() -> T) -> T {
    let outer_nested = STATE.with(|s| std::mem::take(&mut s.borrow_mut().nested_ns));
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    let elapsed = (end - start).as_nanos() as u64;
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let inner = std::mem::replace(&mut s.nested_ns, outer_nested + elapsed);
        s.counters.calls[kind as usize] += 1;
        s.counters.ns[kind as usize] += elapsed.saturating_sub(inner);
        let (parent, op_id) = (s.parent, s.op_id);
        if let Some(log) = s.spans.as_mut() {
            log.push(kind.name(), start, end, parent, op_id);
        }
    });
    out
}

/// `D` with every lattice call counted and timed.
pub struct ProbeDomain<D>(pub D);

impl<D: AbstractDomain> Clone for ProbeDomain<D> {
    fn clone(&self) -> Self {
        timed(Kind::Clone, || ProbeDomain(self.0.clone()))
    }
}

impl<D: AbstractDomain> PartialEq for ProbeDomain<D> {
    fn eq(&self, other: &Self) -> bool {
        timed(Kind::EqHash, || self.0 == other.0)
    }
}

impl<D: AbstractDomain> Eq for ProbeDomain<D> {}

impl<D: AbstractDomain> Hash for ProbeDomain<D> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        timed(Kind::EqHash, || self.0.hash(state));
    }
}

impl<D: fmt::Debug> fmt::Debug for ProbeDomain<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<D: fmt::Display> fmt::Display for ProbeDomain<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<D: AbstractDomain> AbstractDomain for ProbeDomain<D> {
    fn bottom() -> Self {
        ProbeDomain(D::bottom())
    }

    fn is_bottom(&self) -> bool {
        self.0.is_bottom()
    }

    fn entry_default(params: &[Symbol]) -> Self {
        ProbeDomain(D::entry_default(params))
    }

    fn join(&self, other: &Self) -> Self {
        timed(Kind::Join, || ProbeDomain(self.0.join(&other.0)))
    }

    fn widen(&self, next: &Self) -> Self {
        timed(Kind::Widen, || ProbeDomain(self.0.widen(&next.0)))
    }

    fn leq(&self, other: &Self) -> bool {
        timed(Kind::Leq, || self.0.leq(&other.0))
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        timed(Kind::Transfer, || ProbeDomain(self.0.transfer(stmt)))
    }

    fn compile_transfer(stmt: &Stmt) -> Option<CompiledTransfer<Self>> {
        let staged = D::compile_transfer(stmt)?;
        Some(CompiledTransfer::new(
            staged.shape(),
            move |pre: &ProbeDomain<D>| timed(Kind::Transfer, || ProbeDomain(staged.apply(&pre.0))),
        ))
    }

    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self {
        timed(Kind::CallBind, || {
            ProbeDomain(self.0.call_entry(site, callee_params))
        })
    }

    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self {
        timed(Kind::CallBind, || {
            ProbeDomain(self.0.call_return(site, &callee_exit.0))
        })
    }

    fn models(&self, concrete: &ConcreteState) -> bool {
        self.0.models(concrete)
    }
}

/// A [`MemoStore`] with every fetch and record counted and timed.
pub struct ProbeMemo<'a, V: Clone>(pub &'a mut dyn MemoStore<V>);

impl<V: Clone> MemoStore<V> for ProbeMemo<'_, V> {
    fn fetch(&mut self, key: MemoKey) -> Option<V> {
        let hit = timed(Kind::MemoFetch, || self.0.fetch(key));
        if hit.is_some() {
            STATE.with(|s| s.borrow_mut().counters.memo_hits += 1);
        }
        hit
    }

    fn record(&mut self, key: MemoKey, value: V) {
        timed(Kind::MemoRecord, || self.0.record(key, value));
    }
}
