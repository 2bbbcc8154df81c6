//! The staged-transfer table: compiled closures per CFG edge, with a
//! digest guard that makes staleness a performance concern instead of a
//! correctness one.
//!
//! At DAIG construction time every edge's statement is staged against the
//! session's domain via
//! [`AbstractDomain::compile_transfer`] (see `dai_domains::compile` for
//! the per-domain compilers and the bit-identity contract). The resulting
//! [`TransferTable`] is keyed **densely by [`EdgeId`]** — statements are
//! CFG edges, of which there are few and which are stable across demanded
//! unrolling, while transfer *cells* multiply with loop iterates; every
//! iterate of an edge shares the edge's one closure, and looking a
//! closure up is an array index, not a hash.
//!
//! # Why a digest guard instead of precise invalidation
//!
//! Memo keys content-hash a transfer's inputs. If a compiled closure
//! staged from an *old* statement were applied after a relabel, the
//! resulting (wrong) value would be recorded under the *new* statement's
//! memo key — poisoning the memo table for every future query. Rather
//! than trusting every edit path to invalidate eagerly, each entry
//! carries the content digest of the statement it was staged from, and
//! [`TransferTable::lookup`] only returns the closure when the caller's
//! statement-cell digest (already in hand for the memo key) matches.
//! Recompiling on relabel/splice is therefore purely an optimization to
//! keep the hit rate up; a missed invalidation degrades to the
//! interpreter, never to a wrong value.
//!
//! # Fused straight-line runs
//!
//! The table also precomputes, per structural state of the CFG, the
//! maximal straight-line runs of compiled edges (chains through
//! locations with a single forward in-edge and a single out-edge that are
//! neither loop heads nor the exit) and fuses each run into one closure
//! via [`CompiledTransfer::then`]. Cell-granular evaluation cannot use
//! them — every intermediate DAIG cell must hold its value for demand,
//! dirtying, and from-scratch consistency — but whole-run consumers
//! (the transfer microbenchmark, and prospectively a scheduler mode that
//! materializes intermediate cells lazily) get the per-statement dispatch
//! for free. Fused runs inherit bit-identity from their members, which
//! `tests/transfer_compile.rs` checks against statement-at-a-time
//! interpretation.

use crate::graph::Value;
use dai_domains::{AbstractDomain, CompiledTransfer};
use dai_lang::cfg::Cfg;
use dai_lang::{EdgeId, Stmt};
use std::sync::Arc;

/// How a session evaluates transfer edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransferMode {
    /// Evaluate through the staged [`TransferTable`] where a compiled
    /// closure exists, falling back to the interpreter per statement.
    #[default]
    Compiled,
    /// Always interpret via [`AbstractDomain::transfer`] (the
    /// differential oracle configuration).
    Interp,
}

impl TransferMode {
    /// Parses the CLI/REPL spelling (`compiled` | `interp`).
    pub fn parse(s: &str) -> Option<TransferMode> {
        match s {
            "compiled" => Some(TransferMode::Compiled),
            "interp" | "interpreted" => Some(TransferMode::Interp),
            _ => None,
        }
    }

    /// The CLI/REPL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            TransferMode::Compiled => "compiled",
            TransferMode::Interp => "interp",
        }
    }
}

/// One staged edge: the closure plus the digest of the statement it was
/// staged from (the guard; see module docs).
#[derive(Debug, Clone)]
struct Entry<D> {
    stmt_digest: u128,
    ct: CompiledTransfer<D>,
}

/// A maximal straight-line run of compiled edges fused into one closure.
#[derive(Debug, Clone)]
pub struct FusedRun<D> {
    /// The member edges, in control-flow order.
    pub edges: Vec<EdgeId>,
    /// The fused closure: pre-state of the first edge to post-state of
    /// the last.
    pub ct: CompiledTransfer<D>,
}

#[derive(Debug, Clone)]
struct Inner<D: AbstractDomain> {
    /// Dense by `EdgeId`; `None` = no compiled form (interpreter edge).
    entries: Vec<Option<Entry<D>>>,
    /// Statement digests of *all* edges seen at the last sync, dense by
    /// `EdgeId` (also covers interpreter edges, so `sync` can skip
    /// unchanged ones without re-staging).
    seen: Vec<Option<u128>>,
    /// Fused straight-line runs of ≥ 2 compiled edges.
    runs: Vec<FusedRun<D>>,
    /// Edges with a compiled closure at the last sync.
    compiled_edges: usize,
    /// Edges that fall back to the interpreter.
    interp_edges: usize,
}

/// The per-analysis staged-transfer store. Clones are cheap (copy-on-write
/// behind an [`Arc`]), so cloning the owning analysis shares the staged
/// closures without re-staging anything.
#[derive(Debug, Clone)]
pub struct TransferTable<D: AbstractDomain> {
    inner: Arc<Inner<D>>,
}

impl<D: AbstractDomain> TransferTable<D> {
    /// Stages every edge of `cfg`. Emits a `core.transfer_compile` span
    /// and publishes staging counters (see `dai-trace`).
    pub fn build(cfg: &Cfg) -> TransferTable<D> {
        let mut t = TransferTable {
            inner: Arc::new(Inner {
                entries: Vec::new(),
                seen: Vec::new(),
                runs: Vec::new(),
                compiled_edges: 0,
                interp_edges: 0,
            }),
        };
        t.sync(cfg);
        t
    }

    /// Re-stages `edge` for its new statement (the relabel hook). Purely
    /// an optimization — see the module docs on the digest guard.
    pub fn relabel(&mut self, edge: EdgeId, stmt: &Stmt) {
        let inner = Arc::make_mut(&mut self.inner);
        let idx = edge.0 as usize;
        if inner.entries.len() <= idx {
            inner.entries.resize_with(idx + 1, || None);
            inner.seen.resize_with(idx + 1, || None);
        }
        let digest = Value::<D>::stmt_digest(stmt);
        inner.seen[idx] = Some(digest);
        inner.entries[idx] = D::compile_transfer(stmt).map(|ct| Entry {
            stmt_digest: digest,
            ct,
        });
        recount(inner);
        // Runs referring to the old closure are stale; invalidate lazily
        // (the next sync rebuilds them) rather than re-walking the CFG on
        // every relabel.
        inner.runs.retain(|r| !r.edges.contains(&edge));
    }

    /// Targeted [`TransferTable::sync`]: stages only `edges` (the edges
    /// an edit actually added or moved), leaving every other entry —
    /// and its digest — untouched. Fused runs crossing a changed edge
    /// are dropped lazily, exactly as in [`TransferTable::relabel`];
    /// the next full `sync` rebuilds them. This keeps the per-edit
    /// staging cost proportional to the edit, not to the CFG: a full
    /// `sync` re-digests every statement in the function, which is pure
    /// overhead for the compiled mode when an edit touched two edges.
    /// The digest guard makes any missed edge safe (interpreter
    /// fallback), never wrong.
    pub fn sync_edges(&mut self, cfg: &Cfg, edges: impl IntoIterator<Item = EdgeId>) {
        let _span = dai_trace::span!("core.transfer_compile");
        let inner = Arc::make_mut(&mut self.inner);
        let mut staged = 0usize;
        for id in edges {
            let Some(e) = cfg.edge(id) else { continue };
            let idx = id.0 as usize;
            if inner.entries.len() <= idx {
                inner.entries.resize_with(idx + 1, || None);
                inner.seen.resize_with(idx + 1, || None);
            }
            let digest = Value::<D>::stmt_digest(&e.stmt);
            if inner.seen[idx] == Some(digest) {
                continue;
            }
            inner.seen[idx] = Some(digest);
            inner.entries[idx] = D::compile_transfer(&e.stmt).map(|ct| Entry {
                stmt_digest: digest,
                ct,
            });
            inner.runs.retain(|r| !r.edges.contains(&id));
            staged += 1;
        }
        recount(inner);
        dai_trace::event!("core.transfer_staged", staged as u64);
    }

    /// Brings the table in line with `cfg` after structural edits
    /// (splices add edges, relabels change statements): stages new or
    /// changed edges, drops entries for edges no longer present, and
    /// recomputes the fused runs. Unchanged edges (digest match) keep
    /// their existing closures.
    pub fn sync(&mut self, cfg: &Cfg) {
        let _span = dai_trace::span!("core.transfer_compile");
        let inner = Arc::make_mut(&mut self.inner);
        let mut max_idx = 0usize;
        for e in cfg.edges() {
            max_idx = max_idx.max(e.id.0 as usize);
        }
        inner.entries.resize_with(max_idx + 1, || None);
        inner.seen.resize_with(max_idx + 1, || None);
        let mut present = vec![false; max_idx + 1];
        let mut staged = 0usize;
        for e in cfg.edges() {
            let idx = e.id.0 as usize;
            present[idx] = true;
            let digest = Value::<D>::stmt_digest(&e.stmt);
            if inner.seen[idx] == Some(digest) {
                continue; // unchanged since last sync
            }
            inner.seen[idx] = Some(digest);
            inner.entries[idx] = D::compile_transfer(&e.stmt).map(|ct| Entry {
                stmt_digest: digest,
                ct,
            });
            staged += 1;
        }
        for (idx, p) in present.iter().enumerate() {
            if !p {
                inner.entries[idx] = None;
                inner.seen[idx] = None;
            }
        }
        recount(inner);
        inner.runs = fuse_runs(cfg, &inner.entries);
        dai_trace::event!("core.transfer_staged", staged as u64);
        let m = dai_trace::metrics();
        m.gauge("dai_transfer_compiled_edges")
            .set(inner.compiled_edges as u64);
        m.gauge("dai_transfer_interp_edges")
            .set(inner.interp_edges as u64);
    }

    /// The staged closure for `edge`, **iff** it was staged from the
    /// statement whose content digest is `stmt_digest` (the caller has
    /// that digest in hand — it is memo-key input 0). A digest mismatch
    /// means the entry is stale (an edit raced past recompilation);
    /// callers fall back to the interpreter.
    #[inline]
    pub fn lookup(&self, edge: EdgeId, stmt_digest: u128) -> Option<&CompiledTransfer<D>> {
        self.inner
            .entries
            .get(edge.0 as usize)?
            .as_ref()
            .filter(|en| en.stmt_digest == stmt_digest)
            .map(|en| &en.ct)
    }

    /// Edges with a compiled closure.
    pub fn compiled_edges(&self) -> usize {
        self.inner.compiled_edges
    }

    /// Edges that evaluate through the interpreter.
    pub fn interp_edges(&self) -> usize {
        self.inner.interp_edges
    }

    /// The fused straight-line runs (see module docs).
    pub fn fused_runs(&self) -> &[FusedRun<D>] {
        &self.inner.runs
    }
}

fn recount<D: AbstractDomain>(inner: &mut Inner<D>) {
    inner.compiled_edges = inner.entries.iter().flatten().count();
    inner.interp_edges = inner
        .seen
        .iter()
        .zip(&inner.entries)
        .filter(|(seen, en)| seen.is_some() && en.is_none())
        .count();
}

/// Maximal straight-line runs: chains `e₁ → … → e_k` (k ≥ 2, all
/// compiled, no back edges) through interior locations with exactly one
/// forward in-edge and one out-edge that are neither loop heads nor the
/// exit. Each edge belongs to at most one run.
fn fuse_runs<D: AbstractDomain>(cfg: &Cfg, entries: &[Option<Entry<D>>]) -> Vec<FusedRun<D>> {
    let heads = cfg.loop_heads();
    let compiled = |id: EdgeId| {
        entries
            .get(id.0 as usize)
            .and_then(|e| e.as_ref())
            .map(|en| &en.ct)
    };
    // A location is a chain interior iff exactly one forward in-edge and
    // one out-edge meet there and it is not a loop head or the exit.
    let interior = |loc| {
        loc != cfg.exit()
            && !heads.contains(&loc)
            && cfg.fwd_in_edges(loc).len() == 1
            && cfg.out_edges(loc).len() == 1
    };
    let mut runs = Vec::new();
    for e in cfg.edges() {
        if cfg.is_back_edge(e.id) || compiled(e.id).is_none() {
            continue;
        }
        // Only start a run at a non-extendable head position.
        let starts_run = !interior(e.src)
            || cfg
                .fwd_in_edges(e.src)
                .first()
                .is_none_or(|&p| cfg.is_back_edge(p) || compiled(p).is_none());
        if !starts_run {
            continue;
        }
        let mut edges = vec![e.id];
        let mut ct = compiled(e.id).expect("checked above").clone();
        let mut cur = e.dst;
        while interior(cur) {
            let next = cfg.out_edges(cur)[0];
            if cfg.is_back_edge(next) {
                break;
            }
            let Some(next_ct) = compiled(next) else {
                break;
            };
            ct = ct.then(next_ct);
            edges.push(next);
            cur = cfg.edge(next).expect("edge exists").dst;
        }
        if edges.len() >= 2 {
            runs.push(FusedRun { edges, ct });
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_domains::{OctagonDomain, TransferShape};
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;

    fn cfg_of(src: &str) -> Cfg {
        lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone()
    }

    #[test]
    fn builds_and_guards_by_digest() {
        let cfg = cfg_of("function f() { var x = 1; x = x + 2; return x; }");
        let t = TransferTable::<OctagonDomain>::build(&cfg);
        assert!(t.compiled_edges() > 0);
        for e in cfg.edges() {
            let d = Value::<OctagonDomain>::stmt_digest(&e.stmt);
            let ct = t.lookup(e.id, d).expect("non-call edges compile");
            // The staged closure agrees with the interpreter.
            let pre = OctagonDomain::top();
            assert_eq!(ct.apply(&pre), pre.transfer(&e.stmt));
            // A mismatched digest (stale entry) must refuse to serve.
            assert!(t.lookup(e.id, d ^ 1).is_none());
        }
    }

    #[test]
    fn relabel_restages_the_edge() {
        let cfg = cfg_of("function f() { var x = 1; return x; }");
        let mut t = TransferTable::<OctagonDomain>::build(&cfg);
        let e = cfg.edges().next().unwrap();
        let new_stmt = Stmt::Assign("x".into(), dai_lang::parse_expr("41").unwrap());
        let old_digest = Value::<OctagonDomain>::stmt_digest(&e.stmt);
        t.relabel(e.id, &new_stmt);
        assert!(t.lookup(e.id, old_digest).is_none(), "old digest is stale");
        let ct = t
            .lookup(e.id, Value::<OctagonDomain>::stmt_digest(&new_stmt))
            .unwrap();
        assert_eq!(ct.shape(), TransferShape::ConstAssign);
    }

    #[test]
    fn fused_runs_cover_straightline_chains() {
        let cfg = cfg_of("function f() { var a = 1; var b = 2; var c = 3; return a + b + c; }");
        let t = TransferTable::<OctagonDomain>::build(&cfg);
        let runs = t.fused_runs();
        assert!(!runs.is_empty(), "straight-line program has a fused run");
        // Each run's fused closure equals statement-at-a-time application.
        for run in runs {
            assert!(run.edges.len() >= 2);
            assert_eq!(run.ct.shape(), TransferShape::Fused);
            let mut seq = OctagonDomain::top();
            for &eid in &run.edges {
                seq = seq.transfer(&cfg.edge(eid).unwrap().stmt);
            }
            assert_eq!(run.ct.apply(&OctagonDomain::top()), seq);
        }
        // Runs are edge-disjoint.
        let mut seen = std::collections::HashSet::new();
        for run in runs {
            for &e in &run.edges {
                assert!(seen.insert(e), "edge {e:?} in two runs");
            }
        }
    }

    #[test]
    fn loopy_cfg_fuses_only_within_blocks() {
        let cfg = cfg_of(
            "function f(n) { var i = 0; var s = 0; while (i < 8) { s = s + i; i = i + 1; } return s; }",
        );
        let t = TransferTable::<OctagonDomain>::build(&cfg);
        for run in t.fused_runs() {
            for &eid in &run.edges {
                assert!(!cfg.is_back_edge(eid), "no back edges inside a run");
            }
        }
    }
}
