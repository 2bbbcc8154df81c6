//! A separation-logic shape domain for singly-linked lists (paper §7.2).
//!
//! An abstract state is a finite disjunction of *symbolic heaps*, each a
//! triple of (paper's description):
//!
//! * a separation-logic formula over points-to (`α.next ↦ α'`) and
//!   list-segment (`lseg(α, α')`) atomic propositions,
//! * pure constraints: disequalities over symbolic addresses (equalities
//!   are applied eagerly by substitution), and
//! * an environment mapping (pointer-valued) variables to addresses.
//!
//! `lseg(α, β)` denotes a possibly-empty chain of `next` cells from `α` to
//! `β` (the Chang–Rival–Necula inductive definition specialized to lists).
//! The domain operations are the classic shape-analysis trio:
//!
//! * **materialization** — dereferencing a segment head unfolds it,
//!   case-splitting on emptiness;
//! * **canonicalization** — garbage-collect unreachable cells, fold
//!   anonymous chains back into `lseg`s, and rename addresses canonically;
//!   this bounds every heap by the number of program variables, making the
//!   set of canonical heaps finite;
//! * **widening** — join (disjunct union) followed by canonicalization,
//!   which converges because canonical heaps form a finite universe.
//!
//! Two state-level flags track analysis imprecision soundly: `err` records
//! a possible memory-safety violation (the §7.2 verification client), and
//! `top` records that the heap is unknown (e.g. a write through an
//! untracked pointer).

use crate::{AbstractDomain, CallSite};
use dai_lang::interp::{ConcreteState, NodeId, Value};
use dai_lang::{BinOp, Expr, Stmt, Symbol, UnOp, RETURN_VAR};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A symbolic address: `null` or an existentially quantified cell address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// The null reference.
    Null,
    /// A symbolic address `αᵢ`.
    Sym(u32),
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Null => write!(f, "null"),
            Addr::Sym(i) => write!(f, "a{i}"),
        }
    }
}

/// A single symbolic heap (one disjunct).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymHeap {
    /// Pointer variables to addresses. Variables absent here are
    /// unconstrained (possibly non-pointer).
    pub env: BTreeMap<Symbol, Addr>,
    /// Points-to facts `α.next ↦ β` (the key owns the cell).
    pub pts: BTreeMap<Addr, Addr>,
    /// List segments `lseg(α, β)`, possibly empty.
    pub lsegs: BTreeSet<(Addr, Addr)>,
    /// Disequalities over addresses (stored with the smaller first).
    pub diseqs: BTreeSet<(Addr, Addr)>,
}

impl SymHeap {
    fn fresh_addr(&self) -> Addr {
        let mut max = 0;
        let mut bump = |a: &Addr| {
            if let Addr::Sym(i) = a {
                max = max.max(*i + 1);
            }
        };
        for a in self.env.values() {
            bump(a);
        }
        for (a, b) in &self.pts {
            bump(a);
            bump(b);
        }
        for (a, b) in &self.lsegs {
            bump(a);
            bump(b);
        }
        for (a, b) in &self.diseqs {
            bump(a);
            bump(b);
        }
        Addr::Sym(max)
    }

    fn all_addrs(&self) -> BTreeSet<Addr> {
        let mut out = BTreeSet::new();
        out.extend(self.env.values().copied());
        for (a, b) in &self.pts {
            out.insert(*a);
            out.insert(*b);
        }
        for (a, b) in &self.lsegs {
            out.insert(*a);
            out.insert(*b);
        }
        for (a, b) in &self.diseqs {
            out.insert(*a);
            out.insert(*b);
        }
        out
    }

    fn add_diseq(&mut self, a: Addr, b: Addr) {
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        if x != y {
            self.diseqs.insert((x, y));
        } else {
            // a ≠ a: mark infeasible by a reserved impossible diseq; the
            // saturation pass detects it via the equal-pair check below.
            self.diseqs.insert((x, y));
        }
    }

    fn has_diseq(&self, a: Addr, b: Addr) -> bool {
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        self.diseqs.contains(&(x, y))
    }

    /// May `a` be null in this heap?
    fn may_be_null(&self, a: Addr) -> bool {
        match a {
            Addr::Null => true,
            s => !self.has_diseq(s, Addr::Null) && !self.pts.contains_key(&s),
        }
    }

    /// Substitutes address `from` by `to` everywhere. Returns `None` when
    /// the merge makes the heap inconsistent (two points-to facts for one
    /// cell).
    fn subst(&self, from: Addr, to: Addr) -> Option<SymHeap> {
        let map = |a: Addr| if a == from { to } else { a };
        let mut out = SymHeap::default();
        for (x, a) in &self.env {
            out.env.insert(x.clone(), map(*a));
        }
        for (a, b) in &self.pts {
            let (a, b) = (map(*a), map(*b));
            if let Some(prev) = out.pts.insert(a, b) {
                if prev != b {
                    return None; // α ↦ β * α ↦ γ is unsatisfiable
                }
                // Even equal targets mean the same cell twice: unsat.
                return None;
            }
        }
        for (a, b) in &self.lsegs {
            out.lsegs.insert((map(*a), map(*b)));
        }
        for (a, b) in &self.diseqs {
            let (a, b) = (map(*a), map(*b));
            let (x, y) = if a <= b { (a, b) } else { (b, a) };
            out.diseqs.insert((x, y));
        }
        Some(out)
    }

    /// Asserts `a = b`, substituting and re-saturating. Returns all
    /// feasible resulting heaps.
    fn assert_eq(&self, a: Addr, b: Addr) -> Vec<SymHeap> {
        if a == b {
            return saturate(self.clone());
        }
        if self.has_diseq(a, b) {
            return Vec::new();
        }
        // Substitute toward null, else toward the smaller symbol.
        let (from, to) = match (a, b) {
            (Addr::Null, s) => (s, Addr::Null),
            (s, Addr::Null) => (s, Addr::Null),
            (x, y) => {
                if x < y {
                    (y, x)
                } else {
                    (x, y)
                }
            }
        };
        match self.subst(from, to) {
            Some(h) => saturate(h),
            None => Vec::new(),
        }
    }
}

/// Saturation: applies the structural consistency rules to a fixed point,
/// possibly case-splitting. Returns the feasible heaps.
fn saturate(mut h: SymHeap) -> Vec<SymHeap> {
    loop {
        // ⊥ checks.
        if h.pts.contains_key(&Addr::Null) {
            return Vec::new();
        }
        if h.diseqs.iter().any(|(a, b)| a == b) {
            return Vec::new();
        }
        // lseg(a, a) is the empty segment: drop it.
        if let Some(&seg) = h.lsegs.iter().find(|(a, b)| a == b) {
            h.lsegs.remove(&seg);
            continue;
        }
        // lseg(null, b): null owns no cell, so the segment is empty: b = null.
        if let Some(&(a, b)) = h.lsegs.iter().find(|(a, _)| *a == Addr::Null) {
            h.lsegs.remove(&(a, b));
            let mut out = Vec::new();
            for h2 in h.assert_eq(b, Addr::Null) {
                out.extend(saturate(h2));
            }
            return out;
        }
        // pts[a] and lseg(a, c) coexist only if the segment is empty.
        let clash = h.lsegs.iter().find(|(a, _)| h.pts.contains_key(a)).copied();
        if let Some((a, c)) = clash {
            h.lsegs.remove(&(a, c));
            let mut out = Vec::new();
            for h2 in h.assert_eq(a, c) {
                out.extend(saturate(h2));
            }
            return out;
        }
        // Two segments from the same head: one of them must be empty.
        let heads: Vec<Addr> = h.lsegs.iter().map(|(a, _)| *a).collect();
        if let Some(dup) = heads
            .iter()
            .find(|a| heads.iter().filter(|x| x == a).count() > 1)
        {
            let segs: Vec<(Addr, Addr)> =
                h.lsegs.iter().filter(|(a, _)| a == dup).copied().collect();
            let mut out = Vec::new();
            for &(a, b) in &segs {
                let mut h2 = h.clone();
                h2.lsegs.remove(&(a, b));
                for h3 in h2.assert_eq(a, b) {
                    out.extend(saturate(h3));
                }
            }
            return out;
        }
        // A cell owner is definitely non-null.
        let owners: Vec<Addr> = h.pts.keys().copied().collect();
        let mut changed = false;
        for a in owners {
            if let Addr::Sym(_) = a {
                if !h.has_diseq(a, Addr::Null) {
                    h.add_diseq(a, Addr::Null);
                    changed = true;
                }
            }
        }
        if changed {
            continue;
        }
        return vec![h];
    }
}

/// Canonicalization: GC, fold, and rename (see module docs).
fn canonicalize(h: SymHeap) -> Vec<SymHeap> {
    saturate(h).into_iter().flat_map(canon_one).collect()
}

/// Garbage collection: drops facts about addresses unreachable from the
/// environment (sound weakening under the intuitionistic reading).
fn gc(h: &mut SymHeap) {
    let mut reach: BTreeSet<Addr> = h.env.values().copied().collect();
    reach.insert(Addr::Null);
    loop {
        let mut grew = false;
        for (a, b) in h.pts.iter() {
            if reach.contains(a) && reach.insert(*b) {
                grew = true;
            }
        }
        for (a, b) in h.lsegs.iter() {
            if reach.contains(a) && reach.insert(*b) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    h.pts.retain(|a, _| reach.contains(a));
    h.lsegs.retain(|(a, _)| reach.contains(a));
    h.diseqs
        .retain(|(a, b)| reach.contains(a) && reach.contains(b));
}

fn canon_one(mut h: SymHeap) -> Vec<SymHeap> {
    gc(&mut h);

    // --- Generalize: every points-to is a (non-empty, hence ≥ weaker)
    // list segment. Saturation has already recorded the owner's
    // non-nullness as a disequality, so the only information lost is cell
    // adjacency — which materialization can re-split on demand. This is
    // the Chang–Rival–Necula-style canonicalization step that makes the
    // set of canonical heaps finite *and small*, and it is what lets the
    // append loop converge after a single demanded unrolling (§7.2).
    let pts = std::mem::take(&mut h.pts);
    for (a, b) in pts {
        h.lsegs.insert((a, b));
    }

    // --- Fold anonymous interior cells into segments.
    let named: BTreeSet<Addr> = h.env.values().copied().collect();
    loop {
        let mut folded = false;
        let candidates: Vec<Addr> = h
            .all_addrs()
            .into_iter()
            .filter(|a| matches!(a, Addr::Sym(_)) && !named.contains(a))
            .collect();
        for m in candidates {
            let in_segs: Vec<(Addr, Addr)> =
                h.lsegs.iter().filter(|(_, b)| *b == m).copied().collect();
            let out_segs: Vec<(Addr, Addr)> =
                h.lsegs.iter().filter(|(a, _)| *a == m).copied().collect();
            if in_segs.len() != 1 || out_segs.len() != 1 {
                continue;
            }
            let (src, _) = in_segs[0];
            let (_, dst) = out_segs[0];
            if src == m || dst == m {
                continue; // self loop; leave for saturation
            }
            h.lsegs.remove(&in_segs[0]);
            h.lsegs.remove(&out_segs[0]);
            h.diseqs.retain(|(a, b)| *a != m && *b != m);
            h.lsegs.insert((src, dst));
            folded = true;
            break;
        }
        if !folded {
            break;
        }
    }

    // Folding may have produced lseg(a, a) or duplicate heads: re-saturate.
    let sat = saturate(h);

    // --- Canonical renaming by deterministic traversal from sorted roots.
    sat.into_iter()
        .map(|h| {
            let mut order: Vec<Addr> = Vec::new();
            let mut seen: BTreeSet<Addr> = BTreeSet::new();
            seen.insert(Addr::Null);
            let mut queue: Vec<Addr> = Vec::new();
            for a in h.env.values() {
                if seen.insert(*a) {
                    queue.push(*a);
                }
            }
            // env is a BTreeMap: root order is deterministic (sorted vars).
            let mut i = 0;
            while i < queue.len() {
                let a = queue[i];
                i += 1;
                order.push(a);
                let mut succs: Vec<Addr> = Vec::new();
                if let Some(b) = h.pts.get(&a) {
                    succs.push(*b);
                }
                for (s, b) in &h.lsegs {
                    if *s == a {
                        succs.push(*b);
                    }
                }
                for b in succs {
                    if seen.insert(b) {
                        queue.push(b);
                    }
                }
            }
            let rename: BTreeMap<Addr, Addr> = order
                .iter()
                .enumerate()
                .map(|(i, a)| (*a, Addr::Sym(i as u32)))
                .collect();
            let map = |a: Addr| *rename.get(&a).unwrap_or(&a);
            let mut out = SymHeap::default();
            for (x, a) in &h.env {
                out.env.insert(x.clone(), map(*a));
            }
            for (a, b) in &h.pts {
                out.pts.insert(map(*a), map(*b));
            }
            for (a, b) in &h.lsegs {
                out.lsegs.insert((map(*a), map(*b)));
            }
            for (a, b) in &h.diseqs {
                let (a, b) = (map(*a), map(*b));
                let (x, y) = if a <= b { (a, b) } else { (b, a) };
                out.diseqs.insert((x, y));
            }
            out
        })
        .collect()
}

/// Does `strong ⊢ weak` hold — is every concrete heap modelled by `strong`
/// also modelled by `weak`? Sound and incomplete: a `true` answer is
/// justified by exhibiting an address mapping `φ` under which each of
/// `weak`'s segments is covered by a chain of *disjoint* `strong` facts
/// (each consumed at most once), and each of `weak`'s pure constraints is
/// implied by `strong`. Used for disjunct subsumption in joins/widens.
pub fn entails(strong: &SymHeap, weak: &SymHeap) -> bool {
    let mut phi: BTreeMap<Addr, Addr> = BTreeMap::new();
    phi.insert(Addr::Null, Addr::Null);
    for (x, wa) in &weak.env {
        let Some(&sa) = strong.env.get(x) else {
            return false;
        };
        match phi.get(wa) {
            Some(&prev) if prev != sa => return false,
            _ => {
                phi.insert(*wa, sa);
            }
        }
    }
    // Match weak's heap facts; sources become mapped as the frontier
    // grows. Each strong fact may justify at most one weak fact
    // (separation), tracked by the consumed sets.
    let mut consumed = Consumed::default();
    let mut remaining: Vec<(Addr, Addr, bool)> = weak
        .lsegs
        .iter()
        .map(|&(a, b)| (a, b, false))
        .chain(weak.pts.iter().map(|(&a, &b)| (a, b, true)))
        .collect();
    while !remaining.is_empty() {
        let mut still = Vec::new();
        let mut progress = false;
        for (a, b, is_pts) in remaining {
            let Some(&sa) = phi.get(&a) else {
                still.push((a, b, is_pts));
                continue;
            };
            progress = true;
            if is_pts {
                // A weak points-to needs an exact strong points-to.
                let Some(&sb) = strong.pts.get(&sa) else {
                    return false;
                };
                if consumed.pts.contains(&sa) {
                    return false;
                }
                consumed.pts.insert(sa);
                match phi.get(&b) {
                    Some(&prev) if prev != sb => return false,
                    _ => {
                        phi.insert(b, sb);
                    }
                }
            } else {
                match phi.get(&b).copied() {
                    Some(sb) => {
                        if !walk_match(strong, &mut consumed, sa, sb) {
                            return false;
                        }
                    }
                    None => {
                        // ∃b: bind structurally — follow strong's own
                        // out-fact when present (so self-entailment holds),
                        // else the empty instantiation b := a.
                        let target = if let Some(&t) = strong.pts.get(&sa) {
                            if consumed.pts.insert(sa) {
                                Some(t)
                            } else {
                                None
                            }
                        } else if let Some(&seg) = strong
                            .lsegs
                            .iter()
                            .find(|seg| seg.0 == sa && !consumed.lsegs.contains(*seg))
                        {
                            consumed.lsegs.insert(seg);
                            Some(seg.1)
                        } else {
                            None
                        };
                        phi.insert(b, target.unwrap_or(sa));
                    }
                }
            }
        }
        if !progress {
            return false; // weak has facts unreachable from its roots
        }
        remaining = still;
    }
    // Pure constraints must be implied.
    for (a, b) in &weak.diseqs {
        let (Some(&sa), Some(&sb)) = (phi.get(a), phi.get(b)) else {
            return false;
        };
        if sa == sb {
            return false;
        }
        let nonnull = |x: Addr| strong.has_diseq(x, Addr::Null) || strong.pts.contains_key(&x);
        let implied = strong.has_diseq(sa, sb)
            || (sa == Addr::Null && nonnull(sb))
            || (sb == Addr::Null && nonnull(sa));
        if !implied {
            return false;
        }
    }
    true
}

/// Tracks which strong facts have justified a weak fact already.
#[derive(Debug, Default)]
struct Consumed {
    lsegs: BTreeSet<(Addr, Addr)>,
    /// Points-to owners consumed.
    pts: BTreeSet<Addr>,
}

/// Consumes a chain of unconsumed `strong` facts (points-to or segments)
/// from `from` to `to` (possibly empty).
fn walk_match(strong: &SymHeap, consumed: &mut Consumed, from: Addr, to: Addr) -> bool {
    let mut cur = from;
    let mut steps = 0;
    loop {
        if cur == to {
            return true;
        }
        if let Some(&t) = strong.pts.get(&cur) {
            if consumed.pts.insert(cur) {
                cur = t;
                steps += 1;
                if steps > strong.lsegs.len() + strong.pts.len() + 1 {
                    return false;
                }
                continue;
            }
        }
        let next = strong
            .lsegs
            .iter()
            .find(|seg| seg.0 == cur && !consumed.lsegs.contains(*seg))
            .copied();
        match next {
            Some(seg) => {
                consumed.lsegs.insert(seg);
                cur = seg.1;
            }
            None => return false,
        }
        steps += 1;
        if steps > strong.lsegs.len() + strong.pts.len() + 1 {
            return false;
        }
    }
}

/// Maximum number of disjuncts before the state collapses to `⊤`.
const MAX_DISJUNCTS: usize = 32;

/// The shape abstract domain state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ShapeDomain {
    /// Unreachable.
    Bottom,
    /// A disjunction of canonical symbolic heaps plus imprecision flags.
    State {
        /// Canonicalized disjuncts.
        heaps: BTreeSet<SymHeap>,
        /// A memory-safety violation (null dereference) may have occurred.
        err: bool,
        /// The heap is unknown (analysis gave up on some write).
        top: bool,
    },
}

impl ShapeDomain {
    /// The empty-heap state (no variables tracked, no error).
    pub fn top_state() -> ShapeDomain {
        ShapeDomain::State {
            heaps: [SymHeap::default()].into_iter().collect(),
            err: false,
            top: false,
        }
    }

    /// The precondition "each of `vars` is a well-formed (acyclic,
    /// null-terminated) list, all pairwise disjoint": `lseg(αᵢ, null)` for
    /// each variable — the paper's `φ₀` for `append`.
    pub fn with_lists(vars: &[&str]) -> ShapeDomain {
        let mut h = SymHeap::default();
        for (i, v) in vars.iter().enumerate() {
            let a = Addr::Sym(i as u32);
            h.env.insert(Symbol::new(v), a);
            h.lsegs.insert((a, Addr::Null));
        }
        ShapeDomain::State {
            heaps: [h].into_iter().collect(),
            err: false,
            top: false,
        }
    }

    /// Rebuilds a state from persisted parts, re-entering through the
    /// same normalization as `ShapeDomain::from_heaps` (persistence
    /// accessor): `⊥`/`⊤` collapse, saturation + GC, deduplication, and
    /// the disjunct cap. A snapshot therefore cannot materialize a state
    /// unreachable through the domain's own constructors — e.g. an empty
    /// non-`err` disjunction that should be `Bottom`, or more than
    /// `MAX_DISJUNCTS` disjuncts. States the domain itself produced are
    /// already fixed points of this normalization, so honest roundtrips
    /// are unchanged.
    pub fn from_parts(heaps: Vec<SymHeap>, err: bool, top: bool) -> ShapeDomain {
        ShapeDomain::from_heaps(heaps, err, top)
    }

    /// Builds a state from raw disjuncts: saturation and deduplication
    /// only. Transfer functions use this — canonicalization (GC, folding,
    /// renaming) happens **only at widening points**, so that facts
    /// materialized by a loop guard survive until the body has used them
    /// (the classic shape-analysis phasing).
    fn from_heaps(heaps: Vec<SymHeap>, err: bool, top: bool) -> ShapeDomain {
        if top {
            return ShapeDomain::State {
                heaps: BTreeSet::new(),
                err,
                top: true,
            };
        }
        let mut set: BTreeSet<SymHeap> = BTreeSet::new();
        for h in heaps {
            for mut s in saturate(h) {
                gc(&mut s);
                set.insert(s);
            }
        }
        if set.is_empty() && !err {
            return ShapeDomain::Bottom;
        }
        if set.len() > MAX_DISJUNCTS {
            return ShapeDomain::State {
                heaps: BTreeSet::new(),
                err,
                top: true,
            };
        }
        ShapeDomain::State {
            heaps: set,
            err,
            top: false,
        }
    }

    /// Builds a state in canonical form: canonicalization plus
    /// entailment-based subsumption. Used by widening, where convergence
    /// requires the finite canonical universe.
    fn from_heaps_canonical(heaps: Vec<SymHeap>, err: bool, top: bool) -> ShapeDomain {
        if top {
            return ShapeDomain::State {
                heaps: BTreeSet::new(),
                err,
                top: true,
            };
        }
        let mut set: BTreeSet<SymHeap> = BTreeSet::new();
        for h in heaps {
            for c in canonicalize(h) {
                set.insert(c);
            }
        }
        // Subsumption: drop disjuncts entailed by (weaker) disjuncts; the
        // union of concretizations is unchanged.
        let list: Vec<SymHeap> = set.into_iter().collect();
        let mut keep = vec![true; list.len()];
        for i in 0..list.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..list.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if entails(&list[i], &list[j]) {
                    // Mutual entailment keeps the smaller index.
                    if entails(&list[j], &list[i]) && j > i {
                        continue;
                    }
                    keep[i] = false;
                    break;
                }
            }
        }
        let set: BTreeSet<SymHeap> = list
            .into_iter()
            .zip(keep)
            .filter_map(|(h, k)| k.then_some(h))
            .collect();
        if set.is_empty() && !err {
            return ShapeDomain::Bottom;
        }
        if set.len() > MAX_DISJUNCTS {
            return ShapeDomain::State {
                heaps: BTreeSet::new(),
                err,
                top: true,
            };
        }
        ShapeDomain::State {
            heaps: set,
            err,
            top: false,
        }
    }

    /// May a memory-safety violation have occurred (the §7.2 client)?
    pub fn may_error(&self) -> bool {
        match self {
            ShapeDomain::Bottom => false,
            ShapeDomain::State { err, top, .. } => *err || *top,
        }
    }

    /// Does every disjunct prove that `var` points to a well-formed
    /// (acyclic, null-terminated) list?
    pub fn proves_list(&self, var: &str) -> bool {
        match self {
            ShapeDomain::Bottom => true,
            ShapeDomain::State { top: true, .. } => false,
            ShapeDomain::State { heaps, .. } => heaps.iter().all(|h| {
                let Some(&start) = h.env.get(var) else {
                    return false;
                };
                let mut cur = start;
                let mut visited = BTreeSet::new();
                loop {
                    if cur == Addr::Null {
                        return true;
                    }
                    if !visited.insert(cur) {
                        return false; // cycle
                    }
                    if let Some(b) = h.pts.get(&cur) {
                        cur = *b;
                    } else if let Some(&(_, b)) = h.lsegs.iter().find(|(a, _)| *a == cur) {
                        cur = b;
                    } else {
                        return false; // dangling
                    }
                }
            }),
        }
    }

    /// Number of disjuncts (0 for ⊥/⊤ states).
    pub fn disjunct_count(&self) -> usize {
        match self {
            ShapeDomain::Bottom => 0,
            ShapeDomain::State { heaps, .. } => heaps.len(),
        }
    }

    /// Applies `f` to every disjunct; `f` returns the replacement disjuncts
    /// plus error/top contributions.
    fn flat_map_heaps(
        &self,
        mut f: impl FnMut(&SymHeap) -> (Vec<SymHeap>, bool, bool),
    ) -> ShapeDomain {
        match self {
            ShapeDomain::Bottom => ShapeDomain::Bottom,
            ShapeDomain::State { heaps, err, top } => {
                if *top {
                    return self.clone();
                }
                let mut out = Vec::new();
                let mut err2 = *err;
                let mut top2 = false;
                for h in heaps {
                    let (hs, e, t) = f(h);
                    out.extend(hs);
                    err2 |= e;
                    top2 |= t;
                }
                ShapeDomain::from_heaps(out, err2, top2)
            }
        }
    }
}

/// Outcome of resolving `x.next` in one disjunct.
enum Deref {
    /// The cell is materialized; its target address is known.
    Target(Addr),
    /// Nothing is known about the cell (`may_null` says whether the base
    /// pointer may be null).
    Unknown { may_null: bool },
    /// The base pointer is definitely null.
    NullBase,
}

/// Materializes the `next` cell of `env[x]`, returning the resulting
/// disjuncts (case splits from unfolding segments).
fn materialize(h: &SymHeap, x: &Symbol) -> Vec<(SymHeap, Deref)> {
    let Some(&a) = h.env.get(x) else {
        return vec![(h.clone(), Deref::Unknown { may_null: true })];
    };
    materialize_addr(h, x, a)
}

fn materialize_addr(h: &SymHeap, x: &Symbol, a: Addr) -> Vec<(SymHeap, Deref)> {
    if a == Addr::Null {
        return vec![(h.clone(), Deref::NullBase)];
    }
    if let Some(&b) = h.pts.get(&a) {
        return vec![(h.clone(), Deref::Target(b))];
    }
    if let Some(&(s, e)) = h.lsegs.iter().find(|(s, _)| *s == a) {
        let mut out = Vec::new();
        // Case 1: the segment is empty (a = e); retry on the result.
        let mut h_empty = h.clone();
        h_empty.lsegs.remove(&(s, e));
        for h2 in h_empty.assert_eq(a, e) {
            // After substitution the variable may map elsewhere; re-resolve.
            let new_a = h2.env.get(x).copied().unwrap_or(if a == s { e } else { a });
            out.extend(materialize_addr(&h2, x, new_a));
        }
        // Case 2: the segment is non-empty: unfold one cell.
        let mut h_ne = h.clone();
        h_ne.lsegs.remove(&(s, e));
        let fresh = h_ne.fresh_addr();
        h_ne.pts.insert(a, fresh);
        h_ne.lsegs.insert((fresh, e));
        h_ne.add_diseq(a, Addr::Null);
        for h2 in saturate(h_ne) {
            out.push((h2, Deref::Target(fresh)));
        }
        return out;
    }
    vec![(
        h.clone(),
        Deref::Unknown {
            may_null: h.may_be_null(a),
        },
    )]
}

/// Resolves a pointer expression to an address in one disjunct, possibly
/// materializing. Returns the feasible cases `(heap, address-if-known)`
/// and whether some case faulted (definite or possible null base): the
/// faulting case contributes the error flag and no successor, while the
/// other cases continue.
fn resolve_ptr(h: &SymHeap, e: &Expr) -> (Vec<(SymHeap, Option<Addr>)>, bool) {
    match e {
        Expr::Null => (vec![(h.clone(), Some(Addr::Null))], false),
        Expr::Var(x) => (vec![(h.clone(), h.env.get(x).copied())], false),
        Expr::Field(base, f) if f.as_str() == "next" => {
            if let Expr::Var(y) = &**base {
                let mut err = false;
                let mut cases = Vec::new();
                for (h2, d) in materialize(h, y) {
                    match d {
                        Deref::Target(b) => cases.push((h2, Some(b))),
                        Deref::Unknown { may_null } => {
                            err |= may_null;
                            cases.push((h2, None));
                        }
                        Deref::NullBase => err = true, // this case faults
                    }
                }
                (cases, err)
            } else {
                (vec![(h.clone(), None)], true)
            }
        }
        _ => (vec![(h.clone(), None)], false),
    }
}

impl fmt::Display for ShapeDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeDomain::Bottom => write!(f, "⊥"),
            ShapeDomain::State { heaps, err, top } => {
                if *top {
                    write!(f, "⊤heap")?;
                } else {
                    for (i, h) in heaps.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ∨ ")?;
                        }
                        write!(f, "⟨")?;
                        let mut first = true;
                        for (x, a) in &h.env {
                            if !first {
                                write!(f, ", ")?;
                            }
                            write!(f, "{x}={a}")?;
                            first = false;
                        }
                        write!(f, " | ")?;
                        first = true;
                        for (a, b) in &h.pts {
                            if !first {
                                write!(f, " * ")?;
                            }
                            write!(f, "{a}↦{b}")?;
                            first = false;
                        }
                        for (a, b) in &h.lsegs {
                            if !first {
                                write!(f, " * ")?;
                            }
                            write!(f, "lseg({a},{b})")?;
                            first = false;
                        }
                        if first {
                            write!(f, "emp")?;
                        }
                        if !h.diseqs.is_empty() {
                            write!(f, " | ")?;
                            for (i, (a, b)) in h.diseqs.iter().enumerate() {
                                if i > 0 {
                                    write!(f, ", ")?;
                                }
                                write!(f, "{a}≠{b}")?;
                            }
                        }
                        write!(f, "⟩")?;
                    }
                }
                if *err {
                    write!(f, " [may-err]")?;
                }
                Ok(())
            }
        }
    }
}

impl AbstractDomain for ShapeDomain {
    fn bottom() -> Self {
        ShapeDomain::Bottom
    }

    fn is_bottom(&self) -> bool {
        matches!(self, ShapeDomain::Bottom)
    }

    fn entry_default(_params: &[Symbol]) -> Self {
        // Parameters unconstrained: not tracked in the environment.
        ShapeDomain::top_state()
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (ShapeDomain::Bottom, x) | (x, ShapeDomain::Bottom) => x.clone(),
            (
                ShapeDomain::State {
                    heaps: h1,
                    err: e1,
                    top: t1,
                },
                ShapeDomain::State {
                    heaps: h2,
                    err: e2,
                    top: t2,
                },
            ) => {
                let heaps = h1.iter().chain(h2.iter()).cloned().collect();
                ShapeDomain::from_heaps(heaps, *e1 || *e2, *t1 || *t2)
            }
        }
    }

    fn widen(&self, next: &Self) -> Self {
        // Union + canonicalization + subsumption converges: canonical
        // heaps over the program's variables form a finite universe (see
        // module docs), and subsumption keeps the set small.
        match (self, next) {
            (ShapeDomain::Bottom, x) | (x, ShapeDomain::Bottom) => match x {
                ShapeDomain::Bottom => ShapeDomain::Bottom,
                ShapeDomain::State { heaps, err, top } => {
                    ShapeDomain::from_heaps_canonical(heaps.iter().cloned().collect(), *err, *top)
                }
            },
            (
                ShapeDomain::State {
                    heaps: h1,
                    err: e1,
                    top: t1,
                },
                ShapeDomain::State {
                    heaps: h2,
                    err: e2,
                    top: t2,
                },
            ) => {
                let heaps = h1.iter().chain(h2.iter()).cloned().collect();
                ShapeDomain::from_heaps_canonical(heaps, *e1 || *e2, *t1 || *t2)
            }
        }
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (ShapeDomain::Bottom, _) => true,
            (_, ShapeDomain::Bottom) => false,
            (
                ShapeDomain::State {
                    heaps: h1,
                    err: e1,
                    top: t1,
                },
                ShapeDomain::State {
                    heaps: h2,
                    err: e2,
                    top: t2,
                },
            ) => {
                if *e1 && !*e2 {
                    return false;
                }
                if *t2 {
                    return true;
                }
                if *t1 {
                    return false;
                }
                // Entailment-based disjunct inclusion (sound, incomplete).
                h1.iter().all(|a| h2.iter().any(|b| entails(a, b)))
            }
        }
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        match stmt {
            Stmt::Skip | Stmt::Print(_) | Stmt::ArrayWrite(..) => self.clone(),
            Stmt::Assign(x, e) => self.flat_map_heaps(|h| transfer_assign(h, x, e)),
            Stmt::FieldWrite(x, field, e) => {
                if field.as_str() == "next" {
                    self.flat_map_heaps(|h| transfer_next_write(h, x, e))
                } else {
                    // Non-shape field: only the null-check matters.
                    self.flat_map_heaps(|h| {
                        let may_null = h.env.get(x).is_none_or(|&a| h.may_be_null(a));
                        if h.env.get(x) == Some(&Addr::Null) {
                            (Vec::new(), true, false)
                        } else {
                            (vec![h.clone()], may_null, false)
                        }
                    })
                }
            }
            Stmt::Assume(e) => self.flat_map_heaps(|h| refine_heap(h, e, true)),
            Stmt::Call { .. } => {
                // Intraprocedural fallback: an unknown callee may mutate
                // any reachable cell.
                match self {
                    ShapeDomain::Bottom => ShapeDomain::Bottom,
                    ShapeDomain::State { err, .. } => ShapeDomain::State {
                        heaps: BTreeSet::new(),
                        err: *err,
                        top: true,
                    },
                }
            }
        }
    }

    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self {
        // Rename caller locals into frame variables (so callee-local
        // reasoning cannot clobber them), then bind formals to actuals.
        let prefix = format!("$frame${}$", site.site_key);
        self.flat_map_heaps(|h| {
            let mut out = SymHeap {
                env: BTreeMap::new(),
                ..h.clone()
            };
            for (x, a) in &h.env {
                out.env.insert(Symbol::new(format!("{prefix}{x}")), *a);
            }
            for (p, arg) in callee_params.iter().zip(site.args) {
                match arg {
                    Expr::Null => {
                        out.env.insert(p.clone(), Addr::Null);
                    }
                    Expr::Var(y) => {
                        if let Some(&a) = h.env.get(y) {
                            out.env.insert(p.clone(), a);
                        }
                    }
                    _ => {}
                }
            }
            (vec![out], false, false)
        })
    }

    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self {
        let prefix = format!("$frame${}$", site.site_key);
        match callee_exit {
            ShapeDomain::Bottom => ShapeDomain::Bottom,
            ShapeDomain::State { .. } => callee_exit.flat_map_heaps(|h| {
                let mut out = SymHeap {
                    env: BTreeMap::new(),
                    ..h.clone()
                };
                let ret = h.env.get(RETURN_VAR).copied();
                for (x, a) in &h.env {
                    if let Some(orig) = x.as_str().strip_prefix(&prefix) {
                        out.env.insert(Symbol::new(orig), *a);
                    }
                }
                if let (Some(lhs), Some(r)) = (site.lhs, ret) {
                    out.env.insert(lhs.clone(), r);
                }
                (vec![out], false, false)
            }),
        }
    }

    fn models(&self, concrete: &ConcreteState) -> bool {
        match self {
            ShapeDomain::Bottom => false,
            ShapeDomain::State { top: true, .. } => true,
            ShapeDomain::State { heaps, .. } => heaps.iter().any(|h| heap_models(h, concrete)),
        }
    }
}

fn transfer_assign(h: &SymHeap, x: &Symbol, e: &Expr) -> (Vec<SymHeap>, bool, bool) {
    match e {
        Expr::Null => {
            let mut h2 = h.clone();
            h2.env.insert(x.clone(), Addr::Null);
            (vec![h2], false, false)
        }
        Expr::Var(y) => {
            let mut h2 = h.clone();
            match h.env.get(y) {
                Some(&a) => {
                    h2.env.insert(x.clone(), a);
                }
                None => {
                    h2.env.remove(x);
                }
            }
            (vec![h2], false, false)
        }
        Expr::AllocNode => {
            let mut h2 = h.clone();
            let fresh = h2.fresh_addr();
            // A fresh node differs from every known address.
            for a in h2.all_addrs() {
                h2.add_diseq(fresh, a);
            }
            h2.add_diseq(fresh, Addr::Null);
            h2.env.insert(x.clone(), fresh);
            h2.pts.insert(fresh, Addr::Null);
            (vec![h2], false, false)
        }
        Expr::Field(base, f) if f.as_str() == "next" => {
            if let Expr::Var(y) = &**base {
                let mut out = Vec::new();
                let mut err = false;
                for (h2, d) in materialize(h, y) {
                    match d {
                        Deref::Target(b) => {
                            let mut h3 = h2;
                            h3.env.insert(x.clone(), b);
                            out.push(h3);
                        }
                        Deref::Unknown { may_null } => {
                            err |= may_null;
                            let mut h3 = h2;
                            h3.env.remove(x);
                            out.push(h3);
                        }
                        Deref::NullBase => {
                            err = true; // this path definitely faults
                        }
                    }
                }
                (out, err, false)
            } else {
                let mut h2 = h.clone();
                h2.env.remove(x);
                (vec![h2], true, false)
            }
        }
        Expr::Field(base, _) => {
            // Data field: untracked value, but the dereference still needs
            // a null check.
            let err = if let Expr::Var(y) = &**base {
                match h.env.get(y) {
                    Some(&Addr::Null) => return (Vec::new(), true, false),
                    Some(&a) => h.may_be_null(a),
                    None => true,
                }
            } else {
                true
            };
            let mut h2 = h.clone();
            h2.env.remove(x);
            (vec![h2], err, false)
        }
        _ => {
            // Non-pointer expression: untrack x.
            let mut h2 = h.clone();
            h2.env.remove(x);
            (vec![h2], false, false)
        }
    }
}

fn transfer_next_write(h: &SymHeap, x: &Symbol, e: &Expr) -> (Vec<SymHeap>, bool, bool) {
    let mut out = Vec::new();
    let mut err = false;
    let mut top = false;
    for (h2, d) in materialize(h, x) {
        match d {
            Deref::Target(_) => {
                let a = h2
                    .env
                    .get(x)
                    .copied()
                    .expect("materialized base is tracked");
                match e {
                    Expr::Null => {
                        let mut h3 = h2;
                        h3.pts.insert(a, Addr::Null);
                        out.push(h3);
                    }
                    Expr::Var(y) => match h2.env.get(y) {
                        Some(&b) => {
                            let mut h3 = h2.clone();
                            h3.pts.insert(a, b);
                            out.push(h3);
                        }
                        None => {
                            // Unknown (possibly non-pointer) value: the
                            // cell's content becomes unknown.
                            let mut h3 = h2.clone();
                            h3.pts.remove(&a);
                            out.push(h3);
                        }
                    },
                    _ => {
                        let mut h3 = h2;
                        h3.pts.remove(&a);
                        out.push(h3);
                    }
                }
            }
            Deref::Unknown { may_null } => {
                // Write through an unknown pointer: it may alias anything.
                err |= may_null;
                top = true;
            }
            Deref::NullBase => {
                err = true;
            }
        }
    }
    (out, err, top)
}

/// Refines one disjunct under `cond = expected`.
fn refine_heap(h: &SymHeap, cond: &Expr, expected: bool) -> (Vec<SymHeap>, bool, bool) {
    match cond {
        Expr::Bool(b) => {
            if *b == expected {
                (vec![h.clone()], false, false)
            } else {
                (Vec::new(), false, false)
            }
        }
        Expr::Unary(UnOp::Not, inner) => refine_heap(h, inner, !expected),
        Expr::Binary(BinOp::And, l, r) if expected => {
            let (hs, e1, t1) = refine_heap(h, l, true);
            let mut out = Vec::new();
            let (mut err, mut top) = (e1, t1);
            for h2 in hs {
                let (hs2, e2, t2) = refine_heap(&h2, r, true);
                out.extend(hs2);
                err |= e2;
                top |= t2;
            }
            (out, err, top)
        }
        Expr::Binary(BinOp::And, l, r) => {
            let (mut hs, e1, t1) = refine_heap(h, l, false);
            let (hs2, e2, t2) = refine_heap(h, r, false);
            hs.extend(hs2);
            (hs, e1 || e2, t1 || t2)
        }
        Expr::Binary(BinOp::Or, l, r) if expected => {
            let (mut hs, e1, t1) = refine_heap(h, l, true);
            let (hs2, e2, t2) = refine_heap(h, r, true);
            hs.extend(hs2);
            (hs, e1 || e2, t1 || t2)
        }
        Expr::Binary(BinOp::Or, l, r) => {
            let (hs, e1, t1) = refine_heap(h, l, false);
            let mut out = Vec::new();
            let (mut err, mut top) = (e1, t1);
            for h2 in hs {
                let (hs2, e2, t2) = refine_heap(&h2, r, false);
                out.extend(hs2);
                err |= e2;
                top |= t2;
            }
            (out, err, top)
        }
        Expr::Binary(op @ (BinOp::Eq | BinOp::Ne), l, r) => {
            let positive_eq = (*op == BinOp::Eq) == expected;
            let mut out = Vec::new();
            let (lcases, lerr) = resolve_ptr(h, l);
            let mut err = lerr;
            for (h1, la) in lcases {
                let (rcases, rerr) = resolve_ptr(&h1, r);
                err |= rerr;
                for (h2, ra) in rcases {
                    match (la, ra) {
                        (Some(a), Some(b)) => {
                            if positive_eq {
                                out.extend(h2.assert_eq(a, b));
                            } else if a == b {
                                // definitely equal: infeasible
                            } else {
                                let mut h3 = h2.clone();
                                h3.add_diseq(a, b);
                                out.extend(saturate(h3));
                            }
                        }
                        _ => out.push(h2),
                    }
                }
            }
            (out, err, false)
        }
        _ => (vec![h.clone()], false, false),
    }
}

/// Model check: does the symbolic heap cover the concrete state?
/// Conservative in the accepting direction (never reports a false
/// violation); used only by test harnesses.
fn heap_models(h: &SymHeap, concrete: &ConcreteState) -> bool {
    // Interpretation of addresses as concrete null/node values.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum CV {
        Null,
        Node(NodeId),
    }
    fn of_value(v: &Value) -> Option<CV> {
        match v {
            Value::Null => Some(CV::Null),
            Value::Node(id) => Some(CV::Node(*id)),
            _ => None,
        }
    }

    let mut assign: BTreeMap<Addr, CV> = BTreeMap::new();
    assign.insert(Addr::Null, CV::Null);
    for (x, a) in &h.env {
        let Some(cv) = concrete.env.get(x) else {
            continue;
        };
        let Some(cv) = of_value(cv) else { return false };
        match assign.get(a) {
            Some(prev) if *prev != cv => return false,
            _ => {
                assign.insert(*a, cv);
            }
        }
    }

    fn next_of(concrete: &ConcreteState, cv: CV) -> Option<CV> {
        match cv {
            CV::Null => None,
            CV::Node(id) => {
                let v = concrete.read_field(id, &Symbol::new("next"))?;
                of_value(&v)
            }
        }
    }

    // Backtracking solver over the facts.
    fn solve(h: &SymHeap, concrete: &ConcreteState, mut assign: BTreeMap<Addr, CV>) -> bool {
        // Propagate points-to facts deterministically.
        loop {
            let mut progressed = false;
            for (a, b) in &h.pts {
                let Some(&av) = assign.get(a) else { continue };
                if av == CV::Null {
                    return false; // null owns no cell
                }
                let Some(next) = next_of(concrete, av) else {
                    return false;
                };
                match assign.get(b) {
                    Some(&bv) => {
                        if bv != next {
                            return false;
                        }
                    }
                    None => {
                        assign.insert(*b, next);
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        // Check disequalities where both sides are known.
        for (a, b) in &h.diseqs {
            if let (Some(x), Some(y)) = (assign.get(a), assign.get(b)) {
                if x == y {
                    return false;
                }
            }
        }
        // Find an unresolved segment with a known start.
        let seg = h.lsegs.iter().find(|(a, b)| {
            assign.contains_key(a) && {
                let _ = b;
                true
            }
        });
        let Some(&(a, b)) = seg else {
            // No checkable segments left: accept (conservative).
            return true;
        };
        let start = assign[&a];
        match assign.get(&b).copied() {
            Some(end) => {
                // Deterministic walk: start must reach end.
                let mut cur = start;
                let mut fuel = concrete.heap.len() + 2;
                let mut rest = h.clone();
                rest.lsegs.remove(&(a, b));
                loop {
                    if cur == end {
                        return solve(&rest, concrete, assign);
                    }
                    if fuel == 0 {
                        return false;
                    }
                    fuel -= 1;
                    match next_of(concrete, cur) {
                        Some(n) => cur = n,
                        None => return false,
                    }
                }
            }
            None => {
                // Try every stopping point along the chain for b.
                let mut rest = h.clone();
                rest.lsegs.remove(&(a, b));
                let mut cur = start;
                let mut fuel = concrete.heap.len() + 2;
                loop {
                    let mut attempt = assign.clone();
                    attempt.insert(b, cur);
                    let mut with_seg = rest.clone();
                    with_seg.lsegs.insert((a, b));
                    // Re-check with b now fixed (the segment itself will be
                    // verified by the deterministic branch).
                    if solve(&with_seg, concrete, attempt) {
                        return true;
                    }
                    if fuel == 0 {
                        return false;
                    }
                    fuel -= 1;
                    match next_of(concrete, cur) {
                        Some(n) => cur = n,
                        None => return false,
                    }
                }
            }
        }
    }

    solve(h, concrete, assign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_lang::parse_expr;

    fn assume(s: &ShapeDomain, cond: &str) -> ShapeDomain {
        s.transfer(&Stmt::Assume(parse_expr(cond).unwrap()))
    }

    fn assign(s: &ShapeDomain, x: &str, e: &str) -> ShapeDomain {
        let e = if e == "new Node()" {
            Expr::AllocNode
        } else {
            parse_expr(e).unwrap()
        };
        s.transfer(&Stmt::Assign(x.into(), e))
    }

    #[test]
    fn alloc_gives_nonnull_node() {
        let s = assign(&ShapeDomain::top_state(), "n", "new Node()");
        assert!(!s.may_error());
        assert!(s.proves_list("n"));
        // n is definitely non-null.
        assert!(assume(&s, "n == null").is_bottom());
    }

    #[test]
    fn null_assignment_and_test() {
        let s = assign(&ShapeDomain::top_state(), "p", "null");
        assert!(assume(&s, "p != null").is_bottom());
        assert!(!assume(&s, "p == null").is_bottom());
    }

    #[test]
    fn null_dereference_detected() {
        let s = assign(&ShapeDomain::top_state(), "p", "null");
        let s2 = assign(&s, "x", "p.next");
        assert!(s2.may_error());
    }

    #[test]
    fn precondition_lists_are_lists() {
        let s = ShapeDomain::with_lists(&["p", "q"]);
        assert!(s.proves_list("p"));
        assert!(s.proves_list("q"));
        assert!(!s.may_error());
    }

    #[test]
    fn materialization_case_splits_on_lseg() {
        let s = ShapeDomain::with_lists(&["p"]);
        // After assuming p != null, the list is non-empty; reading p.next
        // is safe.
        let nonempty = assume(&s, "p != null");
        assert!(!nonempty.is_bottom());
        let read = assign(&nonempty, "x", "p.next");
        assert!(!read.may_error(), "{read}");
        assert!(read.proves_list("x"), "{read}");
    }

    #[test]
    fn reading_possibly_null_list_head_errors() {
        let s = ShapeDomain::with_lists(&["p"]);
        // p may be the empty list (p = null): dereference must alarm.
        let read = assign(&s, "x", "p.next");
        assert!(read.may_error());
    }

    #[test]
    fn next_write_after_null_check_is_safe() {
        let s = ShapeDomain::with_lists(&["p", "q"]);
        let s = assume(&s, "p != null");
        let s = s.transfer(&Stmt::FieldWrite(
            "p".into(),
            "next".into(),
            parse_expr("q").unwrap(),
        ));
        assert!(!s.may_error(), "{s}");
    }

    #[test]
    fn data_field_untracked_but_null_checked() {
        let s = assign(&ShapeDomain::top_state(), "n", "new Node()");
        let s2 = assign(&s, "v", "n.data");
        assert!(!s2.may_error());
        let null = assign(&ShapeDomain::top_state(), "p", "null");
        let s3 = assign(&null, "v", "p.data");
        assert!(s3.may_error());
    }

    #[test]
    fn join_unions_disjuncts() {
        let a = assign(&ShapeDomain::top_state(), "p", "null");
        let b = assign(&ShapeDomain::top_state(), "p", "new Node()");
        let j = a.join(&b);
        assert_eq!(j.disjunct_count(), 2);
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn widen_equals_join_and_is_idempotent() {
        let a = ShapeDomain::with_lists(&["p"]);
        let w = a.widen(&a);
        assert_eq!(w, a);
    }

    #[test]
    fn canonicalization_folds_unfolded_lists() {
        // Unfold then re-canonicalize: p != null; x = p.next gives
        // p ↦ x * lseg(x, null); x is named so it stays, but after
        // x = null the cell chain from p is foldable again.
        let s = ShapeDomain::with_lists(&["p"]);
        let s = assume(&s, "p != null");
        let s = assign(&s, "x", "p.next");
        let s = assign(&s, "x", "null");
        // p's shape is again a single (nonempty) list description.
        assert!(s.proves_list("p"), "{s}");
        assert_eq!(s.disjunct_count(), 1, "{s}");
    }

    #[test]
    fn append_loop_body_preserves_listness() {
        // The core of Fig. 1: r walks the list.
        let s = ShapeDomain::with_lists(&["p", "q"]);
        let s = assume(&s, "p != null");
        let s = assign(&s, "r", "p");
        // while (r.next != null) { r = r.next; } — one iteration:
        let s = assume(&s, "r.next != null");
        assert!(!s.may_error(), "{s}");
        let s = assign(&s, "r", "r.next");
        assert!(!s.may_error(), "{s}");
        assert!(s.proves_list("r"), "{s}");
        assert!(s.proves_list("p"), "{s}");
    }

    #[test]
    fn assume_next_null_materializes() {
        let s = ShapeDomain::with_lists(&["p"]);
        let s = assume(&s, "p != null");
        let s = assume(&s, "p.next == null");
        assert!(!s.is_bottom());
        assert!(!s.may_error(), "{s}");
        assert!(s.proves_list("p"));
    }

    #[test]
    fn eq_test_substitutes() {
        let s = assign(
            &assign(&ShapeDomain::top_state(), "a", "new Node()"),
            "b",
            "a",
        );
        // a == b must hold.
        assert!(!assume(&s, "a == b").is_bottom());
        assert!(assume(&s, "a != b").is_bottom());
    }

    #[test]
    fn fresh_nodes_are_distinct() {
        let s = assign(
            &assign(&ShapeDomain::top_state(), "a", "new Node()"),
            "b",
            "new Node()",
        );
        assert!(assume(&s, "a == b").is_bottom());
    }

    #[test]
    fn unknown_write_goes_top() {
        // Writing through an untracked pointer loses the heap.
        let s = ShapeDomain::top_state();
        let s2 = s.transfer(&Stmt::FieldWrite(
            "mystery".into(),
            "next".into(),
            Expr::Null,
        ));
        assert!(s2.may_error());
    }

    #[test]
    fn call_havocs_heap_intraprocedurally() {
        let s = ShapeDomain::with_lists(&["p"]);
        let s2 = s.transfer(&Stmt::Call {
            lhs: None,
            callee: "f".into(),
            args: vec![],
        });
        assert!(s2.may_error()); // top implies no memory-safety proof
    }

    #[test]
    fn models_accepts_real_list() {
        let s = ShapeDomain::with_lists(&["p"]);
        // Concrete: p -> n0 -> n1 -> null.
        let mut c = ConcreteState::new();
        let n0 = c.alloc_node();
        let n1 = c.alloc_node();
        c.heap
            .get_mut(&n0)
            .unwrap()
            .insert("next".into(), Value::Node(n1));
        c.heap
            .get_mut(&n1)
            .unwrap()
            .insert("next".into(), Value::Null);
        c.env.insert("p".into(), Value::Node(n0));
        assert!(s.models(&c));
        // Empty list also models lseg(p, null).
        let mut c2 = ConcreteState::new();
        c2.env.insert("p".into(), Value::Null);
        assert!(s.models(&c2));
    }

    #[test]
    fn models_rejects_wrong_binding() {
        let s = assign(&ShapeDomain::top_state(), "p", "null");
        let mut c = ConcreteState::new();
        let n = c.alloc_node();
        c.env.insert("p".into(), Value::Node(n));
        assert!(!s.models(&c));
    }

    #[test]
    fn models_rejects_non_pointer_for_tracked() {
        let s = assign(&ShapeDomain::top_state(), "p", "null");
        let mut c = ConcreteState::new();
        c.env.insert("p".into(), Value::Int(3));
        assert!(!s.models(&c));
    }

    #[test]
    fn models_checks_points_to() {
        let s = assign(&ShapeDomain::top_state(), "n", "new Node()");
        // Concrete node whose next is itself: violates n ↦ null.
        let mut c = ConcreteState::new();
        let id = c.alloc_node();
        c.heap
            .get_mut(&id)
            .unwrap()
            .insert("next".into(), Value::Node(id));
        c.env.insert("n".into(), Value::Node(id));
        assert!(!s.models(&c));
        // And with next = null it models.
        let mut c2 = ConcreteState::new();
        let id2 = c2.alloc_node();
        c2.heap
            .get_mut(&id2)
            .unwrap()
            .insert("next".into(), Value::Null);
        c2.env.insert("n".into(), Value::Node(id2));
        assert!(s.models(&c2));
    }

    #[test]
    fn canonical_states_compare_equal() {
        // Two different construction orders of the same abstract heap.
        let a = assign(
            &assign(&ShapeDomain::top_state(), "x", "new Node()"),
            "y",
            "null",
        );
        let b = assign(
            &assign(&ShapeDomain::top_state(), "y", "null"),
            "x",
            "new Node()",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn widening_chain_converges() {
        // Repeatedly extend a list and widen: must stabilize.
        let mut acc = ShapeDomain::with_lists(&["p"]);
        for step in 0..12 {
            // Body: p = new node prepended (p' ↦ p).
            let mut grown = assign(&acc, "t", "new Node()");
            grown = grown.transfer(&Stmt::FieldWrite(
                "t".into(),
                "next".into(),
                parse_expr("p").unwrap(),
            ));
            grown = assign(&grown, "p", "t");
            grown = assign(&grown, "t", "null");
            let next = acc.widen(&acc.join(&grown));
            if next == acc {
                assert!(step < 8, "converged but late");
                return;
            }
            acc = next;
        }
        panic!("shape widening failed to converge");
    }
}
