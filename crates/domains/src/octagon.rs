//! The octagon abstract domain (Miné), from scratch.
//!
//! Octagons represent conjunctions of constraints of the form
//! `±x ± y ≤ c` — "a relational numerical domain … widely used in practice
//! due to its balance of expressivity and efficiency" (paper §7.3, where it
//! backs the scalability experiments). The paper uses APRON's octagons;
//! this is a self-contained implementation of the same domain:
//!
//! * each tracked variable `x` gets two signed forms `x⁺ = x` and
//!   `x⁻ = −x`; a difference-bound matrix (DBM) entry `m[i][j]` bounds
//!   `vᵢ − vⱼ ≤ m[i][j]` over signed forms;
//! * **strong closure** (Floyd–Warshall plus the octagonal strengthening
//!   step) computes the canonical tightest matrix and decides emptiness;
//! * assignment supports exact transfer for (anti-)linear right-hand sides
//!   `±y + c` and falls back to interval bounds for anything else;
//! * `assume` extracts octagon constraints from comparisons (including
//!   two-variable forms like `i < j`), handles `&&`/`||`/`!` structurally;
//! * join is the pointwise max of *closed* operands; widening is pointwise
//!   bound-dropping and — as required for convergence — its result is
//!   **not** closed;
//! * non-numeric variables are simply untracked (`⊤`), which keeps the
//!   domain sound on the full language (arrays, booleans, heap refs).
//!
//! ## Sealed values and the fingerprint
//!
//! A state is an `Arc<`[`SealedOct`]`>`: an [`Oct`] plus a lazily computed
//! 128-bit fingerprint of its `(vars, dbm)` content. `Hash` writes the
//! fingerprint, so the DAIG's per-cell `content_digest` costs one matrix
//! pass per *allocation* rather than one per cell write — a memo hit, a
//! cell write and a snapshot all carry the same `Arc`. `Eq` is exact
//! (pointer-equal and fingerprints-differ are only shortcuts).
//!
//! The fingerprint lives as long as the allocation and can never be stale,
//! because nothing can change a sealed matrix: [`SealedOct`] derefs to
//! `&Oct` only. Every mutating path un-seals first — [`Oct::clone`] out of
//! the `Arc`, or `Arc::try_unwrap` when the handle is unique — works on
//! the owned `Oct`, which has no cache, and seals the result
//! ([`OctagonDomain::seal`]) into a fresh allocation with an empty one.
//!
//! ## When closure is incremental
//!
//! [`Oct::close`] is the one general strong closure, O(d³). Adding a
//! single constraint to a matrix that is already strongly closed does not
//! need it: [`Oct::tighten`] restores closure in O(d²) with
//! [`Oct::close_through`] (Miné's incremental closure) when the matrix is
//! flagged closed, consistent, and it and the new bound lie within
//! [`EXACT_CLOSURE_BOUND`]. That is every tightening `assume` and call
//! return on the warm path. Genuinely unclosed inputs — widening results,
//! [`Oct::from_parts`], `call_entry`'s rebuilt matrix — and matrices with
//! huge entries still go through `close()`.
//!
//! The two agree bit for bit, which the memo table needs (keys are content
//! hashes). Below the bound no sum saturates, and then both compute *the*
//! tight closure of the constraint system, which is unique: every step of
//! either is a sound integer consequence, so neither can go below it; the
//! incremental pass is exact shortest paths, then tightening, then
//! strengthening, which reaches it (Bagnara, Hill and Zaffanella); and
//! `close()` interleaves extra strengthening steps into the same
//! shortest-path computation, which by monotonicity of `min` and `+` can
//! only land at or below that — hence on it. The same argument makes both
//! report ⊥ on the same inputs. With saturation `badd` is no longer
//! associative and the two may round different paths differently, which is
//! why such matrices are left to `close()`. (A two-cell constraint — `==`,
//! or both ends of an interval — whose first cell closes incrementally and
//! whose second is beyond the bound is finished by `close()` starting from
//! the incrementally closed matrix: never above what `close()` computes
//! from both raw cells, and equal to it unless that computation itself
//! saturates.) The proptests in `incremental_closure` check all of this
//! against `close()`, saturating entries included.

use crate::interval::{Bound, Interval};
use crate::{AbstractDomain, CallSite};
use dai_lang::interp::{ConcreteState, Value};
use dai_lang::{BinOp, Expr, Stmt, Symbol, UnOp, RETURN_VAR};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// `+∞` sentinel for DBM entries.
const INF: i64 = i64::MAX;

/// Saturating bound addition: `∞ + x = ∞`; finite overflow saturates
/// soundly (positive overflow to `∞`, negative to `i64::MIN`, which is a
/// *weaker* bound than the true sum and therefore sound).
fn badd(a: i64, b: i64) -> i64 {
    if a == INF || b == INF {
        INF
    } else {
        a.saturating_add(b)
    }
}

/// Largest magnitude of a finite entry (or new bound) for which
/// [`Oct::tighten`] closes incrementally. A shortest path has fewer than
/// `2n` edges, so below this bound no sum in either closure leaves `i64`
/// for any matrix that fits in memory (`4·2n·2⁴⁰ < 2⁶³` up to 2¹⁹
/// variables).
const EXACT_CLOSURE_BOUND: u64 = 1 << 40;

/// Floor division by 2 that respects the `∞` sentinel.
fn bhalf(a: i64) -> i64 {
    if a == INF {
        INF
    } else {
        a.div_euclid(2)
    }
}

/// A non-bottom octagon: tracked variables (sorted) plus the DBM over their
/// signed forms. This is the *mutable* form every transfer works on; a
/// finished value is sealed into a [`SealedOct`] before it is shared.
#[derive(Debug, Clone)]
pub struct Oct {
    /// Shared, sorted variable list: assignments to already-tracked
    /// variables clone the matrix but not the list, so the per-transfer
    /// `Oct::clone` on the warm path is one `Vec<i64>` copy plus a
    /// refcount bump.
    vars: Arc<[Symbol]>,
    /// Row-major `(2n)²` matrix; `dbm[i * 2n + j]` bounds `vᵢ − vⱼ`.
    dbm: Vec<i64>,
    /// Whether `dbm` is strongly closed. Ignored by `Eq` and by the
    /// fingerprint.
    closed: bool,
}

impl PartialEq for Oct {
    fn eq(&self, other: &Oct) -> bool {
        self.vars == other.vars && self.dbm == other.dbm
    }
}

impl Eq for Oct {}

#[cfg(test)]
thread_local! {
    /// How many fingerprints this thread has computed from scratch.
    static FINGERPRINTS_COMPUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// An immutable octagon together with the lazily computed 128-bit
/// fingerprint of its `(vars, dbm)` content — the value inside
/// [`OctagonDomain::Oct`]'s [`Arc`].
///
/// `Hash` writes the fingerprint instead of walking the matrix, so a value
/// that is hashed many times (every memo-matched cell write re-digests the
/// state it is handed) pays for one matrix pass per *allocation*. The
/// cache cannot go stale: the type hands out `&Oct` only (no `DerefMut`,
/// no `&mut` accessor), so the only way to change the matrix is to copy it
/// out ([`Oct::clone`]) or take it back ([`SealedOct::into_oct`]), and
/// either leaves the fingerprint behind.
pub struct SealedOct {
    oct: Oct,
    fingerprint: OnceLock<u128>,
}

impl SealedOct {
    /// Un-seals a uniquely owned value for mutation, dropping the cache.
    fn into_oct(self) -> Oct {
        self.oct
    }

    /// The content fingerprint: one SipHash lane over `(vars, dbm)` and one
    /// independent multiply-rotate lane over the matrix words — the same
    /// strength as the 128-bit `dai_memo::content_digest` that used to walk
    /// the matrix itself (one SipHash lane, one Fx lane).
    fn fingerprint(&self) -> u128 {
        let fp = *self.fingerprint.get_or_init(|| {
            #[cfg(test)]
            FINGERPRINTS_COMPUTED.with(|c| c.set(c.get() + 1));
            content_fingerprint(&self.oct)
        });
        debug_assert_eq!(
            fp,
            content_fingerprint(&self.oct),
            "stale octagon fingerprint"
        );
        fp
    }
}

fn content_fingerprint(oct: &Oct) -> u128 {
    let mut sip = DefaultHasher::new();
    oct.vars.hash(&mut sip);
    // The second lane starts from the variable list's hash, so it too
    // tells apart equal matrices over different variables.
    let vars_hash = sip.clone().finish();
    oct.dbm.hash(&mut sip);
    // Four interleaved streams (a `(2n)²` matrix is a whole number of
    // quads): a single multiply-rotate chain is latency bound, and this
    // runs once per freshly computed matrix.
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let step = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut lanes = [vars_hash, !vars_hash, vars_hash.rotate_left(16), K];
    for quad in oct.dbm.chunks_exact(4) {
        for (lane, &w) in lanes.iter_mut().zip(quad) {
            *lane = step(*lane, w as u64);
        }
    }
    let fx = lanes.into_iter().fold(K, step);
    ((sip.finish() as u128) << 64) | fx as u128
}

impl std::ops::Deref for SealedOct {
    type Target = Oct;

    fn deref(&self) -> &Oct {
        &self.oct
    }
}

impl fmt::Debug for SealedOct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.oct.fmt(f)
    }
}

impl PartialEq for SealedOct {
    fn eq(&self, other: &SealedOct) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        if let (Some(a), Some(b)) = (self.fingerprint.get(), other.fingerprint.get()) {
            if a != b {
                return false;
            }
        }
        self.oct == other.oct
    }
}

impl Eq for SealedOct {}

impl Hash for SealedOct {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.fingerprint());
    }
}

impl Oct {
    fn n(&self) -> usize {
        self.vars.len()
    }

    fn dim(&self) -> usize {
        2 * self.vars.len()
    }

    fn at(&self, i: usize, j: usize) -> i64 {
        self.dbm[i * self.dim() + j]
    }

    fn set(&mut self, i: usize, j: usize, v: i64) {
        let d = self.dim();
        self.dbm[i * d + j] = v;
    }

    /// Adds `vᵢ − vⱼ ≤ c` (and its coherent twin). On a strongly closed,
    /// consistent matrix whose entries are all within
    /// [`EXACT_CLOSURE_BOUND`] the strong closure is restored in place in
    /// O(d²) ([`Oct::close_through`]); otherwise the matrix is left
    /// unclosed for the next full [`Oct::close`].
    fn tighten(&mut self, i: usize, j: usize, c: i64) {
        if c >= self.at(i, j) {
            return;
        }
        let incremental = self.closed && !self.has_negative_diagonal() && self.closes_exactly(c);
        self.set(i, j, c);
        // Coherence: v_i − v_j and v_j̄ − v_ī are the same constraint.
        self.set(j ^ 1, i ^ 1, c);
        if incremental {
            self.close_through(i, j, c);
        } else {
            self.closed = false;
        }
    }

    /// Are `c` and every finite entry small enough that no sum either
    /// closure forms can saturate? Saturating addition is not associative,
    /// so once it fires [`Oct::close`] and [`Oct::close_through`] may
    /// round different paths differently; below the bound both compute the
    /// canonical tight closure (module docs) and agree bit for bit.
    fn closes_exactly(&self, c: i64) -> bool {
        let small = |v: i64| v == INF || v.unsigned_abs() <= EXACT_CLOSURE_BOUND;
        // No early exit: the answer is almost always yes, and a branch-free
        // scan vectorizes.
        small(c) && self.dbm.iter().fold(true, |ok, &v| ok & small(v))
    }

    /// Incremental strong closure (Miné): `self` was strongly closed and
    /// consistent before the edge `a → b` of weight `c` and its twin
    /// `b̄ → ā` were tightened. Every new shortest path uses the new edge,
    /// its twin, or both once, so one pass over those candidates
    ///
    /// ```text
    /// i → a → b → j          i → b̄ → ā → j
    /// i → a → b → b̄ → ā → j  i → b̄ → ā → a → b → j
    /// ```
    ///
    /// restores shortest-path closure, and one strengthening pass then
    /// restores strong closure. An inconsistent result shows as a negative
    /// diagonal entry, exactly as after [`Oct::close`].
    fn close_through(&mut self, a: usize, b: usize, c: i64) {
        let d = self.dim();
        let row = |r: usize| self.dbm[r * d..(r + 1) * d].to_vec();
        // The old rows out of `b` and `ā`; by coherence they are also the
        // old columns into `b̄` and `a`: m[i][a] = m[ā][ī], m[i][b̄] = m[b][ī].
        let (from_b, from_na) = (row(b), row(a ^ 1));
        // b → b̄ and ā → a join the new edge to its twin.
        let (b_nb, na_a) = (from_b[b ^ 1], from_na[a]);
        for i in 0..d {
            let (to_a, to_nb) = (from_na[i ^ 1], from_b[i ^ 1]);
            // Cheapest i ⇝ b ending in the new edge, and i ⇝ ā ending in
            // its twin.
            let via_b = badd(to_a, c).min(badd(badd(badd(to_nb, c), na_a), c));
            let via_na = badd(to_nb, c).min(badd(badd(badd(to_a, c), b_nb), c));
            if via_b == INF && via_na == INF {
                continue;
            }
            let cells = &mut self.dbm[i * d..(i + 1) * d];
            for ((cell, &bj), &naj) in cells.iter_mut().zip(&from_b).zip(&from_na) {
                let via = badd(via_b, bj).min(badd(via_na, naj));
                if via < *cell {
                    *cell = via;
                }
            }
        }
        self.strengthen();
        self.closed = true;
    }

    fn index_of(&self, var: &Symbol) -> Option<usize> {
        self.vars.binary_search(var).ok()
    }

    /// The tracked variables, sorted (persistence accessor).
    pub fn vars(&self) -> &[Symbol] {
        &self.vars
    }

    /// The row-major `(2n)²` difference-bound matrix (persistence
    /// accessor).
    pub fn dbm(&self) -> &[i64] {
        &self.dbm
    }

    /// Whether the matrix is currently strongly closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Rebuilds an octagon from its serialized parts, validating the
    /// structural invariants (`dbm` is `(2·|vars|)²` and `vars` is sorted
    /// and duplicate-free). Returns `None` for inconsistent parts, so a
    /// corrupted snapshot can never materialize a malformed matrix.
    ///
    /// The result is always marked **unclosed**: `closed` is a derived
    /// property the exact-assignment fast paths rely on, and trusting a
    /// deserialized flag would let a crafted snapshot smuggle in a
    /// falsely-closed matrix (unsound fast-path answers). Re-deriving
    /// closure costs one `close()` on first use, which the lossy
    /// persistence contract happily pays; `Eq`/`Hash` ignore the flag, so
    /// roundtripped states still compare equal.
    pub fn from_parts(vars: Vec<Symbol>, dbm: Vec<i64>) -> Option<Oct> {
        let d = 2 * vars.len();
        if dbm.len() != d * d || vars.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(Oct {
            vars: vars.into(),
            dbm,
            closed: false,
        })
    }

    /// Adds `var` as an unconstrained tracked variable, rebuilding the
    /// matrix. Returns its index.
    ///
    /// Insertion at sorted position `pos` shifts signed-form indices `≥
    /// 2·pos` up by one pair, so each surviving row splits into two
    /// contiguous runs — copied as slices, no per-entry index mapping.
    /// An unconstrained variable adds no finite path, so `closed` is
    /// preserved as-is.
    fn track(&mut self, var: &Symbol) -> usize {
        if let Some(i) = self.index_of(var) {
            return i;
        }
        let pos = self.vars.binary_search(var).unwrap_err();
        let od = self.dim();
        let nd = od + 2;
        let lo = 2 * pos;
        let mut vars = Vec::with_capacity(self.vars.len() + 1);
        vars.extend_from_slice(&self.vars[..pos]);
        vars.push(var.clone());
        vars.extend_from_slice(&self.vars[pos..]);
        let mut dbm = vec![INF; nd * nd];
        for i in 0..nd {
            dbm[i * nd + i] = 0;
        }
        for i in 0..od {
            let ni = if i < lo { i } else { i + 2 };
            let src = i * od;
            let dst = ni * nd;
            dbm[dst..dst + lo].copy_from_slice(&self.dbm[src..src + lo]);
            dbm[dst + lo + 2..dst + od + 2].copy_from_slice(&self.dbm[src + lo..src + od]);
        }
        self.vars = vars.into();
        self.dbm = dbm;
        pos
    }

    fn unconstrained(vars: Vec<Symbol>) -> Oct {
        let d = 2 * vars.len();
        let mut dbm = vec![INF; d * d];
        for i in 0..d {
            dbm[i * d + i] = 0;
        }
        Oct {
            vars: vars.into(),
            dbm,
            closed: true,
        }
    }

    /// Strong closure: all-pairs shortest paths interleaved with octagonal
    /// strengthening. Returns `false` if a negative cycle (⊥) is found.
    /// The only general closure; [`Oct::close_through`] is its O(d²)
    /// special case and is tested against it.
    fn close(&mut self) -> bool {
        if self.closed {
            return !self.has_negative_diagonal();
        }
        let d = self.dim();
        for k in 0..d {
            for i in 0..d {
                let ik = self.at(i, k);
                if ik == INF {
                    continue;
                }
                for j in 0..d {
                    let kj = self.at(k, j);
                    if kj == INF {
                        continue;
                    }
                    let via = badd(ik, kj);
                    if via < self.at(i, j) {
                        self.set(i, j, via);
                    }
                }
            }
            self.strengthen();
        }
        self.closed = true;
        !self.has_negative_diagonal()
    }

    /// Strengthening: vᵢ − vⱼ ≤ ⌊(vᵢ − vī)/2⌋ + ⌊(vj̄ − vⱼ)/2⌋. At `j = ī`
    /// this rounds the unary bound down to an even number (integer
    /// tightening); at `j = i` it turns an integer-infeasible pair of unary
    /// bounds into a negative diagonal entry.
    fn strengthen(&mut self) {
        let d = self.dim();
        for i in 0..d {
            let half_i = bhalf(self.at(i, i ^ 1));
            if half_i == INF {
                continue;
            }
            for j in 0..d {
                let half_j = bhalf(self.at(j ^ 1, j));
                if half_j == INF {
                    continue;
                }
                let s = badd(half_i, half_j);
                if s < self.at(i, j) {
                    self.set(i, j, s);
                }
            }
        }
    }

    fn has_negative_diagonal(&self) -> bool {
        (0..self.dim()).any(|i| self.at(i, i) < 0)
    }

    /// `self` strongly closed — borrowed when it already is, a closed copy
    /// otherwise — or `None` when it is empty.
    fn closed_view(&self) -> Option<Cow<'_, Oct>> {
        if self.closed {
            return (!self.has_negative_diagonal()).then_some(Cow::Borrowed(self));
        }
        let mut c = self.clone();
        c.close().then_some(Cow::Owned(c))
    }

    /// Removes all constraints mentioning `var` (projection; exact on a
    /// closed matrix), keeping it tracked.
    fn forget(&mut self, var: &Symbol) {
        let Some(x) = self.index_of(var) else { return };
        self.close();
        let d = self.dim();
        for s in 0..2 {
            let row = 2 * x + s;
            for j in 0..d {
                if j != row {
                    self.set(row, j, INF);
                    self.set(j, row, INF);
                }
            }
            self.set(row, row ^ 1, INF);
            self.set(row ^ 1, row, INF);
        }
        // Closure is preserved by exact projection of a closed matrix.
        self.closed = true;
    }

    /// Stops tracking `var` entirely.
    fn untrack(&mut self, var: &Symbol) {
        let Some(pos) = self.index_of(var) else {
            return;
        };
        self.close();
        let old = std::mem::replace(self, Oct::unconstrained(Vec::new()));
        let mut vars = old.vars.to_vec();
        vars.remove(pos);
        *self = Oct::unconstrained(vars);
        // Dropping variable `pos` shifts every later index down by one
        // signed pair; copy surviving rows with plain index arithmetic
        // (projection of a closed matrix stays closed).
        let od = old.dim();
        let skip = |i: usize| -> Option<usize> {
            match i.cmp(&(2 * pos)) {
                std::cmp::Ordering::Less => Some(i),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater if i == 2 * pos + 1 => None,
                std::cmp::Ordering::Greater => Some(i - 2),
            }
        };
        for i in 0..od {
            let Some(ni) = skip(i) else { continue };
            for j in 0..od {
                let Some(nj) = skip(j) else { continue };
                self.set(ni, nj, old.dbm[i * od + j]);
            }
        }
        self.closed = true;
    }

    /// Variable bounds `[lo, hi]` from the (closed) matrix:
    /// `x ≤ m[x⁺][x⁻]/2`, `−x ≤ m[x⁻][x⁺]/2`.
    fn var_interval(&self, var: &Symbol) -> Interval {
        let Some(x) = self.index_of(var) else {
            return Interval::TOP;
        };
        let up = self.at(2 * x, 2 * x + 1);
        let down = self.at(2 * x + 1, 2 * x);
        let hi = if up == INF {
            Bound::PosInf
        } else {
            Bound::Fin(up.div_euclid(2))
        };
        let lo = if down == INF {
            Bound::NegInf
        } else {
            Bound::Fin(-down.div_euclid(2))
        };
        Interval::new(lo, hi)
    }

    /// Constrains `var ∈ iv`.
    fn constrain_interval(&mut self, var: &Symbol, iv: Interval) -> bool {
        if iv.is_empty() {
            return false;
        }
        let x = self.track(var);
        if let Bound::Fin(hi) = iv.hi() {
            self.tighten(2 * x, 2 * x + 1, hi.saturating_mul(2));
        }
        if let Bound::Fin(lo) = iv.lo() {
            self.tighten(2 * x + 1, 2 * x, (-lo).saturating_mul(2));
        }
        true
    }

    // ------------------------------------------------------------------
    // Exact O(d) assignments on a strongly closed matrix (Miné §4.4.1).
    //
    // These substitute the assigned relation directly instead of routing
    // through a temporary and re-running the O(d³) strong closure, and
    // they *preserve* strong closure — which is what keeps the DAIG's
    // transfer edges (the most frequent computation in every demanded
    // cone) cheap. `assign_linear_ref` below is the closure-based
    // reference implementation the tests compare against.
    // ------------------------------------------------------------------

    /// `x := [lo, hi]` (a havoc into an interval) on a strongly closed
    /// matrix. Exact for interval-valued right-hand sides; preserves
    /// closure. The caller guarantees `iv` is non-empty.
    fn assign_interval_closed(&mut self, x: &Symbol, iv: Interval) {
        debug_assert!(self.closed);
        // No `forget(x)` first: every entry mentioning `x` is written
        // below from `iv` and the *other* variables' unary rows, so the
        // O(d) row-clear would be overwritten wholesale.
        let xi = self.track(x);
        let (xp, xn) = (2 * xi, 2 * xi + 1);
        // Upper bounds on x and −x in the ∞-sentinel encoding.
        let ub = match iv.hi() {
            Bound::Fin(h) => h,
            _ => INF,
        };
        let nb = match iv.lo() {
            Bound::Fin(l) => l.saturating_neg(),
            _ => INF,
        };
        let two = |b: i64| if b == INF { INF } else { b.saturating_mul(2) };
        self.set(xp, xn, two(ub));
        self.set(xn, xp, two(nb));
        let d = self.dim();
        for k in 0..d {
            if k == xp || k == xn {
                continue;
            }
            let neg_k = bhalf(self.at(k ^ 1, k));
            let pos_k = bhalf(self.at(k, k ^ 1));
            self.set(xp, k, badd(ub, neg_k));
            self.set(k, xp, badd(pos_k, nb));
            self.set(xn, k, badd(nb, neg_k));
            self.set(k, xn, badd(pos_k, ub));
        }
        self.closed = true;
    }

    /// `x := c` on a strongly closed matrix: the singleton-interval case
    /// of [`Oct::assign_interval_closed`]. Exact; preserves closure.
    fn assign_const_closed(&mut self, x: &Symbol, c: i64) {
        self.assign_interval_closed(x, Interval::constant(c));
    }

    /// `x := sign·y + c` with `x ≠ y` on a strongly closed matrix: copy
    /// `y`'s (possibly negated) rows shifted by `c`. Exact; preserves
    /// closure.
    fn assign_copy_closed(&mut self, x: &Symbol, sign: i64, y: &Symbol, c: i64) {
        debug_assert!(self.closed);
        debug_assert!(x != y);
        self.track(y);
        // As in `assign_interval_closed`, skipping `forget(x)` is safe:
        // the writes below cover every entry mentioning `x` and read only
        // `y`'s rows (`x ≠ y`).
        let xi = self.index_of(x).unwrap_or_else(|| self.track(x));
        let yi = self.index_of(y).expect("tracked");
        let (xp, xn) = (2 * xi, 2 * xi + 1);
        // q is the row expressing `sign·y`.
        let (q, qn) = if sign > 0 {
            (2 * yi, 2 * yi + 1)
        } else {
            (2 * yi + 1, 2 * yi)
        };
        let d = self.dim();
        let neg_c = c.saturating_neg();
        for k in 0..d {
            if k == xp || k == xn {
                continue;
            }
            self.set(xp, k, badd(self.at(q, k), c));
            self.set(k, xp, badd(self.at(k, q), neg_c));
            self.set(xn, k, badd(self.at(qn, k), neg_c));
            self.set(k, xn, badd(self.at(k, qn), c));
        }
        let two_c = c.saturating_mul(2);
        self.set(xp, xn, badd(self.at(q, qn), two_c));
        self.set(xn, xp, badd(self.at(qn, q), two_c.saturating_neg()));
        self.closed = true;
    }

    /// `x := sign·x + c` in place on a strongly closed matrix: shift (and
    /// for `sign < 0` swap) `x`'s row and column. Exact; preserves
    /// closure.
    fn assign_shift_closed(&mut self, x: &Symbol, sign: i64, c: i64) {
        debug_assert!(self.closed);
        let xi = self.track(x);
        let (xp, xn) = (2 * xi, 2 * xi + 1);
        let d = self.dim();
        let neg_c = c.saturating_neg();
        for k in 0..d {
            if k == xp || k == xn {
                continue;
            }
            let (row_p, row_n) = if sign > 0 {
                (self.at(xp, k), self.at(xn, k))
            } else {
                (self.at(xn, k), self.at(xp, k))
            };
            let (col_p, col_n) = if sign > 0 {
                (self.at(k, xp), self.at(k, xn))
            } else {
                (self.at(k, xn), self.at(k, xp))
            };
            self.set(xp, k, badd(row_p, c));
            self.set(xn, k, badd(row_n, neg_c));
            self.set(k, xp, badd(col_p, neg_c));
            self.set(k, xn, badd(col_n, c));
        }
        let (up, down) = if sign > 0 {
            (self.at(xp, xn), self.at(xn, xp))
        } else {
            (self.at(xn, xp), self.at(xp, xn))
        };
        let two_c = c.saturating_mul(2);
        self.set(xp, xn, badd(up, two_c));
        self.set(xn, xp, badd(down, two_c.saturating_neg()));
        self.closed = true;
    }
}

/// A ±1-coefficient linear term `sign·var + offset` or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Linear1 {
    Const(i64),
    /// `sign * var + offset` with `sign ∈ {+1, −1}`.
    Term {
        sign: i64,
        var: Symbol,
        offset: i64,
    },
}

/// Tries to view `e` as `±x + c`.
fn linear1(e: &Expr) -> Option<Linear1> {
    match e {
        Expr::Int(n) => Some(Linear1::Const(*n)),
        Expr::Var(x) => Some(Linear1::Term {
            sign: 1,
            var: x.clone(),
            offset: 0,
        }),
        Expr::Unary(UnOp::Neg, inner) => match linear1(inner)? {
            Linear1::Const(c) => Some(Linear1::Const(c.checked_neg()?)),
            Linear1::Term { sign, var, offset } => Some(Linear1::Term {
                sign: -sign,
                var,
                offset: offset.checked_neg()?,
            }),
        },
        Expr::Binary(BinOp::Add, l, r) => combine(linear1(l)?, linear1(r)?, 1),
        Expr::Binary(BinOp::Sub, l, r) => combine(linear1(l)?, linear1(r)?, -1),
        _ => None,
    }
}

fn combine(l: Linear1, r: Linear1, rsign: i64) -> Option<Linear1> {
    match (l, r) {
        (Linear1::Const(a), Linear1::Const(b)) => {
            Some(Linear1::Const(a.checked_add(rsign.checked_mul(b)?)?))
        }
        (Linear1::Term { sign, var, offset }, Linear1::Const(b)) => Some(Linear1::Term {
            sign,
            var,
            offset: offset.checked_add(rsign.checked_mul(b)?)?,
        }),
        (Linear1::Const(a), Linear1::Term { sign, var, offset }) => Some(Linear1::Term {
            sign: sign.checked_mul(rsign)?,
            var,
            offset: a.checked_add(rsign.checked_mul(offset)?)?,
        }),
        // x ± y is octagonal as a *constraint* but not as a Linear1 value.
        _ => None,
    }
}

/// The octagon abstract domain state.
///
/// The matrix lives behind an [`Arc`]: a transfer that does not change
/// the octagon (skips, converged assumes on the warm path, call returns
/// without a receiver) hands out a shared handle instead of copying a
/// `(2n)²` matrix, and the DAIG's many cells holding equal iterates
/// share one allocation — and one fingerprint. Mutating paths clone the
/// inner [`Oct`] first and seal their result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum OctagonDomain {
    /// Unreachable.
    Bottom,
    /// A (possibly unclosed) octagon, sealed with its fingerprint cache.
    Oct(Arc<SealedOct>),
}

impl OctagonDomain {
    /// Seals a finished octagon into a shareable, immutable state.
    pub fn seal(oct: Oct) -> OctagonDomain {
        OctagonDomain::Oct(Arc::new(SealedOct {
            oct,
            fingerprint: OnceLock::new(),
        }))
    }

    /// The unconstrained state.
    pub fn top() -> OctagonDomain {
        OctagonDomain::seal(Oct::unconstrained(Vec::new()))
    }

    /// The interval of `var` implied by this octagon (`⊤` if untracked,
    /// empty if ⊥).
    pub fn interval_of(&self, var: &str) -> Interval {
        match self {
            OctagonDomain::Bottom => Interval::EMPTY,
            OctagonDomain::Oct(o) => {
                let sym = Symbol::new(var);
                if o.index_of(&sym).is_none() {
                    return Interval::TOP;
                }
                match o.closed_view() {
                    Some(c) => c.var_interval(&sym),
                    None => Interval::EMPTY,
                }
            }
        }
    }

    /// Does this state entail `x − y ≤ c`?
    pub fn entails_diff_le(&self, x: &str, y: &str, c: i64) -> bool {
        match self {
            OctagonDomain::Bottom => true,
            OctagonDomain::Oct(o) => {
                let Some(o) = o.closed_view() else {
                    return true;
                };
                let (Some(xi), Some(yi)) =
                    (o.index_of(&Symbol::new(x)), o.index_of(&Symbol::new(y)))
                else {
                    return false;
                };
                o.at(2 * xi, 2 * yi) <= c
            }
        }
    }

    /// Interval evaluation of an expression using the octagon's per-variable
    /// bounds (used for non-octagonal right-hand sides and by clients).
    pub fn eval_interval(&self, e: &Expr) -> Interval {
        match self {
            OctagonDomain::Bottom => Interval::EMPTY,
            OctagonDomain::Oct(o) => match o.closed_view() {
                Some(c) => eval_iv(&c, e),
                None => Interval::EMPTY,
            },
        }
    }

    fn map(&self, f: impl FnOnce(&mut Oct) -> bool) -> OctagonDomain {
        match self {
            OctagonDomain::Bottom => OctagonDomain::Bottom,
            OctagonDomain::Oct(o) => {
                let mut o = Oct::clone(o);
                if f(&mut o) && o.close() {
                    OctagonDomain::seal(o)
                } else {
                    OctagonDomain::Bottom
                }
            }
        }
    }

    /// Exact transfer for `x := ±y + c` / `x := c`: O(d) substitution on
    /// the strongly closed matrix (see the `*_closed` primitives on
    /// [`Oct`]).
    fn assign_linear(&self, x: &Symbol, lin: &Linear1) -> OctagonDomain {
        self.map(|o| {
            if !o.close() {
                return false;
            }
            match lin {
                Linear1::Const(c) => o.assign_const_closed(x, *c),
                Linear1::Term {
                    sign,
                    var: y,
                    offset,
                } if y == x => {
                    o.assign_shift_closed(x, *sign, *offset);
                }
                Linear1::Term {
                    sign,
                    var: y,
                    offset,
                } => {
                    o.assign_copy_closed(x, *sign, y, *offset);
                }
            }
            true
        })
    }

    /// Closure-based reference implementation of [`Self::assign_linear`]
    /// (the temporary-variable route); kept as the oracle the fast-path
    /// tests compare against.
    #[cfg(test)]
    fn assign_linear_ref(&self, x: &Symbol, lin: &Linear1) -> OctagonDomain {
        self.map(|o| {
            match lin {
                Linear1::Const(c) => {
                    o.forget(x);
                    let xi = o.track(x);
                    o.tighten(2 * xi, 2 * xi + 1, c.saturating_mul(2));
                    o.tighten(2 * xi + 1, 2 * xi, (-c).saturating_mul(2));
                }
                Linear1::Term {
                    sign,
                    var: y,
                    offset,
                } => {
                    // Route through a reserved temporary so `x := ±x + c`
                    // works uniformly.
                    let tmp = Symbol::new("$oct$tmp");
                    o.forget(&tmp);
                    let t = o.track(&tmp);
                    let yi = o.track(y);
                    if *sign > 0 {
                        // t − y ≤ offset and y − t ≤ −offset
                        o.tighten(2 * t, 2 * yi, *offset);
                        o.tighten(2 * yi, 2 * t, offset.saturating_neg());
                    } else {
                        // t + y ≤ offset and −t − y ≤ −offset
                        o.tighten(2 * t, 2 * yi + 1, *offset);
                        o.tighten(2 * yi + 1, 2 * t, offset.saturating_neg());
                    }
                    if !o.close() {
                        return false;
                    }
                    o.forget(x);
                    // Copy t's row/column onto x, then drop t.
                    let xi = o.track(x);
                    let t = o.index_of(&tmp).expect("tracked");
                    let d = o.dim();
                    for s1 in 0..2 {
                        for j in 0..d {
                            let v = o.at(2 * t + s1, j);
                            if j / 2 != t && j / 2 != xi {
                                o.tighten(2 * xi + s1, j, v);
                            }
                            let v2 = o.at(j, 2 * t + s1);
                            if j / 2 != t && j / 2 != xi {
                                o.tighten(j, 2 * xi + s1, v2);
                            }
                        }
                        // x's own range: from t's unary bounds.
                        let up = o.at(2 * t, 2 * t + 1);
                        let down = o.at(2 * t + 1, 2 * t);
                        o.tighten(2 * xi, 2 * xi + 1, up);
                        o.tighten(2 * xi + 1, 2 * xi, down);
                    }
                    o.untrack(&tmp);
                }
            }
            true
        })
    }

    /// Adds the octagonal constraints implied by `l op r` (when any),
    /// returning `None` if nothing can be extracted.
    fn assume_cmp(&self, op: BinOp, l: &Expr, r: &Expr) -> Option<OctagonDomain> {
        // Normalize `l op r` to `Σ sᵢ·xᵢ ≤ c` over the difference l − r.
        let (lt, lc) = linear_terms(l)?;
        let (rt, rc) = linear_terms(r)?;
        let mut terms = lt;
        for (s, v) in rt {
            terms.push((-s, v));
        }
        let (terms, k) = merge_terms(terms)?;
        // l − r + (lc − rc) relates to 0 by `op`; move constants right:
        // Σ terms ≤ rhs_const − (lc − rc) [+ slack for strictness].
        let base = rc.checked_sub(lc)?;
        let mut out = match self {
            OctagonDomain::Bottom => return Some(OctagonDomain::Bottom),
            OctagonDomain::Oct(o) => Oct::clone(o),
        };
        let ok = match op {
            BinOp::Lt => add_sum_le(&mut out, &terms, k, base.checked_sub(1)?),
            BinOp::Le => add_sum_le(&mut out, &terms, k, base),
            BinOp::Gt => {
                let neg: Vec<(i64, Symbol)> = terms.iter().map(|(s, v)| (-s, v.clone())).collect();
                add_sum_le(&mut out, &neg, k, base.checked_neg()?.checked_sub(1)?)
            }
            BinOp::Ge => {
                let neg: Vec<(i64, Symbol)> = terms.iter().map(|(s, v)| (-s, v.clone())).collect();
                add_sum_le(&mut out, &neg, k, base.checked_neg()?)
            }
            BinOp::Eq => {
                let neg: Vec<(i64, Symbol)> = terms.iter().map(|(s, v)| (-s, v.clone())).collect();
                add_sum_le(&mut out, &terms, k, base)
                    && add_sum_le(&mut out, &neg, k, base.checked_neg()?)
            }
            BinOp::Ne => true, // disjunctive; sound to skip
            _ => return None,
        };
        if !ok || !out.close() {
            return Some(OctagonDomain::Bottom);
        }
        Some(OctagonDomain::seal(out))
    }

    /// Refines this state by assuming `cond` has truth value `expected`.
    fn refine(&self, cond: &Expr, expected: bool) -> OctagonDomain {
        if self.is_bottom() {
            return OctagonDomain::Bottom;
        }
        match cond {
            Expr::Bool(b) => {
                if *b == expected {
                    self.clone()
                } else {
                    OctagonDomain::Bottom
                }
            }
            Expr::Unary(UnOp::Not, inner) => self.refine(inner, !expected),
            Expr::Binary(BinOp::And, l, r) if expected => self.refine(l, true).refine(r, true),
            Expr::Binary(BinOp::And, l, r) => self.refine(l, false).join(&self.refine(r, false)),
            Expr::Binary(BinOp::Or, l, r) if expected => {
                self.refine(l, true).join(&self.refine(r, true))
            }
            Expr::Binary(BinOp::Or, l, r) => self.refine(l, false).refine(r, false),
            Expr::Binary(op, l, r) if op.is_comparison() => {
                let op = if expected {
                    *op
                } else {
                    op.negate_comparison().expect("comparison")
                };
                match self.assume_cmp(op, l, r) {
                    Some(s) => s,
                    None => self.clone(), // not octagonal; no refinement
                }
            }
            _ => self.clone(),
        }
    }
}

/// Flattens an expression into `Σ sᵢ·xᵢ + c` with `sᵢ ∈ {+1, −1}` (before
/// merging). Returns `None` for non-linear expressions.
fn linear_terms(e: &Expr) -> Option<(Vec<(i64, Symbol)>, i64)> {
    match e {
        Expr::Int(n) => Some((Vec::new(), *n)),
        Expr::Var(x) => Some((vec![(1, x.clone())], 0)),
        Expr::Unary(UnOp::Neg, inner) => {
            let (ts, c) = linear_terms(inner)?;
            Some((
                ts.into_iter().map(|(s, v)| (-s, v)).collect(),
                c.checked_neg()?,
            ))
        }
        Expr::Binary(BinOp::Add, l, r) => {
            let (mut lt, lc) = linear_terms(l)?;
            let (rt, rc) = linear_terms(r)?;
            lt.extend(rt);
            Some((lt, lc.checked_add(rc)?))
        }
        Expr::Binary(BinOp::Sub, l, r) => {
            let (mut lt, lc) = linear_terms(l)?;
            let (rt, rc) = linear_terms(r)?;
            lt.extend(rt.into_iter().map(|(s, v)| (-s, v)));
            Some((lt, lc.checked_sub(rc)?))
        }
        _ => None,
    }
}

/// Merges duplicate variables; the result is octagonal iff it is one
/// variable with coefficient ±1/±2 or two variables with coefficients ±1.
/// Returns the merged terms and a "scale" `k`: `k = 2` means the single
/// term carries coefficient ±2 (so bounds must not be doubled again).
fn merge_terms(terms: Vec<(i64, Symbol)>) -> Option<(Vec<(i64, Symbol)>, i64)> {
    let mut coefs: std::collections::BTreeMap<Symbol, i64> = std::collections::BTreeMap::new();
    for (s, v) in terms {
        *coefs.entry(v).or_insert(0) += s;
    }
    coefs.retain(|_, c| *c != 0);
    let merged: Vec<(i64, Symbol)> = coefs.into_iter().map(|(v, c)| (c, v)).collect();
    match merged.as_slice() {
        [] => Some((Vec::new(), 1)),
        [(c, _)] if c.abs() == 1 => Some((merged, 1)),
        [(c, _)] if c.abs() == 2 => Some((merged, 2)),
        [(c1, _), (c2, _)] if c1.abs() == 1 && c2.abs() == 1 => Some((merged, 1)),
        _ => None,
    }
}

impl Oct {
    /// Read-only twin of [`add_sum_le`]: would adding `Σ terms ≤ bound`
    /// change nothing? True iff every cell [`add_sum_le`] would
    /// [`Oct::tighten`] already carries a bound at least as tight (so
    /// the tighten no-ops) and every variable it would [`Oct::track`] is
    /// already tracked (so the matrix is not rebuilt). Shares
    /// [`add_sum_le`]'s cell arithmetic ([`sum_le_cell`]) — the staged
    /// assume fast path relies on "implied ⟹ bit-equal result".
    fn implies_sum_le(&self, terms: &[(i64, Symbol)], k: i64, bound: i64) -> bool {
        match terms {
            [] => 0 <= bound,
            [_] | [_, _] => sum_le_cell(|v| self.index_of(v), terms, k, bound)
                .is_some_and(|(i, j, c)| self.at(i, j) <= c),
            // `add_sum_le` ignores longer sums (unreachable after
            // `merge_terms`), mutating nothing.
            _ => true,
        }
    }
}

/// Adds `Σ terms ≤ bound` to `o` (terms as produced by [`merge_terms`];
/// `k = 2` marks a doubled single-variable constraint `±2x ≤ bound`).
/// Returns `false` on an immediately contradictory constant constraint.
fn add_sum_le(o: &mut Oct, terms: &[(i64, Symbol)], k: i64, bound: i64) -> bool {
    if terms.is_empty() {
        return 0 <= bound;
    }
    if let Some((i, j, c)) = sum_le_cell(|v| Some(o.track(v)), terms, k, bound) {
        o.tighten(i, j, c);
    }
    true
}

/// The cell `(i, j)` and bound `c` with which `Σ terms ≤ bound` reads
/// `vᵢ − vⱼ ≤ c`, given each variable's `index` (terms are sorted by
/// variable, so tracking `y` after `x` never moves `x`). `None` when a
/// variable has no index or the sum is not octagonal (unreachable after
/// [`merge_terms`]).
fn sum_le_cell(
    mut index: impl FnMut(&Symbol) -> Option<usize>,
    terms: &[(i64, Symbol)],
    k: i64,
    bound: i64,
) -> Option<(usize, usize, i64)> {
    match terms {
        [(c, x)] => {
            let xi = index(x)?;
            let doubled = if k == 2 {
                bound
            } else {
                bound.saturating_mul(2)
            };
            Some(if *c > 0 {
                (2 * xi, 2 * xi + 1, doubled) // 2x ≤ …
            } else {
                (2 * xi + 1, 2 * xi, doubled) // −2x ≤ …
            })
        }
        [(c1, x), (c2, y)] => {
            let xi = index(x)?;
            let yi = index(y)?;
            let (i, j) = match (*c1 > 0, *c2 > 0) {
                (true, true) => (2 * xi, 2 * yi + 1), // x + y ≤ c ⟺ x − (−y) ≤ c
                (true, false) => (2 * xi, 2 * yi),    // x − y ≤ c
                (false, true) => (2 * yi, 2 * xi),    // y − x ≤ c
                (false, false) => (2 * xi + 1, 2 * yi), // −x − y ≤ c
            };
            Some((i, j, bound))
        }
        _ => None,
    }
}

/// Interval evaluation over a closed octagon. Two-variable sums and
/// differences read the relational DBM entries directly (e.g. the bound on
/// `j − i` comes from `m[j⁺][i⁺]`), which is strictly tighter than interval
/// arithmetic on the per-variable ranges.
fn eval_iv(o: &Oct, e: &Expr) -> Interval {
    match e {
        Expr::Int(n) => Interval::constant(*n),
        Expr::Var(x) => {
            if o.index_of(x).is_some() {
                o.var_interval(x)
            } else {
                Interval::TOP
            }
        }
        Expr::Unary(UnOp::Neg, inner) => eval_iv(o, inner).neg(),
        Expr::Binary(op, l, r) => {
            let fallback = {
                let (a, b) = (eval_iv(o, l), eval_iv(o, r));
                match op {
                    BinOp::Add => a.add(&b),
                    BinOp::Sub => a.sub(&b),
                    BinOp::Mul => a.mul(&b),
                    BinOp::Div => a.div(&b),
                    BinOp::Mod => a.rem(&b),
                    _ => Interval::TOP, // non-numeric result
                }
            };
            match (op, &**l, &**r) {
                (BinOp::Sub | BinOp::Add, Expr::Var(x), Expr::Var(y)) => {
                    let (Some(xi), Some(yi)) = (o.index_of(x), o.index_of(y)) else {
                        return fallback;
                    };
                    // x − y ≤ m[x⁺][y⁺]; −(x − y) ≤ m[y⁺][x⁺]
                    // x + y ≤ m[x⁺][y⁻]; −(x + y) ≤ m[x⁻][y⁺]
                    let (up, down) = if *op == BinOp::Sub {
                        (o.at(2 * xi, 2 * yi), o.at(2 * yi, 2 * xi))
                    } else {
                        (o.at(2 * xi, 2 * yi + 1), o.at(2 * xi + 1, 2 * yi))
                    };
                    let hi = if up == INF {
                        Bound::PosInf
                    } else {
                        Bound::Fin(up)
                    };
                    let lo = if down == INF {
                        Bound::NegInf
                    } else {
                        Bound::Fin(down.saturating_neg())
                    };
                    Interval::new(lo, hi).meet(&fallback)
                }
                _ => fallback,
            }
        }
        _ => Interval::TOP,
    }
}

impl fmt::Display for OctagonDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OctagonDomain::Bottom => write!(f, "⊥"),
            OctagonDomain::Oct(o) => {
                let Some(c) = o.closed_view() else {
                    return write!(f, "⊥");
                };
                write!(f, "{{")?;
                let mut first = true;
                for (i, x) in c.vars.iter().enumerate() {
                    let iv = c.var_interval(x);
                    if iv != Interval::TOP {
                        if !first {
                            write!(f, ", ")?;
                        }
                        write!(f, "{x} ∈ {iv}")?;
                        first = false;
                    }
                    for (j, y) in c.vars.iter().enumerate().skip(i + 1) {
                        let d1 = c.at(2 * i, 2 * j);
                        if d1 != INF {
                            if !first {
                                write!(f, ", ")?;
                            }
                            write!(f, "{x} - {y} ≤ {d1}")?;
                            first = false;
                        }
                        let d2 = c.at(2 * i, 2 * j + 1);
                        if d2 != INF {
                            if !first {
                                write!(f, ", ")?;
                            }
                            write!(f, "{x} + {y} ≤ {d2}")?;
                            first = false;
                        }
                    }
                }
                write!(f, "}}")
            }
        }
    }
}

impl AbstractDomain for OctagonDomain {
    fn bottom() -> Self {
        OctagonDomain::Bottom
    }

    fn is_bottom(&self) -> bool {
        matches!(self, OctagonDomain::Bottom)
    }

    fn entry_default(_params: &[Symbol]) -> Self {
        OctagonDomain::top()
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (OctagonDomain::Bottom, x) | (x, OctagonDomain::Bottom) => x.clone(),
            (OctagonDomain::Oct(a), OctagonDomain::Oct(b)) => {
                // Fast path: identical tracked sets and both already
                // strongly closed (the common case at join points, since
                // cell values are stored closed) — one clone, one
                // pointwise max.
                if a.vars == b.vars && a.closed && b.closed {
                    if a.has_negative_diagonal() {
                        return OctagonDomain::Oct(b.clone());
                    }
                    if b.has_negative_diagonal() {
                        return OctagonDomain::Oct(a.clone());
                    }
                    let mut out = Oct::clone(a);
                    for (o, &bv) in out.dbm.iter_mut().zip(&b.dbm) {
                        if bv > *o {
                            *o = bv;
                        }
                    }
                    // Pointwise max of closed matrices is closed.
                    out.closed = true;
                    return OctagonDomain::seal(out);
                }
                let mut a = Oct::clone(a);
                let mut b = Oct::clone(b);
                if !a.close() {
                    return OctagonDomain::seal(b);
                }
                if !b.close() {
                    return OctagonDomain::seal(a);
                }
                // Tracked set: intersection (a variable missing on one side
                // is unconstrained there, so its join is ⊤).
                let common: Vec<Symbol> = a
                    .vars
                    .iter()
                    .filter(|v| b.index_of(v).is_some())
                    .cloned()
                    .collect();
                let snapshot = Arc::clone(&a.vars);
                for v in snapshot.iter() {
                    if !common.contains(v) {
                        a.untrack(v);
                    }
                }
                let snapshot = Arc::clone(&b.vars);
                for v in snapshot.iter() {
                    if !common.contains(v) {
                        b.untrack(v);
                    }
                }
                debug_assert_eq!(a.vars, b.vars);
                let mut out = a;
                for (o, &bv) in out.dbm.iter_mut().zip(&b.dbm) {
                    if bv > *o {
                        *o = bv;
                    }
                }
                // Pointwise max of closed matrices is closed.
                out.closed = true;
                OctagonDomain::seal(out)
            }
        }
    }

    fn widen(&self, next: &Self) -> Self {
        match (self, next) {
            (OctagonDomain::Bottom, x) => x.clone(),
            (x, OctagonDomain::Bottom) => x.clone(),
            (OctagonDomain::Oct(a), OctagonDomain::Oct(b)) => {
                // Close the new iterate (right), NOT the accumulator (left):
                // closing the widening output would defeat convergence.
                let Some(mut b) = b.closed_view() else {
                    return self.clone();
                };
                let mut out = Oct::clone(a);
                if out.vars != b.vars {
                    // Align variables: intersection.
                    let common: Vec<Symbol> = out
                        .vars
                        .iter()
                        .filter(|v| b.index_of(v).is_some())
                        .cloned()
                        .collect();
                    let snapshot = Arc::clone(&out.vars);
                    for v in snapshot.iter() {
                        if !common.contains(v) {
                            out.untrack(v);
                        }
                    }
                    let snapshot = Arc::clone(&b.vars);
                    for v in snapshot.iter() {
                        if !common.contains(v) {
                            b.to_mut().untrack(v);
                        }
                    }
                }
                for (o, &bv) in out.dbm.iter_mut().zip(&b.dbm) {
                    if bv > *o {
                        *o = INF;
                    }
                }
                out.closed = false;
                OctagonDomain::seal(out)
            }
        }
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (OctagonDomain::Bottom, _) => true,
            (OctagonDomain::Oct(a), OctagonDomain::Bottom) => a.closed_view().is_none(),
            (OctagonDomain::Oct(a), OctagonDomain::Oct(b)) => {
                let Some(a) = a.closed_view() else {
                    return true;
                };
                let Some(b) = b.closed_view() else {
                    return false;
                };
                // Every constraint of b must be implied by a; variables a
                // does not track are unconstrained (∞) on a's side.
                for (j1, v1) in b.vars.iter().enumerate() {
                    let a1 = a.index_of(v1);
                    for (j2, v2) in b.vars.iter().enumerate() {
                        let a2 = a.index_of(v2);
                        for s1 in 0..2 {
                            for s2 in 0..2 {
                                if j1 == j2 && s1 == s2 {
                                    continue; // diagonal is always 0
                                }
                                let bb = b.at(2 * j1 + s1, 2 * j2 + s2);
                                if bb == INF {
                                    continue;
                                }
                                let av = match (a1, a2) {
                                    (Some(i1), Some(i2)) => a.at(2 * i1 + s1, 2 * i2 + s2),
                                    _ => INF,
                                };
                                if av > bb {
                                    return false;
                                }
                            }
                        }
                    }
                }
                true
            }
        }
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        if self.is_bottom() {
            return OctagonDomain::Bottom;
        }
        match stmt {
            Stmt::Skip | Stmt::Print(_) | Stmt::FieldWrite(..) | Stmt::ArrayWrite(..) => {
                // Arrays and heap are untracked; an array write cannot
                // change any tracked integer variable (arrays are values
                // and array-valued variables are never tracked).
                self.clone()
            }
            Stmt::Assign(x, e) => {
                if let Some(lin) = linear1(e) {
                    self.assign_linear(x, &lin)
                } else {
                    let iv = self.eval_interval(e);
                    if iv.is_empty() {
                        return OctagonDomain::Bottom;
                    }
                    let numeric = expr_definitely_numeric(e);
                    self.map(|o| {
                        if !o.close() {
                            return false;
                        }
                        if numeric {
                            o.assign_interval_closed(x, iv);
                        } else {
                            o.forget(x);
                            o.untrack(x);
                        }
                        true
                    })
                }
            }
            Stmt::Assume(e) => self.refine(e, true),
            Stmt::Call { lhs, .. } => match lhs {
                Some(x) => self.map(|o| {
                    o.untrack(x);
                    true
                }),
                None => self.clone(),
            },
        }
    }

    fn compile_transfer(stmt: &Stmt) -> Option<crate::compile::CompiledTransfer<Self>> {
        <OctagonDomain as crate::compile::CompileTransfer>::stage(stmt)
    }

    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self {
        if self.is_bottom() {
            return OctagonDomain::Bottom;
        }
        // Assign temporaries $argᵢ := actualᵢ in the caller state (keeping
        // relations between arguments), project onto them, then rename.
        let mut cur = self.clone();
        let temps: Vec<Symbol> = (0..callee_params.len())
            .map(|i| Symbol::new(format!("$arg{i}")))
            .collect();
        for (t, a) in temps.iter().zip(site.args) {
            cur = cur.transfer(&Stmt::Assign(t.clone(), a.clone()));
        }
        let OctagonDomain::Oct(o) = cur else {
            return OctagonDomain::Bottom;
        };
        // `cur` is locally owned, so this is normally a move, not a copy.
        let mut o = Arc::try_unwrap(o)
            .map(SealedOct::into_oct)
            .unwrap_or_else(|shared| Oct::clone(&shared));
        if !o.close() {
            return OctagonDomain::Bottom;
        }
        let snapshot = Arc::clone(&o.vars);
        for v in snapshot.iter() {
            if !temps.contains(v) {
                o.untrack(v);
            }
        }
        // Rename $argᵢ → paramᵢ by rebuilding.
        let mut out = Oct::unconstrained(Vec::new());
        for p in callee_params {
            out.track(p);
        }
        for (i, t1) in temps.iter().enumerate() {
            let Some(o1) = o.index_of(t1) else { continue };
            let n1 = out.index_of(&callee_params[i]).expect("tracked");
            for (j, t2) in temps.iter().enumerate() {
                let Some(o2) = o.index_of(t2) else { continue };
                let n2 = out.index_of(&callee_params[j]).expect("tracked");
                for s1 in 0..2 {
                    for s2 in 0..2 {
                        out.set(2 * n1 + s1, 2 * n2 + s2, o.at(2 * o1 + s1, 2 * o2 + s2));
                    }
                }
            }
        }
        out.closed = false;
        OctagonDomain::seal(out).map(|_| true)
    }

    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self {
        if self.is_bottom() || callee_exit.is_bottom() {
            return OctagonDomain::Bottom;
        }
        match site.lhs {
            Some(x) => {
                let ret = callee_exit.interval_of(RETURN_VAR);
                self.map(|o| {
                    o.forget(x);
                    if ret == Interval::TOP {
                        // The callee may return a non-numeric value.
                        o.untrack(x);
                        true
                    } else {
                        o.constrain_interval(x, ret)
                    }
                })
            }
            None => self.clone(),
        }
    }

    fn models(&self, concrete: &ConcreteState) -> bool {
        match self {
            OctagonDomain::Bottom => false,
            OctagonDomain::Oct(o) => {
                // Every tracked variable present in the concrete state must
                // be an integer satisfying all raw constraints (raw entries
                // are valid constraints whether or not the matrix is
                // closed). Tracked-but-absent variables are unconstrained
                // in the concrete state, so rows mentioning them cannot be
                // checked (and need not be: γ only constrains defined vars).
                let mut vals: Vec<Option<i64>> = Vec::with_capacity(o.n());
                for v in o.vars.iter() {
                    match concrete.env.get(v) {
                        Some(Value::Int(n)) => vals.push(Some(*n)),
                        Some(_) => return false, // tracked var must be numeric
                        None => vals.push(None),
                    }
                }
                let signed = |i: usize| -> Option<i128> {
                    let v = vals[i / 2]?;
                    Some(if i.is_multiple_of(2) {
                        v as i128
                    } else {
                        -(v as i128)
                    })
                };
                let d = o.dim();
                for i in 0..d {
                    for j in 0..d {
                        let c = o.at(i, j);
                        if c == INF {
                            continue;
                        }
                        if let (Some(vi), Some(vj)) = (signed(i), signed(j)) {
                            if vi - vj > c as i128 {
                                return false;
                            }
                        }
                    }
                }
                true
            }
        }
    }
}

impl crate::compile::CompileTransfer for OctagonDomain {
    /// Stages a statement against the octagon domain. The win here is
    /// real: the interpreter re-runs [`linear1`] (an AST walk with
    /// checked arithmetic) and [`expr_definitely_numeric`] on every
    /// evaluation before reaching the O(d) `assign_*_closed` primitives;
    /// staging runs the classification once and the closure jumps
    /// straight to the same primitive, so the results are bit-identical
    /// by construction.
    fn stage(stmt: &Stmt) -> Option<crate::compile::CompiledTransfer<Self>> {
        use crate::compile::{CompiledTransfer, TransferShape};
        match stmt {
            Stmt::Skip | Stmt::Print(_) | Stmt::FieldWrite(..) | Stmt::ArrayWrite(..) => {
                // Identical to the interpreter on both variants: Bottom
                // clones to Bottom, an octagon clones to itself.
                Some(CompiledTransfer::new(
                    TransferShape::Identity,
                    |pre: &OctagonDomain| pre.clone(),
                ))
            }
            Stmt::Assign(x, e) => {
                if let Some(lin) = linear1(e) {
                    let shape = match &lin {
                        Linear1::Const(_) => TransferShape::ConstAssign,
                        Linear1::Term { var, .. } if var == x => TransferShape::ShiftAssign,
                        Linear1::Term { .. } => TransferShape::CopyAssign,
                    };
                    let x = x.clone();
                    Some(CompiledTransfer::new(shape, move |pre: &OctagonDomain| {
                        if pre.is_bottom() {
                            return OctagonDomain::Bottom;
                        }
                        pre.assign_linear(&x, &lin)
                    }))
                } else {
                    // Non-octagonal right-hand side: the interval
                    // evaluation depends on the pre-state, but the
                    // numericity classification does not — stage it.
                    let numeric = expr_definitely_numeric(e);
                    let x = x.clone();
                    let e = e.clone();
                    Some(CompiledTransfer::new(
                        TransferShape::Assign,
                        move |pre: &OctagonDomain| {
                            if pre.is_bottom() {
                                return OctagonDomain::Bottom;
                            }
                            let iv = pre.eval_interval(&e);
                            if iv.is_empty() {
                                return OctagonDomain::Bottom;
                            }
                            pre.map(|o| {
                                if !o.close() {
                                    return false;
                                }
                                if numeric {
                                    o.assign_interval_closed(&x, iv);
                                } else {
                                    o.forget(&x);
                                    o.untrack(&x);
                                }
                                true
                            })
                        },
                    ))
                }
            }
            Stmt::Assume(e) => {
                // Stage the whole `refine` recursion: the interpreter
                // re-walks the condition AST per evaluation, re-running
                // `linear_terms`/`merge_terms` (allocations + checked
                // arithmetic) for every comparison leaf. All of that is a
                // pure function of the expression, so it is hoisted here
                // into an [`AssumePlan`]; applying the plan jumps straight
                // to `add_sum_le` + `close`.
                let plan = AssumePlan::stage(e, true);
                Some(CompiledTransfer::new(
                    TransferShape::Assume,
                    move |pre: &OctagonDomain| plan.apply(pre),
                ))
            }
            // Calls route through the interprocedural resolver; their
            // meaning is not a function of the statement text alone.
            Stmt::Call { .. } => None,
        }
    }
}

/// A staged [`OctagonDomain::refine`]: the condition's boolean structure
/// and every comparison leaf's constraint extraction, precomputed at
/// stage time. [`AssumePlan::apply`] must take exactly the branches
/// `refine` would — the bit-identity contract of [`crate::compile`]
/// rests on each variant below mirroring one arm of `refine` /
/// `assume_cmp`.
/// One staged `add_sum_le` invocation: the `±1`-signed term list, its
/// length `k`, and the bound — the exact argument triple `assume_cmp`
/// passes through.
type SumLeArgs = (Vec<(i64, Symbol)>, i64, i64);

enum AssumePlan {
    /// `Expr::Bool` leaf (or any always-`const` outcome): `true` clones,
    /// `false` is `Bottom` — `refine`'s literal arm.
    Const(bool),
    /// No refinement possible (non-comparison leaf, or constraint
    /// extraction failed before any state was touched): clone, exactly
    /// `refine`'s `self.clone()` fallbacks.
    Keep,
    /// A comparison leaf whose extraction succeeded: the `(terms, k,
    /// bound)` list `assume_cmp` would feed to [`add_sum_le`], in order
    /// (two entries for `Eq`, none for `Ne`), followed by `close`.
    Cmp(Vec<SumLeArgs>),
    /// A comparison leaf whose *bound* arithmetic overflows in a place
    /// `assume_cmp` only reaches lazily (`Eq` with `base == i64::MIN`:
    /// the second bound's `checked_neg()?` sits after a short-circuiting
    /// `&&`, so the outcome depends on the first add). Unstageable —
    /// run the interpreter's own leaf at apply time.
    Raw(BinOp, Expr, Expr),
    /// `And` under `expected` / `Or` under `!expected`: refine left,
    /// then refine right on the result.
    Seq(Box<AssumePlan>, Box<AssumePlan>),
    /// `Or` under `expected` / `And` under `!expected`: refine both
    /// from the same pre-state and join.
    Join(Box<AssumePlan>, Box<AssumePlan>),
}

impl AssumePlan {
    /// Mirrors `refine(cond, expected)`'s match, one variant per arm.
    fn stage(cond: &Expr, expected: bool) -> AssumePlan {
        match cond {
            Expr::Bool(b) => AssumePlan::Const(*b == expected),
            Expr::Unary(UnOp::Not, inner) => AssumePlan::stage(inner, !expected),
            Expr::Binary(BinOp::And, l, r) if expected => AssumePlan::Seq(
                Box::new(AssumePlan::stage(l, true)),
                Box::new(AssumePlan::stage(r, true)),
            ),
            Expr::Binary(BinOp::And, l, r) => AssumePlan::Join(
                Box::new(AssumePlan::stage(l, false)),
                Box::new(AssumePlan::stage(r, false)),
            ),
            Expr::Binary(BinOp::Or, l, r) if expected => AssumePlan::Join(
                Box::new(AssumePlan::stage(l, true)),
                Box::new(AssumePlan::stage(r, true)),
            ),
            Expr::Binary(BinOp::Or, l, r) => AssumePlan::Seq(
                Box::new(AssumePlan::stage(l, false)),
                Box::new(AssumePlan::stage(r, false)),
            ),
            Expr::Binary(op, l, r) if op.is_comparison() => {
                let op = if expected {
                    *op
                } else {
                    op.negate_comparison().expect("comparison")
                };
                AssumePlan::stage_cmp(op, l, r)
            }
            _ => AssumePlan::Keep,
        }
    }

    /// Mirrors `assume_cmp`'s state-independent prefix. Every `?` here
    /// fires before `assume_cmp` touches the (cloned) state, so mapping
    /// failure to [`AssumePlan::Keep`] reproduces `refine`'s
    /// `None => self.clone()` exactly — except `Eq`'s second bound,
    /// which `assume_cmp` computes lazily after the first `add_sum_le`
    /// and therefore cannot be hoisted (see [`AssumePlan::Raw`]).
    fn stage_cmp(op: BinOp, l: &Expr, r: &Expr) -> AssumePlan {
        let extract = || -> Option<Vec<SumLeArgs>> {
            let (lt, lc) = linear_terms(l)?;
            let (rt, rc) = linear_terms(r)?;
            let mut terms = lt;
            for (s, v) in rt {
                terms.push((-s, v));
            }
            let (terms, k) = merge_terms(terms)?;
            let base = rc.checked_sub(lc)?;
            let neg = |terms: &[(i64, Symbol)]| -> Vec<(i64, Symbol)> {
                terms.iter().map(|(s, v)| (-s, v.clone())).collect()
            };
            Some(match op {
                BinOp::Lt => vec![(terms, k, base.checked_sub(1)?)],
                BinOp::Le => vec![(terms, k, base)],
                BinOp::Gt => {
                    let n = neg(&terms);
                    vec![(n, k, base.checked_neg()?.checked_sub(1)?)]
                }
                BinOp::Ge => {
                    let n = neg(&terms);
                    vec![(n, k, base.checked_neg()?)]
                }
                BinOp::Eq => match base.checked_neg() {
                    Some(nb) => {
                        let n = neg(&terms);
                        vec![(terms, k, base), (n, k, nb)]
                    }
                    // `assume_cmp` only evaluates this negation after the
                    // first constraint is added; defer to the interpreter.
                    None => return None,
                },
                BinOp::Ne => Vec::new(), // disjunctive; sound to skip
                _ => return None,
            })
        };
        match extract() {
            Some(adds) => AssumePlan::Cmp(adds),
            // Distinguish "extraction failed before any state was
            // touched" (→ clone, like `refine`) from the lazy-`Eq`
            // overflow (→ interpret the leaf). The former is every case
            // where a `?` above fires on expression-only data; only the
            // `Eq` branch returns `None` with state-order significance.
            None => {
                if op == BinOp::Eq && Self::eq_bound_is_lazy(l, r) {
                    AssumePlan::Raw(op, l.clone(), r.clone())
                } else {
                    AssumePlan::Keep
                }
            }
        }
    }

    /// True iff `l == r` extracts cleanly up to `base` but
    /// `base.checked_neg()` overflows — the one failure `assume_cmp`
    /// reaches only after mutating its working copy.
    fn eq_bound_is_lazy(l: &Expr, r: &Expr) -> bool {
        let probe = || -> Option<i64> {
            let (lt, lc) = linear_terms(l)?;
            let (rt, rc) = linear_terms(r)?;
            let mut terms = lt;
            for (s, v) in rt {
                terms.push((-s, v));
            }
            merge_terms(terms)?;
            rc.checked_sub(lc)
        };
        matches!(probe(), Some(base) if base.checked_neg().is_none())
    }

    /// Applies the staged plan; branch-for-branch equal to
    /// `refine(cond, expected)` on the staged `(cond, expected)`.
    fn apply(&self, pre: &OctagonDomain) -> OctagonDomain {
        if pre.is_bottom() {
            return OctagonDomain::Bottom;
        }
        match self {
            AssumePlan::Const(true) | AssumePlan::Keep => pre.clone(),
            AssumePlan::Const(false) => OctagonDomain::Bottom,
            AssumePlan::Cmp(adds) => {
                let o = match pre {
                    OctagonDomain::Bottom => return OctagonDomain::Bottom,
                    OctagonDomain::Oct(o) => o,
                };
                // Staged fast path: on a closed, consistent octagon that
                // already implies every staged constraint, `add_sum_le`
                // tightens nothing and `close` is a no-op, so the
                // interpreter's result is bit-equal to the pre-state —
                // share it instead of copying the matrix. (This is the
                // warm-path common case: at a converged fixpoint, loop
                // guards no longer tighten anything.) The interpreter
                // cannot make this check without first re-extracting the
                // constraints, which is exactly what staging hoisted.
                if o.is_closed()
                    && !o.has_negative_diagonal()
                    && adds
                        .iter()
                        .all(|(terms, k, bound)| o.implies_sum_le(terms, *k, *bound))
                {
                    return OctagonDomain::Oct(Arc::clone(o));
                }
                let mut out = Oct::clone(o);
                // Sequential-with-break mirrors `assume_cmp`'s
                // short-circuiting `&&` (a failed first `Eq` constraint
                // skips the second).
                let mut ok = true;
                for (terms, k, bound) in adds {
                    if !add_sum_le(&mut out, terms, *k, *bound) {
                        ok = false;
                        break;
                    }
                }
                if !ok || !out.close() {
                    OctagonDomain::Bottom
                } else {
                    OctagonDomain::seal(out)
                }
            }
            AssumePlan::Raw(op, l, r) => match pre.assume_cmp(*op, l, r) {
                Some(s) => s,
                None => pre.clone(),
            },
            AssumePlan::Seq(a, b) => b.apply(&a.apply(pre)),
            AssumePlan::Join(a, b) => a.apply(pre).join(&b.apply(pre)),
        }
    }
}

/// Conservative check that an expression always evaluates to an integer
/// (when it evaluates at all).
fn expr_definitely_numeric(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::ArrayLen(_) => true,
        Expr::Unary(UnOp::Neg, i) => expr_definitely_numeric(i),
        Expr::Binary(op, _, _) => {
            matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
            )
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_lang::parse_expr;

    fn assume(s: &OctagonDomain, cond: &str) -> OctagonDomain {
        s.transfer(&Stmt::Assume(parse_expr(cond).unwrap()))
    }

    fn assign(s: &OctagonDomain, x: &str, e: &str) -> OctagonDomain {
        s.transfer(&Stmt::Assign(x.into(), parse_expr(e).unwrap()))
    }

    /// The O(d) closed-matrix assignments must agree with the
    /// closure-based reference (`assign_linear_ref`) on randomized
    /// constraint states: same tracked intervals and same matrix up to
    /// strong closure (compared via every pairwise difference bound the
    /// public API exposes).
    #[test]
    fn fast_assignments_match_closure_reference() {
        // Deterministic LCG so the sequence is reproducible without a
        // rand dependency.
        let mut seed: u64 = 0x5EED_CAFE;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as i64
        };
        let vars = ["a", "b", "c", "d"];
        for round in 0..200 {
            // Grow a random state with assumes and assignments.
            let mut st = OctagonDomain::top();
            for _ in 0..(round % 5) {
                let v = vars[(next() % 4).unsigned_abs() as usize];
                let w = vars[(next() % 4).unsigned_abs() as usize];
                let c = next() % 20;
                st = assume(&st, &format!("{v} < {w} + {c}"));
                let k = next() % 9;
                st = assign(&st, w, &format!("{k}"));
            }
            // Random linear assignment, applied both ways.
            let x = Symbol::new(vars[(next() % 4).unsigned_abs() as usize]);
            let lin = match next() % 3 {
                0 => Linear1::Const(next() % 100),
                _ => Linear1::Term {
                    sign: if next() % 2 == 0 { 1 } else { -1 },
                    var: Symbol::new(vars[(next() % 4).unsigned_abs() as usize]),
                    offset: next() % 50,
                },
            };
            let fast = st.assign_linear(&x, &lin);
            let slow = st.assign_linear_ref(&x, &lin);
            assert_eq!(fast.is_bottom(), slow.is_bottom(), "round {round}");
            for v in vars {
                assert_eq!(
                    fast.interval_of(v),
                    slow.interval_of(v),
                    "round {round}: interval of {v} after {x} := {lin:?}"
                );
            }
            // Pairwise difference bounds agree too (octagonal relations,
            // not just intervals).
            for v in vars {
                for w in vars {
                    let e = parse_expr(&format!("{v} - {w}")).unwrap();
                    assert_eq!(
                        fast.eval_interval(&e),
                        slow.eval_interval(&e),
                        "round {round}: {v} - {w} after {x} := {lin:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_assignment_bounds() {
        let s = assign(&OctagonDomain::top(), "x", "5");
        assert_eq!(s.interval_of("x"), Interval::constant(5));
    }

    #[test]
    fn linear_assignment_tracks_relation() {
        let s = assign(&assign(&OctagonDomain::top(), "x", "3"), "y", "x + 2");
        assert_eq!(s.interval_of("y"), Interval::constant(5));
        assert!(s.entails_diff_le("y", "x", 2));
        assert!(s.entails_diff_le("x", "y", -2));
    }

    #[test]
    fn self_increment() {
        let mut s = assign(&OctagonDomain::top(), "i", "0");
        s = assign(&s, "i", "i + 1");
        assert_eq!(s.interval_of("i"), Interval::constant(1));
        s = assign(&s, "i", "i + 1");
        assert_eq!(s.interval_of("i"), Interval::constant(2));
    }

    #[test]
    fn negation_assignment() {
        let s = assign(&assign(&OctagonDomain::top(), "x", "4"), "y", "-x + 1");
        assert_eq!(s.interval_of("y"), Interval::constant(-3));
    }

    #[test]
    fn assume_relational_constraint() {
        let s = assume(&OctagonDomain::top(), "i < j");
        assert!(s.entails_diff_le("i", "j", -1));
        assert!(!s.is_bottom());
    }

    #[test]
    fn assume_contradiction_is_bottom() {
        let s = assign(&OctagonDomain::top(), "x", "5");
        assert!(assume(&s, "x > 9").is_bottom());
        let s2 = assume(&assume(&OctagonDomain::top(), "a < b"), "b < a");
        assert!(s2.is_bottom());
    }

    #[test]
    fn assume_transitive_via_closure() {
        let s = assume(&assume(&OctagonDomain::top(), "a <= b"), "b <= c");
        assert!(s.entails_diff_le("a", "c", 0));
    }

    #[test]
    fn assume_sum_constraint() {
        let s = assume(&OctagonDomain::top(), "x + y <= 4");
        // x + y ≤ 4 is representable exactly.
        let s2 = assume(&s, "x >= 3");
        let s3 = assume(&s2, "y >= 3");
        assert!(s3.is_bottom());
    }

    #[test]
    fn join_is_upper_bound() {
        let a = assign(&OctagonDomain::top(), "x", "1");
        let b = assign(&OctagonDomain::top(), "x", "5");
        let j = a.join(&b);
        assert_eq!(j.interval_of("x"), Interval::of(1, 5));
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn join_preserves_shared_relations() {
        let a = assume(&OctagonDomain::top(), "x < y");
        let b = assume(&OctagonDomain::top(), "x < y - 2");
        let j = a.join(&b);
        assert!(j.entails_diff_le("x", "y", -1));
    }

    #[test]
    fn join_drops_one_sided_vars() {
        let a = assign(&OctagonDomain::top(), "x", "1");
        let b = OctagonDomain::top();
        let j = a.join(&b);
        assert_eq!(j.interval_of("x"), Interval::TOP);
    }

    #[test]
    fn widen_drops_unstable_bounds() {
        let a = assign(&OctagonDomain::top(), "i", "0");
        let b = assume(&assume(&OctagonDomain::top(), "i >= 0"), "i <= 1");
        let w = a.widen(&b);
        let iv = w.interval_of("i");
        assert_eq!(iv.lo(), Bound::Fin(0));
        assert_eq!(iv.hi(), Bound::PosInf);
    }

    #[test]
    fn widen_is_idempotent_at_fixpoint() {
        let a = assume(&OctagonDomain::top(), "i >= 0");
        let w = a.widen(&a);
        assert_eq!(w, a.widen(&w));
    }

    #[test]
    fn widening_loop_converges() {
        // Simulate i = 0; while (...) { i = i + 1 }.
        let mut iterate = assign(&OctagonDomain::top(), "i", "0");
        for step in 0..10 {
            let body = assign(&iterate, "i", "i + 1");
            let next = iterate.widen(&iterate.join(&body));
            if next == iterate {
                assert!(step <= 3, "converged late");
                return;
            }
            iterate = next;
        }
        panic!("widening failed to converge");
    }

    #[test]
    fn leq_with_untracked_vars() {
        let a = assign(&OctagonDomain::top(), "x", "1");
        let top = OctagonDomain::top();
        assert!(a.leq(&top));
        assert!(!top.leq(&a));
        assert!(OctagonDomain::Bottom.leq(&a));
    }

    #[test]
    fn nonlinear_rhs_falls_back_to_interval() {
        let s = assign(&assign(&OctagonDomain::top(), "x", "3"), "y", "x * x");
        assert_eq!(s.interval_of("y"), Interval::constant(9));
    }

    #[test]
    fn non_numeric_rhs_untracks() {
        let s = assign(&assign(&OctagonDomain::top(), "x", "1"), "x", "[1, 2]");
        assert_eq!(s.interval_of("x"), Interval::TOP);
        // And models() accepts an array there now.
        let mut c = ConcreteState::new();
        c.env
            .insert("x".into(), Value::Arr(vec![Value::Int(1), Value::Int(2)]));
        assert!(s.models(&c));
    }

    #[test]
    fn models_checks_relations() {
        let s = assume(&OctagonDomain::top(), "x < y");
        let mut c = ConcreteState::new();
        c.env.insert("x".into(), Value::Int(1));
        c.env.insert("y".into(), Value::Int(2));
        assert!(s.models(&c));
        c.env.insert("y".into(), Value::Int(0));
        assert!(!s.models(&c));
    }

    #[test]
    fn models_rejects_non_int_for_tracked() {
        let s = assign(&OctagonDomain::top(), "x", "1");
        let mut c = ConcreteState::new();
        c.env.insert("x".into(), Value::Bool(true));
        assert!(!s.models(&c));
    }

    #[test]
    fn call_entry_preserves_arg_relations() {
        let caller = assume(&OctagonDomain::top(), "i < j");
        let args = [parse_expr("i").unwrap(), parse_expr("j").unwrap()];
        let site = CallSite {
            lhs: None,
            callee: &Symbol::new("f"),
            args: &args,
            site_key: "main:e0",
        };
        let entry = caller.call_entry(site, &[Symbol::new("p"), Symbol::new("q")]);
        assert!(entry.entails_diff_le("p", "q", -1));
    }

    #[test]
    fn call_return_binds_result_interval() {
        let caller = assign(&OctagonDomain::top(), "v", "1");
        let callee_exit = assign(&OctagonDomain::top(), RETURN_VAR, "7");
        let args = [];
        let site = CallSite {
            lhs: Some(&Symbol::new("out")),
            callee: &Symbol::new("f"),
            args: &args,
            site_key: "main:e1",
        };
        let after = caller.call_return(site, &callee_exit);
        assert_eq!(after.interval_of("out"), Interval::constant(7));
        assert_eq!(after.interval_of("v"), Interval::constant(1));
    }

    fn sealed(s: &OctagonDomain) -> &SealedOct {
        match s {
            OctagonDomain::Oct(o) => o,
            OctagonDomain::Bottom => panic!("expected a non-bottom octagon"),
        }
    }

    fn digest(s: &OctagonDomain) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    #[test]
    fn equality_and_hash_ignore_closedness_flag() {
        let a = assume(&OctagonDomain::top(), "x <= 5");
        assert!(sealed(&a).is_closed());
        let mut unclosed = Oct::clone(sealed(&a));
        unclosed.closed = false;
        let b = OctagonDomain::seal(unclosed);
        assert_eq!(a, b);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn fingerprint_is_computed_once_per_allocation() {
        let computed = || FINGERPRINTS_COMPUTED.with(|c| c.get());
        let a = assume(&OctagonDomain::top(), "x <= 5");
        let shared = a.clone();
        let before = computed();
        let first = digest(&a);
        for _ in 0..10 {
            assert_eq!(digest(&a), first);
            assert_eq!(digest(&shared), first);
        }
        assert_eq!(computed(), before + 1, "one Arc, one matrix pass");
        // Un-sealing leaves the cache behind: a changed copy re-hashes and
        // differs, an unchanged copy re-hashes and agrees.
        let changed = assume(&a, "x <= 4");
        assert_ne!(digest(&changed), first);
        let copy = OctagonDomain::seal(Oct::clone(sealed(&a)));
        assert_eq!(digest(&copy), first);
        assert_eq!(computed(), before + 3);
        assert_eq!(digest(&a), first, "the original's cache is untouched");
    }

    #[test]
    fn fingerprints_short_circuit_inequality_only() {
        let a = assume(&OctagonDomain::top(), "x <= 5");
        let b = assume(&OctagonDomain::top(), "x <= 6");
        let a2 = assume(&OctagonDomain::top(), "x <= 5");
        // Unhashed, half-hashed and fully hashed pairs all compare by content.
        assert!(a != b && a == a2);
        digest(&a);
        assert!(a != b && a == a2);
        digest(&b);
        digest(&a2);
        assert!(a != b && a == a2);
    }

    #[test]
    fn tighten_closes_incrementally_only_below_the_exact_bound() {
        let small = assume(&OctagonDomain::top(), "x - y <= 5");
        let big = assume(&small, &format!("y <= {}", 1i64 << 41));

        let mut o = Oct::clone(sealed(&small));
        o.tighten(0, 2, 3);
        assert!(o.closed, "small closed matrix: closure restored in place");
        let mut o = Oct::clone(sealed(&big));
        o.tighten(0, 2, 3);
        assert!(!o.closed, "an entry above the bound: left for close()");
        let mut o = Oct::clone(sealed(&small));
        o.tighten(0, 2, -(1i64 << 41));
        assert!(!o.closed, "a new bound above the bound: left for close()");
    }

    #[test]
    fn display_shows_constraints() {
        let s = assume(&assign(&OctagonDomain::top(), "x", "1"), "x <= y");
        let txt = s.to_string();
        assert!(txt.contains("x"), "{txt}");
    }

    #[test]
    fn bottom_propagates_through_transfer() {
        let b = OctagonDomain::Bottom;
        assert!(b
            .transfer(&Stmt::Assign("x".into(), Expr::Int(1)))
            .is_bottom());
        assert!(assume(&b, "x < 1").is_bottom());
    }

    /// Differential oracle for [`Oct::close_through`]: on random closed
    /// octagons, adding a random octagonal constraint through the
    /// incremental path must give what raw tightening plus the full
    /// [`Oct::close`] gives — same ⊥ verdict, same matrix bytes, same
    /// `closed` flag.
    mod incremental_closure {
        use super::*;
        use proptest::prelude::*;

        /// Mostly small (odd and even); sometimes absent; sometimes within
        /// a few units of either end of `i64`, where `badd` saturates; and
        /// sometimes straddling [`EXACT_CLOSURE_BOUND`].
        fn bound() -> impl Strategy<Value = i64> {
            prop_oneof![
                -24i64..24,
                -24i64..24,
                -24i64..24,
                -24i64..24,
                Just(INF),
                (0i64..4).prop_map(|k| i64::MAX - 1 - k),
                (0i64..4).prop_map(|k| i64::MIN + k),
                (-2i64..3).prop_map(|k| EXACT_CLOSURE_BOUND as i64 + k),
                (-2i64..3).prop_map(|k| -(EXACT_CLOSURE_BOUND as i64) + k),
            ]
        }

        fn var(i: usize) -> Symbol {
            Symbol::new(format!("v{i:02}"))
        }

        /// A closed, consistent octagon over 2–14 variables, or `None` when
        /// the drawn constraints are contradictory. Small bounds are
        /// anchored at a concrete point (so most draws are satisfiable);
        /// extreme ones are used as drawn, or folded to small ones in two
        /// draws of three (so that most matrices stay on the incremental
        /// path); then up to three of the closure-preserving O(d)
        /// assignments run over the closed result.
        fn closed_octagon() -> impl Strategy<Value = Option<Oct>> {
            (
                (2usize..15, 0u8..3),
                prop::collection::vec(-9i64..10, 14..15),
                prop::collection::vec((0usize..28, 0usize..28, bound()), 0..40),
                prop::collection::vec((0u8..4, 0usize..14, 0usize..14, -20i64..20), 0..4),
            )
                .prop_map(|((n, tame), point, edges, ops)| {
                    let mut o = Oct::unconstrained((0..n).map(var).collect());
                    let d = o.dim();
                    let signed = |i: usize| point[i / 2] * if i & 1 == 0 { 1 } else { -1 };
                    for (i, j, b) in edges {
                        let (i, j) = (i % d, j % d);
                        if i == j || b == INF {
                            continue;
                        }
                        let b = if tame != 0 { b % 64 } else { b };
                        let c = if b.unsigned_abs() < 64 {
                            signed(i) - signed(j) + b.abs()
                        } else {
                            b
                        };
                        tighten_raw(&mut o, i, j, c);
                    }
                    if !o.close() {
                        return None;
                    }
                    for (op, x, y, c) in ops {
                        let (x, y) = (var(x % n), var(y % n));
                        let sign = if c & 1 == 0 { 1 } else { -1 };
                        match op {
                            0 => o.assign_const_closed(&x, c),
                            1 if x != y => o.assign_copy_closed(&x, sign, &y, c),
                            2 => o.assign_shift_closed(&x, sign, c),
                            _ => o.forget(&x),
                        }
                    }
                    (!o.has_negative_diagonal()).then_some(o)
                })
        }

        /// What `tighten` does when it cannot close incrementally.
        fn tighten_raw(o: &mut Oct, i: usize, j: usize, c: i64) {
            if c < o.at(i, j) {
                o.set(i, j, c);
                o.set(j ^ 1, i ^ 1, c);
                o.closed = false;
            }
        }

        /// Same ⊥ verdict; when not ⊥, same variables, matrix bytes and
        /// `closed` flag.
        fn assert_same(incremental: Option<Oct>, full: Option<Oct>) {
            prop_assert_eq!(incremental.is_some(), full.is_some(), "⊥ verdict");
            if let (Some(inc), Some(full)) = (incremental, full) {
                prop_assert_eq!(&inc.vars, &full.vars);
                prop_assert_eq!(&inc.dbm, &full.dbm);
                prop_assert!(inc.closed && full.closed);
            }
        }

        /// The `add_sum_le` calls `assume_cmp` would make for the drawn
        /// shape: one-variable (`±x`, `±2x`), two-variable (all four sign
        /// pairs) and the two-constraint `==` form. Variable index `n`
        /// names an untracked variable, so `track` runs first.
        fn constraint(n: usize, shape: u8, x: usize, y: usize, bound: i64) -> Vec<SumLeArgs> {
            let name = |i: usize| match i % (n + 1) {
                i if i < n => var(i),
                _ if y & 1 == 0 => Symbol::new("a-new"),
                _ => Symbol::new("z-new"),
            };
            let (x, y) = (name(x), name(y));
            let sign = |bit: u8| if shape & bit == 0 { 1 } else { -1 };
            let (terms, k) = if x == y || shape & 8 == 0 {
                (vec![(sign(1), x)], if shape & 2 == 0 { 1 } else { 2 })
            } else {
                let mut t = vec![(sign(1), x), (sign(2), y)];
                t.sort_by(|a, b| a.1.cmp(&b.1));
                (t, 1)
            };
            let mut adds = vec![(terms.clone(), k, bound)];
            if shape & 4 != 0 {
                if let Some(nb) = bound.checked_neg() {
                    let neg = terms.iter().map(|(s, v)| (-s, v.clone())).collect();
                    adds.push((neg, k, nb));
                }
            }
            adds
        }

        /// The oracle's `add_sum_le`: the same cell, tightened raw.
        fn add_sum_le_raw(o: &mut Oct, terms: &[(i64, Symbol)], k: i64, bound: i64) -> bool {
            if terms.is_empty() {
                return 0 <= bound;
            }
            if let Some((i, j, c)) = sum_le_cell(|v| Some(o.track(v)), terms, k, bound) {
                tighten_raw(o, i, j, c);
            }
            true
        }

        type Add = fn(&mut Oct, &[(i64, Symbol)], i64, i64) -> bool;

        fn add_and_close(mut o: Oct, adds: &[SumLeArgs], add: Add) -> Option<Oct> {
            let ok = adds.iter().all(|(t, k, b)| add(&mut o, t, *k, *b));
            (ok && o.close()).then_some(o)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 4000, ..ProptestConfig::default() })]

            #[test]
            fn incremental_closure_equals_full_closure(
                closed in closed_octagon(),
                added in (0u8..16, 0usize..15, 0usize..15, bound()),
            ) {
                let Some(closed) = closed else {
                    return;
                };
                prop_assert!(closed.closed);
                let adds = constraint(closed.n(), added.0, added.1, added.2, added.3);
                let full = add_and_close(closed.clone(), &adds, add_sum_le_raw);
                assert_same(add_and_close(closed, &adds, add_sum_le), full);
            }

            /// `call_return`'s shape: both bounds of one variable at once,
            /// of independent magnitudes.
            #[test]
            fn interval_constraint_equals_full_closure(
                closed in closed_octagon(),
                x in 0usize..14,
                ends in (
                    // Also lower ends whose doubled negation stays just
                    // below `INF`.
                    prop_oneof![bound(), (1i64..5).prop_map(|k| k - (1 << 62))],
                    bound(),
                ),
            ) {
                let Some(closed) = closed else {
                    return;
                };
                let x = var(x % closed.n());
                let lo = ends.0.min(ends.1).max(i64::MIN + 1);
                let hi = ends.0.max(ends.1).max(lo);
                if hi == INF {
                    return;
                }
                let mut full = closed.clone();
                let xi = full.track(&x);
                tighten_raw(&mut full, 2 * xi, 2 * xi + 1, hi.saturating_mul(2));
                tighten_raw(&mut full, 2 * xi + 1, 2 * xi, (-lo).saturating_mul(2));
                let mut inc = closed;
                prop_assert!(inc.constrain_interval(&x, Interval::of(lo, hi)));
                assert_same(inc.close().then_some(inc), full.close().then_some(full));
            }
        }
    }
}
