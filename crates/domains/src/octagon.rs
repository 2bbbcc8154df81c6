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
//! ## The packed half matrix
//!
//! Writing `ī = i ^ 1` for the other signed form of `i`'s variable,
//! `vᵢ − vⱼ` and `vj̄ − vī` are the same quantity, so a DBM over signed
//! forms is *coherent*: `m[i][j] = m[j̄][ī]`. [`Oct`] stores each such pair
//! once — the lower triangle of 2×2 blocks, `2n(n+1)` words for `n`
//! variables where the square has `4n²`. Row `i` keeps columns `j ≤ i|1`,
//! entry `(i, j)` at `j + ⌊(i+1)²/2⌋`; every other `(i, j)` is read as
//! `(j̄, ī)` (`slot`). This is the only representation. Coherence is
//! therefore structural: a twin is the same slot, so `Oct::tighten`,
//! `Oct::forget` and the O(d) assignments write each constraint once and
//! an `Oct` whose halves disagree cannot be built. (The two diagonal
//! entries of a block are twins that are both stored; they are `0` until
//! closure finds the octagon empty.)
//!
//! Equality, the fingerprint, join, widening and `closes_exactly` are
//! pointwise over the packed array, and so touch half the words;
//! `Oct::close`, `Oct::strengthen` and `Oct::close_through` relax
//! stored rows only, each a contiguous zip against pivot rows read out at
//! full width; `leq` visits the stored blocks. `Oct::track` re-lays rows
//! as slices and `Oct::project` — projection onto a subset of the
//! variables, renamed, in one pass — serves both `untrack` and
//! `call_entry`. Everything else (`Display`, `models`, interval
//! evaluation) goes through the accessor in the order it always did.
//!
//! The wire form is the same half (state tag 3): [`Oct::packed`] lends it
//! to the encoder as stored, and [`Oct::from_packed`] takes it back after
//! checking length, variable order and the one relation the half holds
//! twice — nothing is expanded or re-packed on the way. Outside the tests'
//! reference closure no full matrix exists.
//!
//! ## Sealed values and the fingerprint
//!
//! A state is an `Arc<`[`SealedOct`]`>`: an [`Oct`] plus a lazily computed
//! 128-bit fingerprint of its `(vars, dbm)` content. `Hash` writes the
//! fingerprint, so the DAIG's per-cell `content_digest` costs one pass over
//! the packed matrix per *allocation* rather than one per cell write — a
//! memo hit, a cell write and a snapshot all carry the same `Arc`. `Eq` is
//! exact (pointer-equal and fingerprints-differ are only shortcuts).
//!
//! The fingerprint is `dai_memo::content_digest` of `(vars, dbm)`, the one
//! content hash of every memo key and cell digest: four folded-multiply
//! lanes over the `2n(n+1)` packed words, in place of a fixed-key SipHash
//! lane that kept out no adversary and cost several times as much.
//!
//! The fingerprint lives as long as the allocation and can never be stale,
//! because nothing can change a sealed matrix: [`SealedOct`] derefs to
//! `&Oct` only. Every mutating path un-seals first — [`Oct::clone`] out of
//! the `Arc` — works on the owned `Oct`, which has no cache, and seals the
//! result ([`OctagonDomain::seal`]) into a fresh allocation with an empty
//! one.
//!
//! ## When closure is incremental
//!
//! `Oct::close` is the one general strong closure, O(d³). Adding a
//! single constraint to a matrix that is already strongly closed does not
//! need it: `Oct::tighten` restores closure in O(d²) with
//! `Oct::close_through` (Miné's incremental closure) when the matrix is
//! flagged closed, consistent, and it and the new bound lie within
//! `EXACT_CLOSURE_BOUND`. That is every tightening `assume` and call
//! return on the warm path. Genuinely unclosed inputs — widening results,
//! [`Oct::from_packed`], `call_entry`'s projected matrix — and matrices with
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
//! report ⊥ on the same inputs, and makes both equal, below the bound, to
//! the full-matrix closure this module ran before the matrix was packed
//! (kept in the tests as the reference). With saturation `badd` is no
//! longer associative and any two of the three may round different paths
//! differently, which is why such matrices are left to `close()`, and why
//! a constraint of two cells never takes both routes where a sum can
//! saturate: the two bounds of an `==` have one magnitude, and
//! `Oct::constrain_interval` puts an end beyond the bound in first, so
//! that `close()` gets both ends raw. Adding a constraint therefore gives,
//! bit for bit and on every input, what raw tightening followed by
//! `close()` gives.
//!
//! **Beyond the bound this `close()` is not the full-matrix one**, whose
//! `2n` single pivots a packed matrix cannot take (see `Oct::close`).
//! Where a sum saturates, the `n` paired pivots here may round it
//! differently: on about one saturating input in forty by the proptests'
//! count, and on half of those the full-matrix result was itself
//! incoherent (`m[i][j] ≠ m[j̄][ī]`), which no packed matrix can be. Both
//! stay sound — a saturated sum is a weaker bound than the true one — and
//! no answer, memo key or encoded byte of a program whose bounds stay
//! within 2⁴⁰ moved.
//!
//! The proptests in `incremental_closure` check all of this: the
//! incremental route equals `close()` on every draw; `close()` equals the
//! reference wherever no sum can saturate, and beyond that is never below
//! the closure in unbounded arithmetic and ⊥ only when that is; and one
//! saturating input is pinned entry for entry.

use crate::interval::{Bound, Interval};
use crate::{AbstractDomain, CallSite};
use dai_lang::interp::{ConcreteState, Value};
use dai_lang::{BinOp, Expr, Stmt, Symbol, UnOp, RETURN_VAR};
use std::borrow::Cow;
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

/// Is `v` absent, or within [`EXACT_CLOSURE_BOUND`]?
fn small(v: i64) -> bool {
    v == INF || v.unsigned_abs() <= EXACT_CLOSURE_BOUND
}

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
    /// The packed half matrix, `2n(n+1)` words: row `i` holds columns
    /// `0..=i|1` starting at [`row_start`]`(i)`, and `(i, j)` beyond that
    /// is read as `(j̄, ī)` ([`slot`]). Never indexed directly outside the
    /// accessors and the whole-array (pointwise) operations.
    dbm: Vec<i64>,
    /// Whether `dbm` is strongly closed. Ignored by `Eq` and by the
    /// fingerprint.
    closed: bool,
}

/// Where stored row `i` starts: rows `2p` and `2p + 1` both hold `2p + 2`
/// columns, so the rows before `i` hold `⌊(i + 1)² / 2⌋` entries.
fn row_start(i: usize) -> usize {
    (i + 1) * (i + 1) / 2
}

/// The slot of entry `(i, j)`: its own when `j ≤ i|1`, otherwise that of
/// its coherent twin `(j̄, ī)` — the same constraint, stored once.
fn slot(i: usize, j: usize) -> usize {
    if j <= (i | 1) {
        row_start(i) + j
    } else {
        row_start(j ^ 1) + (i ^ 1)
    }
}

/// The stored rows of a packed matrix, in order: row `i` has `(i|1) + 1`
/// entries.
fn stored_rows(mut rest: &mut [i64]) -> impl Iterator<Item = &mut [i64]> {
    (0..).map_while(move |i| {
        if rest.is_empty() {
            return None;
        }
        let (row, tail) = std::mem::take(&mut rest).split_at_mut((i | 1) + 1);
        rest = tail;
        Some(row)
    })
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
/// out ([`Oct::clone`]), which leaves the fingerprint behind.
pub struct SealedOct {
    oct: Oct,
    fingerprint: OnceLock<u128>,
}

impl SealedOct {
    /// The content fingerprint: `dai_memo::content_digest` of `(vars,
    /// dbm)`, whose four-lane slice path takes the packed half matrix.
    /// Public as the key a snapshot tells states apart by without hashing
    /// them again.
    pub fn fingerprint(&self) -> u128 {
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
    dai_memo::content_digest(&(&*oct.vars, &oct.dbm))
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
        self.dbm[slot(i, j)]
    }

    /// Writes `(i, j)` — and with it the twin `(j̄, ī)`, which is the same
    /// slot.
    fn set(&mut self, i: usize, j: usize, v: i64) {
        self.dbm[slot(i, j)] = v;
    }

    /// Appends row `k` at full width `2n`: its stored prefix, then the
    /// twins of the rest. Entry `(k, j)` lives at `(j̄, k̄)`, so the columns
    /// `2q` and `2q + 1` of a later variable `q` are column `k̄` of rows
    /// `2q + 1` and `2q`, which start `2q + 2` words apart.
    fn push_row(&self, k: usize, out: &mut Vec<i64>) {
        out.extend_from_slice(&self.dbm[row_start(k)..row_start(k + 1)]);
        let mut at = row_start((k | 1) + 1) + (k ^ 1);
        for q in k / 2 + 1..self.n() {
            let width = 2 * q + 2;
            out.extend([self.dbm[at + width], self.dbm[at]]);
            at += 2 * width;
        }
    }

    fn full_row(&self, k: usize) -> Vec<i64> {
        let mut row = Vec::with_capacity(self.dim());
        self.push_row(k, &mut row);
        row
    }

    /// Adds `vᵢ − vⱼ ≤ c` (its coherent twin is the same slot). On a
    /// strongly closed, consistent matrix whose entries are all within
    /// [`EXACT_CLOSURE_BOUND`] the strong closure is restored in place in
    /// O(d²) ([`Oct::close_through`]); otherwise the matrix is left
    /// unclosed for the next full [`Oct::close`].
    fn tighten(&mut self, i: usize, j: usize, c: i64) {
        if c >= self.at(i, j) {
            return;
        }
        let incremental = self.closed && !self.has_negative_diagonal() && self.closes_exactly(c);
        self.set(i, j, c);
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
        // The old rows out of `b` and `ā`, at full width so that every
        // stored row below zips against a contiguous prefix of them; by
        // coherence they are also the old columns into `b̄` and `a`:
        // m[i][a] = m[ā][ī], m[i][b̄] = m[b][ī].
        let (from_b, from_na) = (self.full_row(b), self.full_row(a ^ 1));
        // b → b̄ and ā → a join the new edge to its twin.
        let (b_nb, na_a) = (from_b[b ^ 1], from_na[a]);
        for (i, cells) in stored_rows(&mut self.dbm).enumerate() {
            let (to_a, to_nb) = (from_na[i ^ 1], from_b[i ^ 1]);
            // Cheapest i ⇝ b ending in the new edge, and i ⇝ ā ending in
            // its twin.
            let via_b = badd(to_a, c).min(badd(badd(badd(to_nb, c), na_a), c));
            let via_na = badd(to_nb, c).min(badd(badd(badd(to_a, c), b_nb), c));
            if via_b == INF && via_na == INF {
                continue;
            }
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

    /// The packed half matrix exactly as stored — the wire form
    /// (persistence accessor; [`Oct::from_packed`] takes the same words
    /// back).
    pub fn packed(&self) -> &[i64] {
        &self.dbm
    }

    /// Whether the matrix is currently strongly closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Words in the packed half matrix over `n` variables, or `None` when
    /// that overflows — what a decoder checks a variable count against
    /// before it reads the half.
    pub fn packed_len(n: usize) -> Option<usize> {
        n.checked_add(1)?.checked_mul(n)?.checked_mul(2)
    }

    /// Rebuilds an octagon from its serialized parts — the sorted variable
    /// list and the half matrix [`Oct::packed`] lends — validating what a
    /// packed matrix does not hold by construction: `half` is `2n(n+1)`
    /// words, `vars` is sorted and duplicate-free, and the two diagonal
    /// entries of each block, twins that are both stored, agree. Every
    /// other twin pair is one slot, so nothing else can be incoherent.
    /// Returns `None` for inconsistent parts, so a corrupted snapshot can
    /// never materialize a malformed matrix.
    ///
    /// The result is always marked **unclosed**: `closed` is a derived
    /// property the exact-assignment fast paths rely on, and trusting a
    /// deserialized flag would let a crafted snapshot smuggle in a
    /// falsely-closed matrix (unsound fast-path answers). Re-deriving
    /// closure costs one `close()` on first use, which the lossy
    /// persistence contract happily pays; `Eq`/`Hash` ignore the flag, so
    /// roundtripped states still compare equal.
    pub fn from_packed(vars: Vec<Symbol>, half: Vec<i64>) -> Option<Oct> {
        let sorted = vars.windows(2).all(|w| w[0] < w[1]);
        if Oct::packed_len(vars.len()) != Some(half.len()) || !sorted {
            return None;
        }
        let diagonal = |i: usize| half[row_start(i) + i];
        if !(0..vars.len()).all(|k| diagonal(2 * k) == diagonal(2 * k + 1)) {
            return None;
        }
        Some(Oct {
            dbm: half,
            vars: vars.into(),
            closed: false,
        })
    }

    /// Adds `var` as an unconstrained tracked variable, rebuilding the
    /// matrix. Returns its index.
    ///
    /// Insertion at sorted position `pos` shifts signed-form indices `≥
    /// 2·pos` up by one pair: the stored rows before `2·pos` keep their
    /// place, and each later one splits into two contiguous runs around
    /// the new pair of columns — copied as slices, no per-entry index
    /// mapping. An unconstrained variable adds no finite path, so
    /// `closed` is preserved as-is.
    fn track(&mut self, var: &Symbol) -> usize {
        let pos = match self.vars.binary_search(var) {
            Ok(i) => return i,
            Err(pos) => pos,
        };
        let lo = 2 * pos;
        let mut vars = Vec::with_capacity(self.vars.len() + 1);
        vars.extend_from_slice(&self.vars[..pos]);
        vars.push(var.clone());
        vars.extend_from_slice(&self.vars[pos..]);
        let mut dbm = Vec::with_capacity(row_start(2 * vars.len()));
        dbm.extend_from_slice(&self.dbm[..row_start(lo)]);
        for own in [lo, lo + 1] {
            dbm.extend((0..lo + 2).map(|j| if j == own { 0 } else { INF }));
        }
        for i in lo..self.dim() {
            let row = &self.dbm[row_start(i)..row_start(i + 1)];
            dbm.extend_from_slice(&row[..lo]);
            dbm.extend([INF, INF]);
            dbm.extend_from_slice(&row[lo..]);
        }
        self.vars = vars.into();
        self.dbm = dbm;
        pos
    }

    fn unconstrained(vars: Vec<Symbol>) -> Oct {
        let d = 2 * vars.len();
        let mut dbm = vec![INF; row_start(d)];
        for i in 0..d {
            dbm[row_start(i) + i] = 0;
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
    ///
    /// The two signed forms of a variable are one pivot step (Miné): a
    /// stored slot is also its twin's, and the twin's path through `k` is
    /// this entry's path through `k̄`, so taking one form at a time, as a
    /// full matrix can, would miss paths through both. Each entry is
    /// relaxed through `k`, `k̄`, and both in either order, against the two
    /// pivot rows snapshotted at full width — the inner loop is a
    /// contiguous zip.
    fn close(&mut self) -> bool {
        if self.closed {
            return !self.has_negative_diagonal();
        }
        for k in (0..self.dim()).step_by(2) {
            let (from_k, from_nk) = (self.full_row(k), self.full_row(k + 1));
            let (k_nk, nk_k) = (from_k[k + 1], from_nk[k]);
            for (i, cells) in stored_rows(&mut self.dbm).enumerate() {
                // Column `k` is row `k̄` mirrored: m[i][k] = m[k̄][ī].
                let (to_k, to_nk) = (from_nk[i ^ 1], from_k[i ^ 1]);
                let via_k = to_k.min(badd(to_nk, nk_k));
                let via_nk = to_nk.min(badd(to_k, k_nk));
                if via_k == INF && via_nk == INF {
                    continue;
                }
                for ((cell, &kj), &nkj) in cells.iter_mut().zip(&from_k).zip(&from_nk) {
                    let via = badd(via_k, kj).min(badd(via_nk, nkj));
                    if via < *cell {
                        *cell = via;
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
    /// bounds into a negative diagonal entry. The halves are read up
    /// front: the pass only ever replaces a unary bound by twice its own
    /// half.
    fn strengthen(&mut self) {
        let half: Vec<i64> = (0..self.dim()).map(|j| bhalf(self.at(j ^ 1, j))).collect();
        for (i, cells) in stored_rows(&mut self.dbm).enumerate() {
            let half_i = half[i ^ 1];
            if half_i == INF {
                continue;
            }
            for (cell, &half_j) in cells.iter_mut().zip(&half) {
                let s = badd(half_i, half_j);
                if s < *cell {
                    *cell = s;
                }
            }
        }
    }

    fn has_negative_diagonal(&self) -> bool {
        (0..self.dim()).any(|i| self.dbm[row_start(i) + i] < 0)
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
        for row in [2 * x, 2 * x + 1] {
            // Row `row` through the accessor is also column `row ^ 1`.
            for j in (0..self.dim()).filter(|&j| j != row) {
                self.set(row, j, INF);
            }
        }
        // Closure is preserved by exact projection of a closed matrix.
        self.closed = true;
    }

    /// Projection and renaming in one pass: the octagon over `vars`
    /// (sorted) in which variable `new` carries exactly what `self` says
    /// about variable `old`, for every `(old, new)` of `map`, and nothing
    /// else is constrained. Exact when `self` is closed, and the result is
    /// closed then: projecting a closed matrix only drops rows and columns.
    /// Later pairs overwrite earlier ones that name the same `new`.
    fn project(&self, vars: Vec<Symbol>, map: &[(usize, usize)]) -> Oct {
        let mut out = Oct::unconstrained(vars);
        for &(o1, n1) in map {
            // Blocks right of the diagonal are their twins' slots.
            for &(o2, n2) in map.iter().filter(|&&(_, n2)| n2 <= n1) {
                for (s1, s2) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    out.set(2 * n1 + s1, 2 * n2 + s2, self.at(2 * o1 + s1, 2 * o2 + s2));
                }
            }
        }
        out
    }

    /// Stops tracking every variable `keep` rejects: closes, then
    /// [`Oct::project`]s onto the rest, once however many go.
    fn retain_vars(&mut self, keep: impl Fn(&Symbol) -> bool) {
        if self.vars.iter().all(&keep) {
            return;
        }
        self.close();
        let kept: Vec<usize> = (0..self.n()).filter(|&i| keep(&self.vars[i])).collect();
        let vars = kept.iter().map(|&i| self.vars[i].clone()).collect();
        let map: Vec<(usize, usize)> = kept.into_iter().zip(0..).collect();
        *self = self.project(vars, &map);
    }

    /// Stops tracking `var` entirely.
    fn untrack(&mut self, var: &Symbol) {
        if self.index_of(var).is_some() {
            self.retain_vars(|v| v != var);
        }
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

    /// Constrains `var ∈ iv`. An end beyond [`EXACT_CLOSURE_BOUND`] goes
    /// in first: once it has left the matrix unclosed the other end is
    /// tightened raw too, and one [`Oct::close`] sees both as they were
    /// given — never one folded in exactly and the other rounded on top of
    /// it, which under saturation is a different matrix.
    fn constrain_interval(&mut self, var: &Symbol, iv: Interval) -> bool {
        if iv.is_empty() {
            return false;
        }
        let x = self.track(var);
        // An absent end is `INF`, which tightens nothing.
        let up = match iv.hi() {
            Bound::Fin(hi) => hi.saturating_mul(2),
            _ => INF,
        };
        let down = match iv.lo() {
            Bound::Fin(lo) => (-lo).saturating_mul(2),
            _ => INF,
        };
        let mut ends = [(2 * x, 2 * x + 1, up), (2 * x + 1, 2 * x, down)];
        if !small(down) {
            ends.swap(0, 1);
        }
        for (i, j, c) in ends {
            self.tighten(i, j, c);
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
        // Rows `x⁺` and `x⁻` only: through the accessor they are also the
        // columns into `x⁻` and `x⁺`.
        for k in (0..self.dim()).filter(|&k| k != xp && k != xn) {
            let neg_k = bhalf(self.at(k ^ 1, k));
            self.set(xp, k, badd(ub, neg_k));
            self.set(xn, k, badd(nb, neg_k));
        }
        self.closed = true;
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
        let neg_c = c.saturating_neg();
        for k in (0..self.dim()).filter(|&k| k != xp && k != xn) {
            self.set(xp, k, badd(self.at(q, k), c));
            self.set(xn, k, badd(self.at(qn, k), neg_c));
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
        let neg_c = c.saturating_neg();
        // Rows only: a column entry `(k, x±)` is the slot of the row entry
        // `(x∓, k̄)`, and shifting it again would shift it twice.
        for k in (0..self.dim()).filter(|&k| k != xp && k != xn) {
            let (row_p, row_n) = if sign > 0 {
                (self.at(xp, k), self.at(xn, k))
            } else {
                (self.at(xn, k), self.at(xp, k))
            };
            self.set(xp, k, badd(row_p, c));
            self.set(xn, k, badd(row_n, neg_c));
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

    /// `x := e` on a strongly closed matrix, `lin` being [`linear1`]`(e)`:
    /// exact by one of the primitives above for `c` and `±y + c`, through
    /// `e`'s interval otherwise, and untracking `x` when `e` may not be a
    /// number. `false` when `e` has no value (⊥). Preserves closure.
    fn assign_closed(&mut self, x: &Symbol, e: &Expr, lin: Option<&Linear1>) -> bool {
        match lin {
            Some(Linear1::Const(c)) => self.assign_interval_closed(x, Interval::constant(*c)),
            Some(Linear1::Term { sign, var, offset }) if var == x => {
                self.assign_shift_closed(x, *sign, *offset)
            }
            Some(Linear1::Term { sign, var, offset }) => {
                self.assign_copy_closed(x, *sign, var, *offset)
            }
            None => {
                let iv = eval_iv(self, e);
                if iv.is_empty() {
                    return false;
                }
                // Classified here, not staged: one `match` beside the
                // walk of `e` that `eval_iv` has just made.
                if expr_definitely_numeric(e) {
                    self.assign_interval_closed(x, iv);
                } else {
                    self.untrack(x);
                }
            }
        }
        true
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

    /// The transfer for `x := e`, `lin` being [`linear1`]`(e)`: O(d)
    /// substitution on a strongly closed copy ([`Oct::assign_closed`]).
    fn assign(&self, x: &Symbol, e: &Expr, lin: Option<&Linear1>) -> OctagonDomain {
        self.map(|o| o.close() && o.assign_closed(x, e, lin))
    }

    /// Closure-based reference implementation of [`Self::assign`]'s linear cases
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
                a.retain_vars(|v| b.index_of(v).is_some());
                b.retain_vars(|v| a.index_of(v).is_some());
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
                    out.retain_vars(|v| b.index_of(v).is_some());
                    if b.n() > out.n() {
                        b.to_mut().retain_vars(|v| out.index_of(v).is_some());
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
                // does not track are unconstrained (∞) on a's side. The
                // blocks with `j2 ≤ j1` are all the stored ones.
                for (j1, v1) in b.vars.iter().enumerate() {
                    let a1 = a.index_of(v1);
                    for (j2, v2) in b.vars.iter().enumerate().take(j1 + 1) {
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
            Stmt::Assign(x, e) => self.assign(x, e, linear1(e).as_ref()),
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
        // Bind temporaries $argᵢ := actualᵢ in a copy of the caller state
        // (keeping relations between arguments), then project onto them
        // and rename them to the parameters in one pass.
        let OctagonDomain::Oct(caller) = self else {
            return OctagonDomain::Bottom;
        };
        let mut o = Oct::clone(caller);
        if !o.close() {
            return OctagonDomain::Bottom;
        }
        let mut params = callee_params.to_vec();
        params.sort();
        params.dedup();
        let mut bound = Vec::with_capacity(callee_params.len());
        for (i, (p, a)) in callee_params.iter().zip(site.args).enumerate() {
            let t = arg_temp(i);
            if !o.assign_closed(&t, a, linear1(a).as_ref()) {
                return OctagonDomain::Bottom;
            }
            // A non-numeric actual leaves its temporary, and with it the
            // parameter, untracked.
            if o.index_of(&t).is_some() {
                bound.push((t, params.binary_search(p).expect("a parameter")));
            }
        }
        // Resolved only now: binding a later temporary moves the earlier.
        let map: Vec<(usize, usize)> = bound
            .iter()
            .map(|(t, n)| (o.index_of(t).expect("just bound"), *n))
            .collect();
        let mut out = o.project(params, &map);
        // Re-derived, as for any rebuilt matrix (module docs).
        out.closed = false;
        if out.close() {
            OctagonDomain::seal(out)
        } else {
            OctagonDomain::Bottom
        }
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
    /// real: the interpreter re-runs `linear1` (an AST walk with
    /// checked arithmetic) on every evaluation before reaching the O(d)
    /// `assign_*_closed` primitives; staging runs it once and the closure
    /// enters `OctagonDomain::assign` where the interpreter does, so the
    /// results are bit-identical by construction.
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
                // The classification is the stage-time work; the interval
                // of a non-octagonal right-hand side depends on the
                // pre-state and is evaluated at apply time.
                let lin = linear1(e);
                let shape = match &lin {
                    Some(Linear1::Const(_)) => TransferShape::ConstAssign,
                    Some(Linear1::Term { var, .. }) if var == x => TransferShape::ShiftAssign,
                    Some(Linear1::Term { .. }) => TransferShape::CopyAssign,
                    None => TransferShape::Assign,
                };
                let (x, e) = (x.clone(), e.clone());
                Some(CompiledTransfer::new(shape, move |pre: &OctagonDomain| {
                    pre.assign(&x, &e, lin.as_ref())
                }))
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

/// `$arg{i}`, the reserved name [`OctagonDomain::call_entry`] binds the
/// `i`-th actual to; formatted and allocated once per thread.
fn arg_temp(i: usize) -> Symbol {
    thread_local! {
        static TEMPS: std::cell::RefCell<Vec<Symbol>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    TEMPS.with_borrow_mut(|temps| {
        while temps.len() <= i {
            temps.push(Symbol::new(format!("$arg{}", temps.len())));
        }
        temps[i].clone()
    })
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
            let fast = st.assign(&x, &Expr::Int(0), Some(&lin));
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

    fn digest(s: &OctagonDomain) -> u128 {
        dai_memo::content_digest(s)
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

    impl Oct {
        /// The full row-major `(2n)²` matrix, for the reference closure.
        fn full(&self) -> Vec<i64> {
            let d = self.dim();
            (0..d * d).map(|e| self.at(e / d, e % d)).collect()
        }
    }

    #[test]
    fn storage_and_the_wire_form_are_the_packed_half() {
        for n in [0usize, 1, 14] {
            let vars: Vec<Symbol> = (0..n).map(|i| Symbol::new(format!("v{i:02}"))).collect();
            let mut o = Oct::unconstrained(vars.clone());
            assert_eq!(o.packed().len(), 2 * n * (n + 1));
            assert_eq!(Oct::packed_len(n), Some(o.packed().len()));
            if n > 1 {
                o.tighten(2, 1, 7);
                assert_eq!((o.at(2, 1), o.at(0, 3)), (7, 7), "one slot, both twins");
            }
            let back = Oct::from_packed(vars.clone(), o.packed().to_vec()).expect("valid parts");
            assert_eq!((&back, back.closed), (&o, false));
            // What the half does not hold by construction is checked: its
            // length, the order of the names, and the diagonal's twins.
            let mut long = o.packed().to_vec();
            long.push(0);
            assert!(Oct::from_packed(vars.clone(), long).is_none());
            if n > 0 {
                let mut short = o.packed().to_vec();
                short.pop();
                assert!(Oct::from_packed(vars.clone(), short).is_none());
                for i in [0, 1, 2 * n - 1] {
                    let mut torn = o.packed().to_vec();
                    torn[slot(i, i)] = -1; // (i, i) alone; (ī, ī) still says 0
                    assert!(Oct::from_packed(vars.clone(), torn).is_none(), "{i}");
                }
            }
            if n > 1 {
                let mut swapped = vars.clone();
                swapped.swap(0, 1);
                assert!(Oct::from_packed(swapped, o.packed().to_vec()).is_none());
                let mut doubled = vars.clone();
                doubled[1] = doubled[0].clone();
                assert!(Oct::from_packed(doubled, o.packed().to_vec()).is_none());
            }
        }
        assert_eq!(Oct::packed_len(usize::MAX / 2), None);
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
                            0 => o.assign_interval_closed(&x, Interval::constant(c)),
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
                o.closed = false;
            }
        }

        /// The full-matrix strong closure this module ran before the matrix
        /// was packed, on the row-major `(2n)²` form `Oct::full` expands
        /// to: one pivot at a time over every entry, strengthening after
        /// each. The reference [`Oct::close`] is compared with — over `i64`
        /// with this module's saturating arithmetic, and over `i128`,
        /// where no sum of fewer than `2n` `i64`s can leave the type.
        fn close_full<T: Copy + Ord + Default>(
            m: &mut [T],
            d: usize,
            inf: T,
            add: fn(T, T) -> T,
            half: fn(T) -> T,
        ) -> bool {
            for k in 0..d {
                for i in 0..d {
                    let ik = m[i * d + k];
                    if ik == inf {
                        continue;
                    }
                    for j in 0..d {
                        let kj = m[k * d + j];
                        if kj == inf {
                            continue;
                        }
                        let via = add(ik, kj);
                        if via < m[i * d + j] {
                            m[i * d + j] = via;
                        }
                    }
                }
                // Strengthening, as `Oct::strengthen` documents it.
                for i in 0..d {
                    let half_i = half(m[i * d + (i ^ 1)]);
                    if half_i == inf {
                        continue;
                    }
                    for j in 0..d {
                        let half_j = half(m[(j ^ 1) * d + j]);
                        if half_j == inf {
                            continue;
                        }
                        let s = add(half_i, half_j);
                        if s < m[i * d + j] {
                            m[i * d + j] = s;
                        }
                    }
                }
            }
            (0..d).all(|i| m[i * d + i] >= T::default())
        }

        const WIDE_INF: i128 = i128::MAX;

        fn wide(v: i64) -> i128 {
            if v == INF {
                WIDE_INF
            } else {
                v as i128
            }
        }

        /// [`Oct::close`] on `raw` against the reference on `raw` expanded.
        /// While no sum can saturate the two agree entry for entry and on
        /// ⊥. Beyond [`EXACT_CLOSURE_BOUND`] they may round a saturated sum
        /// differently (the reference, relaxing one signed form at a time,
        /// can even leave `m[i][j] ≠ m[j̄][ī]`, which a packed matrix cannot
        /// hold), so there the packed result is held to what saturation
        /// promises: never below the closure in unbounded arithmetic, and
        /// ⊥ only when that is.
        fn assert_matches_reference(raw: &Oct, closed: Option<&Oct>) {
            let d = raw.dim();
            if raw.closes_exactly(0) {
                let mut reference = raw.full();
                let consistent = close_full(&mut reference, d, INF, badd, bhalf);
                prop_assert_eq!(closed.is_some(), consistent, "⊥ verdict");
                if let Some(closed) = closed {
                    prop_assert_eq!(closed.full(), reference);
                }
                return;
            }
            let mut truth: Vec<i128> = raw.full().into_iter().map(wide).collect();
            let add = |a, b| {
                if a == WIDE_INF || b == WIDE_INF {
                    WIDE_INF
                } else {
                    a + b
                }
            };
            let half = |a: i128| if a == WIDE_INF { a } else { a.div_euclid(2) };
            if close_full(&mut truth, d, WIDE_INF, add, half) {
                let closed = closed.expect("a satisfiable system closed to ⊥");
                for (got, least) in closed.full().into_iter().zip(truth) {
                    prop_assert!(wide(got) >= least, "{got} is below the closure's {least}");
                }
            }
        }

        /// Closes `raw` — the oracle's input, every cell tightened raw —
        /// and checks that closure against the full-matrix reference.
        fn close_checked(raw: Oct) -> Option<Oct> {
            let mut full = raw.clone();
            let full = full.close().then_some(full);
            assert_matches_reference(&raw, full.as_ref());
            full
        }

        /// Same ⊥ verdict; when not ⊥, same variables, matrix bytes and
        /// `closed` flag — on every draw, saturating ones included.
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

        /// `o` with every constraint of `adds` added through `add`, or
        /// `None` when one is contradictory on its face.
        fn add_all(mut o: Oct, adds: &[SumLeArgs], add: Add) -> Option<Oct> {
            let ok = adds.iter().all(|(t, k, b)| add(&mut o, t, *k, *b));
            ok.then_some(o)
        }

        /// The full-matrix row and column insert [`Oct::track`] is compared
        /// with: an unconstrained pair of signed forms at variable `pos`.
        fn insert_pair_full(m: &[i64], d: usize, pos: usize) -> Vec<i64> {
            let old = |i: usize| {
                (i < 2 * pos)
                    .then_some(i)
                    .or((i >= 2 * pos + 2).then(|| i - 2))
            };
            (0..d + 2)
                .flat_map(|i| (0..d + 2).map(move |j| (i, j)))
                .map(|(i, j)| match (old(i), old(j)) {
                    (Some(i), Some(j)) => m[i * d + j],
                    _ if i == j => 0,
                    _ => INF,
                })
                .collect()
        }

        /// The parent commit's `call_entry`: a temporary per actual, each
        /// assigned through `transfer`, every other variable untracked one
        /// at a time, and the temporaries copied onto the parameters.
        fn call_entry_ref(
            caller: &OctagonDomain,
            site: CallSite<'_>,
            callee_params: &[Symbol],
        ) -> OctagonDomain {
            let mut cur = caller.clone();
            let temps: Vec<Symbol> = (0..callee_params.len())
                .map(|i| Symbol::new(format!("$arg{i}")))
                .collect();
            for (t, a) in temps.iter().zip(site.args) {
                cur = cur.transfer(&Stmt::Assign(t.clone(), a.clone()));
            }
            let OctagonDomain::Oct(o) = cur else {
                return OctagonDomain::Bottom;
            };
            let mut o = Oct::clone(&o);
            if !o.close() {
                return OctagonDomain::Bottom;
            }
            for v in Arc::clone(&o.vars).iter() {
                if !temps.contains(v) {
                    o.untrack(v);
                }
            }
            let mut out = Oct::unconstrained(Vec::new());
            for p in callee_params {
                out.track(p);
            }
            // (a tracked temporary's index, its parameter's), in order.
            let pairs: Vec<(usize, usize)> = (temps.iter().zip(callee_params))
                .filter_map(|(t, p)| Some((o.index_of(t)?, out.index_of(p)?)))
                .collect();
            for (&(o1, n1), s1) in pairs.iter().flat_map(|p| [(p, 0), (p, 1)]) {
                for (&(o2, n2), s2) in pairs.iter().flat_map(|p| [(p, 0), (p, 1)]) {
                    out.set(2 * n1 + s1, 2 * n2 + s2, o.at(2 * o1 + s1, 2 * o2 + s2));
                }
            }
            out.closed = false;
            OctagonDomain::seal(out).map(|_| true)
        }

        /// One saturating input, pinned so that drift in what [`Oct::close`]
        /// does beyond [`EXACT_CLOSURE_BOUND`] shows. The paired pivots
        /// leave `v1 + v2 ≤ −4611686018427387954`, the strengthening of two
        /// saturated unary bounds, where the reference's single pivots
        /// find a path whose sum saturates to `i64::MIN`. The bound in
        /// unbounded arithmetic is below both, so both are sound; every
        /// other entry agrees.
        #[test]
        fn closure_of_a_saturating_input_is_pinned() {
            let mut o = Oct::unconstrained((0..3).map(var).collect());
            for (i, j, c) in [(0, 1, 100), (4, 5, -100), (2, 1, i64::MIN + 2), (1, 0, -5)] {
                tighten_raw(&mut o, i, j, c);
            }
            let mut reference = o.full();
            assert!(close_full(&mut reference, 6, INF, badd, bhalf));
            assert!(o.close());
            let closed = o.full();
            let differ: Vec<usize> = (0..36).filter(|&e| closed[e] != reference[e]).collect();
            assert_eq!(differ, [2 * 6 + 5, 4 * 6 + 3], "(v1⁺, v2⁻) and its twin");
            assert_eq!(
                (o.at(2, 5), reference[2 * 6 + 5]),
                (-4611686018427387954, i64::MIN)
            );
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
                let raw = add_all(closed.clone(), &adds, add_sum_le_raw);
                let incremental = add_all(closed, &adds, add_sum_le);
                assert_same(
                    incremental.and_then(|mut o| o.close().then_some(o)),
                    raw.and_then(close_checked),
                );
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
                let mut raw = closed.clone();
                let xi = raw.track(&x);
                tighten_raw(&mut raw, 2 * xi, 2 * xi + 1, hi.saturating_mul(2));
                tighten_raw(&mut raw, 2 * xi + 1, 2 * xi, (-lo).saturating_mul(2));
                let mut inc = closed;
                prop_assert!(inc.constrain_interval(&x, Interval::of(lo, hi)));
                assert_same(inc.close().then_some(inc), close_checked(raw));
            }

            /// The layout under `track` and `untrack`: a variable that
            /// sorts first, in the middle or last comes and goes as the
            /// full matrix's row-and-column insert and delete, and a
            /// constrained one leaves as its rows and columns deleted.
            #[test]
            fn track_and_untrack_are_row_and_column_insert_and_delete(
                closed in closed_octagon(),
                place in 0u8..3,
                gone in 0usize..14,
            ) {
                let Some(closed) = closed else {
                    return;
                };
                let (n, d) = (closed.n(), closed.dim());
                let fresh = Symbol::new(["a-new", "v00x", "z-new"][place as usize]);
                let mut grown = closed.clone();
                let pos = grown.track(&fresh);
                prop_assert_eq!(pos, [0, 1, n][place as usize]);
                prop_assert_eq!(grown.dbm.len(), 2 * (n + 1) * (n + 2));
                prop_assert_eq!(grown.full(), insert_pair_full(&closed.full(), d, pos));
                grown.untrack(&fresh);
                prop_assert_eq!(&grown, &closed);

                let gone = gone % n;
                let mut shrunk = closed.clone();
                shrunk.untrack(&var(gone));
                let mut vars = closed.vars.to_vec();
                vars.remove(gone);
                prop_assert_eq!(&shrunk.vars[..], &vars[..]);
                prop_assert!(shrunk.closed);
                // Deleting the pair is what inserting it back undoes, up
                // to the constraints it carried.
                let kept = |e: &usize| e / d / 2 != gone && e % d / 2 != gone;
                let full = closed.full();
                let deleted: Vec<i64> = (0..d * d).filter(kept).map(|e| full[e]).collect();
                prop_assert_eq!(shrunk.full(), deleted);
            }

            /// The one-pass call binding against the parent's construction,
            /// on zero to four actuals of every kind it distinguishes.
            #[test]
            fn call_entry_equals_the_per_variable_construction(
                closed in closed_octagon(),
                actuals in prop::collection::vec((0u8..7, 0usize..14, -30i64..30), 0..5),
                formals in (0usize..24, 0usize..2),
            ) {
                let Some(closed) = closed else {
                    return;
                };
                let n = closed.n();
                let args: Vec<Expr> = actuals
                    .iter()
                    .map(|&(kind, v, c)| {
                        let v = var(v % n);
                        parse_expr(&match kind {
                            0 => format!("{v}"),
                            1 => format!("{c}"),
                            2 => format!("{v} + {c}"),
                            3 => format!("{c} - {v}"),
                            4 => format!("{v} * {v}"),
                            5 => "untracked".to_string(),
                            _ => "[1, 2]".to_string(),
                        })
                        .unwrap()
                    })
                    .collect();
                // Parameter names in an order that is not the actuals',
                // and sometimes one more parameter than actuals.
                let mut names = ["p", "q", "r", "s", "t"].map(Symbol::new).to_vec();
                names.rotate_left(formals.0 % 5);
                if formals.0 / 5 % 2 == 1 {
                    names.swap(0, 3);
                }
                names.truncate(args.len() + formals.1);
                let site = CallSite {
                    lhs: None,
                    callee: &Symbol::new("f"),
                    args: &args,
                    site_key: "main:e0",
                };
                let caller = OctagonDomain::seal(closed);
                let got = caller.call_entry(site, &names);
                let want = call_entry_ref(&caller, site, &names);
                prop_assert_eq!(&got, &want);
                if let (OctagonDomain::Oct(got), OctagonDomain::Oct(want)) = (&got, &want) {
                    prop_assert_eq!(got.is_closed(), want.is_closed());
                }
            }
        }
    }
}
