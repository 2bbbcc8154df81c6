//! The §7.2 interval / context-sensitivity experiment.
//!
//! The paper validates its APRON-backed interval analysis on 23
//! array-manipulating functions from the Buckets.js test suite
//! (`contains`, `equals`, `swap`, `indexOf`, …), checking the safety of
//! every array access under three context policies:
//!
//! > "Using the 2-call-string-sensitive context policy, our analysis
//! > verified the safety of all 85 array accesses in the programs; with
//! > 1-call-string-sensitivity, it verified 71/74 (96%), and with
//! > context-insensitive analysis it verified 4/18 (22%)."
//!
//! This module ports the same workload *shape* to `dai-lang`: a library of
//! array functions exercised by a test driver (`main`) that calls each
//! function several times with arrays of different lengths — exactly the
//! structure of a data-structure library's test suite. Context
//! sensitivity then decides precision:
//!
//! * **k = 0** joins every test's arrays at a library function's entry, so
//!   only accesses with caller-independent bounds verify (a handful);
//! * **k = 1** separates test call sites, verifying direct accesses, but
//!   still joins flows through the shared `get`/`set` accessors reached
//!   from multiply-called library functions (a few failures);
//! * **k = 2** distinguishes those two-deep chains as well and verifies
//!   everything.
//!
//! Each policy is one run of [`InterAnalyzer`], the one interprocedural
//! analyzer (paper §7.1). The paper's §2.3 also sketches a functional
//! (Sharir–Pnueli) approach; it is not implemented, since `k = 2` already
//! verifies every access here.
//!
//! Absolute counts differ from the paper's (different corpus), but the
//! precision gradient — and the context-multiplication of the access count
//! (the paper's 18 → 74 → 85) — is the reproduced result.

use dai_core::interproc::{ContextPolicy, InterAnalyzer};
use dai_domains::IntervalDomain;
use dai_lang::cfg::lower_program;
use dai_lang::parser::parse_program;
use dai_lang::Symbol;

/// The ported array-library suite: shared accessors, library functions,
/// and the test driver.
pub const BUCKETS_SRC: &str = r#"
// ---- shared element accessors (the two-deep flows that need k = 2) ----
function get(a, i) { return a[i]; }
function set(a, i, v) { a[i] = v; return v; }

// ---- library functions under test (called with several arrays) ----
function contains(a, v) {
    var found = 0; var i = 0;
    while (i < len(a)) { if (a[i] == v) { found = 1; } i = i + 1; }
    return found;
}
function indexOf(a, v) {
    var at = 0 - 1; var i = 0;
    while (i < len(a)) { if (a[i] == v) { at = i; } i = i + 1; }
    return at;
}
function lastIndexOf(a, v) {
    var at = 0 - 1; var i = len(a) - 1;
    while (i >= 0) { if (a[i] == v && at < 0) { at = i; } i = i - 1; }
    return at;
}
function equalsArr(a, b) {
    var same = 1; var i = 0;
    while (i < len(a)) {
        if (i < len(b)) { if (a[i] != b[i]) { same = 0; } }
        i = i + 1;
    }
    return same;
}
function sum(a) {
    var s = 0; var i = 0;
    while (i < len(a)) { var x = get(a, i); s = s + x; i = i + 1; }
    return s;
}
function maxOf(a) {
    var m = a[0]; var i = 1;
    while (i < len(a)) { if (a[i] > m) { m = a[i]; } i = i + 1; }
    return m;
}
function fill(a, v) {
    var i = 0;
    while (i < len(a)) { var u = set(a, i, v); i = i + 1; }
    return a[0];
}
function reverse(a) {
    var i = 0; var j = len(a) - 1;
    while (i < j) { var t = a[i]; a[i] = a[j]; a[j] = t; i = i + 1; j = j - 1; }
    return a[0];
}
function scale(a, k) {
    var i = 0;
    while (i < len(a)) { var x = get(a, i); var u = set(a, i, x * k); i = i + 1; }
    return a[0];
}
function clampAll(a, hi) {
    var i = 0;
    while (i < len(a)) {
        var x = get(a, i);
        if (x > hi) { var u = set(a, i, hi); }
        i = i + 1;
    }
    return a[0];
}
function windowSum(a) {
    var s = 0; var i = 0;
    while (i < len(a) - 1) { s = s + a[i] + a[i + 1]; i = i + 1; }
    return s;
}
function firstOf(a) {
    return a[0];
}
function countMatches(a, v) {
    var c = 0; var i = 0;
    while (i < len(a)) { if (a[i] == v) { c = c + 1; } i = i + 1; }
    return c;
}
function swapEnds(a) {
    var i = 0; var j = len(a) - 1;
    var t = a[i]; a[i] = a[j]; a[j] = t;
    return a[0];
}
function copyInto(a, b) {
    var i = 0;
    while (i < len(a)) {
        if (i < len(b)) { var u = set(b, i, a[i]); }
        i = i + 1;
    }
    return b[0];
}
function dotProduct(a, b) {
    var s = 0; var i = 0;
    while (i < len(a)) {
        if (i < len(b)) { s = s + a[i] * b[i]; }
        i = i + 1;
    }
    return s;
}

// ---- caller-independent functions (verifiable even at k = 0) ----
function singleton() {
    var a = [7];
    return a[0];
}
function pairMax() {
    var a = [3, 9];
    var m = a[0];
    if (a[1] > m) { m = a[1]; }
    return m;
}

// ---- the test driver: each library function exercised with several
// ---- arrays of different lengths (as a test suite would).
function main() {
    var t1 = contains([1, 2, 3], 2);
    var t2 = contains([4, 5, 6, 7], 9);
    var t3 = contains([9, 8, 7, 6, 5], 7);
    var t4 = indexOf([1, 2], 2);
    var t5 = indexOf([5, 5, 5], 5);
    var t6 = lastIndexOf([4, 5, 4], 4);
    var t7 = lastIndexOf([1, 2, 3, 4], 1);
    var t8 = equalsArr([1, 2], [1, 2]);
    var t9 = equalsArr([1, 2, 3], [1, 2, 4]);
    var t10 = sum([1, 2, 3]);
    var t11 = sum([10, 20, 30, 40]);
    var t12 = maxOf([3, 1, 4]);
    var t13 = maxOf([1, 5, 9, 2, 6]);
    var t14 = fill([0, 0, 0], 7);
    var t15 = fill([0, 0], 9);
    var t16 = reverse([1, 2, 3, 4]);
    var t17 = reverse([5, 6]);
    var t18 = scale([1, 2, 3], 2);
    var t19 = scale([1, 2, 3, 4, 5], 3);
    var t20 = clampAll([5, 15, 25], 10);
    var t21 = clampAll([1, 100], 50);
    var t22 = windowSum([1, 2, 3, 4]);
    var t23 = windowSum([1, 2]);
    var t24 = firstOf([42]);
    var t25 = firstOf([1, 2, 3]);
    var t26 = countMatches([2, 2, 5], 2);
    var t27 = countMatches([1, 1, 1, 1], 1);
    var t28 = swapEnds([9, 8, 7]);
    var t29 = swapEnds([1, 2, 3, 4, 5]);
    var t30 = copyInto([1, 2], [0, 0]);
    var t31 = copyInto([3, 4, 5], [0, 0, 0]);
    var t32 = dotProduct([1, 2, 3], [4, 5, 6]);
    var t33 = dotProduct([1, 2], [3, 4]);
    var t34 = singleton();
    var t35 = pairMax();
    return t1 + t35;
}
"#;

/// Result of checking one policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketsResult {
    /// Array accesses proven in-bounds (counted per calling context).
    pub verified: usize,
    /// Total array accesses (counted per calling context).
    pub total: usize,
}

impl BucketsResult {
    /// Verification ratio.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.verified as f64 / self.total as f64
        }
    }
}

/// Runs the experiment under one context policy: demands the abstract
/// state before every array access in every calling context and checks the
/// §7.2 bounds obligation `0 ≤ i < len(a)`.
pub fn run_buckets(policy: ContextPolicy) -> BucketsResult {
    let program =
        lower_program(&parse_program(BUCKETS_SRC).expect("suite parses")).expect("suite lowers");
    let mut analyzer: InterAnalyzer<IntervalDomain> =
        InterAnalyzer::new(program.clone(), policy, "main", IntervalDomain::top());
    let mut verified = 0;
    let mut total = 0;
    let names: Vec<Symbol> = program.cfgs().iter().map(|c| c.name().clone()).collect();
    for fname in names {
        let cfg = program
            .by_name(fname.as_str())
            .expect("function exists")
            .clone();
        for edge in cfg.edges() {
            let accesses = edge.stmt.array_accesses();
            if accesses.is_empty() {
                continue;
            }
            let per_ctx = analyzer
                .query_at(fname.as_str(), edge.src)
                .expect("query succeeds");
            for (_ctx, state) in per_ctx {
                for (arr, idx) in &accesses {
                    total += 1;
                    if state.array_access_safe(arr, idx) {
                        verified += 1;
                    }
                }
            }
        }
    }
    BucketsResult { verified, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_parses_and_lowers() {
        let program = lower_program(&parse_program(BUCKETS_SRC).unwrap()).unwrap();
        assert_eq!(program.cfgs().len(), 21); // 18 library + 2 accessors + main
    }

    #[test]
    fn two_call_string_verifies_everything() {
        let r = run_buckets(ContextPolicy::CallString(2));
        assert_eq!(r.verified, r.total, "k=2 must verify all accesses: {r:?}");
        assert!(
            r.total >= 50,
            "expected a rich access count, got {}",
            r.total
        );
    }

    #[test]
    fn one_call_string_verifies_most_but_not_all() {
        let r = run_buckets(ContextPolicy::CallString(1));
        assert!(
            r.verified < r.total,
            "k=1 must miss the two-deep accessor flows: {r:?}"
        );
        assert!(r.ratio() > 0.80, "k=1 should verify most accesses: {r:?}");
    }

    #[test]
    fn insensitive_verifies_only_caller_independent_accesses() {
        let r = run_buckets(ContextPolicy::Insensitive);
        assert!(r.ratio() < 0.5, "k=0 must lose most accesses: {r:?}");
        assert!(
            r.verified > 0,
            "caller-independent accesses must verify: {r:?}"
        );
    }

    #[test]
    fn gradient_matches_paper_shape() {
        let k0 = run_buckets(ContextPolicy::Insensitive);
        let k1 = run_buckets(ContextPolicy::CallString(1));
        let k2 = run_buckets(ContextPolicy::CallString(2));
        assert!(k0.ratio() < k1.ratio());
        assert!(k1.ratio() < k2.ratio() + 1e-9);
        assert_eq!(k2.ratio(), 1.0);
        // Context multiplication grows the denominator, as in the paper
        // (18 → 74 → 85).
        assert!(k0.total < k1.total);
        assert!(k1.total <= k2.total);
    }
}
