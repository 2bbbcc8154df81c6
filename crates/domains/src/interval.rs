//! The interval abstract domain (paper §7.2).
//!
//! "The interval abstract domain is a textbook example of an infinite-height
//! lattice, requiring widening to guarantee analysis convergence." The paper
//! instantiates its framework with APRON intervals; this module implements
//! the same domain from scratch:
//!
//! * [`Interval`] — integer intervals with ±∞ bounds and sound arithmetic
//!   (any finite overflow widens to ⊤, since the concrete semantics wraps);
//! * [`AbsVal`] — a reduced sum abstraction of the language's runtime
//!   values: numbers, booleans, null/node references, and arrays
//!   (abstracted as a length interval plus smashed element abstraction);
//! * [`IntervalDomain`] — [`NonRel`] environments of [`AbsVal`]s: this
//!   module supplies the value lattice (expression evaluation, comparison
//!   refinement, the array and field write hooks) and the
//!   array-bounds-checking client used by the Buckets experiment.

use crate::bool3::Bool3;
use crate::nonrel::{Env, Lifted, NonRel, ValueLattice};
use dai_lang::interp::Value;
use dai_lang::{BinOp, Expr, Symbol, UnOp};
use std::fmt;

/// An interval endpoint: `-∞`, a finite `i64`, or `+∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bound {
    /// `-∞`
    NegInf,
    /// A finite endpoint.
    Fin(i64),
    /// `+∞`
    PosInf,
}

impl Bound {
    fn as_i128(self) -> Option<i128> {
        match self {
            Bound::Fin(n) => Some(n as i128),
            _ => None,
        }
    }

    /// Clamps an exact i128 endpoint into a sound lower bound.
    fn lower_from_i128(v: i128) -> Bound {
        if v < i64::MIN as i128 {
            Bound::NegInf
        } else if v > i64::MAX as i128 {
            // A lower bound above every representable value: the wrapping
            // concrete semantics makes this unsound to keep; callers detect
            // overflow separately. Used only for refinement bounds, where
            // an impossible lower bound means the refined interval is empty.
            Bound::PosInf
        } else {
            Bound::Fin(v as i64)
        }
    }

    fn upper_from_i128(v: i128) -> Bound {
        if v > i64::MAX as i128 {
            Bound::PosInf
        } else if v < i64::MIN as i128 {
            Bound::NegInf
        } else {
            Bound::Fin(v as i64)
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::NegInf => write!(f, "-inf"),
            Bound::Fin(n) => write!(f, "{n}"),
            Bound::PosInf => write!(f, "+inf"),
        }
    }
}

/// An integer interval `[lo, hi]`, possibly empty.
///
/// The empty interval has a canonical representation so that `Eq`/`Hash`
/// are structural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: Bound,
    hi: Bound,
}

impl Interval {
    /// The canonical empty interval.
    pub const EMPTY: Interval = Interval {
        lo: Bound::PosInf,
        hi: Bound::NegInf,
    };

    /// The full interval `[-∞, +∞]`.
    pub const TOP: Interval = Interval {
        lo: Bound::NegInf,
        hi: Bound::PosInf,
    };

    /// Creates `[lo, hi]`, normalizing empty intervals.
    pub fn new(lo: Bound, hi: Bound) -> Interval {
        let iv = Interval { lo, hi };
        if iv.is_empty_raw() {
            Interval::EMPTY
        } else {
            iv
        }
    }

    /// The singleton `[n, n]`.
    pub fn constant(n: i64) -> Interval {
        Interval {
            lo: Bound::Fin(n),
            hi: Bound::Fin(n),
        }
    }

    /// `[lo, hi]` from finite endpoints.
    pub fn of(lo: i64, hi: i64) -> Interval {
        Interval::new(Bound::Fin(lo), Bound::Fin(hi))
    }

    /// `[lo, +∞]`.
    pub fn at_least(lo: i64) -> Interval {
        Interval {
            lo: Bound::Fin(lo),
            hi: Bound::PosInf,
        }
    }

    /// `[-∞, hi]`.
    pub fn at_most(hi: i64) -> Interval {
        Interval {
            lo: Bound::NegInf,
            hi: Bound::Fin(hi),
        }
    }

    fn is_empty_raw(&self) -> bool {
        match (self.lo, self.hi) {
            (Bound::Fin(a), Bound::Fin(b)) => a > b,
            (Bound::PosInf, _) | (_, Bound::NegInf) => true,
            _ => false,
        }
    }

    /// Is this the empty interval?
    pub fn is_empty(&self) -> bool {
        *self == Interval::EMPTY
    }

    /// Lower bound.
    pub fn lo(&self) -> Bound {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> Bound {
        self.hi
    }

    /// Does the interval contain `n`?
    pub fn contains(&self, n: i64) -> bool {
        let lo_ok = match self.lo {
            Bound::NegInf => true,
            Bound::Fin(l) => l <= n,
            Bound::PosInf => false,
        };
        let hi_ok = match self.hi {
            Bound::PosInf => true,
            Bound::Fin(h) => n <= h,
            Bound::NegInf => false,
        };
        lo_ok && hi_ok
    }

    /// Least upper bound.
    pub fn join(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Greatest lower bound.
    pub fn meet(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        Interval::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Standard interval widening: unstable bounds jump to ±∞.
    pub fn widen(&self, next: &Interval) -> Interval {
        if self.is_empty() {
            return *next;
        }
        if next.is_empty() {
            return *self;
        }
        let lo = if next.lo < self.lo {
            Bound::NegInf
        } else {
            self.lo
        };
        let hi = if next.hi > self.hi {
            Bound::PosInf
        } else {
            self.hi
        };
        Interval { lo, hi }
    }

    /// Inclusion `⊑`.
    pub fn leq(&self, other: &Interval) -> bool {
        self.is_empty() || (!other.is_empty() && other.lo <= self.lo && self.hi <= other.hi)
    }

    fn exact(&self) -> Option<(i128, i128)> {
        match (self.lo.as_i128(), self.hi.as_i128()) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }

    fn from_exact(lo: i128, hi: i128) -> Interval {
        // Concrete arithmetic wraps on overflow, so an out-of-range exact
        // result set is only soundly approximated by ⊤.
        if lo < i64::MIN as i128 || hi > i64::MAX as i128 {
            Interval::TOP
        } else {
            Interval::of(lo as i64, hi as i64)
        }
    }

    /// Abstract addition.
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        let lo = match (self.lo.as_i128(), other.lo.as_i128()) {
            (Some(a), Some(b)) => Bound::lower_from_i128(a + b),
            _ => Bound::NegInf,
        };
        let hi = match (self.hi.as_i128(), other.hi.as_i128()) {
            (Some(a), Some(b)) => Bound::upper_from_i128(a + b),
            _ => Bound::PosInf,
        };
        // Wrapping overflow check: exact finite sums outside i64 must
        // become ⊤.
        if let (Some((a, b)), Some((c, d))) = (self.exact(), other.exact()) {
            return Interval::from_exact(a + c, b + d);
        }
        Interval::new(lo, hi)
    }

    /// Abstract subtraction.
    pub fn sub(&self, other: &Interval) -> Interval {
        self.add(&other.neg())
    }

    /// Abstract negation.
    pub fn neg(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        match self.exact() {
            Some((a, b)) => Interval::from_exact(-b, -a),
            None => {
                let lo = match self.hi {
                    Bound::Fin(h) if h != i64::MIN => Bound::Fin(-h),
                    Bound::NegInf => Bound::PosInf,
                    _ => Bound::NegInf,
                };
                let hi = match self.lo {
                    Bound::Fin(l) if l != i64::MIN => Bound::Fin(-l),
                    Bound::PosInf => Bound::NegInf,
                    _ => Bound::PosInf,
                };
                Interval::new(lo, hi)
            }
        }
    }

    /// Abstract multiplication.
    pub fn mul(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        match (self.exact(), other.exact()) {
            (Some((a, b)), Some((c, d))) => {
                let products = [a * c, a * d, b * c, b * d];
                Interval::from_exact(
                    *products.iter().min().expect("nonempty"),
                    *products.iter().max().expect("nonempty"),
                )
            }
            _ => {
                // With an infinite endpoint, be precise only for the easy
                // zero/one cases; otherwise ⊤ (sound).
                if *self == Interval::constant(0) || *other == Interval::constant(0) {
                    Interval::constant(0)
                } else if *self == Interval::constant(1) {
                    *other
                } else if *other == Interval::constant(1) {
                    *self
                } else {
                    Interval::TOP
                }
            }
        }
    }

    /// Abstract division (truncating; division by zero halts concretely, so
    /// the divisor is implicitly refined to exclude 0).
    pub fn div(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        let pos = other.meet(&Interval::at_least(1));
        let neg = other.meet(&Interval::at_most(-1));
        let mut out = Interval::EMPTY;
        for divisor in [pos, neg] {
            if divisor.is_empty() {
                continue;
            }
            out = out.join(&self.div_nonzero(&divisor));
        }
        out
    }

    fn div_nonzero(&self, other: &Interval) -> Interval {
        match (self.exact(), other.exact()) {
            (Some((a, b)), Some((c, d))) => {
                let qs = [a / c, a / d, b / c, b / d];
                Interval::from_exact(
                    *qs.iter().min().expect("nonempty"),
                    *qs.iter().max().expect("nonempty"),
                )
            }
            _ => {
                // Magnitude never grows when dividing by |d| >= 1; the sign
                // may flip, so the sound quick bound is the symmetric hull.
                let m = self.magnitude_bound();
                match m {
                    Some(m) => Interval::of(-m, m),
                    None => Interval::TOP,
                }
            }
        }
    }

    fn magnitude_bound(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Bound::Fin(l), Bound::Fin(h)) => Some(l.unsigned_abs().max(h.unsigned_abs()) as i64),
            _ => None,
        }
    }

    /// Abstract remainder (Rust `%` semantics: result takes the dividend's
    /// sign, `|r| < |divisor|`).
    pub fn rem(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::EMPTY;
        }
        let nonzero = other
            .meet(&Interval::at_least(1))
            .join(&other.meet(&Interval::at_most(-1)));
        if nonzero.is_empty() {
            return Interval::EMPTY; // dividing by 0 always halts
        }
        let mag = match (nonzero.lo, nonzero.hi) {
            (Bound::Fin(l), Bound::Fin(h)) => {
                Some((l.unsigned_abs().max(h.unsigned_abs()) as i64).saturating_sub(1))
            }
            _ => None,
        };
        let base = match mag {
            Some(m) => Interval::of(-m, m),
            None => Interval::TOP,
        };
        // Sign and magnitude follow the dividend.
        let mut refined = base;
        if let Bound::Fin(l) = self.lo {
            if l >= 0 {
                refined = refined.meet(&Interval::at_least(0));
            }
        }
        if let Bound::Fin(h) = self.hi {
            if h <= 0 {
                refined = refined.meet(&Interval::at_most(0));
            }
            // |r| <= |dividend|
            if let Bound::Fin(l) = self.lo {
                let m = l.unsigned_abs().max(h.unsigned_abs()) as i64;
                refined = refined.meet(&Interval::of(-m, m));
            }
        }
        refined
    }

    /// Abstract comparison `self < other` as a [`Bool3`].
    pub fn lt(&self, other: &Interval) -> Bool3 {
        if self.is_empty() || other.is_empty() {
            return Bool3::Bot;
        }
        if self.hi < other.lo {
            return Bool3::True;
        }
        if other.hi <= self.lo {
            return Bool3::False;
        }
        Bool3::Top
    }

    /// Abstract comparison `self <= other`.
    pub fn le(&self, other: &Interval) -> Bool3 {
        if self.is_empty() || other.is_empty() {
            return Bool3::Bot;
        }
        if self.hi <= other.lo {
            return Bool3::True;
        }
        if other.hi < self.lo {
            return Bool3::False;
        }
        Bool3::Top
    }

    /// Abstract equality.
    pub fn eq_abs(&self, other: &Interval) -> Bool3 {
        if self.is_empty() || other.is_empty() {
            return Bool3::Bot;
        }
        if self.meet(other).is_empty() {
            return Bool3::False;
        }
        if self.lo == self.hi && *self == *other {
            return Bool3::True;
        }
        Bool3::Top
    }

    /// Refines `self` assuming `self < other` (strict upper bound).
    pub fn refine_lt(&self, other: &Interval) -> Interval {
        match other.hi.as_i128() {
            Some(h) => self.meet(&Interval::new(Bound::NegInf, Bound::upper_from_i128(h - 1))),
            None => {
                if other.hi == Bound::NegInf {
                    Interval::EMPTY
                } else {
                    *self
                }
            }
        }
    }

    /// Refines `self` assuming `self <= other`.
    pub fn refine_le(&self, other: &Interval) -> Interval {
        match other.hi {
            Bound::Fin(h) => self.meet(&Interval::at_most(h)),
            Bound::PosInf => *self,
            Bound::NegInf => Interval::EMPTY,
        }
    }

    /// Refines `self` assuming `self > other`.
    pub fn refine_gt(&self, other: &Interval) -> Interval {
        match other.lo.as_i128() {
            Some(l) => self.meet(&Interval::new(Bound::lower_from_i128(l + 1), Bound::PosInf)),
            None => {
                if other.lo == Bound::PosInf {
                    Interval::EMPTY
                } else {
                    *self
                }
            }
        }
    }

    /// Refines `self` assuming `self >= other`.
    pub fn refine_ge(&self, other: &Interval) -> Interval {
        match other.lo {
            Bound::Fin(l) => self.meet(&Interval::at_least(l)),
            Bound::NegInf => *self,
            Bound::PosInf => Interval::EMPTY,
        }
    }

    /// Refines `self` assuming `self != other` (only effective when `other`
    /// is a singleton at one of `self`'s endpoints).
    pub fn refine_ne(&self, other: &Interval) -> Interval {
        if let (Bound::Fin(c), true) = (other.lo, other.lo == other.hi) {
            if self.lo == Bound::Fin(c) && self.hi == Bound::Fin(c) {
                return Interval::EMPTY;
            }
            if self.lo == Bound::Fin(c) {
                return Interval::new(Bound::Fin(c.saturating_add(1)), self.hi);
            }
            if self.hi == Bound::Fin(c) {
                return Interval::new(self.lo, Bound::Fin(c.saturating_sub(1)));
            }
        }
        *self
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "[]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Abstraction of an array: a length interval plus a smashed element
/// abstraction covering every element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayAbs {
    /// Possible lengths (always within `[0, +∞]`).
    pub len: Interval,
    /// Abstraction of every element (`⊥` for definitely-empty arrays).
    pub elem: Box<AbsVal>,
}

/// Abstraction of a single runtime value: a reduced sum over the language's
/// value families.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AbsVal {
    /// No value.
    Bot,
    /// An integer in the interval.
    Num(Interval),
    /// A boolean.
    Boolean(Bool3),
    /// Exactly `null`.
    NullRef,
    /// A non-null heap node.
    NodeRef,
    /// `null` or a heap node.
    AnyRef,
    /// An array.
    Arr(ArrayAbs),
    /// Any value at all.
    Top,
}

impl AbsVal {
    /// Normalizes: empty intervals and `⊥` booleans collapse to `Bot`.
    fn normalize(self) -> AbsVal {
        match self {
            AbsVal::Num(i) if i.is_empty() => AbsVal::Bot,
            AbsVal::Boolean(Bool3::Bot) => AbsVal::Bot,
            AbsVal::Arr(a) if a.len.is_empty() => AbsVal::Bot,
            v => v,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, other) {
            (Bot, v) | (v, Bot) => v.clone(),
            (Top, _) | (_, Top) => Top,
            (Num(a), Num(b)) => Num(a.join(b)),
            (Boolean(a), Boolean(b)) => Boolean(a.join(*b)),
            (NullRef, NullRef) => NullRef,
            (NodeRef, NodeRef) => NodeRef,
            (NullRef, NodeRef) | (NodeRef, NullRef) => AnyRef,
            (AnyRef, NullRef | NodeRef | AnyRef) | (NullRef | NodeRef, AnyRef) => AnyRef,
            (Arr(a), Arr(b)) => Arr(ArrayAbs {
                len: a.len.join(&b.len),
                elem: Box::new(a.elem.join(&b.elem)),
            }),
            _ => Top,
        }
    }

    /// Widening (pointwise on intervals, join elsewhere — all non-interval
    /// components are finite-height).
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        use AbsVal::*;
        match (self, next) {
            (Bot, v) | (v, Bot) => v.clone(),
            (Num(a), Num(b)) => Num(a.widen(b)),
            (Arr(a), Arr(b)) => Arr(ArrayAbs {
                len: a.len.widen(&b.len),
                elem: Box::new(a.elem.widen(&b.elem)),
            }),
            _ => self.join(next),
        }
    }

    fn as_num(&self) -> Interval {
        match self {
            AbsVal::Num(i) => *i,
            AbsVal::Top => Interval::TOP,
            _ => Interval::EMPTY,
        }
    }

    fn as_bool(&self) -> Bool3 {
        match self {
            AbsVal::Boolean(b) => *b,
            AbsVal::Top => Bool3::Top,
            _ => Bool3::Bot,
        }
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbsVal::Bot => write!(f, "⊥"),
            AbsVal::Num(i) => write!(f, "{i}"),
            AbsVal::Boolean(b) => write!(f, "{b}"),
            AbsVal::NullRef => write!(f, "null"),
            AbsVal::NodeRef => write!(f, "node"),
            AbsVal::AnyRef => write!(f, "ref?"),
            AbsVal::Arr(a) => write!(f, "arr(len={}, elem={})", a.len, a.elem),
            AbsVal::Top => write!(f, "⊤"),
        }
    }
}

/// The interval domain: environments of [`AbsVal`]s (unbound variables
/// are `⊤`).
pub type IntervalDomain = NonRel<AbsVal>;

impl IntervalDomain {
    /// The abstract value of `var` (`⊤` when unbound, `⊥` in the bottom
    /// state).
    pub fn value_of(&self, var: &str) -> AbsVal {
        match self.env() {
            None => AbsVal::Bot,
            Some(env) => env.get(var).cloned().unwrap_or(AbsVal::Top),
        }
    }

    /// The interval of `var`, if it is (possibly) numeric.
    pub fn interval_of(&self, var: &str) -> Interval {
        match self.env() {
            None => Interval::EMPTY,
            Some(env) => env.get(var).map_or(Interval::TOP, AbsVal::as_num),
        }
    }

    /// Is the array access `arr[idx]` provably in bounds in this state?
    /// (`⊥` states are vacuously safe.) This is the §7.2 client.
    pub fn array_access_safe(&self, arr: &Expr, idx: &Expr) -> bool {
        let Some(env) = self.env() else {
            return true;
        };
        let i = eval_in(env, idx).as_num();
        if i.is_empty() {
            return true; // index never evaluates: access unreachable
        }
        let Bound::Fin(ilo) = i.lo() else {
            return false;
        };
        if ilo < 0 {
            return false;
        }
        let AbsVal::Arr(a) = eval_in(env, arr) else {
            return false;
        };
        match (i.hi(), a.len.lo()) {
            (Bound::Fin(ihi), Bound::Fin(llo)) => ihi < llo,
            _ => false,
        }
    }
}

/// Refines interval `x` under `x op other`.
fn refine_interval(op: BinOp, x: &Interval, other: &Interval) -> Interval {
    match op {
        BinOp::Lt => x.refine_lt(other),
        BinOp::Le => x.refine_le(other),
        BinOp::Gt => x.refine_gt(other),
        BinOp::Ge => x.refine_ge(other),
        BinOp::Eq => x.meet(other),
        BinOp::Ne => x.refine_ne(other),
        _ => *x,
    }
}

/// Refines abstract value `x` under `x op other`.
fn refine_absval(op: BinOp, x: &AbsVal, other: &AbsVal) -> AbsVal {
    use AbsVal::*;
    match (op, other) {
        // Null tests refine references.
        (BinOp::Eq, NullRef) => match x {
            NullRef | AnyRef | Top => NullRef,
            _ => Bot,
        },
        (BinOp::Ne, NullRef) => match x {
            NodeRef | AnyRef => NodeRef,
            NullRef => Bot,
            Top => Top, // could be a non-reference; cannot refine to NodeRef
            other => other.clone(),
        },
        // Boolean equality tests.
        (BinOp::Eq, Boolean(b)) => {
            let xb = x.as_bool();
            let refined = match b {
                Bool3::True => xb.and(Bool3::True),
                Bool3::False => {
                    if xb.may_false() {
                        Bool3::False
                    } else {
                        Bool3::Bot
                    }
                }
                _ => xb,
            };
            Boolean(refined).normalize()
        }
        // Numeric comparisons.
        _ => {
            let other_num = other.as_num();
            match x {
                Num(i) => Num(refine_interval(op, i, &other_num)).normalize(),
                Top if !other_num.is_empty() => {
                    // A comparison against a number means x is a number.
                    Num(refine_interval(op, &Interval::TOP, &other_num)).normalize()
                }
                v => v.clone(),
            }
        }
    }
}

impl ValueLattice for AbsVal {
    const NAME: &'static str = "interval";

    fn lift(self) -> Lifted<AbsVal> {
        match self.normalize() {
            AbsVal::Bot => Lifted::Bot,
            AbsVal::Top => Lifted::Top,
            v => Lifted::Val(v),
        }
    }

    fn join(&self, other: &AbsVal) -> Option<AbsVal> {
        Some(AbsVal::join(self, other)).filter(|j| *j != AbsVal::Top)
    }

    fn widen(&self, next: &AbsVal) -> Option<AbsVal> {
        Some(AbsVal::widen(self, next)).filter(|w| *w != AbsVal::Top)
    }

    fn leq(&self, other: &AbsVal) -> bool {
        use AbsVal::*;
        match (self, other) {
            (Bot, _) => true,
            (_, Top) => true,
            (Num(a), Num(b)) => a.leq(b),
            (Boolean(a), Boolean(b)) => a.leq(*b),
            (NullRef, NullRef | AnyRef) => true,
            (NodeRef, NodeRef | AnyRef) => true,
            (AnyRef, AnyRef) => true,
            (Arr(a), Arr(b)) => a.len.leq(&b.len) && a.elem.leq(&b.elem),
            _ => false,
        }
    }

    fn models(&self, v: &Value) -> bool {
        use AbsVal::*;
        match (self, v) {
            (Top, _) => true,
            (Bot, _) => false,
            (Num(i), Value::Int(n)) => i.contains(*n),
            (Boolean(b), Value::Bool(x)) => Bool3::of(*x).leq(*b),
            (NullRef, Value::Null) => true,
            (NodeRef, Value::Node(_)) => true,
            (AnyRef, Value::Null | Value::Node(_)) => true,
            (Arr(a), Value::Arr(vs)) => {
                a.len.contains(vs.len() as i64) && vs.iter().all(|x| a.elem.models(x))
            }
            _ => false,
        }
    }

    fn eval(env: &Env<AbsVal>, expr: &Expr) -> Lifted<AbsVal> {
        eval_in(env, expr).lift()
    }

    fn truth(env: &Env<AbsVal>, cond: &Expr) -> Bool3 {
        eval_in(env, cond).as_bool()
    }

    /// Narrows a variable, or the length of an array variable under
    /// `len(a) op r`.
    fn refine_cmp<'e>(
        env: &Env<AbsVal>,
        op: BinOp,
        l: &'e Expr,
        r: &Expr,
    ) -> Option<(&'e Symbol, Lifted<AbsVal>)> {
        let refined = |x: &'e Symbol, v: AbsVal| Some((x, v.lift()));
        match l {
            Expr::Var(x) => {
                let xv = env.get(x).unwrap_or(&AbsVal::Top);
                refined(x, refine_absval(op, xv, &eval_in(env, r)))
            }
            Expr::ArrayLen(inner) => {
                let Expr::Var(a) = &**inner else {
                    return None;
                };
                let AbsVal::Arr(arr) = env.get(a)? else {
                    return None;
                };
                let bound = eval_in(env, r).as_num();
                let len = refine_interval(op, &arr.len, &bound).meet(&Interval::at_least(0));
                let elem = arr.elem.clone();
                refined(a, AbsVal::Arr(ArrayAbs { len, elem }))
            }
            _ => None,
        }
    }

    /// Weak update; a successful write also proves `len > idx ≥ 0`.
    fn array_write(env: &Env<AbsVal>, a: &Symbol, i: &Expr, e: &Expr) -> Lifted<AbsVal> {
        let iv = eval_in(env, i).as_num();
        if iv.is_empty() {
            return Lifted::Bot;
        }
        let ev = eval_in(env, e);
        let written = match env.get(a) {
            Some(AbsVal::Arr(arr)) => {
                let min_len = match iv.lo() {
                    Bound::Fin(l) if l >= 0 => l.saturating_add(1),
                    _ => 1,
                };
                ArrayAbs {
                    len: arr.len.meet(&Interval::at_least(min_len)),
                    elem: Box::new(arr.elem.join(&ev)),
                }
            }
            None => ArrayAbs {
                len: Interval::at_least(1),
                elem: Box::new(AbsVal::Top),
            },
            Some(_) => return Lifted::Bot, // write to non-array halts
        };
        AbsVal::Arr(written).lift()
    }

    /// No heap tracking; but a successful write proves `x` is a node.
    fn field_write(env: &Env<AbsVal>, x: &Symbol) -> Lifted<AbsVal> {
        match env.get(x) {
            Some(AbsVal::NodeRef | AbsVal::AnyRef) | None => Lifted::Val(AbsVal::NodeRef),
            Some(_) => Lifted::Bot,
        }
    }
}

fn eval_in(env: &Env<AbsVal>, expr: &Expr) -> AbsVal {
    match expr {
        Expr::Int(n) => AbsVal::Num(Interval::constant(*n)),
        Expr::Bool(b) => AbsVal::Boolean(Bool3::of(*b)),
        Expr::Null => AbsVal::NullRef,
        Expr::Var(x) => env.get(x).cloned().unwrap_or(AbsVal::Top),
        Expr::Unary(UnOp::Neg, e) => AbsVal::Num(eval_in(env, e).as_num().neg()).normalize(),
        Expr::Unary(UnOp::Not, e) => AbsVal::Boolean(eval_in(env, e).as_bool().not()).normalize(),
        Expr::Binary(op, l, r) => {
            let lv = eval_in(env, l);
            let rv = eval_in(env, r);
            eval_binop(*op, &lv, &rv)
        }
        Expr::ArrayLit(es) => {
            let mut elem = AbsVal::Bot;
            for e in es {
                elem = elem.join(&eval_in(env, e));
            }
            AbsVal::Arr(ArrayAbs {
                len: Interval::constant(es.len() as i64),
                elem: Box::new(elem),
            })
        }
        Expr::ArrayRead(a, i) => {
            let av = eval_in(env, a);
            let iv = eval_in(env, i).as_num();
            if iv.is_empty() {
                return AbsVal::Bot;
            }
            match av {
                AbsVal::Arr(arr) => *arr.elem,
                AbsVal::Top => AbsVal::Top,
                _ => AbsVal::Bot, // indexing a non-array halts
            }
        }
        Expr::ArrayLen(a) => match eval_in(env, a) {
            AbsVal::Arr(arr) => AbsVal::Num(arr.len),
            AbsVal::Top => AbsVal::Num(Interval::at_least(0)),
            _ => AbsVal::Bot,
        },
        Expr::Field(e, _) => match eval_in(env, e) {
            AbsVal::NodeRef | AbsVal::AnyRef | AbsVal::Top => AbsVal::Top,
            _ => AbsVal::Bot, // field read on null or non-node halts
        },
        Expr::AllocNode => AbsVal::NodeRef,
    }
}

fn eval_binop(op: BinOp, l: &AbsVal, r: &AbsVal) -> AbsVal {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Mod => {
            let (a, b) = (l.as_num(), r.as_num());
            let out = match op {
                Add => a.add(&b),
                Sub => a.sub(&b),
                Mul => a.mul(&b),
                Div => a.div(&b),
                Mod => a.rem(&b),
                _ => unreachable!(),
            };
            AbsVal::Num(out).normalize()
        }
        Lt | Le | Gt | Ge => {
            let (a, b) = (l.as_num(), r.as_num());
            let out = match op {
                Lt => a.lt(&b),
                Le => a.le(&b),
                Gt => b.lt(&a),
                Ge => b.le(&a),
                _ => unreachable!(),
            };
            AbsVal::Boolean(out).normalize()
        }
        Eq | Ne => {
            let eq = abstract_eq(l, r);
            let out = if op == Eq { eq } else { eq.not() };
            AbsVal::Boolean(out).normalize()
        }
        And => AbsVal::Boolean(l.as_bool().and(r.as_bool())).normalize(),
        Or => AbsVal::Boolean(l.as_bool().or(r.as_bool())).normalize(),
    }
}

/// Abstract `==`, accounting for the concrete semantics halting on
/// incomparable types.
fn abstract_eq(l: &AbsVal, r: &AbsVal) -> Bool3 {
    use AbsVal::*;
    match (l, r) {
        (Bot, _) | (_, Bot) => Bool3::Bot,
        (Top, _) | (_, Top) => Bool3::Top,
        (Num(a), Num(b)) => a.eq_abs(b),
        (Boolean(a), Boolean(b)) => match (a, b) {
            (Bool3::True, Bool3::True) | (Bool3::False, Bool3::False) => Bool3::True,
            (Bool3::True, Bool3::False) | (Bool3::False, Bool3::True) => Bool3::False,
            _ => Bool3::Top,
        },
        (NullRef, NullRef) => Bool3::True,
        (NullRef, NodeRef) | (NodeRef, NullRef) => Bool3::False,
        (NullRef | NodeRef | AnyRef, NullRef | NodeRef | AnyRef) => Bool3::Top,
        (Arr(_), Arr(_)) => Bool3::Top,
        _ => Bool3::Bot, // mixed families halt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbstractDomain, CallSite};
    use dai_lang::{parse_expr, Stmt, RETURN_VAR};

    fn st(bindings: &[(&str, AbsVal)]) -> IntervalDomain {
        IntervalDomain::from_bindings(bindings.iter().map(|(k, v)| (Symbol::new(k), v.clone())))
    }

    fn num(lo: i64, hi: i64) -> AbsVal {
        AbsVal::Num(Interval::of(lo, hi))
    }

    #[test]
    fn interval_join_meet_widen() {
        let a = Interval::of(0, 5);
        let b = Interval::of(3, 10);
        assert_eq!(a.join(&b), Interval::of(0, 10));
        assert_eq!(a.meet(&b), Interval::of(3, 5));
        assert_eq!(a.widen(&b), Interval::new(Bound::Fin(0), Bound::PosInf));
        assert_eq!(a.widen(&a), a);
    }

    #[test]
    fn interval_widen_converges() {
        // Repeated widening of a strictly increasing chain stabilizes.
        let mut cur = Interval::of(0, 0);
        let mut steps = 0;
        loop {
            let next = cur.add(&Interval::of(0, 1));
            let w = cur.widen(&next);
            if w == cur {
                break;
            }
            cur = w;
            steps += 1;
            assert!(steps < 5, "widening failed to converge");
        }
        assert_eq!(cur, Interval::at_least(0));
    }

    #[test]
    fn interval_arithmetic_overflow_is_top() {
        let big = Interval::constant(i64::MAX);
        assert_eq!(big.add(&Interval::constant(1)), Interval::TOP);
        assert_eq!(big.mul(&Interval::constant(2)), Interval::TOP);
        assert_eq!(Interval::constant(i64::MIN).neg(), Interval::TOP);
    }

    #[test]
    fn interval_division_excludes_zero_divisor() {
        let x = Interval::of(10, 20);
        assert_eq!(x.div(&Interval::constant(0)), Interval::EMPTY);
        let q = x.div(&Interval::of(-2, 2));
        // Divisor refined to [-2,-1] ∪ [1,2]: quotients within [-20, 20].
        assert!(q.leq(&Interval::of(-20, 20)));
        assert!(q.contains(10) && q.contains(-10) && q.contains(5));
    }

    #[test]
    fn interval_rem_sign_follows_dividend() {
        let r = Interval::of(0, 100).rem(&Interval::constant(7));
        assert!(r.leq(&Interval::of(0, 6)));
        let r = Interval::of(-100, -1).rem(&Interval::constant(7));
        assert!(r.leq(&Interval::of(-6, 0)));
    }

    #[test]
    fn interval_comparison_booleans() {
        assert_eq!(Interval::of(0, 1).lt(&Interval::of(2, 3)), Bool3::True);
        assert_eq!(Interval::of(5, 9).lt(&Interval::of(0, 5)), Bool3::False);
        assert_eq!(Interval::of(0, 5).lt(&Interval::of(3, 9)), Bool3::Top);
        assert_eq!(
            Interval::constant(4).eq_abs(&Interval::constant(4)),
            Bool3::True
        );
        assert_eq!(Interval::of(0, 1).eq_abs(&Interval::of(5, 6)), Bool3::False);
    }

    #[test]
    fn refine_lt_tightens_upper_bound() {
        let x = Interval::TOP.refine_lt(&Interval::constant(10));
        assert_eq!(x, Interval::at_most(9));
        let y = Interval::of(0, 100).refine_ge(&Interval::constant(50));
        assert_eq!(y, Interval::of(50, 100));
    }

    #[test]
    fn refine_ne_punches_endpoints() {
        assert_eq!(
            Interval::of(0, 5).refine_ne(&Interval::constant(0)),
            Interval::of(1, 5)
        );
        assert_eq!(
            Interval::of(0, 5).refine_ne(&Interval::constant(5)),
            Interval::of(0, 4)
        );
        assert_eq!(
            Interval::of(3, 3).refine_ne(&Interval::constant(3)),
            Interval::EMPTY
        );
        // interior holes are not representable
        assert_eq!(
            Interval::of(0, 5).refine_ne(&Interval::constant(2)),
            Interval::of(0, 5)
        );
    }

    #[test]
    fn transfer_assign_and_eval() {
        let s = st(&[("x", num(1, 3))]);
        let s2 = s.transfer(&Stmt::Assign("y".into(), parse_expr("x + 2").unwrap()));
        assert_eq!(s2.interval_of("y"), Interval::of(3, 5));
    }

    #[test]
    fn transfer_assume_refines_both_sides() {
        let s = st(&[("i", num(0, 100)), ("n", num(0, 50))]);
        let s2 = s.transfer(&Stmt::Assume(parse_expr("i < n").unwrap()));
        assert_eq!(s2.interval_of("i"), Interval::of(0, 49));
        assert_eq!(s2.interval_of("n"), Interval::of(1, 50));
    }

    #[test]
    fn assume_false_condition_is_bottom() {
        let s = st(&[("x", num(0, 1))]);
        let s2 = s.transfer(&Stmt::Assume(parse_expr("x > 5").unwrap()));
        assert!(s2.is_bottom());
    }

    #[test]
    fn assume_conjunction_refines_twice() {
        let s = IntervalDomain::top();
        let s2 = s.transfer(&Stmt::Assume(parse_expr("x >= 0 && x < 10").unwrap()));
        assert_eq!(s2.interval_of("x"), Interval::of(0, 9));
    }

    #[test]
    fn assume_disjunction_joins() {
        let s = st(&[("x", num(0, 100))]);
        let s2 = s.transfer(&Stmt::Assume(parse_expr("x < 10 || x > 90").unwrap()));
        assert_eq!(s2.interval_of("x"), Interval::of(0, 100));
        let s3 = s.transfer(&Stmt::Assume(parse_expr("x < 10 || x < 20").unwrap()));
        assert_eq!(s3.interval_of("x"), Interval::of(0, 19));
    }

    #[test]
    fn assume_negation_pushes_inward() {
        let s = st(&[("x", num(0, 100))]);
        let s2 = s.transfer(&Stmt::Assume(parse_expr("!(x < 50)").unwrap()));
        assert_eq!(s2.interval_of("x"), Interval::of(50, 100));
    }

    #[test]
    fn null_test_refinement() {
        let s = st(&[("p", AbsVal::AnyRef)]);
        let eq = s.transfer(&Stmt::Assume(parse_expr("p == null").unwrap()));
        assert_eq!(eq.value_of("p"), AbsVal::NullRef);
        let ne = s.transfer(&Stmt::Assume(parse_expr("p != null").unwrap()));
        assert_eq!(ne.value_of("p"), AbsVal::NodeRef);
    }

    #[test]
    fn array_literal_and_access_check() {
        let s = IntervalDomain::top()
            .transfer(&Stmt::Assign("a".into(), parse_expr("[1, 2, 3]").unwrap()));
        let av = s.value_of("a");
        assert!(matches!(&av, AbsVal::Arr(arr) if arr.len == Interval::constant(3)));
        // a[i] with i in [0, 2] is safe; with i in [0, 3] it is not.
        let safe = s.transfer(&Stmt::Assign("i".into(), parse_expr("2").unwrap()));
        assert!(safe.array_access_safe(&parse_expr("a").unwrap(), &parse_expr("i").unwrap()));
        let unsafe_ = s.transfer(&Stmt::Assign("i".into(), parse_expr("3").unwrap()));
        assert!(!unsafe_.array_access_safe(&parse_expr("a").unwrap(), &parse_expr("i").unwrap()));
    }

    #[test]
    fn len_guard_verifies_loop_access() {
        // i refined by i < len(a) where len(a) = 3.
        let s = IntervalDomain::top()
            .transfer(&Stmt::Assign("a".into(), parse_expr("[1, 2, 3]").unwrap()))
            .transfer(&Stmt::Assign("i".into(), parse_expr("0").unwrap()))
            .transfer(&Stmt::Assume(parse_expr("i < len(a)").unwrap()));
        assert!(s.array_access_safe(&parse_expr("a").unwrap(), &parse_expr("i").unwrap()));
    }

    #[test]
    fn array_write_weak_update() {
        let s = IntervalDomain::top()
            .transfer(&Stmt::Assign("a".into(), parse_expr("[1, 1]").unwrap()))
            .transfer(&Stmt::ArrayWrite(
                "a".into(),
                parse_expr("0").unwrap(),
                parse_expr("9").unwrap(),
            ));
        let AbsVal::Arr(arr) = s.value_of("a") else {
            panic!("expected array")
        };
        assert_eq!(*arr.elem, num(1, 9));
    }

    #[test]
    fn join_drops_one_sided_bindings() {
        let a = st(&[("x", num(0, 1)), ("y", num(5, 5))]);
        let b = st(&[("x", num(3, 4))]);
        let j = a.join(&b);
        assert_eq!(j.interval_of("x"), Interval::of(0, 4));
        assert_eq!(j.value_of("y"), AbsVal::Top);
    }

    #[test]
    fn join_and_widen_with_bottom() {
        let a = st(&[("x", num(0, 1))]);
        assert_eq!(IntervalDomain::bottom().join(&a), a);
        assert_eq!(a.widen(&IntervalDomain::bottom()), a);
        assert!(IntervalDomain::bottom().leq(&a));
        assert!(!a.leq(&IntervalDomain::bottom()));
    }

    #[test]
    fn widen_idempotent_on_equal_states() {
        let a = st(&[("x", num(0, 10)), ("b", AbsVal::Boolean(Bool3::Top))]);
        assert_eq!(a.widen(&a), a);
    }

    #[test]
    fn leq_reflexive_and_respects_join() {
        let a = st(&[("x", num(0, 1))]);
        let b = st(&[("x", num(0, 9))]);
        assert!(a.leq(&a));
        assert!(a.leq(&b));
        assert!(!b.leq(&a));
        let j = a.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn models_concrete_states() {
        use dai_lang::interp::ConcreteState;
        let s = st(&[("x", num(0, 5)), ("p", AbsVal::NullRef)]);
        let mut c = ConcreteState::new();
        c.env.insert("x".into(), Value::Int(3));
        c.env.insert("p".into(), Value::Null);
        c.env.insert("unbound".into(), Value::Int(12345));
        assert!(s.models(&c));
        c.env.insert("x".into(), Value::Int(6));
        assert!(!s.models(&c));
        assert!(!IntervalDomain::bottom().models(&c));
    }

    #[test]
    fn models_arrays() {
        use dai_lang::interp::ConcreteState;
        let s = st(&[(
            "a",
            AbsVal::Arr(ArrayAbs {
                len: Interval::of(2, 3),
                elem: Box::new(num(0, 9)),
            }),
        )]);
        let mut c = ConcreteState::new();
        c.env
            .insert("a".into(), Value::Arr(vec![Value::Int(1), Value::Int(9)]));
        assert!(s.models(&c));
        c.env.insert("a".into(), Value::Arr(vec![Value::Int(1)]));
        assert!(!s.models(&c)); // wrong length
    }

    #[test]
    fn call_entry_and_return() {
        let caller = st(&[("v", num(1, 2))]);
        let args = vec![parse_expr("v + 1").unwrap()];
        let site = CallSite {
            lhs: Some(&Symbol::new("out")),
            callee: &Symbol::new("f"),
            args: &args,
            site_key: "main:e0",
        };
        let entry = caller.call_entry(site, &[Symbol::new("p")]);
        assert_eq!(entry.interval_of("p"), Interval::of(2, 3));
        let exit = st(&[(RETURN_VAR, num(7, 8))]);
        let after = caller.call_return(site, &exit);
        assert_eq!(after.interval_of("out"), Interval::of(7, 8));
        assert_eq!(after.interval_of("v"), Interval::of(1, 2));
    }

    #[test]
    fn field_ops_refine_nodeness() {
        let s = st(&[("p", AbsVal::AnyRef)]);
        let s2 = s.transfer(&Stmt::FieldWrite("p".into(), "next".into(), Expr::Null));
        assert_eq!(s2.value_of("p"), AbsVal::NodeRef);
        let dead = st(&[("p", AbsVal::NullRef)]).transfer(&Stmt::FieldWrite(
            "p".into(),
            "next".into(),
            Expr::Null,
        ));
        assert!(dead.is_bottom());
    }

    #[test]
    fn display_formats() {
        let s = st(&[("x", num(0, 5))]);
        assert_eq!(s.to_string(), "{x: [0, 5]}");
        assert_eq!(IntervalDomain::bottom().to_string(), "⊥");
    }
}
