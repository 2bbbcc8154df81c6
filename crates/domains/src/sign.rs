//! The sign abstract domain: a *finite-height* lattice instantiation.
//!
//! The paper observes (§2.3) that "for an abstract domain of finite height
//! 𝑘, it would have been sufficient to encode the unrolling of fix eagerly
//! into an acyclic DAIG by inlining the abstract iteration 𝑘 times" — and
//! that demanded unrolling handles such domains as a special case, with
//! widening degenerating to join. This module provides the textbook
//! finite-height example to exercise exactly that path: the eight-element
//! sign lattice
//!
//! ```text
//!            ⊤
//!         /  |  \
//!       ≤0   ≠0  ≥0
//!       | \ /  \/ |
//!       | / \  /\ |
//!       −    0    +
//!         \  |  /
//!            ⊥
//! ```
//!
//! over environments mapping variables to signs. A binding `x ↦ s` asserts
//! that `x` currently holds an *integer* whose sign is described by `s`
//! (so even `x ↦ ⊤sign` carries information: "x is a number"); variables
//! that may hold non-numeric values are simply untracked.
//!
//! Widening is [`Sign::join`] (the [`ValueLattice::widen`] default): every
//! ascending chain has length at most 3, so convergence needs no
//! extrapolation — the DAIG's `∇` edges are then plain upper bounds, and
//! demanded unrolling terminates by lattice height alone.

use crate::bool3::Bool3;
use crate::nonrel::{Env, Lifted, NonRel, ValueLattice};
use dai_lang::interp::Value;
use dai_lang::{BinOp, Expr, Symbol, UnOp};
use std::fmt;

/// An element of the sign lattice, represented as a bitset over the three
/// atoms `−` (negative), `0` (zero), `+` (positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sign(u8);

const N: u8 = 0b001;
const Z: u8 = 0b010;
const P: u8 = 0b100;

// The arithmetic methods intentionally mirror the other domains' naming
// (`Interval::add`, `Interval::neg`, …) rather than the std ops traits:
// they are *abstract* operations returning over-approximations, and a `+`
// that silently widens would mislead at call sites.
#[allow(clippy::should_implement_trait)]
impl Sign {
    /// The raw `−/0/+` bitset (persistence accessor).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds a sign from its bitset; `None` for out-of-range bits (a
    /// corrupted snapshot must not materialize a ninth lattice element).
    pub fn from_bits(bits: u8) -> Option<Sign> {
        (bits <= (N | Z | P)).then_some(Sign(bits))
    }

    /// `⊥` — no integer at all.
    pub const BOT: Sign = Sign(0);
    /// Strictly negative.
    pub const NEG: Sign = Sign(N);
    /// Exactly zero.
    pub const ZERO: Sign = Sign(Z);
    /// Strictly positive.
    pub const POS: Sign = Sign(P);
    /// `≤ 0`.
    pub const NONPOS: Sign = Sign(N | Z);
    /// `≥ 0`.
    pub const NONNEG: Sign = Sign(Z | P);
    /// `≠ 0`.
    pub const NONZERO: Sign = Sign(N | P);
    /// Any integer.
    pub const TOP: Sign = Sign(N | Z | P);

    /// The sign of a concrete integer.
    pub fn of(n: i64) -> Sign {
        match n.cmp(&0) {
            std::cmp::Ordering::Less => Sign::NEG,
            std::cmp::Ordering::Equal => Sign::ZERO,
            std::cmp::Ordering::Greater => Sign::POS,
        }
    }

    /// Is this `⊥`?
    pub fn is_bottom(self) -> bool {
        self.0 == 0
    }

    /// May this sign include negative values?
    pub fn has_neg(self) -> bool {
        self.0 & N != 0
    }

    /// May this sign include zero?
    pub fn has_zero(self) -> bool {
        self.0 & Z != 0
    }

    /// May this sign include positive values?
    pub fn has_pos(self) -> bool {
        self.0 & P != 0
    }

    /// Does the concretization contain `n`?
    pub fn contains(self, n: i64) -> bool {
        self.meet(Sign::of(n)) == Sign::of(n)
    }

    /// Least upper bound.
    pub fn join(self, other: Sign) -> Sign {
        Sign(self.0 | other.0)
    }

    /// Greatest lower bound.
    pub fn meet(self, other: Sign) -> Sign {
        Sign(self.0 & other.0)
    }

    /// Inclusion `⊑`.
    pub fn leq(self, other: Sign) -> bool {
        self.0 & !other.0 == 0
    }

    /// Enumerates the atomic signs (`−`, `0`, `+`) included in this value.
    fn atoms(self) -> impl Iterator<Item = Sign> {
        [Sign::NEG, Sign::ZERO, Sign::POS]
            .into_iter()
            .filter(move |a| Sign::leq(*a, self))
    }

    /// Abstract negation. (Concrete negation traps on `i64::MIN`; trapped
    /// executions have no post-state, so flipping atoms is sound.)
    pub fn neg(self) -> Sign {
        let mut bits = self.0 & Z;
        if self.0 & N != 0 {
            bits |= P;
        }
        if self.0 & P != 0 {
            bits |= N;
        }
        Sign(bits)
    }

    /// Abstract addition.
    pub fn add(self, other: Sign) -> Sign {
        let mut out = Sign::BOT;
        for a in self.atoms() {
            for b in other.atoms() {
                out = out.join(match (a, b) {
                    (Sign::ZERO, x) | (x, Sign::ZERO) => x,
                    (Sign::NEG, Sign::NEG) => Sign::NEG,
                    (Sign::POS, Sign::POS) => Sign::POS,
                    _ => Sign::TOP,
                });
            }
        }
        out
    }

    /// Abstract subtraction.
    pub fn sub(self, other: Sign) -> Sign {
        self.add(other.neg())
    }

    /// Abstract multiplication.
    pub fn mul(self, other: Sign) -> Sign {
        let mut out = Sign::BOT;
        for a in self.atoms() {
            for b in other.atoms() {
                out = out.join(match (a, b) {
                    (Sign::ZERO, _) | (_, Sign::ZERO) => Sign::ZERO,
                    (Sign::NEG, Sign::NEG) | (Sign::POS, Sign::POS) => Sign::POS,
                    _ => Sign::NEG,
                });
            }
        }
        out
    }

    /// Abstract (truncating) division. Division by zero traps, so the `0`
    /// atoms of the divisor contribute nothing.
    pub fn div(self, other: Sign) -> Sign {
        let mut out = Sign::BOT;
        for a in self.atoms() {
            for b in other.atoms() {
                out = out.join(match (a, b) {
                    (_, Sign::ZERO) => Sign::BOT, // traps
                    (Sign::ZERO, _) => Sign::ZERO,
                    // Truncation can reach zero: 3/5 = 0.
                    (Sign::POS, Sign::POS) | (Sign::NEG, Sign::NEG) => Sign::NONNEG,
                    _ => Sign::NONPOS,
                });
            }
        }
        out
    }

    /// Abstract remainder (sign follows the dividend; may be zero).
    pub fn rem(self, other: Sign) -> Sign {
        let mut out = Sign::BOT;
        for a in self.atoms() {
            for b in other.atoms() {
                out = out.join(match (a, b) {
                    (_, Sign::ZERO) => Sign::BOT, // traps
                    (Sign::ZERO, _) => Sign::ZERO,
                    (Sign::POS, _) => Sign::NONNEG,
                    _ => Sign::NONPOS,
                });
            }
        }
        out
    }

    /// Abstract `<` as a three-valued boolean.
    pub fn lt(self, other: Sign) -> Bool3 {
        let mut out = Bool3::Bot;
        for a in self.atoms() {
            for b in other.atoms() {
                out = out.join(match (a, b) {
                    (Sign::NEG, Sign::ZERO | Sign::POS) | (Sign::ZERO, Sign::POS) => Bool3::True,
                    (Sign::ZERO, Sign::ZERO)
                    | (Sign::ZERO, Sign::NEG)
                    | (Sign::POS, Sign::NEG | Sign::ZERO) => Bool3::False,
                    _ => Bool3::Top,
                });
            }
        }
        out
    }

    /// Abstract `<=`.
    pub fn le(self, other: Sign) -> Bool3 {
        let mut out = Bool3::Bot;
        for a in self.atoms() {
            for b in other.atoms() {
                out = out.join(match (a, b) {
                    (Sign::NEG, Sign::ZERO | Sign::POS) | (Sign::ZERO, Sign::ZERO | Sign::POS) => {
                        Bool3::True
                    }
                    (Sign::ZERO, Sign::NEG) | (Sign::POS, Sign::NEG | Sign::ZERO) => Bool3::False,
                    _ => Bool3::Top,
                });
            }
        }
        out
    }

    /// Abstract `==`.
    pub fn eq_abs(self, other: Sign) -> Bool3 {
        let mut out = Bool3::Bot;
        for a in self.atoms() {
            for b in other.atoms() {
                out = out.join(match (a, b) {
                    (Sign::ZERO, Sign::ZERO) => Bool3::True,
                    (x, y) if x == y => Bool3::Top, // two negatives may differ
                    _ => Bool3::False,
                });
            }
        }
        out
    }

    /// Refines `self` under the assumption `self op other`.
    pub fn refine(self, op: BinOp, other: Sign) -> Sign {
        if other.is_bottom() {
            return Sign::BOT; // comparison never executes
        }
        let region = match op {
            BinOp::Lt => {
                if other.has_pos() {
                    Sign::TOP
                } else {
                    Sign::NEG // x < y ≤ 0 ⟹ x < 0
                }
            }
            BinOp::Le => {
                if other.has_pos() {
                    Sign::TOP
                } else if other.has_zero() {
                    Sign::NONPOS
                } else {
                    Sign::NEG
                }
            }
            BinOp::Gt => {
                if other.has_neg() {
                    Sign::TOP
                } else {
                    Sign::POS // x > y ≥ 0 ⟹ x > 0
                }
            }
            BinOp::Ge => {
                if other.has_neg() {
                    Sign::TOP
                } else if other.has_zero() {
                    Sign::NONNEG
                } else {
                    Sign::POS
                }
            }
            BinOp::Eq => other,
            BinOp::Ne => {
                if other == Sign::ZERO {
                    Sign::NONZERO
                } else {
                    Sign::TOP
                }
            }
            _ => Sign::TOP,
        };
        self.meet(region)
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match *self {
            Sign::BOT => "⊥",
            Sign::NEG => "−",
            Sign::ZERO => "0",
            Sign::POS => "+",
            Sign::NONPOS => "≤0",
            Sign::NONNEG => "≥0",
            Sign::NONZERO => "≠0",
            Sign::TOP => "⊤",
            _ => unreachable!("all 8 elements covered"),
        };
        write!(f, "{s}")
    }
}

/// Result of abstractly evaluating an expression in a sign environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SVal {
    /// Definitely an integer with the given sign (`⊥`: evaluation traps).
    Num(Sign),
    /// Definitely not an integer (boolean, reference, array, …).
    NonNum,
    /// Could be anything.
    Any,
}

impl SVal {
    /// The numeric projection: what integer values can this be? Non-numbers
    /// contribute `⊥` because using them as numbers traps.
    fn as_num(self) -> Sign {
        match self {
            SVal::NonNum => Sign::BOT,
            SVal::Num(s) => s,
            SVal::Any => Sign::TOP,
        }
    }
}

/// The sign domain: [`NonRel`] environments of sign bindings. A binding
/// asserts its variable holds an integer of that sign; unbound variables
/// may hold anything.
pub type SignDomain = NonRel<Sign>;

impl SignDomain {
    /// The sign of `var` (`⊤` when untracked, `⊥` in the bottom state).
    pub fn sign_of(&self, var: &str) -> Sign {
        match self.env() {
            None => Sign::BOT,
            Some(env) => env.get(var).copied().unwrap_or(Sign::TOP),
        }
    }
}

impl ValueLattice for Sign {
    const NAME: &'static str = "sign";

    fn lift(self) -> Lifted<Sign> {
        if self.is_bottom() {
            Lifted::Bot
        } else {
            Lifted::Val(self)
        }
    }

    /// Never `⊤`: the join of two integers is an integer.
    fn join(&self, other: &Sign) -> Option<Sign> {
        Some(Sign::join(*self, *other))
    }

    fn leq(&self, other: &Sign) -> bool {
        Sign::leq(*self, *other)
    }

    fn models(&self, concrete: &Value) -> bool {
        // tracked ⟹ integer
        matches!(concrete, Value::Int(n) if self.contains(*n))
    }

    fn eval(env: &Env<Sign>, expr: &Expr) -> Lifted<Sign> {
        match eval_sign(env, expr) {
            SVal::Num(s) => s.lift(),
            SVal::NonNum | SVal::Any => Lifted::Top,
        }
    }

    fn truth(env: &Env<Sign>, cond: &Expr) -> Bool3 {
        eval_bool(env, cond)
    }

    fn refine_cmp<'e>(
        env: &Env<Sign>,
        op: BinOp,
        l: &'e Expr,
        r: &Expr,
    ) -> Option<(&'e Symbol, Lifted<Sign>)> {
        let Expr::Var(x) = l else { return None };
        // Comparing against a non-number: order comparisons trap, and
        // (in)equality against untracked values refines nothing.
        let SVal::Num(rs) = eval_sign(env, r) else {
            return None;
        };
        // A surviving numeric comparison proves `x` is a number even when
        // previously untracked.
        let xs = env.get(x).copied().unwrap_or(Sign::TOP);
        Some((x, xs.refine(op, rs).lift()))
    }

    /// Indexing with a non-number (or into a tracked number) traps; the
    /// array contents themselves are untracked.
    fn array_write(env: &Env<Sign>, a: &Symbol, i: &Expr, _e: &Expr) -> Lifted<Sign> {
        if eval_sign(env, i).as_num().is_bottom() {
            return Lifted::Bot;
        }
        env.scalar_written_through(a)
    }
}

fn eval_sign(env: &Env<Sign>, expr: &Expr) -> SVal {
    match expr {
        Expr::Int(n) => SVal::Num(Sign::of(*n)),
        Expr::Bool(_) | Expr::Null | Expr::ArrayLit(_) | Expr::AllocNode => SVal::NonNum,
        Expr::Var(x) => env.get(x).map(|s| SVal::Num(*s)).unwrap_or(SVal::Any),
        Expr::Unary(UnOp::Neg, e) => SVal::Num(eval_sign(env, e).as_num().neg()),
        Expr::Unary(UnOp::Not, _) => SVal::NonNum,
        Expr::Binary(op, l, r) => {
            use BinOp::*;
            let (a, b) = (eval_sign(env, l), eval_sign(env, r));
            match op {
                Add => SVal::Num(a.as_num().add(b.as_num())),
                Sub => SVal::Num(a.as_num().sub(b.as_num())),
                Mul => SVal::Num(a.as_num().mul(b.as_num())),
                Div => SVal::Num(a.as_num().div(b.as_num())),
                Mod => SVal::Num(a.as_num().rem(b.as_num())),
                Lt | Le | Gt | Ge | Eq | Ne | And | Or => SVal::NonNum,
            }
        }
        // Array/heap contents are untracked; `len` is provably ≥ 0.
        Expr::ArrayRead(..) | Expr::Field(..) => SVal::Any,
        Expr::ArrayLen(_) => SVal::Num(Sign::NONNEG),
    }
}

/// Evaluates `expr` as a three-valued boolean (for guard feasibility).
fn eval_bool(env: &Env<Sign>, expr: &Expr) -> Bool3 {
    match expr {
        Expr::Bool(b) => Bool3::of(*b),
        Expr::Unary(UnOp::Not, e) => eval_bool(env, e).not(),
        Expr::Binary(op, l, r) => {
            use BinOp::*;
            match op {
                And => eval_bool(env, l).and(eval_bool(env, r)),
                Or => eval_bool(env, l).or(eval_bool(env, r)),
                Lt | Le | Gt | Ge | Eq | Ne => {
                    let (a, b) = (eval_sign(env, l), eval_sign(env, r));
                    let (SVal::Num(sa), SVal::Num(sb)) = (a, b) else {
                        return Bool3::Top;
                    };
                    match op {
                        Lt => sa.lt(sb),
                        Le => sa.le(sb),
                        Gt => sb.lt(sa),
                        Ge => sb.le(sa),
                        Eq => sa.eq_abs(sb),
                        Ne => sa.eq_abs(sb).not(),
                        _ => unreachable!(),
                    }
                }
                _ => Bool3::Top,
            }
        }
        _ => Bool3::Top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbstractDomain;
    use dai_lang::interp::ConcreteState;
    use dai_lang::{parse_expr, Stmt};

    const ALL: [Sign; 8] = [
        Sign::BOT,
        Sign::NEG,
        Sign::ZERO,
        Sign::POS,
        Sign::NONPOS,
        Sign::NONNEG,
        Sign::NONZERO,
        Sign::TOP,
    ];

    #[test]
    fn lattice_laws_hold_exhaustively() {
        for a in ALL {
            assert!(Sign::BOT.leq(a) && a.leq(Sign::TOP));
            assert_eq!(a.join(a), a);
            assert_eq!(a.meet(a), a);
            for b in ALL {
                assert_eq!(a.join(b), b.join(a));
                assert_eq!(a.meet(b), b.meet(a));
                assert!(a.leq(a.join(b)) && b.leq(a.join(b)));
                assert!(a.meet(b).leq(a) && a.meet(b).leq(b));
                // join is the *least* upper bound: any upper bound c is
                // above it.
                for c in ALL {
                    if a.leq(c) && b.leq(c) {
                        assert!(a.join(b).leq(c));
                    }
                }
            }
        }
    }

    #[test]
    fn arithmetic_soundness_spot_checks() {
        // −3 + 5 = 2 (positive result from NEG + POS must be allowed).
        assert!(Sign::NEG.add(Sign::POS).contains(2));
        assert!(Sign::NEG.add(Sign::POS).contains(-2));
        assert_eq!(Sign::POS.add(Sign::POS), Sign::POS);
        assert_eq!(Sign::NEG.add(Sign::ZERO), Sign::NEG);
        assert_eq!(Sign::POS.mul(Sign::NEG), Sign::NEG);
        assert_eq!(Sign::ZERO.mul(Sign::TOP), Sign::ZERO);
        // 3 / 5 = 0: positive ÷ positive includes zero.
        assert!(Sign::POS.div(Sign::POS).contains(0));
        assert!(!Sign::POS.div(Sign::POS).has_neg());
        // Division by (only) zero traps: bottom.
        assert!(Sign::TOP.div(Sign::ZERO).is_bottom());
        // 7 % 3 = 1, 0 % 3 = 0, −7 % 3 = −1.
        assert_eq!(Sign::POS.rem(Sign::POS), Sign::NONNEG);
        assert_eq!(Sign::NEG.rem(Sign::TOP), Sign::NONPOS);
        assert_eq!(Sign::NEG.neg(), Sign::POS);
        assert_eq!(Sign::NONPOS.neg(), Sign::NONNEG);
    }

    #[test]
    fn exhaustive_arithmetic_soundness_against_samples() {
        // For sampled concrete pairs, the abstract op must contain the
        // concrete result.
        let samples: &[i64] = &[-7, -1, 0, 1, 2, 9];
        for &x in samples {
            for &y in samples {
                let (sx, sy) = (Sign::of(x), Sign::of(y));
                assert!(sx.add(sy).contains(x + y), "{x}+{y}");
                assert!(sx.sub(sy).contains(x - y), "{x}-{y}");
                assert!(sx.mul(sy).contains(x * y), "{x}*{y}");
                if y != 0 {
                    assert!(sx.div(sy).contains(x / y), "{x}/{y}");
                    assert!(sx.rem(sy).contains(x % y), "{x}%{y}");
                }
                let lt = sx.lt(sy);
                assert!(
                    if x < y { lt.may_true() } else { lt.may_false() },
                    "{x}<{y}"
                );
            }
        }
    }

    #[test]
    fn refine_against_zero() {
        assert_eq!(Sign::TOP.refine(BinOp::Gt, Sign::ZERO), Sign::POS);
        assert_eq!(Sign::TOP.refine(BinOp::Ge, Sign::ZERO), Sign::NONNEG);
        assert_eq!(Sign::TOP.refine(BinOp::Lt, Sign::ZERO), Sign::NEG);
        assert_eq!(Sign::TOP.refine(BinOp::Le, Sign::ZERO), Sign::NONPOS);
        assert_eq!(Sign::TOP.refine(BinOp::Eq, Sign::ZERO), Sign::ZERO);
        assert_eq!(Sign::TOP.refine(BinOp::Ne, Sign::ZERO), Sign::NONZERO);
        // Refinements meet with existing knowledge.
        assert_eq!(Sign::NONNEG.refine(BinOp::Ne, Sign::ZERO), Sign::POS);
        assert_eq!(Sign::NEG.refine(BinOp::Gt, Sign::ZERO), Sign::BOT);
    }

    #[test]
    fn refine_against_positive_bound() {
        // x < y with y > 0 tells us nothing about x's sign…
        assert_eq!(Sign::TOP.refine(BinOp::Lt, Sign::POS), Sign::TOP);
        // …but x > y with y ≥ 0 forces x positive.
        assert_eq!(Sign::TOP.refine(BinOp::Gt, Sign::NONNEG), Sign::POS);
        assert_eq!(Sign::TOP.refine(BinOp::Lt, Sign::NEG), Sign::NEG);
    }

    #[test]
    fn transfer_tracks_assignments() {
        let d = SignDomain::top().transfer(&Stmt::Assign("x".into(), parse_expr("5").unwrap()));
        assert_eq!(d.sign_of("x"), Sign::POS);
        let d = d.transfer(&Stmt::Assign("y".into(), parse_expr("x * -1").unwrap()));
        assert_eq!(d.sign_of("y"), Sign::NEG);
        let d = d.transfer(&Stmt::Assign("z".into(), parse_expr("x - x").unwrap()));
        // Signs cannot see x − x = 0: ⊤ is the sound answer.
        assert_eq!(d.sign_of("z"), Sign::TOP);
    }

    #[test]
    fn assume_refines_variables() {
        let d = SignDomain::top().transfer(&Stmt::Assume(parse_expr("x > 0").unwrap()));
        assert_eq!(d.sign_of("x"), Sign::POS);
        let d2 = d.transfer(&Stmt::Assume(parse_expr("x < 0").unwrap()));
        assert!(d2.is_bottom(), "contradictory guards are unreachable");
    }

    #[test]
    fn assume_len_is_nonneg() {
        let d =
            SignDomain::top().transfer(&Stmt::Assign("n".into(), parse_expr("len(a)").unwrap()));
        assert_eq!(d.sign_of("n"), Sign::NONNEG);
    }

    #[test]
    fn conjunction_and_negation_refine() {
        let d = SignDomain::top().transfer(&Stmt::Assume(parse_expr("x > 0 && y < 0").unwrap()));
        assert_eq!(d.sign_of("x"), Sign::POS);
        assert_eq!(d.sign_of("y"), Sign::NEG);
        let d = SignDomain::top().transfer(&Stmt::Assume(parse_expr("!(x > 0)").unwrap()));
        assert_eq!(d.sign_of("x"), Sign::NONPOS);
    }

    #[test]
    fn non_numeric_assignment_untracks() {
        let d = SignDomain::top()
            .transfer(&Stmt::Assign("x".into(), parse_expr("5").unwrap()))
            .transfer(&Stmt::Assign("x".into(), parse_expr("true").unwrap()));
        assert_eq!(d.sign_of("x"), Sign::TOP);
        assert_eq!(d, SignDomain::top(), "bool binding dropped");
    }

    #[test]
    fn models_concrete_states() {
        let d = SignDomain::from_bindings([(Symbol::new("x"), Sign::POS)]);
        let mut c = ConcreteState::new();
        c.env.insert(Symbol::new("x"), Value::Int(3));
        assert!(d.models(&c));
        c.env.insert(Symbol::new("x"), Value::Int(-3));
        assert!(!d.models(&c));
        c.env.insert(Symbol::new("x"), Value::Bool(true));
        assert!(!d.models(&c), "tracked variables must be integers");
        c.env.remove(&Symbol::new("x"));
        c.env.insert(Symbol::new("other"), Value::Null);
        assert!(d.models(&c), "untracked variables are unconstrained");
    }

    #[test]
    fn join_drops_one_sided_bindings_and_widen_is_join() {
        let a = SignDomain::from_bindings([
            (Symbol::new("x"), Sign::POS),
            (Symbol::new("y"), Sign::NEG),
        ]);
        let b = SignDomain::from_bindings([(Symbol::new("x"), Sign::ZERO)]);
        let j = a.join(&b);
        assert_eq!(j.sign_of("x"), Sign::NONNEG);
        assert_eq!(j.sign_of("y"), Sign::TOP);
        assert_eq!(a.widen(&b), j);
        assert!(a.leq(&j) && b.leq(&j));
    }

    #[test]
    fn display_is_compact() {
        let d = SignDomain::from_bindings([(Symbol::new("x"), Sign::NONNEG)]);
        assert_eq!(d.to_string(), "{x: ≥0}");
        assert_eq!(SignDomain::bottom().to_string(), "⊥");
    }
}
