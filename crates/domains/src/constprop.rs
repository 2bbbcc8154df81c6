//! Constant propagation: the classic *flat* (height-2) lattice per
//! variable, as used by Sagiv–Reps–Horwitz's "Precise interprocedural
//! dataflow analysis" — the related work the paper contrasts itself with
//! ("allows for infinite domains of finite height, but does not consider
//! infinite-height domains like intervals", §8).
//!
//! Including it here closes the loop: the same DAIG machinery that runs
//! interval/octagon/shape (infinite height, real widening) runs this
//! finite-height domain with widening degenerating to join, exactly as the
//! §2.3 discussion of finite-height domains predicts.
//!
//! A binding `x ↦ c` asserts that `x` currently holds *exactly* the
//! constant `c` (an integer, boolean, or `null`). Unbound variables may
//! hold anything. Abstract evaluation is constant folding with the
//! concrete semantics' trapping behavior: folding `1/0` or an overflowing
//! `+` yields `⊥` (the execution halts), not an arbitrary value.

use crate::bool3::Bool3;
use crate::nonrel::{Env, Lifted, NonRel, ValueLattice};
use dai_lang::interp::Value;
use dai_lang::{BinOp, Expr, Symbol, UnOp};
use std::fmt;

/// A propagated constant: the concrete scalar values of the language.
/// (Arrays and heap nodes are not propagated — they have identity and
/// value semantics that flat equality would misrepresent.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    /// An integer constant.
    Int(i64),
    /// A boolean constant.
    Bool(bool),
    /// The `null` reference.
    Null,
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(n) => write!(f, "{n}"),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Null => write!(f, "null"),
        }
    }
}

/// The constant-propagation domain: [`NonRel`] environments of constant
/// bindings.
pub type ConstDomain = NonRel<Const>;

impl ConstDomain {
    /// The constant bound to `var`, if any.
    pub fn const_of(&self, var: &str) -> Option<Const> {
        self.env()?.get(var).copied()
    }
}

impl ValueLattice for Const {
    const NAME: &'static str = "const";

    /// Flat join: constants that disagree drop to `⊤`.
    fn join(&self, other: &Const) -> Option<Const> {
        (self == other).then_some(*self)
    }

    fn leq(&self, other: &Const) -> bool {
        self == other
    }

    fn models(&self, concrete: &Value) -> bool {
        match (self, concrete) {
            (Const::Int(n), Value::Int(m)) => m == n,
            (Const::Bool(b), Value::Bool(c)) => c == b,
            (Const::Null, Value::Null) => true,
            _ => false,
        }
    }

    fn eval(env: &Env<Const>, expr: &Expr) -> Lifted<Const> {
        eval_const(env, expr)
    }

    /// A guard that folds to a non-boolean traps.
    fn truth(env: &Env<Const>, cond: &Expr) -> Bool3 {
        match eval_const(env, cond) {
            Lifted::Val(Const::Bool(b)) => Bool3::of(b),
            Lifted::Top => Bool3::Top,
            Lifted::Bot | Lifted::Val(_) => Bool3::Bot,
        }
    }

    /// Equality against a constant pins the variable (the only comparison
    /// a flat lattice can exploit).
    fn refine_cmp<'e>(
        env: &Env<Const>,
        op: BinOp,
        l: &'e Expr,
        r: &Expr,
    ) -> Option<(&'e Symbol, Lifted<Const>)> {
        match (op, l, eval_const(env, r)) {
            (BinOp::Eq, Expr::Var(x), pinned @ Lifted::Val(_)) => Some((x, pinned)),
            _ => None,
        }
    }

    /// Writing into a scalar constant traps; a genuine array is untracked,
    /// so only the index/value traps matter.
    fn array_write(env: &Env<Const>, a: &Symbol, i: &Expr, e: &Expr) -> Lifted<Const> {
        match (eval_const(env, i), eval_const(env, e)) {
            (Lifted::Bot, _) | (_, Lifted::Bot) => Lifted::Bot,
            (Lifted::Val(Const::Int(n)), _) if n < 0 => Lifted::Bot,
            (Lifted::Val(Const::Bool(_) | Const::Null), _) => Lifted::Bot, // non-integer index
            _ => env.scalar_written_through(a),
        }
    }
}

/// Constant-folds `expr` in `env`, trapping (`Bot`) exactly when the
/// concrete semantics would (overflow, division by zero, type confusion);
/// `Top` is "not a single known constant".
fn eval_const(env: &Env<Const>, expr: &Expr) -> Lifted<Const> {
    use Lifted::{Bot, Top, Val};
    match expr {
        Expr::Int(n) => Val(Const::Int(*n)),
        Expr::Bool(b) => Val(Const::Bool(*b)),
        Expr::Null => Val(Const::Null),
        Expr::Var(x) => env.get(x).map_or(Top, |c| Val(*c)),
        Expr::Unary(UnOp::Neg, e) => match eval_const(env, e) {
            Val(Const::Int(n)) => int_or_trap(n.checked_neg()),
            Val(_) => Bot, // negating a non-integer traps
            other => other,
        },
        Expr::Unary(UnOp::Not, e) => match eval_const(env, e) {
            Val(Const::Bool(b)) => Val(Const::Bool(!b)),
            Val(_) => Bot,
            other => other,
        },
        Expr::Binary(op, l, r) => match (eval_const(env, l), eval_const(env, r)) {
            (Bot, _) | (_, Bot) => Bot,
            (Val(ca), Val(cb)) => fold_binop(*op, ca, cb),
            _ => Top,
        },
        // Arrays and heap values are not propagated.
        Expr::ArrayLit(_)
        | Expr::ArrayRead(..)
        | Expr::ArrayLen(_)
        | Expr::Field(..)
        | Expr::AllocNode => Top,
    }
}

/// Folds a binary operation on two scalar constants, mirroring the
/// concrete semantics (including its traps).
fn fold_binop(op: BinOp, a: Const, b: Const) -> Lifted<Const> {
    use BinOp::*;
    use Const::*;
    let known = |b: bool| Lifted::Val(Bool(b));
    match (op, a, b) {
        (Add, Int(x), Int(y)) => int_or_trap(x.checked_add(y)),
        (Sub, Int(x), Int(y)) => int_or_trap(x.checked_sub(y)),
        (Mul, Int(x), Int(y)) => int_or_trap(x.checked_mul(y)),
        (Div, Int(_), Int(0)) | (Mod, Int(_), Int(0)) => Lifted::Bot,
        (Div, Int(x), Int(y)) => int_or_trap(x.checked_div(y)),
        (Mod, Int(x), Int(y)) => int_or_trap(x.checked_rem(y)),
        (Lt, Int(x), Int(y)) => known(x < y),
        (Le, Int(x), Int(y)) => known(x <= y),
        (Gt, Int(x), Int(y)) => known(x > y),
        (Ge, Int(x), Int(y)) => known(x >= y),
        (Eq, Int(x), Int(y)) => known(x == y),
        (Ne, Int(x), Int(y)) => known(x != y),
        (Eq, Bool(x), Bool(y)) => known(x == y),
        (Ne, Bool(x), Bool(y)) => known(x != y),
        (Eq, Null, Null) => known(true),
        (Ne, Null, Null) => known(false),
        (And, Bool(x), Bool(y)) => known(x && y),
        (Or, Bool(x), Bool(y)) => known(x || y),
        // Everything else (arithmetic on booleans, ordering null, mixed
        // scalar families) traps in the concrete semantics.
        _ => Lifted::Bot,
    }
}

fn int_or_trap(v: Option<i64>) -> Lifted<Const> {
    v.map_or(Lifted::Bot, |n| Lifted::Val(Const::Int(n)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbstractDomain, CallSite};
    use dai_lang::interp::ConcreteState;
    use dai_lang::{parse_expr, Stmt, RETURN_VAR};

    fn assign(d: &ConstDomain, var: &str, e: &str) -> ConstDomain {
        d.transfer(&Stmt::Assign(var.into(), parse_expr(e).unwrap()))
    }

    #[test]
    fn constant_folding_chains() {
        let d = assign(&ConstDomain::top(), "x", "2 + 3");
        let d = assign(&d, "y", "x * x");
        let d = assign(&d, "b", "y == 25");
        assert_eq!(d.const_of("x"), Some(Const::Int(5)));
        assert_eq!(d.const_of("y"), Some(Const::Int(25)));
        assert_eq!(d.const_of("b"), Some(Const::Bool(true)));
    }

    #[test]
    fn unknown_operand_poisons_result_only() {
        let d = assign(&ConstDomain::top(), "y", "unknown + 1");
        assert_eq!(d.const_of("y"), None);
        let d = assign(&d, "z", "1 + 2");
        assert_eq!(d.const_of("z"), Some(Const::Int(3)));
    }

    #[test]
    fn trapping_folds_are_bottom() {
        // Division by a known zero halts the execution.
        assert!(assign(&ConstDomain::top(), "x", "1 / 0").is_bottom());
        assert!(assign(&ConstDomain::top(), "x", "1 % 0").is_bottom());
        // Arithmetic on booleans halts.
        assert!(assign(&ConstDomain::top(), "x", "true + 1").is_bottom());
        // Overflow halts (the concrete semantics traps rather than wraps).
        let d = assign(&ConstDomain::top(), "big", "9223372036854775807");
        assert!(assign(&d, "x", "big + 1").is_bottom());
    }

    #[test]
    fn flat_join_keeps_agreeing_bindings() {
        let a = ConstDomain::from_bindings([
            (Symbol::new("x"), Const::Int(1)),
            (Symbol::new("y"), Const::Int(7)),
        ]);
        let b = ConstDomain::from_bindings([
            (Symbol::new("x"), Const::Int(2)),
            (Symbol::new("y"), Const::Int(7)),
        ]);
        let j = a.join(&b);
        assert_eq!(j.const_of("x"), None, "disagreeing constants drop to ⊤");
        assert_eq!(j.const_of("y"), Some(Const::Int(7)));
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(a.widen(&b), j, "flat widening is join");
    }

    #[test]
    fn assume_prunes_and_pins() {
        let d = assign(&ConstDomain::top(), "x", "4");
        // Contradicted guard: unreachable.
        assert!(d
            .transfer(&Stmt::Assume(parse_expr("x == 5").unwrap()))
            .is_bottom());
        // Consistent guard: state survives.
        let d2 = d.transfer(&Stmt::Assume(parse_expr("x == 4").unwrap()));
        assert_eq!(d2.const_of("x"), Some(Const::Int(4)));
        // Equality against a constant pins an unknown variable.
        let d3 = ConstDomain::top().transfer(&Stmt::Assume(parse_expr("u == 9").unwrap()));
        assert_eq!(d3.const_of("u"), Some(Const::Int(9)));
        // ¬(u != 9) pins too.
        let d4 = ConstDomain::top().transfer(&Stmt::Assume(parse_expr("!(u != 9)").unwrap()));
        assert_eq!(d4.const_of("u"), Some(Const::Int(9)));
    }

    #[test]
    fn null_and_bool_constants() {
        let d = assign(&ConstDomain::top(), "p", "null");
        assert_eq!(d.const_of("p"), Some(Const::Null));
        let d = assign(&d, "q", "p == null");
        assert_eq!(d.const_of("q"), Some(Const::Bool(true)));
        let d = assign(&d, "r", "!q");
        assert_eq!(d.const_of("r"), Some(Const::Bool(false)));
    }

    #[test]
    fn models_concrete_states() {
        let d = ConstDomain::from_bindings([(Symbol::new("x"), Const::Int(3))]);
        let mut c = ConcreteState::new();
        c.env.insert(Symbol::new("x"), Value::Int(3));
        assert!(d.models(&c));
        c.env.insert(Symbol::new("x"), Value::Int(4));
        assert!(!d.models(&c));
        c.env.insert(Symbol::new("x"), Value::Bool(true));
        assert!(!d.models(&c));
    }

    #[test]
    fn guard_on_non_boolean_is_unreachable() {
        let d = assign(&ConstDomain::top(), "x", "3");
        assert!(d
            .transfer(&Stmt::Assume(parse_expr("x").unwrap()))
            .is_bottom());
    }

    #[test]
    fn call_entry_and_return_propagate_constants() {
        let caller = assign(&ConstDomain::top(), "a", "11");
        let args = vec![parse_expr("a").unwrap()];
        let lhs = Symbol::new("out");
        let callee = Symbol::new("f");
        let site = CallSite {
            lhs: Some(&lhs),
            callee: &callee,
            args: &args,
            site_key: "main:e0",
        };
        let entry = caller.call_entry(site, &[Symbol::new("p")]);
        assert_eq!(entry.const_of("p"), Some(Const::Int(11)));
        let exit = ConstDomain::from_bindings([(Symbol::new(RETURN_VAR), Const::Int(99))]);
        let after = caller.call_return(site, &exit);
        assert_eq!(after.const_of("out"), Some(Const::Int(99)));
        assert_eq!(
            after.const_of("a"),
            Some(Const::Int(11)),
            "caller state framed"
        );
    }
}
