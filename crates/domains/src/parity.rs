//! Parity: `⊥ ⊑ even, odd ⊑ ⊤` per variable — the smallest complete
//! [`ValueLattice`], kept as the proof that a value domain is its lattice
//! and its arithmetic and nothing else. A binding asserts an integer of
//! that parity; `⊥` and `⊤` are [`Lifted`]'s.

use crate::bool3::Bool3;
use crate::nonrel::{Env, Lifted, NonRel, ValueLattice};
use dai_lang::interp::Value;
use dai_lang::{BinOp, Expr, Symbol, UnOp};
use std::fmt;

/// The parity of an integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parity {
    /// Divisible by two.
    Even,
    /// Not divisible by two.
    Odd,
}

/// The parity domain: [`NonRel`] environments of parities.
pub type ParityDomain = NonRel<Parity>;

impl Parity {
    /// The parity of a concrete integer.
    pub fn of(n: i64) -> Parity {
        [Parity::Even, Parity::Odd][(n & 1) as usize]
    }
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if *self == Parity::Even { "even" } else { "odd" })
    }
}

impl ValueLattice for Parity {
    const NAME: &'static str = "parity";

    fn join(&self, other: &Parity) -> Option<Parity> {
        (self == other).then_some(*self)
    }

    fn leq(&self, other: &Parity) -> bool {
        self == other
    }

    fn models(&self, concrete: &Value) -> bool {
        matches!(concrete, Value::Int(n) if Parity::of(*n) == *self)
    }

    fn eval(env: &Env<Parity>, expr: &Expr) -> Lifted<Parity> {
        use Lifted::{Top, Val};
        use Parity::{Even, Odd};
        match expr {
            Expr::Int(n) => Val(Parity::of(*n)),
            Expr::Var(x) => env.get(x).map_or(Top, |p| Val(*p)),
            Expr::Unary(UnOp::Neg, e) => Self::eval(env, e),
            Expr::Binary(op, l, r) => match (op, Self::eval(env, l), Self::eval(env, r)) {
                (BinOp::Add | BinOp::Sub, Val(a), Val(b)) => Val(if a == b { Even } else { Odd }),
                (BinOp::Mul, Val(Even), _) | (BinOp::Mul, _, Val(Even)) => Val(Even),
                (BinOp::Mul, Val(Odd), Val(Odd)) => Val(Odd),
                // x = q·m + (x % m): an even modulus keeps x's parity.
                (BinOp::Mod, Val(a), Val(Even)) => Val(a),
                _ => Top,
            },
            _ => Top,
        }
    }

    /// Integers of different parity are different; `NonRel` descends
    /// through `!`, `&&` and `||` itself.
    fn truth(env: &Env<Parity>, cond: &Expr) -> Bool3 {
        match cond {
            Expr::Binary(op @ (BinOp::Eq | BinOp::Ne), l, r) => {
                match (Self::eval(env, l), Self::eval(env, r)) {
                    (Lifted::Val(a), Lifted::Val(b)) if a != b => Bool3::of(*op == BinOp::Ne),
                    _ => Bool3::Top,
                }
            }
            _ => Bool3::Top,
        }
    }

    /// `x == e` and `x % 2 == e` give `x` the parity of `e`; `x % 2 != 0`
    /// makes it odd.
    fn refine_cmp<'e>(
        env: &Env<Parity>,
        op: BinOp,
        l: &'e Expr,
        r: &Expr,
    ) -> Option<(&'e Symbol, Lifted<Parity>)> {
        let (x, mod_two) = match l {
            Expr::Var(x) => (x, false),
            Expr::Binary(BinOp::Mod, x, two) if **two == Expr::Int(2) => match &**x {
                Expr::Var(x) => (x, true),
                _ => return None,
            },
            _ => return None,
        };
        let parity = match (op, Self::eval(env, r)) {
            (BinOp::Eq, Lifted::Val(p)) => p,
            (BinOp::Ne, _) if mod_two && *r == Expr::Int(0) => Parity::Odd,
            _ => return None,
        };
        match env.get(x) {
            Some(held) if *held != parity => Some((x, Lifted::Bot)),
            _ => Some((x, Lifted::Val(parity))),
        }
    }
}
