//! Instantiating the framework with a brand-new abstract domain, from
//! scratch, in one file — the paper's §7.1 claim made concrete:
//!
//! > "the effort required to instantiate the framework to a new abstract
//! > domain is comparable to the effort required to do so in a classical
//! > abstract interpreter framework. The required module signature is
//! > essentially the abstract interpreter signature ⟨Σ♯, φ₀, ⟦·⟧♯, ⊑, ⊔, ∇⟩."
//!
//! The domain below is *parity* (even/odd per variable) — about a hundred
//! lines including its expression evaluator. Implementing the
//! [`AbstractDomain`] trait is all it takes: the same DAIG machinery then
//! provides demand-driven queries, incremental edits, demanded unrolling,
//! and memoization for it, unchanged.
//!
//! (A domain that, like this one, is a map from variables to values need
//! not write the map: `dai_domains::nonrel::ValueLattice` asks only for the
//! value lattice, and `dai_domains::parity` is this domain in that form.
//! The long way is kept here because it is the paper's claim.)
//!
//! Run with `cargo run --example custom_domain`.

use dai_core::analysis::FuncAnalysis;
use dai_core::query::{IntraResolver, QueryStats};
use dai_domains::{AbstractDomain, CallSite};
use dai_lang::cfg::lower_program;
use dai_lang::interp::{ConcreteState, Value};
use dai_lang::parser::{parse_block, parse_program};
use dai_lang::{BinOp, Expr, Stmt, Symbol, UnOp, RETURN_VAR};
use dai_memo::MemoTable;
use std::collections::BTreeMap;
use std::fmt;

/// Parity of one variable: a bitset over {even, odd}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Parity(u8); // bit 1 = even, bit 2 = odd

impl Parity {
    const BOT: Parity = Parity(0);
    const EVEN: Parity = Parity(1);
    const ODD: Parity = Parity(2);
    const TOP: Parity = Parity(3);

    fn of(n: i64) -> Parity {
        if n.rem_euclid(2) == 0 {
            Parity::EVEN
        } else {
            Parity::ODD
        }
    }

    fn join(self, o: Parity) -> Parity {
        Parity(self.0 | o.0)
    }

    fn leq(self, o: Parity) -> bool {
        self.0 & !o.0 == 0
    }

    fn add(self, o: Parity) -> Parity {
        let mut out = Parity::BOT;
        for (a, b, r) in [
            (Parity::EVEN, Parity::EVEN, Parity::EVEN),
            (Parity::EVEN, Parity::ODD, Parity::ODD),
            (Parity::ODD, Parity::EVEN, Parity::ODD),
            (Parity::ODD, Parity::ODD, Parity::EVEN),
        ] {
            if a.leq(self) && b.leq(o) {
                out = out.join(r);
            }
        }
        out
    }

    fn mul(self, o: Parity) -> Parity {
        let mut out = Parity::BOT;
        for (a, b, r) in [
            (Parity::EVEN, Parity::EVEN, Parity::EVEN),
            (Parity::EVEN, Parity::ODD, Parity::EVEN),
            (Parity::ODD, Parity::EVEN, Parity::EVEN),
            (Parity::ODD, Parity::ODD, Parity::ODD),
        ] {
            if a.leq(self) && b.leq(o) {
                out = out.join(r);
            }
        }
        out
    }
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Parity::BOT => write!(f, "⊥"),
            Parity::EVEN => write!(f, "even"),
            Parity::ODD => write!(f, "odd"),
            _ => write!(f, "⊤"),
        }
    }
}

/// The parity domain: `⊥` or parities for the integer-valued variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ParityDomain {
    Bottom,
    Env(BTreeMap<Symbol, Parity>),
}

impl ParityDomain {
    fn top() -> ParityDomain {
        ParityDomain::Env(BTreeMap::new())
    }

    fn parity_of(&self, var: &str) -> Parity {
        match self {
            ParityDomain::Bottom => Parity::BOT,
            ParityDomain::Env(env) => env.get(&Symbol::new(var)).copied().unwrap_or(Parity::TOP),
        }
    }
}

impl fmt::Display for ParityDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParityDomain::Bottom => write!(f, "⊥"),
            ParityDomain::Env(env) => {
                write!(f, "{{")?;
                for (i, (k, v)) in env.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Parity of an expression; `None` means "not (provably) an integer".
fn eval(env: &BTreeMap<Symbol, Parity>, e: &Expr) -> Option<Parity> {
    match e {
        Expr::Int(n) => Some(Parity::of(*n)),
        Expr::Var(x) => Some(env.get(x).copied().unwrap_or(Parity::TOP)),
        Expr::Unary(UnOp::Neg, e) => eval(env, e), // negation preserves parity
        Expr::Binary(BinOp::Add, l, r) | Expr::Binary(BinOp::Sub, l, r) => {
            Some(eval(env, l)?.add(eval(env, r)?))
        }
        Expr::Binary(BinOp::Mul, l, r) => Some(eval(env, l)?.mul(eval(env, r)?)),
        _ => None,
    }
}

impl AbstractDomain for ParityDomain {
    fn bottom() -> Self {
        ParityDomain::Bottom
    }

    fn is_bottom(&self) -> bool {
        matches!(self, ParityDomain::Bottom)
    }

    fn entry_default(_params: &[Symbol]) -> Self {
        ParityDomain::top()
    }

    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (ParityDomain::Bottom, x) | (x, ParityDomain::Bottom) => x.clone(),
            (ParityDomain::Env(a), ParityDomain::Env(b)) => {
                let mut env = BTreeMap::new();
                for (k, va) in a {
                    if let Some(vb) = b.get(k) {
                        env.insert(k.clone(), va.join(*vb));
                    }
                }
                ParityDomain::Env(env)
            }
        }
    }

    fn widen(&self, next: &Self) -> Self {
        self.join(next) // finite height: join converges by itself
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (ParityDomain::Bottom, _) => true,
            (_, ParityDomain::Bottom) => false,
            (ParityDomain::Env(a), ParityDomain::Env(b)) => b
                .iter()
                .all(|(k, vb)| a.get(k).map(|va| va.leq(*vb)).unwrap_or(false)),
        }
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        let ParityDomain::Env(env) = self else {
            return ParityDomain::Bottom;
        };
        match stmt {
            Stmt::Assign(x, e) => {
                let p = eval(env, e);
                let mut env = env.clone();
                match p {
                    Some(p) if p != Parity::TOP => {
                        env.insert(x.clone(), p);
                    }
                    _ => {
                        env.remove(x);
                    }
                }
                ParityDomain::Env(env)
            }
            Stmt::Call { lhs: Some(x), .. } => {
                let mut env = env.clone();
                env.remove(x);
                ParityDomain::Env(env)
            }
            _ => self.clone(),
        }
    }

    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self {
        let ParityDomain::Env(env) = self else {
            return ParityDomain::Bottom;
        };
        let mut out = BTreeMap::new();
        for (p, a) in callee_params.iter().zip(site.args) {
            if let Some(par) = eval(env, a) {
                if par != Parity::TOP {
                    out.insert(p.clone(), par);
                }
            }
        }
        ParityDomain::Env(out)
    }

    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self {
        if self.is_bottom() || callee_exit.is_bottom() {
            return ParityDomain::Bottom;
        }
        let (Some(x), ParityDomain::Env(cenv)) = (site.lhs, callee_exit) else {
            return self.clone();
        };
        let ParityDomain::Env(env) = self else {
            return ParityDomain::Bottom;
        };
        let mut env = env.clone();
        match cenv.get(&Symbol::new(RETURN_VAR)) {
            Some(p) => {
                env.insert(x.clone(), *p);
            }
            None => {
                env.remove(x);
            }
        }
        ParityDomain::Env(env)
    }

    fn models(&self, concrete: &ConcreteState) -> bool {
        let ParityDomain::Env(env) = self else {
            return false;
        };
        concrete.env.iter().all(|(x, v)| match (env.get(x), v) {
            (None, _) => true,
            (Some(p), Value::Int(n)) => Parity::of(*n).leq(*p),
            (Some(_), _) => false,
        })
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A loop that adds 2 each iteration: parity of `i` is invariant even
    // though its value is unbounded — exactly what a finite-height custom
    // domain can prove and an interval domain cannot.
    let program = parse_program(
        "function f(n) {
             var i = 0;
             while (i < n) { i = i + 2; }
             return i;
         }",
    )?;
    let cfg = lower_program(&program)?.cfgs()[0].clone();
    let mut analysis = FuncAnalysis::new(cfg, ParityDomain::top());
    let mut memo = MemoTable::new();
    let mut stats = QueryStats::default();

    let exit = analysis.query_exit(&mut memo, &mut IntraResolver, &mut stats)?;
    println!("exit state: {exit}");
    println!(
        "work: {} computed, {} unrollings (finite-height ⇒ widening = join)",
        stats.computed, stats.unrolls
    );
    assert_eq!(
        exit.parity_of("i"),
        Parity::EVEN,
        "i stays even through the loop"
    );

    // Demanded AI comes for free: edit the loop body and re-query.
    let head = analysis.cfg().loop_heads()[0];
    let back = analysis.cfg().back_edge(head).expect("loop back edge");
    analysis.splice(back, &parse_block("i = i + 1;")?)?;
    let mut stats2 = QueryStats::default();
    let exit2 = analysis.query_exit(&mut memo, &mut IntraResolver, &mut stats2)?;
    println!("after inserting `i = i + 1;` in the body: {exit2}");
    assert_eq!(
        exit2.parity_of("i"),
        Parity::TOP,
        "parity now alternates: ⊤"
    );
    Ok(())
}
