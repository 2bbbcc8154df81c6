//! The one non-relational environment domain: `⊥`, or a map from variables
//! to elements of a [`ValueLattice`].
//!
//! [`NonRel<V>`] owns everything an environment domain needs that does not
//! depend on what a value *is* — the map, `⊔`/`∇`/`⊑` pointwise, the
//! statement and `assume` dispatch, call binding, `models`, `Display`,
//! equality and hashing. A value domain is its lattice and its arithmetic
//! and nothing else: [`crate::interval`], [`crate::sign`],
//! [`crate::constprop`] and [`crate::parity`] each implement
//! [`ValueLattice`] and name `NonRel` of it. **A new value domain starts
//! here**: implement the trait (parity is the smallest complete example)
//! and alias `NonRel<YourValue>`.
//!
//! # Sharing and the digest
//!
//! A reachable state is an `Arc<`[`Env`]`>`: bindings sorted by variable,
//! beside a 128-bit digest of their content. `clone` bumps a reference
//! count, and an operation that changes nothing (`skip`, an `assume` that
//! refines nothing, `x = e` binding what `x` already holds, a join that
//! adds nothing) hands back the allocation it was given, so a memo hit, a
//! cell write and a convergence check usually compare pointers.
//!
//! The digest is the wrapping sum, over the bindings, of the one content
//! hash (`dai_memo::content_digest`, a few folded multiplies) of each
//! `(variable, value)` pair — a sum so that [`NonRel::with_binding`]
//! adjusts it in O(1) (take the old pair's hash out, put the new one in)
//! and so that it does not depend on the route that built the map. `Hash`
//! writes the digest and nothing else, which makes the DAIG's per-write
//! `content_digest` of a state sixteen bytes of hashing however many
//! variables it binds. `==` is exact: pointer-equal and digests-differ are
//! only its shortcuts.
//!
//! The digest can never be stale because nothing can change a sealed map:
//! [`Env`] hands out shared references only, and every operation that
//! changes a binding builds a new `Env` (`Env::seal`, or the O(1)
//! adjustment in `with_binding`, which `debug_assert`s against it).

use crate::bool3::Bool3;
use crate::{AbstractDomain, CallSite};
use dai_lang::interp::{ConcreteState, Value};
use dai_lang::{BinOp, Expr, Stmt, Symbol, UnOp, RETURN_VAR};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A value-lattice element, or one of the two every value lattice shares:
/// `Bot` — no value, the computation producing it halts — and `Top` — any
/// value at all, which an environment represents by binding nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifted<V> {
    /// No value: evaluation traps, or a refinement is unsatisfiable.
    Bot,
    /// A proper element, worth a binding.
    Val(V),
    /// Any value: the variable is left unbound.
    Top,
}

/// What a value domain provides: the proper elements of its lattice (`⊥`
/// and `⊤` are [`Lifted`]'s), their order, and the abstract semantics of
/// expressions and comparisons over an [`Env`] of them.
pub trait ValueLattice:
    Clone + Eq + Hash + fmt::Debug + fmt::Display + Send + Sync + 'static
{
    /// The domain's name ("interval", "sign", …), as sessions record it.
    const NAME: &'static str;

    /// Sorts a raw element into `⊥`, `⊤` or a proper one in canonical
    /// form. The default suits a type with no element standing for either.
    fn lift(self) -> Lifted<Self> {
        Lifted::Val(self)
    }

    /// Least upper bound of two proper elements; `None` when it is `⊤`.
    fn join(&self, other: &Self) -> Option<Self>;

    /// Widening (`self` the previous iterate); `None` when it is `⊤`.
    /// Finite-height lattices keep the default, [`ValueLattice::join`].
    fn widen(&self, next: &Self) -> Option<Self> {
        self.join(next)
    }

    /// Inclusion `⊑` between proper elements.
    fn leq(&self, other: &Self) -> bool;

    /// Does this element cover the concrete value?
    fn models(&self, concrete: &Value) -> bool;

    /// Abstract evaluation of `expr`.
    fn eval(env: &Env<Self>, expr: &Expr) -> Lifted<Self>;

    /// Abstract truth of the guard `cond` ([`Bool3::Bot`]: it traps).
    fn truth(env: &Env<Self>, cond: &Expr) -> Bool3;

    /// Refinement under the comparison `l op r` taken true: the variable
    /// of `l` it narrows and that variable's new value, or `None` when it
    /// says nothing about `l`. (`NonRel` asks again with the sides
    /// swapped.)
    fn refine_cmp<'e>(
        env: &Env<Self>,
        op: BinOp,
        l: &'e Expr,
        r: &Expr,
    ) -> Option<(&'e Symbol, Lifted<Self>)>;

    /// What `a` holds after `a[i] = e`. The default tracks no arrays
    /// ([`Env::scalar_written_through`]).
    fn array_write(env: &Env<Self>, a: &Symbol, i: &Expr, e: &Expr) -> Lifted<Self> {
        let _ = (i, e);
        env.scalar_written_through(a)
    }

    /// What `x` holds after `x.f = e`. The default tracks no heap
    /// ([`Env::scalar_written_through`]).
    fn field_write(env: &Env<Self>, x: &Symbol) -> Lifted<Self> {
        env.scalar_written_through(x)
    }
}

/// A sealed environment: bindings sorted by variable, each a proper value
/// (never `⊥` or `⊤`), with the digest of their content.
pub struct Env<V> {
    bindings: Vec<(Symbol, V)>,
    digest: u128,
}

/// The 128-bit hash of one binding, a term of the digest's sum: the one
/// content hash, `dai_memo::content_digest`, of the pair.
fn binding_digest<V: Hash>(var: &Symbol, value: &V) -> u128 {
    dai_memo::content_digest(&(var, value))
}

impl<V: Hash> Env<V> {
    /// Seals sorted, duplicate-free bindings, hashing each once.
    fn seal(bindings: Vec<(Symbol, V)>) -> Env<V> {
        debug_assert!(bindings.windows(2).all(|w| w[0].0 < w[1].0));
        let digest = bindings
            .iter()
            .fold(0u128, |d, (k, v)| d.wrapping_add(binding_digest(k, v)));
        Env { bindings, digest }
    }
}

impl<V> Env<V> {
    fn position(&self, var: &str) -> Result<usize, usize> {
        self.bindings.binary_search_by(|(k, _)| k.as_str().cmp(var))
    }

    /// The value bound to `var`; `None` means `⊤`.
    pub fn get(&self, var: impl AsRef<str>) -> Option<&V> {
        let at = self.position(var.as_ref()).ok()?;
        Some(&self.bindings[at].1)
    }

    /// What `x` holds after an array or field write through it, for a
    /// lattice whose every element is a scalar: the write traps if `x` is
    /// tracked, and leaves it untracked otherwise.
    pub fn scalar_written_through(&self, x: &Symbol) -> Lifted<V> {
        match self.get(x) {
            Some(_) => Lifted::Bot,
            None => Lifted::Top,
        }
    }

    /// The bindings, ascending by variable.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Symbol, &V)> {
        self.bindings.iter().map(|(k, v)| (k, v))
    }
}

/// An abstract environment state over the value lattice `V`: `⊥`, or a
/// shared [`Env`] in which unbound variables are `⊤`.
#[derive(Clone)]
pub struct NonRel<V>(Option<Arc<Env<V>>>);

/// [`NonRel::digest`] of `⊥`, which binds nothing and is not `⊤`.
const BOTTOM_DIGEST: u128 = u128::MAX;

impl<V: ValueLattice> NonRel<V> {
    /// The state constraining nothing (all variables `⊤`).
    pub fn top() -> Self {
        NonRel::sealed(Vec::new())
    }

    fn sealed(bindings: Vec<(Symbol, V)>) -> Self {
        NonRel(Some(Arc::new(Env::seal(bindings))))
    }

    /// A state from explicit bindings (for `φ₀`, decoding and tests): `⊥`
    /// if any value is, `⊤` values dropped, the last binding of a variable
    /// winning.
    pub fn from_bindings(bindings: impl IntoIterator<Item = (Symbol, V)>) -> Self {
        Self::from_lifted(bindings.into_iter().map(|(k, v)| (k, v.lift())))
    }

    fn from_lifted(bindings: impl IntoIterator<Item = (Symbol, Lifted<V>)>) -> Self {
        let mut out: Vec<(Symbol, V)> = Vec::new();
        for (k, v) in bindings {
            match v {
                Lifted::Bot => return NonRel(None),
                Lifted::Val(v) => out.push((k, v)),
                Lifted::Top => {}
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        NonRel::sealed(out)
    }

    /// The environment of a reachable state; `None` for `⊥`.
    pub fn env(&self) -> Option<&Env<V>> {
        self.0.as_deref()
    }

    /// The kept content digest (module docs): equal states have equal
    /// digests whatever route built them.
    pub fn digest(&self) -> u128 {
        self.env().map_or(BOTTOM_DIGEST, |env| env.digest)
    }

    /// The address of the shared allocation (`0` for `⊥`): equal for a
    /// state and its clones, and for what an operation that changed
    /// nothing returned.
    pub fn identity(&self) -> u64 {
        self.0.as_ref().map_or(0, |env| Arc::as_ptr(env) as u64)
    }

    /// This state with `var` bound to `value`: `⊥` for `Bot`, unbound for
    /// `Top`. Copies the map only when the binding actually changes.
    pub fn with_binding(&self, var: &Symbol, value: Lifted<V>) -> Self {
        let Some(env) = self.env() else {
            return NonRel(None);
        };
        let old = &env.bindings;
        let (at, bound) = match env.position(var.as_str()) {
            Ok(at) => (at, true),
            Err(at) => (at, false),
        };
        match &value {
            Lifted::Bot => return NonRel(None),
            Lifted::Top if !bound => return self.clone(),
            Lifted::Val(v) if bound && old[at].1 == *v => return self.clone(),
            _ => {}
        }
        let mut digest = env.digest;
        if bound {
            digest = digest.wrapping_sub(binding_digest(&old[at].0, &old[at].1));
        }
        let mut bindings = Vec::with_capacity(old.len() + 1);
        bindings.extend_from_slice(&old[..at]);
        if let Lifted::Val(v) = value {
            digest = digest.wrapping_add(binding_digest(var, &v));
            bindings.push((var.clone(), v));
        }
        bindings.extend_from_slice(&old[at + usize::from(bound)..]);
        debug_assert_eq!(digest, Env::seal(bindings.clone()).digest, "stale digest");
        NonRel(Some(Arc::new(Env { bindings, digest })))
    }

    /// `⊔` or `∇`: bindings present on both sides combined by `f`, the
    /// rest (and what `f` sends to `⊤`) dropped. A result equal to an
    /// operand is that operand's allocation.
    fn pointwise(&self, other: &Self, f: impl Fn(&V, &V) -> Option<V>) -> Self {
        let (a, b) = match (&self.0, &other.0) {
            (None, _) => return other.clone(),
            (_, None) => return self.clone(),
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => return self.clone(),
            (Some(a), Some(b)) => (&a.bindings, &b.bindings),
        };
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut is_a, mut is_b) = (true, true);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let ((ka, va), (kb, vb)) = (&a[i], &b[j]);
            match ka.cmp(kb) {
                Ordering::Less => (is_a, i) = (false, i + 1),
                Ordering::Greater => (is_b, j) = (false, j + 1),
                Ordering::Equal => {
                    match f(va, vb) {
                        Some(v) => {
                            is_a &= v == *va;
                            is_b &= v == *vb;
                            out.push((ka.clone(), v));
                        }
                        None => (is_a, is_b) = (false, false),
                    }
                    (i, j) = (i + 1, j + 1);
                }
            }
        }
        if is_a && i == a.len() {
            self.clone()
        } else if is_b && j == b.len() {
            other.clone()
        } else {
            NonRel::sealed(out)
        }
    }

    /// Refines this state by assuming `cond` evaluates to `expected`.
    fn refine(&self, cond: &Expr, expected: bool) -> Self {
        let Some(env) = self.env() else {
            return NonRel(None);
        };
        // Is the expected outcome even possible?
        if !Bool3::of(expected).leq(V::truth(env, cond)) {
            return NonRel(None);
        }
        match cond {
            Expr::Unary(UnOp::Not, inner) => self.refine(inner, !expected),
            Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                // `l ∧ r` taken true and `l ∨ r` taken false constrain both
                // sides in turn; the other two are disjunctions.
                if (*op == BinOp::And) == expected {
                    self.refine(l, expected).refine(r, expected)
                } else {
                    self.refine(l, expected).join(&self.refine(r, expected))
                }
            }
            Expr::Binary(op, l, r) if op.is_comparison() => {
                let op = if expected {
                    *op
                } else {
                    op.negate_comparison().expect("comparison")
                };
                let flipped = op.flip_comparison().expect("comparison");
                self.refine_side(op, l, r).refine_side(flipped, r, l)
            }
            _ => self.clone(),
        }
    }

    /// Narrows what `l` names under `l op r`.
    fn refine_side(&self, op: BinOp, l: &Expr, r: &Expr) -> Self {
        let Some(env) = self.env() else {
            return NonRel(None);
        };
        match V::refine_cmp(env, op, l, r) {
            Some((var, value)) => self.with_binding(var, value),
            None => self.clone(),
        }
    }
}

impl<V: ValueLattice> PartialEq for NonRel<V> {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                Arc::ptr_eq(a, b) || (a.digest == b.digest && a.bindings == b.bindings)
            }
            _ => false,
        }
    }
}

impl<V: ValueLattice> Eq for NonRel<V> {}

impl<V: ValueLattice> Hash for NonRel<V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.digest());
    }
}

impl<V: ValueLattice> fmt::Debug for NonRel<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.env() {
            None => write!(f, "Bottom"),
            Some(env) => f.debug_map().entries(env.iter()).finish(),
        }
    }
}

impl<V: ValueLattice> fmt::Display for NonRel<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(env) = self.env() else {
            return write!(f, "⊥");
        };
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

impl<V: ValueLattice> AbstractDomain for NonRel<V> {
    fn bottom() -> Self {
        NonRel(None)
    }

    fn is_bottom(&self) -> bool {
        self.0.is_none()
    }

    fn entry_default(_params: &[Symbol]) -> Self {
        NonRel::top()
    }

    fn join(&self, other: &Self) -> Self {
        self.pointwise(other, V::join)
    }

    fn widen(&self, next: &Self) -> Self {
        self.pointwise(next, V::widen)
    }

    fn leq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, _) => true,
            (_, None) => false,
            // self ⊑ other iff every constraint in other is implied; an
            // unbound variable is ⊤ and implies none.
            (Some(a), Some(b)) => {
                Arc::ptr_eq(a, b)
                    || b.iter()
                        .all(|(k, vb)| a.get(k).is_some_and(|va| va.leq(vb)))
            }
        }
    }

    fn transfer(&self, stmt: &Stmt) -> Self {
        let Some(env) = self.env() else {
            return NonRel(None);
        };
        match stmt {
            Stmt::Skip | Stmt::Print(_) => self.clone(),
            Stmt::Assign(x, e) => self.with_binding(x, V::eval(env, e)),
            Stmt::ArrayWrite(a, i, e) => self.with_binding(a, V::array_write(env, a, i, e)),
            Stmt::FieldWrite(x, _, _) => self.with_binding(x, V::field_write(env, x)),
            Stmt::Assume(e) => self.refine(e, true),
            // Intraprocedural fallback: havoc the result.
            Stmt::Call { lhs: Some(x), .. } => self.with_binding(x, Lifted::Top),
            Stmt::Call { lhs: None, .. } => self.clone(),
        }
    }

    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self {
        let Some(env) = self.env() else {
            return NonRel(None);
        };
        NonRel::from_lifted(
            callee_params
                .iter()
                .zip(site.args)
                .map(|(p, a)| (p.clone(), V::eval(env, a))),
        )
    }

    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self {
        let (Some(_), Some(exit)) = (self.env(), callee_exit.env()) else {
            return NonRel(None);
        };
        match site.lhs {
            Some(x) => {
                let returned = exit.get(RETURN_VAR).cloned();
                self.with_binding(x, returned.map_or(Lifted::Top, Lifted::Val))
            }
            None => self.clone(),
        }
    }

    fn models(&self, concrete: &ConcreteState) -> bool {
        self.env().is_some_and(|env| {
            concrete
                .env
                .iter()
                .all(|(x, v)| env.get(x).is_none_or(|av| av.models(v)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{AbsVal, Interval};
    use crate::IntervalDomain;
    use dai_lang::parse_expr;

    fn x_in(lo: i64, hi: i64) -> IntervalDomain {
        IntervalDomain::from_bindings([(Symbol::new("x"), AbsVal::Num(Interval::of(lo, hi)))])
    }

    #[test]
    fn a_transfer_that_changes_nothing_returns_its_argument() {
        let s = x_in(3, 3);
        let unchanged = [
            Stmt::Skip,
            Stmt::Print(parse_expr("x").unwrap()),
            Stmt::Assume(parse_expr("x < 10").unwrap()),
            Stmt::Assume(parse_expr("!(x > 5) && x == x").unwrap()),
            Stmt::Assign("x".into(), parse_expr("1 + 2").unwrap()),
            Stmt::Call {
                lhs: Some("unbound".into()),
                callee: "f".into(),
                args: vec![],
            },
        ];
        for stmt in &unchanged {
            let out = s.transfer(stmt);
            assert_eq!(out.identity(), s.identity(), "{stmt} copied the state");
        }
        assert_eq!(s.clone().identity(), s.identity());
        assert_eq!(s.join(&x_in(3, 3)).identity(), s.identity());
        let wide = x_in(0, 9);
        assert_eq!(s.join(&wide).identity(), wide.identity(), "a ⊔ b = b is b");
        assert_eq!(wide.widen(&s).identity(), wide.identity());
        assert_ne!(
            s.transfer(&Stmt::Assign("x".into(), parse_expr("4").unwrap())),
            s
        );
    }

    #[test]
    fn bottom_binds_nothing_and_is_not_top() {
        let (top, bottom) = (IntervalDomain::top(), IntervalDomain::bottom());
        assert_ne!(top, bottom);
        assert_ne!(top.digest(), bottom.digest());
    }

    #[test]
    fn from_bindings_sorts_and_keeps_the_last_of_a_variable() {
        let s = IntervalDomain::from_bindings([
            (Symbol::new("z"), AbsVal::NullRef),
            (Symbol::new("a"), AbsVal::NodeRef),
            (Symbol::new("z"), AbsVal::AnyRef),
            (Symbol::new("t"), AbsVal::Top),
        ]);
        assert_eq!(s.to_string(), "{a: node, z: ref?}");
    }
}
