//! # dai-domains — abstract domains for demanded abstract interpretation
//!
//! The paper's framework is parametric in an abstract interpreter
//! `⟨Σ♯, φ₀, ⟦·⟧♯, ⊑, ⊔, ∇⟩` (§3). This crate defines that interface as the
//! [`AbstractDomain`] trait and provides the three instantiations evaluated
//! in §7, each implemented from scratch:
//!
//! * [`interval`] — the textbook infinite-height interval domain over an
//!   environment of abstract values (numbers, booleans, arrays, references),
//!   with an array-bounds-checking client (the paper used APRON intervals),
//!   a [`nonrel`] instance;
//! * [`octagon`] — Miné's relational octagon domain (`±x ±y ≤ c`) via
//!   difference-bound matrices with strong closure (the paper used APRON
//!   octagons);
//! * [`shape`] — a separation-logic shape domain for singly-linked lists
//!   with `points-to` and `lseg` predicates, materialization, and
//!   canonicalization-based widening (after Chang–Rival–Necula, specialized
//!   to list segments as in the paper).
//!
//! All three are infinite-height lattices requiring genuine widening, which
//! is precisely what rules them out of prior incremental/demand-driven
//! frameworks and motivates DAIGs.
//!
//! To exercise the opposite corner of the design space — the finite-height
//! domains the paper's §2.3 notes would admit eager `k`-fold inlining and
//! that prior frameworks (IFDS/IDE, Datalog) *can* express — the crate also
//! provides:
//!
//! * [`sign`] — the eight-element sign lattice (widening degenerates to
//!   join);
//! * [`constprop`] — flat constant propagation à la Sagiv–Reps–Horwitz;
//! * [`parity`] — even/odd, the smallest complete value domain;
//! * [`product`] — the direct-product combinator `Prod<A, B>`, building new
//!   domain instances compositionally (e.g. intervals × signs).
//!
//! # Where a new value domain starts
//!
//! Interval, sign, constant propagation and parity are one environment
//! domain, [`nonrel::NonRel`], over four value lattices. `NonRel<V>` owns
//! the variable map (shared behind an `Arc`, with a content digest kept
//! per binding so `clone`, `Hash` and `==` are cheap), pointwise `⊔`/`∇`/`⊑`,
//! the statement and `assume` dispatch, call binding and `models`; a new
//! non-relational domain implements [`nonrel::ValueLattice`] — its
//! elements, their order, abstract arithmetic and comparison refinement —
//! and names `NonRel` of it. [`parity`] is the template.
//!
//! # Staged transfer compilation
//!
//! The [`compile`] module adds the second stage of a two-stage transfer
//! evaluator: [`AbstractDomain::compile_transfer`] specializes a
//! statement against the domain *once* — classifying its shape
//! (constant/copy/shift/linear assignment, assume, skip) and
//! pre-resolving its variables — and returns a [`CompiledTransfer`]
//! closure that jumps straight to the domain's internal primitives on
//! every application. Staged closures are **bit-for-bit identical** to
//! [`AbstractDomain::transfer`] (the module docs state the contract),
//! so the interpreter remains shipped as the differential oracle.
//! Only the octagon stages: domains without a compiler — `NonRel`'s
//! instances, shape, and any product with one — inherit the default
//! (`None`) and always interpret.

pub mod bool3;
pub mod compile;
pub mod constprop;
pub mod interval;
pub mod nonrel;
pub mod octagon;
pub mod parity;
pub mod product;
pub mod shape;
pub mod sign;

pub use bool3::Bool3;
pub use compile::{CompileTransfer, CompiledTransfer, TransferShape};
pub use constprop::ConstDomain;
pub use interval::IntervalDomain;
pub use nonrel::{NonRel, ValueLattice};
pub use octagon::OctagonDomain;
pub use parity::ParityDomain;
pub use product::Prod;
pub use shape::ShapeDomain;
pub use sign::SignDomain;

use dai_lang::interp::ConcreteState;
use dai_lang::{Expr, Stmt, Symbol};
use std::fmt;
use std::hash::Hash;

/// Static description of a call site, passed to interprocedural transfer
/// functions.
#[derive(Debug, Clone, Copy)]
pub struct CallSite<'a> {
    /// Variable receiving the return value, if any.
    pub lhs: Option<&'a Symbol>,
    /// Callee name.
    pub callee: &'a Symbol,
    /// Actual argument expressions, evaluated in the caller's state.
    pub args: &'a [Expr],
    /// A stable, unique key for this call site (function name + edge id),
    /// used by heap domains to frame caller-local bindings across the call.
    pub site_key: &'a str,
}

/// The abstract interpreter interface `⟨Σ♯, φ₀, ⟦·⟧♯, ⊑, ⊔, ∇⟩` of paper §3,
/// extended with the interprocedural hooks of §7.1 and a concretization
/// test used to validate soundness.
///
/// # Lattice laws
///
/// Implementations must provide a join semi-lattice with bottom:
/// `join` is an upper bound for `leq`, `bottom()` is least, and `widen` is
/// an upper-bound operator enforcing convergence — every sequence
/// `w₀, w₀ ∇ φ₁, (w₀ ∇ φ₁) ∇ φ₂, …` with increasing `φᵢ` stabilizes after
/// finitely many steps (paper §3). Additionally `widen(a, a) == a` must
/// hold so converged loops stay converged when re-unrolled.
///
/// `Eq`/`Hash` must agree with semantic equality on *canonical forms*: the
/// DAIG convergence check (`Q-Loop-Converge`) and the memo table both
/// compare states with `==`.
pub trait AbstractDomain:
    Clone + Eq + Hash + fmt::Debug + fmt::Display + Send + Sync + 'static
{
    /// The least element `⊥` (unreachable).
    fn bottom() -> Self;

    /// Is this state `⊥`?
    fn is_bottom(&self) -> bool;

    /// A default initial state `φ₀` for an entry function with the given
    /// parameters (parameters unconstrained). Analyses needing a richer
    /// precondition (e.g. shape analysis assuming well-formed input lists)
    /// construct `φ₀` explicitly instead.
    fn entry_default(params: &[Symbol]) -> Self;

    /// Least upper bound `⊔`.
    fn join(&self, other: &Self) -> Self;

    /// Widening `∇`; `self` is the previous iterate, `next` the new value.
    fn widen(&self, next: &Self) -> Self;

    /// Partial order `⊑`.
    fn leq(&self, other: &Self) -> bool;

    /// Abstract transfer `⟦s⟧♯` for non-call statements. Call statements
    /// are handled by the interprocedural layer; an implementation should
    /// treat a call conservatively (havoc the left-hand side) so that a
    /// purely intraprocedural analysis remains sound. Must be a pure
    /// function of `self`'s content (as `Hash` sees it) and `stmt`: the
    /// memo table reuses a result wherever the same pair recurs.
    fn transfer(&self, stmt: &Stmt) -> Self;

    /// Stages `stmt` into a [`CompiledTransfer`] closure specialized to
    /// this domain, or `None` to evaluate through [`Self::transfer`]
    /// (the interpreter). The default compiles nothing, so plugging in a
    /// new domain never requires touching the compilation layer; domains
    /// with compilers override this to delegate to their
    /// [`compile::CompileTransfer`] impl. A returned closure must be
    /// bit-for-bit identical to the interpreter (see [`compile`] module
    /// docs for the contract and fallback rules).
    fn compile_transfer(stmt: &Stmt) -> Option<CompiledTransfer<Self>> {
        let _ = stmt;
        None
    }

    /// Abstract entry state of a callee: bind `callee_params` to the actual
    /// arguments evaluated in the caller state `self` at the call site.
    ///
    /// Must be a pure function of `self`'s content (as `Hash` sees it),
    /// `site` and `callee_params`: `dai-core` memoizes it under a key
    /// built from exactly those, as it memoizes [`Self::transfer`].
    fn call_entry(&self, site: CallSite<'_>, callee_params: &[Symbol]) -> Self;

    /// Abstract post-call state: combine the caller state at the call
    /// (`self`) with the callee's exit state.
    ///
    /// Must be a pure function of `self`'s and `callee_exit`'s content
    /// (as `Hash` sees it) and `site`: `dai-core` memoizes it under a key
    /// built from exactly those.
    fn call_return(&self, site: CallSite<'_>, callee_exit: &Self) -> Self;

    /// Concretization membership test `σ ⊨ φ` (i.e. `σ ∈ γ(φ)`), used by
    /// the test suites to validate soundness against the concrete
    /// interpreter. Must never return `false` for a state the abstract
    /// semantics claims to cover.
    fn models(&self, concrete: &ConcreteState) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trait must be object-safe enough for generic use and its
    // implementors must be Send + Sync (checked here once for all).
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn domains_are_send_sync() {
        assert_send_sync::<IntervalDomain>();
        assert_send_sync::<OctagonDomain>();
        assert_send_sync::<ShapeDomain>();
    }
}
