//! Staged transfer compilation: per-(statement, domain) closures.
//!
//! # Staged transfer compilation
//!
//! [`AbstractDomain::transfer`](crate::AbstractDomain::transfer) is an
//! *interpreter*: every evaluation re-classifies the statement AST
//! (which `Stmt` variant? is the right-hand side `±x + c`? is it
//! definitely numeric?) before doing any abstract arithmetic. On the
//! engine's warm re-evaluation path the same statement is interpreted
//! thousands of times against different pre-states, paying the
//! classification over and over.
//!
//! This module stages that work (the classic specialization move —
//! Gallagher & Glück's "removing the interpretation overhead" applied to
//! an abstract interpreter): [`CompileTransfer::stage`] runs once per
//! statement, dissects the AST, classifies its [`TransferShape`], and
//! returns a [`CompiledTransfer`] — a closure from pre-state to
//! post-state with the operands (variable, ±1 coefficient, offset,
//! residual expression) already extracted. Evaluating the closure skips
//! straight to the domain primitive the interpreter would have
//! dispatched to.
//!
//! ## The bit-identity contract
//!
//! A compiled closure must produce a post-state **bit-for-bit identical**
//! (same `Eq`, same `Hash`, hence the same content digest) to
//! `pre.transfer(stmt)`. Memo keys content-hash values, convergence
//! checks compare iterates with `==`, and DOT dumps print states — any
//! divergence, even between semantically equal representations, is
//! observable. Compilers therefore call the *same internal primitives*
//! the interpreter dispatches to (octagon's `assign_*_closed` fast
//! paths), never a reimplementation. The interpreter stays as the
//! always-available differential oracle; `tests/transfer_compile.rs`
//! proptests the contract per statement and end-to-end.
//!
//! ## Fallback rules
//!
//! `stage` is total but partial in effect: it returns `None` whenever a
//! statement has no profitable (or no sound) specialization, and the
//! caller falls back to the interpreter. The shipped rules:
//!
//! * **call statements** are never compiled — their meaning routes
//!   through the interprocedural resolver and depends on the callee's
//!   current body, not only on the statement text;
//! * **every domain but the octagon** — [`crate::nonrel::NonRel`]'s
//!   instances and shape — does not override
//!   [`AbstractDomain::compile_transfer`](crate::AbstractDomain::compile_transfer),
//!   so every statement falls back (measured for PR 23: over a Rust
//!   `match` on `Stmt` the staged closures of the environment domains
//!   bought nothing, ROADMAP item 4.2);
//! * **products** compile only when both components do (a half-compiled
//!   pair would blur the compiled/interpreted accounting).
//!
//! Staleness is handled above this layer: `dai-core`'s transfer table
//! guards every compiled entry with the content digest of the statement
//! it was staged from, so an entry that survived a program edit degrades
//! to interpretation instead of producing a value for the wrong
//! statement.

use crate::AbstractDomain;
use dai_lang::Stmt;
use std::fmt;
use std::sync::Arc;

/// The statement shape a compiler classified, fixed at stage time. Purely
/// descriptive (metrics, debugging, tests asserting a statement staged to
/// the shape they expect); evaluation dispatches through the closure, not
/// the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferShape {
    /// No effect on the abstract state (`skip`, `print`, heap writes).
    Identity,
    /// `x := c` with a constant right-hand side.
    ConstAssign,
    /// `x := ±y + c`, `y ≠ x` (octagon's exact O(d) substitution).
    CopyAssign,
    /// `x := ±x + c` (octagon's in-place shift).
    ShiftAssign,
    /// A general assignment evaluated through the domain's expression
    /// evaluator.
    Assign,
    /// `assume e` (guard refinement).
    Assume,
    /// A fused straight-line run of several statements.
    Fused,
}

/// A transfer function staged against one statement: apply it to a
/// pre-state to get the post-state `⟦s⟧♯(φ)`. Cheap to clone (the closure
/// is behind an `Arc`), and `Send + Sync` so scheduler workers can share
/// one table.
pub struct CompiledTransfer<D> {
    shape: TransferShape,
    f: Arc<dyn Fn(&D) -> D + Send + Sync>,
}

impl<D> Clone for CompiledTransfer<D> {
    fn clone(&self) -> Self {
        CompiledTransfer {
            shape: self.shape,
            f: Arc::clone(&self.f),
        }
    }
}

impl<D> fmt::Debug for CompiledTransfer<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledTransfer")
            .field("shape", &self.shape)
            .finish_non_exhaustive()
    }
}

impl<D> CompiledTransfer<D> {
    /// Wraps a staged closure with its classified shape.
    pub fn new(shape: TransferShape, f: impl Fn(&D) -> D + Send + Sync + 'static) -> Self {
        CompiledTransfer {
            shape,
            f: Arc::new(f),
        }
    }

    /// Applies the staged transfer to a pre-state.
    #[inline]
    pub fn apply(&self, pre: &D) -> D {
        (self.f)(pre)
    }

    /// The shape classified at stage time.
    pub fn shape(&self) -> TransferShape {
        self.shape
    }

    /// Sequential composition: a closure computing `next(self(pre))`.
    /// This is the block-fusion primitive — a straight-line run
    /// `s₁; …; s_k` fuses into one [`TransferShape::Fused`] closure whose
    /// application equals applying each member in order (and therefore
    /// inherits the bit-identity contract from its members).
    pub fn then(&self, next: &CompiledTransfer<D>) -> CompiledTransfer<D>
    where
        D: 'static,
    {
        let first = Arc::clone(&self.f);
        let second = Arc::clone(&next.f);
        CompiledTransfer {
            shape: TransferShape::Fused,
            f: Arc::new(move |pre: &D| second(&first(pre))),
        }
    }
}

/// Per-domain transfer compilers. A domain implements `stage` with its
/// own shape classification and overrides
/// [`AbstractDomain::compile_transfer`](crate::AbstractDomain::compile_transfer)
/// to delegate here; consumers (the transfer table in `dai-core`) only
/// ever call the `AbstractDomain` entry point, so unstaged domains need
/// no impl at all.
pub trait CompileTransfer: AbstractDomain {
    /// Stages `stmt` into a closure, or `None` to fall back to the
    /// interpreter (see the module docs for the fallback rules).
    fn stage(stmt: &Stmt) -> Option<CompiledTransfer<Self>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntervalDomain;
    use dai_lang::parse_expr;

    #[test]
    fn then_composes_in_order() {
        let a = CompiledTransfer::new(TransferShape::Assign, |pre: &IntervalDomain| {
            pre.transfer(&Stmt::Assign("x".into(), parse_expr("1").unwrap()))
        });
        let b = CompiledTransfer::new(TransferShape::Assign, |pre: &IntervalDomain| {
            pre.transfer(&Stmt::Assign("x".into(), parse_expr("x + 2").unwrap()))
        });
        let fused = a.then(&b);
        assert_eq!(fused.shape(), TransferShape::Fused);
        let out = fused.apply(&IntervalDomain::top());
        assert_eq!(
            out.interval_of("x"),
            crate::interval::Interval::constant(3),
            "b runs after a"
        );
    }

    #[test]
    fn unstaged_domains_fall_back() {
        // Shape has no compiler: the provided method must return None for
        // everything.
        assert!(crate::ShapeDomain::compile_transfer(&Stmt::Skip).is_none());
    }
}
