//! Names: unique identifiers for DAIG reference cells (paper Fig. 6).
//!
//! The paper builds names from locations, function symbols, integers,
//! value hashes, products, and *i-primed* variants `n^(i)` that distinguish
//! the unrolled copies of loop cells. This implementation uses a typed
//! equivalent that is isomorphic on the names the DAIG actually
//! constructs:
//!
//! * [`Name::State`] `ℓ⟨σ⟩` — the abstract state at location `ℓ` under
//!   **iteration context** `σ`. The context generalizes the paper's single
//!   prime to one `(head, iteration)` component per enclosing loop, so
//!   that nested-loop unrollings get collision-free names (the paper's
//!   `incr` corresponds to bumping the unrolled loop's own component).
//!   For a loop head `ℓ`, the name *without* its own component is the
//!   fixed-point cell `ℓ` and the name *with* component `(ℓ, i)` is the
//!   i-th abstract iterate `ℓ^(i)`. A body location `a` whose component
//!   for loop `ℓ` is [`IterCtx::FIX`] names `a⟨ℓ: fix⟩`, the state at `a`
//!   in `ℓ`'s converged iteration — what an edge leaving `ℓ` from `a`
//!   reads (see `Func::AtFix`).
//! * [`Name::PreWiden`] `ℓ⟨σ,i⟩·ℓ⟨σ,i+1⟩` — the pre-widening state of the
//!   i-th abstract iteration at head `ℓ` (the paper's product name).
//! * [`Name::Stmt`] — the statement cell of a CFG edge. Edge identities
//!   are stable across program edits, which is exactly what lets
//!   statement cells be reused between program versions (paper §2.2).
//! * [`Name::PreJoin`] — the pre-join state contributed by one forward
//!   in-edge of a join location (the paper's `i·n_ℓ`, disambiguated by
//!   edge identity rather than a positional index so that edits do not
//!   shift names).
//!
//! Memoization names `f·(v₁⋯v_k)` (paper §5) live in the auxiliary memo
//! table as content hashes and never appear in the DAIG itself.

use dai_lang::{EdgeId, Loc};
use std::fmt;

/// An iteration context: one `(loop head, iteration)` pair per enclosing
/// loop, outermost first.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IterCtx(pub Vec<(Loc, u32)>);

impl IterCtx {
    /// The iteration of a component that names a loop's converged
    /// iteration rather than a fixed one (`a⟨ℓ: fix⟩`): which iteration
    /// that is, is read off `ℓ`'s fixed-point cell when the cell is
    /// evaluated.
    pub const FIX: u32 = u32::MAX;

    /// The empty context (outside all loops).
    pub fn root() -> IterCtx {
        IterCtx(Vec::new())
    }

    /// Extends the context with one more (inner) loop component.
    pub fn push(&self, head: Loc, iter: u32) -> IterCtx {
        let mut v = self.0.clone();
        v.push((head, iter));
        IterCtx(v)
    }

    /// The iteration count for `head`, if present.
    pub fn iter_of(&self, head: Loc) -> Option<u32> {
        self.0.iter().find(|(h, _)| *h == head).map(|(_, i)| *i)
    }

    /// Does this context contain component `(head, i)` with `i >= 1`?
    /// Used by fix-edge rollback (E-Loop) to find unrolled copies.
    pub fn has_unrolled(&self, head: Loc) -> bool {
        self.0.iter().any(|(h, i)| *h == head && *i >= 1)
    }

    /// The innermost component, if any.
    pub fn last(&self) -> Option<(Loc, u32)> {
        self.0.last().copied()
    }

    /// The context without its innermost component.
    ///
    /// # Panics
    ///
    /// Panics if the context is empty.
    pub fn pop(&self) -> IterCtx {
        let mut v = self.0.clone();
        v.pop().expect("nonempty context");
        IterCtx(v)
    }
}

impl fmt::Display for IterCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (h, k)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if *k == IterCtx::FIX {
                write!(f, "{h}:fix")?;
            } else {
                write!(f, "{h}:{k}")?;
            }
        }
        write!(f, "⟩")
    }
}

/// The name of a DAIG reference cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// Abstract state at a location under an iteration context. For loop
    /// heads: with own component = iterate cell, without = fixed-point
    /// cell.
    State {
        /// The program location.
        loc: Loc,
        /// Iteration context.
        ctx: IterCtx,
    },
    /// The pre-widening state `ℓ⟨σ,i⟩·ℓ⟨σ,i+1⟩` at a loop head; `ctx`'s
    /// last component is `(head, i)`.
    PreWiden {
        /// The loop head.
        head: Loc,
        /// Iteration context ending in the head's own `(head, i)`.
        ctx: IterCtx,
    },
    /// The statement labelling a CFG edge.
    Stmt(EdgeId),
    /// The pre-join abstract state contributed by one forward in-edge of a
    /// join location.
    PreJoin {
        /// The contributing edge.
        edge: EdgeId,
        /// Iteration context of the join location (as destination).
        ctx: IterCtx,
    },
}

impl Name {
    /// Is this a statement cell?
    pub fn is_stmt(&self) -> bool {
        matches!(self, Name::Stmt(_))
    }

    /// The iteration context of a state-typed name (`None` for statement
    /// cells).
    pub fn ctx(&self) -> Option<&IterCtx> {
        match self {
            Name::State { ctx, .. } | Name::PreWiden { ctx, .. } | Name::PreJoin { ctx, .. } => {
                Some(ctx)
            }
            Name::Stmt(_) => None,
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Name::State { loc, ctx } => {
                if ctx.0.is_empty() {
                    write!(f, "{loc}")
                } else {
                    write!(f, "{loc}{ctx}")
                }
            }
            Name::PreWiden { head, ctx } => {
                let (h, i) = ctx.last().expect("prewiden has own component");
                debug_assert_eq!(h, *head);
                write!(f, "{head}{}·{head}⟨{}⟩", ctx, i + 1)
            }
            Name::Stmt(e) => write!(f, "stmt[{e}]"),
            Name::PreJoin { edge, ctx } => write!(f, "prejoin[{edge}]{ctx}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_push_pop_roundtrip() {
        let c = IterCtx::root().push(Loc(3), 0).push(Loc(7), 2);
        assert_eq!(c.last(), Some((Loc(7), 2)));
        assert_eq!(c.pop(), IterCtx::root().push(Loc(3), 0));
        assert_eq!(c.iter_of(Loc(3)), Some(0));
        assert_eq!(c.iter_of(Loc(9)), None);
    }

    #[test]
    fn has_unrolled_detects_nonzero_iterations() {
        let c = IterCtx::root().push(Loc(3), 0);
        assert!(!c.has_unrolled(Loc(3)));
        let c2 = IterCtx::root().push(Loc(3), 2).push(Loc(5), 0);
        assert!(c2.has_unrolled(Loc(3)));
        assert!(!c2.has_unrolled(Loc(5)));
    }

    #[test]
    fn names_distinguish_iterates_from_fix_cell() {
        let fix = Name::State {
            loc: Loc(3),
            ctx: IterCtx::root(),
        };
        let it0 = Name::State {
            loc: Loc(3),
            ctx: IterCtx::root().push(Loc(3), 0),
        };
        let it1 = Name::State {
            loc: Loc(3),
            ctx: IterCtx::root().push(Loc(3), 1),
        };
        assert_ne!(fix, it0);
        assert_ne!(it0, it1);
    }

    #[test]
    fn display_is_readable() {
        let it1 = Name::State {
            loc: Loc(3),
            ctx: IterCtx::root().push(Loc(3), 1),
        };
        assert_eq!(it1.to_string(), "l3⟨l3:1⟩");
        let exit = Name::State {
            loc: Loc(5),
            ctx: IterCtx::root().push(Loc(3), IterCtx::FIX),
        };
        assert_eq!(exit.to_string(), "l5⟨l3:fix⟩");
        assert_eq!(Name::Stmt(EdgeId(4)).to_string(), "stmt[e4]");
    }

    #[test]
    fn names_order_deterministically() {
        let mut v = vec![
            Name::Stmt(EdgeId(1)),
            Name::State {
                loc: Loc(0),
                ctx: IterCtx::root(),
            },
            Name::Stmt(EdgeId(0)),
        ];
        v.sort();
        let w = v.clone();
        v.sort();
        assert_eq!(v, w);
    }
}
