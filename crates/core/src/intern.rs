//! Name interning: dense [`CellId`]s for DAIG reference cells.
//!
//! [`Name`]s are symbolic and self-describing — good for the public API,
//! the edit layer, and DOT export — but expensive as map keys: an
//! [`crate::name::IterCtx`] heap-allocates, and every lookup re-hashes the
//! whole context vector. The [`NameInterner`] assigns each distinct `Name`
//! a dense [`CellId`] exactly once (at graph construction or unroll time);
//! everything inside [`crate::graph::Daig`] — cell slots, computation
//! sources, reverse adjacency — is indexed by `CellId`, so the hot query
//! and scheduling paths touch `u32`s instead of symbolic names.
//!
//! Interning is **append-only**: a `CellId`, once assigned, names the same
//! `Name` for the lifetime of the graph, even if the cell is removed (a
//! loop rollback) and later re-created (a re-unroll reuses the id). This
//! stability is what lets state keyed by `CellId` (the explain sink's
//! finish times, the engine's resolution cache) survive structural edits;
//! only the slot's *live* flag changes.

use crate::name::Name;
use dai_memo::FxBuild;
use std::collections::HashMap;
use std::fmt;

/// A dense index identifying an interned [`Name`] within one DAIG.
///
/// Ids are only meaningful relative to the interner (graph) that produced
/// them; they are assigned contiguously from 0, so `Vec`s indexed by
/// `CellId` waste no space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A bijection between the [`Name`]s a DAIG has ever seen and dense
/// [`CellId`]s.
#[derive(Debug, Clone, Default)]
pub struct NameInterner {
    ids: HashMap<Name, CellId, FxBuild>,
    names: Vec<Name>,
}

#[cfg(test)]
thread_local! {
    /// Hash lookups made by this thread's interners: `build`'s tests hold
    /// the replayed unroll and the rollback to zero of them.
    pub(crate) static LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl NameInterner {
    /// An empty interner.
    pub fn new() -> NameInterner {
        NameInterner::default()
    }

    /// The id for `n`, assigning a fresh one on first sight. `n` is cloned
    /// only when it is new.
    pub fn intern(&mut self, n: &Name) -> CellId {
        if let Some(id) = self.get(n) {
            return id;
        }
        self.insert_new(n.clone())
    }

    /// Owned-name interning: moves `n` into the table on first sight, so
    /// callers that already hold an owned name pay one clone (the lookup
    /// key) instead of two.
    pub fn intern_owned(&mut self, n: Name) -> CellId {
        if let Some(id) = self.get(&n) {
            return id;
        }
        self.insert_new(n)
    }

    fn insert_new(&mut self, n: Name) -> CellId {
        let id = CellId(u32::try_from(self.names.len()).expect("cell arena exceeds u32"));
        self.ids.insert(n.clone(), id);
        self.names.push(n);
        id
    }

    /// The id for `n`, if it has ever been interned.
    #[inline]
    pub fn get(&self, n: &Name) -> Option<CellId> {
        #[cfg(test)]
        LOOKUPS.with(|c| c.set(c.get() + 1));
        self.ids.get(n).copied()
    }

    /// The name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    #[inline]
    pub fn name(&self, id: CellId) -> &Name {
        &self.names[id.idx()]
    }

    /// Number of distinct names ever interned — the exclusive upper bound
    /// on assigned ids, hence the length dense side tables must have.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::IterCtx;
    use dai_lang::Loc;

    fn state(l: u32, it: Option<(u32, u32)>) -> Name {
        let ctx = match it {
            Some((h, i)) => IterCtx::root().push(Loc(h), i),
            None => IterCtx::root(),
        };
        Name::State { loc: Loc(l), ctx }
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut i = NameInterner::new();
        let a = i.intern(&state(0, None));
        let b = i.intern(&state(1, None));
        let a2 = i.intern(&state(0, None));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.idx(), 0);
        assert_eq!(b.idx(), 1);
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(a), &state(0, None));
        assert_eq!(i.get(&state(1, None)), Some(b));
        assert_eq!(i.get(&state(2, None)), None);
    }

    #[test]
    fn iterate_contexts_intern_distinctly() {
        let mut i = NameInterner::new();
        let fix = i.intern(&state(3, None));
        let it0 = i.intern(&state(3, Some((3, 0))));
        let it1 = i.intern(&state(3, Some((3, 1))));
        assert!(fix != it0 && it0 != it1 && fix != it1);
        assert_eq!(i.len(), 3);
    }
}
