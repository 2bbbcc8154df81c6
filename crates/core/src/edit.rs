//! Incremental edit semantics (paper Fig. 9): eager forward dirtying with
//! fix-edge rollback.
//!
//! * `E-Commit` — a value may be written once everything downstream is
//!   empty; the functions here establish that premise by dirtying first.
//! * `E-Propagate` — dirtying clears a cell and recursively empties its
//!   (transitive) dependents. Because AI-consistency guarantees non-empty
//!   cells have non-empty inputs, propagation can prune at cells that are
//!   already empty.
//! * `E-Loop` — when the wave reaches the destination of a `fix` edge
//!   whose loop instance is unrolled, the unrolled iterations are
//!   discarded and the fix edge rolls back to the 0th and 1st iterates
//!   ([`crate::build::rollback_loop`]). It fires on unrolled instances
//!   *filled or not*: a query that failed inside a loop leaves it unrolled
//!   around an empty fixed-point cell, and iterations `≥ 1` that outlived
//!   the wave would miss whatever a later splice adds to the body (splices
//!   build at iteration 0 only).

use crate::build::rollback_loop;
use crate::graph::{Daig, Func, Value};
use crate::intern::CellId;
use crate::name::Name;
use dai_domains::AbstractDomain;

/// Dirties (empties) the cells named in `seeds` and everything forward-
/// reachable from them, rolling back loops whose fixed points are
/// invalidated. Cells that are already empty stop propagation.
pub fn dirty_from<D: AbstractDomain>(daig: &mut Daig<D>, seeds: Vec<Name>) {
    let work: Vec<CellId> = seeds.iter().filter_map(|n| daig.id_of(n)).collect();
    dirty_from_ids(daig, work);
}

/// Id-level [`dirty_from`]: the E-Propagate wave as an integer traversal
/// over the graph's flat reverse adjacency.
pub fn dirty_from_ids<D: AbstractDomain>(daig: &mut Daig<D>, mut work: Vec<CellId>) {
    while let Some(x) = work.pop() {
        if !daig.contains_id(x) {
            continue; // removed by a rollback
        }
        let was_filled = daig.clear_id(x).is_some();
        // E-Loop: reaching the fixed-point cell of an unrolled instance
        // rolls its loop back, whether or not the cell held a value.
        if daig.comp_func(x) == Some(Func::Fix) && daig.unrolled_blocks(x) > 0 {
            rollback_loop(daig, x);
        }
        if !was_filled {
            continue; // already empty: dependents are empty too
        }
        work.extend_from_slice(daig.dependents_ids(x));
    }
}

/// Dirties everything that depends on `n` without clearing `n` itself
/// (used when `n` is about to receive a new value, e.g. a statement edit).
pub fn dirty_dependents<D: AbstractDomain>(daig: &mut Daig<D>, n: &Name) {
    let Some(id) = daig.id_of(n) else { return };
    let deps = daig.dependents_ids(id).to_vec();
    dirty_from_ids(daig, deps);
}

/// Writes `v` into `n` after dirtying its dependents — the combination of
/// `E-Propagate` and `E-Commit` for an external edit.
pub fn write_with_invalidation<D: AbstractDomain>(daig: &mut Daig<D>, n: &Name, v: Value<D>) {
    dirty_dependents(daig, n);
    daig.write(n, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{dest_name, initial_daig, Overrides};
    use crate::name::IterCtx;
    use crate::query::{evaluate, IntraResolver, QueryStats};
    use dai_domains::{AbstractDomain, IntervalDomain};
    use dai_lang::cfg::{lower_program, Cfg};
    use dai_lang::parser::parse_program;
    use dai_lang::{Loc, Stmt};
    use dai_memo::MemoTable;

    type D = IntervalDomain;

    fn cfg_of(src: &str) -> Cfg {
        lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone()
    }

    fn fully_evaluate(cfg: &Cfg, daig: &mut crate::graph::Daig<D>) {
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        crate::query::evaluate_all(daig, cfg, None, &mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
    }

    #[test]
    fn dirty_propagates_forward_only() {
        let cfg = cfg_of("function f() { var x = 1; x = x + 1; return x; }");
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        fully_evaluate(&cfg, &mut daig);
        // Dirty the middle state: downstream cells empty, upstream intact.
        let locs = cfg.locs();
        let mid = dest_name(&cfg, locs[2], &Overrides::new());
        dirty_from(&mut daig, vec![mid.clone()]);
        assert!(daig.value(&mid).is_none());
        let entry = dest_name(&cfg, cfg.entry(), &Overrides::new());
        assert!(daig.value(&entry).is_some());
        let exit = dest_name(&cfg, cfg.exit(), &Overrides::new());
        assert!(daig.value(&exit).is_none());
    }

    #[test]
    fn dirty_fix_dest_rolls_back_loop() {
        let cfg = cfg_of("function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        fully_evaluate(&cfg, &mut daig);
        let head = cfg.loop_heads()[0];
        let fix_cell = Name::State {
            loc: head,
            ctx: IterCtx::root(),
        };
        // The interval loop needs > 1 unrolling, so iterate 2 exists.
        let it2 = Name::State {
            loc: head,
            ctx: IterCtx::root().push(head, 2),
        };
        assert!(daig.contains(&it2));
        dirty_from(&mut daig, vec![fix_cell.clone()]);
        assert!(
            !daig.contains(&it2),
            "rollback must remove unrolled iterates"
        );
        let comp = daig.comp(&fix_cell).unwrap();
        assert_eq!(
            comp.srcs[1],
            Name::State {
                loc: head,
                ctx: IterCtx::root().push(head, 1)
            }
        );
        daig.check_well_formed().unwrap();
    }

    #[test]
    fn statement_edit_dirties_all_iterations() {
        let cfg = cfg_of("function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }");
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        fully_evaluate(&cfg, &mut daig);
        let head = cfg.loop_heads()[0];
        let back = cfg.back_edge(head).unwrap();
        write_with_invalidation(
            &mut daig,
            &Name::Stmt(back),
            Value::Stmt(Stmt::Assign(
                "i".into(),
                dai_lang::parse_expr("i + 2").unwrap(),
            )),
        );
        daig.check_well_formed().unwrap();
        // The exit is dirty; the entry is not.
        let exit = dest_name(&cfg, cfg.exit(), &Overrides::new());
        assert!(daig.value(&exit).is_none());
        let entry = dest_name(&cfg, cfg.entry(), &Overrides::new());
        assert!(daig.value(&entry).is_some());
        // Re-evaluation succeeds and reflects the new statement.
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        let exit_id = daig.id_of(&exit).unwrap();
        evaluate(
            &mut daig,
            &cfg,
            None,
            &[exit_id],
            &mut memo,
            &mut IntraResolver,
            &mut stats,
            None,
        )
        .unwrap();
        let state = daig.value_id(exit_id).unwrap().as_state().unwrap().clone();
        assert!(!state.is_bottom());
    }

    #[test]
    fn dirtying_preserves_unaffected_loop() {
        // Two sequential loops; editing after the first must not disturb it.
        let cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { i = i + 1; } var j = 0; while (j < n) { j = j + 1; } return j; }",
        );
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        fully_evaluate(&cfg, &mut daig);
        let heads = cfg.loop_heads();
        let (first, second) = (heads[0], heads[1]);
        // Find the `var j = 0` edge (between the loops).
        let j_edge = cfg
            .edges()
            .find(|e| e.stmt.to_string() == "j = 0")
            .unwrap()
            .id;
        write_with_invalidation(
            &mut daig,
            &Name::Stmt(j_edge),
            Value::Stmt(Stmt::Assign("j".into(), dai_lang::parse_expr("5").unwrap())),
        );
        // First loop fixed point survives; second is dirtied and rolled
        // back.
        let fix1 = Name::State {
            loc: first,
            ctx: IterCtx::root(),
        };
        assert!(daig.value(&fix1).is_some());
        let fix2 = Name::State {
            loc: second,
            ctx: IterCtx::root(),
        };
        assert!(daig.value(&fix2).is_none());
        daig.check_well_formed().unwrap();
    }

    #[test]
    fn dirty_missing_or_empty_is_noop() {
        let cfg = cfg_of("function f() { var x = 1; return x; }");
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        // Nothing evaluated: dirtying is harmless.
        dirty_from(
            &mut daig,
            vec![Name::State {
                loc: Loc(999),
                ctx: IterCtx::root(),
            }],
        );
        let exit = dest_name(&cfg, cfg.exit(), &Overrides::new());
        dirty_from(&mut daig, vec![exit]);
        daig.check_well_formed().unwrap();
    }
}
