//! Structured program edits over live CFGs.
//!
//! The paper's incremental story (§2.2, §5.3) needs three kinds of edit:
//!
//! * **relabel** — replace the statement on an edge in place (the formal
//!   `D ⊢ n ⇐ s` judgment edits a statement cell);
//! * **delete** — a relabel to `skip` (Lemma B.2's deletion convention);
//! * **insert** — splice a structured block onto an edge: the block's
//!   statements execute *before* the edge's statement. This models §7.3's
//!   workload ("insertion of a randomly generated statement, if-then-else
//!   conditional, or while loop at a randomly-sampled program location").
//!
//! A splice keeps the original edge's identity and statement but moves its
//! source to the end of the inserted chain — exactly the paper's Fig. 4b,
//! where inserting `print("p is null")` before `ret = q` leaves the
//! statement cell for `ret = q` intact (renamed `ℓ7·ℓret`) and dirties only
//! the downstream abstract states.
//!
//! # Atomicity
//!
//! Every entry point either applies its edit or returns `Err` having
//! changed nothing, because every check runs before the first mutation:
//!
//! * [`relabel_edge`] / [`delete_edge_stmt`] — the edge exists;
//! * [`splice_block_on_edge`] — the edge exists and the block falls
//!   through, decided on the AST by the recursion lowering performs;
//! * [`crate::cfg::LoweredProgram::relabel`] /
//!   [`crate::cfg::LoweredProgram::splice`] — the function exists, the
//!   above, every callee the edit would lower is defined, and none of them
//!   reaches the edited function (no recursion). Only then do they edit the
//!   CFG and, when a call went or came, rescan the function's call sites.
//!
//! The functions of this module know one CFG, not the call graph: a caller
//! editing through [`crate::cfg::LoweredProgram::by_name_mut`] owes a
//! [`crate::cfg::LoweredProgram::refresh_call_graph`], whose error leaves
//! the CFGs edited and the index at the last good program.

use crate::ast::{Block, Stmt};
use crate::cfg::{falls_through, Cfg, CfgError, EdgeId, Loc, Lowerer};

/// Description of the structural effect of a splice, consumed by the DAIG
/// layer to patch its graph incrementally.
#[derive(Debug, Clone)]
pub struct SpliceInfo {
    /// The pre-existing edge whose source was moved.
    pub edge: EdgeId,
    /// The edge's source before the splice.
    pub old_src: Loc,
    /// The edge's source after the splice (end of the inserted chain).
    pub new_src: Loc,
    /// The edge's (unchanged) destination.
    pub dst: Loc,
    /// Locations created by the splice, ascending.
    pub new_locs: Vec<Loc>,
    /// Edges created by the splice, ascending.
    pub new_edges: Vec<EdgeId>,
    /// Locations the splice made loop heads, ascending: `old_src` when a
    /// leading `while` promoted it, then the heads among `new_locs`.
    pub new_loop_heads: Vec<Loc>,
}

/// Replaces the statement labelling `edge`, returning the old statement.
///
/// # Errors
///
/// Returns [`CfgError::NoSuchEdge`] if the edge does not exist.
pub fn relabel_edge(cfg: &mut Cfg, edge: EdgeId, stmt: Stmt) -> Result<Stmt, CfgError> {
    cfg.replace_edge_stmt_internal(edge, stmt)
        .ok_or(CfgError::NoSuchEdge(edge))
}

/// Deletes the statement on `edge` by relabelling it `skip` (the paper's
/// deletion convention), returning the old statement.
///
/// # Errors
///
/// Returns [`CfgError::NoSuchEdge`] if the edge does not exist.
pub fn delete_edge_stmt(cfg: &mut Cfg, edge: EdgeId) -> Result<Stmt, CfgError> {
    relabel_edge(cfg, edge, Stmt::Skip)
}

/// Splices `block` onto `edge`: the block's statements run after the
/// edge's source location and before the edge's statement.
///
/// Returns a [`SpliceInfo`] describing the created structure, read off the
/// location and edge counters (a splice creates exactly the ids from their
/// values on entry); the CFG is left validated in debug builds.
///
/// # Errors
///
/// * [`CfgError::NoSuchEdge`] if `edge` does not exist.
/// * [`CfgError::BlockNeverFallsThrough`] if every path through `block`
///   returns, which would orphan the insertion point.
///
/// The CFG is unchanged on error.
pub fn splice_block_on_edge(
    cfg: &mut Cfg,
    edge: EdgeId,
    block: &Block,
) -> Result<SpliceInfo, CfgError> {
    let e = cfg.edge(edge).ok_or(CfgError::NoSuchEdge(edge))?;
    let (old_src, dst) = (e.src, e.dst);
    if !falls_through(block, &mut Vec::new()) {
        return Err(CfgError::BlockNeverFallsThrough);
    }

    // Iteration context for the new locations: the loops containing both
    // endpoints (the chains are nested, so this is the shorter common
    // prefix).
    let src_chain = cfg.loops_containing(old_src);
    let dst_chain = cfg.loops_containing(dst);
    let ctx: Vec<Loc> = src_chain
        .iter()
        .zip(&dst_chain)
        .take_while(|(a, b)| a == b)
        .map(|(a, _)| *a)
        .collect();

    let (first_loc, first_edge) = cfg.id_marks();
    let was_head = cfg.is_loop_head(old_src);
    let new_src = Lowerer { cfg }
        .lower_block(block, old_src, &ctx)
        .expect("a block that falls through lowers to a fall-through location");
    if new_src != old_src {
        cfg.move_edge_src_internal(edge, new_src);
    }
    let promoted = (!was_head && cfg.is_loop_head(old_src)).then_some(old_src);
    let new_locs: Vec<Loc> = cfg.live_locs_from(first_loc).collect();
    cfg.patch_derived(&new_locs, first_edge, edge, promoted);
    debug_assert_eq!(cfg.validate(), Ok(()));

    let new_loop_heads = promoted
        .into_iter()
        .chain(new_locs.iter().copied().filter(|&l| cfg.is_loop_head(l)))
        .collect();
    Ok(SpliceInfo {
        edge,
        old_src,
        new_src,
        dst,
        new_locs,
        new_edges: (first_edge..cfg.id_marks().1).map(EdgeId).collect(),
        new_loop_heads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::lower_program;
    use crate::parser::{parse_block, parse_program};

    fn cfg_of(src: &str, name: &str) -> Cfg {
        lower_program(&parse_program(src).unwrap())
            .unwrap()
            .by_name(name)
            .unwrap()
            .clone()
    }

    #[test]
    fn relabel_preserves_structure() {
        let mut cfg = cfg_of("function f() { var x = 1; return x; }", "f");
        let edge = cfg.edges().next().unwrap().id;
        let old =
            relabel_edge(&mut cfg, edge, parse_block("x = 2;").unwrap().0[0].simple()).unwrap();
        assert_eq!(old.to_string(), "x = 1");
        assert_eq!(cfg.edge(edge).unwrap().stmt.to_string(), "x = 2");
        cfg.validate().unwrap();
    }

    #[test]
    fn delete_relabels_to_skip() {
        let mut cfg = cfg_of("function f() { var x = 1; return x; }", "f");
        let edge = cfg.edges().next().unwrap().id;
        delete_edge_stmt(&mut cfg, edge).unwrap();
        assert_eq!(cfg.edge(edge).unwrap().stmt, Stmt::Skip);
    }

    #[test]
    fn splice_statement_moves_edge_source_like_fig4b() {
        // Mirror Fig. 4b: insert a print before `return q`.
        let mut cfg = cfg_of(
            "function append(p, q) { if (p == null) { return q; } return p; }",
            "append",
        );
        let ret_q = cfg
            .edges()
            .find(|e| e.stmt.to_string().contains("= q"))
            .unwrap()
            .id;
        let before_dst = cfg.edge(ret_q).unwrap().dst;
        let info =
            splice_block_on_edge(&mut cfg, ret_q, &parse_block("print(0);").unwrap()).unwrap();
        assert_eq!(info.new_locs.len(), 1);
        assert_eq!(info.new_edges.len(), 1);
        let e = cfg.edge(ret_q).unwrap();
        assert_eq!(e.src, info.new_src);
        assert_eq!(e.dst, before_dst);
        assert!(e.stmt.to_string().contains("= q"));
        cfg.validate().unwrap();
    }

    #[test]
    fn splice_inside_loop_keeps_single_back_edge() {
        let mut cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let head = cfg.loop_heads()[0];
        let back = cfg.back_edge(head).unwrap();
        let info =
            splice_block_on_edge(&mut cfg, back, &parse_block("print(i);").unwrap()).unwrap();
        cfg.validate().unwrap();
        assert_eq!(cfg.back_edge(head), Some(back));
        // The new location is inside the loop.
        assert_eq!(cfg.enclosing_loops(info.new_locs[0]), vec![head]);
    }

    #[test]
    fn splice_while_creates_nested_loop() {
        let mut cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let head = cfg.loop_heads()[0];
        let back = cfg.back_edge(head).unwrap();
        let info = splice_block_on_edge(
            &mut cfg,
            back,
            &parse_block("var j = 0; while (j < 2) { j = j + 1; }").unwrap(),
        )
        .unwrap();
        cfg.validate().unwrap();
        assert_eq!(info.new_loop_heads.len(), 1);
        let inner = info.new_loop_heads[0];
        assert_eq!(cfg.enclosing_loops(inner), vec![head]);
    }

    #[test]
    fn splice_if_creates_join() {
        let mut cfg = cfg_of("function f() { var x = 1; return x; }", "f");
        let edge = cfg
            .edges()
            .find(|e| e.stmt.to_string() == "x = 1")
            .unwrap()
            .id;
        let joins_before = cfg.locs().iter().filter(|&&l| cfg.is_join(l)).count();
        splice_block_on_edge(
            &mut cfg,
            edge,
            &parse_block("if (x > 0) { x = 2; } else { x = 3; }").unwrap(),
        )
        .unwrap();
        cfg.validate().unwrap();
        let joins_after = cfg.locs().iter().filter(|&&l| cfg.is_join(l)).count();
        assert_eq!(joins_after, joins_before + 1);
    }

    #[test]
    fn splice_empty_block_is_identity() {
        let mut cfg = cfg_of("function f() { var x = 1; return x; }", "f");
        let edge = cfg.edges().next().unwrap().id;
        let info = splice_block_on_edge(&mut cfg, edge, &Block::new()).unwrap();
        assert!(info.new_locs.is_empty());
        assert_eq!(info.new_src, info.old_src);
        cfg.validate().unwrap();
    }

    #[test]
    fn splice_on_self_loop_back_edge() {
        let mut cfg = cfg_of("function f(b) { while (b == 0) { } return b; }", "f");
        let head = cfg.loop_heads()[0];
        let back = cfg.back_edge(head).unwrap();
        splice_block_on_edge(&mut cfg, back, &parse_block("print(b);").unwrap()).unwrap();
        cfg.validate().unwrap();
        // Still exactly one back edge; the assume now routes through the
        // inserted location.
        assert!(cfg.back_edge(head).is_some());
    }

    #[test]
    fn splice_missing_edge_errors() {
        let mut cfg = cfg_of("function f() { return 0; }", "f");
        let err = splice_block_on_edge(&mut cfg, EdgeId(999), &Block::new()).unwrap_err();
        assert!(matches!(err, CfgError::NoSuchEdge(_)));
    }

    #[test]
    fn splice_while_onto_either_out_edge_of_a_head_gives_it_its_own_head() {
        for nth in 0..2 {
            let mut cfg = cfg_of(
                "function f() { var i = 0; var n = 0; while (i < 10) { i = i + 1; } return n; }",
                "f",
            );
            let head = cfg.loop_heads()[0];
            let edge = cfg.out_edges(head)[nth];
            let info = splice_block_on_edge(
                &mut cfg,
                edge,
                &parse_block("while (n < 3) { n = n + 1; }").unwrap(),
            )
            .unwrap();
            cfg.validate().unwrap();
            assert_eq!(info.new_loop_heads.len(), 1, "out-edge {nth}");
            assert!(info.new_locs.contains(&info.new_loop_heads[0]));
            for h in cfg.loop_heads() {
                let backs = cfg.in_edges(h).iter().filter(|&&e| cfg.is_back_edge(e));
                assert_eq!(backs.count(), 1, "out-edge {nth}, head {h}");
            }
            // The body-entry edge is inside the old loop, the exit edge not.
            let inside = cfg.enclosing_loops(info.new_loop_heads[0]);
            assert_eq!(inside, if nth == 0 { vec![head] } else { vec![] });
        }
    }

    #[test]
    fn rejected_splice_leaves_the_cfg_untouched() {
        let mut cfg = cfg_of("function f() { var x = 1; x = x + 1; return x; }", "f");
        let before = crate::pretty::cfg_to_string(&cfg);
        let second = cfg.edges().nth(1).unwrap().id;
        for block in [
            "x = 1; return x;",
            "if (x > 0) { return 1; } else { return 2; }",
        ] {
            let err = splice_block_on_edge(&mut cfg, second, &parse_block(block).unwrap());
            assert_eq!(err.unwrap_err(), CfgError::BlockNeverFallsThrough);
            assert_eq!(crate::pretty::cfg_to_string(&cfg), before);
            assert_eq!((cfg.loc_count(), cfg.edge_count()), (4, 3));
            cfg.validate().unwrap();
        }
        // A return in one arm only still falls through, and what sits
        // behind a return is never lowered.
        let block = parse_block("if (x > 0) { return 1; x = 5; }").unwrap();
        let info = splice_block_on_edge(&mut cfg, second, &block).unwrap();
        assert_eq!(info.new_edges.len(), 3);
        cfg.validate().unwrap();
    }

    /// A function of about `edges` edges: straight-line code around a
    /// two-deep loop nest, lowered in one go.
    fn grown(edges: usize) -> Cfg {
        let filler = "x = x + 1; ".repeat(edges.saturating_sub(12) / 2);
        cfg_of(
            &format!(
                "function f(n) {{ var x = 0; {filler} var i = 0; \
                 while (i < n) {{ var j = 0; while (j < i) {{ j = j + 1; }} i = i + 1; }} \
                 {filler} return x; }}"
            ),
            "f",
        )
    }

    fn counters() -> (u64, u64) {
        use crate::cfg::{DERIVATIONS, PATCH_VISITS};
        (
            DERIVATIONS.with(|n| n.get()),
            PATCH_VISITS.with(|n| n.get()),
        )
    }

    #[test]
    fn a_splice_costs_what_it_changes_not_what_it_is_applied_to() {
        let block = parse_block("x = x + 2;").unwrap();
        let mut visits = Vec::new();
        for size in [50, 500, 5000] {
            let mut cfg = grown(size);
            assert!(cfg.edge_count().abs_diff(size) <= size / 10, "{size}");
            let last = cfg.edges().last().unwrap().id;
            let (derived, patched) = counters();
            let info = splice_block_on_edge(&mut cfg, last, &block).unwrap();
            let (derived_after, patched_after) = counters();
            assert_eq!(
                derived_after - derived,
                0,
                "{size}: no whole-graph derivation"
            );
            visits.push(patched_after - patched);
            assert_eq!((info.new_locs.len(), info.new_edges.len()), (1, 1));
        }
        // One new edge, the moved edge, and their two destinations.
        assert_eq!(visits, [4, 4, 4]);
    }

    #[test]
    fn splices_in_a_row_derive_the_structure_at_most_once() {
        let (derived, _) = counters();
        let mut cfg = grown(50);
        let blocks = [
            "x = x + 2;",
            "if (x > 3) { x = 0; } else { x = 1; }",
            "var k = 0; while (k < 4) { k = k + 1; }",
            "while (x < 9) { x = x + 1; }",
        ]
        .map(|b| parse_block(b).unwrap());
        for step in 0..200 {
            let edges: Vec<EdgeId> = cfg.edges().map(|e| e.id).collect();
            let edge = edges[(step * 7919) % edges.len()];
            splice_block_on_edge(&mut cfg, edge, &blocks[step % blocks.len()]).unwrap();
        }
        cfg.validate().unwrap();
        assert!(counters().0 - derived <= 1);
    }

    impl crate::ast::AstStmt {
        fn simple(&self) -> Stmt {
            match self {
                crate::ast::AstStmt::Simple(s) => s.clone(),
                other => panic!("not a simple statement: {other:?}"),
            }
        }
    }
}
