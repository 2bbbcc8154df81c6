//! DAIG construction: the paper's `Dinit` (Definition A.2) plus the shared
//! loop-region builder reused by demanded unrolling and rollback.
//!
//! The three structural cases of Fig. 7:
//!
//! 1. a forward edge to a non-join location becomes one transfer edge;
//! 2. forward edges into a join location get per-edge pre-join cells and a
//!    single join edge;
//! 3. a back edge becomes the loop structure: iterate cells `ℓ⟨0⟩, ℓ⟨1⟩`,
//!    a pre-widen cell, a widen edge, and a `fix` edge from the two
//!    greatest iterates to the fixed-point cell `ℓ`.
//!
//! The source of a DAIG edge out of location `a` follows the paper's
//! `src-nm`: the fixed-point cell when `a` is a loop head and the edge
//! leaves the loop, the current iterate when the edge stays inside, and
//! the plain state cell otherwise. An edge that leaves loops from a body
//! location (a `return` inside a loop) is a case `src-nm` does not have:
//! it reads `a⟨ℓ: fix⟩`, the state at `a` in each left loop's converged
//! iteration, through an `at_fix` computation (see [`Func::AtFix`]).

use crate::graph::{Daig, Func, Value};
use crate::intern::CellId;
use crate::name::{IterCtx, Name};
use dai_domains::AbstractDomain;
use dai_lang::cfg::{Cfg, Edge};
use dai_lang::Loc;
use dai_memo::FxBuild;
use std::collections::HashMap;

/// Iteration overrides: the current iteration for specific loop heads
/// (heads not present default to 0).
pub type Overrides = HashMap<Loc, u32>;

/// A per-region memo of iteration contexts: building a DAIG region (the
/// whole graph in `Dinit`, one iterate's body in `unroll`) asks for the
/// same location's context once per incident edge, so the region passes
/// share one computed [`IterCtx`] per location instead of re-deriving it.
struct CtxCache<'a> {
    cfg: &'a Cfg,
    overrides: &'a Overrides,
    ctxs: HashMap<Loc, IterCtx, FxBuild>,
}

impl<'a> CtxCache<'a> {
    fn new(cfg: &'a Cfg, overrides: &'a Overrides) -> CtxCache<'a> {
        CtxCache {
            cfg,
            overrides,
            ctxs: HashMap::default(),
        }
    }

    fn ctx(&mut self, loc: Loc) -> &IterCtx {
        self.ctxs
            .entry(loc)
            .or_insert_with(|| iter_ctx(self.cfg, loc, self.overrides))
    }

    fn iteration(&self, head: Loc) -> u32 {
        self.overrides.get(&head).copied().unwrap_or(0)
    }

    /// [`dest_name`] via the cache.
    fn dest(&mut self, loc: Loc) -> Name {
        let i = self.iteration(loc);
        let is_head = self.cfg.is_loop_head(loc);
        let ctx = self.ctx(loc);
        if is_head {
            Name::State {
                loc,
                ctx: ctx.push(loc, i),
            }
        } else {
            Name::State {
                loc,
                ctx: ctx.clone(),
            }
        }
    }

    /// [`src_name`] via the cache.
    fn src(&mut self, a: Loc, b: Loc) -> Name {
        if let Some(exit) = at_fix_name(self.cfg, a, b, self.ctx(a)) {
            return exit;
        }
        if self.cfg.is_loop_head(a) {
            let into_loop = a == b || self.cfg.enclosing_chain(b).contains(&a);
            let i = self.iteration(a);
            let ctx = self.ctx(a);
            if into_loop {
                Name::State {
                    loc: a,
                    ctx: ctx.push(a, i),
                }
            } else {
                Name::State {
                    loc: a,
                    ctx: ctx.clone(),
                }
            }
        } else {
            let ctx = self.ctx(a);
            Name::State {
                loc: a,
                ctx: ctx.clone(),
            }
        }
    }
}

/// The iteration context of the state cell at `loc` (enclosing loops only,
/// not `loc`'s own loop when it is a head).
pub fn iter_ctx(cfg: &Cfg, loc: Loc, overrides: &Overrides) -> IterCtx {
    IterCtx(
        cfg.enclosing_chain(loc)
            .iter()
            .map(|&h| (h, overrides.get(&h).copied().unwrap_or(0)))
            .collect(),
    )
}

/// The name of the state cell at `loc` *as a destination* of dataflow:
/// loop heads receive into their 0th iterate (or the override iteration).
pub fn dest_name(cfg: &Cfg, loc: Loc, overrides: &Overrides) -> Name {
    let ctx = iter_ctx(cfg, loc, overrides);
    if cfg.is_loop_head(loc) {
        let i = overrides.get(&loc).copied().unwrap_or(0);
        Name::State {
            loc,
            ctx: ctx.push(loc, i),
        }
    } else {
        Name::State { loc, ctx }
    }
}

/// The name of the fixed-point cell of head `loc` (its state as read by
/// loop-exit edges).
pub fn fix_name(cfg: &Cfg, loc: Loc, overrides: &Overrides) -> Name {
    Name::State {
        loc,
        ctx: iter_ctx(cfg, loc, overrides),
    }
}

/// The paper's `src-nm(a, b)`: the cell an edge `a → b` reads from —
/// extended by the `a⟨ℓ: fix⟩` case for an edge that leaves loops from a
/// body location (see [`Func::AtFix`]).
pub fn src_name(cfg: &Cfg, a: Loc, b: Loc, overrides: &Overrides) -> Name {
    if let Some(exit) = at_fix_name(cfg, a, b, &iter_ctx(cfg, a, overrides)) {
        return exit;
    }
    if cfg.is_loop_head(a) {
        let ctx = iter_ctx(cfg, a, overrides);
        if a == b || cfg.enclosing_chain(b).contains(&a) {
            // Into the loop body (or the self-loop back edge): read the
            // current iterate.
            let i = overrides.get(&a).copied().unwrap_or(0);
            Name::State {
                loc: a,
                ctx: ctx.push(a, i),
            }
        } else {
            // Exiting the loop: read the fixed point.
            Name::State { loc: a, ctx }
        }
    } else {
        Name::State {
            loc: a,
            ctx: iter_ctx(cfg, a, overrides),
        }
    }
}

/// The source of an edge `a → b` that leaves loops from a body location
/// `a` (not a loop head), given `a`'s context `ctx`: `a` with every left
/// loop's component set to [`IterCtx::FIX`]. `None` for any other edge.
fn at_fix_name(cfg: &Cfg, a: Loc, b: Loc, ctx: &IterCtx) -> Option<Name> {
    if cfg.is_loop_head(a) {
        return None;
    }
    let stays = cfg.enclosing_chain(b);
    if ctx.0.iter().all(|(h, _)| stays.contains(h) || *h == b) {
        return None;
    }
    let ctx = ctx
        .0
        .iter()
        .map(|&(h, i)| {
            let left = !stays.contains(&h) && h != b;
            (h, if left { IterCtx::FIX } else { i })
        })
        .collect();
    Some(Name::State {
        loc: a,
        ctx: IterCtx(ctx),
    })
}

/// The sources of an `a⟨ℓ: fix⟩` cell (see [`Func::AtFix`]): the
/// fixed-point cell of each left loop, outermost first, at iteration 0 of
/// the left loops around it, then `a` at iteration 0 of all of them.
pub(crate) fn at_fix_srcs(exit: &Name) -> Vec<Name> {
    let Name::State { loc, ctx } = exit else {
        unreachable!("an at-fix cell is a state cell")
    };
    let mut srcs = Vec::new();
    let mut sigma = IterCtx::root();
    for &(h, i) in &ctx.0 {
        if i == IterCtx::FIX {
            srcs.push(Name::State {
                loc: h,
                ctx: sigma.clone(),
            });
            sigma = sigma.push(h, 0);
        } else {
            sigma = sigma.push(h, i);
        }
    }
    srcs.push(Name::State {
        loc: *loc,
        ctx: sigma,
    });
    srcs
}

/// Installs the `a⟨ℓ: fix⟩` cell `src` and its `at_fix` computation
/// unless `src` is some other kind of source or already present.
fn ensure_at_fix_cell<D: AbstractDomain>(daig: &mut Daig<D>, src: &Name) {
    let is_exit = src
        .ctx()
        .is_some_and(|c| c.0.iter().any(|&(_, i)| i == IterCtx::FIX));
    if is_exit && !daig.contains(src) {
        daig.add_cell(src.clone(), None);
        daig.add_comp(src.clone(), Func::AtFix, at_fix_srcs(src));
    }
}

/// Adds the reference cells (and head-local computations) for `loc` under
/// the given iteration overrides. For loop heads this installs the initial
/// two-iterate structure of Fig. 7(3).
pub fn add_loc_cells<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    loc: Loc,
    overrides: &Overrides,
) {
    let mut ctxs = CtxCache::new(cfg, overrides);
    add_loc_cells_cached(daig, &mut ctxs, loc);
}

fn add_loc_cells_cached<D: AbstractDomain>(daig: &mut Daig<D>, ctxs: &mut CtxCache<'_>, loc: Loc) {
    let cfg = ctxs.cfg;
    let ctx = ctxs.ctx(loc).clone();
    if cfg.is_loop_head(loc) {
        let fix_cell = Name::State {
            loc,
            ctx: ctx.clone(),
        };
        let it0 = Name::State {
            loc,
            ctx: ctx.push(loc, 0),
        };
        let it1 = Name::State {
            loc,
            ctx: ctx.push(loc, 1),
        };
        let pw0 = Name::PreWiden {
            head: loc,
            ctx: ctx.push(loc, 0),
        };
        daig.add_cell(fix_cell.clone(), None);
        daig.add_cell(it0.clone(), None);
        daig.add_cell(it1.clone(), None);
        daig.add_cell(pw0.clone(), None);
        daig.add_comp(it1.clone(), Func::Widen, vec![it0.clone(), pw0]);
        daig.add_comp(fix_cell, Func::Fix, vec![it0, it1]);
    } else {
        daig.add_cell(Name::State { loc, ctx }, None);
    }
}

/// Adds the statement cell and transfer computation for edge `e` under the
/// given iteration overrides. Statement cells are shared across loop
/// unrollings ("cells containing program syntax are not duplicated").
pub fn add_edge_structure<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    e: &Edge,
    overrides: &Overrides,
) {
    let mut ctxs = CtxCache::new(cfg, overrides);
    add_edge_structure_cached(daig, &mut ctxs, e);
}

fn add_edge_structure_cached<D: AbstractDomain>(
    daig: &mut Daig<D>,
    ctxs: &mut CtxCache<'_>,
    e: &Edge,
) {
    let cfg = ctxs.cfg;
    let stmt_cell = Name::Stmt(e.id);
    if !daig.contains(&stmt_cell) {
        daig.add_cell(stmt_cell.clone(), Some(Value::Stmt(e.stmt.clone())));
    }
    let src = ctxs.src(e.src, e.dst);
    ensure_at_fix_cell(daig, &src);
    if cfg.is_back_edge(e.id) {
        // Back edge: transfer into the pre-widen cell of the head's
        // current iteration.
        let i = ctxs.iteration(e.dst);
        let pw = Name::PreWiden {
            head: e.dst,
            ctx: ctxs.ctx(e.dst).push(e.dst, i),
        };
        if !daig.contains(&pw) {
            daig.add_cell(pw.clone(), None);
        }
        daig.add_comp(pw, Func::Transfer, vec![stmt_cell, src]);
    } else if cfg.is_join(e.dst) {
        let dest_ctx = match ctxs.dest(e.dst) {
            Name::State { ctx, .. } => ctx,
            _ => unreachable!("dest returns a state name"),
        };
        let pj = Name::PreJoin {
            edge: e.id,
            ctx: dest_ctx,
        };
        if !daig.contains(&pj) {
            daig.add_cell(pj.clone(), None);
        }
        daig.add_comp(pj, Func::Transfer, vec![stmt_cell, src]);
    } else {
        let dest = ctxs.dest(e.dst);
        daig.add_comp(dest, Func::Transfer, vec![stmt_cell, src]);
    }
}

/// Adds the join computation for join location `loc` (one `⊔` edge over
/// the per-in-edge pre-join cells, in edge-id order).
pub fn add_join_comp<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    loc: Loc,
    overrides: &Overrides,
) {
    let mut ctxs = CtxCache::new(cfg, overrides);
    add_join_comp_cached(daig, &mut ctxs, loc);
}

fn add_join_comp_cached<D: AbstractDomain>(daig: &mut Daig<D>, ctxs: &mut CtxCache<'_>, loc: Loc) {
    let cfg = ctxs.cfg;
    if !cfg.is_join(loc) {
        return;
    }
    let dest = ctxs.dest(loc);
    let dest_ctx = match &dest {
        Name::State { ctx, .. } => ctx.clone(),
        _ => unreachable!("dest returns a state name"),
    };
    let srcs: Vec<Name> = cfg
        .fwd_in(loc)
        .iter()
        .map(|&e| Name::PreJoin {
            edge: e,
            ctx: dest_ctx.clone(),
        })
        .collect();
    daig.add_comp(dest, Func::Join, srcs);
}

/// The paper's `Dinit`: constructs the initial DAIG for a CFG, seeding the
/// entry cell with `φ₀`.
pub fn initial_daig<D: AbstractDomain>(cfg: &Cfg, phi0: D) -> Daig<D> {
    let mut daig = Daig::new();
    let overrides = Overrides::new();
    let mut ctxs = CtxCache::new(cfg, &overrides);
    let locs = cfg.locs();
    // Id-level `Dinit`: every cell name is constructed and interned
    // exactly once, and computations are wired by [`CellId`] — an edge
    // whose source location feeds several destinations re-uses the
    // interned id instead of re-hashing the name per reference.
    use dai_memo::FxBuild as Fx;
    let mut dest_ids: HashMap<Loc, crate::intern::CellId, Fx> = HashMap::default();
    let mut fix_ids: HashMap<Loc, crate::intern::CellId, Fx> = HashMap::default();
    for &loc in &locs {
        if cfg.is_loop_head(loc) {
            let ctx = ctxs.ctx(loc).clone();
            let fix_cell = Name::State {
                loc,
                ctx: ctx.clone(),
            };
            let it0 = Name::State {
                loc,
                ctx: ctx.push(loc, 0),
            };
            let it1 = Name::State {
                loc,
                ctx: ctx.push(loc, 1),
            };
            let pw0 = Name::PreWiden {
                head: loc,
                ctx: ctx.push(loc, 0),
            };
            let fix_id = daig.add_cell_id(fix_cell, None);
            let it0_id = daig.add_cell_id(it0, None);
            let it1_id = daig.add_cell_id(it1, None);
            let pw0_id = daig.add_cell_id(pw0, None);
            daig.add_comp_ids(it1_id, Func::Widen, vec![it0_id, pw0_id]);
            daig.add_comp_ids(fix_id, Func::Fix, vec![it0_id, it1_id]);
            dest_ids.insert(loc, it0_id);
            fix_ids.insert(loc, fix_id);
        } else {
            let id = daig.add_cell_id(
                Name::State {
                    loc,
                    ctx: ctxs.ctx(loc).clone(),
                },
                None,
            );
            dest_ids.insert(loc, id);
        }
    }
    for e in cfg.edges() {
        let stmt_id = daig.add_cell_id(Name::Stmt(e.id), Some(Value::Stmt(e.stmt.clone())));
        // src-nm: the fixed point when leaving a loop, the iterate inside.
        // This id-level shortcut must agree with the Name-level rule in
        // [`src_name`]/`CtxCache::src` (the unroll path still goes through
        // those); the debug assertion pins the two together.
        let src_id = if let Some(exit) = at_fix_name(cfg, e.src, e.dst, ctxs.ctx(e.src)) {
            ensure_at_fix_cell(&mut daig, &exit);
            daig.id_of(&exit).expect("at-fix cell installed")
        } else if cfg.is_loop_head(e.src)
            && !(e.src == e.dst || cfg.enclosing_chain(e.dst).contains(&e.src))
        {
            fix_ids[&e.src]
        } else {
            dest_ids[&e.src]
        };
        debug_assert_eq!(
            daig.name_of(src_id),
            &src_name(cfg, e.src, e.dst, &overrides),
            "id-level Dinit disagrees with src-nm for edge {}",
            e.id
        );
        if cfg.is_back_edge(e.id) {
            let pw = Name::PreWiden {
                head: e.dst,
                ctx: ctxs.ctx(e.dst).push(e.dst, 0),
            };
            let pw_id = daig.id_of(&pw).expect("head installed its pre-widen cell");
            daig.add_comp_ids(pw_id, Func::Transfer, vec![stmt_id, src_id]);
        } else if cfg.is_join(e.dst) {
            // The pre-join context is the *destination* context of the
            // join — for a join that is also a loop head, that includes
            // its own 0th-iterate component.
            let mut pj_ctx = ctxs.ctx(e.dst).clone();
            if cfg.is_loop_head(e.dst) {
                pj_ctx = pj_ctx.push(e.dst, 0);
            }
            let pj = Name::PreJoin {
                edge: e.id,
                ctx: pj_ctx,
            };
            let pj_id = daig.add_cell_id(pj, None);
            daig.add_comp_ids(pj_id, Func::Transfer, vec![stmt_id, src_id]);
        } else {
            daig.add_comp_ids(dest_ids[&e.dst], Func::Transfer, vec![stmt_id, src_id]);
        }
    }
    for &loc in &locs {
        if cfg.is_join(loc) {
            let mut ctx = ctxs.ctx(loc).clone();
            if cfg.is_loop_head(loc) {
                ctx = ctx.push(loc, 0);
            }
            let srcs: Vec<crate::intern::CellId> = cfg
                .fwd_in(loc)
                .iter()
                .map(|&e| {
                    daig.id_of(&Name::PreJoin {
                        edge: e,
                        ctx: ctx.clone(),
                    })
                    .expect("pre-join cells installed")
                })
                .collect();
            daig.add_comp_ids(dest_ids[&loc], Func::Join, srcs);
        }
    }
    // Seed φ₀ at the entry (the 0th iterate when the entry is a loop head).
    daig.write_id(dest_ids[&cfg.entry()], Value::State(phi0));
    daig
}

/// The name of the `φ₀` seed cell (for entry edits by the interprocedural
/// layer).
pub fn entry_cell_name(cfg: &Cfg) -> Name {
    dest_name(cfg, cfg.entry(), &Overrides::new())
}

/// `Q-Loop-Unroll`: gives the loop instance whose fixed-point cell is `fix`
/// — its fix edge currently reading iterates `k−1` and `k` — one more
/// abstract iteration, block `k` of the instance (see "Loop instances and
/// parked iterations" in [`crate::graph`]).
///
/// *Replayed* when the instance holds a parked block `k`: its cells are
/// revived and its computations moved back by id, in the order they were
/// first installed; no name is built or looked up. *Built* otherwise, from
/// names, exactly once per instance, iteration and loop shape: the
/// iterate `ℓ⟨σ,k+1⟩`, the pre-widen cell and widen edge of iteration `k`,
/// fresh body cells at iteration `k` with nested heads at their initial
/// two-iterate structure, and what was built is recorded as the block.
/// Either way the fix edge slides forward to read iterates `k` and `k+1`.
///
/// Returns the ids of every structurally changed cell — the block plus the
/// re-pointed fix cell, ascending. The evaluator only traces its length;
/// the replay-fidelity tests below compare a replayed unroll's set with
/// the one the first build returned.
///
/// This realizes the paper's `unroll` (§5.2): it is the `incr`-duplication
/// of the region between the two greatest iterates, with stale inner-loop
/// unrollings normalized to their initial form (a strictly smaller,
/// name-equivalent graph).
///
/// # Panics
///
/// Panics if `fix` is not the destination of a fix edge.
pub fn unroll_loop<D: AbstractDomain>(
    daig: &mut Daig<D>,
    cfg: &Cfg,
    fix: CellId,
    k: u32,
) -> Vec<CellId> {
    if let Some(spliced) = daig.replay_block(fix, k) {
        return spliced;
    }
    let (head, sigma, older) = match (daig.name_of(fix), daig.comp_slot(fix)) {
        (Name::State { loc, ctx }, Some(c)) if c.func == Func::Fix => {
            (*loc, ctx.clone(), [c.srcs[0], c.srcs[1]])
        }
        (other, _) => panic!("{other} is not the destination of a fix edge"),
    };
    daig.begin_delta();
    let mut overrides = Overrides::new();
    for (h, i) in &sigma.0 {
        overrides.insert(*h, *i);
    }
    overrides.insert(head, k);
    let mut ctxs = CtxCache::new(cfg, &overrides);

    // New iterate and pre-widen cells; widen edge.
    let it_k1 = daig.add_cell_id(
        Name::State {
            loc: head,
            ctx: sigma.push(head, k + 1),
        },
        None,
    );
    let pw_k = daig.add_cell_id(
        Name::PreWiden {
            head,
            ctx: sigma.push(head, k),
        },
        None,
    );
    daig.add_comp_ids(it_k1, Func::Widen, vec![older[1], pw_k]);

    // Fresh body cells at iteration k (nested heads get their initial
    // structure back).
    let body: Vec<Loc> = cfg
        .natural_loop_ref(head)
        .iter()
        .copied()
        .filter(|&x| x != head)
        .collect();
    for &x in &body {
        add_loc_cells_cached(daig, &mut ctxs, x);
    }
    // Body edges (including the back edge into the new pre-widen cell and
    // inner-loop edges): exactly the in-edges of body locations plus this
    // head's own back edge — processed in ascending id order so the build
    // sequence is deterministic and id-independent.
    let mut region: Vec<dai_lang::EdgeId> = body
        .iter()
        .flat_map(|&x| cfg.in_edges(x).iter().copied())
        .chain(cfg.back_edge(head))
        .collect();
    region.sort_unstable();
    region.dedup();
    for id in region {
        let e = cfg.edge(id).expect("region edges exist");
        add_edge_structure_cached(daig, &mut ctxs, e);
    }
    for &x in &body {
        add_join_comp_cached(daig, &mut ctxs, x);
    }

    // Slide the fix edge forward.
    daig.add_comp_ids(fix, Func::Fix, vec![older[1], it_k1]);
    daig.record_block(fix, k, older)
}

/// `E-Loop`: rolls the loop instance whose fixed-point cell is `fix` back
/// to its initial two-iterate structure. *Removed*, by id: every cell its
/// unrollings created — iterates `≥ 2`, pre-widen cells and body cells of
/// iterations `≥ 1`, and with them whatever the loops nested inside had
/// unrolled — found through the instance's blocks, never by scanning the
/// namespace. *Kept*: iterates 0 and 1 and iteration 0's body (initial
/// structure), the fix edge, reset to read iterates 0 and 1, and the
/// removed blocks themselves, parked for [`unroll_loop`] to replay unless
/// the loop's shape has changed since they were built. A no-op for an
/// instance that has not unrolled.
pub fn rollback_loop<D: AbstractDomain>(daig: &mut Daig<D>, fix: CellId) {
    daig.rollback_instance(fix);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;

    type D = IntervalDomain;

    fn cfg_of(src: &str, name: &str) -> Cfg {
        lower_program(&parse_program(src).unwrap())
            .unwrap()
            .by_name(name)
            .unwrap()
            .clone()
    }

    #[test]
    fn straightline_daig_shape() {
        let cfg = cfg_of("function f() { var x = 1; x = x + 1; return x; }", "f");
        let daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        daig.check_well_formed().unwrap();
        // One state cell per location + one stmt cell per edge.
        assert_eq!(daig.cell_count(), cfg.loc_count() + cfg.edge_count());
        // Entry holds φ₀.
        let entry = entry_cell_name(&cfg);
        assert!(daig.value(&entry).is_some());
    }

    #[test]
    fn join_gets_prejoin_cells() {
        let cfg = cfg_of(
            "function f(x) { if (x > 0) { x = 1; } else { x = 2; } return x; }",
            "f",
        );
        let daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        daig.check_well_formed().unwrap();
        let join = cfg.locs().into_iter().find(|&l| cfg.is_join(l)).unwrap();
        let jn = dest_name(&cfg, join, &Overrides::new());
        let comp = daig.comp(&jn).unwrap();
        assert_eq!(comp.func, Func::Join);
        assert_eq!(comp.srcs.len(), 2);
    }

    #[test]
    fn loop_daig_matches_fig7_case3() {
        let cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        daig.check_well_formed().unwrap();
        let head = cfg.loop_heads()[0];
        let ov = Overrides::new();
        let fix_cell = fix_name(&cfg, head, &ov);
        let comp = daig.comp(&fix_cell).unwrap();
        assert_eq!(comp.func, Func::Fix);
        // Fix reads iterates 0 and 1 initially.
        assert_eq!(
            comp.srcs[0],
            Name::State {
                loc: head,
                ctx: IterCtx::root().push(head, 0)
            }
        );
        assert_eq!(
            comp.srcs[1],
            Name::State {
                loc: head,
                ctx: IterCtx::root().push(head, 1)
            }
        );
        // The widen edge produces iterate 1.
        let it1 = Name::State {
            loc: head,
            ctx: IterCtx::root().push(head, 1),
        };
        assert_eq!(daig.comp(&it1).unwrap().func, Func::Widen);
        // Loop-exit edges read the fixed point.
        let exit_src = src_name(&cfg, head, cfg.exit(), &ov);
        assert_eq!(exit_src, fix_cell);
    }

    #[test]
    fn unroll_slides_fix_edge_like_fig4c() {
        let cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        let head = cfg.loop_heads()[0];
        let sigma = IterCtx::root();
        let before = daig.cell_count();
        let fix = daig
            .id_of(&fix_name(&cfg, head, &Overrides::new()))
            .unwrap();
        unroll_loop(&mut daig, &cfg, fix, 1);
        daig.check_well_formed().unwrap();
        assert!(daig.cell_count() > before);
        let comp = daig
            .comp(&Name::State {
                loc: head,
                ctx: sigma.clone(),
            })
            .unwrap();
        assert_eq!(
            comp.srcs[0],
            Name::State {
                loc: head,
                ctx: sigma.push(head, 1)
            }
        );
        assert_eq!(
            comp.srcs[1],
            Name::State {
                loc: head,
                ctx: sigma.push(head, 2)
            }
        );
        // Statement cells were not duplicated.
        let stmt_cells = daig.names().filter(|n| n.is_stmt()).count();
        assert_eq!(stmt_cells, cfg.edge_count());
    }

    #[test]
    fn rollback_restores_initial_loop_structure() {
        let cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
        );
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        let reference = initial_daig::<D>(&cfg, IntervalDomain::top());
        let head = cfg.loop_heads()[0];
        let sigma = IterCtx::root();
        let fix = daig
            .id_of(&fix_name(&cfg, head, &Overrides::new()))
            .unwrap();
        unroll_loop(&mut daig, &cfg, fix, 1);
        unroll_loop(&mut daig, &cfg, fix, 2);
        rollback_loop(&mut daig, fix);
        daig.check_well_formed().unwrap();
        assert_eq!(daig.cell_count(), reference.cell_count());
        let comp = daig
            .comp(&Name::State {
                loc: head,
                ctx: sigma.clone(),
            })
            .unwrap();
        assert_eq!(
            comp.srcs[0],
            Name::State {
                loc: head,
                ctx: sigma.push(head, 0)
            }
        );
        assert_eq!(
            comp.srcs[1],
            Name::State {
                loc: head,
                ctx: sigma.push(head, 1)
            }
        );
    }

    #[test]
    fn nested_loop_initial_structure() {
        let cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { var j = 0; while (j < i) { j = j + 1; } i = i + 1; } return i; }",
            "f",
        );
        let daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        daig.check_well_formed().unwrap();
        let heads = cfg.loop_heads();
        let (outer, inner) = (heads[0], heads[1]);
        // The inner fix cell lives inside the outer iteration-0 context.
        let inner_fix = Name::State {
            loc: inner,
            ctx: IterCtx::root().push(outer, 0),
        };
        assert_eq!(daig.comp(&inner_fix).unwrap().func, Func::Fix);
    }

    #[test]
    fn unrolling_outer_rebuilds_inner_at_new_iteration() {
        let cfg = cfg_of(
            "function f(n) { var i = 0; while (i < n) { var j = 0; while (j < i) { j = j + 1; } i = i + 1; } return i; }",
            "f",
        );
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        let heads = cfg.loop_heads();
        let (outer, inner) = (heads[0], heads[1]);
        let outer_fix = daig
            .id_of(&fix_name(&cfg, outer, &Overrides::new()))
            .unwrap();
        unroll_loop(&mut daig, &cfg, outer_fix, 1);
        daig.check_well_formed().unwrap();
        // Inner loop structure exists at outer iteration 1.
        let inner_fix1 = Name::State {
            loc: inner,
            ctx: IterCtx::root().push(outer, 1),
        };
        assert_eq!(daig.comp(&inner_fix1).unwrap().func, Func::Fix);
        // And rolling back the outer loop removes it again.
        rollback_loop(&mut daig, outer_fix);
        daig.check_well_formed().unwrap();
        assert!(!daig.contains(&inner_fix1));
    }

    const NESTED: &str = "function f(n) { var i = 0; while (i < n) { var j = 0; while (j < i) { j = j + 1; } i = i + 1; } return i; }";

    /// Every cell's value-less shape: name, function, source names.
    fn shape(daig: &Daig<D>) -> Vec<(Name, Option<crate::graph::Comp>)> {
        let mut cells: Vec<_> = daig.names().map(|n| (n.clone(), daig.comp(n))).collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        cells
    }

    fn lookups() -> u64 {
        crate::intern::LOOKUPS.with(|c| c.get())
    }

    #[test]
    fn inner_parked_inside_a_parked_outer_block_replays_after_the_outer_replays() {
        let cfg = cfg_of(NESTED, "f");
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        let heads = cfg.loop_heads();
        let (outer, inner) = (heads[0], heads[1]);
        let outer_fix = daig
            .id_of(&fix_name(&cfg, outer, &Overrides::new()))
            .unwrap();
        let built_outer = unroll_loop(&mut daig, &cfg, outer_fix, 1);
        let inner_fix = daig
            .id_of(&Name::State {
                loc: inner,
                ctx: IterCtx::root().push(outer, 1),
            })
            .unwrap();
        let built_inner = unroll_loop(&mut daig, &cfg, inner_fix, 1);
        let built_inner2 = unroll_loop(&mut daig, &cfg, inner_fix, 2);
        daig.check_well_formed().unwrap();
        let unrolled = shape(&daig);
        let arena = daig.arena_len();

        // One rollback at the top parks the outer block and, found through
        // it, both blocks of the inner instance at outer iteration 1.
        rollback_loop(&mut daig, outer_fix);
        daig.check_well_formed().unwrap();
        assert!(!daig.contains_id(inner_fix));
        assert_eq!(
            shape(&daig),
            shape(&initial_daig::<D>(&cfg, IntervalDomain::top()))
        );
        assert_eq!(
            (
                daig.unrolled_blocks(outer_fix),
                daig.parked_blocks(outer_fix)
            ),
            (0, 1)
        );
        assert_eq!(
            (
                daig.unrolled_blocks(inner_fix),
                daig.parked_blocks(inner_fix)
            ),
            (0, 2)
        );

        // Replaying the outer block revives the inner head in its initial
        // form; the inner blocks stay parked until they are demanded.
        let before = lookups();
        assert_eq!(unroll_loop(&mut daig, &cfg, outer_fix, 1), built_outer);
        assert_eq!(lookups(), before, "a replay looks no name up");
        daig.check_well_formed().unwrap();
        assert!(daig.contains_id(inner_fix));
        assert_eq!(
            (
                daig.unrolled_blocks(inner_fix),
                daig.parked_blocks(inner_fix)
            ),
            (0, 2)
        );
        let before = lookups();
        assert_eq!(unroll_loop(&mut daig, &cfg, inner_fix, 1), built_inner);
        assert_eq!(unroll_loop(&mut daig, &cfg, inner_fix, 2), built_inner2);
        assert_eq!(lookups(), before, "a replay looks no name up");
        daig.check_well_formed().unwrap();
        assert_eq!(shape(&daig), unrolled, "replay rebuilt the same graph");
        assert_eq!(daig.arena_len(), arena);
    }

    #[test]
    fn steady_state_rounds_stay_within_the_id_budget() {
        // Fifty relabel → query rounds on the four-deep nest. After the
        // first, every unroll is a replay and every rollback goes through
        // the table: the arena does not grow, no name is looked up, and a
        // rollback visits exactly the cells it removes.
        use crate::edit::dirty_from_ids;
        use crate::query::{evaluate, IntraResolver, QueryStats};
        let cfg = cfg_of(
            include_str!("../../../tests/fixtures/loop_nest4.dai"),
            "nest0",
        );
        let mut daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        daig.set_strategy(crate::strategy::FixStrategy::delayed(2));
        let exit = daig
            .id_of(&dest_name(&cfg, cfg.exit(), &Overrides::new()))
            .unwrap();
        let innermost = cfg
            .edges()
            .find(|e| e.stmt.to_string() == "v3 = (v3 + 1)")
            .unwrap();
        let stmt_cell = daig.id_of(&Name::Stmt(innermost.id)).unwrap();
        let stmts = [
            dai_lang::parse_block("v3 = v3 + 2;").unwrap(),
            dai_lang::parse_block("v3 = v3 + 1;").unwrap(),
        ]
        .map(|b| match &b.0[0] {
            dai_lang::ast::AstStmt::Simple(s) => s.clone(),
            other => panic!("not simple: {other:?}"),
        });
        let mut memo = dai_memo::MemoTable::new();
        let mut stats = QueryStats::default();
        let mut budget = None;
        for round in 0..50 {
            let (cells, visits) = (
                daig.cell_count(),
                crate::graph::ROLLBACK_VISITS.with(|v| v.get()),
            );
            let readers = daig.dependents_ids(stmt_cell).to_vec();
            dirty_from_ids(&mut daig, readers);
            assert_eq!(
                crate::graph::ROLLBACK_VISITS.with(|v| v.get()) - visits,
                (cells - daig.cell_count()) as u64,
                "round {round}: rollback looked at a cell it did not remove"
            );
            daig.write_id(stmt_cell, Value::Stmt(stmts[round % 2].clone()));
            evaluate(
                &mut daig,
                &cfg,
                None,
                &[exit],
                &mut memo,
                &mut IntraResolver,
                &mut stats,
                None,
            )
            .unwrap();
            let (arena, looked_up) = *budget.get_or_insert((daig.arena_len(), lookups()));
            assert_eq!(daig.arena_len(), arena, "round {round}: arena grew");
            assert_eq!(lookups(), looked_up, "round {round}: a name was looked up");
        }
        assert!(stats.unrolls > 50 * 15, "every round re-unrolls the nest");
        daig.check_well_formed().unwrap();
    }

    #[test]
    fn self_loop_back_edge_reads_iterate() {
        let cfg = cfg_of("function f(b) { while (b == 0) { } return b; }", "f");
        let daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        daig.check_well_formed().unwrap();
        let head = cfg.loop_heads()[0];
        let pw = Name::PreWiden {
            head,
            ctx: IterCtx::root().push(head, 0),
        };
        let comp = daig.comp(&pw).unwrap();
        assert_eq!(comp.func, Func::Transfer);
        assert_eq!(
            comp.srcs[1],
            Name::State {
                loc: head,
                ctx: IterCtx::root().push(head, 0)
            }
        );
    }

    #[test]
    fn entry_as_loop_head_seeds_iterate_zero() {
        let cfg = cfg_of(
            "function f(n) { while (n > 0) { n = n - 1; } return n; }",
            "f",
        );
        let daig = initial_daig::<D>(&cfg, IntervalDomain::top());
        daig.check_well_formed().unwrap();
        let entry = cfg.entry();
        assert!(cfg.is_loop_head(entry));
        let it0 = Name::State {
            loc: entry,
            ctx: IterCtx::root().push(entry, 0),
        };
        assert!(daig.value(&it0).is_some());
    }
}
