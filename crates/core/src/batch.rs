//! A reference batch abstract interpreter (classical whole-program
//! analysis), used as the paper's "Batch" configuration (§7.3) and as the
//! independent oracle for from-scratch consistency (Theorem 6.1).
//!
//! The engine evaluates the CFG with a Bourdoncle-style recursive strategy
//! that applies *exactly* the operator schedule the DAIG encodes: loop
//! iterates are `it_{k+1} = ∇(it_k, ⟦back⟧♯(body(it_k)))` with inner loops
//! fully converged per outer iteration, joins folded in ascending edge-id
//! order, and convergence checked with `=`. Demanded evaluation of the
//! DAIG therefore computes literally the same values, which the
//! integration tests assert.

use crate::graph::{DaigError, Value};
use crate::query::{CallInput, CallResolver, QueryStats};
use crate::strategy::FixStrategy;
use dai_domains::AbstractDomain;
use dai_lang::cfg::Cfg;
use dai_lang::loops::reverse_postorder;
use dai_lang::{Loc, Stmt};
use dai_memo::MemoTable;
use std::collections::HashMap;

/// Result of a batch run: the fixed-point-consistent abstract state at
/// every location.
pub type InvariantMap<D> = HashMap<Loc, D>;

/// Runs a whole-function batch analysis from `φ₀` under the paper's
/// default strategy.
///
/// # Errors
///
/// Propagates [`DaigError`]s from call resolution.
pub fn batch_analyze<D: AbstractDomain>(
    cfg: &Cfg,
    phi0: D,
    resolver: &mut dyn CallResolver<D>,
) -> Result<InvariantMap<D>, DaigError> {
    batch_analyze_with(cfg, phi0, resolver, FixStrategy::PAPER)
}

/// Runs a whole-function batch analysis from `φ₀` under `strategy`,
/// applying the same operator schedule a DAIG with that strategy encodes —
/// the from-scratch-consistency oracle for non-default strategies.
///
/// # Errors
///
/// Propagates [`DaigError`]s from call resolution.
pub fn batch_analyze_with<D: AbstractDomain>(
    cfg: &Cfg,
    phi0: D,
    resolver: &mut dyn CallResolver<D>,
    strategy: FixStrategy,
) -> Result<InvariantMap<D>, DaigError> {
    let rpo = reverse_postorder(cfg);
    let mut engine = Engine {
        cfg,
        rpo,
        states: HashMap::new(),
        resolver,
        memo: MemoTable::new(),
        stats: QueryStats::default(),
        strategy,
    };
    engine.run(phi0)?;
    Ok(engine.states)
}

struct Engine<'a, D: AbstractDomain> {
    cfg: &'a Cfg,
    rpo: Vec<Loc>,
    states: HashMap<Loc, D>,
    resolver: &'a mut dyn CallResolver<D>,
    memo: MemoTable<Value<D>>,
    stats: QueryStats,
    strategy: FixStrategy,
}

impl<D: AbstractDomain> Engine<'_, D> {
    fn run(&mut self, phi0: D) -> Result<(), DaigError> {
        let entry = self.cfg.entry();
        let top_level: Vec<Loc> = self
            .rpo
            .clone()
            .into_iter()
            .filter(|&l| self.cfg.enclosing_loops(l).is_empty())
            .collect();
        for l in top_level {
            let entry_val = if l == entry {
                phi0.clone()
            } else {
                self.in_contribution(l)?
            };
            if self.cfg.is_loop_head(l) {
                self.loop_fixpoint(l, entry_val)?;
            } else {
                self.states.insert(l, entry_val);
            }
        }
        Ok(())
    }

    /// Join of the transfers over all forward in-edges (ascending edge id,
    /// folded left-to-right exactly like the DAIG's join computation).
    fn in_contribution(&mut self, l: Loc) -> Result<D, DaigError> {
        let mut acc: Option<D> = None;
        for e in self.cfg.fwd_in_edges(l) {
            let edge = self.cfg.edge(e).expect("edge exists").clone();
            let pre = self
                .states
                .get(&edge.src)
                .cloned()
                .unwrap_or_else(D::bottom);
            let post = self.transfer(&edge.stmt, &pre, e)?;
            acc = Some(match acc {
                None => post,
                Some(a) => a.join(&post),
            });
        }
        Ok(acc.unwrap_or_else(D::bottom))
    }

    fn transfer(&mut self, stmt: &Stmt, pre: &D, edge: dai_lang::EdgeId) -> Result<D, DaigError> {
        if stmt.is_call() {
            self.resolver.resolve(
                &CallInput::new(pre, stmt, edge),
                &mut self.memo,
                &mut self.stats,
            )
        } else {
            Ok(pre.transfer(stmt))
        }
    }

    /// Converges the loop at `head` from entry iterate `it0`, leaving the
    /// fixed point in `states[head]` and the final-iteration body states in
    /// `states[body…]`.
    fn loop_fixpoint(&mut self, head: Loc, it0: D) -> Result<(), DaigError> {
        let body: Vec<Loc> = self
            .rpo
            .clone()
            .into_iter()
            .filter(|&x| x != head && self.cfg.enclosing_loops(x).last() == Some(&head))
            .collect();
        let back = self.cfg.back_edge(head).expect("loop head has a back edge");
        let back_edge = self.cfg.edge(back).expect("edge exists").clone();
        let mut prev = it0;
        // `k` is the index of the iterate the next combine produces — the
        // same index the DAIG's widen edge into `ℓ⟨k⟩` carries, so the
        // strategy's ⊔/∇ schedule lines up exactly.
        let mut k: u32 = 1;
        loop {
            self.states.insert(head, prev.clone());
            for &x in &body {
                let v = self.in_contribution(x)?;
                if self.cfg.is_loop_head(x) {
                    self.loop_fixpoint(x, v)?;
                } else {
                    self.states.insert(x, v);
                }
            }
            let back_pre = self
                .states
                .get(&back_edge.src)
                .cloned()
                .unwrap_or_else(D::bottom);
            let prewiden = self.transfer(&back_edge.stmt, &back_pre, back)?;
            let next = self.strategy.combine(k, &prev, &prewiden);
            if self.strategy.converged(&prev, &next) {
                // Converged: states[head] and the body states already
                // reflect the fixed point.
                return Ok(());
            }
            prev = next;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::IntraResolver;
    use dai_domains::interval::Interval;
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;

    fn run(src: &str) -> (Cfg, InvariantMap<IntervalDomain>) {
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        let inv = batch_analyze(&cfg, IntervalDomain::top(), &mut IntraResolver).unwrap();
        (cfg, inv)
    }

    #[test]
    fn straightline_batch() {
        let (cfg, inv) = run("function f() { var x = 1; x = x * 3; return x; }");
        assert_eq!(inv[&cfg.exit()].interval_of("x"), Interval::constant(3));
    }

    #[test]
    fn join_batch() {
        let (cfg, inv) =
            run("function f(c) { var x = 0; if (c > 0) { x = 1; } else { x = 9; } return x; }");
        assert_eq!(inv[&cfg.exit()].interval_of("x"), Interval::of(1, 9));
    }

    #[test]
    fn loop_batch_with_widening() {
        let (cfg, inv) =
            run("function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }");
        let iv = inv[&cfg.exit()].interval_of("i");
        assert!(iv.contains(10) && !iv.contains(9), "{iv}");
        // The head invariant covers all iterations.
        let head = cfg.loop_heads()[0];
        let head_iv = inv[&head].interval_of("i");
        assert!(head_iv.contains(0) && head_iv.contains(10));
    }

    #[test]
    fn nested_loops_batch() {
        let (cfg, inv) = run(
            "function f(n) { var s = 0; var i = 0; while (i < 3) { var j = 0; while (j < 3) { s = s + 1; j = j + 1; } i = i + 1; } return s; }",
        );
        let s = inv[&cfg.exit()].interval_of("s");
        assert!(s.contains(9), "{s}");
        assert!(!inv[&cfg.exit()].is_bottom());
    }

    #[test]
    fn infinite_loop_exit_is_bottom() {
        let (cfg, inv) = run("function f() { var i = 0; while (i >= 0) { i = i + 1; } return i; }");
        // The exit guard i < 0 is unreachable: exit state must be ⊥.
        assert!(inv[&cfg.exit()].is_bottom());
    }
}
