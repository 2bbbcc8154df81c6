//! DAIG–CFG consistency (Definition 4.2) and DAIG–AI consistency
//! (Definition 4.3) checkers. These run inside property tests to validate
//! the preservation lemmas (6.2, 6.3) after every query and edit.

use crate::build::{at_fix_srcs, dest_name, src_name, Overrides};
use crate::graph::{Daig, Func, Value};
use crate::name::Name;
use dai_domains::AbstractDomain;
use dai_lang::cfg::Cfg;

/// Checks Definition 4.2: the DAIG's structure encodes the CFG — statement
/// cells carry the CFG's statements, forward edges have transfer (or
/// pre-join + join) computations, and every loop head has a coherent
/// iterate/widen/fix structure for each of its unrolled iterations.
pub fn check_cfg_consistency<D: AbstractDomain>(daig: &Daig<D>, cfg: &Cfg) -> Result<(), String> {
    let ov = Overrides::new();
    // Statement cells match the program text.
    for e in cfg.edges() {
        let sc = Name::Stmt(e.id);
        match daig.value(&sc) {
            Some(Value::Stmt(s)) if *s == e.stmt => {}
            Some(Value::Stmt(s)) => {
                return Err(format!(
                    "stmt cell {sc} holds `{s}` but CFG has `{}`",
                    e.stmt
                ));
            }
            _ => return Err(format!("stmt cell {sc} missing or non-statement")),
        }
    }
    // Case (1)/(2): forward edges at iteration 0.
    for e in cfg.edges() {
        if cfg.is_back_edge(e.id) {
            continue;
        }
        let src = src_name(cfg, e.src, e.dst, &ov);
        let (dest, via_join) = if cfg.is_join(e.dst) {
            let ctx = match dest_name(cfg, e.dst, &ov) {
                Name::State { ctx, .. } => ctx,
                _ => unreachable!(),
            };
            (Name::PreJoin { edge: e.id, ctx }, true)
        } else {
            (dest_name(cfg, e.dst, &ov), false)
        };
        if e.dst == cfg.entry() && !via_join {
            continue; // the entry seed cell has no computation
        }
        let comp = daig
            .comp(&dest)
            .ok_or_else(|| format!("missing transfer comp into {dest}"))?;
        if comp.func != Func::Transfer || comp.srcs != vec![Name::Stmt(e.id), src.clone()] {
            return Err(format!("edge {} mis-encoded into {dest}", e.id));
        }
        // An edge leaving loops from a body location reads `a⟨ℓ: fix⟩`.
        if let Some(exit) = daig.comp(&src).filter(|c| c.func == Func::AtFix) {
            if exit.srcs != at_fix_srcs(&src) {
                return Err(format!("at-fix cell {src} has wrong sources"));
            }
        }
        if via_join {
            let jd = dest_name(cfg, e.dst, &ov);
            let jc = daig
                .comp(&jd)
                .ok_or_else(|| format!("missing join comp at {jd}"))?;
            if jc.func != Func::Join {
                return Err(format!("join location {jd} lacks a join computation"));
            }
            if !jc.srcs.contains(&dest) {
                return Err(format!("join at {jd} does not read {dest}"));
            }
            if jc.srcs.len() != cfg.fwd_in_edges(e.dst).len() {
                return Err(format!("join arity mismatch at {jd}"));
            }
        }
    }
    // Case (3): every fix computation has consecutive iterates and a
    // widen chain down to iterate 0.
    for n in daig.names() {
        let Some(comp) = daig.comp(n) else { continue };
        if comp.func != Func::Fix {
            continue;
        }
        let Name::State {
            loc: head,
            ctx: sigma,
        } = n
        else {
            return Err(format!("fix dest {n} is not a state cell"));
        };
        if !cfg.is_loop_head(*head) {
            return Err(format!("fix at non-head {head}"));
        }
        let k = match comp.srcs[1].ctx().and_then(|c| c.last()) {
            Some((h, k)) if h == *head => k,
            _ => return Err(format!("fix srcs of {n} malformed")),
        };
        let k0 = match comp.srcs[0].ctx().and_then(|c| c.last()) {
            Some((h, k0)) if h == *head => k0,
            _ => return Err(format!("fix srcs of {n} malformed")),
        };
        if k0 + 1 != k {
            return Err(format!("fix srcs of {n} are not consecutive iterates"));
        }
        for i in 1..=k {
            let it = Name::State {
                loc: *head,
                ctx: sigma.push(*head, i),
            };
            let wc = daig
                .comp(&it)
                .ok_or_else(|| format!("iterate {it} has no widen comp"))?;
            if wc.func != Func::Widen {
                return Err(format!("iterate {it} not produced by ∇"));
            }
            let prev = Name::State {
                loc: *head,
                ctx: sigma.push(*head, i - 1),
            };
            let pw = Name::PreWiden {
                head: *head,
                ctx: sigma.push(*head, i - 1),
            };
            if wc.srcs != vec![prev, pw] {
                return Err(format!("widen comp at {it} has wrong sources"));
            }
        }
    }
    Ok(())
}

/// Checks Definition 4.3: every non-empty cell's value equals its
/// computation applied to its (non-empty) source values; fix cells hold
/// their older source, which under the strategy's convergence test agrees
/// with the newer one; an `at_fix` cell `a⟨ℓ: fix⟩` holds `a`'s cell in
/// the converged iterations its fixed points name, which must be filled.
/// Call transfers are skipped (their value depends on the
/// interprocedural layer, not only on local inputs). Widen edges are
/// checked against the operator the DAIG's [`crate::strategy::FixStrategy`]
/// actually schedules for their iterate.
pub fn check_ai_consistency<D: AbstractDomain>(daig: &Daig<D>) -> Result<(), String> {
    let strategy = daig.strategy();
    for n in daig.names() {
        let Some(v) = daig.value(n) else { continue };
        let Some(comp) = daig.comp(n) else { continue };
        let vals: Vec<&Value<D>> = comp
            .srcs
            .iter()
            .map(|s| {
                daig.value(s)
                    .ok_or_else(|| format!("non-empty {n} has empty source {s}"))
            })
            .collect::<Result<_, _>>()?;
        let expected: Value<D> = match comp.func {
            Func::AtFix => match crate::query::at_fix_source(daig, daig.id_of(n).expect("live")) {
                Ok(crate::query::AtFixSource::Ready(src)) => {
                    daig.value_id(src).expect("ready").clone()
                }
                Ok(crate::query::AtFixSource::Demand(cell)) => {
                    return Err(format!(
                        "at-fix {n} is filled but {} is empty",
                        daig.name_of(cell)
                    ));
                }
                Err(e) => return Err(format!("{n}: {e}")),
            },
            Func::Fix => {
                let older = vals[0]
                    .as_state()
                    .ok_or_else(|| format!("{n}: not a state"))?;
                let newer = vals[1]
                    .as_state()
                    .ok_or_else(|| format!("{n}: not a state"))?;
                if !strategy.converged(older, newer) {
                    return Err(format!("fix {n} written while sources differ"));
                }
                (*vals[0]).clone()
            }
            Func::Transfer => {
                let stmt = vals[0]
                    .as_stmt()
                    .ok_or_else(|| format!("{n}: not a stmt"))?;
                if stmt.is_call() {
                    continue;
                }
                let pre = vals[1]
                    .as_state()
                    .ok_or_else(|| format!("{n}: not a state"))?;
                Value::State(pre.transfer(stmt))
            }
            Func::Join => {
                let mut it = vals.iter().map(|v| v.as_state().expect("join of states"));
                let first = it.next().expect("arity >= 2").clone();
                Value::State(it.fold(first, |a, s| a.join(s)))
            }
            Func::Widen => {
                let a = vals[0]
                    .as_state()
                    .ok_or_else(|| format!("{n}: not a state"))?;
                let b = vals[1]
                    .as_state()
                    .ok_or_else(|| format!("{n}: not a state"))?;
                let k = crate::query::widen_dest_iterate(n).map_err(|e| format!("{n}: {e}"))?;
                Value::State(strategy.combine(k, a, b))
            }
        };
        if *v != expected {
            return Err(format!("cell {n} inconsistent with its computation"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalysis;
    use crate::query::{IntraResolver, QueryStats};
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;
    use dai_memo::MemoTable;

    fn checked_analysis(src: &str) -> FuncAnalysis<IntervalDomain> {
        let cfg = lower_program(&parse_program(src).unwrap()).unwrap().cfgs()[0].clone();
        let fa = FuncAnalysis::new(cfg, IntervalDomain::top());
        check_cfg_consistency(fa.daig(), fa.cfg()).unwrap();
        check_ai_consistency(fa.daig()).unwrap();
        fa
    }

    #[test]
    fn initial_daig_is_consistent() {
        checked_analysis(
            "function f(n) { var i = 0; while (i < n) { if (i > 2) { i = i + 2; } else { i = i + 1; } } return i; }",
        );
    }

    #[test]
    fn consistency_preserved_by_queries_and_edits() {
        let mut fa = checked_analysis(
            "function f(n) { var i = 0; while (i < 10) { i = i + 1; } return i; }",
        );
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        check_cfg_consistency(fa.daig(), fa.cfg()).unwrap();
        check_ai_consistency(fa.daig()).unwrap();

        let e0 = fa.cfg().edges().next().unwrap().id;
        fa.relabel(
            e0,
            dai_lang::Stmt::Assign("i".into(), dai_lang::parse_expr("5").unwrap()),
        )
        .unwrap();
        check_cfg_consistency(fa.daig(), fa.cfg()).unwrap();
        check_ai_consistency(fa.daig()).unwrap();

        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        check_cfg_consistency(fa.daig(), fa.cfg()).unwrap();
        check_ai_consistency(fa.daig()).unwrap();
    }

    #[test]
    fn detects_tampered_value() {
        let mut fa = checked_analysis("function f() { var x = 1; return x; }");
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .unwrap();
        // Corrupt a computed cell.
        let exit = crate::build::dest_name(fa.cfg(), fa.cfg().exit(), &Overrides::new());
        let mut daig = fa.daig().clone();
        daig.write(&exit, Value::State(IntervalDomain::top()));
        // x = 1 at exit, so ⊤ is inconsistent.
        assert!(check_ai_consistency(&daig).is_err());
    }
}
