//! The correctness oracle: answers against a from-scratch analysis.
//!
//! Theorem 6.1 says a demanded answer equals what a batch analysis of the
//! current program computes. The warm-up repetition keeps the answers that
//! follow every 50th edit (and the last); here each is compared with an
//! independent analysis of the program as it stood then —
//! `dai_core::batch::batch_analyze` for intraprocedural sessions, a fresh
//! `Driver` in `Config::Batch` for interprocedural ones.

use crate::gen::{Checkpoint, Op};
use dai_core::batch::{batch_analyze, InvariantMap};
use dai_core::driver::{Config, Driver};
use dai_core::query::IntraResolver;
use dai_domains::AbstractDomain;
use dai_engine::ResolverChoice;
use dai_lang::cfg::LoweredProgram;
use dai_lang::Loc;
use std::collections::HashMap;

/// Answers `(function, location)` from scratch on one program.
enum Oracle<'p, D: AbstractDomain> {
    Intra {
        program: &'p LoweredProgram,
        /// Batch invariants per function, computed on first use.
        done: HashMap<String, InvariantMap<D>>,
    },
    Inter(Box<Driver<D>>),
}

impl<'p, D: AbstractDomain> Oracle<'p, D> {
    fn new(resolver: ResolverChoice, program: &'p LoweredProgram) -> Oracle<'p, D> {
        match resolver {
            ResolverChoice::Intra => Oracle::Intra {
                program,
                done: HashMap::new(),
            },
            ResolverChoice::Interproc { policy } => {
                let entry = program.entry_cfg().expect("program has an entry function");
                Oracle::Inter(Box::new(Driver::new(
                    Config::Batch,
                    program.clone(),
                    policy,
                    entry.name().as_str(),
                    D::entry_default(entry.params()),
                )))
            }
        }
    }

    fn answer(&mut self, func: &str, loc: Loc) -> Result<D, String> {
        match self {
            Oracle::Intra { program, done } => {
                if !done.contains_key(func) {
                    let cfg = program
                        .by_name(func)
                        .ok_or_else(|| format!("oracle: no function {func}"))?;
                    let map =
                        batch_analyze(cfg, D::entry_default(cfg.params()), &mut IntraResolver)
                            .map_err(|e| format!("oracle: batch analysis of {func}: {e}"))?;
                    done.insert(func.to_string(), map);
                }
                done[func]
                    .get(&loc)
                    .cloned()
                    .ok_or_else(|| format!("oracle: {func} has no {loc}"))
            }
            Oracle::Inter(driver) => driver
                .query(func, loc)
                .map_err(|e| format!("oracle: query {func} {loc}: {e}")),
        }
    }
}

/// Compares the answers kept for `checkpoint` with the oracle's. Returns
/// the number of answers checked and a description of each mismatch.
pub fn verify<D: AbstractDomain>(
    resolver: ResolverChoice,
    checkpoint: &Checkpoint,
    ops: &[Op],
    answers: &[D],
) -> (usize, Vec<String>) {
    let mut oracle: Oracle<'_, D> = Oracle::new(resolver, &checkpoint.program);
    let mut expected: Vec<(&str, Loc)> = Vec::new();
    for op in &ops[checkpoint.ops.0..checkpoint.ops.1] {
        match op {
            Op::Query { func, loc, .. } => expected.push((func, *loc)),
            Op::Sweep { targets, .. } => {
                expected.extend(targets.iter().map(|(f, l)| (f.as_str(), *l)));
            }
            Op::Burst { func, locs, .. } => {
                expected.extend(locs.iter().map(|l| (func.as_str(), *l)))
            }
            Op::Edit { .. } | Op::Save { .. } | Op::Compact => {}
        }
    }
    let mut wrong = Vec::new();
    if expected.len() != answers.len() {
        wrong.push(format!(
            "ops {:?}: {} answers kept for {} targets",
            checkpoint.ops,
            answers.len(),
            expected.len()
        ));
        return (expected.len(), wrong);
    }
    for ((func, loc), got) in expected.iter().zip(answers) {
        match oracle.answer(func, *loc) {
            Ok(want) if want == *got => {}
            Ok(want) => wrong.push(format!(
                "ops {:?}: {func} {loc}: demanded `{got}`, from scratch `{want}`",
                checkpoint.ops
            )),
            Err(e) => wrong.push(e),
        }
    }
    (expected.len(), wrong)
}
