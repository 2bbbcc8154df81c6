//! Golden records for the three environment domains (`--domain interval`,
//! `sign`, `const`): what they answered, rendered, encoded and memoized at
//! `382beb5`, the commit before `NonRel<V>` replaced their three private
//! `Bottom | Env(BTreeMap)` representations. Only the *values* of memo keys
//! may differ from that commit, and the `Interproc` per-query memo counts,
//! which since call bindings and leaf callee exits are memoized also count
//! their lookups (and a query inside a leaf whose exit a hit answered pays
//! for that leaf's cells); everything else recorded here may not.
//!
//! Per domain and fixture (`call_fan.dai` under `Interproc` with
//! `CallString(1)`, the rest `Intra`, one analysis per function over one
//! memo table) the record holds, for the program as written and again after
//! a fixed relabel and a fixed splice: every `queryall` answer with its
//! `Persist::put` bytes, every unit's DOT text (both as length and hash),
//! and the memo hit/miss sequence (per fetch under `Intra`; per query under
//! `Interproc`, whose analyzer owns its table).
//!
//! Regenerate (only at a commit whose answers are known good) with
//! `cargo test --test nonrel_golden -- --ignored regenerate`.

use dai_core::analysis::FuncAnalysis;
use dai_core::dot::{to_dot, DotOptions};
use dai_core::query::{IntraResolver, QueryStats};
use dai_core::{ContextPolicy, InterAnalyzer, Value};
use dai_domains::{AbstractDomain, ConstDomain, IntervalDomain, SignDomain};
use dai_lang::cfg::{lower_program, LoweredProgram};
use dai_lang::{parse_block, parse_expr, parse_program, Block, Cfg, EdgeId, Stmt, Symbol};
use dai_memo::{MemoKey, MemoStore, MemoTable};
use dai_persist::{Persist, Writer};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURES: [(&str, &str); 4] = [
    ("call_fan", include_str!("fixtures/call_fan.dai")),
    (
        "fig10_skeleton",
        include_str!("fixtures/fig10_skeleton.dai"),
    ),
    ("loop_nest", include_str!("fixtures/loop_nest.dai")),
    ("loop_nest4", include_str!("fixtures/loop_nest4.dai")),
];

/// A memo table that writes down whether each fetch hit.
struct Recording<V> {
    table: MemoTable<V>,
    log: String,
}

impl<V: Clone> MemoStore<V> for Recording<V> {
    fn fetch(&mut self, key: MemoKey) -> Option<V> {
        let hit = self.table.fetch(key);
        self.log.push(if hit.is_some() { 'H' } else { 'M' });
        hit
    }

    fn record(&mut self, key: MemoKey, value: V) {
        self.table.record(key, value);
    }
}

/// Length and FNV-1a hash of `bytes`: how the records hold DOT text and
/// `Persist::put` output, which in full would run to ten megabytes.
fn fingerprint(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{} bytes, fnv1a {hash:016x}", bytes.len())
}

fn answer<D: AbstractDomain + Persist>(out: &mut String, at: &str, state: &D) {
    let mut w = Writer::new();
    state.put(&mut w);
    let put = fingerprint(&w.into_bytes());
    let _ = writeln!(out, "{at}: {state}\n  put {put}");
}

fn dot<D: AbstractDomain>(out: &mut String, unit: &str, fa: &FuncAnalysis<D>) {
    let text = to_dot(fa.daig(), &DotOptions::default());
    let _ = writeln!(out, "dot {unit}: {}", fingerprint(text.as_bytes()));
}

/// The edit script: in the program's first function, the first assignment
/// `v = e` is relabelled to `v = 5`, then a branch and a loop over `v` are
/// spliced onto that same edge.
fn script(cfg: &Cfg) -> (EdgeId, Stmt, Block) {
    let (edge, var) = cfg
        .edges()
        .find_map(|e| match &e.stmt {
            Stmt::Assign(v, _) => Some((e.id, v.clone())),
            _ => None,
        })
        .expect("every fixture's first function assigns");
    let v = var.as_str();
    let block = parse_block(&format!(
        "if ({v} > 2) {{ {v} = {v} - 1; }} else {{ {v} = {v} + 1; }} \
         while ({v} < 6) {{ {v} = {v} + 2; }}"
    ))
    .unwrap();
    (edge, Stmt::Assign(var, parse_expr("5").unwrap()), block)
}

fn record_intra<D: AbstractDomain + Persist>(program: &LoweredProgram) -> String {
    let mut out = String::new();
    let mut memo = Recording::<Value<D>> {
        table: MemoTable::new(),
        log: String::new(),
    };
    let mut stats = QueryStats::default();
    let mut units: Vec<FuncAnalysis<D>> = program
        .cfgs()
        .iter()
        .map(|cfg| FuncAnalysis::new(cfg.clone(), D::entry_default(cfg.params())))
        .collect();
    let (edge, stmt, block) = script(units[0].cfg());
    for phase in ["as written", "after relabel", "after splice"] {
        match phase {
            "after relabel" => units[0].relabel(edge, stmt.clone()).unwrap(),
            "after splice" => drop(units[0].splice(edge, &block).unwrap()),
            _ => {}
        }
        let _ = writeln!(out, "== {phase}");
        for fa in &mut units {
            for loc in fa.cfg().locs() {
                let state = fa
                    .query_loc(&mut memo, loc, &mut IntraResolver, &mut stats)
                    .unwrap();
                answer(&mut out, &format!("{} {loc}", fa.cfg().name()), &state);
            }
        }
        let _ = writeln!(out, "memo {}", std::mem::take(&mut memo.log));
        for fa in &units {
            dot(&mut out, fa.cfg().name().as_str(), fa);
        }
    }
    out
}

fn record_interproc<D: AbstractDomain + Persist>(program: &LoweredProgram) -> String {
    let mut out = String::new();
    let mut an = InterAnalyzer::<D>::new(
        program.clone(),
        ContextPolicy::CallString(1),
        "main",
        D::entry_default(&[]),
    );
    let first: Symbol = program.cfgs()[0].name().clone();
    let (edge, stmt, block) = script(&program.cfgs()[0]);
    for phase in ["as written", "after relabel", "after splice"] {
        match phase {
            "after relabel" => an.relabel(first.as_str(), edge, stmt.clone()).unwrap(),
            "after splice" => drop(an.splice(first.as_str(), edge, &block).unwrap()),
            _ => {}
        }
        let _ = writeln!(out, "== {phase}");
        let mut memo_log = String::new();
        let functions: Vec<(Symbol, Vec<_>)> = an
            .program()
            .cfgs()
            .iter()
            .map(|cfg| (cfg.name().clone(), cfg.locs()))
            .collect();
        for (f, locs) in functions {
            for loc in locs {
                let before = an.memo_stats();
                for (ctx, state) in an.query_at(f.as_str(), loc).unwrap() {
                    answer(&mut out, &format!("{f} {loc} [{ctx}]"), &state);
                }
                let after = an.memo_stats();
                let _ = write!(
                    memo_log,
                    " {}/{}",
                    after.hits - before.hits,
                    after.misses - before.misses
                );
            }
        }
        let _ = writeln!(out, "memo hits/misses per query:{memo_log}");
        let mut units: Vec<_> = an.units_iter().collect();
        units.sort_by(|a, b| a.0.cmp(b.0));
        for ((f, ctx), fa) in units {
            dot(&mut out, &format!("{f} [{ctx}]"), fa);
        }
    }
    out
}

fn record<D: AbstractDomain + Persist>(fixture: &str, src: &str) -> String {
    let program = lower_program(&parse_program(src).unwrap()).unwrap();
    if fixture == "call_fan" {
        record_interproc::<D>(&program)
    } else {
        record_intra::<D>(&program)
    }
}

fn golden_path(domain: &str, fixture: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/nonrel_golden")
        .join(format!("{domain}_{fixture}.txt"))
}

fn records() -> Vec<(&'static str, &'static str, String)> {
    let mut all = Vec::new();
    for (fixture, src) in FIXTURES {
        all.push(("interval", fixture, record::<IntervalDomain>(fixture, src)));
        all.push(("sign", fixture, record::<SignDomain>(fixture, src)));
        all.push(("const", fixture, record::<ConstDomain>(fixture, src)));
    }
    all
}

#[test]
fn answers_dot_bytes_and_memo_sequences_match_the_golden_records() {
    for (domain, fixture, now) in records() {
        let path = golden_path(domain, fixture);
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some((n, (want, got))) = golden
            .lines()
            .zip(now.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
        {
            panic!(
                "{domain} on {fixture} differs from its golden record at line {}:\n  \
                 golden: {want}\n  now:    {got}",
                n + 1
            );
        }
        assert_eq!(
            golden.lines().count(),
            now.lines().count(),
            "{domain} on {fixture}: record length differs from the golden file"
        );
    }
}

#[test]
#[ignore = "rewrites tests/fixtures/nonrel_golden/ from the current build"]
fn regenerate() {
    for (domain, fixture, now) in records() {
        let path = golden_path(domain, fixture);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, now).unwrap();
    }
}
