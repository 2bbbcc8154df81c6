//! Program and script generators.
//!
//! Everything the program under test receives is made here from `--seed`:
//! source text, [`ProgramEdit`]s and `(function, Loc)` targets. The three
//! source programs are seed-independent (they are committed under
//! `programs/`, and a unit test checks the generator still emits them);
//! the scripts replayed against them are drawn from the seed.
//!
//! A script is a fixed list of operations, so every count repeats exactly
//! from run to run; the generator applies each edit to its own
//! [`LoweredProgram`] with `dai-lang`'s edit primitives (the same ones a
//! session uses) to learn the edge and location ids later operations name.

use crate::prng::Prng;
use dai_core::driver::ProgramEdit;
use dai_lang::cfg::{lower_program, LoweredProgram};
use dai_lang::{parse_block, parse_program, AstStmt, BinOp, EdgeId, Expr, Loc, Stmt, Symbol};
use std::fmt::Write as _;
use std::sync::Arc;

/// One scripted operation against session `session` of the stack.
#[derive(Debug, Clone)]
pub enum Op {
    /// `Service::edit`. `text` is the edit as the generator wrote it; the
    /// script digest hashes it instead of a `Debug` rendering.
    Edit {
        session: usize,
        edit: ProgramEdit,
        text: String,
    },
    /// One single-location `Service::query`.
    Query {
        session: usize,
        func: String,
        loc: Loc,
    },
    /// One `Service::query_sweep` over `targets`.
    Sweep {
        session: usize,
        targets: Arc<Vec<(String, Loc)>>,
    },
    /// One pipelined burst of single-query frames
    /// (`Client::pipeline_queries`; `query_batch` in process).
    Burst {
        session: usize,
        func: String,
        locs: Vec<Loc>,
    },
    /// `Service::save` of the session to its snapshot file.
    Save { session: usize },
    /// A journal compaction: every client's script has it at the same
    /// round; the clients meet, the first one compacts, they meet again.
    Compact,
}

/// The kinds of [`Op`], in the order latency samples are indexed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Edit,
    Query,
    Sweep,
    Burst,
    Save,
    Compact,
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Edit { .. } => OpKind::Edit,
            Op::Query { .. } => OpKind::Query,
            Op::Sweep { .. } => OpKind::Sweep,
            Op::Burst { .. } => OpKind::Burst,
            Op::Save { .. } => OpKind::Save,
            Op::Compact => OpKind::Compact,
        }
    }
}

/// Answers of ops `ops.0..ops.1` of client `client` are checked against a
/// from-scratch analysis of `program` (the session's program right after
/// the edit that precedes them).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub client: usize,
    pub ops: (usize, usize),
    pub program: LoweredProgram,
}

/// A generated workload script.
#[derive(Debug, Clone)]
pub struct Script {
    /// Source text each session is opened from.
    pub sources: Vec<String>,
    /// Edits applied during set-up, before the prime sweep.
    pub grow: Vec<(usize, ProgramEdit)>,
    /// Closed-loop operation list of each client.
    pub clients: Vec<Vec<Op>>,
    /// Each session's program when the script starts (after `grow`).
    pub initials: Vec<LoweredProgram>,
    /// Each session's program when the script ends.
    pub finals: Vec<LoweredProgram>,
    pub checkpoints: Vec<Checkpoint>,
    /// FNV-1a over the rendered operations and the final program text.
    pub digest: u64,
}

impl Script {
    /// Operations in the script, sweeps and bursts counted by member.
    pub fn op_count(&self) -> usize {
        self.clients.iter().flatten().map(op_members).sum()
    }
}

/// Answers one op yields: every query member, edit and save counts once.
pub fn op_members(op: &Op) -> usize {
    match op {
        Op::Sweep { targets, .. } => targets.len(),
        Op::Burst { locs, .. } => locs.len(),
        Op::Compact => 0,
        _ => 1,
    }
}

/// FNV-1a, the digest of scripts and program text.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The program as deterministic text (edge listing of every CFG).
pub fn program_text(program: &LoweredProgram) -> String {
    let mut out = String::new();
    for cfg in program.cfgs() {
        out.push_str(&dai_lang::pretty::cfg_to_string(cfg));
        out.push('\n');
    }
    out
}

/// Every `(function, location)` of `program`, sorted — one batch per
/// function when swept.
pub fn all_targets(program: &LoweredProgram) -> Vec<(String, Loc)> {
    let mut targets = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    targets
}

pub fn lower(source: &str) -> LoweredProgram {
    lower_program(&parse_program(source).expect("generated source parses"))
        .expect("generated source lowers")
}

/// Applies `edit` exactly as `Session::apply_edit` does.
pub fn apply_edit(program: &mut LoweredProgram, edit: &ProgramEdit) {
    match edit {
        ProgramEdit::Relabel { func, edge, stmt } => {
            let cfg = program.by_name_mut(func.as_str()).expect("edited function");
            dai_lang::edit::relabel_edge(cfg, *edge, stmt.clone()).expect("relabel applies");
        }
        ProgramEdit::Insert { func, edge, block } => {
            let cfg = program.by_name_mut(func.as_str()).expect("edited function");
            dai_lang::edit::splice_block_on_edge(cfg, *edge, block).expect("splice applies");
        }
    }
    program
        .refresh_call_graph()
        .expect("generated edits keep the call graph acyclic");
}

fn finish(
    sources: Vec<String>,
    grow: Vec<(usize, ProgramEdit)>,
    clients: Vec<Vec<Op>>,
    initials: Vec<LoweredProgram>,
    finals: Vec<LoweredProgram>,
    checkpoints: Vec<Checkpoint>,
) -> Script {
    let mut h = Fnv::new();
    for (c, ops) in clients.iter().enumerate() {
        for op in ops {
            let mut line = format!("c{c} ");
            match op {
                Op::Edit { session, text, .. } => {
                    let _ = write!(line, "E s{session} {text}");
                }
                Op::Query { session, func, loc } => {
                    let _ = write!(line, "Q s{session} {func} {}", loc.0);
                }
                Op::Sweep { session, targets } => {
                    let _ = write!(line, "W s{session} {}", targets.len());
                }
                Op::Burst {
                    session,
                    func,
                    locs,
                } => {
                    let _ = write!(line, "B s{session} {func}");
                    for l in locs {
                        let _ = write!(line, " {}", l.0);
                    }
                }
                Op::Save { session } => {
                    let _ = write!(line, "S s{session}");
                }
                Op::Compact => line.push('C'),
            }
            line.push('\n');
            h.write(line.as_bytes());
        }
    }
    for p in &finals {
        h.write(program_text(p).as_bytes());
    }
    Script {
        sources,
        grow,
        clients,
        initials,
        finals,
        checkpoints,
        digest: h.0,
    }
}

// ---------------------------------------------------------------------
// The three source programs.
// ---------------------------------------------------------------------

const HELPERS: usize = 4;
const VAR_POOL: usize = 8;

/// The §7.3 starting point: `main` plus four helpers with trivial bodies
/// (the paper starts from an empty program; insertion needs an edge).
pub fn fig10_skeleton_source() -> String {
    let mut s = String::new();
    for i in 0..HELPERS {
        let _ = writeln!(s, "function f{i}(p) {{\n  x0 = p;\n  return x0;\n}}\n");
    }
    s.push_str("function main() {\n  x0 = 0;\n  return x0;\n}\n");
    s
}

/// Functions of the loop-nest program besides `main`.
pub const NEST_FUNCS: usize = 8;
/// Innermost-body variables whose increment constant a round relabels.
const NEST_EDIT_VARS: [&str; 3] = ["v3", "v4", "v8"];

/// Eight functions, each a depth-4 `while` nest over ten variables (plus
/// four counters: 28×28 DBMs) with a branch in the innermost body.
pub fn loop_nest_source() -> String {
    let mut s = String::new();
    for f in 0..NEST_FUNCS {
        let _ = writeln!(s, "function nest{f}(n) {{");
        for v in 0..10 {
            let _ = writeln!(s, "  var v{v} = {};", (v + f) % 7);
        }
        s.push_str("  var i = 0;\n  var j = 0;\n  var k = 0;\n  var l = 0;\n");
        let _ = writeln!(s, "  while (i < {}) {{", 8 + f);
        s.push_str("    v0 = v0 + 1;\n    j = 0;\n");
        s.push_str("    while (j < i) {\n      v1 = v1 + 2;\n      k = 0;\n");
        let _ = writeln!(s, "      while (k < {}) {{", 5 + f % 3);
        s.push_str("        v2 = v1 + 1;\n        l = 0;\n");
        s.push_str("        while (l < k) {\n");
        s.push_str("          v3 = v3 + 1;\n          v4 = v4 + 2;\n          v5 = v0 + 3;\n");
        s.push_str("          if (v3 < v4) {\n            v6 = v6 + 1;\n          } else {\n");
        s.push_str("            v7 = v7 - 1;\n          }\n");
        s.push_str("          v8 = v8 + 1;\n          l = l + 1;\n        }\n");
        s.push_str("        k = k + 1;\n      }\n      j = j + 1;\n    }\n    i = i + 1;\n  }\n");
        s.push_str("  v9 = v0 + v1;\n  return v9;\n}\n\n");
    }
    s.push_str("function main() {\n  var s = 0;\n  var r = 0;\n");
    for f in 0..NEST_FUNCS {
        let _ = writeln!(s, "  r = nest{f}(s);\n  s = s + r;");
    }
    s.push_str("  return s;\n}\n");
    s
}

/// Layers of the call fan between `main` and `leaf`, and functions per
/// layer: `main` calls the four `a`s, each function calls two of the next
/// layer, every `d` calls `leaf` twice.
const FAN_LAYERS: [char; 4] = ['a', 'b', 'c', 'd'];
const FAN_WIDTH: usize = 4;

pub fn call_fan_source() -> String {
    let mut s = String::new();
    s.push_str(
        "function leaf(p) {\n  var i = 0;\n  var s = p;\n  while (i < 10) {\n    s = s + 2;\n    \
         i = i + 1;\n  }\n  return s;\n}\n\n",
    );
    for (depth, &layer) in FAN_LAYERS.iter().enumerate().rev() {
        for i in 0..FAN_WIDTH {
            let (c0, c1) = match FAN_LAYERS.get(depth + 1) {
                Some(next) => (
                    format!("{next}{i}"),
                    format!("{next}{}", (i + 1) % FAN_WIDTH),
                ),
                None => ("leaf".to_string(), "leaf".to_string()),
            };
            let _ = writeln!(
                s,
                "function {layer}{i}(p) {{\n  var x = p + {};\n  var u = 0;\n  var w = 0;\n  \
                 u = {c0}(x);\n  w = {c1}(x + 1);\n  var r = u + w;\n  return r;\n}}\n",
                1 + i
            );
        }
    }
    s.push_str("function main() {\n  var t = 0;\n  var r = 0;\n");
    for i in 0..FAN_WIDTH {
        let _ = writeln!(s, "  r = a{i}({});\n  t = t + r;", i + 1);
    }
    s.push_str("  return t;\n}\n");
    s
}

/// The committed source programs: file name under `programs/` and text.
pub fn source_programs() -> [(&'static str, String); 3] {
    [
        ("fig10_skeleton.dai", fig10_skeleton_source()),
        ("loop_nest.dai", loop_nest_source()),
        ("call_fan.dai", call_fan_source()),
    ]
}

// ---------------------------------------------------------------------
// The §7.3 random edit stream.
// ---------------------------------------------------------------------

/// Seeds the shape of every §7.3 stream, whatever `--seed` is. Shapes
/// differ a great deal in cost — 700 edits under shape seeds 1 to 8 took
/// between 6.7 and 23 s on the core rung — and this one is the cheapest of
/// those eight, which lets the program grow longest within a repetition.
const SHAPE_SEED: u64 = 4;

/// Draws §7.3 insertions and query targets for one evolving program.
///
/// Two generators feed it. `shape`, seeded with a constant, decides where
/// each insertion goes, what kind it is, how its expressions nest, their
/// variables, operators and operand constants, what a condition or a loop
/// compares with, whom a call calls and where the queries land; `detail`,
/// seeded from `--seed`, decides the constants of constant assignments and
/// the elements of array literals. Seeds therefore give different programs
/// of one shape whose values differ and whose cost hardly does: with
/// everything drawn from the seed, time per seed differed by a factor of
/// two (a `while` spliced into a loop of `main` in one stream, into a leaf
/// helper in the next; a variable made an array, and so untracked, in one
/// and kept numeric in the other); with only the shape fixed, and every
/// operand constant drawn from the seed, branch reachability still moved
/// the computed cells by 6% and the time by 10% (quartiles, 10 seeds), and
/// no regression bound holds across that.
struct Fig10Stream {
    shape: Prng,
    detail: Prng,
    program: LoweredProgram,
}

impl Fig10Stream {
    fn new(seed: u64, stream: u64) -> Fig10Stream {
        Fig10Stream {
            shape: Prng::new(SHAPE_SEED, stream),
            detail: Prng::new(seed, stream),
            program: lower(&fig10_skeleton_source()),
        }
    }

    fn var(&mut self) -> String {
        format!("x{}", self.shape.below(VAR_POOL))
    }

    fn atom(&mut self) -> String {
        if self.shape.percent(50) {
            self.shape.range(-20, 20).to_string()
        } else {
            self.var()
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.shape.percent(40) {
            return self.atom();
        }
        let op = *self.shape.pick(&["+", "-", "*", "+"]);
        format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
    }

    /// A simple statement. Inside helper `fᵢ` calls target only `fⱼ`,
    /// `j > i`, which keeps the call graph acyclic; `main` calls anyone.
    fn stmt(&mut self, func: &str) -> String {
        let roll = self.shape.below(100);
        if roll < 70 {
            format!("{} = {};", self.var(), self.expr(2))
        } else if roll < 80 {
            if self.shape.percent(50) {
                let n = 1 + self.shape.below(4);
                let elems: Vec<String> =
                    (0..n).map(|_| self.detail.below(10).to_string()).collect();
                format!("{} = [{}];", self.var(), elems.join(", "))
            } else {
                format!("{} = {};", self.var(), self.detail.range(-50, 50))
            }
        } else if roll < 88 {
            format!("print({});", self.var())
        } else {
            let lo = func
                .strip_prefix('f')
                .and_then(|i| i.parse::<usize>().ok())
                .map_or(0, |i| i + 1);
            if lo >= HELPERS {
                format!("{} = {};", self.var(), self.expr(1))
            } else {
                let callee = lo + self.shape.below(HELPERS - lo);
                format!("{} = f{callee}({});", self.var(), self.expr(1))
            }
        }
    }

    /// The next insertion: 85% statement, 10% `if`, 5% `while`, at a
    /// uniformly random edge of a function drawn with fixed weights
    /// (`main` 40%, each helper 15%).
    fn next_edit(&mut self) -> (ProgramEdit, String) {
        let roll = self.shape.below(100);
        let func = if roll < 40 {
            "main".to_string()
        } else {
            format!("f{}", (roll - 40) / 15)
        };
        let edges: Vec<EdgeId> = self
            .program
            .by_name(&func)
            .expect("skeleton function")
            .edges()
            .map(|e| e.id)
            .collect();
        let edge = *self.shape.pick(&edges);
        let kind = self.shape.below(100);
        let text = if kind < 85 {
            self.stmt(&func)
        } else if kind < 95 {
            let op = *self.shape.pick(&["<", "<=", ">", ">=", "==", "!="]);
            format!(
                "if ({} {op} {}) {{ {} }} else {{ {} }}",
                self.var(),
                self.shape.range(-10, 10),
                self.stmt(&func),
                self.stmt(&func)
            )
        } else {
            let v = self.var();
            let bound = self.shape.range(1, 20);
            format!("{v} = 0; while ({v} < {bound}) {{ {v} = {v} + 1; }}")
        };
        let block = parse_block(&text).expect("generated block parses");
        let edit = ProgramEdit::Insert {
            func: Symbol::new(&func),
            edge,
            block,
        };
        apply_edit(&mut self.program, &edit);
        (edit, format!("{func} {} | {text}", edge.0))
    }

    fn next_query(&mut self) -> (String, Loc) {
        let cfg = &self.program.cfgs()[self.shape.below(self.program.cfgs().len())];
        let locs = cfg.locs();
        (cfg.name().to_string(), *self.shape.pick(&locs))
    }
}

/// Every 50th edit, and the last, is followed by checked answers.
fn is_checked(edit_index: usize, edits: usize) -> bool {
    (edit_index + 1).is_multiple_of(50) || edit_index + 1 == edits
}

/// `fig10_edit_query`: `edits` random insertions, five queries after each.
pub fn fig10_script(seed: u64, edits: usize) -> Script {
    let mut stream = Fig10Stream::new(seed, 1);
    let initial = stream.program.clone();
    let mut ops = Vec::with_capacity(edits * 6);
    let mut checkpoints = Vec::new();
    for e in 0..edits {
        let (edit, text) = stream.next_edit();
        ops.push(Op::Edit {
            session: 0,
            edit,
            text,
        });
        let first = ops.len();
        for _ in 0..5 {
            let (func, loc) = stream.next_query();
            ops.push(Op::Query {
                session: 0,
                func,
                loc,
            });
        }
        if is_checked(e, edits) {
            checkpoints.push(Checkpoint {
                client: 0,
                ops: (first, ops.len()),
                program: stream.program.clone(),
            });
        }
    }
    finish(
        vec![fig10_skeleton_source()],
        Vec::new(),
        vec![ops],
        vec![initial],
        vec![stream.program],
        checkpoints,
    )
}

/// The first edge of `cfg` labelled `lhs = base + <constant>`.
fn increment_edge(cfg: &dai_lang::Cfg, lhs: &str, base: &str) -> EdgeId {
    cfg.edges()
        .find(|e| match &e.stmt {
            Stmt::Assign(target, Expr::Binary(BinOp::Add, left, right)) => {
                target.as_str() == lhs
                    && matches!(&**left, Expr::Var(v) if v.as_str() == base)
                    && matches!(**right, Expr::Int(_))
            }
            _ => false,
        })
        .unwrap_or_else(|| panic!("{} has no `{lhs} = {base} + c` edge", cfg.name()))
        .id
}

fn relabel(
    program: &mut LoweredProgram,
    func: &str,
    edge: EdgeId,
    text: &str,
) -> (ProgramEdit, String) {
    let block = parse_block(text).expect("generated statement parses");
    let stmt: Stmt = match block.0.as_slice() {
        [AstStmt::Simple(s)] => s.clone(),
        other => panic!("relabel text is not one simple statement: {other:?}"),
    };
    let edit = ProgramEdit::Relabel {
        func: Symbol::new(func),
        edge,
        stmt,
    };
    apply_edit(program, &edit);
    (edit, format!("{func} {} := {text}", edge.0))
}

/// A constant in `1..=9` other than the one `round` and `slot` had last
/// time, so no relabel is a no-op.
fn fresh_constant(rng: &mut Prng, last: &mut i64) -> i64 {
    let mut c = rng.range(1, 10);
    if c == *last {
        c = c % 9 + 1;
    }
    *last = c;
    c
}

/// The script both relabel workloads build: one session over a fixed
/// source program, a round at a time.
struct RelabelRounds {
    source: String,
    initial: LoweredProgram,
    program: LoweredProgram,
    rng: Prng,
    main_exit: Loc,
    ops: Vec<Op>,
    checkpoints: Vec<Checkpoint>,
}

impl RelabelRounds {
    fn new(source: String, seed: u64, stream: u64) -> RelabelRounds {
        let program = lower(&source);
        RelabelRounds {
            source,
            initial: program.clone(),
            main_exit: program.by_name("main").expect("main").exit(),
            program,
            rng: Prng::new(seed, stream),
            ops: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// One round: relabel `lhs = base + <constant>` of `func` to add `c`,
    /// then query the function's exit (recomputed), another of its
    /// locations (by then a reuse hit) and `main`'s exit. Three queries, so
    /// that the median query falls inside a cluster of like queries and not
    /// on the border between cheap and dear ones.
    fn round(&mut self, func: &str, lhs: &str, base: &str, c: i64, checked: bool) {
        let cfg = self.program.by_name(func).expect("edited function");
        let (edge, exit) = (increment_edge(cfg, lhs, base), cfg.exit());
        let text = format!("{lhs} = {base} + {c};");
        let (edit, text) = relabel(&mut self.program, func, edge, &text);
        self.ops.push(Op::Edit {
            session: 0,
            edit,
            text,
        });
        let first = self.ops.len();
        let locs = self.program.by_name(func).expect("edited function").locs();
        let inner = *self.rng.pick(&locs);
        for (func, loc) in [(func, exit), (func, inner), ("main", self.main_exit)] {
            self.ops.push(Op::Query {
                session: 0,
                func: func.to_string(),
                loc,
            });
        }
        if checked {
            self.checkpoints.push(Checkpoint {
                client: 0,
                ops: (first, self.ops.len()),
                program: self.program.clone(),
            });
        }
    }

    fn finish(self) -> Script {
        finish(
            vec![self.source],
            Vec::new(),
            vec![self.ops],
            vec![self.initial],
            vec![self.program],
            self.checkpoints,
        )
    }
}

/// `loop_nest_octagon`: each round relabels the constant of one
/// innermost statement. Functions come in shuffled blocks of eight so each
/// is edited equally often whatever the seed.
pub fn loop_nest_script(seed: u64, rounds: usize) -> Script {
    let mut script = RelabelRounds::new(loop_nest_source(), seed, 2);
    let mut order: Vec<usize> = (0..NEST_FUNCS).collect();
    let mut last = vec![0i64; NEST_FUNCS * NEST_EDIT_VARS.len()];
    for round in 0..rounds {
        if round % NEST_FUNCS == 0 {
            script.rng.shuffle(&mut order);
        }
        let f = order[round % NEST_FUNCS];
        let slot = script.rng.below(NEST_EDIT_VARS.len());
        let var = NEST_EDIT_VARS[slot];
        let c = fresh_constant(&mut script.rng, &mut last[f * NEST_EDIT_VARS.len() + slot]);
        script.round(&format!("nest{f}"), var, var, c, is_checked(round, rounds));
    }
    script.finish()
}

/// `call_fan_interproc`: each round relabels a constant in `leaf` (every
/// other round) or in a `b`/`c` function.
pub fn call_fan_script(seed: u64, rounds: usize) -> Script {
    let mut script = RelabelRounds::new(call_fan_source(), seed, 3);
    let mids: Vec<String> = ['b', 'c']
        .iter()
        .flat_map(|l| (0..FAN_WIDTH).map(move |i| format!("{l}{i}")))
        .collect();
    let mut last = vec![0i64; mids.len() + 1];
    for round in 0..rounds {
        let checked = is_checked(round, rounds);
        if round % 2 == 0 {
            let c = fresh_constant(&mut script.rng, &mut last[mids.len()]);
            script.round("leaf", "s", "s", c, checked);
        } else {
            let m = script.rng.below(mids.len());
            let c = fresh_constant(&mut script.rng, &mut last[m]);
            script.round(&mids[m], "x", "p", c, checked);
        }
    }
    script.finish()
}

/// The one-function program of `warm_sweep_socket`'s side session.
pub const SIDE_SOURCE: &str = "function main() {\n  x = 0;\n  return x;\n}\n";

/// `warm_sweep_socket`: session 0 is a §7.3 program grown by `grow` edits
/// during set-up and never edited again; each round is one whole-program
/// sweep, `singles` single queries, one burst of `burst` locations of one
/// function, and one relabel on the one-statement side session 1 (which
/// keeps the edit metrics defined here without dirtying session 0).
pub fn warm_sweep_script(
    seed: u64,
    grow: usize,
    rounds: usize,
    singles: usize,
    burst: usize,
) -> Script {
    let mut stream = Fig10Stream::new(seed, 4);
    let grow_edits: Vec<(usize, ProgramEdit)> =
        (0..grow).map(|_| (0, stream.next_edit().0)).collect();
    let program = stream.program.clone();
    let mut side = lower(SIDE_SOURCE);
    let side_edge = side
        .by_name("main")
        .expect("side main")
        .edges()
        .find(|e| matches!(&e.stmt, Stmt::Assign(target, Expr::Int(_)) if target.as_str() == "x"))
        .expect("side statement")
        .id;
    let targets = Arc::new(all_targets(&program));
    let mut rng = Prng::new(seed, 5);
    let mut ops = Vec::new();
    let mut checkpoints = Vec::new();
    for round in 0..rounds {
        let first = ops.len();
        ops.push(Op::Sweep {
            session: 0,
            targets: Arc::clone(&targets),
        });
        for _ in 0..singles {
            let (func, loc) = stream.next_query();
            ops.push(Op::Query {
                session: 0,
                func,
                loc,
            });
        }
        let cfg = &program.cfgs()[rng.below(program.cfgs().len())];
        let locs = cfg.locs();
        ops.push(Op::Burst {
            session: 0,
            func: cfg.name().to_string(),
            locs: (0..burst).map(|_| *rng.pick(&locs)).collect(),
        });
        if round + 1 == rounds {
            checkpoints.push(Checkpoint {
                client: 0,
                ops: (first, ops.len()),
                program: program.clone(),
            });
        }
        let (edit, text) = relabel(&mut side, "main", side_edge, &format!("x = {};", round + 1));
        ops.push(Op::Edit {
            session: 1,
            edit,
            text,
        });
    }
    finish(
        vec![fig10_skeleton_source(), SIDE_SOURCE.to_string()],
        grow_edits,
        vec![ops],
        vec![program.clone(), lower(SIDE_SOURCE)],
        vec![program, side],
        checkpoints,
    )
}

/// Clients and sessions per client of `durable_multi_session`.
pub const DURABLE_CLIENTS: usize = 2;
pub const DURABLE_SESSIONS_PER_CLIENT: usize = 2;

/// `durable_multi_session`: client `c` owns sessions `2c` and `2c + 1`.
/// Each round a client edits and then queries each of its sessions; it
/// saves one of them every `save_every` rounds (the last round included),
/// and every `compact_every` rounds the clients stop for a compaction.
/// Compaction gets the floor to itself because `Journal::compact` replaces
/// the file with session images taken a moment earlier: an edit another
/// client journals in between is lost, and the journal no longer replays
/// (`no such edge`). For the same reason the stack turns the automatic,
/// edit-path compaction off (`compact_every: 0`). Session `2c + k`
/// replays edit stream `k`, so the two clients grow the same two programs
/// and meet in the shared memo table.
pub fn durable_script(seed: u64, rounds: usize, save_every: usize, compact_every: usize) -> Script {
    let mut clients = Vec::new();
    let mut finals = Vec::new();
    let mut checkpoints = Vec::new();
    for client in 0..DURABLE_CLIENTS {
        let mut streams: Vec<Fig10Stream> = (0..DURABLE_SESSIONS_PER_CLIENT)
            .map(|k| Fig10Stream::new(seed, 10 + k as u64))
            .collect();
        let mut ops = Vec::new();
        for round in 0..rounds {
            for (k, stream) in streams.iter_mut().enumerate() {
                let session = client * DURABLE_SESSIONS_PER_CLIENT + k;
                let (edit, text) = stream.next_edit();
                ops.push(Op::Edit {
                    session,
                    edit,
                    text,
                });
                let (func, loc) = stream.next_query();
                let first = ops.len();
                ops.push(Op::Query { session, func, loc });
                if is_checked(round, rounds) {
                    checkpoints.push(Checkpoint {
                        client,
                        ops: (first, ops.len()),
                        program: stream.program.clone(),
                    });
                }
            }
            if (round + 1) % save_every == 0 || round + 1 == rounds {
                let k = (round / save_every) % DURABLE_SESSIONS_PER_CLIENT;
                // The final save is of the client's first session, which
                // the end-of-run `load` check restores.
                let k = if round + 1 == rounds { 0 } else { k };
                ops.push(Op::Save {
                    session: client * DURABLE_SESSIONS_PER_CLIENT + k,
                });
            }
            if (round + 1) % compact_every == 0 {
                ops.push(Op::Compact);
            }
        }
        clients.push(ops);
        finals.extend(streams.into_iter().map(|s| s.program));
    }
    let sessions = DURABLE_CLIENTS * DURABLE_SESSIONS_PER_CLIENT;
    let skeleton = lower(&fig10_skeleton_source());
    finish(
        vec![fig10_skeleton_source(); sessions],
        Vec::new(),
        clients,
        vec![skeleton; sessions],
        finals,
        checkpoints,
    )
}
