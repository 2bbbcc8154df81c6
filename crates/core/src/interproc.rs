//! Context-sensitive interprocedural demanded analysis (paper §7.1).
//!
//! "We initially construct a DAIG only for the 'main' procedure in the
//! initial context. Then, when a query is issued for the abstract state
//! after a call, we construct a DAIG for its callee in the proper context."
//! Contexts are chosen by a pluggable [`ContextPolicy`]; the paper's
//! functors for context-insensitivity and 1-/2-call-site sensitivity are
//! [`ContextPolicy::Insensitive`] and [`ContextPolicy::CallString`].
//!
//! A callee's entry state under a context is the join of the entry
//! contributions from the call sites mapping to that context; contributions
//! accumulate as callers are evaluated, and feeding a larger entry into a
//! callee is an ordinary DAIG *edit* of its `φ₀` cell (dirtying downstream
//! results). Programs must be non-recursive with static calls (checked at
//! lowering), so cross-DAIG demand is well-founded.
//!
//! # What is cached, and what invalidates it
//!
//! * **The context table** (`ContextTable`): every `(function, context)`
//!   reachable from the entry under the policy, each with its calls out
//!   (edge → callee node, plus the call's site key) and the call sites
//!   mapping to it, in the order entry forcing visits them. It is a
//!   function of the program's call-graph index and is rebuilt only when
//!   [`LoweredProgram::call_graph_version`] has moved after an edit — an
//!   edit that adds, removes or retargets no call leaves it alone. During
//!   a query the program and the table are borrowed immutably and units
//!   are named by table node, so resolving a call builds no key.
//! * **Units' cells.** One rule invalidates them, whatever the edit: after
//!   an edit to any function, every unit but the entry unit (the entry
//!   function in the root context) is reset — entry ⊥, every result
//!   dropped — and in the entry unit everything downstream of *every* call
//!   edge is dirtied, on top of what the edit itself dirtied there
//!   (`InterAnalyzer::reset_units`, which resets a unit in one pass with
//!   `FuncAnalysis::reset`). What an edit keeps is the entry
//!   unit's call-free cells, which equal a fresh analysis's, and the memo
//!   table, which is exact by content. Everything from the entry
//!   function's first call on therefore re-runs in the order a fresh
//!   analyzer runs it, and feeds every callee entry the same contributions
//!   in the same order: any query sequence after an
//!   edit answers like a fresh `InterAnalyzer` given the same queries since
//!   that edit. Entries are joins accumulated in demand order, yet no
//!   fresh analyzer has been seen to answer differently for the order its
//!   queries arrive in: `tests/interprocedural.rs` asks every location in
//!   definition order, its reverse and callees first, under every policy,
//!   and gets the same answers. The price: an edit to a function reached
//!   only by the entry function's *last* call still re-runs every call
//!   before it. A sharper cut-off needs entries that are fixed points, not
//!   demand-order joins.
//! * **Call bindings** in the memo table. `call_entry` and `call_return`
//!   are pure functions of their arguments (the [`AbstractDomain`]
//!   contract), so each is memoized by content (`binding_key`): the
//!   digests of the call statement and the pre-state, the site key, and
//!   the callee's parameters or the digest of its exit. A re-run after an
//!   edit skips the domain's binding work for calls whose inputs did not
//!   change. A call cell still counts as computed.
//! * **Leaf exits** in the memo table. A callee whose table node has no
//!   calls out is a *leaf*: its unit's exit is a function of its body and
//!   its entry alone, and by Thm 6.1 it equals what a fresh analysis of
//!   that body from that entry computes. So after the entry join, a leaf's
//!   exit is looked up under `call_exit·(body digest, entry digest)`
//!   (`exit_key`, `body_digest`): a hit returns the stored exit without
//!   demanding the unit, whose entry is set and whose cells stay reset
//!   until a query lands inside it; a miss demands the exit and records
//!   it. The body digest covers the parameters, the entry and exit
//!   locations, the strategy and every edge `(id, src, dst, stmt
//!   digest)`, and is cached per function per edit epoch. The key holds
//!   content only, so equal bodies share entries. A non-leaf callee stays
//!   out: its own callees join contributions from other call sites, so
//!   its exit depends on more than its entry, and every call to it feeds
//!   it and demands its exit.
//! * **Forced-entry stamps**: a unit whose entry has been seeded from all
//!   of its call sites (`Eval::force_entry`) is stamped with the current
//!   *edit epoch*, and forcing a stamped unit returns at once. The epoch
//!   moves — dropping every stamp — exactly where entries are reset to ⊥:
//!   [`InterAnalyzer::relabel`], [`InterAnalyzer::splice`] and
//!   [`InterAnalyzer::dirty_everything`]. A stamp is set only after the
//!   forcing succeeded, so a failed one is retried by the next query.
//!
//! Skipping a stamped unit changes no value, no cell and no
//! computed/memo-matched count, because re-forcing between edits is a
//! no-op: forcing a unit first forces every caller, so the forced set is
//! upward-closed to the entry function; a forced unit's entry is fed only
//! by pre-call cells of forced callers; nothing dirties those cells between
//! edits (entries only change when a *new* contribution arrives, and every
//! contribution of a forced unit has arrived); so the re-join reproduces
//! the entry and [`FuncAnalysis::set_entry_state`] returns early on
//! equality, and the callee-exit demand that follows finds its cell filled
//! (or, for a leaf, its exit in the memo table).
//!
//! **Warning for whoever sharpens the edit rule.** An entry that grows
//! after its callers were evaluated does not dirty those callers' post-call
//! cells; the edit rule is correct because it re-runs every call anyway. A
//! rule that dirties caller cells when a callee entry grows breaks the
//! argument above at "nothing dirties those cells between edits": it must
//! move the epoch at that same event. `tests/interprocedural.rs` holds the
//! oracle such a rule must pass: demanded == fresh after every edit of
//! random multi-function edit streams, under every policy.

use crate::analysis::FuncAnalysis;
use crate::graph::{DaigError, Value};
use crate::name::Name;
use crate::query::{CallInput, CallResolver, QueryStats};
use crate::strategy::FixStrategy;
use dai_domains::{AbstractDomain, CallSite};
use dai_lang::cfg::{Cfg, LoweredProgram};
use dai_lang::edit::SpliceInfo;
use dai_lang::{Block, CfgError, EdgeId, Loc, Stmt, Symbol};
use dai_memo::{content_digest, KeyBuilder, MemoKey, MemoStore, MemoTable};
use dai_trace::metrics::Counter;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A calling context: the most recent call edges, outermost last
/// (bounded by the policy's `k`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Context(pub Vec<(Symbol, EdgeId)>);

impl Context {
    /// The empty (root) context.
    pub fn root() -> Context {
        Context(Vec::new())
    }
}

impl fmt::Display for Context {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return write!(f, "ε");
        }
        for (i, (g, e)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{g}:{e}")?;
        }
        Ok(())
    }
}

/// How callee contexts are derived from call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextPolicy {
    /// One context per function (0-call-string).
    Insensitive,
    /// k-call-string sensitivity (the paper evaluates k = 1 and k = 2).
    CallString(usize),
}

impl ContextPolicy {
    /// The callee context for a call at `(caller, edge)` in `caller_ctx`.
    pub fn extend(&self, caller_ctx: &Context, caller: &Symbol, edge: EdgeId) -> Context {
        match self {
            ContextPolicy::Insensitive => Context::root(),
            ContextPolicy::CallString(k) => {
                let mut v = vec![(caller.clone(), edge)];
                v.extend(caller_ctx.0.iter().cloned());
                v.truncate(*k);
                Context(v)
            }
        }
    }
}

/// Index of a `(function, context)` node of the [`ContextTable`].
type NodeId = usize;
/// Index of a unit in [`Units::slots`]; never reused.
type UnitId = usize;

/// The entry function in the root context: always the table's first node.
const ENTRY_NODE: NodeId = 0;

/// A call out of a table node.
#[derive(Debug)]
struct CallOut {
    edge: EdgeId,
    callee: NodeId,
    /// `caller:edge`, the [`CallSite::site_key`] of this call.
    site_key: String,
}

/// A call site mapping to a table node under the policy.
#[derive(Debug)]
struct CallIn {
    caller: NodeId,
    edge: EdgeId,
}

/// One `(function, context)` pair reachable from the entry.
#[derive(Debug)]
struct Node {
    /// The function's definition index in the program.
    func: usize,
    ctx: Context,
    /// Calls out of this node, ascending edge id.
    calls: Vec<CallOut>,
    /// Call sites whose callee context is this node: callers in
    /// definition order, then ascending edge id, then ascending caller
    /// context — the order entry forcing joins their contributions in.
    sites: Vec<CallIn>,
}

/// Every `(function, context)` the call structure induces, discovered by
/// walking the program's call-graph index from the entry function under
/// the policy. See the module docs for what invalidates it.
#[derive(Debug)]
struct ContextTable {
    /// The [`LoweredProgram::call_graph_version`] this was built from.
    version: u64,
    nodes: Vec<Node>,
    /// Per function (definition index), its nodes in ascending context.
    by_func: Vec<Vec<NodeId>>,
}

impl ContextTable {
    fn build(program: &LoweredProgram, policy: ContextPolicy, entry_fn: &Symbol) -> ContextTable {
        let mut nodes: Vec<Node> = Vec::new();
        let mut ids: HashMap<(usize, Context), NodeId> = HashMap::new();
        if let Some(entry) = program.func_index(entry_fn.as_str()) {
            ids.insert((entry, Context::root()), ENTRY_NODE);
            nodes.push(Node::new(entry, Context::root()));
        }
        // Breadth first; nodes are numbered in discovery order, so the
        // node list doubles as the queue.
        let mut next = 0;
        while next < nodes.len() {
            let (g, cg) = (nodes[next].func, nodes[next].ctx.clone());
            let caller = program.cfgs()[g].name();
            for &(edge, callee) in program.calls_out(g) {
                let ctx = policy.extend(&cg, caller, edge);
                let callee_node = *ids.entry((callee, ctx.clone())).or_insert_with(|| {
                    nodes.push(Node::new(callee, ctx));
                    nodes.len() - 1
                });
                nodes[next].calls.push(CallOut {
                    edge,
                    callee: callee_node,
                    site_key: format!("{caller}:{edge}"),
                });
                nodes[callee_node].sites.push(CallIn { caller: next, edge });
            }
            next += 1;
        }
        for n in 0..nodes.len() {
            let mut sites = std::mem::take(&mut nodes[n].sites);
            sites.sort_by(|a, b| {
                let (ca, cb) = (&nodes[a.caller], &nodes[b.caller]);
                (ca.func, a.edge, &ca.ctx).cmp(&(cb.func, b.edge, &cb.ctx))
            });
            nodes[n].sites = sites;
        }
        let mut by_func: Vec<Vec<NodeId>> = vec![Vec::new(); program.cfgs().len()];
        for (id, node) in nodes.iter().enumerate() {
            by_func[node.func].push(id);
        }
        for of_func in &mut by_func {
            of_func.sort_by(|&a, &b| nodes[a].ctx.cmp(&nodes[b].ctx));
        }
        ContextTable {
            version: program.call_graph_version(),
            nodes,
            by_func,
        }
    }

    /// The call on `edge` out of `node`.
    fn call_on(&self, node: NodeId, edge: EdgeId) -> Option<&CallOut> {
        let calls = &self.nodes[node].calls;
        calls
            .binary_search_by_key(&edge, |c| c.edge)
            .ok()
            .map(|i| &calls[i])
    }
}

impl Node {
    fn new(func: usize, ctx: Context) -> Node {
        Node {
            func,
            ctx,
            calls: Vec::new(),
            sites: Vec::new(),
        }
    }
}

/// How often the interprocedural caches did their job; see
/// [`InterAnalyzer::counters`]. The same events are published process-wide
/// as `dai_interproc_context_table_builds_total`,
/// `dai_interproc_entries_forced_total`,
/// `dai_interproc_entry_force_skips_total`,
/// `dai_interproc_bindings_computed_total` and
/// `dai_interproc_bindings_reused_total` in the `dai-trace` registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterprocCounters {
    /// Context tables built (one at construction, then one per edit that
    /// moved the call graph).
    pub context_table_builds: u64,
    /// Unit entries seeded from their call sites.
    pub entries_forced: u64,
    /// Forcings answered by a stamp from the current edit epoch.
    pub entry_force_skips: u64,
    /// Call bindings (`call_entry` or `call_return`) the domain computed.
    pub bindings_computed: u64,
    /// Call bindings answered by the memo table.
    pub bindings_reused: u64,
}

/// This analyzer's counts beside the handles of the process-wide ones.
struct Counters {
    own: InterprocCounters,
    table_builds: Counter,
    entries_forced: Counter,
    force_skips: Counter,
    bindings_computed: Counter,
    bindings_reused: Counter,
}

impl Counters {
    fn new() -> Counters {
        let m = dai_trace::metrics();
        Counters {
            own: InterprocCounters::default(),
            table_builds: m.counter("dai_interproc_context_table_builds_total"),
            entries_forced: m.counter("dai_interproc_entries_forced_total"),
            force_skips: m.counter("dai_interproc_entry_force_skips_total"),
            bindings_computed: m.counter("dai_interproc_bindings_computed_total"),
            bindings_reused: m.counter("dai_interproc_bindings_reused_total"),
        }
    }

    fn table_built(&mut self) {
        self.own.context_table_builds += 1;
        self.table_builds.inc();
    }

    fn entry_forced(&mut self) {
        self.own.entries_forced += 1;
        self.entries_forced.inc();
    }

    fn force_skipped(&mut self) {
        self.own.entry_force_skips += 1;
        self.force_skips.inc();
    }

    fn binding_computed(&mut self) {
        self.own.bindings_computed += 1;
        self.bindings_computed.inc();
    }

    fn binding_reused(&mut self) {
        self.own.bindings_reused += 1;
        self.bindings_reused.inc();
    }
}

/// The memo symbols of the two call bindings.
const CALL_ENTRY: &str = "call_entry";
const CALL_RETURN: &str = "call_return";
/// The memo symbol of a leaf callee's exit.
const CALL_EXIT: &str = "call_exit";

/// The content digest of what a unit of `cfg` computes from a given entry:
/// its parameters, entry and exit locations, the iteration strategy, and
/// its edges in ascending id as `(id, src, dst, stmt digest)`.
fn body_digest(cfg: &Cfg, strategy: FixStrategy) -> u128 {
    let edges: Vec<(EdgeId, Loc, Loc, u128)> = cfg
        .edges()
        .map(|e| (e.id, e.src, e.dst, content_digest(&e.stmt)))
        .collect();
    content_digest(&(cfg.params(), cfg.entry(), cfg.exit(), strategy, edges))
}

/// The memo key of a leaf callee's exit: `call_exit·(body, entry)`.
fn exit_key(body: u128, entry: u128) -> MemoKey {
    KeyBuilder::new(CALL_EXIT)
        .push_digest(body)
        .push_digest(entry)
        .finish()
}

/// The memo key of one call binding: `symbol·(stmt, pre, site key, last)`,
/// where `last` is the callee's parameters for [`CALL_ENTRY`] and the
/// digest of the callee's exit for [`CALL_RETURN`]. The DAIG's calls and
/// entry forcing both key their bindings here, so they share entries.
fn binding_key<D: AbstractDomain>(
    symbol: &str,
    call: &CallInput<'_, D>,
    site_key: &str,
    last: &(impl Hash + ?Sized),
) -> MemoKey {
    let (stmt, pre) = call.digests();
    KeyBuilder::new(symbol)
        .push_digest(stmt)
        .push_digest(pre)
        .push(site_key)
        .push(last)
        .finish()
}

/// One `(function, context)` DAIG and its forced-entry stamp.
struct UnitSlot<D: AbstractDomain> {
    key: (Symbol, Context),
    /// `None` only while the unit is checked out by the query evaluating
    /// it (the call graph is acyclic, so nothing demands it meanwhile).
    fa: Option<FuncAnalysis<D>>,
    /// The edit epoch in which the entry was last forced (0: never).
    forced_in: u64,
}

impl<D: AbstractDomain> UnitSlot<D> {
    fn fa_mut(&mut self) -> &mut FuncAnalysis<D> {
        self.fa.as_mut().expect("unit demanded while checked out")
    }
}

/// The analysis state a query mutates: units, stamps and counters.
struct Units<D: AbstractDomain> {
    phi0: D,
    strategy: crate::strategy::FixStrategy,
    mode: crate::compile::TransferMode,
    slots: Vec<UnitSlot<D>>,
    ids: HashMap<(Symbol, Context), UnitId>,
    /// The unit of each table node, resolved on first use; emptied when
    /// the table is rebuilt.
    of_node: Vec<Option<UnitId>>,
    /// Moves wherever entries are reset to ⊥; see the module docs.
    epoch: u64,
    /// Per function (definition index), its `body_digest` and the epoch
    /// it was taken in.
    bodies: HashMap<usize, (u64, u128)>,
    counters: Counters,
}

/// The interprocedural analyzer: per-`(function, context)` DAIGs created
/// on demand, a shared memo table, and the entry-join bookkeeping.
pub struct InterAnalyzer<D: AbstractDomain> {
    program: LoweredProgram,
    policy: ContextPolicy,
    entry_fn: Symbol,
    table: ContextTable,
    units: Units<D>,
    memo: MemoTable<Value<D>>,
    stats: QueryStats,
}

/// One query's view of the analyzer: the program and the context table
/// borrowed, the units mutable.
struct Eval<'a, D: AbstractDomain> {
    program: &'a LoweredProgram,
    table: &'a ContextTable,
    units: &'a mut Units<D>,
}

/// Resolves calls by demanding callee DAIG exits.
struct InterResolver<'e, 'a, D: AbstractDomain> {
    eval: &'e mut Eval<'a, D>,
    caller: NodeId,
}

impl<D: AbstractDomain> CallResolver<D> for InterResolver<'_, '_, D> {
    fn resolve(
        &mut self,
        call: &CallInput<'_, D>,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.eval.resolve_call(self.caller, call, memo, stats)
    }
}

/// What [`Eval::feed_callee`] found at a call.
enum Fed<'s, D> {
    /// The pre-state is `⊥`: the call is never reached.
    Dead,
    /// No function of that name: there is no unit to feed.
    UnknownCallee,
    /// The callee was fed and this is its exit, for the call site.
    Exit(CallSite<'s>, D),
}

impl<'a, D: AbstractDomain> Eval<'a, D> {
    /// The unit of `node`, built with a ⊥ entry (`φ₀` for the entry node)
    /// when no query has demanded it yet.
    fn unit_of(&mut self, node: NodeId) -> UnitId {
        if let Some(unit) = self.units.of_node[node] {
            return unit;
        }
        let n = &self.table.nodes[node];
        let cfg = &self.program.cfgs()[n.func];
        let key = (cfg.name().clone(), n.ctx.clone());
        let unit = match self.units.ids.get(&key) {
            Some(&unit) => unit,
            None => {
                let entry = if node == ENTRY_NODE {
                    self.units.phi0.clone()
                } else {
                    D::bottom()
                };
                let fa = FuncAnalysis::with_config(
                    cfg.clone(),
                    entry,
                    self.units.strategy,
                    self.units.mode,
                );
                let unit = self.units.slots.len();
                self.units.slots.push(UnitSlot {
                    key: key.clone(),
                    fa: Some(fa),
                    forced_in: 0,
                });
                self.units.ids.insert(key, unit);
                unit
            }
        };
        self.units.of_node[node] = Some(unit);
        unit
    }

    /// Runs `demand` on the unit of `node`, with calls out of it resolved
    /// through this evaluation.
    fn with_unit<T>(
        &mut self,
        node: NodeId,
        demand: impl FnOnce(&mut FuncAnalysis<D>, &mut InterResolver<'_, '_, D>) -> T,
    ) -> T {
        let unit = self.unit_of(node);
        let mut fa = self.units.slots[unit]
            .fa
            .take()
            .expect("unit demanded while checked out");
        let out = demand(
            &mut fa,
            &mut InterResolver {
                eval: self,
                caller: node,
            },
        );
        self.units.slots[unit].fa = Some(fa);
        out
    }

    /// Demands the exit state of `node`.
    fn query_exit_of(
        &mut self,
        node: NodeId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.with_unit(node, |fa, resolver| fa.query_exit(memo, resolver, stats))
    }

    /// Demands the fixed-point-consistent state at `loc` in `node`.
    fn query_loc_of(
        &mut self,
        node: NodeId,
        loc: Loc,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        self.with_unit(node, |fa, resolver| {
            fa.query_loc(memo, loc, resolver, stats)
        })
    }

    /// Resolves one call: feeds the callee ([`Eval::feed_callee`]) and
    /// applies the return binding to the exit it demanded.
    fn resolve_call(
        &mut self,
        caller: NodeId,
        call: &CallInput<'_, D>,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        Ok(match self.feed_callee(caller, call, memo, stats)? {
            Fed::Dead => D::bottom(),
            // Fall back to the domain's conservative call transfer.
            Fed::UnknownCallee => call.pre.transfer(call.stmt),
            Fed::Exit(site, exit) => {
                let key = binding_key(
                    CALL_RETURN,
                    call,
                    site.site_key,
                    &Value::state_digest(&exit),
                );
                self.bind(key, memo, || call.pre.call_return(site, &exit))
            }
        })
    }

    /// The half of a call that acts on the callee: joins the entry
    /// contribution of the pre-state into the callee's context and demands
    /// the callee's exit (a leaf's by content, [`Eval::leaf_exit`]).
    fn feed_callee<'s>(
        &mut self,
        caller: NodeId,
        call: &CallInput<'s, D>,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<Fed<'s, D>, DaigError>
    where
        'a: 's,
    {
        let Stmt::Call { lhs, callee, args } = call.stmt else {
            return Err(DaigError::Invariant("resolve_call on non-call".to_string()));
        };
        if call.pre.is_bottom() {
            return Ok(Fed::Dead);
        }
        let (program, table) = (self.program, self.table);
        let Some(out) = table.call_on(caller, call.edge) else {
            if program.by_name(callee.as_str()).is_none() {
                return Ok(Fed::UnknownCallee);
            }
            return Err(DaigError::Invariant(format!(
                "call to {callee} on {} is not in the context table",
                call.edge
            )));
        };
        let callee_cfg = &program.cfgs()[table.nodes[out.callee].func];
        debug_assert_eq!(callee_cfg.name(), callee, "context table is stale");
        let site = CallSite {
            lhs: lhs.as_ref(),
            callee,
            args: args.as_slice(),
            site_key: &out.site_key,
        };
        let params = callee_cfg.params();
        let key = binding_key(CALL_ENTRY, call, site.site_key, params);
        let contribution = self.bind(key, memo, || call.pre.call_entry(site, params));
        let unit = self.unit_of(out.callee);
        let fa = self.units.slots[unit].fa_mut();
        let joined = fa.entry_state().join(&contribution);
        fa.set_entry_state(joined);
        let exit = if table.nodes[out.callee].calls.is_empty() {
            self.leaf_exit(out.callee, unit, memo, stats)?
        } else {
            self.query_exit_of(out.callee, memo, stats)?
        };
        Ok(Fed::Exit(site, exit))
    }

    /// The exit of a `node` with no calls out, by content (module docs): a
    /// memo hit leaves the unit undemanded.
    fn leaf_exit(
        &mut self,
        node: NodeId,
        unit: UnitId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<D, DaigError> {
        let entry = Value::state_digest(self.units.slots[unit].fa_mut().entry_state());
        let key = exit_key(self.body_digest(self.table.nodes[node].func), entry);
        if let Some(Value::State(exit)) = memo.fetch(key) {
            return Ok(exit);
        }
        let exit = self.query_exit_of(node, memo, stats)?;
        memo.record(key, Value::State(exit.clone()));
        Ok(exit)
    }

    /// The `body_digest` of function `func`, taken once per edit epoch.
    fn body_digest(&mut self, func: usize) -> u128 {
        let epoch = self.units.epoch;
        match self.units.bodies.get(&func) {
            Some(&(at, digest)) if at == epoch => digest,
            _ => {
                let digest = body_digest(&self.program.cfgs()[func], self.units.strategy);
                self.units.bodies.insert(func, (epoch, digest));
                digest
            }
        }
    }

    /// One call binding: the memoized result under `key`, or `compute`'s,
    /// recorded.
    fn bind(
        &mut self,
        key: MemoKey,
        memo: &mut dyn MemoStore<Value<D>>,
        compute: impl FnOnce() -> D,
    ) -> D {
        if let Some(Value::State(bound)) = memo.fetch(key) {
            self.units.counters.binding_reused();
            return bound;
        }
        let bound = compute();
        memo.record(key, Value::State(bound.clone()));
        self.units.counters.binding_computed();
        bound
    }

    /// Seeds the entry of `node` from all of its call sites' current
    /// (fixed-point-consistent) pre-states. Needed when a query targets a
    /// function directly, before any caller has been demanded. A unit
    /// already forced in this edit epoch is left alone (module docs).
    fn force_entry(
        &mut self,
        node: NodeId,
        memo: &mut dyn MemoStore<Value<D>>,
        stats: &mut QueryStats,
    ) -> Result<(), DaigError> {
        if node == ENTRY_NODE {
            return Ok(());
        }
        let unit = self.unit_of(node);
        if self.units.slots[unit].forced_in == self.units.epoch {
            self.units.counters.force_skipped();
            return Ok(());
        }
        let table = self.table;
        for site in &table.nodes[node].sites {
            // The caller's own entry must be populated first (demand
            // flows transitively up the acyclic call graph).
            self.force_entry(site.caller, memo, stats)?;
            let caller_cfg = &self.program.cfgs()[table.nodes[site.caller].func];
            let edge = caller_cfg.edge(site.edge).ok_or_else(|| {
                DaigError::Invariant(format!(
                    "missing edge {} in {}",
                    site.edge,
                    caller_cfg.name()
                ))
            })?;
            let pre = self.query_loc_of(site.caller, edge.src, memo, stats)?;
            // Only the entry join is wanted: no return binding is made.
            let call = CallInput::new(&pre, &edge.stmt, site.edge);
            self.feed_callee(site.caller, &call, memo, stats)?;
        }
        self.units.slots[unit].forced_in = self.units.epoch;
        self.units.counters.entry_forced();
        Ok(())
    }
}

impl<D: AbstractDomain> InterAnalyzer<D> {
    /// Creates an analyzer for `program`, analyzing from `entry_fn` with
    /// entry state `φ₀` under the given context policy and the paper's
    /// default iteration strategy.
    pub fn new(
        program: LoweredProgram,
        policy: ContextPolicy,
        entry_fn: &str,
        phi0: D,
    ) -> InterAnalyzer<D> {
        InterAnalyzer::with_strategy(
            program,
            policy,
            entry_fn,
            phi0,
            crate::strategy::FixStrategy::PAPER,
        )
    }

    /// Like [`InterAnalyzer::new`] but with an explicit loop-head
    /// iteration strategy applied to every unit (see [`crate::strategy`]).
    pub fn with_strategy(
        program: LoweredProgram,
        policy: ContextPolicy,
        entry_fn: &str,
        phi0: D,
        strategy: crate::strategy::FixStrategy,
    ) -> InterAnalyzer<D> {
        InterAnalyzer::with_config(
            program,
            policy,
            entry_fn,
            phi0,
            strategy,
            crate::compile::TransferMode::default(),
        )
    }

    /// Like [`InterAnalyzer::with_strategy`] but with an explicit
    /// transfer-evaluation mode applied to every unit (see
    /// [`crate::compile`]).
    pub fn with_config(
        program: LoweredProgram,
        policy: ContextPolicy,
        entry_fn: &str,
        phi0: D,
        strategy: crate::strategy::FixStrategy,
        mode: crate::compile::TransferMode,
    ) -> InterAnalyzer<D> {
        let entry_fn = Symbol::new(entry_fn);
        let table = ContextTable::build(&program, policy, &entry_fn);
        let mut counters = Counters::new();
        counters.table_built();
        InterAnalyzer {
            units: Units {
                phi0,
                strategy,
                mode,
                slots: Vec::new(),
                ids: HashMap::new(),
                of_node: vec![None; table.nodes.len()],
                epoch: 1,
                bodies: HashMap::new(),
                counters,
            },
            program,
            policy,
            entry_fn,
            table,
            memo: MemoTable::new(),
            stats: QueryStats::default(),
        }
    }

    /// Bounds this analyzer's memo table to roughly `capacity` entries
    /// ([`MemoTable::with_capacity_limit`]); without it the table is
    /// unbounded. Meant for a new analyzer: entries held so far are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_memo_capacity(mut self, capacity: usize) -> InterAnalyzer<D> {
        self.memo = MemoTable::with_capacity_limit(capacity);
        self
    }

    /// After an edit moved the call graph.
    fn rebuild_table(&mut self) {
        self.table = ContextTable::build(&self.program, self.policy, &self.entry_fn);
        self.units.of_node = vec![None; self.table.nodes.len()];
        self.units.counters.table_built();
    }

    /// The program under analysis.
    pub fn program(&self) -> &LoweredProgram {
        &self.program
    }

    /// Cumulative query statistics.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// Shared memo-table statistics.
    pub fn memo_stats(&self) -> dai_memo::MemoStats {
        *self.memo.stats()
    }

    /// What the context table and the forced-entry stamps have done for
    /// this analyzer so far.
    pub fn counters(&self) -> InterprocCounters {
        self.units.counters.own
    }

    /// Number of DAIG units constructed so far.
    pub fn unit_count(&self) -> usize {
        self.units.slots.len()
    }

    /// All `(function, context)` units constructed so far, unordered
    /// (callers sort for deterministic output — see `dai-engine`'s
    /// session snapshot).
    pub fn units_iter(&self) -> impl Iterator<Item = (&(Symbol, Context), &FuncAnalysis<D>)> {
        self.units.slots.iter().map(|slot| {
            let fa = slot.fa.as_ref().expect("no query is in progress");
            (&slot.key, fa)
        })
    }

    /// All contexts in which `f` can be analyzed under the policy,
    /// ascending: a lookup in the context table.
    pub fn contexts_of(&self, f: &str) -> Vec<Context> {
        self.program
            .func_index(f)
            .map_or(&[][..], |func| &self.table.by_func[func])
            .iter()
            .map(|&node| self.table.nodes[node].ctx.clone())
            .collect()
    }

    /// Runs `demand` as one query: the memo table and a fresh stats
    /// record are threaded through and folded back whatever the outcome.
    fn run_query<T>(
        &mut self,
        demand: impl FnOnce(
            &mut Eval<'_, D>,
            &mut dyn MemoStore<Value<D>>,
            &mut QueryStats,
        ) -> Result<T, DaigError>,
    ) -> Result<T, DaigError> {
        let mut memo = std::mem::take(&mut self.memo);
        let mut stats = QueryStats::default();
        let mut eval = Eval {
            program: &self.program,
            table: &self.table,
            units: &mut self.units,
        };
        let result = demand(&mut eval, &mut memo, &mut stats);
        self.memo = memo;
        self.stats.absorb(stats);
        result
    }

    /// Demands the abstract state at `loc` of `f` under every context the
    /// call structure induces, returning per-context results.
    ///
    /// A function with no contexts is unreachable from the entry: every
    /// location in it is dead code, reported as no results (joined: ⊥).
    /// This matches demand semantics — a DAIG for it would have a ⊥ entry.
    ///
    /// # Errors
    ///
    /// Returns [`DaigError`] for unknown functions/locations or internal
    /// inconsistencies.
    pub fn query_at(&mut self, f: &str, loc: Loc) -> Result<Vec<(Context, D)>, DaigError> {
        let Some(func) = self.program.func_index(f) else {
            return Err(DaigError::NoSuchCell(format!("function {f}")));
        };
        self.run_query(|eval, memo, stats| {
            let table = eval.table;
            let nodes = &table.by_func[func];
            let mut out = Vec::with_capacity(nodes.len());
            for &node in nodes {
                eval.force_entry(node, memo, stats)?;
                let v = eval.query_loc_of(node, loc, memo, stats)?;
                out.push((table.nodes[node].ctx.clone(), v));
            }
            Ok(out)
        })
    }

    /// Like [`InterAnalyzer::query_at`] but joined over contexts.
    ///
    /// # Errors
    ///
    /// See [`InterAnalyzer::query_at`].
    pub fn query_joined(&mut self, f: &str, loc: Loc) -> Result<D, DaigError> {
        let per_ctx = self.query_at(f, loc)?;
        let mut acc = D::bottom();
        for (_, v) in per_ctx {
            acc = acc.join(&v);
        }
        Ok(acc)
    }

    /// Evaluates everything: every unit of every reachable
    /// (function, context), callers before callees so entry joins are
    /// complete. Used by the exhaustive driver configurations.
    ///
    /// # Errors
    ///
    /// See [`InterAnalyzer::query_at`].
    pub fn evaluate_everything(&mut self) -> Result<(), DaigError> {
        self.run_query(|eval, memo, stats| {
            let (program, table) = (eval.program, eval.table);
            // Callers first: reverse of callees-first topo order.
            for f in program.topo_order().iter().rev() {
                let func = program.func_index(f.as_str()).expect("ordered name");
                for &node in &table.by_func[func] {
                    eval.force_entry(node, memo, stats)?;
                    eval.with_unit(node, |fa, resolver| fa.evaluate_all(memo, resolver, stats))?;
                }
            }
            Ok(())
        })
    }

    /// Applies an in-place statement relabel to `f` (all contexts),
    /// propagating dirtiness across function boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] for unknown edges and call-graph violations;
    /// the analyzer is then unchanged.
    pub fn relabel(&mut self, f: &str, edge: EdgeId, stmt: Stmt) -> Result<(), CfgError> {
        self.program.relabel(f, edge, stmt.clone())?;
        self.edit_units(f, |unit| unit.relabel(edge, stmt.clone()))
    }

    /// Applies a block splice to `f` (all contexts).
    ///
    /// # Errors
    ///
    /// Returns [`CfgError`] for unknown edges, non-falling blocks, and
    /// call-graph violations; the analyzer is then unchanged.
    pub fn splice(&mut self, f: &str, edge: EdgeId, block: &Block) -> Result<SpliceInfo, CfgError> {
        let info = self.program.splice(f, edge, block)?;
        self.edit_units(f, |unit| unit.splice(edge, block).map(|_| ()))?;
        Ok(info)
    }

    /// After the program accepted an edit to `f`: replays it on every
    /// unit of `f` and applies the one edit rule (module docs).
    fn edit_units(
        &mut self,
        f: &str,
        mut edit: impl FnMut(&mut FuncAnalysis<D>) -> Result<(), CfgError>,
    ) -> Result<(), CfgError> {
        if self.table.version != self.program.call_graph_version() {
            self.rebuild_table();
        }
        for slot in &mut self.units.slots {
            if slot.key.0.as_str() == f {
                edit(slot.fa_mut())?;
            }
        }
        let calls: Vec<Name> = self
            .program
            .func_index(self.entry_fn.as_str())
            .map_or(&[][..], |func| self.program.calls_out(func))
            .iter()
            .map(|&(edge, _)| Name::Stmt(edge))
            .collect();
        self.reset_units(|entry| {
            for call in &calls {
                crate::edit::dirty_dependents(entry.daig_mut(), call);
            }
        });
        Ok(())
    }

    /// Moves the edit epoch and resets every unit but the entry unit: its
    /// entry goes back to ⊥, to be re-accumulated on demand, and every
    /// result is dropped. `entry` says what the entry unit loses.
    fn reset_units(&mut self, mut entry: impl FnMut(&mut FuncAnalysis<D>)) {
        self.units.epoch += 1;
        let entry_fn = &self.entry_fn;
        for slot in &mut self.units.slots {
            let is_entry = slot.key.0 == *entry_fn && slot.key.1 .0.is_empty();
            let unit = slot.fa_mut();
            if is_entry {
                entry(unit);
            } else {
                unit.reset(D::bottom());
            }
        }
    }

    /// Discards all analysis results but keeps program structure (the
    /// demand-driven-only configuration's "dirty the full DAIG").
    pub fn dirty_everything(&mut self) {
        self.reset_units(FuncAnalysis::dirty_everything);
        self.memo.clear();
    }

    /// Access to a unit, for tests and inspection.
    pub fn unit(&self, f: &str, ctx: &Context) -> Option<&FuncAnalysis<D>> {
        let unit = *self.units.ids.get(&(Symbol::new(f), ctx.clone()))?;
        self.units.slots[unit].fa.as_ref()
    }

    /// Drops every forced-entry stamp, so the next query re-forces each
    /// entry it needs as if an edit had just happened. Test-only: the
    /// differential oracle for the stamps.
    #[doc(hidden)]
    pub fn drop_forced_stamps(&mut self) {
        self.units.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parser::parse_program;

    fn lower(src: &str) -> LoweredProgram {
        lower_program(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn a_forcing_that_fails_part_way_is_retried_by_the_next_query() {
        let program = lower(
            "function low(v) { return v + 1; } \
             function mid(v) { var t = v + 1; var w = low(t); return w; } \
             function main() { var a = mid(1); return a; }",
        );
        let mut an: InterAnalyzer<IntervalDomain> = InterAnalyzer::new(
            program,
            ContextPolicy::CallString(1),
            "main",
            IntervalDomain::top(),
        );
        let low_exit = an.program().by_name("low").unwrap().exit();
        let answer = an.query_joined("low", low_exit).unwrap();
        an.drop_forced_stamps();

        // Swap `mid`'s unit for one over a CFG without the call: the call
        // site's source location is unknown there, so forcing `low` gets
        // as far as `mid` (whose own forcing succeeds) and then fails.
        let unit_of = |an: &InterAnalyzer<IntervalDomain>, f: &str| {
            let unit = an.units.slots.iter().position(|s| s.key.0.as_str() == f);
            unit.expect("demanded unit")
        };
        let (low, mid) = (unit_of(&an, "low"), unit_of(&an, "mid"));
        let stub = lower("function mid(v) { return v; }").cfgs()[0].clone();
        let real = an.units.slots[mid]
            .fa
            .replace(FuncAnalysis::new(stub, IntervalDomain::top()));
        let before = an.counters();
        let err = an.query_joined("low", low_exit).unwrap_err();
        assert!(matches!(err, DaigError::NoSuchCell(_)), "{err}");
        assert_eq!(an.units.slots[mid].forced_in, an.units.epoch);
        assert_ne!(an.units.slots[low].forced_in, an.units.epoch);
        assert_eq!(an.counters().entries_forced, before.entries_forced + 1);

        // With the unit back, the next query forces `low` after all.
        an.units.slots[mid].fa = real;
        assert_eq!(an.query_joined("low", low_exit).unwrap(), answer);
        assert_eq!(an.units.slots[low].forced_in, an.units.epoch);
        assert_eq!(an.counters().entries_forced, before.entries_forced + 2);
        assert_eq!(
            an.counters().entry_force_skips,
            before.entry_force_skips + 1
        );
    }

    #[test]
    fn context_table_orders_sites_as_forcing_visits_them() {
        // `id` is called twice from `main` and once from `addOne`, which
        // is defined before `main`.
        let program = lower(
            "function id(v) { return v; } \
             function addOne(v) { var w = id(v); return w + 1; } \
             function main() { var a = id(10); var b = addOne(a); var c = id(b); return c; }",
        );
        let table = ContextTable::build(&program, ContextPolicy::Insensitive, &Symbol::new("main"));
        let id = table.by_func[program.func_index("id").unwrap()][0];
        let sites: Vec<(String, EdgeId)> = table.nodes[id]
            .sites
            .iter()
            .map(|s| {
                let caller = &program.cfgs()[table.nodes[s.caller].func];
                (caller.name().to_string(), s.edge)
            })
            .collect();
        assert_eq!(sites, program_sites(&program, "id"));
        assert_eq!(table.nodes[ENTRY_NODE].calls.len(), 3);
        assert_eq!(table.nodes[ENTRY_NODE].calls[0].site_key, "main:e0");
    }

    #[test]
    fn binding_keys_tell_sites_and_callee_parameters_apart() {
        // One statement text and one pre-state, as at two sites of `main`.
        let stmt = Stmt::Call {
            lhs: Some(Symbol::new("y")),
            callee: Symbol::new("g"),
            args: vec![dai_lang::parse_expr("x + 1").unwrap()],
        };
        let pre = IntervalDomain::top();
        let call = CallInput::new(&pre, &stmt, EdgeId(0));
        let (p, q) = ([Symbol::new("p")], [Symbol::new("q")]);
        let key = |site: &str, params: &[Symbol]| binding_key(CALL_ENTRY, &call, site, params);
        assert_eq!(key("main:e0", &p), key("main:e0", &p));
        assert_ne!(key("main:e0", &p), key("main:e3", &p), "site keys");
        assert_ne!(key("main:e0", &p), key("main:e0", &q), "callee parameters");
        let exit = Value::state_digest(&pre);
        assert_ne!(
            binding_key(CALL_RETURN, &call, "main:e0", &exit),
            binding_key(CALL_RETURN, &call, "main:e3", &exit),
            "site keys of a return binding"
        );
    }

    #[test]
    fn exit_keys_move_with_the_body_and_the_entry_and_equal_bodies_share_one() {
        let program = lower(
            "function f(p) { var i = 0; while (i < p) { i = i + 1; } return i; } \
             function same(p) { var i = 0; while (i < p) { i = i + 1; } return i; } \
             function stmt(p) { var i = 1; while (i < p) { i = i + 1; } return i; } \
             function param(p, q) { var i = 0; while (i < p) { i = i + 1; } return i; } \
             function main() { return 0; }",
        );
        let cfg = |f: &str| program.by_name(f).unwrap();
        let (low, high) = (IntervalDomain::top(), IntervalDomain::bottom());
        let key = |f: &str, strategy: FixStrategy, entry: &IntervalDomain| {
            exit_key(body_digest(cfg(f), strategy), Value::state_digest(entry))
        };
        let base = key("f", FixStrategy::PAPER, &low);
        assert_eq!(base, key("same", FixStrategy::PAPER, &low), "equal bodies");
        assert_ne!(base, key("stmt", FixStrategy::PAPER, &low), "a statement");
        assert_ne!(base, key("param", FixStrategy::PAPER, &low), "a parameter");
        assert_ne!(base, key("f", FixStrategy::PAPER, &high), "the entry");
        assert_ne!(
            base,
            key("f", FixStrategy::delayed(2), &low),
            "the strategy"
        );
    }

    /// `count` is a leaf called from `main` only. After an edit elsewhere,
    /// `main`'s exit finds `count`'s exit in the memo table and leaves its
    /// reset unit alone; a query inside `count` then fills it, and answers
    /// like a fresh analyzer asked the same queries.
    #[test]
    fn a_query_inside_a_leaf_skipped_by_an_exit_hit_answers_like_a_fresh_analysis() {
        let src = "function count(n) { var i = 0; while (i < n) { i = i + 1; } return i; } \
                   function other(q) { return q + 1; } \
                   function main() { var a = count(5); var b = other(a); return b; }";
        for policy in [ContextPolicy::Insensitive, ContextPolicy::CallString(2)] {
            let mut an: InterAnalyzer<IntervalDomain> =
                InterAnalyzer::new(lower(src), policy, "main", IntervalDomain::top());
            let main_exit = an.program().by_name("main").unwrap().exit();
            an.query_joined("main", main_exit).unwrap();
            let ret = an
                .program()
                .by_name("other")
                .unwrap()
                .edges()
                .next()
                .unwrap()
                .id;
            let stmt = Stmt::Assign(
                Symbol::new(dai_lang::RETURN_VAR),
                dai_lang::parse_expr("q + 2").unwrap(),
            );
            an.relabel("other", ret, stmt).unwrap();

            let ctx = an.contexts_of("count").pop().unwrap();
            let filled = |an: &InterAnalyzer<IntervalDomain>| {
                an.unit("count", &ctx).unwrap().daig().filled_count()
            };
            let reset = filled(&an);
            let hits = an.memo_stats().hits;
            let answer = an.query_joined("main", main_exit).unwrap();
            assert!(an.memo_stats().hits > hits);
            assert_eq!(filled(&an), reset, "{policy:?}: the leaf was demanded");

            let mut fresh: InterAnalyzer<IntervalDomain> =
                InterAnalyzer::new(an.program().clone(), policy, "main", IntervalDomain::top());
            assert_eq!(fresh.query_joined("main", main_exit).unwrap(), answer);
            for loc in an.program().by_name("count").unwrap().locs() {
                let got = an.query_at("count", loc).unwrap();
                assert_eq!(
                    got,
                    fresh.query_at("count", loc).unwrap(),
                    "{policy:?} {loc}"
                );
            }
            assert!(filled(&an) > reset);
        }
    }

    fn program_sites(program: &LoweredProgram, f: &str) -> Vec<(String, EdgeId)> {
        program
            .call_sites_of(f)
            .into_iter()
            .map(|(g, e)| (g.to_string(), e))
            .collect()
    }
}
