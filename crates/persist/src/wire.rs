//! The [`Persist`] trait — hand-rolled binary encode/decode — and its
//! implementations for every type a snapshot carries: the subject
//! language's syntax (`dai-lang`), DAIG cell names and values
//! (`dai-core`), and the abstract states of every shipped domain
//! (`dai-domains`).
//!
//! Design rules:
//!
//! * **Self-describing enough to fail loudly.** Every enum writes a one-
//!   byte tag; decoders reject unknown tags with
//!   [`PersistError::Corrupt`] instead of guessing. Counts are bounded by
//!   the remaining input, so a corrupted length can never trigger a
//!   pathological allocation.
//! * **Canonical in, canonical out.** Domain states re-enter through
//!   their normalizing constructors (`from_bindings`, [`Oct::from_packed`],
//!   [`Sign::from_bits`]), so a decoded state satisfies the same
//!   representation invariants `Eq`/`Hash` rely on — a snapshot cannot
//!   smuggle in a non-canonical state that would break `Q-Loop-Converge`.
//! * **Bounded recursion.** [`Expr`] and [`AstStmt`] are recursive;
//!   decoding tracks depth and rejects nesting beyond
//!   [`MAX_DECODE_DEPTH`], so corrupt input cannot overflow the stack.
//!
//! ## The octagon's state tags
//!
//! An octagon state opens with a tag byte: `0` is ⊥ and `3` a non-bottom
//! octagon — its variable count, its sorted names, then the **packed half
//! matrix as the domain stores it** (`2n(n+1)` entries for `n` variables,
//! see `dai_domains::octagon`) in the run-length token encoding below.
//! Nothing is expanded to write it or re-packed to read it: the decoder
//! checks the half's length, the names' order and the one relation the
//! half holds twice (the two diagonal entries of a block), and every other
//! coherence condition is structural. Tags `1` (the raw full matrix) and
//! `2` (the token encoding over the full `(2n)²` matrix) are retired:
//! no writer emits them and the reader treats them as any unknown tag,
//! here and on the socket, where the same `Persist` form is the answer
//! blob. A snapshot section or journal frame holding one fails to decode
//! and is dropped cold — [`crate::snapshot::FUNC_VERSION`] moved with
//! tag 3 so that such a section is skipped on its version before a byte
//! of it is read.

use crate::codec::{PersistError, Reader, Writer};
use dai_core::driver::ProgramEdit;
use dai_core::name::{IterCtx, Name};
use dai_core::strategy::{Convergence, FixStrategy};
use dai_domains::bool3::Bool3;
use dai_domains::constprop::Const;
use dai_domains::interval::{AbsVal, ArrayAbs, Bound, Interval};
use dai_domains::octagon::{Oct, OctagonDomain};
use dai_domains::shape::{Addr, ShapeDomain, SymHeap};
use dai_domains::sign::Sign;
use dai_domains::{AbstractDomain, NonRel, Prod, ValueLattice};
use dai_lang::{AstStmt, BinOp, Block, EdgeId, Expr, Loc, Stmt, Symbol, UnOp};

/// Maximum nesting depth accepted when decoding recursive syntax.
pub const MAX_DECODE_DEPTH: u32 = 512;

/// Binary encode/decode against the [`crate::codec`] primitives.
pub trait Persist: Sized {
    /// Appends this value's encoding to `w`.
    fn put(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    ///
    /// # Errors
    ///
    /// [`PersistError`] on truncated or structurally invalid input.
    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError>;
}

/// An [`AbstractDomain`] that snapshots can carry, with a tag naming the
/// domain so a file saved under one domain is rejected (rather than
/// misdecoded) when loaded under another.
pub trait PersistDomain: AbstractDomain + Persist {
    /// A stable, human-readable name of the domain ("interval",
    /// "octagon", …) recorded in the session header.
    fn domain_tag() -> String;

    /// A cheap identity token for encode memoization, or `None` (the
    /// default) to opt out.
    ///
    /// Contract: while both states are alive, two states returning the
    /// same `Some` token must encode to identical bytes under
    /// [`Persist::put`]. Tokens derived from allocation addresses are
    /// only unique for as long as the allocation lives, so a cache
    /// keyed on them must retain a clone of the state alongside each
    /// entry to pin the address.
    fn encode_identity(&self) -> Option<u64> {
        None
    }
}

pub(crate) fn bad_tag(what: &str, tag: u8) -> PersistError {
    PersistError::Corrupt(format!("unknown {what} tag {tag}"))
}

// ---------------------------------------------------------------------
// Primitives and containers.
// ---------------------------------------------------------------------

impl Persist for bool {
    fn put(&self, w: &mut Writer) {
        w.u8(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(bad_tag("bool", t)),
        }
    }
}

impl Persist for u32 {
    fn put(&self, w: &mut Writer) {
        w.u32(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.u32()
    }
}

impl Persist for u64 {
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.u64()
    }
}

impl Persist for i64 {
    fn put(&self, w: &mut Writer) {
        w.i64(*self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.i64()
    }
}

impl Persist for String {
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.str()
    }
}

impl Persist for Symbol {
    fn put(&self, w: &mut Writer) {
        w.str(self.as_str());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        // `str_ref` borrows the input: one allocation (the `Arc<str>`)
        // per symbol instead of two.
        Ok(Symbol::new(r.str_ref()?))
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.u64()?;
        // Every element consumes at least one byte, so a count beyond the
        // remaining input is structurally impossible.
        if n > r.remaining() as u64 {
            return Err(PersistError::Corrupt(format!(
                "collection count {n} exceeds remaining input"
            )));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Persist> Persist for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            t => Err(bad_tag("option", t)),
        }
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl Persist for dai_core::query::QueryStats {
    fn put(&self, w: &mut Writer) {
        w.u64(self.computed);
        w.u64(self.memo_matched);
        w.u64(self.reused);
        w.u64(self.unrolls);
        w.u64(self.fix_converged);
        w.u64(self.cone_walks);
        w.u64(self.cone_cells);
        w.u64(self.transfers_compiled);
        w.u64(self.transfers_interp);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(dai_core::query::QueryStats {
            computed: r.u64()?,
            memo_matched: r.u64()?,
            reused: r.u64()?,
            unrolls: r.u64()?,
            fix_converged: r.u64()?,
            cone_walks: r.u64()?,
            cone_cells: r.u64()?,
            transfers_compiled: r.u64()?,
            transfers_interp: r.u64()?,
        })
    }
}

impl Persist for dai_memo::MemoStats {
    fn put(&self, w: &mut Writer) {
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.insertions);
        w.u64(self.evictions);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(dai_memo::MemoStats {
            hits: r.u64()?,
            misses: r.u64()?,
            insertions: r.u64()?,
            evictions: r.u64()?,
        })
    }
}

// ---------------------------------------------------------------------
// dai-lang: locations, edges, expressions, statements, blocks.
// ---------------------------------------------------------------------

impl Persist for Loc {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Loc(r.u32()?))
    }
}

impl Persist for EdgeId {
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(EdgeId(r.u32()?))
    }
}

impl Persist for UnOp {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            UnOp::Neg => 0,
            UnOp::Not => 1,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            0 => Ok(UnOp::Neg),
            1 => Ok(UnOp::Not),
            t => Err(bad_tag("unop", t)),
        }
    }
}

impl Persist for BinOp {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Div => 3,
            BinOp::Mod => 4,
            BinOp::Eq => 5,
            BinOp::Ne => 6,
            BinOp::Lt => 7,
            BinOp::Le => 8,
            BinOp::Gt => 9,
            BinOp::Ge => 10,
            BinOp::And => 11,
            BinOp::Or => 12,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => BinOp::Add,
            1 => BinOp::Sub,
            2 => BinOp::Mul,
            3 => BinOp::Div,
            4 => BinOp::Mod,
            5 => BinOp::Eq,
            6 => BinOp::Ne,
            7 => BinOp::Lt,
            8 => BinOp::Le,
            9 => BinOp::Gt,
            10 => BinOp::Ge,
            11 => BinOp::And,
            12 => BinOp::Or,
            t => return Err(bad_tag("binop", t)),
        })
    }
}

fn put_expr(e: &Expr, w: &mut Writer) {
    match e {
        Expr::Int(n) => {
            w.u8(0);
            w.i64(*n);
        }
        Expr::Bool(b) => {
            w.u8(1);
            b.put(w);
        }
        Expr::Null => w.u8(2),
        Expr::Var(v) => {
            w.u8(3);
            v.put(w);
        }
        Expr::Unary(op, inner) => {
            w.u8(4);
            op.put(w);
            put_expr(inner, w);
        }
        Expr::Binary(op, l, rhs) => {
            w.u8(5);
            op.put(w);
            put_expr(l, w);
            put_expr(rhs, w);
        }
        Expr::ArrayLit(es) => {
            w.u8(6);
            w.u64(es.len() as u64);
            for e in es {
                put_expr(e, w);
            }
        }
        Expr::ArrayRead(a, i) => {
            w.u8(7);
            put_expr(a, w);
            put_expr(i, w);
        }
        Expr::ArrayLen(a) => {
            w.u8(8);
            put_expr(a, w);
        }
        Expr::Field(e, f) => {
            w.u8(9);
            put_expr(e, w);
            f.put(w);
        }
        Expr::AllocNode => w.u8(10),
    }
}

fn get_expr(r: &mut Reader<'_>, depth: u32) -> Result<Expr, PersistError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(PersistError::Corrupt(
            "expression nesting exceeds decode depth bound".to_string(),
        ));
    }
    Ok(match r.u8()? {
        0 => Expr::Int(r.i64()?),
        1 => Expr::Bool(bool::get(r)?),
        2 => Expr::Null,
        3 => Expr::Var(Symbol::get(r)?),
        4 => Expr::Unary(UnOp::get(r)?, Box::new(get_expr(r, depth + 1)?)),
        5 => {
            let op = BinOp::get(r)?;
            let l = get_expr(r, depth + 1)?;
            let rhs = get_expr(r, depth + 1)?;
            Expr::Binary(op, Box::new(l), Box::new(rhs))
        }
        6 => {
            let n = r.u64()?;
            if n > r.remaining() as u64 {
                return Err(PersistError::Corrupt(
                    "array literal count exceeds remaining input".to_string(),
                ));
            }
            let mut es = Vec::with_capacity(n as usize);
            for _ in 0..n {
                es.push(get_expr(r, depth + 1)?);
            }
            Expr::ArrayLit(es)
        }
        7 => {
            let a = get_expr(r, depth + 1)?;
            let i = get_expr(r, depth + 1)?;
            Expr::ArrayRead(Box::new(a), Box::new(i))
        }
        8 => Expr::ArrayLen(Box::new(get_expr(r, depth + 1)?)),
        9 => {
            let e = get_expr(r, depth + 1)?;
            Expr::Field(Box::new(e), Symbol::get(r)?)
        }
        10 => Expr::AllocNode,
        t => return Err(bad_tag("expr", t)),
    })
}

impl Persist for Expr {
    fn put(&self, w: &mut Writer) {
        put_expr(self, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        get_expr(r, 0)
    }
}

impl Persist for Stmt {
    fn put(&self, w: &mut Writer) {
        match self {
            Stmt::Skip => w.u8(0),
            Stmt::Assign(x, e) => {
                w.u8(1);
                x.put(w);
                e.put(w);
            }
            Stmt::ArrayWrite(a, i, e) => {
                w.u8(2);
                a.put(w);
                i.put(w);
                e.put(w);
            }
            Stmt::FieldWrite(x, f, e) => {
                w.u8(3);
                x.put(w);
                f.put(w);
                e.put(w);
            }
            Stmt::Assume(e) => {
                w.u8(4);
                e.put(w);
            }
            Stmt::Print(e) => {
                w.u8(5);
                e.put(w);
            }
            Stmt::Call { lhs, callee, args } => {
                w.u8(6);
                lhs.put(w);
                callee.put(w);
                args.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => Stmt::Skip,
            1 => Stmt::Assign(Symbol::get(r)?, Expr::get(r)?),
            2 => Stmt::ArrayWrite(Symbol::get(r)?, Expr::get(r)?, Expr::get(r)?),
            3 => Stmt::FieldWrite(Symbol::get(r)?, Symbol::get(r)?, Expr::get(r)?),
            4 => Stmt::Assume(Expr::get(r)?),
            5 => Stmt::Print(Expr::get(r)?),
            6 => Stmt::Call {
                lhs: Option::<Symbol>::get(r)?,
                callee: Symbol::get(r)?,
                args: Vec::<Expr>::get(r)?,
            },
            t => return Err(bad_tag("stmt", t)),
        })
    }
}

fn put_ast(s: &AstStmt, w: &mut Writer) {
    match s {
        AstStmt::Simple(s) => {
            w.u8(0);
            s.put(w);
        }
        AstStmt::If { cond, then_, else_ } => {
            w.u8(1);
            cond.put(w);
            put_block(then_, w);
            put_block(else_, w);
        }
        AstStmt::While { cond, body } => {
            w.u8(2);
            cond.put(w);
            put_block(body, w);
        }
        AstStmt::Nested(b) => {
            w.u8(3);
            put_block(b, w);
        }
        AstStmt::Return(e) => {
            w.u8(4);
            e.put(w);
        }
    }
}

fn put_block(b: &Block, w: &mut Writer) {
    w.u64(b.0.len() as u64);
    for s in &b.0 {
        put_ast(s, w);
    }
}

fn get_ast(r: &mut Reader<'_>, depth: u32) -> Result<AstStmt, PersistError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(PersistError::Corrupt(
            "statement nesting exceeds decode depth bound".to_string(),
        ));
    }
    Ok(match r.u8()? {
        0 => AstStmt::Simple(Stmt::get(r)?),
        1 => {
            let cond = Expr::get(r)?;
            let then_ = get_block(r, depth + 1)?;
            let else_ = get_block(r, depth + 1)?;
            AstStmt::If { cond, then_, else_ }
        }
        2 => {
            let cond = Expr::get(r)?;
            let body = get_block(r, depth + 1)?;
            AstStmt::While { cond, body }
        }
        3 => AstStmt::Nested(get_block(r, depth + 1)?),
        4 => AstStmt::Return(Option::<Expr>::get(r)?),
        t => return Err(bad_tag("ast-stmt", t)),
    })
}

fn get_block(r: &mut Reader<'_>, depth: u32) -> Result<Block, PersistError> {
    let n = r.u64()?;
    if n > r.remaining() as u64 {
        return Err(PersistError::Corrupt(
            "block count exceeds remaining input".to_string(),
        ));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(get_ast(r, depth)?);
    }
    Ok(Block(out))
}

impl Persist for AstStmt {
    fn put(&self, w: &mut Writer) {
        put_ast(self, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        get_ast(r, 0)
    }
}

impl Persist for Block {
    fn put(&self, w: &mut Writer) {
        put_block(self, w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        get_block(r, 0)
    }
}

// ---------------------------------------------------------------------
// dai-core: edits, names, strategies.
// ---------------------------------------------------------------------

impl Persist for ProgramEdit {
    fn put(&self, w: &mut Writer) {
        match self {
            ProgramEdit::Relabel { func, edge, stmt } => {
                w.u8(0);
                func.put(w);
                edge.put(w);
                stmt.put(w);
            }
            ProgramEdit::Insert { func, edge, block } => {
                w.u8(1);
                func.put(w);
                edge.put(w);
                block.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => ProgramEdit::Relabel {
                func: Symbol::get(r)?,
                edge: EdgeId::get(r)?,
                stmt: Stmt::get(r)?,
            },
            1 => ProgramEdit::Insert {
                func: Symbol::get(r)?,
                edge: EdgeId::get(r)?,
                block: Block::get(r)?,
            },
            t => return Err(bad_tag("edit", t)),
        })
    }
}

impl Persist for IterCtx {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(IterCtx(Vec::<(Loc, u32)>::get(r)?))
    }
}

impl Persist for Name {
    fn put(&self, w: &mut Writer) {
        match self {
            Name::State { loc, ctx } => {
                w.u8(0);
                loc.put(w);
                ctx.put(w);
            }
            Name::PreWiden { head, ctx } => {
                w.u8(1);
                head.put(w);
                ctx.put(w);
            }
            Name::Stmt(e) => {
                w.u8(2);
                e.put(w);
            }
            Name::PreJoin { edge, ctx } => {
                w.u8(3);
                edge.put(w);
                ctx.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => Name::State {
                loc: Loc::get(r)?,
                ctx: IterCtx::get(r)?,
            },
            1 => Name::PreWiden {
                head: Loc::get(r)?,
                ctx: IterCtx::get(r)?,
            },
            2 => Name::Stmt(EdgeId::get(r)?),
            3 => Name::PreJoin {
                edge: EdgeId::get(r)?,
                ctx: IterCtx::get(r)?,
            },
            t => return Err(bad_tag("name", t)),
        })
    }
}

impl Persist for dai_core::interproc::ContextPolicy {
    fn put(&self, w: &mut Writer) {
        match self {
            dai_core::interproc::ContextPolicy::Insensitive => w.u8(0),
            dai_core::interproc::ContextPolicy::CallString(k) => {
                w.u8(1);
                w.u64(*k as u64);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => dai_core::interproc::ContextPolicy::Insensitive,
            1 => dai_core::interproc::ContextPolicy::CallString(r.u64()? as usize),
            t => return Err(bad_tag("context-policy", t)),
        })
    }
}

impl Persist for Convergence {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            Convergence::Equal => 0,
            Convergence::Leq => 1,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            0 => Ok(Convergence::Equal),
            1 => Ok(Convergence::Leq),
            t => Err(bad_tag("convergence", t)),
        }
    }
}

impl Persist for FixStrategy {
    fn put(&self, w: &mut Writer) {
        w.u32(self.widen_delay);
        self.convergence.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(FixStrategy {
            widen_delay: r.u32()?,
            convergence: Convergence::get(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// dai-domains: the shipped abstract domains.
// ---------------------------------------------------------------------

impl Persist for Bool3 {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            Bool3::Bot => 0,
            Bool3::True => 1,
            Bool3::False => 2,
            Bool3::Top => 3,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => Bool3::Bot,
            1 => Bool3::True,
            2 => Bool3::False,
            3 => Bool3::Top,
            t => return Err(bad_tag("bool3", t)),
        })
    }
}

impl Persist for Bound {
    fn put(&self, w: &mut Writer) {
        match self {
            Bound::NegInf => w.u8(0),
            Bound::Fin(n) => {
                w.u8(1);
                w.i64(*n);
            }
            Bound::PosInf => w.u8(2),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => Bound::NegInf,
            1 => Bound::Fin(r.i64()?),
            2 => Bound::PosInf,
            t => return Err(bad_tag("bound", t)),
        })
    }
}

impl Persist for Interval {
    fn put(&self, w: &mut Writer) {
        self.lo().put(w);
        self.hi().put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        // `Interval::new` canonicalizes the empty interval.
        Ok(Interval::new(Bound::get(r)?, Bound::get(r)?))
    }
}

impl Persist for AbsVal {
    fn put(&self, w: &mut Writer) {
        match self {
            AbsVal::Bot => w.u8(0),
            AbsVal::Num(iv) => {
                w.u8(1);
                iv.put(w);
            }
            AbsVal::Boolean(b) => {
                w.u8(2);
                b.put(w);
            }
            AbsVal::NullRef => w.u8(3),
            AbsVal::NodeRef => w.u8(4),
            AbsVal::AnyRef => w.u8(5),
            AbsVal::Arr(a) => {
                w.u8(6);
                a.len.put(w);
                a.elem.put(w);
            }
            AbsVal::Top => w.u8(7),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => AbsVal::Bot,
            1 => AbsVal::Num(Interval::get(r)?),
            2 => AbsVal::Boolean(Bool3::get(r)?),
            3 => AbsVal::NullRef,
            4 => AbsVal::NodeRef,
            5 => AbsVal::AnyRef,
            6 => {
                let len = Interval::get(r)?;
                let elem = AbsVal::get(r)?;
                AbsVal::Arr(ArrayAbs {
                    len,
                    elem: Box::new(elem),
                })
            }
            7 => AbsVal::Top,
            t => return Err(bad_tag("absval", t)),
        })
    }
}

/// Every [`NonRel`] instance: a tag byte (`0` is `⊥`), then the `(Symbol,
/// V)` pairs in the order the environment holds them, sorted by variable,
/// so encoding is deterministic.
impl<V: ValueLattice + Persist> Persist for NonRel<V> {
    fn put(&self, w: &mut Writer) {
        let Some(env) = self.env() else {
            return w.u8(0);
        };
        w.u8(1);
        let bindings = env.iter();
        w.u64(bindings.len() as u64);
        for (k, v) in bindings {
            k.put(w);
            v.put(w);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => NonRel::bottom(),
            // `from_bindings` re-normalizes, so decoded states satisfy the
            // domain's canonical-form invariant.
            1 => NonRel::from_bindings(Vec::<(Symbol, V)>::get(r)?),
            t => return Err(bad_tag("env-domain", t)),
        })
    }
}

impl Persist for Sign {
    fn put(&self, w: &mut Writer) {
        w.u8(self.bits());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let bits = r.u8()?;
        Sign::from_bits(bits).ok_or_else(|| bad_tag("sign", bits))
    }
}

impl Persist for Const {
    fn put(&self, w: &mut Writer) {
        match self {
            Const::Int(n) => {
                w.u8(0);
                w.i64(*n);
            }
            Const::Bool(b) => {
                w.u8(1);
                b.put(w);
            }
            Const::Null => w.u8(2),
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => Const::Int(r.i64()?),
            1 => Const::Bool(bool::get(r)?),
            2 => Const::Null,
            t => return Err(bad_tag("const", t)),
        })
    }
}

/// Token bytes of the compact DBM encoding (octagon tag 3, over the packed
/// half). A closed octagon's difference-bound matrix is dominated by `INF`
/// (no constraint) and small finite bounds, so the raw 8-bytes-per-entry
/// layout spends ~90% of its bytes on two values. The compact layout
/// emits one token byte per run/entry:
///
/// * `0xFF` — a run of `INF` entries; a length-prefix varint-free `u32`
///   run length follows (runs are short, 4 bytes keeps decode branchless);
/// * `0xFE` — an escape: the entry as a raw little-endian `i64` follows;
/// * `0x00..=0xFD` — the entry itself, zigzag-encoded (covers
///   `-127..=126`), no further bytes.
///
/// On the Fig. 10 octagon workload this shrinks abstract-state blobs
/// ~8×, which cuts the RPC checksum, copy, and syscall costs by the
/// same factor (the wire's dominant costs all scale with payload bytes).
const DBM_INF_RUN: u8 = 0xFF;
const DBM_ESCAPE: u8 = 0xFE;

fn put_dbm_compact(dbm: &[i64], w: &mut Writer) {
    const INF: i64 = i64::MAX;
    let mut i = 0;
    while i < dbm.len() {
        let c = dbm[i];
        if c == INF {
            // `position` over the tail vectorizes the run scan, and INF
            // dominates the matrix, so this is the loop's hot exit.
            let mut run = dbm[i..]
                .iter()
                .position(|&c| c != INF)
                .unwrap_or(dbm.len() - i);
            i += run;
            while run > 0 {
                let chunk = run.min(u32::MAX as usize);
                w.u8(DBM_INF_RUN);
                w.u32(chunk as u32);
                run -= chunk;
            }
            continue;
        }
        i += 1;
        let zigzag = ((c << 1) ^ (c >> 63)) as u64;
        if zigzag < DBM_ESCAPE as u64 {
            w.u8(zigzag as u8);
        } else {
            w.u8(DBM_ESCAPE);
            w.i64(c);
        }
    }
}

fn get_dbm_compact(entries: usize, r: &mut Reader<'_>) -> Result<Vec<i64>, PersistError> {
    const INF: i64 = i64::MAX;
    // Pre-fill with INF: runs (the dominant token) then only advance the
    // cursor — no per-entry writes at all.
    let mut dbm = vec![INF; entries];
    let mut i = 0;
    while i < entries {
        match r.u8()? {
            DBM_INF_RUN => {
                let run = r.u32()? as usize;
                if run == 0 || run > entries - i {
                    return Err(PersistError::Corrupt(format!(
                        "octagon INF run of {run} overflows the {entries}-entry DBM"
                    )));
                }
                i += run;
            }
            DBM_ESCAPE => {
                dbm[i] = r.i64()?;
                i += 1;
            }
            token => {
                let zigzag = token as u64;
                dbm[i] = ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64);
                i += 1;
            }
        }
    }
    Ok(dbm)
}

impl Persist for OctagonDomain {
    fn put(&self, w: &mut Writer) {
        match self {
            OctagonDomain::Bottom => w.u8(0),
            OctagonDomain::Oct(o) => {
                w.u8(3);
                w.u64(o.vars().len() as u64);
                for v in o.vars() {
                    v.put(w);
                }
                // The half's length is implied by the variable count. The
                // `closed` flag is deliberately NOT serialized: it is a
                // derived property, re-derived after restore (see
                // [`Oct::from_packed`]).
                put_dbm_compact(o.packed(), w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => OctagonDomain::Bottom,
            // Tag 3 is the packed half. Tags 1 and 2 were the full matrix,
            // raw and compact; no writer emits them and each is an unknown
            // tag like any other (module docs).
            3 => {
                let n = r.u64()?;
                if n > r.remaining() as u64 {
                    return Err(PersistError::Corrupt(
                        "octagon variable count exceeds remaining input".to_string(),
                    ));
                }
                let mut vars = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    vars.push(Symbol::get(r)?);
                }
                // The half is quadratic in the variable count, so the
                // linear `n` bound above is not enough: a corrupt count
                // could otherwise request a multi-gigabyte allocation
                // before the first matrix byte is read. The compact
                // layout needs at least one token byte per 0xFFFF_FFFF
                // entries, so the division below rejects absurd counts
                // before allocating.
                let entries = Oct::packed_len(vars.len())
                    .filter(|e| e.div_ceil(u32::MAX as usize) <= r.remaining())
                    .ok_or_else(|| {
                        PersistError::Corrupt(format!(
                            "octagon DBM over {n} variables exceeds remaining input"
                        ))
                    })?;
                let half = get_dbm_compact(entries, r)?;
                let oct = Oct::from_packed(vars, half).ok_or_else(|| {
                    PersistError::Corrupt("octagon parts violate invariants".to_string())
                })?;
                OctagonDomain::seal(oct)
            }
            t => return Err(bad_tag("octagon", t)),
        })
    }
}

impl Persist for Addr {
    fn put(&self, w: &mut Writer) {
        match self {
            Addr::Null => w.u8(0),
            Addr::Sym(i) => {
                w.u8(1);
                w.u32(*i);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => Addr::Null,
            1 => Addr::Sym(r.u32()?),
            t => return Err(bad_tag("addr", t)),
        })
    }
}

impl Persist for SymHeap {
    fn put(&self, w: &mut Writer) {
        let env: Vec<(Symbol, Addr)> = self.env.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let pts: Vec<(Addr, Addr)> = self.pts.iter().map(|(k, v)| (*k, *v)).collect();
        let lsegs: Vec<(Addr, Addr)> = self.lsegs.iter().copied().collect();
        let diseqs: Vec<(Addr, Addr)> = self.diseqs.iter().copied().collect();
        env.put(w);
        pts.put(w);
        lsegs.put(w);
        diseqs.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(SymHeap {
            env: Vec::<(Symbol, Addr)>::get(r)?.into_iter().collect(),
            pts: Vec::<(Addr, Addr)>::get(r)?.into_iter().collect(),
            lsegs: Vec::<(Addr, Addr)>::get(r)?.into_iter().collect(),
            diseqs: Vec::<(Addr, Addr)>::get(r)?.into_iter().collect(),
        })
    }
}

impl Persist for ShapeDomain {
    fn put(&self, w: &mut Writer) {
        match self {
            ShapeDomain::Bottom => w.u8(0),
            ShapeDomain::State { heaps, err, top } => {
                w.u8(1);
                let heaps: Vec<&SymHeap> = heaps.iter().collect();
                w.u64(heaps.len() as u64);
                for h in heaps {
                    h.put(w);
                }
                err.put(w);
                top.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => ShapeDomain::Bottom,
            1 => {
                let n = r.u64()?;
                if n > r.remaining() as u64 {
                    return Err(PersistError::Corrupt(
                        "shape disjunct count exceeds remaining input".to_string(),
                    ));
                }
                let mut heaps = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    heaps.push(SymHeap::get(r)?);
                }
                let err = bool::get(r)?;
                let top = bool::get(r)?;
                // Re-enter through the normalizing constructor so the
                // wire cannot materialize a non-canonical disjunction
                // (empty-but-not-⊥, over-cap, or ⊤ with leftover heaps).
                ShapeDomain::from_parts(heaps, err, top)
            }
            t => return Err(bad_tag("shape", t)),
        })
    }
}

impl<A: Persist, B: Persist> Persist for Prod<A, B> {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let a = A::get(r)?;
        let b = B::get(r)?;
        Ok(Prod(a, b))
    }
}

impl<V: ValueLattice + Persist> PersistDomain for NonRel<V> {
    fn domain_tag() -> String {
        V::NAME.to_string()
    }

    /// The shared environment's address (`0` for `⊥`), as for octagons.
    fn encode_identity(&self) -> Option<u64> {
        Some(self.identity())
    }
}

impl PersistDomain for OctagonDomain {
    fn domain_tag() -> String {
        "octagon".to_string()
    }

    /// Octagons share their matrix behind an [`std::sync::Arc`], and the
    /// engine's memo table hands the *same* handle back on warm repeats
    /// — so the allocation address is a sound (and very hit-friendly)
    /// identity. `Arc` pointers are never null, leaving `0` free for ⊥.
    fn encode_identity(&self) -> Option<u64> {
        match self {
            OctagonDomain::Bottom => Some(0),
            OctagonDomain::Oct(o) => Some(std::sync::Arc::as_ptr(o) as u64),
        }
    }
}

impl PersistDomain for ShapeDomain {
    fn domain_tag() -> String {
        "shape".to_string()
    }
}

impl<A: PersistDomain, B: PersistDomain> PersistDomain for Prod<A, B> {
    fn domain_tag() -> String {
        format!("prod<{},{}>", A::domain_tag(), B::domain_tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dai_domains::{ConstDomain, IntervalDomain, SignDomain};
    use dai_lang::parse_program;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut w = Writer::new();
        v.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::get(&mut r).expect("decodes");
        assert!(r.is_exhausted(), "{} trailing bytes", r.remaining());
        assert_eq!(&back, v);
    }

    #[test]
    fn syntax_roundtrips_through_the_real_parser() {
        let src = "function f(p, q) { var n = new Node(); n.next = p; \
                   var a = [1, 2 * p]; a[0] = len(a); \
                   if (!(p > 0) && q <= 3) { print(a[1]); } else { p = -q; } \
                   while (p < 10) { p = p + 1; } \
                   var r = g(a[1], n.next); return r; } \
                   function g(i, n) { return i; }";
        let program = parse_program(src).unwrap();
        for f in &program.functions {
            roundtrip(&f.body);
        }
        let cfgs = dai_lang::cfg::lower_program(&program).unwrap();
        for cfg in cfgs.cfgs() {
            for e in cfg.edges() {
                roundtrip(&e.stmt);
            }
        }
    }

    #[test]
    fn names_and_edits_roundtrip() {
        let ctx = IterCtx::root().push(Loc(3), 2).push(Loc(7), 0);
        roundtrip(&Name::State {
            loc: Loc(9),
            ctx: ctx.clone(),
        });
        roundtrip(&Name::PreWiden {
            head: Loc(3),
            ctx: ctx.clone(),
        });
        roundtrip(&Name::Stmt(EdgeId(12)));
        roundtrip(&Name::PreJoin {
            edge: EdgeId(4),
            ctx,
        });
        roundtrip(&ProgramEdit::Relabel {
            func: Symbol::new("main"),
            edge: EdgeId(1),
            stmt: Stmt::Assign("x".into(), Expr::Int(5)),
        });
        roundtrip(&ProgramEdit::Insert {
            func: Symbol::new("f0"),
            edge: EdgeId(2),
            block: dai_lang::parse_block("while (x < 3) { x = x + 1; }").unwrap(),
        });
        roundtrip(&FixStrategy::delayed(3).with_convergence(Convergence::Leq));
    }

    #[test]
    fn domain_states_roundtrip() {
        use dai_domains::CallSite;
        let assign = |d: &IntervalDomain, src: &str| {
            d.transfer(&Stmt::Assign(
                "x".into(),
                dai_lang::parse_expr(src).unwrap(),
            ))
        };
        let iv = assign(&IntervalDomain::top(), "5");
        roundtrip(&iv);
        roundtrip(&IntervalDomain::bottom());
        roundtrip(&iv.join(&assign(&IntervalDomain::top(), "9")));
        roundtrip(&IntervalDomain::top().transfer(&Stmt::Assign(
            "a".into(),
            dai_lang::parse_expr("[1, 2, 3]").unwrap(),
        )));

        let oct = OctagonDomain::top().transfer(&Stmt::Assign(
            "x".into(),
            dai_lang::parse_expr("7").unwrap(),
        ));
        let oct = oct.transfer(&Stmt::Assign(
            "y".into(),
            dai_lang::parse_expr("x + 1").unwrap(),
        ));
        roundtrip(&oct);
        roundtrip(&OctagonDomain::bottom());

        let sign = SignDomain::from_bindings([("x".into(), Sign::NONNEG)]);
        roundtrip(&sign);
        roundtrip(&SignDomain::bottom());

        roundtrip(&ConstDomain::from_bindings([
            ("x".into(), Const::Int(3)),
            ("b".into(), Const::Bool(true)),
            ("p".into(), Const::Null),
        ]));

        let shape = ShapeDomain::with_lists(&["p", "q"]);
        roundtrip(&shape);
        let shape2 = shape.transfer(&Stmt::Assign("r".into(), Expr::AllocNode));
        let shape3 = shape2.transfer(&Stmt::FieldWrite("r".into(), "next".into(), Expr::var("p")));
        roundtrip(&shape3);
        roundtrip(&ShapeDomain::bottom());

        let prod: Prod<IntervalDomain, SignDomain> = Prod::entry_default(&["x".into()]);
        roundtrip(&prod.transfer(&Stmt::Assign(
            "x".into(),
            dai_lang::parse_expr("4").unwrap(),
        )));

        // Exercise the interprocedural constructors so richer states
        // roundtrip too.
        let args = [Expr::Int(1)];
        let site = CallSite {
            lhs: None,
            callee: &Symbol::new("g"),
            args: &args,
            site_key: "f:e1",
        };
        roundtrip(&iv.call_entry(site, &["p".into()]));
    }

    #[test]
    fn unknown_tags_are_corrupt_not_panic() {
        let mut w = Writer::new();
        w.u8(250);
        let bytes = w.into_bytes();
        assert!(matches!(
            Name::get(&mut Reader::new(&bytes)),
            Err(PersistError::Corrupt(_))
        ));
        assert!(matches!(
            Stmt::get(&mut Reader::new(&bytes)),
            Err(PersistError::Corrupt(_))
        ));
        assert!(matches!(
            IntervalDomain::get(&mut Reader::new(&bytes)),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn widened_shape_states_roundtrip_through_normalization() {
        // Shape decode re-enters through `ShapeDomain::from_parts`
        // (saturation + GC + dedup + caps); states the domain produced —
        // including widened, canonicalized loop invariants — must be
        // fixed points of that normalization, or roundtrips would not be
        // identities.
        let mut s = ShapeDomain::with_lists(&["p"]);
        // Drive a list-building loop shape: n = new Node(); n.next = p;
        // p = n — then widen a few rounds as a loop head would.
        for _ in 0..3 {
            let body = s
                .transfer(&Stmt::Assign("n".into(), Expr::AllocNode))
                .transfer(&Stmt::FieldWrite("n".into(), "next".into(), Expr::var("p")))
                .transfer(&Stmt::Assign("p".into(), Expr::var("n")));
            s = s.widen(&body);
        }
        roundtrip(&s);
    }

    #[test]
    fn non_canonical_shape_bytes_normalize_on_decode() {
        // An empty, non-err, non-top disjunction is unreachable through
        // the domain's constructors (it canonicalizes to ⊥); the wire
        // must not materialize it either.
        let mut w = Writer::new();
        w.u8(1); // State
        w.u64(0); // no heaps
        false.put(&mut w); // err
        false.put(&mut w); // top
        let bytes = w.into_bytes();
        let back = ShapeDomain::get(&mut Reader::new(&bytes)).unwrap();
        assert!(back.is_bottom(), "normalized to ⊥, got {back}");
    }

    #[test]
    fn huge_octagon_variable_count_is_rejected_before_allocating() {
        // A crafted payload claiming many octagon variables must fail on
        // the quadratic-DBM size check, not attempt a pathological
        // allocation. 1000 one-byte-named vars fit in ~9KB of input, but
        // the implied half would be 2·1000·1001 = 2M entries = 16MB — far
        // more than the remaining input.
        let mut w = Writer::new();
        w.u8(3); // OctagonDomain::Oct
        let n = 1000u64;
        w.u64(n);
        for _ in 0..n {
            w.str("v");
        }
        // No DBM bytes at all.
        let bytes = w.into_bytes();
        let err = OctagonDomain::get(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(ref m) if m.contains("DBM")),
            "{err}"
        );
    }

    /// A tag-3 octagon over `vars` whose packed half is `half`.
    fn oct_bytes(vars: &[&str], half: &[i64]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(3);
        w.u64(vars.len() as u64);
        for v in vars {
            w.str(v);
        }
        put_dbm_compact(half, &mut w);
        w.into_bytes()
    }

    #[test]
    fn octagon_parts_the_half_cannot_vouch_for_are_rejected() {
        // Over x and y the half is rows 0..4 of widths 2, 2, 4, 4; slots 0
        // and 3 are x's diagonal twins, 6 and 11 are y's.
        let mut good = [i64::MAX; 12];
        for at in [0, 3, 6, 11] {
            good[at] = 0;
        }
        good[4] = 7; // y − x ≤ 7
        let invariants = PersistError::Corrupt("octagon parts violate invariants".to_string());
        let decode = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            let out = OctagonDomain::get(&mut r);
            (out, r.remaining())
        };
        // Twins that are both stored must agree: the two diagonal entries
        // of a block. Refused after the half is read, not inside it.
        for at in [0, 3, 6, 11] {
            let mut torn = good;
            torn[at] = -1;
            assert_eq!(
                decode(&oct_bytes(&["x", "y"], &torn)),
                (Err(invariants.clone()), 0)
            );
        }
        // Names out of order, or one name twice.
        for names in [["y", "x"], ["x", "x"]] {
            assert_eq!(
                decode(&oct_bytes(&names, &good)),
                (Err(invariants.clone()), 0)
            );
        }
        // A half too short for its names ends the input; a run that would
        // make it too long is refused where it starts.
        assert_eq!(
            decode(&oct_bytes(&["x", "y"], &good[..10])).0,
            Err(PersistError::Truncated)
        );
        let mut long = oct_bytes(&["x"], &[0, i64::MAX]);
        long.extend([DBM_INF_RUN, 3, 0, 0, 0]);
        assert!(matches!(decode(&long).0, Err(PersistError::Corrupt(m)) if m.contains("run")));
        // The valid neighbour decodes, and re-encodes to the same bytes.
        let bytes = oct_bytes(&["x", "y"], &good);
        let back = OctagonDomain::get(&mut Reader::new(&bytes)).unwrap();
        let assumed = dai_lang::parse_expr("y - x <= 7").unwrap();
        assert_eq!(back, OctagonDomain::top().transfer(&Stmt::Assume(assumed)));
        let mut w = Writer::new();
        back.put(&mut w);
        assert_eq!(w.into_bytes(), bytes);
    }

    #[test]
    fn octagon_encoding_is_the_packed_half_and_is_pinned() {
        // Unary bounds (one beyond the one-byte tokens), relational content,
        // and INF runs across row boundaries. The bytes are the header and
        // the token encoding of exactly the words the octagon stores.
        let golden = [
            ("x := 5; y >= -3; y <= 100000; z <= -77", "03030000000000000001000000000000007801000000000000007901000000000000007a00141300fe9b86010000000000fea58601000000000000fe400d03000000000003100c00a38f93fe538601000000000000fe66ffffffffffffffff0500000000"),
            ("i < j; j - k <= 7; i + k <= 12; m := -i + 2; i >= 0", "03040000000000000001000000000000006901000000000000006a01000000000000006b01000000000000006d002400002626004c010103001818163e00300c0c0a0e18000404022a101c00080320052208141c00"),
            ("a := u * u; b := u * u; c := u * u; d := u * u; e := u * u; f := u * u; g := u * u; h := u * u; d - g <= 9; h := 1", "03080000000000000001000000000000006101000000000000006201000000000000006301000000000000006401000000000000006501000000000000006601000000000000006701000000000000006800ff0200000000ff0200000000ff0400000000ff0400000000ff0600000000ff0600000000ff0800000000ff0800000000ff0a00000000ff0a00000000ff0c00000000ff0c00000000ff0800000012ff0500000000ff0e0000000004ff0e0000000300"),
        ];
        for (script, hex) in golden {
            let oct = script.split("; ").fold(OctagonDomain::top(), |d, line| {
                let expr = |e| dai_lang::parse_expr(e).unwrap();
                d.transfer(&match line.split_once(" := ") {
                    Some((x, e)) => Stmt::Assign(x.into(), expr(e)),
                    None => Stmt::Assume(expr(line)),
                })
            });
            let mut w = Writer::new();
            oct.put(&mut w);
            let bytes = w.into_bytes();
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{oct}");
            let OctagonDomain::Oct(o) = &oct else {
                panic!("{script} is not ⊥")
            };
            let names: Vec<&str> = o.vars().iter().map(Symbol::as_str).collect();
            assert_eq!(bytes, oct_bytes(&names, o.packed()));
            assert_eq!(OctagonDomain::get(&mut Reader::new(&bytes)).unwrap(), oct);
        }
    }

    #[test]
    fn retired_full_matrix_octagon_tags_are_unknown_tags() {
        // Tags 1 (raw 8-bytes-per-entry) and 2 (token-encoded) carried the
        // full matrix and are no longer decoded: a payload carrying one —
        // here a well-formed one-variable octagon in each old layout —
        // fails on the tag byte, like any unknown tag, before a variable
        // or matrix entry is read or allocated.
        let full = [0, i64::MAX, i64::MAX, 0];
        for (tag, matrix) in [(1, &full[..]), (2, &full[..])] {
            let mut w = Writer::new();
            w.u8(tag);
            w.u64(1);
            w.str("x");
            if tag == 1 {
                matrix.iter().for_each(|&c| w.i64(c));
            } else {
                put_dbm_compact(matrix, &mut w);
            }
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let err = OctagonDomain::get(&mut r).unwrap_err();
            assert_eq!(err, bad_tag("octagon", tag));
            assert_eq!(r.remaining(), bytes.len() - 1, "only the tag was read");
        }
        let mut w = Writer::new();
        w.u8(9);
        let unknown = OctagonDomain::get(&mut Reader::new(&w.into_bytes())).unwrap_err();
        assert_eq!(unknown, bad_tag("octagon", 9));
    }

    #[test]
    fn decoded_octagons_are_marked_unclosed() {
        // The `closed` flag is derived, never trusted from the wire: a
        // decoded octagon must re-derive closure on first use.
        let oct = OctagonDomain::top().transfer(&Stmt::Assign(
            "x".into(),
            dai_lang::parse_expr("7").unwrap(),
        ));
        let mut w = Writer::new();
        oct.put(&mut w);
        let bytes = w.into_bytes();
        let back = OctagonDomain::get(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, oct, "Eq ignores the closure flag");
        if let OctagonDomain::Oct(o) = &back {
            assert!(!o.is_closed(), "decoded matrices start unclosed");
        } else {
            panic!("expected a non-bottom octagon");
        }
        // And the semantics are unchanged: bounds re-derive identically.
        assert_eq!(back.interval_of("x"), oct.interval_of("x"));
    }

    #[test]
    fn deep_expression_nesting_is_bounded() {
        let mut w = Writer::new();
        // 1000 nested unary-negs, then never terminate: the depth guard
        // must fire before the reader underruns the stack.
        for _ in 0..1000 {
            w.u8(4); // Expr::Unary
            w.u8(0); // UnOp::Neg
        }
        let bytes = w.into_bytes();
        let err = Expr::get(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(m) if m.contains("depth")));
    }

    #[test]
    fn domain_tags_are_distinct() {
        let tags = [
            IntervalDomain::domain_tag(),
            OctagonDomain::domain_tag(),
            SignDomain::domain_tag(),
            ConstDomain::domain_tag(),
            ShapeDomain::domain_tag(),
            Prod::<IntervalDomain, SignDomain>::domain_tag(),
        ];
        let unique: std::collections::HashSet<_> = tags.iter().collect();
        assert_eq!(unique.len(), tags.len());
    }
}
