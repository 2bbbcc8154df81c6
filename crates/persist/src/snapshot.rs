//! Whole-session snapshot images: what gets saved, and the lossy policy
//! applied on restore.
//!
//! A [`SessionImage`] carries a demanded analysis session in two kinds of
//! sections:
//!
//! * **`SESS` (required)** — the session header: name, domain tag,
//!   iteration strategy, context-sensitivity policy (for
//!   interprocedural sessions), the program **source text**, and the
//!   **edit history** ([`ProgramEdit`]s). This is the only part that must
//!   survive: source + history replayed through `dai-lang`'s parser,
//!   lowering, and edit primitives deterministically reconstructs the
//!   exact current CFGs (edit application assigns location/edge ids by
//!   deterministic counters).
//! * **`FUNC` (optional, one per demanded function)** — the function's
//!   DAIG: every live cell in interning order with its name, optional
//!   value, and producing computation. Restoring it warm-starts queries;
//!   dropping it merely means the next query recomputes (paper §2.2:
//!   dropping cached results is always sound).
//!
//! The memo table is not saved: a restored DAIG answers without it, and
//! its entries refill as queries run. A `MEMO` section written by an
//! older binary is skipped like any tag this reader does not know.
//!
//! [`SessionImage::from_bytes`] enforces that policy: a damaged or
//! version-skewed `FUNC` section is *counted and skipped* (the
//! [`RestoreReport`] says what was dropped), while a damaged `SESS`
//! section fails the whole restore — there is nothing sound to fall back
//! to without the program.
//!
//! ## A state is written once per payload
//!
//! Most cells of a DAIG hold a state some other cell holds too, so a
//! `FUNC` payload, after the function's name and entry state, opens with a
//! **state table**:
//!
//! ```text
//! u64     number of distinct states
//! D × n   the states, each in its domain's `Persist` form, in the order
//!         the payload first uses them
//! ```
//!
//! and a value slot in what follows is one byte — `0` empty, `1` a
//! statement, inline, `2` a state — with a state's `u32` table index
//! behind it. States are told apart by the 128-bit content digest a
//! filled cell already caches. Decoding builds each state once and hands
//! out clones, so states that shared an allocation when saved share one
//! when restored. An index may name at most the next state not yet used,
//! and every state must be used: one payload has one encoding, and
//! anything else is `Corrupt`. The table is per payload, so the lossy
//! policy above is untouched — a damaged section takes only its own
//! states with it.
//!
//! [`FUNC_VERSION`] 2 marks this layout (and, for octagons, state tag 3
//! inside it — see [`crate::wire`]); sections written before it are
//! dropped cold, which is sound.

use crate::codec::{
    read_sections, PersistError, Reader, SnapshotWriter, Writer, TAG_FUNC, TAG_SESSION,
};
use crate::wire::{Persist, PersistDomain};
use dai_core::driver::ProgramEdit;
use dai_core::graph::{Daig, Func, Value};
use dai_core::intern::CellId;
use dai_core::interproc::ContextPolicy;
use dai_core::name::Name;
use dai_core::strategy::FixStrategy;
use dai_domains::AbstractDomain;
use dai_lang::{Stmt, Symbol};
use dai_memo::PrehashedBuild;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Payload version of `SESS` sections.
pub const SESSION_VERSION: u16 = 1;
/// Payload version of `FUNC` sections: 2 opens the payload with a state
/// table (module docs).
pub const FUNC_VERSION: u16 = 2;

/// One demanded function's restored analysis state.
#[derive(Debug, Clone)]
pub struct FuncImage<D: AbstractDomain> {
    /// The function's name.
    pub func: Symbol,
    /// The entry state `φ₀` the DAIG was built with.
    pub entry: D,
    /// The DAIG, structure and values.
    pub daig: Daig<D>,
}

/// A complete session snapshot.
#[derive(Debug, Clone)]
pub struct SessionImage<D: AbstractDomain> {
    /// The session's name.
    pub name: String,
    /// The domain tag ([`PersistDomain::domain_tag`]) the values were
    /// encoded under.
    pub domain: String,
    /// The loop-head iteration strategy of every unit.
    pub strategy: FixStrategy,
    /// The context-sensitivity policy the session analyzed under, when
    /// it was interprocedural (`None` for intraprocedural sessions).
    /// Like `strategy`, this is part of the session's *semantics*: a
    /// restore under a different policy computes different invariants,
    /// so restorers either honor it or warn.
    pub policy: Option<ContextPolicy>,
    /// The original program source text.
    pub source: String,
    /// Every edit applied since the source was loaded, in order.
    pub edits: Vec<ProgramEdit>,
    /// Demanded functions' DAIGs (possibly empty — a cold snapshot).
    pub funcs: Vec<FuncImage<D>>,
}

/// What a lossy restore kept and dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// `FUNC` sections restored intact.
    pub funcs_restored: usize,
    /// `FUNC` sections dropped (damaged, version-skewed, undecodable, or
    /// failing DAIG well-formedness) — each degrades that function to a
    /// cold start.
    pub funcs_dropped: usize,
    /// The file ended mid-section; everything after the cut was dropped.
    pub truncated: bool,
}

impl RestoreReport {
    /// `true` when any function's DAIG survived.
    pub fn is_warm(&self) -> bool {
        self.funcs_restored > 0
    }

    /// `true` when any optional payload was lost.
    pub fn is_lossy(&self) -> bool {
        self.funcs_dropped > 0 || self.truncated
    }
}

impl fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} function DAIG(s) restored ({} dropped){}",
            self.funcs_restored,
            self.funcs_dropped,
            if self.truncated {
                ", file truncated"
            } else {
                ""
            }
        )
    }
}

fn func_code(f: Func) -> u8 {
    match f {
        Func::Transfer => 0,
        Func::Join => 1,
        Func::Widen => 2,
        Func::Fix => 3,
    }
}

fn func_from_code(c: u8) -> Result<Func, PersistError> {
    Ok(match c {
        0 => Func::Transfer,
        1 => Func::Join,
        2 => Func::Widen,
        3 => Func::Fix,
        t => return Err(PersistError::Corrupt(format!("unknown func tag {t}"))),
    })
}

/// The state table of a payload being written (module docs): which states
/// it has met, by content hash. Their encodings go straight to the output,
/// in first-use order, behind a count that [`StateTable::finish`] fills in.
struct StateTable<'w> {
    index: HashMap<u128, u32, PrehashedBuild>,
    out: &'w mut Writer,
    count_at: usize,
}

impl<'w> StateTable<'w> {
    fn new(out: &'w mut Writer) -> StateTable<'w> {
        let count_at = out.len();
        out.u64(0);
        StateTable {
            index: HashMap::default(),
            out,
            count_at,
        }
    }

    /// Writes a filled value slot: a statement inline, a state by its table
    /// index — encoding the state if `key`, its content digest, is one the
    /// payload has not met.
    fn put_value<D: Persist>(&mut self, key: u128, value: &Value<D>, body: &mut Writer) {
        match value {
            Value::Stmt(s) => {
                body.u8(1);
                s.put(body);
            }
            Value::State(d) => {
                let next = self.index.len() as u32;
                let at = *self.index.entry(key).or_insert_with(|| {
                    d.put(self.out);
                    next
                });
                body.u8(2);
                body.u32(at);
            }
        }
    }

    /// Closes the table and appends the `body` whose slots refer into it.
    fn finish(self, body: Writer) {
        self.out.set_u64(self.count_at, self.index.len() as u64);
        self.out.bytes(&body.into_bytes());
    }
}

/// The state table of a payload being read.
struct StateReader<D> {
    states: Vec<D>,
    /// States `0..used` have been referred to.
    used: usize,
}

impl<D: Persist + Clone> StateReader<D> {
    fn get(r: &mut Reader<'_>) -> Result<StateReader<D>, PersistError> {
        // `Vec::get` refuses a count beyond the remaining input.
        let states = Vec::<D>::get(r)?;
        Ok(StateReader { states, used: 0 })
    }

    /// Reads the rest of a value slot whose first byte was `tag` (not 0).
    fn get_value(&mut self, tag: u8, r: &mut Reader<'_>) -> Result<Value<D>, PersistError> {
        match tag {
            1 => Ok(Value::Stmt(Stmt::get(r)?)),
            2 => {
                let at = r.u32()? as usize;
                if at > self.used || at >= self.states.len() {
                    return Err(PersistError::Corrupt(format!(
                        "state index {at} with {} of {} states used",
                        self.used,
                        self.states.len()
                    )));
                }
                self.used = self.used.max(at + 1);
                Ok(Value::State(self.states[at].clone()))
            }
            t => Err(PersistError::Corrupt(format!("bad value marker {t}"))),
        }
    }

    /// The payload is over: it must have used every state it carried.
    fn finish(self) -> Result<(), PersistError> {
        if self.used != self.states.len() {
            return Err(PersistError::Corrupt(format!(
                "{} of {} states never used",
                self.states.len() - self.used,
                self.states.len()
            )));
        }
        Ok(())
    }
}

/// Encodes a DAIG: its state table, then the live cells in interning (id)
/// order, each with its name, optional value, and producing computation
/// (source cells encoded as positions into the same cell list).
pub fn encode_daig<D: AbstractDomain + Persist>(daig: &Daig<D>, w: &mut Writer) {
    let ids: Vec<CellId> = daig.ids().collect();
    // Dense position map: arena ids are bounded by `arena_len`.
    let mut pos = vec![u32::MAX; daig.arena_len()];
    for (i, &id) in ids.iter().enumerate() {
        pos[id.idx()] = i as u32;
    }
    let mut table = StateTable::new(w);
    let mut body = Writer::new();
    body.u64(ids.len() as u64);
    for &id in &ids {
        daig.name_of(id).put(&mut body);
        match (daig.value_id(id), daig.digest_id(id)) {
            (Some(v), Some(digest)) => table.put_value(digest, v, &mut body),
            _ => body.u8(0),
        }
        match daig.comp_slot(id) {
            None => body.u8(0),
            Some(c) => {
                body.u8(1);
                body.u8(func_code(c.func));
                body.u64(c.srcs.len() as u64);
                for &s in &c.srcs {
                    // Live comps only read live cells (well-formedness), so
                    // every source has a position.
                    body.u32(pos[s.idx()]);
                }
            }
        }
    }
    table.finish(body);
}

/// Decodes a DAIG encoded by [`encode_daig`], rebuilding the interner in
/// the same order (so the graph is structurally identical up to dead-slot
/// compaction), re-deriving value digests at write time and the loop
/// table ([`Daig::rebuild_loop_table`]) from the cell names.
///
/// The result is **not** yet validated; callers should run
/// [`Daig::check_well_formed`] and treat failure as a dropped (cold)
/// section.
///
/// # Errors
///
/// [`PersistError`] on truncated or structurally invalid input.
pub fn decode_daig<D: AbstractDomain + Persist>(
    r: &mut Reader<'_>,
    strategy: FixStrategy,
) -> Result<Daig<D>, PersistError> {
    let mut states = StateReader::<D>::get(r)?;
    let n = r.u64()?;
    if n > r.remaining() as u64 {
        return Err(PersistError::Corrupt(
            "cell count exceeds remaining input".to_string(),
        ));
    }
    let mut daig: Daig<D> = Daig::new();
    daig.set_strategy(strategy);
    let mut comps: Vec<Option<(Func, Vec<CellId>)>> = Vec::with_capacity(n as usize);
    for i in 0..n {
        let name = Name::get(r)?;
        let value = match r.u8()? {
            0 => None,
            tag => Some(states.get_value(tag, r)?),
        };
        // A fresh interner hands out dense ids in insertion order; anything
        // else means a duplicated name aliased two saved cells onto one id.
        if daig.add_cell_id(name, value).idx() as u64 != i {
            return Err(PersistError::Corrupt("duplicate cell name".to_string()));
        }
        comps.push(match r.u8()? {
            0 => None,
            1 => {
                let func = func_from_code(r.u8()?)?;
                let k = r.u64()?;
                if k > r.remaining() as u64 {
                    return Err(PersistError::Corrupt(
                        "source count exceeds remaining input".to_string(),
                    ));
                }
                let mut srcs = Vec::with_capacity(k as usize);
                for _ in 0..k {
                    let p = r.u32()?;
                    if u64::from(p) >= n {
                        return Err(PersistError::Corrupt(format!(
                            "source position {p} out of range (cells: {n})"
                        )));
                    }
                    // Position `p` is the id the `p`th cell got, or will get.
                    srcs.push(CellId(p));
                }
                Some((func, srcs))
            }
            t => return Err(PersistError::Corrupt(format!("bad comp marker {t}"))),
        });
    }
    states.finish()?;
    for (i, comp) in comps.into_iter().enumerate() {
        if let Some((func, srcs)) = comp {
            daig.add_comp_ids(CellId(i as u32), func, srcs);
        }
    }
    // Which unrolled iteration owns a cell is a function of its name, so
    // the loop table is derived, not stored; a restored graph then rolls
    // its loops back by id like any other.
    daig.rebuild_loop_table()
        .map_err(|e| PersistError::Corrupt(e.to_string()))?;
    Ok(daig)
}

impl<D: PersistDomain> SessionImage<D> {
    /// Serializes the image into a complete snapshot file (header plus
    /// `SESS`/`FUNC`* sections). Equal images produce byte-identical files.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = SnapshotWriter::new();
        let mut sess = Writer::new();
        self.name.put(&mut sess);
        self.domain.put(&mut sess);
        self.strategy.put(&mut sess);
        self.policy.put(&mut sess);
        self.source.put(&mut sess);
        self.edits.put(&mut sess);
        out.section(TAG_SESSION, SESSION_VERSION, &sess.into_bytes());
        for f in &self.funcs {
            let mut w = Writer::new();
            f.func.put(&mut w);
            f.entry.put(&mut w);
            encode_daig(&f.daig, &mut w);
            out.section(TAG_FUNC, FUNC_VERSION, &w.into_bytes());
        }
        out.into_bytes()
    }

    /// Parses a snapshot file, applying the lossy policy: `FUNC` sections
    /// that are damaged, version-skewed, or undecodable are dropped
    /// (counted in the report); restore then degrades to a cold start for
    /// exactly that function, which is sound. Sections of any other tag
    /// (a retired `MEMO` among them) are skipped.
    ///
    /// # Errors
    ///
    /// Header errors, a missing/damaged/undecodable `SESS` section, or a
    /// `SESS` section recorded under a different domain than `D`.
    pub fn from_bytes(bytes: &[u8]) -> Result<(SessionImage<D>, RestoreReport), PersistError> {
        let list = read_sections(bytes)?;
        let mut report = RestoreReport {
            truncated: list.truncated,
            ..RestoreReport::default()
        };
        // The required session header. Unlike FUNC — where version
        // skew just drops the section — a skewed SESS section is fatal:
        // decoding it under the wrong layout could silently restore a
        // wrong session, and there is nothing sound to fall back to.
        let sess = list
            .sections
            .iter()
            .find(|s| s.tag == TAG_SESSION)
            .ok_or(PersistError::RequiredSection("SESS"))?;
        if sess.version != SESSION_VERSION {
            return Err(PersistError::UnsupportedVersion(sess.version));
        }
        let sess_payload = sess.payload.ok_or(PersistError::RequiredSection("SESS"))?;
        let mut r = Reader::new(sess_payload);
        let name = String::get(&mut r)?;
        let domain = String::get(&mut r)?;
        let strategy = FixStrategy::get(&mut r)?;
        let policy = Option::<ContextPolicy>::get(&mut r)?;
        let source = String::get(&mut r)?;
        let edits = Vec::<ProgramEdit>::get(&mut r)?;
        if domain != D::domain_tag() {
            return Err(PersistError::Corrupt(format!(
                "snapshot was saved under domain `{domain}`, not `{}`",
                D::domain_tag()
            )));
        }
        let mut image = SessionImage {
            name,
            domain,
            strategy,
            policy,
            source,
            edits,
            funcs: Vec::new(),
        };
        for s in list.sections.iter().filter(|s| s.tag == TAG_FUNC) {
            let decoded = s
                .payload
                .filter(|_| s.version == FUNC_VERSION)
                .and_then(|payload| {
                    let mut r = Reader::new(payload);
                    let func = Symbol::get(&mut r).ok()?;
                    let entry = D::get(&mut r).ok()?;
                    let daig = decode_daig::<D>(&mut r, strategy).ok()?;
                    r.is_exhausted().then_some(FuncImage { func, entry, daig })
                })
                .filter(|f| f.daig.check_well_formed().is_ok());
            match decoded {
                Some(f) => {
                    image.funcs.push(f);
                    report.funcs_restored += 1;
                }
                None => report.funcs_dropped += 1,
            }
        }
        Ok((image, report))
    }
}

/// How hard persistence pushes bytes toward the platter.
///
/// `Fast` is the historical behavior: tmp + rename gives atomicity
/// against a crash of *this process*, but an OS crash can still lose
/// the rename or the data behind it. `Safe` adds the full durability
/// dance — `fsync` the data file before the rename and `fsync` the
/// containing directory after it — so a completed save survives power
/// loss. Journal appends under `Safe` sync after every append batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Durability {
    /// Atomic against process crash only (no fsync). The default.
    #[default]
    Fast,
    /// fsync file before rename, fsync directory after (and after each
    /// journal append batch).
    Safe,
}

/// Process-wide `fsync` instrumentation: (file syncs, directory syncs)
/// issued by this module's durable writes. Tests assert the syscalls
/// actually happen in [`Durability::Safe`] mode — the counters bump in
/// the same call that issues the syscall, never speculatively.
static FILE_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static DIR_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The running `(file, directory)` fsync counts (see [`Durability`]).
pub fn sync_counts() -> (u64, u64) {
    (
        FILE_SYNCS.load(std::sync::atomic::Ordering::Relaxed),
        DIR_SYNCS.load(std::sync::atomic::Ordering::Relaxed),
    )
}

/// `fsync`s an open file, bumping the instrumentation counter.
///
/// # Errors
///
/// The underlying `fsync` failure.
pub fn sync_file(file: &std::fs::File) -> std::io::Result<()> {
    file.sync_all()?;
    FILE_SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// `fsync`s the directory containing `path`, making a completed rename
/// in it durable. Bumps the instrumentation counter.
///
/// # Errors
///
/// The open or `fsync` failure.
pub fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let dir = dir.unwrap_or_else(|| Path::new("."));
    let handle = std::fs::File::open(dir)?;
    handle.sync_all()?;
    DIR_SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// A name beside `path` that no other call in this process, and no other
/// live process, is handed: `path.<label>-<pid>-<n>`. Two writers
/// replacing one file by tmp + rename — two saves of one path on two
/// workers, two compactions — must not create, truncate and rename the
/// same temporary.
pub fn temp_sibling(path: &Path, label: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".{label}-{}-{n}", std::process::id()));
    std::path::PathBuf::from(name)
}

/// Writes snapshot bytes to `path` **atomically**: the bytes land in a
/// temporary file in the same directory, then rename over the
/// destination. A crash or full disk mid-write therefore never clobbers
/// an existing good snapshot — the lossy-section story covers damaged
/// *optional* payloads, but a clipped `SESS` section would lose the
/// session, so the required section gets the stronger guarantee.
/// Durability against an *OS* crash is [`Durability::Fast`] here; use
/// [`write_snapshot_file_durable`] for the fsync'd variant.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failure.
pub fn write_snapshot_file(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), PersistError> {
    write_snapshot_file_durable(path, bytes, Durability::Fast)
}

/// [`write_snapshot_file`] with an explicit [`Durability`] level: under
/// `Safe` the temporary file is fsync'd **before** the rename (so the
/// rename can never land pointing at unwritten data) and the directory
/// is fsync'd **after** it (so the rename itself survives power loss).
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failure.
pub fn write_snapshot_file_durable(
    path: impl AsRef<Path>,
    bytes: &[u8],
    durability: Durability,
) -> Result<(), PersistError> {
    let path = path.as_ref();
    let io_err = |e: std::io::Error| PersistError::Io(format!("{}: {e}", path.display()));
    let tmp = temp_sibling(path, "tmp");
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        std::io::Write::write_all(&mut file, bytes)?;
        if durability == Durability::Safe {
            sync_file(&file)?;
        }
        Ok(())
    });
    written.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(e)
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(e)
    })?;
    if durability == Durability::Safe {
        sync_parent_dir(path).map_err(io_err)?;
    }
    Ok(())
}

/// Reads snapshot bytes from `path`.
///
/// # Errors
///
/// [`PersistError::Io`] on filesystem failure.
pub fn read_snapshot_file(path: impl AsRef<Path>) -> Result<Vec<u8>, PersistError> {
    std::fs::read(path.as_ref())
        .map_err(|e| PersistError::Io(format!("{}: {e}", path.as_ref().display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::strip_sections;
    use dai_core::analysis::FuncAnalysis;
    use dai_core::name::IterCtx;
    use dai_core::query::{IntraResolver, QueryStats};
    use dai_domains::IntervalDomain;
    use dai_lang::cfg::lower_program;
    use dai_lang::parse_program;
    use dai_lang::Loc;
    use dai_memo::MemoTable;

    type D = IntervalDomain;

    const SRC: &str = "function f(n) { var i = 0; while (i < 9) { i = i + 1; } return i; }";

    fn evaluated_analysis() -> FuncAnalysis<D> {
        let cfg = lower_program(&parse_program(SRC).unwrap()).unwrap().cfgs()[0].clone();
        let mut fa = FuncAnalysis::new(cfg, IntervalDomain::top());
        let mut stats = QueryStats::default();
        fa.query_exit(&mut MemoTable::new(), &mut IntraResolver, &mut stats)
            .unwrap();
        fa
    }

    fn image_of(fa: &FuncAnalysis<D>) -> SessionImage<D> {
        SessionImage {
            name: "test".to_string(),
            domain: <D as PersistDomain>::domain_tag(),
            strategy: fa.daig().strategy(),
            policy: None,
            source: SRC.to_string(),
            edits: Vec::new(),
            funcs: vec![FuncImage {
                func: Symbol::new("f"),
                entry: fa.entry_state().clone(),
                daig: fa.daig().clone(),
            }],
        }
    }

    #[test]
    fn daig_roundtrip_preserves_every_cell_and_value() {
        let fa = evaluated_analysis();
        let (image, report) = SessionImage::<D>::from_bytes(&image_of(&fa).to_bytes()).unwrap();
        assert_eq!(report.funcs_restored, 1);
        assert_eq!(report.funcs_dropped, 0);
        assert!(report.is_warm());
        assert!(!report.is_lossy());
        let restored = &image.funcs[0].daig;
        restored.check_well_formed().unwrap();
        assert_eq!(restored.cell_count(), fa.daig().cell_count());
        assert_eq!(restored.comp_count(), fa.daig().comp_count());
        for n in fa.daig().names() {
            assert_eq!(restored.value(n), fa.daig().value(n), "cell {n}");
            assert_eq!(restored.comp(n), fa.daig().comp(n), "comp of {n}");
        }
    }

    #[test]
    fn loop_table_is_rebuilt_from_names_not_stored() {
        let fa = evaluated_analysis();
        let unrolled = fa.daig().unrolled_loops();
        assert_eq!(unrolled.len(), 1, "the interval loop unrolls");
        let mut w = Writer::new();
        encode_daig(fa.daig(), &mut w);
        let bytes = w.into_bytes();
        let restored: Daig<D> =
            decode_daig(&mut Reader::new(&bytes), fa.daig().strategy()).unwrap();
        restored.check_well_formed().unwrap();
        let fix = restored.id_of(fa.daig().name_of(unrolled[0])).unwrap();
        assert_eq!(restored.unrolled_loops(), [fix]);
        assert_eq!(
            restored.unrolled_blocks(fix),
            fa.daig().unrolled_blocks(unrolled[0])
        );
        // The parked cache is never written: a graph that rolled back and
        // holds parked blocks encodes like one that never unrolled.
        let mut rolled = fa.clone();
        rolled.dirty_everything();
        assert!(rolled.daig().parked_blocks(unrolled[0]) > 0);
        let cfg = lower_program(&parse_program(SRC).unwrap()).unwrap().cfgs()[0].clone();
        let initial = FuncAnalysis::new(cfg, IntervalDomain::top());
        let (mut a, mut b) = (Writer::new(), Writer::new());
        encode_daig(rolled.daig(), &mut a);
        encode_daig(initial.daig(), &mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
        // Nor does a session image's copy of the graph carry it.
        assert_eq!(rolled.daig().clone_unparked().parked_blocks(unrolled[0]), 0);
    }

    #[test]
    fn unrolled_cell_without_its_loop_is_corrupt_not_trusted() {
        // `ℓ2⟨ℓ2:2⟩` names an iterate only an unrolling of the loop at `ℓ2`
        // creates; a section holding it without that loop must not decode.
        use dai_lang::{EdgeId, Stmt};
        let mut d: Daig<D> = Daig::new();
        let l0 = Name::State {
            loc: Loc(0),
            ctx: IterCtx::root(),
        };
        let it2 = Name::State {
            loc: Loc(2),
            ctx: IterCtx::root().push(Loc(2), 2),
        };
        d.add_cell(l0.clone(), Some(Value::State(IntervalDomain::top())));
        d.add_cell(Name::Stmt(EdgeId(0)), Some(Value::Stmt(Stmt::Skip)));
        d.add_cell(it2.clone(), None);
        d.add_comp(it2, Func::Transfer, vec![Name::Stmt(EdgeId(0)), l0]);
        let mut w = Writer::new();
        encode_daig(&d, &mut w);
        let bytes = w.into_bytes();
        let err = decode_daig::<D>(&mut Reader::new(&bytes), FixStrategy::PAPER).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(m) if m.contains("unrolling")));
    }

    #[test]
    fn a_state_is_written_once_per_payload_and_restored_shared() {
        use dai_domains::OctagonDomain as O;
        let cfg = lower_program(&parse_program(SRC).unwrap()).unwrap().cfgs()[0].clone();
        let mut fa = FuncAnalysis::new(cfg, O::top());
        let mut memo = MemoTable::new();
        fa.query_exit(&mut memo, &mut IntraResolver, &mut QueryStats::default())
            .unwrap();
        let daig = fa.daig();
        let states = |d: &Daig<O>| -> Vec<O> {
            let cells = d.ids().filter_map(|id| d.value_id(id)?.as_state().cloned());
            cells.collect()
        };
        let distinct = |of: &[O], by: &dyn Fn(&O) -> u128| {
            let set: std::collections::HashSet<u128> = of.iter().map(by).collect();
            set.len()
        };
        let by_content = |s: &O| dai_memo::content_digest(s);
        let by_allocation = |s: &O| u128::from(s.encode_identity().unwrap());
        let live = states(daig);
        let unique = distinct(&live, &by_content);
        assert!(unique < live.len(), "the loop's cells repeat states");

        let mut w = Writer::new();
        encode_daig(daig, &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64().unwrap(), unique as u64, "the table holds each once");
        let back: Daig<O> = decode_daig(&mut Reader::new(&bytes), daig.strategy()).unwrap();
        assert_eq!(states(&back), live);
        // Built once each, then handed out as clones of the one handle.
        assert_eq!(distinct(&states(&back), &by_allocation), unique);
    }

    /// A DAIG payload: `table` states as declared by `count`, then one
    /// computation-free cell `ℓi` per entry of `refs`, whose value is the
    /// state index `refs[i]`.
    fn daig_payload(count: u64, table: &[D], refs: &[u32]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(count);
        for s in table {
            s.put(&mut w);
        }
        w.u64(refs.len() as u64);
        for (i, at) in refs.iter().enumerate() {
            let name = Name::State {
                loc: Loc(i as u32),
                ctx: IterCtx::root(),
            };
            name.put(&mut w);
            w.u8(2);
            w.u32(*at);
            w.u8(0);
        }
        w.into_bytes()
    }

    #[test]
    fn hostile_state_tables_are_corrupt_not_trusted() {
        let table = [IntervalDomain::top(), IntervalDomain::bottom()];
        let decode = |bytes: &[u8]| {
            decode_daig::<D>(&mut Reader::new(bytes), FixStrategy::PAPER).map(|d| d.cell_count())
        };
        let corrupt = |bytes: &[u8], what: &str| match decode(bytes) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("{what}: {other:?}"),
        };
        // The canonical payload: states in first-use order, all used.
        let good = daig_payload(2, &table, &[0, 1, 0]);
        assert_eq!(decode(&good), Ok(3));
        let back = decode_daig::<D>(&mut Reader::new(&good), FixStrategy::PAPER).unwrap();
        let mut w = Writer::new();
        encode_daig(&back, &mut w);
        assert_eq!(good, w.into_bytes());
        // A table count beyond the remaining input is refused before any
        // state is read or a slot allocated for one.
        corrupt(&daig_payload(u64::MAX, &table, &[0, 1]), "count");
        corrupt(&daig_payload(1 << 40, &[], &[]), "count");
        // An index past the table, and one that skips a state not yet used.
        corrupt(&daig_payload(2, &table, &[0, 1, 2]), "state index 2");
        corrupt(&daig_payload(2, &table, &[1, 0]), "state index 1");
        corrupt(&daig_payload(0, &[], &[0]), "state index 0");
        // A state nothing refers to, a cell count beyond the input, a value
        // marker that is neither empty, statement nor state.
        corrupt(&daig_payload(2, &table, &[0]), "never used");
        let mut counted = daig_payload(0, &[], &[]);
        let at = counted.len() - 8;
        counted[at..].copy_from_slice(&u64::MAX.to_le_bytes());
        corrupt(&counted, "cell count");
        let mut marked = good.clone();
        let at = marked.len() - 6;
        marked[at] = 7;
        corrupt(&marked, "bad value marker 7");
        // Every prefix is a clean error.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let fa = evaluated_analysis();
        assert_eq!(image_of(&fa).to_bytes(), image_of(&fa).to_bytes());
    }

    #[test]
    fn damaged_func_section_degrades_not_errors() {
        let fa = evaluated_analysis();
        let mut bytes = image_of(&fa).to_bytes();
        // Find the FUNC section and corrupt a payload byte: locate the tag.
        let at = bytes
            .windows(4)
            .position(|w| w == TAG_FUNC)
            .expect("has FUNC section");
        bytes[at + 20] ^= 0x5A;
        let (image, report) = SessionImage::<D>::from_bytes(&bytes).unwrap();
        assert_eq!(report.funcs_restored, 0);
        assert_eq!(report.funcs_dropped, 1);
        assert!(report.is_lossy());
        assert!(image.funcs.is_empty());
        assert_eq!(image.source, SRC, "session header intact");
    }

    #[test]
    fn truncation_never_panics_and_keeps_prefix_sections() {
        let fa = evaluated_analysis();
        let bytes = image_of(&fa).to_bytes();
        for cut in 0..bytes.len() {
            // Either a clean error (header/SESS gone) or a lossy success.
            let _ = SessionImage::<D>::from_bytes(&bytes[..cut]);
        }
        // Cutting just the trailing FUNC checksum keeps the header.
        let (image, report) = SessionImage::<D>::from_bytes(&bytes[..bytes.len() - 1]).unwrap();
        assert!(report.truncated);
        assert_eq!((report.funcs_restored, report.funcs_dropped), (0, 1));
        assert_eq!(image.source, SRC);
    }

    #[test]
    fn stripping_func_sections_leaves_a_cold_image() {
        let fa = evaluated_analysis();
        let bytes = image_of(&fa).to_bytes();
        let cold = strip_sections(&bytes, TAG_FUNC).unwrap();
        let (image, report) = SessionImage::<D>::from_bytes(&cold).unwrap();
        assert!(image.funcs.is_empty());
        assert_eq!(report.funcs_dropped, 0, "stripped, not damaged");
        assert!(!report.is_warm() && !report.is_lossy());
    }

    #[test]
    fn version_skewed_session_header_is_fatal_not_misdecoded() {
        // Rewrite the file with the SESS section stamped as a future
        // payload version: the reader must refuse rather than decode the
        // payload under v1 field order.
        let fa = evaluated_analysis();
        let bytes = image_of(&fa).to_bytes();
        let list = crate::codec::read_sections(&bytes).unwrap();
        let mut rewritten = crate::codec::SnapshotWriter::new();
        for s in list.sections {
            let version = if s.tag == TAG_SESSION {
                SESSION_VERSION + 1
            } else {
                s.version
            };
            rewritten.section(s.tag, version, s.payload.unwrap());
        }
        let err = SessionImage::<D>::from_bytes(&rewritten.into_bytes()).unwrap_err();
        assert!(
            matches!(err, PersistError::UnsupportedVersion(v) if v == SESSION_VERSION + 1),
            "{err}"
        );
    }

    #[test]
    fn version_skewed_warm_sections_are_dropped_not_fatal() {
        let fa = evaluated_analysis();
        let bytes = image_of(&fa).to_bytes();
        let list = crate::codec::read_sections(&bytes).unwrap();
        let mut rewritten = crate::codec::SnapshotWriter::new();
        for s in list.sections {
            let version = if s.tag == TAG_SESSION {
                s.version
            } else {
                s.version + 1
            };
            rewritten.section(s.tag, version, s.payload.unwrap());
        }
        let (image, report) = SessionImage::<D>::from_bytes(&rewritten.into_bytes()).unwrap();
        assert_eq!(report.funcs_dropped, 1);
        assert!(image.funcs.is_empty());
        assert_eq!(image.source, SRC, "header still restores");
    }

    #[test]
    fn wrong_domain_is_rejected() {
        let fa = evaluated_analysis();
        let bytes = image_of(&fa).to_bytes();
        let err = SessionImage::<dai_domains::SignDomain>::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(m) if m.contains("domain")));
    }

    #[test]
    fn safe_durability_issues_the_fsyncs_and_fast_does_not() {
        let dir = std::env::temp_dir().join(format!("dai-durab-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.daip");

        // Fast: no syncs. (Other tests in this process don't use Safe
        // mode, but read the counters as before/after deltas anyway.)
        let before = sync_counts();
        write_snapshot_file_durable(&path, b"fast bytes", Durability::Fast).unwrap();
        assert_eq!(sync_counts(), before, "Fast mode must not fsync");
        assert_eq!(std::fs::read(&path).unwrap(), b"fast bytes");

        // Safe: exactly one file sync (tmp before rename) and one
        // directory sync (after rename).
        let (f0, d0) = sync_counts();
        write_snapshot_file_durable(&path, b"safe bytes", Durability::Safe).unwrap();
        let (f1, d1) = sync_counts();
        assert_eq!(f1 - f0, 1, "Safe mode fsyncs the data file");
        assert_eq!(d1 - d0, 1, "Safe mode fsyncs the directory");
        assert_eq!(std::fs::read(&path).unwrap(), b"safe bytes");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
