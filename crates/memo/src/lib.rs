//! # dai-memo — the auxiliary memoization table `M`
//!
//! The DAIG operational semantics (paper Fig. 8) thread an auxiliary memo
//! table `M` mapping names of the form `f·(v₁⋯v_k)` — a function symbol
//! paired with the (hashes of the) argument values — to previously computed
//! results. `Q-Match` reuses an entry when the same function has already
//! been applied to the same inputs *anywhere* in the program, independent
//! of program location; `Q-Miss` computes and records a new entry.
//!
//! The paper's prototype obtains this table from `adapton.ocaml`; the
//! semantics only require a sound finite map, so this crate provides
//! exactly that:
//!
//! * [`MemoKey`] — a 128-bit content hash of `f·(v₁⋯v_k)`, built with
//!   [`KeyBuilder`]. The paper's names are "hashes, essentially" (§2.1);
//!   we make that literal.
//! * [`MemoTable`] — the map itself, with hit/miss/eviction statistics and
//!   an optional capacity bound. Dropping entries is always sound
//!   (paper §2.2: "it is sound to drop cached results from the DAIG and/or
//!   memo table"), so eviction uses a cheap two-generation scheme.
//! * [`MemoStore`] — the lookup/record interface DAIG evaluation is
//!   written against, so single-threaded tables and the concurrent one
//!   are interchangeable.
//! * [`SharedMemoTable`] — a sharded, thread-safe table (per-shard locks,
//!   global hit/miss/eviction counters) shared across analysis sessions
//!   by `dai-engine`'s worker pool. Sharing is sound for the same reason
//!   dropping is: entries are keyed by content hashes of their inputs, so
//!   any entry another session wrote is one this session could have
//!   computed itself.
//!
//! ## Throughput notes
//!
//! Key construction is on the analysis hot path — every `Q-Match` lookup
//! hashes the function's inputs — so the builder is engineered to do no
//! redundant work: [`KeyBuilder::finish`] consumes the builder and
//! finalizes its two hash streams in place (no hasher cloning), and
//! [`KeyBuilder::push_digest`] feeds a **pre-computed** [`content_digest`]
//! (16 bytes) instead of re-hashing a full value. `dai-core` caches a
//! digest per filled DAIG cell at write time, which turns the per-lookup
//! cost for large abstract states (octagon matrices, shape graphs) from
//! O(|state|) into O(1); on the Fig. 10 octagon workload this is a large
//! fraction of the end-to-end query cost (`memo.fetch_us`, `memo.record_us`
//! and `memo.self_share` of `benchmark/run.sh --workload fig10_edit_query
//! --trace 1` are where it shows).
//!
//! ```
//! use dai_memo::{KeyBuilder, MemoTable};
//!
//! let mut m: MemoTable<i64> = MemoTable::new();
//! let key = KeyBuilder::new("transfer").push(&"x = x + 1").push(&41).finish();
//! assert!(m.get(key).is_none());
//! m.insert(key, 42);
//! assert_eq!(m.get(key), Some(&42));
//! assert_eq!(m.stats().hits, 1);
//! ```

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fast, non-cryptographic hasher (the rustc-hash / FxHash algorithm)
/// for *map-internal* use, where a collision costs a probe rather than a
/// wrong answer. [`MemoKey`] identity and [`content_digest`]s stay on the
/// two-stream SipHash construction; this type exists so hot id- and
/// name-keyed tables (the DAIG interner, the memo shards) do not pay
/// SipHash per lookup.
#[derive(Debug, Default, Clone)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher64`].
pub type FxBuild = BuildHasherDefault<FxHasher64>;

/// Pass-through hasher for keys that are already uniform hashes
/// ([`MemoKey`]): uses the key's low 64 bits directly instead of
/// re-hashing 16 bytes through SipHash on every table operation.
#[derive(Debug, Default, Clone)]
pub struct PrehashedKeyHasher {
    hash: u64,
}

impl Hasher for PrehashedKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic path (not used by MemoKey's u128 hash, but kept total).
        for &b in bytes {
            self.hash = self.hash.rotate_left(8) ^ b as u64;
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // u128::hash writes the value as two u64s (or one u128 write
        // depending on platform); fold everything in.
        self.hash ^= n;
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.hash ^= (n >> 64) as u64 ^ n as u64;
    }
}

/// `BuildHasher` for [`PrehashedKeyHasher`].
pub type PrehashedBuild = BuildHasherDefault<PrehashedKeyHasher>;

/// A 128-bit content hash identifying a memoized application `f·(v₁⋯v_k)`.
///
/// Two independently seeded 64-bit SipHash streams are concatenated; keys
/// are equal only if both streams agree, making accidental collisions
/// vanishingly unlikely at analysis scales (billions of entries would be
/// needed for a 2⁻⁶⁴ birthday bound to matter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemoKey(pub u128);

impl fmt::Display for MemoKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A 128-bit-output hasher pairing one SipHash stream (collision
/// resistance) with one FxHash stream (independence), fed by a **single**
/// traversal of the value — `Hash::hash` walks the structure once, not
/// once per stream. A [`MemoKey`] collision requires both streams to
/// collide simultaneously, which for non-adversarial analysis values is
/// as unlikely as the previous dual-SipHash construction in practice,
/// at roughly half the hashing cost.
#[derive(Debug, Clone)]
struct TwinHasher {
    sip: DefaultHasher,
    fx: FxHasher64,
}

impl TwinHasher {
    fn seeded(seed: u64) -> TwinHasher {
        let mut t = TwinHasher {
            sip: DefaultHasher::new(),
            fx: FxHasher64::default(),
        };
        seed.hash(&mut t);
        t
    }

    fn finish128(&self) -> u128 {
        ((self.sip.finish() as u128) << 64) | self.fx.finish() as u128
    }
}

impl Hasher for TwinHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.sip.finish() ^ self.fx.finish()
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.sip.write(bytes);
        self.fx.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.sip.write_u8(n);
        self.fx.write_u8(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.sip.write_u32(n);
        self.fx.write_u32(n);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.sip.write_u64(n);
        self.fx.write_u64(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.sip.write_usize(n);
        self.fx.write_usize(n);
    }
}

/// Incrementally hashes a function symbol and its argument values into a
/// [`MemoKey`].
///
/// The builder is order-sensitive: `push(a).push(b)` and `push(b).push(a)`
/// produce different keys, as required for non-commutative functions like
/// widening.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    h: TwinHasher,
}

impl KeyBuilder {
    /// Starts a key for an application of the function named `func`.
    pub fn new(func: &str) -> KeyBuilder {
        let mut h = TwinHasher::seeded(0xD41A_1E57);
        func.hash(&mut h);
        KeyBuilder { h }
    }

    /// Feeds one argument value into the key.
    pub fn push<T: Hash + ?Sized>(mut self, value: &T) -> KeyBuilder {
        value.hash(&mut self.h);
        self
    }

    /// Feeds a pre-computed [`content_digest`] into the key — 16 bytes of
    /// hashing regardless of how large the digested value was.
    pub fn push_digest(mut self, digest: u128) -> KeyBuilder {
        digest.hash(&mut self.h);
        self
    }

    /// Finalizes the key, consuming the builder (the hashers are finished
    /// in place — no clones).
    pub fn finish(self) -> MemoKey {
        MemoKey(self.h.finish128())
    }
}

/// The 128-bit content hash of a single value, using the same
/// twin-stream construction as [`MemoKey`]s (differently seeded, so a
/// digest is never confused with a one-argument key).
///
/// Computed once per cell write and thereafter fed to
/// [`KeyBuilder::push_digest`], this amortizes the cost of hashing large
/// values across every memo lookup that reads them. What one call costs is
/// up to the value's `Hash`: a domain that caches a fingerprint beside its
/// shared representation (the octagon does, over the packed half of its
/// matrix) walks the value once per allocation, however many cells that
/// allocation is written to.
pub fn content_digest<T: Hash + ?Sized>(value: &T) -> u128 {
    let mut h = TwinHasher::seeded(0xD16E_57A7);
    value.hash(&mut h);
    h.finish128()
}

/// Hit/miss/eviction counters for a [`MemoTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that found an entry (`Q-Match`).
    pub hits: u64,
    /// Lookups that found nothing (`Q-Miss`).
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries dropped by capacity rotation.
    pub evictions: u64,
}

impl MemoStats {
    /// `hits / (hits + misses)`, or 0 when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The auxiliary memo table `M` of the DAIG semantics.
///
/// When constructed with a capacity bound, the table keeps at most roughly
/// `capacity` entries using two generations: lookups promote entries from
/// the old generation into the current one, and filling the current
/// generation retires the old one wholesale. Recently used entries
/// therefore survive; stale ones age out in O(1) amortized time.
#[derive(Debug, Clone)]
pub struct MemoTable<V> {
    current: HashMap<MemoKey, V, PrehashedBuild>,
    previous: HashMap<MemoKey, V, PrehashedBuild>,
    capacity: Option<usize>,
    stats: MemoStats,
}

impl<V> Default for MemoTable<V> {
    fn default() -> Self {
        MemoTable::new()
    }
}

impl<V> MemoTable<V> {
    /// Creates an unbounded table.
    pub fn new() -> MemoTable<V> {
        MemoTable {
            current: HashMap::default(),
            previous: HashMap::default(),
            capacity: None,
            stats: MemoStats::default(),
        }
    }

    /// Creates a table that keeps roughly `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity_limit(capacity: usize) -> MemoTable<V> {
        assert!(capacity > 0, "memo table capacity must be positive");
        MemoTable {
            capacity: Some(capacity),
            ..MemoTable::new()
        }
    }

    /// Looks up `key`, recording a hit or miss.
    pub fn get(&mut self, key: MemoKey) -> Option<&V> {
        // Promote from the previous generation on hit so hot entries
        // survive rotations.
        if !self.current.contains_key(&key) {
            if let Some(v) = self.previous.remove(&key) {
                self.current.insert(key, v);
            }
        }
        match self.current.get(&key) {
            Some(v) => {
                self.stats.hits += 1;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks for `key` without touching statistics or generations.
    pub fn contains(&self, key: MemoKey) -> bool {
        self.peek(key).is_some()
    }

    /// The entry under `key`, without touching statistics or generations.
    pub fn peek(&self, key: MemoKey) -> Option<&V> {
        self.current.get(&key).or_else(|| self.previous.get(&key))
    }

    /// Inserts an entry, rotating generations if over capacity.
    pub fn insert(&mut self, key: MemoKey, value: V) {
        self.stats.insertions += 1;
        self.current.insert(key, value);
        if let Some(cap) = self.capacity {
            let half = cap.div_ceil(2);
            if self.current.len() >= half {
                self.stats.evictions += self.previous.len() as u64;
                self.previous = std::mem::take(&mut self.current);
            }
        }
    }

    /// Number of live entries (both generations).
    pub fn len(&self) -> usize {
        self.current.len() + self.previous.len()
    }

    /// Returns `true` if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (sound: see crate docs), keeping statistics.
    pub fn clear(&mut self) {
        self.current.clear();
        self.previous.clear();
    }

    /// Iterates every live entry (both generations), in no particular
    /// order and without touching statistics or generations (persistence
    /// export). A key present in both generations (inserted again after
    /// aging into `previous`) is yielded once, with its current value —
    /// exporters must see each key exactly as a lookup would.
    pub fn entries(&self) -> impl Iterator<Item = (MemoKey, &V)> {
        self.current
            .iter()
            .chain(
                self.previous
                    .iter()
                    .filter(|(k, _)| !self.current.contains_key(k)),
            )
            .map(|(k, v)| (*k, v))
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    /// Resets statistics to zero.
    pub fn reset_stats(&mut self) {
        self.stats = MemoStats::default();
    }
}

/// The lookup/record interface the DAIG query semantics thread `M`
/// through. Writing evaluation against this trait (rather than
/// [`MemoTable`] concretely) lets a scheduler substitute the concurrent
/// [`SharedMemoTable`] without touching the semantics: both report
/// `Q-Match`-able entries and both accept `Q-Miss` recordings.
///
/// `fetch` returns an owned value because a shared table cannot hand out
/// references across its shard locks; evaluation cloned every memo hit
/// anyway (the value is written into a DAIG cell).
pub trait MemoStore<V: Clone> {
    /// Looks up `key`, recording a hit or miss in the statistics.
    fn fetch(&mut self, key: MemoKey) -> Option<V>;
    /// Records a computed entry for `key`.
    fn record(&mut self, key: MemoKey, value: V);
}

impl<V: Clone> MemoStore<V> for MemoTable<V> {
    fn fetch(&mut self, key: MemoKey) -> Option<V> {
        self.get(key).cloned()
    }

    fn record(&mut self, key: MemoKey, value: V) {
        self.insert(key, value);
    }
}

/// A sharded, thread-safe memo table: `Q-Match`/`Q-Miss` traffic from many
/// concurrent sessions lands on per-shard [`MemoTable`]s behind their own
/// locks, while hit/miss/insertion/eviction totals are kept in global
/// atomic counters so [`SharedMemoTable::stats`] never has to stop the
/// world.
///
/// Cloning is shallow (an [`Arc`] bump): clones share the same shards and
/// counters, which is how `dai-engine` hands one table to every worker and
/// session.
///
/// Every entry carries an **insertion stamp** — a table-wide sequence
/// number taken when its key first entered the table — so an exporter can
/// tell what is new since its last export ([`MemoStamps::newer_than`]):
/// that is how a journal holds each entry once instead of the whole table
/// per save.
#[derive(Debug, Clone)]
pub struct SharedMemoTable<V> {
    inner: Arc<SharedInner<V>>,
}

#[derive(Debug)]
struct SharedInner<V> {
    /// Power-of-two shard array; a key's shard is chosen by its mixed
    /// high/low hash bits. Values sit beside their insertion stamp.
    shards: Vec<Mutex<MemoTable<(u64, V)>>>,
    /// The last stamp handed out. A stamp is taken with the key's shard
    /// locked, so an exporter that reads this *before* it locks the shards
    /// sees every entry stamped at or below what it read.
    last_stamp: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V> SharedMemoTable<V> {
    /// Default shard count: enough to keep a handful of workers from
    /// contending, small enough that per-shard tables stay dense.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates an unbounded table with `shards` shards (rounded up to a
    /// power of two, minimum 1).
    pub fn new(shards: usize) -> SharedMemoTable<V> {
        Self::build(shards, None)
    }

    /// Creates a table keeping roughly `capacity` entries in total,
    /// spread over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity_limit(shards: usize, capacity: usize) -> SharedMemoTable<V> {
        assert!(capacity > 0, "memo table capacity must be positive");
        Self::build(shards, Some(capacity))
    }

    fn build(shards: usize, capacity: Option<usize>) -> SharedMemoTable<V> {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| {
                Mutex::new(match capacity {
                    Some(c) => MemoTable::with_capacity_limit(c.div_ceil(n).max(1)),
                    None => MemoTable::new(),
                })
            })
            .collect();
        SharedMemoTable {
            inner: Arc::new(SharedInner {
                shards,
                last_stamp: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                insertions: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
            }),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    fn shard(&self, key: MemoKey) -> &Mutex<MemoTable<(u64, V)>> {
        // Fold both 64-bit halves so either hash stream alone suffices to
        // spread keys.
        let h = (key.0 >> 64) as u64 ^ key.0 as u64;
        &self.inner.shards[(h as usize) & (self.inner.shards.len() - 1)]
    }

    /// Looks up `key`, recording a global hit or miss.
    pub fn get(&self, key: MemoKey) -> Option<V>
    where
        V: Clone,
    {
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        let out = shard.get(key).map(|(_, v)| v.clone());
        match out {
            Some(_) => self.inner.hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Inserts an entry, attributing any capacity eviction to the global
    /// counter. A key the table already holds keeps its stamp: writing it
    /// again (two sessions missing on it at once, a restore importing what
    /// is already here) gives an exporter nothing new to carry.
    pub fn insert(&self, key: MemoKey, value: V) {
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        let evicted_before = shard.stats().evictions;
        let stamp = match shard.peek(key) {
            Some((stamp, _)) => *stamp,
            None => self.inner.last_stamp.fetch_add(1, Ordering::SeqCst) + 1,
        };
        shard.insert(key, (stamp, value));
        let delta = shard.stats().evictions - evicted_before;
        drop(shard);
        self.inner.insertions.fetch_add(1, Ordering::Relaxed);
        if delta > 0 {
            self.inner.evictions.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum()
    }

    /// Returns `true` if no shard holds entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (sound; see crate docs), keeping the global
    /// counters.
    pub fn clear(&self) {
        for s in &self.inner.shards {
            s.lock().expect("memo shard poisoned").clear();
        }
    }

    /// Clones out every live entry across all shards, and their stamps
    /// (persistence export). The order is shard-internal and unspecified;
    /// persistence sorts by key before serializing so snapshots are
    /// byte-deterministic. Dropping or re-importing any subset of the
    /// result is sound — memo entries are keyed by content hashes of their
    /// inputs, so a restored entry can only ever substitute a value the
    /// analysis would have computed itself.
    pub fn export_entries(&self) -> (Vec<(MemoKey, V)>, MemoStamps)
    where
        V: Clone,
    {
        // Read before the first shard is locked (see `last_stamp`).
        let high = self.inner.last_stamp.load(Ordering::SeqCst);
        let (mut entries, mut stamps) = (Vec::new(), Vec::new());
        for s in &self.inner.shards {
            let shard = s.lock().expect("memo shard poisoned");
            for (k, (stamp, v)) in shard.entries() {
                entries.push((k, v.clone()));
                stamps.push(*stamp);
            }
        }
        (entries, MemoStamps { stamps, high })
    }

    /// Global statistics, read without touching the shard locks.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            insertions: self.inner.insertions.load(Ordering::Relaxed),
            evictions: self.inner.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The insertion stamps of one [`SharedMemoTable::export_entries`], index
/// for index with its entries.
#[derive(Debug, Clone)]
pub struct MemoStamps {
    stamps: Vec<u64>,
    /// Every entry stamped at or below this was exported (unless the
    /// table had already dropped it); one stamped above it may have been
    /// missed, and is left for the next export.
    pub high: u64,
}

impl MemoStamps {
    /// Indices of the exported entries stamped above `mark` and at or
    /// below [`Self::high`]: what entered the table since an export whose
    /// `high` was `mark`.
    pub fn newer_than(&self, mark: u64) -> impl Iterator<Item = usize> + '_ {
        let stamps = self.stamps.iter().enumerate();
        stamps.filter_map(move |(i, &s)| (mark < s && s <= self.high).then_some(i))
    }
}

impl<V> Default for SharedMemoTable<V> {
    fn default() -> Self {
        SharedMemoTable::new(Self::DEFAULT_SHARDS)
    }
}

impl<V: Clone> MemoStore<V> for SharedMemoTable<V> {
    fn fetch(&mut self, key: MemoKey) -> Option<V> {
        self.get(key)
    }

    fn record(&mut self, key: MemoKey, value: V) {
        self.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(f: &str, args: &[i64]) -> MemoKey {
        let mut b = KeyBuilder::new(f);
        for a in args {
            b = b.push(a);
        }
        b.finish()
    }

    #[test]
    fn insert_then_get_hits() {
        let mut m = MemoTable::new();
        let k = key("join", &[1, 2]);
        m.insert(k, "v");
        assert_eq!(m.get(k), Some(&"v"));
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().misses, 0);
    }

    #[test]
    fn miss_recorded() {
        let mut m: MemoTable<()> = MemoTable::new();
        assert!(m.get(key("f", &[0])).is_none());
        assert_eq!(m.stats().misses, 1);
    }

    #[test]
    fn keys_differ_by_function_symbol() {
        assert_ne!(key("join", &[1, 2]), key("widen", &[1, 2]));
    }

    #[test]
    fn keys_are_order_sensitive() {
        assert_ne!(key("widen", &[1, 2]), key("widen", &[2, 1]));
    }

    #[test]
    fn keys_are_deterministic() {
        assert_eq!(key("f", &[7, 8, 9]), key("f", &[7, 8, 9]));
    }

    #[test]
    fn digest_keys_match_for_equal_values() {
        let a = content_digest(&"state-a");
        let b = content_digest(&"state-b");
        assert_ne!(a, b);
        assert_eq!(a, content_digest(&"state-a"));
        let k1 = KeyBuilder::new("join")
            .push_digest(a)
            .push_digest(b)
            .finish();
        let k2 = KeyBuilder::new("join")
            .push_digest(a)
            .push_digest(b)
            .finish();
        let k3 = KeyBuilder::new("join")
            .push_digest(b)
            .push_digest(a)
            .finish();
        assert_eq!(k1, k2);
        assert_ne!(k1, k3, "digest keys stay order-sensitive");
    }

    #[test]
    fn keys_distinguish_argument_boundaries() {
        // push("ab"), push("c") vs push("a"), push("bc")
        let k1 = KeyBuilder::new("f").push("ab").push("c").finish();
        let k2 = KeyBuilder::new("f").push("a").push("bc").finish();
        assert_ne!(k1, k2);
    }

    #[test]
    fn capacity_rotation_evicts_cold_entries() {
        let mut m = MemoTable::with_capacity_limit(8);
        for i in 0..100 {
            m.insert(key("f", &[i]), i);
        }
        assert!(m.len() <= 8, "len = {}", m.len());
        assert!(m.stats().evictions > 0);
    }

    #[test]
    fn hot_entries_survive_rotation() {
        let mut m = MemoTable::with_capacity_limit(8);
        let hot = key("f", &[-1]);
        m.insert(hot, -1);
        for i in 0..3 {
            m.insert(key("f", &[i]), i);
            // Keep touching the hot key so it is promoted before each
            // rotation can retire it.
            assert_eq!(m.get(hot), Some(&-1), "hot entry lost at i={i}");
        }
    }

    #[test]
    fn clear_keeps_stats() {
        let mut m = MemoTable::new();
        m.insert(key("f", &[1]), 1);
        let _ = m.get(key("f", &[1]));
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.stats().hits, 1);
        m.reset_stats();
        assert_eq!(m.stats(), &MemoStats::default());
    }

    #[test]
    fn memo_store_is_object_safe_and_interchangeable() {
        fn exercise(store: &mut dyn MemoStore<i64>) {
            let k = key("transfer", &[1, 2]);
            assert!(store.fetch(k).is_none());
            store.record(k, 7);
            assert_eq!(store.fetch(k), Some(7));
        }
        exercise(&mut MemoTable::new());
        exercise(&mut SharedMemoTable::new(4));
    }

    #[test]
    fn shared_table_counts_globally_across_clones() {
        let shared: SharedMemoTable<i64> = SharedMemoTable::new(8);
        let other = shared.clone();
        for i in 0..50 {
            shared.insert(key("f", &[i]), i);
        }
        for i in 0..50 {
            assert_eq!(other.get(key("f", &[i])), Some(i));
        }
        assert!(other.get(key("f", &[999])).is_none());
        let stats = shared.stats();
        assert_eq!(stats.hits, 50);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 50);
        assert_eq!(shared.len(), 50);
        shared.clear();
        assert!(other.is_empty());
        assert_eq!(other.stats().hits, 50, "clear keeps counters");
    }

    #[test]
    fn exports_say_what_is_new_since_a_mark() {
        let t: SharedMemoTable<i64> = SharedMemoTable::new(4);
        let newer = |mark: u64| {
            let (entries, stamps) = t.export_entries();
            let mut keys: Vec<MemoKey> = stamps.newer_than(mark).map(|i| entries[i].0).collect();
            keys.sort();
            (keys, stamps.high)
        };
        let sorted = |r: std::ops::Range<i64>| {
            let mut keys: Vec<MemoKey> = r.map(|i| key("f", &[i])).collect();
            keys.sort();
            keys
        };
        for i in 0..10 {
            t.insert(key("f", &[i]), i);
        }
        let (all, first) = newer(0);
        assert_eq!((all, first), (sorted(0..10), 10));
        // A key written again keeps its stamp; new keys are what is new.
        t.insert(key("f", &[3]), 3);
        for i in 10..15 {
            t.insert(key("f", &[i]), i);
        }
        let (fresh, second) = newer(first);
        assert_eq!((fresh, second), (sorted(10..15), 15));
        assert_eq!(newer(second).0, []);
        assert_eq!(newer(0).0, sorted(0..15), "mark 0 is the table whole");
        assert_eq!(t.get(key("f", &[3])), Some(3));
    }

    #[test]
    fn shared_table_rounds_shards_to_power_of_two() {
        let t: SharedMemoTable<()> = SharedMemoTable::new(5);
        assert_eq!(t.shard_count(), 8);
        let t1: SharedMemoTable<()> = SharedMemoTable::new(0);
        assert_eq!(t1.shard_count(), 1);
    }

    #[test]
    fn shared_table_capacity_evicts_and_counts() {
        let t: SharedMemoTable<i64> = SharedMemoTable::with_capacity_limit(2, 16);
        for i in 0..500 {
            t.insert(key("f", &[i]), i);
        }
        assert!(t.len() <= 32, "len = {}", t.len());
        assert!(t.stats().evictions > 0);
    }

    #[test]
    fn shared_table_is_send_sync_and_concurrent() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedMemoTable<i64>>();
        let t: SharedMemoTable<i64> = SharedMemoTable::new(8);
        std::thread::scope(|scope| {
            for w in 0..4i64 {
                let t = t.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        let k = key("f", &[i % 50]);
                        if let Some(v) = t.get(k) {
                            assert_eq!(v, i % 50, "worker {w} read a clobbered value");
                        } else {
                            t.insert(k, i % 50);
                        }
                    }
                });
            }
        });
        assert!(t.len() <= 50);
    }

    #[test]
    fn hit_rate() {
        let mut m = MemoTable::new();
        assert_eq!(m.stats().hit_rate(), 0.0);
        let k = key("f", &[1]);
        m.insert(k, 1);
        let _ = m.get(k);
        let _ = m.get(key("f", &[2]));
        assert!((m.stats().hit_rate() - 0.5).abs() < 1e-9);
    }
}
