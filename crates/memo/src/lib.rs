//! # dai-memo — the auxiliary memoization table `M`
//!
//! The DAIG operational semantics (paper Fig. 8) thread an auxiliary memo
//! table `M` mapping names of the form `f·(v₁⋯v_k)` — a function symbol
//! paired with the (hashes of the) argument values — to previously computed
//! results. `Q-Match` reuses an entry when the same function has already
//! been applied to the same inputs *anywhere* in the program, independent
//! of program location; `Q-Miss` computes and records a new entry.
//!
//! The symbols `dai-core` keys are the DAIG's own functions — `transfer`,
//! `join` and `widen` (a delayed widening keys as `join`) — and, for
//! interprocedural analysis, the two call bindings `call_entry` and
//! `call_return`. A callee's exit is never an entry: it depends on the
//! callee's current body, not only on its arguments.
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
//! Hashing is on the analysis hot path — every `Q-Match` lookup builds a
//! key, every cell write a digest — and one kernel does all of it:
//! `ContentHasher`, a folded multiply in place of fixed-key SipHash.
//! [`KeyBuilder::push_digest`] feeds a **pre-computed** [`content_digest`]
//! (one block): `dai-core` caches one per filled DAIG cell, the octagon and
//! `NonRel` one per allocation, so a lookup costs O(1) however large the
//! state (`memo.fetch_us` and `domains.eq_hash_us` under `--trace 1`).
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

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fast, non-cryptographic hasher (the rustc-hash / FxHash algorithm)
/// for *map-internal* use and frame checksums, where a collision costs a
/// probe or a re-read rather than a wrong answer. It is not a content
/// hash: [`MemoKey`]s and [`content_digest`]s are `ContentHasher`'s.
/// This type exists so hot id- and name-keyed tables (the DAIG interner,
/// the memo shards) do not pay std's SipHash per lookup.
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
/// Keys are never checked against what they name, so a collision would be
/// a wrong answer; the halves come from two lanes with independent secrets,
/// and a birthday collision needs on the order of 2⁶⁴ keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemoKey(pub u128);

impl fmt::Display for MemoKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The folded multiply: the 128-bit product of `a` and `b`, halves XOR-ed.
const fn fold(a: u64, b: u64) -> u64 {
    let p = a as u128 * b as u128;
    p as u64 ^ (p >> 64) as u64
}

/// What every word is XOR-ed with before it multiplies: odd, half their
/// bits set, and (the tests pin it) no word analysis data is made of.
const SECRET: [u64; 6] = [
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
    0x8ebc_6af0_9c88_c6e3,
    0x5899_65cc_7537_4cc3,
    0x1d8e_4e27_c47d_124f,
    0x2d35_8dcc_aa6c_78a5,
];

/// The one content hash: every [`MemoKey`] and [`content_digest`] (hence
/// every cell digest, octagon fingerprint and `NonRel` binding digest).
/// Two lanes with independent secrets absorb 16-byte blocks `(a, b)` by the
/// folded multiply of wyhash and rapidhash, `x ← fold(a ⊕ s₀, b ⊕ x)` and
/// `y ← fold(b ⊕ s₁, a ⊕ y)`; the finaliser adds the word count. A slice
/// of 64 bytes or more (a packed octagon) runs a second pair of lanes on
/// alternate blocks, so four multiply chains are in flight, not two.
///
/// It replaced `DefaultHasher::new()`, SipHash-1-3 under the fixed, public
/// key `(0, 0)`: a key anyone can compute keeps out no adversary, so it
/// bought only statistical spread, which the folded multiply gives at a
/// fraction of the cost. Its one weakness, a zero multiplicand wiping a
/// lane, needs a data word equal to a secret.
#[derive(Debug, Clone)]
struct ContentHasher {
    lanes: [u64; 2],
    /// The first word of a half-fed block, live while `words` is odd.
    pending: u64,
    words: u64,
}

impl ContentHasher {
    const fn seeded(seed: u64) -> ContentHasher {
        ContentHasher {
            lanes: [seed ^ SECRET[0], seed ^ SECRET[1]],
            pending: 0,
            words: 0,
        }
    }

    fn block(&mut self, a: u64, b: u64) {
        let [x, y] = self.lanes;
        self.lanes = [fold(a ^ SECRET[0], b ^ x), fold(b ^ SECRET[1], a ^ y)];
    }

    fn word(&mut self, w: u64) {
        if self.words & 1 == 1 {
            self.block(self.pending, w);
        } else {
            self.pending = w;
        }
        self.words += 1;
    }

    /// Absorbs `bytes`' 32-byte chunks, returning the rest: two words of
    /// each to the lanes, two to a second pair, merged at the end.
    fn bulk<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        let [x, y] = self.lanes;
        let mut l = [x, y, x ^ SECRET[4], y ^ SECRET[5]];
        let mut chunks = bytes.chunks_exact(32);
        for chunk in &mut chunks {
            let [a, b, c, d] = [0, 8, 16, 24].map(|i| le_word(&chunk[i..i + 8]));
            l = [
                fold(a ^ SECRET[0], b ^ l[0]),
                fold(b ^ SECRET[1], a ^ l[1]),
                fold(c ^ SECRET[2], d ^ l[2]),
                fold(d ^ SECRET[3], c ^ l[3]),
            ];
        }
        self.words += (bytes.len() / 32 * 4) as u64;
        self.lanes = [l[0] ^ l[2], l[1] ^ l[3]];
        chunks.remainder()
    }

    fn finish128(mut self) -> u128 {
        let last = if self.words & 1 == 1 { self.pending } else { 0 };
        self.block(last, self.words);
        let [x, y] = self.lanes;
        let lo = fold(x ^ SECRET[2], y ^ SECRET[3]);
        u128::from(fold(y ^ SECRET[4], x ^ SECRET[5])) << 64 | u128::from(lo)
    }
}

#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Integers reach [`Hasher::write`] as their bytes: one path, one word.
impl Hasher for ContentHasher {
    fn finish(&self) -> u64 {
        self.clone().finish128() as u64
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        if rest.len() >= 64 {
            if self.words & 1 == 1 {
                self.word(le_word(&rest[..8]));
                rest = &rest[8..];
            }
            rest = self.bulk(rest);
        }
        let mut words = rest.chunks_exact(8);
        words.by_ref().for_each(|w| self.word(le_word(w)));
        let tail = words.remainder();
        if !tail.is_empty() {
            // Up to seven bytes, and their count in the eighth.
            let w = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.word(w | (tail.len() as u64) << 56);
        }
    }
}

/// Where keys and digests start: apart, so no digest is a one-argument key.
const KEYS: ContentHasher = ContentHasher::seeded(0xD41A_1E57);
const DIGESTS: ContentHasher = ContentHasher::seeded(0xD16E_57A7);

/// Incrementally hashes a function symbol and its argument values into a
/// [`MemoKey`].
///
/// The builder is order-sensitive: `push(a).push(b)` and `push(b).push(a)`
/// produce different keys, as required for non-commutative functions like
/// widening.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    h: ContentHasher,
}

impl KeyBuilder {
    /// Starts a key for an application of the function named `func`.
    pub fn new(func: &str) -> KeyBuilder {
        let mut h = KEYS;
        func.hash(&mut h);
        KeyBuilder { h }
    }

    /// Feeds one argument value into the key.
    pub fn push<T: Hash + ?Sized>(mut self, value: &T) -> KeyBuilder {
        value.hash(&mut self.h);
        self
    }

    /// Feeds a pre-computed [`content_digest`] into the key — one block of
    /// hashing regardless of how large the digested value was.
    pub fn push_digest(self, digest: u128) -> KeyBuilder {
        self.push(&digest)
    }

    /// Finalizes the key, consuming the builder.
    pub fn finish(self) -> MemoKey {
        MemoKey(self.h.finish128())
    }
}

/// The 128-bit content hash of a single value: `ContentHasher` seeded
/// apart from [`MemoKey`]s.
///
/// Computed once per cell write and thereafter fed to
/// [`KeyBuilder::push_digest`], this amortizes the cost of hashing large
/// values across every memo lookup that reads them. What one call costs is
/// up to the value's `Hash`: a domain that caches a fingerprint beside its
/// shared representation (the octagon and `NonRel` do) hashes 16 bytes
/// here, and walks its content once per allocation.
pub fn content_digest<T: Hash + ?Sized>(value: &T) -> u128 {
    let mut h = DIGESTS;
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

    /// Adds `other`'s counters into these.
    pub fn absorb(&mut self, other: MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }

    /// The counts between an `earlier` reading and this one (field-wise
    /// subtraction).
    pub fn delta(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            insertions: self.insertions - earlier.insertions,
            evictions: self.evictions - earlier.evictions,
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
        // survive rotations. Until a rotation fills it, `previous` is
        // empty and a lookup is one probe of `current`.
        if !self.previous.is_empty() && !self.current.contains_key(&key) {
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
    /// order and without touching statistics or generations. A key present
    /// in both generations (inserted again after aging into `previous`) is
    /// yielded once, with its current value — as a lookup would see it.
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
#[derive(Debug, Clone)]
pub struct SharedMemoTable<V> {
    inner: Arc<SharedInner<V>>,
}

#[derive(Debug)]
struct SharedInner<V> {
    /// Power-of-two shard array; a key's shard is chosen by its mixed
    /// high/low hash bits.
    shards: Vec<Mutex<MemoTable<V>>>,
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

    fn shard(&self, key: MemoKey) -> &Mutex<MemoTable<V>> {
        // Fold both 64-bit halves so either lane alone suffices to spread
        // keys.
        let h = (key.0 >> 64) as u64 ^ key.0 as u64;
        &self.inner.shards[(h as usize) & (self.inner.shards.len() - 1)]
    }

    /// Looks up `key`, recording a global hit or miss.
    pub fn get(&self, key: MemoKey) -> Option<V>
    where
        V: Clone,
    {
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        let out = shard.get(key).cloned();
        match out {
            Some(_) => self.inner.hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.misses.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    /// Inserts an entry, attributing any capacity eviction to the global
    /// counter.
    pub fn insert(&self, key: MemoKey, value: V) {
        let mut shard = self.shard(key).lock().expect("memo shard poisoned");
        let evicted_before = shard.stats().evictions;
        shard.insert(key, value);
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
    fn a_rotated_entry_is_promoted_on_its_next_hit() {
        let mut m = MemoTable::with_capacity_limit(4);
        let (a, b) = (key("f", &[1]), key("f", &[2]));
        m.insert(a, 1);
        m.insert(b, 2); // fills half the capacity: `a` and `b` rotate out
        assert!(m.current.is_empty() && m.previous.len() == 2);
        assert_eq!(m.get(a), Some(&1));
        assert!(m.current.contains_key(&a) && !m.previous.contains_key(&a));
        assert_eq!(m.get(key("f", &[3])), None);
        assert_eq!((m.stats().hits, m.stats().misses), (1, 1));
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

    // -----------------------------------------------------------------
    // The content hash, held to what an unchecked memo key needs: no
    // collision over 2²⁰ structured inputs a family (2¹⁶ in a debug
    // build; CI runs these optimised), full avalanche, and no secret a
    // common word could cancel.
    // -----------------------------------------------------------------

    const CASES: usize = if cfg!(debug_assertions) {
        1 << 16
    } else {
        1 << 20
    };

    /// No two of `hashes` agree in all 128 bits, or in either half.
    fn assert_no_collisions(what: &str, hashes: Vec<u128>) {
        assert!(hashes.len() >= CASES, "{what}: {} inputs", hashes.len());
        for (half, mask) in [("128-bit", u128::MAX), ("low", u64::MAX.into())] {
            for shift in [0, 64] {
                let mut h: Vec<u128> = hashes.iter().map(|x| (x >> shift) & mask).collect();
                h.sort_unstable();
                let dup = h.windows(2).find(|w| w[0] == w[1]);
                assert!(
                    dup.is_none(),
                    "{what}: {half} >> {shift} collision {dup:x?}"
                );
            }
        }
    }

    /// Mean output bits changed by each single-bit flip of the first `bits`
    /// bits of `input` (`hash` applied to the flipped copy), and the fewest
    /// any flip changed.
    fn avalanche(input: &[u64], bits: usize, hash: impl Fn(&[u64]) -> u128) -> (f64, u32) {
        let base = hash(input);
        let mut flipped = input.to_vec();
        let (mut total, mut fewest) = (0u64, 128);
        for bit in 0..bits {
            flipped[bit / 64] ^= 1 << (bit % 64);
            let changed = (hash(&flipped) ^ base).count_ones();
            flipped[bit / 64] ^= 1 << (bit % 64);
            total += u64::from(changed);
            fewest = fewest.min(changed);
        }
        (total as f64 / bits as f64, fewest)
    }

    const INF: i64 = i64::MAX;
    /// The octagon's `EXACT_CLOSURE_BOUND`.
    const BOUND: i64 = 1 << 40;

    /// What the octagon's fingerprint hashes: `(vars, dbm)`.
    fn fingerprint(vars: &[String], dbm: &[i64]) -> u128 {
        content_digest(&(vars, dbm))
    }

    #[test]
    fn octagon_matrices_one_or_two_words_apart_never_collide() {
        // Entries an octagon holds: +inf, i64::MIN (a saturated sum),
        // small finite bounds, and both edges of the exact-closure bound.
        const VALUES: [i64; 16] = [
            INF,
            i64::MIN,
            0,
            1,
            -1,
            2,
            -3,
            7,
            -11,
            64,
            BOUND,
            BOUND - 1,
            BOUND + 1,
            -BOUND,
            -BOUND + 1,
            -BOUND - 1,
        ];
        // +inf-heavy, small finite, and at the bound.
        let kinds = ["inf", "small", "bound"];
        let entry = |kind: &str, i: usize| match kind {
            "inf" if i.is_multiple_of(5) => 0,
            "inf" => INF,
            "small" => (i * 37 % 23) as i64 - 11,
            _ => [BOUND, -BOUND, BOUND - 1, -BOUND - 1][i % 4],
        };
        let sizes = [1, 2, 4, 8, 14];
        let mut hashes = Vec::new();
        let mut bases = 0;
        // Each base (its own variable names, so bases never meet) yields
        // its one-word variants, then two-word ones, until its share of
        // the cases (and what smaller bases left over) is met.
        for kind in kinds {
            for n in sizes {
                bases += 1;
                let target = CASES.div_ceil(kinds.len() * sizes.len()) * bases;
                let vars: Vec<String> = (0..n).map(|v| format!("{kind}{v}")).collect();
                let mut dbm: Vec<i64> = (0..2 * n * (n + 1)).map(|i| entry(kind, i)).collect();
                let w = dbm.len();
                let one = (0..w).flat_map(|p| VALUES.map(|v| [(p, v), (p, v)]));
                let two = (0..w).flat_map(|p| (p + 1..w).map(move |q| (p, q)));
                let two = two.flat_map(|(p, q)| {
                    (0..16).map(move |k| [(p, VALUES[(p + k) % 16]), (q, VALUES[(q + 7 * k) % 16])])
                });
                for change in one.chain(two) {
                    if hashes.len() >= target {
                        break;
                    }
                    if change.iter().any(|&(p, v)| dbm[p] == v) {
                        continue;
                    }
                    let old = change.map(|(p, _)| dbm[p]);
                    change.iter().for_each(|&(p, v)| dbm[p] = v);
                    hashes.push(fingerprint(&vars, &dbm));
                    change.iter().zip(old).for_each(|(&(p, _), v)| dbm[p] = v);
                }
            }
        }
        assert_no_collisions("octagon", hashes);
    }

    /// A `NonRel` binding, an interval as `AbsVal` hashes it: a tagged
    /// bound at each end.
    fn binding(var: &str, lo: i64, hi: i64) -> u128 {
        content_digest(&(var, (0u8, lo), (1u8, hi)))
    }

    #[test]
    fn environments_one_binding_apart_never_collide() {
        // A state's digest is the wrapping sum of its bindings', and a key
        // reads the digest of that sum as a cell's `Value::State` hashes it.
        let interval = |t: i64| (t - 500, t - 500 + t % 7);
        let state = |sum: u128| content_digest(&(1isize, sum));
        let mut hashes = Vec::new();
        for env in 0.. {
            if hashes.len() >= CASES {
                break;
            }
            let k = 1 + env % 12;
            let vars: Vec<String> = (0..k).map(|j| format!("e{env}v{j}")).collect();
            let base: Vec<i64> = (0..k).map(|j| (env * 13 + j * 101) as i64 % 1024).collect();
            let digests: Vec<u128> = (0..k)
                .map(|j| {
                    let (lo, hi) = interval(base[j]);
                    binding(&vars[j], lo, hi)
                })
                .collect();
            let sum = digests.iter().fold(0u128, |s, d| s.wrapping_add(*d));
            hashes.push(state(sum));
            for j in 0..k {
                // Unbound (`⊤`; the empty environment only once), then
                // rebound to every other interval.
                if k > 1 || env == 0 {
                    hashes.push(state(sum.wrapping_sub(digests[j])));
                }
                for t in (0..1024).filter(|&t| t != base[j]) {
                    let (lo, hi) = interval(t);
                    let changed = binding(&vars[j], lo, hi);
                    hashes.push(state(sum.wrapping_sub(digests[j]).wrapping_add(changed)));
                }
            }
        }
        assert_no_collisions("environment", hashes);
    }

    #[test]
    fn keys_over_permuted_digests_never_collide() {
        let n = if cfg!(debug_assertions) { 256 } else { 1024 };
        let d: Vec<u128> = (0..n as u64).map(|i| content_digest(&i)).collect();
        let mut hashes = Vec::new();
        // Every ordered pair: `widen(a, b)` and `widen(b, a)` both.
        for (i, a) in d.iter().enumerate() {
            for (j, b) in d.iter().enumerate().filter(|&(j, _)| j != i) {
                let _ = j;
                hashes.push(
                    KeyBuilder::new("widen")
                        .push_digest(*a)
                        .push_digest(*b)
                        .finish()
                        .0,
                );
            }
        }
        // All six orders of consecutive triples under one symbol.
        for i in 0..n {
            let [a, b, c] = [d[i], d[(i + 1) % n], d[(i + 2) % n]];
            for order in [
                [a, b, c],
                [a, c, b],
                [b, a, c],
                [b, c, a],
                [c, a, b],
                [c, b, a],
            ] {
                let key = order
                    .iter()
                    .fold(KeyBuilder::new("join"), |k, x| k.push_digest(*x));
                hashes.push(key.finish().0);
            }
        }
        assert_no_collisions("key", hashes);
    }

    #[test]
    fn one_flipped_input_bit_changes_half_the_output() {
        // The bulk path (a 40-word packed matrix), the block path (a key's
        // digests) and the tail path (a short name beside a value).
        let vars: Vec<String> = (0..4).map(|v| format!("x{v}")).collect();
        let matrix: Vec<u64> = (0..40).map(|i| [INF, 0, 3, -BOUND][i % 4] as u64).collect();
        let oct = |m: &[u64]| fingerprint(&vars, &m.iter().map(|&w| w as i64).collect::<Vec<_>>());
        let digests = [content_digest(&1u8), content_digest(&2u8)];
        let key_words: Vec<u64> = digests
            .iter()
            .flat_map(|d| [*d as u64, (*d >> 64) as u64])
            .collect();
        let key = |w: &[u64]| {
            let digest = |i: usize| u128::from(w[2 * i]) | u128::from(w[2 * i + 1]) << 64;
            KeyBuilder::new("transfer")
                .push_digest(digest(0))
                .push_digest(digest(1))
                .finish()
                .0
        };
        // Seven bytes of a name, beside a value: the tail word.
        let named = |w: &[u64]| content_digest(&(&w[0].to_le_bytes()[..7], (0u8, 42)));
        let name = [u64::from_le_bytes(*b"loop_i7\0")];
        for (path, (mean, fewest)) in [
            ("bulk", avalanche(&matrix, 64 * matrix.len(), oct)),
            ("block", avalanche(&key_words, 256, key)),
            ("tail", avalanche(&name, 56, named)),
        ] {
            assert!(
                (60.0..=68.0).contains(&mean),
                "{path}: {mean:.2} bits on average"
            );
            assert!(fewest >= 32, "{path}: a flip changed only {fewest} bits");
        }
    }

    #[test]
    fn no_secret_is_a_word_data_is_made_of() {
        // A word equal to a secret zeroes its multiplicand and wipes the
        // lane; no such word may be zero, +inf, or any integer an analysis
        // state plausibly holds (up to the exact-closure bound, either
        // sign). Balanced bits keep every product spread.
        for (i, s) in SECRET.into_iter().enumerate() {
            assert!(
                ![0, u64::MAX, INF as u64, i64::MIN as u64].contains(&s),
                "{i}"
            );
            assert!(
                (s as i64).unsigned_abs() > BOUND as u64,
                "secret {i} is small"
            );
            assert!(
                (28..=36).contains(&s.count_ones()),
                "secret {i} is unbalanced"
            );
            assert_eq!(SECRET.iter().filter(|&&t| t == s).count(), 1, "{i} repeats");
        }
    }
}
