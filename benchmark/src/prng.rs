//! The benchmark's own PRNG (SplitMix64).
//!
//! The scripts must not move when a later PR edits `vendor/rand` or
//! `dai_bench::workload`, so the benchmark draws every random choice from
//! this generator and nothing else.

/// A SplitMix64 stream: small, fast, and good enough to pick edges.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// A stream determined by `seed` and a per-purpose `stream` label, so
    /// two scripts built from one `--seed` do not share draws.
    pub fn new(seed: u64, stream: u64) -> Prng {
        let mut p = Prng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        p.next_u64();
        p
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`); the modulo bias is below 2⁻³² for the
    /// sizes the scripts use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// A uniformly random element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
