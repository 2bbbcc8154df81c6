//! Order statistics and process resource readings.

/// The `p`-th percentile (`0 < p ≤ 100`) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty set. Sorts `samples`.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// What `getrusage(RUSAGE_SELF)` reports, in the units the metrics use.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    pub max_rss_mb: f64,
    pub minor_faults: u64,
    pub ctx_switches: u64,
}

impl Rusage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The usage between `earlier` and `self` (`max_rss_mb` is a high-water
    /// mark and is kept as is).
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            max_rss_mb: self.max_rss_mb,
            minor_faults: self.minor_faults - earlier.minor_faults,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins this thread, and every thread it spawns from now on, to one of the
/// CPUs it may run on (the highest-numbered: CPU 0 tends to take the
/// interrupts). Returns that CPU, or `None` if the kernel refused.
///
/// A single-client workload is a ping-pong between threads — client,
/// server loop, engine worker — of which one runs at a time. Spread over
/// the two virtual CPUs of the recording host, each hand-off wakes a halted
/// vCPU through the hypervisor, and what that costs depends on the host's
/// state: the same socket round trip measured 20 µs or 88–112 µs, switching
/// between the two within one run. On one CPU a hand-off is a context
/// switch, the round trip is 20 µs every time, and what is left is the
/// program's own cost.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable 128-byte buffer and the size
    // passed is its size; pid 0 means the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live 128-byte buffer and the size passed is its
    // size; the kernel only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

/// Reads this process's resource usage (all threads).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn rusage() -> Rusage {
    const RUSAGE_SELF: i32 = 0;
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the layout
    // 64-bit Linux documents (checked by the `cfg` above), and
    // `getrusage` writes nothing else. No `libc` crate resolves offline,
    // so the one declaration lives here.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    Rusage {
        user_s: secs(&raw.ru_utime),
        sys_s: secs(&raw.ru_stime),
        max_rss_mb: raw.ru_maxrss as f64 / 1024.0,
        minor_faults: raw.ru_minflt as u64,
        ctx_switches: (raw.ru_nvcsw + raw.ru_nivcsw) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 95.0), 95);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        let mut few = vec![7, 3, 5];
        assert_eq!(percentile(&mut few, 50.0), 5);
        assert_eq!(percentile(&mut few, 95.0), 7);
        assert_eq!(percentile(&mut few, 1.0), 3);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(percentile(&mut [42], 99.0), 42);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rusage_reads_something() {
        let r = rusage();
        assert!(r.max_rss_mb > 0.0);
        assert!(r.cpu_s() >= 0.0);
    }
}
