//! Regenerates the §7.2 interval / context-sensitivity result: the number
//! of array accesses verified safe under 0-, 1-, and 2-call-string
//! context policies on the Buckets.js-style array suite.
//!
//! Paper reference numbers: k=2 verified 85/85, k=1 verified 71/74 (96%),
//! k=0 verified 4/18 (22%).

use dai_bench::buckets::run_buckets;
use dai_core::interproc::ContextPolicy;

fn main() {
    println!("== §7.2: interval array-bounds verification vs. context sensitivity ==");
    println!("(paper: k=2 -> 85/85 100%, k=1 -> 71/74 96%, k=0 -> 4/18 22%)\n");
    println!(
        "{:<22} {:>10} {:>8} {:>8}",
        "policy", "verified", "total", "ratio"
    );
    for (name, policy) in [
        ("2-call-string", ContextPolicy::CallString(2)),
        ("1-call-string", ContextPolicy::CallString(1)),
        ("context-insensitive", ContextPolicy::Insensitive),
    ] {
        let r = run_buckets(policy);
        println!(
            "{:<22} {:>10} {:>8} {:>7.0}%",
            name,
            r.verified,
            r.total,
            r.ratio() * 100.0
        );
    }
}
