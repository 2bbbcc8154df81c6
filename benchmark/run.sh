#!/usr/bin/env bash
# The repository's one benchmark command. Run it from the repository root:
#
#   bash benchmark/run.sh                      all five workloads, untraced then
#                                              traced; results in benchmark/out/results.json
#   bash benchmark/run.sh --smoke              the same at ~1/20 size, a quick gate
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                              one run; last stdout line is the JSON result
#   bash benchmark/run.sh --compare A.json B.json
#                                              two results files against the bounds
#   bash benchmark/run.sh --spread [RUNS [WORKLOAD...]]
#                                              RUNS (default 10) seeds per workload:
#                                              quartile spread of every end-to-end metric
#   bash benchmark/run.sh --manifest           print BENCHMARK.json from the metric tables
#   bash benchmark/run.sh --describe           seed, sizes, script digests, configuration
#   bash benchmark/run.sh --emit-programs      rewrite benchmark/programs/*.dai
#
# It builds the benchmark package (`--release --offline`) into
# $CARGO_TARGET_DIR, or the repository's target/ when that is unset, and
# reads and writes nothing outside the checkout: run files live in
# benchmark/out/, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

case "${1:-}" in
--compare)
    shift
    exec python3 "$here/compare.py" compare "$root/BENCHMARK.json" "$@"
    ;;
esac

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac

# Cargo's progress goes to stderr; stdout carries only the benchmark's own.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/dai-benchmark"
mkdir -p "$here/out"

case "${1:-}" in
--manifest | --describe)
    exec "$bin" "$@"
    ;;
--emit-programs)
    exec "$bin" --emit-programs "$here/programs"
    ;;
--spread)
    shift
    runs="${1:-10}"
    [ $# -gt 0 ] && shift
    exec python3 "$here/compare.py" spread "$root/BENCHMARK.json" "$bin" "$here/out" "$runs" "$@"
    ;;
esac

exec "$bin" --out "$here/out" "$@"
