#!/usr/bin/env bash
# Profile one bench binary under `perf record` and, when a flamegraph
# tool is on PATH, fold the samples into an SVG.
#
#   bench/flamegraph.sh                    # profiles `hash_throughput` at defaults
#   bench/flamegraph.sh hash_throughput -- --terms 20000 --reps 1
#   BIN=fig2 bench/flamegraph.sh
#
# Artifacts land in target/perf/: <bin>.perf.data always; <bin>.svg when
# `inferno-flamegraph` or `flamegraph.pl` is available; a plain
# `perf report` summary otherwise. Without perf installed the script
# still runs the binary under /usr/bin/time so the hook degrades to a
# wall-clock measurement instead of failing.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${BIN:-${1:-hash_throughput}}"
if [ "${1:-}" = "$BIN" ]; then shift || true; fi
if [ "${1:-}" = "--" ]; then shift; fi

OUT=target/perf
mkdir -p "$OUT"
cargo build --release -p alpha-hash-bench --bin "$BIN"

if ! command -v perf >/dev/null 2>&1; then
    echo "flamegraph.sh: perf not found; running $BIN without profiling" >&2
    start=$(date +%s.%N)
    "./target/release/$BIN" "$@"
    end=$(date +%s.%N)
    echo "flamegraph.sh: wall clock $(awk -v a="$start" -v b="$end" 'BEGIN{printf "%.2fs", b-a}')" >&2
    exit 0
fi

# DWARF call graphs: the bins are built without frame pointers.
perf record -g --call-graph dwarf,16384 -o "$OUT/$BIN.perf.data" \
    "./target/release/$BIN" "$@"

if command -v inferno-flamegraph >/dev/null 2>&1; then
    perf script -i "$OUT/$BIN.perf.data" \
        | inferno-collapse-perf \
        | inferno-flamegraph > "$OUT/$BIN.svg"
    echo "flamegraph: $OUT/$BIN.svg"
elif command -v flamegraph.pl >/dev/null 2>&1 && command -v stackcollapse-perf.pl >/dev/null 2>&1; then
    perf script -i "$OUT/$BIN.perf.data" \
        | stackcollapse-perf.pl \
        | flamegraph.pl > "$OUT/$BIN.svg"
    echo "flamegraph: $OUT/$BIN.svg"
else
    echo "flamegraph.sh: no flamegraph tool found; top of perf report:" >&2
    perf report -i "$OUT/$BIN.perf.data" --stdio --percent-limit 2 | head -40
fi
echo "perf data: $OUT/$BIN.perf.data"
