#!/usr/bin/env bash
# Interleaved A/B of the store benchmark (storebench) or of the raw
# hashing bench (hash_throughput) between a base commit and this checkout.
#
#   bench/ab.sh <base-rev> [--head <rev>] [--bench storebench|hash_throughput]
#               [--workload <name>] [--seeds "<n> <n> ..."] [--seconds <s>]
#               [--trace 0|1] [--dir <path>]
#
#   bench/ab.sh HEAD~1                          # 10 pairs of wire_mix, seeds 2..11
#   bench/ab.sh main --workload dedup_durable --seeds "2 3 4 5"
#   bench/ab.sh HEAD~1 --bench hash_throughput  # 10 pairs, one-shot/batch/ingest
#
# The base side is a `git archive` of <base-rev> unpacked under --dir
# (default target/ab); the head side is this working tree, or a second
# archive when --head is given. Each side builds storebench from its own
# sources into its own target directory, and an unpacked revision is
# reused while it still matches, so repeated runs build warm.
#
# With --bench hash_throughput each side builds the hash_throughput bin
# instead and every pair runs it on its fixed 10,000-term corpus (best of
# 3 reps per run); --seeds then only sets the number of pairs, and
# --workload, --seconds and --trace are ignored. The metrics are its
# one-shot, batch and ingest nodes/s.
#
# Pair i runs seed i of --seeds on both sides. Even pairs run the base
# first and odd pairs the head first, so a slow spell of the host lands
# on both sides alike. For every metric of the result line the summary
# prints each side's median and interquartile range over the pairs, the
# change of the medians, and the number of pairs the head won (the
# better direction comes from BENCHMARK.json; "-" where it names none).
# Raw result lines are kept in <dir>/ab-<stamp>.tsv.
set -euo pipefail

usage() {
    sed -n '2,11p' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
head_rev=
bench=storebench
workload=wire_mix
seeds="2 3 4 5 6 7 8 9 10 11"
seconds=20
trace=0
ab_dir=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --head) head_rev=$2 ;;
        --bench) bench=$2 ;;
        --workload) workload=$2 ;;
        --seeds) seeds=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --dir) ab_dir=$2 ;;
        *) usage ;;
    esac
    shift 2
done
case $bench in
    storebench | hash_throughput) ;;
    *) usage ;;
esac

root=$(git rev-parse --show-toplevel)
cd "$root"
ab_dir=${ab_dir:-$root/target/ab}
mkdir -p "$ab_dir"

# Unpacks <rev> into $ab_dir/<side> (unless already there) and prints
# the directory.
unpack() {
    local side=$1 rev=$2 commit dir
    commit=$(git rev-parse --verify "$rev^{commit}")
    dir=$ab_dir/$side
    if [ "$(cat "$dir/.ab-commit" 2>/dev/null)" != "$commit" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$commit" | tar -x -C "$dir"
        echo "$commit" >"$dir/.ab-commit"
    fi
    echo "$dir"
}

base_dir=$(unpack base "$base_rev")
if [ -n "$head_rev" ]; then
    head_dir=$(unpack head "$head_rev")
else
    head_dir=$root
fi

for dir in "$base_dir" "$head_dir"; do
    echo "ab.sh: building $bench in $dir" >&2
    # An explicit target dir per side: a CARGO_TARGET_DIR from the
    # environment would make both sides share one, and the runs below
    # execute the binary under that side's own target dir.
    if [ "$bench" = storebench ]; then
        (cd "$dir" && cargo build --release --offline --quiet --manifest-path storebench/Cargo.toml \
            --target-dir "$dir/storebench/target")
    else
        (cd "$dir" && cargo build --release --offline --quiet -p alpha-hash-bench \
            --bin hash_throughput --target-dir "$dir/target")
    fi
done

out=$ab_dir/ab-$(date +%Y%m%d-%H%M%S).tsv
: >"$out"

# Prints hash_throughput's nodes/s figures as a result line of the shape
# storebench prints.
hash_line() {
    local dir=$1 json
    json=$(mktemp)
    (cd "$dir" && ./target/release/hash_throughput --terms 10000 --reps 3 --save-json "$json" >/dev/null)
    python3 - "$json" <<'PY'
import json
import sys

report = json.load(open(sys.argv[1]))
names = ("hash_expr_nodes_per_sec", "batch_hash_nodes_per_sec", "ingest_nodes_per_sec")
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {n: {"value": report[n]} for n in names}}))
PY
    rm -f "$json"
}

# Runs one side on one seed and appends "<side>\t<pair>\t<seed>\t<line>".
run() {
    local side=$1 dir=$2 pair=$3 seed=$4 line
    if [ "$bench" = storebench ]; then
        line=$(cd "$dir" && ./storebench/target/release/storebench --workload "$workload" \
            --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1) || line=
    else
        line=$(hash_line "$dir") || line=
    fi
    printf '%s\t%s\t%s\t%s\n' "$side" "$pair" "$seed" "${line:-null}" >>"$out"
}

pair=0
for seed in $seeds; do
    echo "ab.sh: pair $pair, seed $seed" >&2
    if [ $((pair % 2)) -eq 0 ]; then
        run base "$base_dir" "$pair" "$seed"
        run head "$head_dir" "$pair" "$seed"
    else
        run head "$head_dir" "$pair" "$seed"
        run base "$base_dir" "$pair" "$seed"
    fi
    pair=$((pair + 1))
done

label=$workload
[ "$bench" = storebench ] || label=$bench
python3 - "$out" "$root/BENCHMARK.json" "$label" <<'EOF'
import json
import statistics
import sys

path, bench_path, workload = sys.argv[1:4]
bench = json.load(open(bench_path))
better = {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
# hash_throughput's rates are not storebench metrics.
for name in ("hash_expr_nodes_per_sec", "batch_hash_nodes_per_sec", "ingest_nodes_per_sec"):
    better.setdefault(name, "higher")

runs = {"base": {}, "head": {}}
for row in open(path):
    side, pair, seed, line = row.rstrip("\n").split("\t", 3)
    runs[side][int(pair)] = json.loads(line)

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

pairs = sorted(set(runs["base"]) & set(runs["head"]))
broken = [(s, p) for s in runs for p, r in runs[s].items()
          if r is None or not r.get("correct") or r.get("failed", 0) != 0]
print(f"workload {workload}, {len(pairs)} pairs")
for side, p in broken:
    print(f"  {side} pair {p}: run failed or was incorrect: {runs[side][p]}")

names = []
for p in pairs:
    for side in ("base", "head"):
        for name in (runs[side][p] or {}).get("metrics", {}):
            if name not in names:
                names.append(name)

print(f"{'metric':34} {'base median [IQR]':>24} {'head median [IQR]':>24} {'change':>8} {'head wins':>9}")
for name in names:
    both = [(runs["base"][p]["metrics"][name]["value"], runs["head"][p]["metrics"][name]["value"])
            for p in pairs
            if runs["base"][p] and runs["head"][p]
            and name in runs["base"][p]["metrics"] and name in runs["head"][p]["metrics"]]
    if not both:
        continue
    b = [x for x, _ in both]
    h = [y for _, y in both]
    bq1, bmed, bq3 = quartiles(b)
    hq1, hmed, hq3 = quartiles(h)
    change = f"{(hmed - bmed) / bmed * 100:+.1f}%" if bmed else "-"
    direction = better.get(name)
    if direction == "lower":
        wins = f"{sum(y < x for x, y in both)}/{len(both)}"
    elif direction == "higher":
        wins = f"{sum(y > x for x, y in both)}/{len(both)}"
    else:
        wins = "-"
    print(f"{name:34} {bmed:>12.4g} [{bq3 - bq1:>9.3g}] {hmed:>12.4g} [{hq3 - hq1:>9.3g}] {change:>8} {wins:>9}")
print(f"raw results: {path}")
EOF
