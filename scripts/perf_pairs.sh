#!/usr/bin/env bash
# Time one perfbench workload at a base revision against the working tree
# in alternating pairs, and print each run plus the per-side medians of
# every end-to-end metric BENCHMARK.json declares.
#
#   scripts/perf_pairs.sh <base-rev> <workload> <seconds> <pairs> [<seed>]
#
# e.g. scripts/perf_pairs.sh HEAD~1 net_mix 20 5
#      scripts/perf_pairs.sh HEAD~1 cell_scale 20 4 7919
#
# Run from the repository root. The base revision's tree is unpacked with
# `git archive` into .bench_build/perf_pairs/base-src (replaced on every
# run; the archive keeps the commit's timestamps, so an unchanged base
# does not rebuild). Each side builds perfbench into its own target dir
# under .bench_build/perf_pairs/. Pair i runs the base first when i is
# odd and the working tree first when i is even, so neither side always
# gets the warmer machine. Every run uses --seed <seed> (default 1) and
# --trace 0. Needs python3 to read perfbench's JSON line.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <base-rev> <workload> <seconds> <pairs> [<seed>]" >&2
    exit 2
fi
base_rev=$1
workload=$2
seconds=$3
pairs=$4
seed=${5:-1}

root=$(git rev-parse --show-toplevel)
build="$root/.bench_build/perf_pairs"
src="$build/base-src"
mkdir -p "$build"
log=$(mktemp)
trap 'rm -f "$log"' EXIT

rm -rf "$src"
mkdir -p "$src"
git -C "$root" archive "$base_rev" | tar -x -C "$src"
build_side() { # <source-root> <target-dir>
    cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
}
build_side "$src" "$build/base-target"
build_side "$root" "$build/head-target"

# The end-to-end metrics, each with the direction that is better.
metrics="sim_rate:higher task_p50_ms:lower task_tail_ms:lower peak_rss_mb:lower setup_s:lower"

run() { # <side>
    local side=$1 dir=$src out
    [ "$side" = head ] && dir=$root
    # perfbench exits non-zero when a task fails; its JSON line still counts.
    out=$(cd "$dir" && "$build/$side-target/release/perfbench" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
m = r["metrics"]
names = [n.split(":")[0] for n in sys.argv[2].split()]
print(sys.argv[1], *("%.4g" % m[n]["value"] for n in names), r["failed"])
' "$side" "$metrics" <<< "$out" 2>/dev/null || echo "$side nan nan nan nan nan run-error"
}

echo "$workload, seed $seed: $base_rev vs the working tree"
fmt='%-5s %-5s %9s %12s %13s %12s %9s %7s\n'
# shellcheck disable=SC2046,SC2059
printf "$fmt" pair side $(for m in $metrics; do echo "${m%%:*}"; done) failed
for i in $(seq 1 "$pairs"); do
    order="head base"
    [ $((i % 2)) -eq 1 ] && order="base head"
    for side in $order; do
        line=$(run "$side")
        echo "$line" >> "$log"
        # shellcheck disable=SC2086,SC2059
        printf "$fmt" "$i" $line
    done
done

python3 - "$log" "$metrics" <<'EOF'
import math, statistics, sys
rows = [l.split() for l in open(sys.argv[1]) if l.strip()]
metrics = [m.split(":") for m in sys.argv[2].split()]
runs = {side: [r for r in rows if r[0] == side] for side in ("base", "head")}
for side, rs in runs.items():
    failed = sum(int(r[-1]) for r in rs if r[-1].isdigit())
    errors = sum(1 for r in rs if not r[-1].isdigit())
    print(f"{side}: {len(rs)} runs, failed {failed}, run errors {errors}")
for k, (name, better) in enumerate(metrics, start=1):
    vals = {s: [float(r[k]) for r in rs] for s, rs in runs.items()}
    med, spread = {}, {}
    for s, v in vals.items():
        ok = [x for x in v if not math.isnan(x)]
        med[s] = statistics.median(ok) if ok else float("nan")
        spread[s] = ""
        if len(ok) >= 2:
            q1, _, q3 = statistics.quantiles(ok, n=4)
            spread[s] = f" (IQR {q3 - q1:.4g})"
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(vals["base"], vals["head"]))
    print(f"{name}: base {med['base']:.4g}{spread['base']} -> head {med['head']:.4g}"
          f"{spread['head']}, head/base {med['head'] / med['base']:.3f}x, "
          f"head better in {wins}/{len(vals['base'])} pairs")
EOF
