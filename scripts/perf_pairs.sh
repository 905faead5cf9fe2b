#!/usr/bin/env bash
# Time one perfbench workload at a base revision against the working tree
# in alternating pairs, and print each run plus the per-side medians.
#
#   scripts/perf_pairs.sh <base-rev> <workload> <seconds> <pairs>
#
# e.g. scripts/perf_pairs.sh HEAD~1 net_mix 20 5
#
# Run from the repository root. The base revision is checked out into a
# temporary git worktree (removed on exit); each side builds perfbench
# into its own target dir under .bench_build/perf_pairs/. Pair i runs the
# base first when i is odd and the working tree first when i is even, so
# neither side always gets the warmer machine. Every run uses seed 1 and
# --trace 0. Needs python3 to read perfbench's JSON line.
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 <base-rev> <workload> <seconds> <pairs>" >&2
    exit 2
fi
base_rev=$1
workload=$2
seconds=$3
pairs=$4

root=$(git rev-parse --show-toplevel)
build="$root/.bench_build/perf_pairs"
mkdir -p "$build"
src=$(mktemp -d)
log=$(mktemp)
cleanup() {
    git -C "$root" worktree remove --force "$src" 2>/dev/null || rm -rf "$src"
    rm -f "$log"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$src" "$base_rev"
build_side() { # <source-root> <target-dir>
    cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml" --target-dir "$2"
}
build_side "$src" "$build/base-target"
build_side "$root" "$build/head-target"

run() { # <side>
    local side=$1 dir=$src out
    [ "$side" = head ] && dir=$root
    # perfbench exits non-zero when a task fails; its JSON line still counts.
    out=$(cd "$dir" && "$build/$side-target/release/perfbench" --workload "$workload" \
        --seed 1 --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
m = r["metrics"]
print(sys.argv[1], "%.1f" % m["sim_rate"]["value"], "%.2f" % m["peak_rss_mb"]["value"], r["failed"])
' "$side" <<< "$out" 2>/dev/null || echo "$side nan nan run-error"
}

printf '%-5s %-5s %14s %12s %7s\n' pair side sim_rate peak_rss_mb failed
for i in $(seq 1 "$pairs"); do
    order="head base"
    [ $((i % 2)) -eq 1 ] && order="base head"
    for side in $order; do
        line=$(run "$side")
        echo "$line" >> "$log"
        read -r s rate rss failed <<< "$line"
        printf '%-5s %-5s %14s %12s %7s\n' "$i" "$s" "$rate" "$rss" "$failed"
    done
done

python3 - "$log" <<'EOF'
import math, statistics, sys
rows = [l.split() for l in open(sys.argv[1]) if l.strip()]
rates, medians = {}, {}
for side in ("base", "head"):
    runs = [r for r in rows if r[0] == side]
    rates[side] = [float(r[1]) for r in runs]
    ok_rate = [v for v in rates[side] if not math.isnan(v)]
    rss = [float(r[2]) for r in runs if not math.isnan(float(r[2]))]
    failed = sum(int(r[3]) for r in runs if r[3].isdigit())
    errors = sum(1 for r in runs if not r[3].isdigit())
    medians[side] = statistics.median(ok_rate) if ok_rate else float("nan")
    rss_med = statistics.median(rss) if rss else float("nan")
    spread = ""
    if len(ok_rate) >= 2:
        q1, _, q3 = statistics.quantiles(ok_rate, n=4)
        spread = f" (IQR {q3 - q1:.1f})"
    print(f"median {side}: sim_rate {medians[side]:.1f}{spread}  peak_rss_mb {rss_med:.2f}  "
          f"failed {failed}  run errors {errors}")
wins = sum(h > b for b, h in zip(rates["base"], rates["head"]))
print(f"head/base sim_rate: {medians['head'] / medians['base']:.3f}x, "
      f"head faster in {wins}/{len(rates['base'])} pairs")
EOF
