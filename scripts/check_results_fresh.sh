#!/usr/bin/env bash
# Rerun every result bin into a fresh directory and diff each output
# against the committed file under results/.
#
#   scripts/check_results_fresh.sh [fresh-dir]    (default: results-fresh)
#
# Run from the repository root. Exits non-zero if any committed artifact
# does not reproduce, or if a bin writes a file that is not committed.
# Only the wall-clock-bearing outputs are exempt, each named below:
#   - BENCH_runner.json is a timing report (bench_runner's other output,
#     TELEMETRY_runner.json, is byte-compared like every other file);
#   - ablation_codec.csv: the enum_ns, tab_ns and speedup columns are
#     timings, so only the pattern and table_ram columns are compared;
#   - BENCH_cell.json: the wall_ns_per_slot and scaling_wall lines.
set -euo pipefail

fresh=${1:-results-fresh}
rm -rf "$fresh"
mkdir -p "$fresh"
cargo build --release --offline -q -p smartvlc-bench --bins

for src in crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    SMARTVLC_RESULTS="$fresh" "${CARGO_TARGET_DIR:-target}/release/$bin" > /dev/null
done

status=0
stale() {
    echo "STALE: results/$1 does not reproduce"
    status=1
}
for committed in results/*; do
    name=$(basename "$committed")
    out="$fresh/$name"
    case "$name" in
    BENCH_runner.json) continue ;;
    esac
    if [ ! -f "$out" ]; then
        echo "STALE: results/$name is produced by no bin"
        status=1
        continue
    fi
    case "$name" in
    ablation_codec.csv)
        # Drop the three timing fields before the last (table_ram); the
        # pattern field itself holds a comma.
        timing='s/(,[^,]*){3}(,[^,]*)$/\2/'
        diff <(sed -E "$timing" "$committed") <(sed -E "$timing" "$out") || stale "$name"
        ;;
    BENCH_cell.json)
        diff <(grep -v -e wall_ns_per_slot -e scaling_wall "$committed") \
            <(grep -v -e wall_ns_per_slot -e scaling_wall "$out") || stale "$name"
        ;;
    *)
        diff "$committed" "$out" || stale "$name"
        ;;
    esac
done
for out in "$fresh"/*; do
    name=$(basename "$out")
    if [ ! -f "results/$name" ]; then
        echo "UNTRACKED: $name is written by a bin but not committed"
        status=1
    fi
done
exit $status
