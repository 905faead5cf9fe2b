#!/usr/bin/env bash
# Fail if library code touches the process environment.
#
#   scripts/check_no_env.sh
#
# Scans every Rust file under crates/*/src and src/ except the binaries'
# own code (crates/bench, crates/shims, src/bin) for env::var, var_os,
# set_var and remove_var. Libraries take their settings as values; only a
# binary's main reads the environment. Exits non-zero and lists each hit
# that is not on the allow-list below.
set -euo pipefail
cd "$(dirname "$0")/.."

# file|needle: the file may contain exactly one line matching the needle.
allowed=(
    # perfbench calls smartvlc_fec::enabled_from_env(); ROADMAP item 1.
    'crates/smartvlc-fec/src/lib.rs|env::var("SMARTVLC_FEC")'
    # perfbench builds OperatingPointCache::new(); ROADMAP items 1 and 4.
    'crates/vlc-channel/src/opcache.rs|env::var("SMARTVLC_OPCACHE")'
)

hits=$(grep -rnE --include='*.rs' 'env::var|var_os|set_var|remove_var' crates/*/src src |
    grep -vE '^(crates/bench|crates/shims|src/bin)/' || true)

status=0
declare -A used
while IFS= read -r hit; do
    [ -n "$hit" ] || continue
    file=${hit%%:*}
    ok=0
    for entry in "${allowed[@]}"; do
        if [ "$file" = "${entry%%|*}" ] && [[ $hit == *"${entry#*|}"* ]] && [ -z "${used[$entry]:-}" ]; then
            used[$entry]=1
            ok=1
            break
        fi
    done
    if [ $ok = 0 ]; then
        echo "ENV: $hit"
        status=1
    fi
done <<<"$hits"
exit $status
