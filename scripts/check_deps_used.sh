#!/usr/bin/env bash
# Fail if a workspace member declares a dependency its code never names.
#
#   scripts/check_deps_used.sh
#
# For the root package and every crates/*/Cargo.toml, each name under
# [dependencies] or [dev-dependencies] (with '-' read as '_') must appear
# as `name::`, `use name` or `extern crate name` somewhere in that
# member's src/, tests/, benches/ or examples/, or be the target of one of
# the member's feature forwards ("name/feature"), which cargo resolves
# through the declaration. A declared but unnamed dependency only
# lengthens the build graph and the lockfile. Exits non-zero and lists
# each unused edge.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    names=$(awk '
        /^\[/ { deps = ($0 == "[dependencies]" || $0 == "[dev-dependencies]"); next }
        deps && match($0, /^[A-Za-z0-9_-]+/) { print substr($0, RSTART, RLENGTH) }
    ' "$manifest")
    roots=()
    for sub in src tests benches examples; do
        [ -d "$dir/$sub" ] && roots+=("$dir/$sub")
    done
    for name in $names; do
        id=${name//-/_}
        grep -qF "\"$name/" "$manifest" && continue
        if [ ${#roots[@]} = 0 ] || ! grep -rqE --include='*.rs' \
            "(^|[^A-Za-z0-9_])$id::|use $id\b|extern crate $id\b" "${roots[@]}"; then
            echo "UNUSED: $manifest declares $name"
            status=1
        fi
    done
done
exit $status
