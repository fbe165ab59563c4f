#!/bin/sh
# loc.sh — size of the code a directory owns, for simplicity PRs.
#
#   scripts/loc.sh DIR...   lines of non-test, non-generated .go source
#                           under each DIR (recursively) and their total
#
# Test files (_test.go), generated files (the standard "// Code
# generated ... DO NOT EDIT." marker) and anything under bench/ (the
# frozen benchmark, see BENCHMARK.json) do not count.
set -eu
[ $# -gt 0 ] || { echo "usage: scripts/loc.sh DIR..." >&2; exit 2; }
cd "$(dirname "$0")/.."

total=0
for dir in "$@"; do
    [ -d "$dir" ] || { echo "loc.sh: $dir: no such directory" >&2; exit 2; }
    n=0
    for f in $(find "$dir" -name '*.go' ! -name '*_test.go' ! -path 'bench/*' ! -path './bench/*' | sort); do
        if grep -qE '^// Code generated .* DO NOT EDIT\.$' "$f"; then
            continue
        fi
        n=$((n + $(wc -l <"$f")))
    done
    printf '%7d %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d total\n' "$total"
