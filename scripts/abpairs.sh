#!/bin/sh
# abpairs.sh — alternating parent/change benchmark pairs (the protocol of
# EXPERIMENTS E21-E24 and of the choosing-metrics guide, section 8).
#
#   scripts/abpairs.sh REF WORKLOAD N [SECONDS [FIRSTSEED]]
#
# REF is the parent commit, WORKLOAD one of BENCHMARK.json's workloads,
# N the number of pairs, SECONDS the run length (default: the contract's
# run_seconds), FIRSTSEED the first pair's seed (default 1; pick fresh
# seeds to confirm a claim). REF is exported with `git archive` into a
# temporary directory (TMPDIR or /tmp) — nothing is registered in .git,
# unlike a worktree — and both trees run `bash bench/drive.sh --workload
# WORKLOAD --seed I --seconds SECONDS --trace 0` for N consecutive seeds
# I, the parent first on odd seeds and the change (this working tree)
# first on even ones. For every end-to-end metric it prints the per-pair
# values, each side's median [q1, q3], the ratio of the medians (change /
# parent) and the pairs the change won (ties count for neither); a run
# with failed != 0 or correct != true aborts the series.
set -eu
cd "$(dirname "$0")/.."

usage="usage: scripts/abpairs.sh REF WORKLOAD N [SECONDS [FIRSTSEED]]"
ref="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:?$usage}"
seconds="${4:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"
first="${5:-1}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/parent"
git archive "$ref" | tar -x -C "$tmp/parent"

# run TREE SEED: one benchmark run; prints the contract's JSON line.
run() {
    (cd "$1" && bash bench/drive.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) | tail -n 1
}

# value JSON METRIC: the metric's number out of a contract line.
value() {
    printf '%s\n' "$1" | sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p"
}

metrics="sim_cycles_per_s jobs_per_s job_latency_p50_ms setup_s peak_rss_mb"
: >"$tmp/rows"
i=$first
while [ "$i" -lt $((first + pairs)) ]; do
    if [ $((i % 2)) -eq 1 ]; then
        p=$(run "$tmp/parent" "$i")
        c=$(run . "$i")
    else
        c=$(run . "$i")
        p=$(run "$tmp/parent" "$i")
    fi
    for side in "$p" "$c"; do
        case "$side" in
        *'"correct":true'*'"failed":0'*) ;;
        *)
            echo "abpairs: pair $i: a run failed or was incorrect: $side" >&2
            exit 1
            ;;
        esac
    done
    for m in $metrics; do
        echo "$m $i $(value "$p" "$m") $(value "$c" "$m")" >>"$tmp/rows"
    done
    echo "pair $i done" >&2
    i=$((i + 1))
done

echo "abpairs: $workload, $pairs pairs of ${seconds}s (seeds $first..$((first + pairs - 1))), parent $ref vs the working tree"
for m in $metrics; do
    case "$m" in
    *_per_s) better=higher ;;
    *) better=lower ;;
    esac
    echo
    echo "$m ($better is better)"
    echo "  pair       parent       change"
    awk -v m="$m" '$1 == m { printf "  %4d %12.6g %12.6g\n", $2, $3, $4 }' "$tmp/rows"
    for col in 3 4; do
        awk -v m="$m" -v col="$col" '$1 == m { print $col }' "$tmp/rows" | sort -g >"$tmp/col$col"
    done
    awk -v m="$m" -v better="$better" -v pf="$tmp/col3" -v cf="$tmp/col4" '
        # quantile by linear interpolation between order statistics
        function q(a, n, f,    x, lo) {
            x = 1 + (n - 1) * f; lo = int(x)
            if (lo >= n) return a[n]
            return a[lo] + (x - lo) * (a[lo + 1] - a[lo])
        }
        $1 == m {
            if ($4 > $3) up++; else if ($4 < $3) down++
        }
        END {
            while ((getline v < pf) > 0) pa[++np] = v
            while ((getline v < cf) > 0) ca[++nc] = v
            pm = q(pa, np, 0.5); cm = q(ca, nc, 0.5)
            printf "  parent median %.6g [%.6g, %.6g]\n", pm, q(pa, np, 0.25), q(pa, np, 0.75)
            printf "  change median %.6g [%.6g, %.6g]\n", cm, q(ca, nc, 0.25), q(ca, nc, 0.75)
            if (pm != 0) printf "  ratio %.3f (change / parent)\n", cm / pm
            printf "  change ahead in %d of %d pairs\n", (better == "higher" ? up : down), np
        }' "$tmp/rows"
done
