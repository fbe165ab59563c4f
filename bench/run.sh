#!/usr/bin/env bash
# Build, vet and format-check the benchmark, then the full run (all five
# workloads), the traced run, and the gate against the committed
# baseline. Prints the total wall time so the contract's cap stays
# visible. Run from anywhere inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root/bench"
start=$(date +%s)

mkdir -p "$root/.bench_build"
go build -o "$root/.bench_build/lbp-load" ./lbp-load
go vet ./...
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt: $unformatted" >&2
	exit 1
fi
go test ./...

cd "$root"
load="$root/.bench_build/lbp-load"
"$load" "$@"
"$load" -trace 1 "$@"
"$load" -compare bench/baseline/set1.json bench/out/results.json

echo "total wall time: $(( $(date +%s) - start )) s"
