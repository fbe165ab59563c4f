#!/bin/sh
# verify.sh — the tier-1 verification gate (see ROADMAP.md).
#
#   scripts/verify.sh            build + vet + gofmt + tests + race subset
#                                + bench module + lbp-serve smoke test
#                                + native fuzz smokes
#   scripts/verify.sh -bench N   ...then regenerate figure N into out/ and
#                                cmp it with the tracked BENCH_figN.json
#                                when there is one (figs 19, 20 and 22,
#                                which go test's TestBenchRecordsReproduce
#                                also compares byte for byte), and print
#                                the host-side microbenchmarks (with
#                                -benchmem).
set -eu
cd "$(dirname "$0")/.."

fig=""
if [ "${1:-}" = "-bench" ]; then
    fig="${2:?usage: scripts/verify.sh [-bench N]}"
fi

go build ./...
go vet ./...
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi
# One checkpoint format, one job protocol, one decode per load, one
# queue, one instruction table, one experiment path, compiled code that
# never becomes text, one link table, one control-message type, one gate
# per observer, a request memo keyed by body bytes (not by a hand-hashed
# request), one pool for every machine size, a code bank that is its
# written prefix (no high-water mark over a dense array), and settings
# that nothing sets as constants (pool bounds, the default budget) with
# one fast-forward switch, one checkpoint value (no shards, no bank
# images, no streaming entry points), one determinism harness (the
# FuzzDeterminism target; no campaign API, no options struct), and one
# effect path (memory, messages and halts apply at their issue site; no
# per-core pending streams replayed in phase B), and one digest fold on
# a fixed byte schedule (no zero-run loop and its power table), and one
# uop store (ROB slots: no uop pool, no instruction table of pointers),
# and stages that report their own work (no stage-busy sum compared
# around the stages) with one direct function per ALU and branch op (no
# alu/br helpers wrapping a captured closure), and memory events that
# name their client by value (no client interfaces or callback adapters
# in mem, no per-hart client objects, no client table in the
# checkpoint), and machine state declared once (the live structs are the
# checkpoint: no saved mirrors or copy functions, one invariant check
# for restore and the tests), and bytes that cross the rpc hop as an
# attachment (no base64 image, checkpoint or state field in dispatch's
# JSON): the deleted second paths must not grow back.
# (The parent's encTable, controlMn and parseLine live on as the test
# references refEncTable, parentControlMn and parentParseLine, and
# figures keeps an unexported noFastForward, which the case-sensitive
# pattern does not match. The frozen bench/ still names the deleted
# DefaultMaxCycles in a comment and has an HTTP loadClient of its own,
# so those names are searched outside it.)
if git grep -nE 'restoreV1|checkpointV1|MethodPing|decodeCache|sharedImage|buildRing|StealDepth|encTable|controlMn|liSize|RecordThroughput|ThroughputRepeats|\bAblationPoint\b|AblationRow|LocalityRow|hostInfo|WallTimeSec|parseLine|substReg|substDest|insertBeforeData|EmitComments|R1UpReq|ensureBackward|copyLevels|makeLevels|swreMsg|startMsg|signalMsg|joinMsg|pendSwre|noopEmit|noopTick|lbp-front-key-v1|maxPooledCores|codeHi|SetCapacity|NoFastForward|applyHostKnobs|pool-per-key|PoolPerKey|checkpointShard|CaptureBankRange|RestoreBankRange|WriteCheckpoint|\bReadCheckpoint\(|Campaign\(|CampaignStats|WriteCorpus|CheckOptions|pendItem|pendKind|applyDeferred|deferHalt|\.evbuf\b|flushZeros|foldWord|fnvPow|newUop|freeUop|removeFromIT|\[\]\*uop|busySum|\balu\(isa\.|\bbr\(isa\.|\bLoadClient\b|DoneClient|LoadFunc|DoneFunc|saveClient|restoreClient|savedClient|MemClients|savedHart|savedUop|savedCore|saveHart|restoreHart|robIndex|\bslotOf\b|checkClients|EventState|checkSlots' -- '*.go' ||
    git grep -nE 'DefaultMaxCycles|loadClient|storeClient' -- '*.go' ':!bench' ||
    git grep -nE 'json:"(image|state|checkpoint)[",]' -- 'internal/dispatch/*.go'; then
    echo "verify: a deleted path is back (see the matches above)" >&2
    exit 1
fi
go test ./...
go test -race ./internal/runner ./internal/figures ./internal/sim ./internal/serve ./internal/cache ./internal/rpc ./internal/dispatch ./internal/fuzzgen ./internal/cc ./cmd/lbp-bench

# bench/ is its own module (the frozen benchmark, see BENCHMARK.json):
# the root ./... never compiles it, so an API it uses could vanish
# unnoticed. Same Go settings as bench/drive.sh; -o /dev/null because
# the module's one binary shares its name with its directory.
(
    cd bench
    export GOFLAGS=-mod=mod GOPROXY=off
    go build -o /dev/null ./...
    go vet ./...
    go test ./...
)

# Smoke-test the serving daemon over real HTTP: ephemeral port, the
# same job twice (the repeat must be a cache hit with an identical
# digest), /healthz, then a clean SIGTERM drain.
smokedir=$(mktemp -d)
servepid="" w1pid="" w2pid="" coordpid=""
trap 'kill $servepid $w1pid $w2pid $coordpid 2>/dev/null || true; rm -rf "$smokedir"' EXIT INT TERM
go build -o "$smokedir/lbp-serve" ./cmd/lbp-serve
"$smokedir/lbp-serve" -addr 127.0.0.1:0 -addrfile "$smokedir/addr" \
    -cachedir "$smokedir/cache" \
    >"$smokedir/serve.log" 2>&1 &
servepid=$!
i=0
while [ ! -s "$smokedir/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "lbp-serve never wrote its address:" >&2
        cat "$smokedir/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$smokedir/addr")
curl -fsS "http://$addr/healthz" >/dev/null
curl -fsS -X POST "http://$addr/jobs" \
    -d '{"source":"main:\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n","lang":"s","cores":1,"digest":true}' \
    >"$smokedir/job.json"
grep -q '"status": "ok"' "$smokedir/job.json"
grep -q '"halt": "exit"' "$smokedir/job.json"
# The identical job again: served from the result cache (no second
# completion), byte-identical digest, marked cached.
curl -fsS -X POST "http://$addr/jobs" \
    -d '{"source":"main:\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n","lang":"s","cores":1,"digest":true}' \
    >"$smokedir/job2.json"
grep -q '"cached": true' "$smokedir/job2.json"
digest1=$(grep '"digest"' "$smokedir/job.json")
digest2=$(grep '"digest"' "$smokedir/job2.json")
if [ "$digest1" != "$digest2" ] || [ -z "$digest1" ]; then
    echo "cached digest mismatch: '$digest1' vs '$digest2'" >&2
    exit 1
fi
# The same job in other bytes (a host-side deadline added): still a
# cache hit, but not a memo hit.
curl -fsS -X POST "http://$addr/jobs" \
    -d '{"source":"main:\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n","lang":"s","cores":1,"digest":true,"deadlineMs":5000}' \
    >"$smokedir/job3.json"
grep -q '"cached": true' "$smokedir/job3.json"
curl -fsS "http://$addr/metrics" >"$smokedir/metrics.txt"
grep -q '^lbp_serve_jobs_completed_total 1$' "$smokedir/metrics.txt"
grep -q '^lbp_serve_cache_hits_total 2$' "$smokedir/metrics.txt"
# The memo keys body bytes, the cache the canonical job: only the
# byte-identical repeat skipped decode and compile.
grep -q '^lbp_serve_front_hits_total 1$' "$smokedir/metrics.txt"
# The cache is a log with one writer: a second daemon on the same
# -cachedir must refuse to start while the first one lives (if it does
# start, timeout ends it and the grep below fails).
if timeout 10 "$smokedir/lbp-serve" -addr 127.0.0.1:0 -cachedir "$smokedir/cache" >"$smokedir/second.log" 2>&1; then
    echo "a second lbp-serve started on a held -cachedir" >&2
    exit 1
fi
grep -q "locked by another" "$smokedir/second.log"
# Footprint: two distinct 1024-core jobs, so the second runs on the
# pooled machine after its Reset. Banks are page-backed (DESIGN.md §12):
# the daemon must hold the pages the spin loops write, not the 128 MiB
# the banks address.
for n in 1000 2000; do
    curl -fsS -X POST "http://$addr/jobs" \
        -d '{"source":"main:\n\tli t1, '$n'\nloop:\n\taddi t1, t1, -1\n\tbne t1, zero, loop\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n","lang":"s","cores":1024,"digest":true}' \
        >"$smokedir/big$n.json"
    grep -q '"status": "ok"' "$smokedir/big$n.json"
done
hwm=$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' "/proc/$servepid/status")
if [ -z "$hwm" ] || [ "$hwm" -ge $((64 * 1024)) ]; then
    echo "lbp-serve peak RSS after two 1024-core jobs is ${hwm:-unknown} kB, want < 65536 kB" >&2
    exit 1
fi
kill -TERM "$servepid"
wait "$servepid"
grep -q "drained" "$smokedir/serve.log"
echo "verify: lbp-serve smoke OK"

# Distributed smoke: a coordinator feeding two worker processes via
# JSON-RPC. The same job is run cold, repeated (no result cache here,
# so the repeat re-executes), and again after one worker is killed (the
# survivor takes everything) — every response must carry byte-identical
# deterministic fields.
wait_addr() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "$2 never wrote its address:" >&2
            cat "$3" >&2
            exit 1
        fi
        sleep 0.1
    done
}
"$smokedir/lbp-serve" -worker 127.0.0.1:0 -addrfile "$smokedir/w1.addr" \
    >"$smokedir/w1.log" 2>&1 &
w1pid=$!
"$smokedir/lbp-serve" -worker 127.0.0.1:0 -addrfile "$smokedir/w2.addr" \
    >"$smokedir/w2.log" 2>&1 &
w2pid=$!
wait_addr "$smokedir/w1.addr" "worker 1" "$smokedir/w1.log"
wait_addr "$smokedir/w2.addr" "worker 2" "$smokedir/w2.log"
"$smokedir/lbp-serve" -addr 127.0.0.1:0 -addrfile "$smokedir/coord.addr" \
    -backends "$(cat "$smokedir/w1.addr"),$(cat "$smokedir/w2.addr")" \
    >"$smokedir/coord.log" 2>&1 &
coordpid=$!
wait_addr "$smokedir/coord.addr" "coordinator" "$smokedir/coord.log"
caddr=$(cat "$smokedir/coord.addr")
djob='{"source":"main:\n\tli t1, 60000\nloop:\n\taddi t1, t1, -1\n\tbne t1, zero, loop\n\tli ra, 0\n\tli t0, -1\n\tp_ret\n","lang":"s","cores":1,"digest":true}'
curl -fsS -X POST "http://$caddr/jobs" -d "$djob" >"$smokedir/djob1.json"
grep -q '"status": "ok"' "$smokedir/djob1.json"
grep -q '"worker":' "$smokedir/djob1.json"
# A job the simulator panics on is the job's own answer: 422, no retry,
# both workers alive — and the next job is answered.
pjob='{"source":"main:\n\tli t1, 0x80000000\n\tlw t2, 0(t1)\n\taddi zero, zero, 0\n\taddi t3, t2, 1\n\tli t0, -1\n\tli ra, 0\n\tp_ret\n","lang":"s","cores":1}'
code=$(curl -sS -o "$smokedir/pjob.json" -w '%{http_code}' -X POST "http://$caddr/jobs" -d "$pjob")
if [ "$code" != 422 ] || ! grep -q 'simulator panic' "$smokedir/pjob.json"; then
    echo "distributed smoke: the panicking job answered HTTP $code, want 422 naming the panic:" >&2
    cat "$smokedir/pjob.json" >&2
    exit 1
fi
kill -0 "$w1pid" "$w2pid"
curl -fsS -X POST "http://$caddr/jobs" -d "$djob" >"$smokedir/djob2.json"
grep -q '"status": "ok"' "$smokedir/djob2.json"
curl -fsS "http://$caddr/metrics" >"$smokedir/pmetrics.txt"
grep -q '^lbp_serve_dispatch_retries_total 0$' "$smokedir/pmetrics.txt"
grep -q '^lbp_serve_dispatch_backends_up 2$' "$smokedir/pmetrics.txt"
kill -TERM "$w1pid"
wait "$w1pid" 2>/dev/null || true
# Several posts after the kill: the dead backend must take none of
# them, and none may fail.
for n in 3 4 5; do
    curl -fsS -X POST "http://$caddr/jobs" -d "$djob" >"$smokedir/djob$n.json"
    grep -q '"status": "ok"' "$smokedir/djob$n.json"
done
det1=$(grep -E '"(digest|cycles|retired)"' "$smokedir/djob1.json")
if [ -z "$det1" ]; then
    echo "distributed smoke: no deterministic fields in djob1.json" >&2
    exit 1
fi
for n in 2 3 4 5; do
    detn=$(grep -E '"(digest|cycles|retired)"' "$smokedir/djob$n.json")
    if [ "$det1" != "$detn" ]; then
        echo "distributed determinism mismatch across worker kill (job $n):" >&2
        printf '%s\n---\n%s\n' "$det1" "$detn" >&2
        exit 1
    fi
done
curl -fsS "http://$caddr/metrics" >"$smokedir/dmetrics.txt"
grep -q '^lbp_serve_dispatch_jobs_total 6$' "$smokedir/dmetrics.txt"
# Without a result cache the request memo hashes and stores nothing.
grep -q '^lbp_serve_front_hits_total 0$' "$smokedir/dmetrics.txt"
grep -q '^lbp_serve_dispatch_completed_total 6$' "$smokedir/dmetrics.txt"
kill -TERM "$coordpid"
wait "$coordpid"
grep -q "drained" "$smokedir/coord.log"
kill -TERM "$w2pid"
wait "$w2pid" 2>/dev/null || true
echo "verify: distributed smoke OK"

# Native fuzzing smokes. Determinism first: generated MiniC + OpenMP
# programs across the {cores} x {fast-forward on, off} matrix must match
# the sequential reference evaluator. Its seed corpus (two fixed
# campaigns, one on the 256-core ladder) already ran under go test
# above; this explores past it.
go test ./internal/fuzzgen -run '^$' -fuzz FuzzDeterminism -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzDeterminism smoke OK"
# Hostile checkpoint bytes get a typed error or a machine that can be
# stepped, never a panic. The seeds include the 24 KB
# checkpoint_v6_8core.bin, so the minimizer is capped — by default it
# may spend a minute on one input.
go test ./internal/lbp -run '^$' -fuzz FuzzReadCheckpoint -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzReadCheckpoint smoke OK"
# Well-formed checkpoints that say something no run reaches (fields of
# the decoded fixture set to fuzzed values): a typed error, or a machine
# the invariant check holds to after every cycle of its run.
go test ./internal/lbp -run '^$' -fuzz FuzzRestoreEdit -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzRestoreEdit smoke OK"
# Hostile program images (POST /jobs "image", and what a worker reads
# off the wire): an error, or a program that round-trips through
# WriteImage.
go test ./internal/asm -run '^$' -fuzz FuzzReadImage -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzReadImage smoke OK"
# Hostile assembly text (POST /jobs "lang":"s", lbp-asm, lbp-run): an
# *asm.Error, or a program within the size bound made of instructions
# the table encodes back, in bounded time.
go test ./internal/asm -run '^$' -fuzz FuzzAssemble -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzAssemble smoke OK"
# Hostile MiniC (POST /jobs with the default "lang", lbp-cc, lbp-run): a
# *cc.Error, or text the assembler takes or refuses with an *asm.Error.
go test ./internal/cc -run '^$' -fuzz FuzzCompile -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzCompile smoke OK"
# Hostile request bodies: any bytes through POST /jobs answer a status
# of DESIGN.md §8's table with a JobResult.
go test ./internal/serve -run '^$' -fuzz FuzzJobRequest -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzJobRequest smoke OK"
# Hostile rpc frames (what a worker reads off a coordinator connection):
# bounded memory, every frame answered or dropped, no panic, no hang.
go test ./internal/rpc -run '^$' -fuzz FuzzRPCFrame -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzRPCFrame smoke OK"
# Hostile result-cache segments (what Open finds in -cachedir after a
# crash, a full disk or bit rot): the well-formed prefix indexed, the
# rest cut off, nothing allocated on a length field's say-so.
go test ./internal/cache -run '^$' -fuzz FuzzSegmentScan -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzSegmentScan smoke OK"
# Hostile stored payloads (what a hit answers as stored): a miss that
# drops the entry, or one JSON object that begins with the stamped ID and
# ends with "cached": true and the zeroed host-side fields.
go test ./internal/serve -run '^$' -fuzz FuzzCachedPayload -fuzztime 5s -fuzzminimizetime 1s
echo "verify: FuzzCachedPayload smoke OK"

if [ -n "$fig" ]; then
    go run ./cmd/lbp-bench -fig "$fig" -outdir out/
    # A record holds simulated quantities only: any difference from the
    # tracked bytes is a change in the simulator's behaviour
    # (go test ./cmd/lbp-bench names the first differing field).
    if [ -f "BENCH_fig$fig.json" ]; then
        cmp "BENCH_fig$fig.json" "out/BENCH_fig$fig.json"
        echo "verify: BENCH_fig$fig.json reproduced byte for byte"
    fi
    # Host-side interpreter throughput (cycles/s): steady-state numbers
    # from the Go microbenchmarks, for eyeballing against EXPERIMENTS E17.
    # BenchmarkPhaseBCommit runs at 64, 256 and 1024 cores: its three
    # cycles/s (and ns/cycle) lines should read about the same — a curve
    # that falls with the core count is per-cycle work proportional to
    # the machine size (EXPERIMENTS E21). BenchmarkMatmul64 is the
    # sim_matmul64 shape — 64 harts on 16 cores, all live — where stage
    # selection is most of a cycle (EXPERIMENTS E24 has its ns/cycle).
    go test ./internal/lbp -run '^$' -bench 'BenchmarkMachineStep|BenchmarkFigRow|BenchmarkMatmul64|BenchmarkPhaseBCommit' -benchtime 1s
    # The two fixed per-event costs of a cycle (EXPERIMENTS E40): folding
    # an event into the trace digest, and scheduling plus dispatching a
    # memory event on the wheel at 64-core lead times.
    go test ./internal/trace ./internal/mem -run '^$' -bench 'BenchmarkAddBatch|BenchmarkEventWheel' -benchtime 1s
    # The per-request toolchain a cold job pays (EXPERIMENTS E25, E26,
    # E28): MiniC -> program through the statement list (BenchmarkBuild),
    # MiniC -> text (BenchmarkBuildProgram), assembly text -> program,
    # program image text -> words, code words -> descriptors; what a
    # cache key pays to print the image (BenchmarkWriteImage) and what a
    # cache hit costs whole (BenchmarkHandleJobsHit, EXPERIMENTS E30).
    go test ./internal/cc ./internal/asm ./internal/isa ./internal/serve -run '^$' -bench 'BenchmarkBuild|BenchmarkAssemble|BenchmarkReadImage|BenchmarkWriteImage|BenchmarkDecodeDesc|BenchmarkHandleJobsHit' -benchtime 1s -benchmem
fi

echo "verify: OK"
