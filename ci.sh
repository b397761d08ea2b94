#!/bin/sh
# CI gate: everything must build, vet clean, and pass the full test
# suite plus a race-enabled short pass over the concurrent packages.
# Designed to finish in a couple of minutes on a laptop-class host.
set -eu

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== prcuvet (typed-guard misuse analysis over the whole repo) =="
go build -o /tmp/prcuvet.ci ./cmd/prcuvet
go vet -vettool=/tmp/prcuvet.ci ./...
rm -f /tmp/prcuvet.ci

echo "== go test (full) =="
go test -timeout 300s ./...

echo "== go test -shuffle=on (order-independence pass) =="
go test -short -shuffle=on -timeout 300s ./...

echo "== go test -count=20 -short (root-package flake pass: sync.Pool and scheduler assumptions) =="
go test -count=20 -short -timeout 600s .

echo "== go test -race -short (API + engines + structures + typed guard layer) =="
go test -race -short -timeout 300s . ./internal/core ./citrus ./hashtable ./guard

echo "== go test -race -count=3 (CITRUS concurrent updates: the nil-edge tag protocol) =="
go test -race -count=3 -run 'Concurrent|Permanent|Reclaim|Reinsert' -timeout 300s ./citrus

echo "== go test -race -count=3 (optimistic AVL tree: concurrent updates, splice/rebalance lock order) =="
go test -race -count=3 -run 'Concurrent|Deadlock' -timeout 120s ./internal/opttree

echo "== go test -race -count=3 (the four engine kernels: nine flavors' safety argument in four functions, D-PRCU's wide-wait switch, the packed litmus tests and URCU's writer lock) =="
go test -race -count=3 -run 'TestConformance|TestTorture|TestWaitReadsClockOnlyForCoveredSection|TestEpochTicksOnlyForCoveredSection|TestEpochReentryDoesNotBlockWait|TestFrozenClockWaitSemantics|TestWaitBookkeepingExact|TestWideWait|TestPacked|TestURCU|TestTreeRCU' -timeout 300s ./internal/core .

echo "== go test -race (reclaimer backlog/backpressure stress) =="
go test -race -timeout 300s ./internal/reclaim

echo "== go test -race (flight recorder + export plane: span ring, exposition format, health) =="
go test -race -timeout 300s ./internal/obs ./internal/obshttp

echo "== go test -race (reader churn stress) =="
go test -race -run 'TestReaderChurnConcurrentWaits|TestUncappedRegisterNeverFails' \
    -timeout 300s ./internal/core .

echo "== go test -race (chaos torture: fault injection over every engine) =="
go test -race -short -timeout 300s ./internal/chaos

echo "== fuzz seed corpora replay =="
go test -run 'Fuzz' -timeout 120s ./internal/core ./hashtable ./internal/reclaim

echo "== prcubench -quick -json smoke =="
out=$(go run ./cmd/prcubench -quick -json fig1 2>/dev/null)
case "$out" in
'{'*) ;;
*)
    echo "prcubench -json did not emit JSON on stdout:" >&2
    echo "$out" >&2
    exit 1
    ;;
esac

echo "== prcubench -quick -json reclaim smoke =="
out=$(go run ./cmd/prcubench -quick -json reclaim 2>/dev/null)
case "$out" in
'{'*) ;;
*)
    echo "prcubench -json reclaim did not emit JSON on stdout:" >&2
    echo "$out" >&2
    exit 1
    ;;
esac

echo "== export plane HTTP smoke (loopback: /metrics, /debug/prcu/health with blame, /debug/prcu/tracez) =="
go run ./cmd/obssmoke

echo "== bench smoke: recorder-off read fast paths (flight recorder must not tax disabled hot paths), the wait that finds nobody (0 allocs asserted) and the retire path =="
go test -run '^$' -bench 'BenchmarkEnterExit' -benchtime 100x -timeout 120s .
go test -run '^$' -bench 'BenchmarkWaitQuiescent' -benchtime 100x -timeout 120s ./internal/core
go test -run '^$' -bench 'BenchmarkRetire' -benchtime 100x -timeout 120s ./internal/reclaim
go test -run '^$' -bench 'BenchmarkGuardedRead' -benchtime 100x -timeout 120s ./hashtable

echo "== benchmark driver entry: engine_sweep poison litmus (non-zero exit if any of the nine engines frees early) =="
bash benchmark/run.sh --workload engine_sweep --seed 1 --seconds 15 --trace 0

echo "CI PASS"
