#!/usr/bin/env bash
# The CI pipeline. Both `make ci` and .github/workflows/ci.yml run this
# script and nothing else, so the local gate and the hosted gate are the
# same check by construction.
#
# Stages:
#    0. gofmt — fails when `gofmt -l .` lists any file
#    1. go vet + build + full test suite
#    2. full race-detector run (the concurrency suite's anchor)
#    3. shuffled double run — flushes ordering-dependent tests
#    4. lock-order assertions (-tags lockcheck builds the checking
#       implementation of internal/lockcheck into the manager's locks)
#    5. chaos smoke — the seeded fault-injection and cancellation suite
#       under the race detector: every surviving query byte-identical to
#       the fault-free run, no leaked goroutines, no leaked pins
#    6. serving smoke — the HTTP frontend's admission, batching and
#       drain-lifecycle suite under the race detector, then shuffled
#    7. crash-recovery chaos — the datastore suite, the core recovery
#       suite, and the kill -9 warm-restart test under the race detector
#    8. staticcheck at a pinned version, when installed (the workflow
#       installs it; local runs skip it with a note — and a workflow
#       warning annotation — rather than demanding the tool)
#    9. bench smoke: cachespeed + lockspeed + faultspeed + servespeed +
#       persistspeed + maintspeed + shardspeed + failspeed + ingestspeed
#       at short scale with JSON reports (the maintspeed run also captures CPU
#       and mutex profiles as artifacts), then a benchcheck preflight
#       (every *speed experiment must have registered floors) and
#       benchcheck gating the host-independent metrics (determinism,
#       cache hit rate, pool mutations, fault-plumbing overhead,
#       load-shed/coalescing behavior, journal overhead and
#       warm-restart fidelity, background-maintenance equivalence and
#       task accounting, cross-shard merge identity and rebalance
#       behavior, replica-failure invisibility, hedging and breaker
#       bounds)
#   10. sharded-cluster smoke — the full scatter-gather suite plus the
#       multi-process chaos tests under the race detector: a coordinator
#       over three real shard subprocesses answers byte-identically to
#       one shard, survives a kill -9 of one shard, and fails queries
#       for the dead range with a 503 naming it; a replicated cluster
#       (two groups x two replicas as subprocesses) absorbs a kill -9 of
#       a primary mid-burst with zero client-visible failures and
#       byte-identical results; and the failover/hedging/breaker suite
#       (with its goroutine-leak checks) re-runs fresh
#   11. ingest smoke — the batched append path under the race detector:
#       the core delta-propagation suite, the all-template
#       delta-vs-remat property tests, the serving tier's /append suite
#       (an append burst racing a query burst, bad-request and
#       ownership rejections, a kill -9 mid-ingest whose warm restart
#       replays the journal to byte-identical results), and the
#       coordinator routing suite (keyed split, keyless broadcast,
#       epoch refresh); ingestspeed runs in the bench smoke with its
#       floors (incremental == remat across templates and shard counts,
#       sublinear refresh cost, bounded read p99 under ingest)
#
# Reports land in BENCH_DIR (default ./bench-reports) as BENCH_<id>.json;
# the workflow uploads them as artifacts.

set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
BENCH_DIR=${BENCH_DIR:-bench-reports}
# The pinned staticcheck version: the workflow installs exactly this,
# and local runs with some other version get a loud note instead of a
# silently different gate.
STATICCHECK_VERSION=${STATICCHECK_VERSION:-2024.1.1}

# skipped STAGE REASON — the loud-skip helper: local runs get a note,
# hosted runs also get a GitHub Actions warning annotation so a skipped
# stage is visible on the run summary, not buried in the log.
skipped() {
    echo "==> $1: skipped ($2)"
    if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
        echo "::warning title=ci.sh stage skipped::$1: $2"
    fi
}

echo "==> gofmt"
# .bench_build/ holds the benchmark's build cache, not source.
unformatted=$(gofmt -l . | grep -v '^\.bench_build/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists files that need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "==> vet"
$GO vet ./...

echo "==> build"
$GO build ./...

echo "==> test"
$GO test ./...

echo "==> race"
$GO test -race ./...

echo "==> shuffle (x2)"
$GO test -shuffle=on -count=2 ./...

echo "==> lockcheck"
$GO test -tags lockcheck ./internal/lockcheck ./internal/core

echo "==> chaos smoke (race)"
$GO test -race -run 'TestChaos|TestFragmentReadFault|TestMaterializeFaults|TestPermanentMaterialize|TestProcessQueryContext' ./internal/core
$GO test -race -run 'TestRunContext|TestForEachTask|TestViewScanReadFault' ./internal/engine

echo "==> serving smoke (race + shuffle)"
$GO test -race ./internal/server
$GO test -race -shuffle=on ./internal/server

echo "==> crash-recovery chaos (race)"
$GO test -race ./internal/datastore
$GO test -race -run 'TestRecovery|TestSnapshotNoop' ./internal/core
$GO test -race -run 'TestCrashRecoveryWarmRestart|TestLimiterAbandonHandoverRace' ./internal/server

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck ($(staticcheck -version 2>/dev/null || echo unknown))"
    installed=$(staticcheck -version 2>/dev/null || true)
    case "$installed" in
        *"$STATICCHECK_VERSION"*) ;;
        *) echo "note: installed staticcheck ($installed) is not the pinned $STATICCHECK_VERSION" ;;
    esac
    staticcheck ./...
else
    skipped "staticcheck" "not installed; CI pins $STATICCHECK_VERSION"
fi

echo "==> bench smoke"
mkdir -p "$BENCH_DIR"
$GO build -o "$BENCH_DIR/deepsea-bench" ./cmd/deepsea-bench
$GO build -o "$BENCH_DIR/benchcheck" ./cmd/benchcheck
(cd "$BENCH_DIR" && ./deepsea-bench -experiment cachespeed -params short -json)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment lockspeed -params short -json)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment faultspeed -params short -json)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment servespeed -params short -json)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment persistspeed -params short -json)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment maintspeed -params short -json \
    -cpuprofile maintspeed.cpu.pprof -mutexprofile maintspeed.mutex.pprof)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment shardspeed -params short -json)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment failspeed -params short -json)
(cd "$BENCH_DIR" && ./deepsea-bench -experiment ingestspeed -params short -json)

echo "==> benchcheck"
"$BENCH_DIR/benchcheck" -preflight
"$BENCH_DIR/benchcheck" "$BENCH_DIR"/BENCH_*.json

echo "==> sharded-cluster smoke (race)"
$GO test -race ./internal/shard
$GO test -race -count=1 -run 'TestShardClusterSmoke|TestReplicatedClusterSmoke' ./internal/shard
$GO test -race -count=1 -run 'TestFailover|TestHedged|TestBreaker|TestProber|TestCoordinatorAdoptsTrueOwnershipOn409' ./internal/shard

echo "==> ingest smoke (race)"
$GO test -race -count=1 -run 'TestAppend|TestCacheInvalidationOnAppend|TestRematOnAppend|TestBackgroundRefresh|TestEmptyAppend' ./internal/core
$GO test -race -count=1 -run 'TestDeltaRefresh' .
$GO test -race -count=1 -run 'TestAppendEndpoint|TestAppendBadRequests|TestAppendOwnership|TestAppendQueryConcurrentSmoke|TestCrashRecoveryMidIngest' ./internal/server
$GO test -race -count=1 -run 'TestCoordinatorAppend' ./internal/shard

echo "==> ci passed"
