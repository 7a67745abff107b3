GO ?= go

.PHONY: all build vet lint test race fuzz-smoke bench-bin chaos-smoke chaos-grow chaos-deadline chaos-matrix-smoke chaos-matrix examples-smoke bench bench-quick bench-allocs tenants-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Guardrails for the deadline/cancellation refactor: no context.TODO()
# anywhere, no resurrected *Traced duplicate APIs (spans ride in ctx now),
# and no bare sleeps in non-test engine/volume/storage code — every wait on
# those paths must select on a context.
lint:
	@if grep -rn 'context\.TODO()' --include='*.go' . ; then \
		echo 'lint: context.TODO() is forbidden — plumb a real context'; exit 1; fi
	@if grep -rn 'Traced(' internal --include='*.go' | grep -v _test ; then \
		echo 'lint: *Traced( API resurrected — carry the span in the context'; exit 1; fi
	@if grep -rn 'time\.Sleep' internal/engine internal/volume internal/storage --include='*.go' | grep -v _test ; then \
		echo 'lint: time.Sleep in engine/volume/storage — waits must select on a ctx'; exit 1; fi

# Tier-1: the suite that must stay green on every change.
test: build vet lint
	$(GO) test ./...

# Race-detector pass over the concurrency-heavy packages, then 100 rounds of
# the split stale-read test: the tails-before-VDL publication order it guards
# once broke as a one-in-four flake, which a single pass does not catch. The
# page-path packages are in the list because the recorder's before-image pool
# is shared by every engine in the process; the in-place coalescing test runs
# ten times because one schedule of readers against folds proves little, and
# the hedged-read tests twenty: once the deadline fires, the caller, the
# timer's goroutine and every hedge share one read's state. (The end-to-end
# tail-latency test is left to the package pass above: it judges a wall-clock
# p99 and misses it about once in forty runs under the detector's slowdown,
# at the parent commit too.) The next line is the durability window's: the
# acking goroutine publishes the VDL, so the rule that a quorum vouches only
# for its own batch, and the fence drain that waits out the fifth and sixth
# deliveries, are races between sender workers — twenty schedules each, and
# with them the windowed senders' own: a later flight may land before an
# earlier one at the same replica (the writer's half of the ordering contract
# that makes the overtaking safe on that line, the node's on the storage line
# under it), and the workers are bounded and reaped by Close and Crash. The
# engine's line after those is the same window seen from a commit: the goroutine
# that settles a group completes its commits, so the two ways a commit used to
# be acknowledged below the VDL (a crash, a failed group ahead of it) are races
# between a sender worker, the framer and the committer. The storage line's
# second test is continuous backup's: a pass swaps the staging list under the
# node's lock and encodes the delta outside it while ingest and coalescing run.
# The other four tests on that line each hold one of a node's background disk
# waits (coalesce page write, log-tier GC write, Truncate's write) or a read's
# disk read and require an Ingest and a read to get through meanwhile: the
# node holds its lock only for in-memory work. The replica line is the
# buffer caches' frame recycling: writer Gets and Puts and a replica's Gets
# against 4-frame caches, every value checked against its key, version and
# checksum — a frame refilled while a reader held its page is a race there.
race:
	$(GO) test -race ./internal/core/ ./internal/trace/ ./internal/volume/ \
		./internal/chaos/ ./internal/chaos/matrix/ ./internal/storage/ \
		./internal/netsim/ ./internal/metrics/ ./internal/quorum/ \
		./internal/engine/ \
		./internal/btree/ ./internal/page/ ./internal/bufcache/
	$(GO) test -race -count=100 -run TestSplitStaleReadConcurrent ./internal/volume/
	$(GO) test -race -count=10 -run TestCoalesceInPlaceUnderConcurrentReads ./internal/storage/
	$(GO) test -race -count=20 -run 'TestHedged' -skip 'TestHedgedReadBoundsTailLatency' ./internal/volume/
	$(GO) test -race -count=20 -run 'TestVDLNeverPassesAnUnackedBatch|TestDurableTailIsOnItsQuorum|TestGrowDrainsStragglersBeforeEpochPublish|TestCompletionMayReleaseDuringShip|TestLaterFlightMayLandFirst|TestSenderWorkersBoundedAndReaped' ./internal/volume/
	$(GO) test -race -count=20 -run 'TestIngestLaterFlightFirst|TestBackupUnderIngestAndCoalesce|TestCoalescePageWriteOutsideLock|TestReadDiskReadOutsideLock|TestLogGCWriteOutsideLock|TestTruncateWriteOutsideLock' ./internal/storage/
	$(GO) test -race -count=20 -run 'TestCrashDoesNotAckCommitBelowVDL|TestCommitBehindFailedGroupFailsPromptly|TestCompletionUnderCommitLoad' ./internal/engine/
	$(GO) test -race -count=20 -run 'TestRecycledFrameNeverReachesReader' ./internal/replica/

# Short gray-failure drill: fails unless zero data errors, >=99% write
# success, and the retry / hedge / auto-repair machinery all engaged.
chaos-smoke:
	$(GO) run ./cmd/aurora-chaos -rounds 4 -probes 25 -seed 7

# Live volume growth under chaos: grow mid-workload with a gray-slow node,
# under the race detector. Zero failed commits, monotone VDL, no lost writes.
chaos-grow:
	$(GO) test -race -count=1 -run 'TestGrow' ./internal/volume/
	$(GO) test -race -count=1 -run 'TestGrowVolumeLive' .

# Deadline-vs-durability drill under a gray-slow node, with the race
# detector: a detached commit still becomes durable, VDL stays monotone,
# winning hedges cancel their losers, Close leaks no goroutines.
chaos-deadline:
	$(GO) test -race -count=1 -run 'TestCommitDeadlineUnderGraySlowNode' ./internal/chaos/
	$(GO) test -race -count=1 -run 'TestNoGoroutineLeaks' ./internal/integration/

# Seeded integrity scenario matrix (faults × stressors), CI tier: 12
# scenarios under the race detector, zero checksum mismatches / lost acked
# commits / VDL regressions / goroutine leaks required. Failures print a
# one-line replay command carrying the seed. The pinned runs sweep one full
# matrix (what -only draws without -count) filtered to the pagestore-lag
# fault (log/page role split) and the noisy-neighbor fault (co-tenant flood
# on a shared pool) across all four stressors — the smoke draw does not
# always include them.
chaos-matrix-smoke:
	$(GO) run -race ./cmd/aurora-chaos -matrix -tier smoke -seed 1
	$(GO) run -race ./cmd/aurora-chaos -matrix -tier smoke -seed 1 -only pagestore-lag
	$(GO) run -race ./cmd/aurora-chaos -matrix -tier smoke -seed 1 -only noisy-neighbor

# Nightly tier: three full sweeps of the matrix (120 scenarios).
chaos-matrix:
	$(GO) run -race ./cmd/aurora-chaos -matrix -tier full -seed 1

# The runnable examples must keep working as the public API evolves.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/pitr

# The fixed benchmark suite (benchmark/README.md, BENCHMARK.json): four
# closed-loop workloads, ten end-to-end metrics and the traced pass's
# per-layer metrics, full report with the environment header as JSON (about
# five minutes). `make bench N=<change number>` writes BENCH_<N>.json and fails
# without N; record one with every change, so `go run ./benchmark -compare
# BENCH_<earlier>.json BENCH_<N>.json` extends the trajectory (re-record the
# earlier one in a `git clone` if the host differs). bench-quick is the
# 3-second try-out of the same suite. bench-bin builds the binary every paired
# measurement runs (`.bench_build/benchmark.bin --workload W --seed N
# --seconds 20 --trace 0`; build the other side in its own tree): a bare
# `go build ./benchmark` fails on the directory of the same name.
bench:
	@if [ -z "$(N)" ]; then echo 'bench: set N, e.g. make bench N=31 writes BENCH_31.json'; exit 1; fi
	$(GO) run ./benchmark -trace 1 -json BENCH_$(N).json

bench-bin:
	mkdir -p .bench_build
	$(GO) build -o .bench_build/benchmark.bin ./benchmark

bench-quick:
	$(GO) run ./benchmark -quick

# Allocation guardrails. Log hot path: the encode/frame pins must stay at
# exactly zero allocations and the full commit steady state under one
# allocation per record (0 allocs/record amortized). Page path: node lookups
# and a steady-state coalesce round at zero, Tree.Get at the one value copy,
# an update in place at its redo only, an unsampled annotate free. Read path:
# a hedged read the first replica answers at zero objects and no goroutine, a
# page read into a supplied frame at zero, a full buffer cache's evict and
# insert at zero, an engine Get that misses on its leaf at the value copy, an
# idle coalesce round over 10 000 held pages at zero objects and
# microseconds. Write path: shipping a three-batch group at the writer's four
# objects and no goroutine, a cached single-row commit through the engine at
# its 55 objects and no goroutine. Instruments: a histogram observation
# and the windowed quantile behind the hedge deadline (recomputed every 32
# reads, two 976-bucket banks walked in place) at zero. Backup: a node without
# an object store keeps no staging list, so backup-off ingest files as before.
# Fails CI on regression.
bench-allocs:
	$(GO) test -run 'TestObserveZeroAllocs|TestWindowedQuantileZeroAllocs' -count=1 ./internal/metrics/
	$(GO) test -run 'TestRecordBodyEncodeZeroAllocs|TestFrameGroupSteadyStateZeroAllocs' -count=1 ./internal/core/
	$(GO) test -run 'TestCommitSteadyStateAllocs|TestHedgedFirstAnswerIsOneCallChain|TestReadPageMissZeroAllocs|TestShipIsTheCallersGoroutine' -count=1 ./internal/volume/
	$(GO) test -run 'TestCommitSpawnsNoGoroutine|TestGetMissAllocatesOnlyTheValue' -count=1 ./internal/engine/
	$(GO) test -run 'TestCacheEvictInsertZeroAllocs' -count=1 ./internal/bufcache/
	$(GO) test -run 'TestNodeLookupZeroAllocs|TestTreeGetAllocs|TestPutUpdateSteadyStateAllocs' -count=1 ./internal/btree/
	$(GO) test -run 'TestCoalesceRoundSteadyStateAllocs|TestCoalesceIdleRoundCostsNothingHeld|TestNodeWithoutStoreKeepsNoStagingList' -count=1 ./internal/storage/
	$(GO) test -run 'TestUnsampledPathDoesNotAllocate' -count=1 ./internal/trace/
	$(GO) test -run xxx -bench 'BenchmarkRecordBodyEncode|BenchmarkFrameGroup$$|BenchmarkCommitSteadyStateAllocs' -benchtime 100x ./internal/core/ ./internal/volume/
	$(GO) test -run xxx -bench 'BenchmarkTreeGet|BenchmarkTreePutUpdate|BenchmarkCoalesceRound|BenchmarkNodeReadPage|BenchmarkReadPageMiss' -benchmem -benchtime 1000x ./internal/btree/ ./internal/storage/ ./internal/volume/

# Every native fuzz target in the tree (`func Fuzz*` in a _test.go file), each
# for FUZZTIME on two workers; the seed corpora already run in `make test`.
FUZZTIME ?= 10s
fuzz-smoke:
	@grep -rEo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]+' . | sort | while IFS=: read -r file fn; do \
		name=$${fn#func }; \
		echo "fuzz $$name ($$(dirname $$file))"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) -parallel 2 $$(dirname $$file) || exit 1; \
	done

# CI-sized multi-tenant checks: the -race isolation regression (two volumes
# on one host fleet). The tenants experiment's shape runs in `make test`.
tenants-smoke:
	$(GO) test -race -count=1 -run 'TestTenant|TestPlacement|TestPooledFleet|TestWrongVolume' ./internal/volume/

ci: test race bench-allocs fuzz-smoke chaos-smoke chaos-grow chaos-deadline chaos-matrix-smoke tenants-smoke examples-smoke
