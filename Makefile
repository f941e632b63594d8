# TreeServer-Go build targets. Everything is stdlib-only Go >= 1.22.

GO ?= go

.PHONY: all build test race recovery straggler hist failover wire elastic serve resilience cover bench bench-smoke microbench experiments ablations examples fmt vet lint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/cluster/ ./internal/transport/ ./internal/task/

# Crash-restart recovery suite: checkpoint format, cluster resume tests and
# the master-kill chaos cells, all under the race detector.
recovery:
	$(GO) test -race ./internal/checkpoint/
	$(GO) test -race ./internal/cluster/ -run 'TestMasterKill|TestResume|TestCheckpoint|TestRereplicate|TestMaxTreeRestarts|TestHeartbeatBudget'
	$(GO) test -race ./internal/chaostest/ -run TestMasterKillRecovery

# Gray-failure suite: straggler scoring, hedged execution and quarantine unit
# tests plus the degraded-worker chaos cells, all under the race detector.
straggler:
	$(GO) test -race ./internal/cluster/ -run 'TestHealth|TestQuarantine|TestWorkerFailedClearsQuarantine|TestPingRTT|TestAttemptDeadline|TestSetTargetDegraded|TestHedge'
	$(GO) test -race ./internal/transport/ -run TestChaosDegrade
	$(GO) test -race ./internal/loadbal/ -run Quarantine
	$(GO) test -race ./internal/chaostest/ -run TestGrayFailure

# Histogram training mode: sketch and kernel unit tests, the saturated
# hist-vs-exact equivalence properties, the job-scoped worker histogram
# cache (TestHistCacheScopedToJob), and the hist chaos cell, all under the
# race detector. CI's hist job runs this target.
hist:
	$(GO) test -race ./internal/sketch/
	$(GO) test -race ./internal/split/ -run 'TestHist|TestBinsFromSketch'
	$(GO) test -race ./internal/core/ -run TestTrainLocalHist
	$(GO) test -race ./internal/cluster/ -run TestHist
	$(GO) test -race ./internal/chaostest/ -run TestHistModeDeterministic

# Hot-standby failover suite: the checkpoint stream and lease machinery
# (including the randomized-interleaving lease property test), the in-cluster
# standby tests, and the failover chaos cells (primary kill, lossy fabric,
# split-brain), all under the race detector.
failover:
	$(GO) test -race ./internal/checkpoint/ -run 'TestStream|TestReplica|TestMultiSink'
	$(GO) test -race ./internal/cluster/ -run 'TestLease|TestStandby|TestNoStandbyNoStreamTraffic'
	$(GO) test -race ./internal/chaostest/ -run TestStandbyFailover

# TCP wire path: the stream lifecycle tests (one gob stream per connection,
# abandoned on any error), the TCP cluster and standby suites, and the
# real-socket chaos equivalence cell, all under the race detector.
wire:
	$(GO) test -race ./internal/transport/ ./internal/cluster/ -run 'TCP|Standby'
	$(GO) test -race ./internal/chaostest/ -run TestEquivalenceOverTCP

# Elastic-fleet suite: membership protocol unit tests (live join, graceful
# drain, fleet cap, generation fence), membership checkpoint records, and the
# churn chaos cells (join under drops, drain mid-tree, join racing failover,
# churn storm), all under the race detector.
elastic:
	$(GO) test -race ./internal/cluster/ -run 'TestJoin|TestDrain|TestFleetCap'
	$(GO) test -race ./internal/checkpoint/ -run TestMembership
	$(GO) test -race ./internal/loadbal/ -run TestMatrixGrow
	$(GO) test -race ./internal/chaostest/ -run TestElasticChurn

# Serving suite: compiled-vs-interpreter equivalence properties and
# zero-alloc guards, registry hot-swap storm, and the /v1 handler tests,
# all under the race detector, plus the legacy-vs-compiled serving A/B
# (written to .tsbench_out/, leaving the committed BENCH_serve.json alone).
serve:
	$(GO) test -race ./internal/infer/ ./internal/registry/ ./internal/serve/
	mkdir -p .tsbench_out
	$(GO) run ./cmd/benchtab -quick -serve-json .tsbench_out/BENCH_serve.json

# Serving resilience suite: overload shedding, request deadlines, canary
# promote/rollback, slow-loris and shutdown-under-load chaos cells, plus the
# limiter+canary overhead A/B (the resilience arm of BENCH_serve.json,
# written to .tsbench_out/).
resilience:
	$(GO) test -race ./internal/serve/ -run 'TestOverload|TestLimiter|TestRequestDeadline|TestClientDisconnect|TestBodyTooLarge|TestStage|TestCanary|TestReadyz|TestSlowLoris|TestShutdown'
	$(GO) test -race ./internal/registry/ -run 'TestStage|TestRoute|TestCanary|TestActivateAndRollbackCancelCanary|TestRollbackEmptyHistory|TestActivateUnknownSeq|TestWatch'
	$(GO) test -race ./internal/infer/ -run 'TestDecodeRequestCtx|TestPredictCtx'
	mkdir -p .tsbench_out
	$(GO) run ./cmd/benchtab -quick -serve-json .tsbench_out/BENCH_serve.json

cover:
	$(GO) test -cover ./internal/...

# The repo's one benchmark (bench/README.md) and the only basis for a
# performance claim: seven workloads, end-to-end metrics, results under
# .tsbench_out/. bench-smoke runs the same seven at -tiny sizes and checks
# correctness only.
bench:
	$(GO) run ./bench/tsbench all -seed 1

bench-smoke:
	$(GO) run ./bench/tsbench all -tiny -seconds 1

# One testing.B benchmark per paper table plus per-package micro benches, for
# measuring while you work.
microbench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation tables at the default laptop scale.
experiments:
	$(GO) run ./cmd/benchtab

ablations:
	$(GO) run ./cmd/benchtab -ablations

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/creditrisk
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/boosting
	$(GO) run ./examples/deepforest

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# vet plus staticcheck; CI installs staticcheck, locally it is optional.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

clean:
	$(GO) clean ./...
