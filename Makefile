# Development and CI entry points. `make ci` is exactly what the GitHub
# Actions workflow runs.

GO ?= go

.PHONY: build vet lint test race bench-concurrent bench bench-smoke serve-smoke crash-smoke chaos-smoke shard-smoke bench-recovery load-smoke repl-smoke semisync-smoke bench-latency perfbench-test fuzz-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting and static-analysis gate: gofmt must have nothing to rewrite
# and go vet must be clean.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...

# -shuffle=on randomizes test (and subtest-parent) execution order so
# accidental inter-test state dependencies surface in CI instead of on a
# laptop; the seed is printed on failure for reproduction.
test:
	$(GO) test -shuffle=on ./...

# The whole suite under the race detector: the concurrency stress tests in
# concurrent_test.go and view_test.go are written to give it dense
# single-writer/many-reader interleavings.
race:
	$(GO) test -race -count=1 ./...

# Short-mode smoke run of the concurrent read-throughput benchmark; on a
# multi-core machine ns/op should stay roughly flat as readers grow.
bench-concurrent:
	$(GO) test -run '^$$' -bench BenchmarkConcurrentReaders -benchtime 1000x -short .

# Full ingestion benchmark trajectory: appends a machine-readable run
# (ns/op, B/op, allocs/op, elems/sec for engine Push, sharded PushBatch,
# expiry, mixed and recovery) to BENCH_ingest.json. Label it after the change being measured, e.g.
#   make bench BENCH_LABEL=my-change
BENCH_LABEL ?= local
bench:
	$(GO) run ./cmd/pskybench -ingest -out BENCH_ingest.json -label "$(BENCH_LABEL)"

# Fast benchmark smoke pass over the hot packages under the race detector:
# catches benchmarks that crash, race or regress catastrophically without
# paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 100x -benchmem -race ./internal/aggrtree/ ./internal/geom/ ./internal/core/

# End-to-end serve-mode smoke test: runs `pskyline -http` against a real
# stream and asserts /metrics, /healthz, /debug/skyline and pprof respond
# with the expected series.
serve-smoke:
	bash scripts/serve_smoke.sh

# End-to-end crash-recovery smoke test: kill -9 mid-ingest under the WAL,
# restart, and assert the final skyline matches an uninterrupted run.
crash-smoke:
	bash scripts/crash_smoke.sh

# End-to-end chaos smoke test: seeded fault storm (torn writes, failed
# writes/fsyncs) absorbed by the retry policy, kill -9 mid-ingest, restart
# and byte-compare the skyline against a no-fault oracle; then a shed-policy
# run on a dead disk that must keep serving.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# End-to-end multi-tenant smoke test: one `pskyline -streams` process hosts
# three independent streams, concurrent NDJSON ingest hits each over HTTP,
# and the sharded stream's skyline is compared against an identically-fed
# single-engine stream.
shard-smoke:
	bash scripts/shard_smoke.sh

# Recovery-reopen benchmark smoke: seeds a durable window, reopens it via the
# STR bulk-load path, and asserts the row completes.
bench-recovery:
	bash scripts/recovery_smoke.sh

# End-to-end load-harness smoke test: a short fixed-rate open-loop pskyload
# sweep against a serve-mode host over HTTP plus an in-process sweep,
# asserting complete accounting and that the windowed visibility-latency
# series and flight recorder respond.
load-smoke:
	bash scripts/load_smoke.sh

# End-to-end replication smoke test: a durable primary ships its WAL to a
# read-only replica, kill -9 lands on the primary mid-ingest, the replica is
# promoted via `pskyline -promote` and fed the rest of the stream, and its
# skyline is byte-compared against an uninterrupted oracle.
repl-smoke:
	bash scripts/repl_smoke.sh

# End-to-end semi-sync smoke test: a -repl-semisync-k 1 primary under an
# injected slow-link partition must degrade (quorum wait timeout), keep
# ingesting, re-upgrade on its own, and after kill -9 + promote the follower
# must hold every quorum-acked record; the failover skyline is byte-compared
# against an uninterrupted oracle.
semisync-smoke:
	bash scripts/semisync_smoke.sh

# The benchmark under perfbench/ is its own Go module, so the root
# `go vet ./...` and `go test ./...` never build it: vet and test it here, so
# a library change that breaks it fails CI instead of the benchmark run.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Bounded fuzzing smoke: `make test` only replays each fuzz target's seed
# corpus; this runs every target's coverage-guided mutation for FUZZTIME
# (go test -fuzz takes one target and one package per run). The targets are
# discovered, not listed: `go test -list '^Fuzz' ./...` prints each package's
# targets followed by its `ok <import path>` line. A failing input is written
# to the package's testdata/fuzz directory for reproduction.
FUZZTIME ?= 5s
fuzz-smoke:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...); \
	targets=$$(printf '%s\n' "$$list" | awk '/^Fuzz/ { fn[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2 ":" fn[i]; n = 0 }'); \
	if [ -z "$$targets" ]; then echo "fuzz-smoke: no fuzz targets found"; exit 1; fi; \
	for t in $$targets; do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# Full latency-vs-rate trajectory: open-loop sweeps of the sync, async and
# sharded write paths appended to BENCH_latency.json. Label it after the change being measured, e.g.
#   make bench-latency BENCH_LABEL=my-change
bench-latency:
	$(GO) run ./cmd/pskyload -mode sync -rates 5000,10000,20000 -out BENCH_latency.json -label "$(BENCH_LABEL)-sync"
	$(GO) run ./cmd/pskyload -mode async -rates 5000,10000,20000 -out BENCH_latency.json -label "$(BENCH_LABEL)-async"
	$(GO) run ./cmd/pskyload -mode sharded -batch 16 -rates 5000,10000,20000 -out BENCH_latency.json -label "$(BENCH_LABEL)-sharded"

ci: build lint test race perfbench-test fuzz-smoke bench-concurrent bench-smoke serve-smoke crash-smoke chaos-smoke shard-smoke bench-recovery load-smoke repl-smoke semisync-smoke
