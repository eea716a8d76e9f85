GO ?= go
BIN := bin/khazlint

.PHONY: all build test race vet lint lint-selftest fmt-check bench-module bench-scan alloc-gates bench-smoke telemetry-smoke clean

all: build lint test bench-module

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet runs the standard suite plus khazlint as a vettool, so findings
# carry package context and benefit from the go command's vet cache.
vet: $(BIN)
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/$(BIN) ./...

# lint runs khazlint standalone (faster feedback than vettool mode),
# suppressing findings recorded in the committed baseline so only new
# findings fail the build.
lint:
	$(GO) run ./cmd/khazlint -baseline lint-baseline.json ./...

# lint-selftest exercises the lint suite itself: its unit tests plus a
# full standalone and vettool run over the repo, the whole leg under a
# 30-second budget so the whole-program passes (call graph + summaries)
# cannot quietly become too slow to keep in CI. The last block proves the
# stale-baseline contract end-to-end on a small package: a baseline entry
# with no matching finding fails the run, -prune-baseline drops it, and
# the pruned baseline passes again.
lint-selftest: $(BIN)
	timeout 30 sh -c '\
		$(GO) test -count=1 ./internal/lint/... ./cmd/khazlint/ && \
		$(GO) run ./cmd/khazlint -baseline lint-baseline.json ./... && \
		$(GO) vet -vettool=$(CURDIR)/$(BIN) ./... && \
		tmp=$$(mktemp) && \
		printf "%s" "[{\"analyzer\":\"erricheck\",\"file\":\"gone.go\",\"line\":1,\"col\":1,\"message\":\"synthetic stale entry\"}]" > $$tmp && \
		! $(CURDIR)/$(BIN) -baseline $$tmp ./internal/gaddr/ && \
		$(CURDIR)/$(BIN) -prune-baseline $$tmp ./internal/gaddr/ && \
		$(CURDIR)/$(BIN) -baseline $$tmp ./internal/gaddr/ && \
		rm -f $$tmp'

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench-module vets and tests khazbench. bench/ is a module of its own
# (replace khazana => ../), so build, test and race above never compile
# it, yet it calls internal/* APIs a root-module change can break.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-scan runs khazbench's remote_scan for five seconds: a 256-page
# publish the consumer's copies are invalidated by (one InvalidateBatch),
# then sixteen 64 KB grant batches, every page's contents verified. A failed
# or mismatched operation exits non-zero. The times it prints are advisory;
# the target exists so CI drives the batched-invalidate path under content
# verification.
bench-scan:
	bash bench/run.sh --workload remote_scan --seed 1 --seconds 5 --trace 0

# alloc-gates runs the absolute allocation budgets without the race
# detector (which defeats sync.Pool and skips them): the local lock cycle
# (one object), the remote read batch, a remote 16-page read window (95
# objects), grant marshalling, the replicated 8-page write (180 objects),
# the region lifecycle cycle (200 objects), a span in a caller-owned slot
# (0), the uncontended lock table (0), replog compaction (0), Unmarshal
# (the message only), a full hint cache taking a hint (0), the tree-node
# codec (2 objects to decode, 0 to encode) and a RAM-tier Put of a
# non-resident page (0).
# An allocation creeping back fails here, without a benchmark run.
alloc-gates:
	$(GO) test -run 'AllocGate|NoAlloc' -count=1 . ./internal/telemetry ./internal/consistency ./internal/replog ./internal/wire ./internal/cluster ./internal/addrmap ./internal/store

# bench-smoke runs every benchmark for a single iteration so bit-rotted
# benchmark code fails CI instead of lingering until someone profiles.
# -benchmem keeps allocation figures visible in CI logs; the hard
# allocation gate for cached zero-copy reads is TestCachedReadAllocGate.
# The armed E15 gate then fails the leg if telemetry slows the cached
# read path by more than 5% against the telemetry.Nop() baseline, and
# the armed E16 gate fails it if a multi-page release sends more than one
# update RPC per replica. The armed E17 gate fails it if snapshot scans stop scaling
# with reader count (>=1.4x from 1 to 4 readers) or the hot writer loses
# more than 60% of its uncontended rate under 4 snapshot readers. The
# snapshot path's own allocation gate is TestSnapshotViewAllocGate
# (budget: 0 allocs per cached view). The armed E18 gate fails the leg
# if, at full fan-in (4000 concurrent TCP clients at one daemon), the
# daemon holds more than 4 connections or any client sees an error. The
# armed E19 gate fails it if killing a home under a live
# lock/write/unlock workload takes the client more than 2s to resume
# (lease timeout + one election, with margin), loses an acked release,
# or surfaces any client-visible error.
# The armed E20 gate fails it if cold descriptor lookups through the
# consistent-hash ring stop being flat across 16->256-node clusters
# (max/min > 3x), drop below 10x over the tree-walk fallback at 256
# nodes, fall back to the walk in steady state, or cannot resolve a
# region after every bucket owner crashes.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...
	KHAZANA_E15_GATE=1 $(GO) test -run TestE15TelemetryOverheadGate -count=1 -v ./internal/experiments/
	KHAZANA_E16_GATE=1 $(GO) test -run TestE16WriteThroughGate -count=1 -v ./internal/experiments/
	KHAZANA_E17_GATE=1 $(GO) test -run TestE17SnapshotScanGate -count=1 -v ./internal/experiments/
	KHAZANA_E18_GATE=1 $(GO) test -run TestE18FanInGate -count=1 -v ./internal/experiments/
	KHAZANA_E19_GATE=1 $(GO) test -run TestE19FailoverGate -count=1 -v ./internal/experiments/
	KHAZANA_E20_GATE=1 $(GO) test -run TestE20RingLookupGate -count=1 -v ./internal/experiments/

# telemetry-smoke boots a real khazanad with the HTTP debug listener and
# curls the export surface: /metrics must serve Prometheus text and JSON,
# /traces must serve the span ring.
telemetry-smoke:
	@set -e; \
	dir=$$(mktemp -d); \
	$(GO) build -o $$dir/khazanad ./cmd/khazanad; \
	$$dir/khazanad -id 1 -listen 127.0.0.1:17450 -store $$dir/store \
		-genesis -debug-addr 127.0.0.1:17460 & \
	pid=$$!; \
	trap "kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -rf $$dir" EXIT; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:17460/metrics >/dev/null 2>&1 && break; \
		sleep 0.1; \
	done; \
	curl -fsS http://127.0.0.1:17460/metrics | grep -q '^# TYPE khazana_'; \
	curl -fsS 'http://127.0.0.1:17460/metrics?format=json' | grep -q '"counters"'; \
	curl -fsS http://127.0.0.1:17460/traces >/dev/null; \
	echo "telemetry-smoke: OK"

$(BIN): FORCE
	$(GO) build -o $(BIN) ./cmd/khazlint

.PHONY: FORCE
FORCE:

clean:
	rm -rf bin
