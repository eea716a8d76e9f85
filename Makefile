GO ?= go

.PHONY: all build test race vet lint lint-selftest fmt-check bench-module bench-scan alloc-gates bench-smoke fuzz-smoke profile-scan defects repl-stress telemetry-smoke clean

all: build lint test bench-module

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# lint runs khazlint over the whole program: every package at once, so the
# whole-program passes see every call. Any finding fails it; a deliberate
# exception is a //khazana:<directive> <reason> comment at its site.
lint:
	$(GO) run ./cmd/khazlint ./...

# lint-selftest exercises the lint suite itself: its unit tests (the
# command's exit-status contract among them) plus one whole-program run
# over the repo, the whole leg under a 30-second budget so the
# whole-program passes (call graph + summaries) cannot quietly become too
# slow to keep in CI.
lint-selftest:
	timeout 30 sh -c '\
		$(GO) test -count=1 ./internal/lint/... ./cmd/khazlint/ && \
		$(GO) run ./cmd/khazlint ./...'

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

# alloc-gates runs the absolute object and byte budgets without the race
# detector (which defeats sync.Pool and skips them): the local lock cycle
# (one object), the remote read batch, a remote 16-page read window (38
# objects), grant marshalling, the replicated 8-page write (56 objects),
# the region lifecycle cycle (180 objects and 10 KB), a span in a
# caller-owned slot (0), the uncontended lock table (0), replog compaction
# (0), Unmarshal (the message only, traced or not), a full region
# directory taking a new descriptor (the clone only), the tree-node codec (0 to decode or encode), map
# operations on a 79-entry root (no node copy: at most 2 objects per
# mutated page), a RAM-tier Put of a non-resident page (0), a copyset
# revoked and re-added (0), a 16-page region's page table on first touch
# (3 objects, 400 B; one object per further page) and a loopback mux round
# trip (3 objects, the messages only). An allocation creeping back fails here, without a
# benchmark run.
alloc-gates:
	$(GO) test -run 'AllocGate|NoAlloc' -count=1 . ./internal/telemetry ./internal/consistency ./internal/replog ./internal/wire ./internal/region ./internal/addrmap ./internal/store ./internal/pagedir ./internal/transport

# bench-smoke runs every benchmark for a single iteration so bit-rotted
# benchmark code fails CI instead of lingering until someone profiles.
# -benchmem keeps allocation figures visible in CI logs.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem ./...

# fuzz-smoke runs every fuzzer of internal/wire and internal/transport
# (the mux frame layouts) for 3 s, one at a time (go test fuzzes a single
# target per run), so a codec or framing change that breaks a layout pin
# or a round trip fails CI without a long fuzzing campaign. A failing
# input lands in the package's testdata/fuzz for the fix to keep.
FUZZ_PKGS := ./internal/wire ./internal/transport
fuzz-smoke:
	@set -e; for p in $(FUZZ_PKGS); do \
		for f in $$($(GO) test -list '^Fuzz' $$p | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$p $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime 3s -parallel 2 $$p; \
		done; \
	done

# profile-scan profiles BenchmarkRemoteScanCycle (remote_scan's cycle on
# two inproc nodes at zero latency) and prints the top CPU entries, so the
# per-page CPU profile reproduces without bench/ or a write under /proc.
profile-scan:
	@set -e; dir=$$(mktemp -d); trap "rm -rf $$dir" EXIT; \
	$(GO) test -run=NONE -bench=BenchmarkRemoteScanCycle -benchtime=5s -count=1 \
		-cpuprofile $$dir/cpu.out -o $$dir/khazana.test . ; \
	$(GO) tool pprof -top -nodecount=30 $$dir/khazana.test $$dir/cpu.out

# defects runs the known-defect tests (build tag defects). Each asserts
# the correct behaviour, so each fails until its fix lands; the target
# prints a line per test and is not a CI gate.
DEFECTS := TestTCPTimedOutRequesterLeavesNoHold TestReserveSurvivesMapHomeCrash TestUnreserveWithMapHomeDown TestMinReplicasMetWithoutHeartbeats
defects:
	@$(GO) test -tags defects -count=1 -v -run '^($(subst $() ,|,$(DEFECTS)))$$' ./... 2>&1 | \
		grep -E '^\s*(--- (PASS|FAIL)|\S+_test\.go:[0-9]+:)' || true

# repl-stress runs the replication, failover and catch-up tests twenty
# times under the race detector: a release returns at a majority while its
# other sends, catch-ups and copyset updates run on, so their interleavings
# vary from run to run. The one-way release tests join them: a clean
# release may land after its sender's next request. So do the mux and TCP
# transport tests: which sender's goroutine writes which frame varies. And
# the ring, teardown, stalled-peer and region lifecycle tests: a ring
# announce runs its owner's handler on the caller's goroutine, beside
# whatever else that owner is doing. And the eventual-protocol tests:
# gossip rounds and updates parked during a write hold interleave with
# the writers' releases from run to run.
repl-stress:
	$(GO) test -race -count=20 -run 'Repl|Failover|Append|Promot|Election|CatchUp|Majority|Follower|OneWay|Mux|TCP|Ring|Unreserve|Stalled|Lifecycle|Eventual' ./internal/replog ./internal/consistency ./internal/core ./internal/transport

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

clean:
	rm -rf bin
