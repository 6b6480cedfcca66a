GO ?= go
ECAVET := bin/ecavet

.PHONY: check fmt vet lint lint-fix-check waivers build test race differential cep-differential crash-suite cluster-chaos fuzz bench-e2e bench-e2e-compare metrics-smoke

# The full pre-merge gate: static checks (including the ecavet invariant
# suite and the waiver-count ratchet), a clean build, the entire test
# suite under the race detector, an explicit pass over the LED's golden
# operator-stream suite, the crash-recovery differential matrix,
# and the cluster failover chaos suite (all under -race). The TestAllocs*
# guards inside `race` hold the signal and decode hot paths to their
# allocation budgets; wall-clock cost is judged by bench-e2e's paired runs.
check: fmt vet lint lint-fix-check build race differential cep-differential crash-suite cluster-chaos

# gofmt -l prints nonconforming files; any output fails the gate. The
# second check is waiver hygiene: every //ecavet:allow needs an analyzer
# name AND a reason, and `make fmt` rejects reasonless ones before the
# analyzers even run (fixtures under testdata exercise malformed waivers
# on purpose and are excluded). The third check rejects a same-name copy
# such as `x := x` or `a, b := a, b`: since go 1.22 each loop iteration
# has its own variables, so the copy is dead, and it can shadow a counter
# the loop means to advance.
fmt:
	@out=$$(gofmt -l . | grep -v testdata); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@copies=$$(grep -rnE --include='*.go' '^\s*(\w+) := \1\s*$$|^\s*(\w+), (\w+) := \2, \3\s*$$|^\s*(\w+), (\w+), (\w+) := \4, \5, \6\s*$$' . | grep -v testdata); \
	if [ -n "$$copies" ]; then \
		echo "dead same-name copies (each loop iteration has its own variables since go 1.22):"; echo "$$copies"; exit 1; fi
	@bad=$$(grep -rn --include='*.go' --exclude='*_test.go' -E '//ecavet:allow[[:space:]]*([[:alnum:]_]+[[:space:]]*)?$$' . | grep -v testdata); \
	if [ -n "$$bad" ]; then \
		echo "ecavet waivers need a reason (//ecavet:allow <analyzer> <reason>):"; echo "$$bad"; exit 1; fi

vet:
	$(GO) vet ./...

# The ecavet invariant suite (internal/analysis, DESIGN.md §9) run through
# go vet's -vettool protocol: per-package caching, exact export data, and
# findings formatted like any other vet diagnostic. Output tees to
# ecavet.log — CI ships the full diagnostic listing as an artifact when
# the gate goes red — while preserving go vet's exit status.
lint: $(ECAVET)
	@rm -f lint.exit; \
	( $(GO) vet -vettool=$(ECAVET) ./... 2>&1; echo $$? > lint.exit ) | tee ecavet.log; \
	status=$$(cat lint.exit); rm -f lint.exit; exit $$status

# The waiver ratchet (DESIGN.md §9): .ecavet-waivers is the committed
# audit listing (file:line, analyzer, reason — refresh with `make
# waivers`). Only the COUNT is enforced, so unrelated line drift never
# fails the gate: lint-fix-check fails when the live waiver count grows
# past the baseline without CHANGES.md declaring the new total as
# "waivers: N" — silent waiver creep is an escape hatch from every
# invariant the suite checks.
waivers: $(ECAVET)
	@./$(ECAVET) -waivers ./... | sed 's|^$(CURDIR)/||' > .ecavet-waivers
	@echo "waivers: $$(wc -l < .ecavet-waivers)"

lint-fix-check: $(ECAVET)
	@base=$$(wc -l < .ecavet-waivers); \
	cur=$$(./$(ECAVET) -waivers ./... | wc -l); \
	echo "waivers: $$cur (baseline $$base)"; \
	if [ "$$cur" -gt "$$base" ]; then \
		if ! grep -q "waivers: $$cur" CHANGES.md; then \
			echo "waiver count grew $$base -> $$cur without a 'waivers: $$cur' entry in CHANGES.md"; \
			echo "justify the new waivers there, then refresh the baseline: make waivers"; \
			exit 1; \
		fi; \
	fi

$(ECAVET): FORCE
	@mkdir -p bin
	$(GO) build -o $(ECAVET) ./cmd/ecavet

.PHONY: FORCE
FORCE:

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The operator x context x coupling stream proof for the LED: every Snoop
# operator's occurrence streams, signalled serially and with the rule-set
# copies signalled concurrently, against the committed golden file, plus
# the concurrent-signal stress under rule add/drop churn and the detector
# tests that define events around live state; then the engine's
# index-vs-scan differential (seeded random joins answered by hash-index
# probes and by the nested loop must return identical result sets, row
# order included, across every mutation an index survives); and the
# engine's plan-cache differential (seeded batch streams through a warm
# session's cached plans and through a fresh parse per batch must return
# identical results, errors and tables), under -race.
differential:
	$(GO) test -race -count=1 -run 'TestOperatorStreamsGolden|TestDifferential|TestStressConcurrentSignalsUnderChurn|AcrossDefine|SurvivesDefine|TestDeferredPriorityAcrossRuleSets' ./internal/led
	$(GO) test -race -count=1 -run 'TestIndexScanDifferential|TestPlanCacheDifferential' ./internal/engine

# The CEP oracle-differential proof (DESIGN.md §12): every window,
# aggregate, and interval operator × context × coupling against the
# brute-force reference interpreter in internal/led/oracle,
# plus the randomized window property test, under -race.
cep-differential:
	$(GO) test -race -count=1 -run 'TestCEPDifferential|TestWindowPropertyRandom' ./internal/led

# The crash-recovery equivalence proof (internal/scenario): every Snoop
# and CEP operator under every parameter context (64 cells), each killed
# three times with the agent's seven crash points dealt out in turn,
# restarted over the surviving files, and required to reproduce the
# crash-free oracle's occurrence set and action multiset; plus the
# due-timer recovery regression cell. The drain/DLQ/watermark restart
# satellites ride along, all under -race.
crash-suite:
	$(GO) test -race -count=1 -run 'TestCrashDifferential|TestRecoveryFiresDueTimers|TestDLQPersistsAcrossRestart|TestWatermarkSeededBeforeDeliver|TestCloseDrainDeadlineWedged|TestRecoveryMetricsExposed|TestWALDecodeDamage|TestCheckpointDecodeDamage|TestCheckpointRoundTrip' ./internal/agent

# The cluster failover proof (DESIGN.md §10, internal/scenario): the hot
# pair killed at the agent's seven durability crash points plus the four
# mid-replication windows, the promoted standby required to reproduce the
# crash-free oracle's occurrence set and action multiset for every
# operator x context (64 cells), with promotion latency asserted on a
# deterministic clock; the same pair in sync mode killed once at each of
# the 11 points with RPO=0 asserted on the raw replica, and the SQL-lease
# zombie cell; zombie fencing under
# a faults.Pipe partition and the replication frame/shipper/applier tests
# ride along. The hard -timeout turns a wedged promotion into a loud
# failure instead of a hung gate. Output tees to cluster-chaos.log (CI uploads it on failure), and
# CHAOS_SEED=<n> offsets every cell's deterministic seed — failures print
# the seed to replay with.
cluster-chaos:
	@rm -f cluster-chaos.exit; \
	( CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -timeout 300s ./internal/cluster 2>&1; \
	  echo $$? > cluster-chaos.exit ) | tee cluster-chaos.log; \
	status=$$(cat cluster-chaos.exit); rm -f cluster-chaos.exit; \
	if [ "$$status" != 0 ] && [ -n "$(CHAOS_SEED)" ]; then \
		echo "cluster-chaos failed under CHAOS_SEED=$(CHAOS_SEED)"; fi; \
	exit $$status

# Short fuzzing passes over the notification decoders, the Snoop parser,
# the checkpoint, journal and catalog snapshot decoders, the replication
# frame decoder and the TDS response reader (seed corpora always run under
# plain `make test`; this explores further).
fuzz:
	$(GO) test -fuzz=FuzzParseNotification -fuzztime=10s ./internal/agent
	$(GO) test -fuzz=FuzzDecodeBatch -fuzztime=10s ./internal/agent
	$(GO) test -fuzz=FuzzBinaryDecode -fuzztime=10s ./internal/agent
	$(GO) test -fuzz=FuzzBinaryCodec -fuzztime=10s ./internal/agent
	$(GO) test -fuzz=FuzzLoadCheckpoint -fuzztime=10s ./internal/agent
	$(GO) test -fuzz=FuzzReplayWAL -fuzztime=10s ./internal/agent
	$(GO) test -fuzz=FuzzLoadCatalog -fuzztime=10s ./internal/catalog
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/snoop
	$(GO) test -fuzz=FuzzDecodeReplFrame -fuzztime=10s ./internal/cluster
	$(GO) test -fuzz=FuzzReadResponse -fuzztime=10s ./internal/tds

# The repo's end-to-end benchmark (bench/, contract in BENCHMARK.json):
# six workloads over the paper's whole loop, each RUNS times untraced and
# once traced, one process per run, written to OUT as a result set. Not
# part of `make check` — a set takes minutes and the host's drift makes a
# single set meaningless; compare two sets (parent and change, runs
# alternated) against the contract's bounds with bench-e2e-compare, which
# exits 1 on a breach: make bench-e2e-compare A=parent.json B=change.json
RUNS ?= 10
OUT ?= bench-e2e.json
bench-e2e:
	bash bench/run.sh -runs $(RUNS) -out $(OUT)

bench-e2e-compare:
	bash bench/run.sh -compare $(A) $(B)

# Live smoke test of the observability surface: stand up sqlserverd and
# ecaagent -http, then require a 200 with a non-empty Prometheus
# exposition from /metrics and a 200 from /healthz.
SMOKE_SERVER := 127.0.0.1:16950
SMOKE_GATEWAY := 127.0.0.1:16951
SMOKE_HTTP := 127.0.0.1:16952

metrics-smoke:
	@tmp=$$(mktemp -d); trap 'kill $$agent_pid $$server_pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/sqlserverd ./cmd/sqlserverd || exit 1; \
	$(GO) build -o $$tmp/ecaagent ./cmd/ecaagent || exit 1; \
	$$tmp/sqlserverd -addr $(SMOKE_SERVER) & server_pid=$$!; \
	sleep 0.3; \
	$$tmp/ecaagent -server $(SMOKE_SERVER) -listen $(SMOKE_GATEWAY) -http $(SMOKE_HTTP) & agent_pid=$$!; \
	sleep 0.5; \
	body=$$(curl -fsS http://$(SMOKE_HTTP)/metrics) || { echo "metrics-smoke: /metrics unreachable"; exit 1; }; \
	[ -n "$$body" ] || { echo "metrics-smoke: /metrics empty"; exit 1; }; \
	echo "$$body" | grep -q '^eca_notifications_received_total' || { echo "metrics-smoke: exposition missing eca counters"; exit 1; }; \
	curl -fsS http://$(SMOKE_HTTP)/healthz >/dev/null || { echo "metrics-smoke: /healthz failed"; exit 1; }; \
	echo "metrics-smoke: OK ($$(echo "$$body" | grep -c '^eca_') eca series)"
