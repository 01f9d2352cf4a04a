GO ?= go

.PHONY: all build vet test race check cover nogob onecarrier oneroute onepark onechaos audit stress overload crash overhead benchall

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# cover enforces a statement-coverage floor on the observability, wire
# codec, transport framing, fault-injection, and history-checking layers —
# the packages whose regressions (an unparseable /metrics line, a byte moved
# in the frozen wire format, a checker that stops finding cycles) otherwise
# slip through unexercised.
COVER_PKGS = ./internal/obs ./internal/wire ./internal/faults ./internal/check ./internal/audit ./internal/transport ./internal/wal ./internal/resilience
COVER_MIN  = 70
cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min=$(COVER_MIN) 'BEGIN { exit (t+0 < min) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(COVER_MIN)%"; exit 1; }

# nogob keeps the TCP transport at one wire format: encoding/gob may appear in
# tests (as the codec's independent oracle), but nothing that ships — any
# package under internal/ or cmd/ — may import it. go list's .Imports leaves
# test-only imports out.
NOGOB_PKGS = ./internal/... ./cmd/...
nogob:
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' $(NOGOB_PKGS) | grep -w 'encoding/gob' | cut -d: -f1); \
	if [ -n "$$bad" ]; then echo "nogob: encoding/gob imported outside tests by:"; echo "$$bad"; exit 1; fi; \
	echo "nogob: ok"

# onecarrier keeps the request record (internal/obs/req.go) the only value
# shipped code puts in a context.Context: context.WithValue may appear in
# tests and in that one file, nowhere else under internal/ or cmd/ — so a
# second per-request carrier cannot grow back unnoticed.
onecarrier:
	@bad=$$(grep -rl --include='*.go' 'context\.WithValue' internal cmd | grep -v '_test\.go$$' | grep -vx 'internal/obs/req.go'); \
	if [ -n "$$bad" ]; then echo "onecarrier: context.WithValue outside internal/obs/req.go in:"; echo "$$bad"; exit 1; fi; \
	echo "onecarrier: ok"

# oneroute keeps the request-class decision in semel's route table: no
# package that ships under internal/resilience may import repro/internal/wire
# (which it would need to classify requests itself), so admission control
# enforces a class the server hands it. go list's .Imports leaves test-only
# imports out.
ONEROUTE_PKGS = ./internal/resilience/...
oneroute:
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' $(ONEROUTE_PKGS) | grep -E ' repro/internal/wire( |$$)' | cut -d: -f1); \
	if [ -n "$$bad" ]; then echo "oneroute: repro/internal/wire imported outside tests by:"; echo "$$bad"; exit 1; fi; \
	echo "oneroute: ok"

# onepark keeps milana.Manager the only code that waits on a prepared mark:
# DecisionWait, the bound every such wait shares, may appear in tests and
# under internal/milana, in no other Go file that ships — so a second park
# cannot grow back in semel unnoticed.
onepark:
	@bad=$$(grep -rlw --include='*.go' 'DecisionWait' internal cmd | grep -v '_test\.go$$' | grep -v '^internal/milana/'); \
	if [ -n "$$bad" ]; then echo "onepark: DecisionWait outside internal/milana in:"; echo "$$bad"; exit 1; fi; \
	echo "onepark: ok"

# onechaos keeps one chaos driver in internal/core: faults.NewChaos may
# appear in chaos_test.go, whose runBankChaos every seeded bank-transfer gate
# runs, and in no other test file of the package — so a copied chaos round
# cannot grow back unnoticed.
onechaos:
	@bad=$$(grep -rlF --include='*_test.go' 'faults.NewChaos(' internal/core | grep -vx 'internal/core/chaos_test.go'); \
	if [ -n "$$bad" ]; then echo "onechaos: faults.NewChaos outside internal/core/chaos_test.go in:"; echo "$$bad"; exit 1; fi; \
	echo "onechaos: ok"

# audit runs the online-audit gate under the race detector: chaos runs with
# the streaming auditor attached must stay silent (zero convictions, zero
# ε violations), a mutated cluster must be convicted online, the streaming
# verdict must match the offline checker across the seed sweep, and cluster
# teardown must not leak a single goroutine (flusher, batcher, tickers).
audit:
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_ROUNDS=$(CHAOS_ROUNDS) \
		$(GO) test -race -timeout 30m -run 'TestAudit' -v ./internal/core/ ./internal/audit/

# check is the PR verify gate: everything must build, vet clean, pass the
# full test suite under the race detector (which includes a small
# 2-seed × 3-profile chaos sweep via TestStressChaosSweep and the online
# audit suite), hold the coverage floor, survive the crash/durability gate,
# keep encoding/gob out of everything that ships, keep the request record
# the only context value, keep request classes out of internal/resilience,
# keep the wait on a prepared mark inside internal/milana, and keep one
# chaos driver in internal/core's tests.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) nogob
	$(MAKE) onecarrier
	$(MAKE) oneroute
	$(MAKE) onepark
	$(MAKE) onechaos
	$(GO) test -race ./...
	$(MAKE) cover
	$(MAKE) crash

# stress is the seeded chaos sweep: CHAOS_ROUNDS seeds (starting at
# CHAOS_SEED) × {NTP, PTP-HW, DTP} clock profiles, each run under the race
# detector with fault injection (drops, duplicates, delays, partitions,
# crashes, clock steps) and the serializability checker on the recorded
# history. A failing seed prints its replay command and chaos schedule;
# replay with CHAOS_SEED=<seed> CHAOS_ROUNDS=1 make stress.
CHAOS_SEED   ?= 1
CHAOS_ROUNDS ?= 20
stress:
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_ROUNDS=$(CHAOS_ROUNDS) \
		$(GO) test -race -timeout 30m -run 'TestStress|TestAudit|TestResilienceChaosAudit' -v ./internal/core/
	$(MAKE) overload

# overload is the graceful-degradation gate: a 4× open-loop overload against
# a cluster with one deliberately degraded replica must keep goodput at or
# above 70% of the pre-overload baseline, with admission control shedding
# reads before prepares and never shedding control traffic, and the circuit
# breakers must close again once the overload stops.
overload:
	OVERLOAD_GATE=1 $(GO) test -race -timeout 10m -count=1 \
		-run 'TestOverloadGoodputCurve|TestBreakerRecovery' -v ./internal/core/

# crash is the durability gate: the whole internal/wal suite under -race —
# crash-point sweeps at every byte boundary, torn tails, flipped bits, and
# the FuzzWALReplay seed corpus — then the cold-restart harness
# (whole-shard amnesia kill, zero lost acked writes), the restart of a
# primary whose prepare lost its backup quorum after reaching its own log
# (the abort it logged must survive), the promotion of a backup restarted
# while it held an in-doubt prepare (the key must stay writable), the
# fsync-skip mutation conviction, and a small kill-enabled chaos sweep that
# amnesia-kills and recovers every replica while the serializability
# checker and the lost-ack oracle watch.
crash:
	$(GO) test -race ./internal/wal/
	CHAOS_SEED=$(CHAOS_SEED) CHAOS_ROUNDS=2 \
		$(GO) test -race -timeout 30m -run 'TestDurabilityColdRestart|TestDurabilityQuorumLostPrepareAborts|TestDurabilityPromotedBackupLearnsDecision|TestStressWALFsyncMutationConvicted|TestReplicateDataDupAfterRecoveryIdempotent|TestStressKillChaos' -v ./internal/core/

# overhead runs the three wall-clock overhead gates: the per-txn stage ledger
# plus a live tsdb sampler must cost < 3% of bus transaction throughput
# versus a fully disabled cluster, the WAL's log-before-ack path must keep at
# least 20% of the WAL-off transaction throughput, and the idle resilience
# layer (admission + breakers + retry budget) must account to < 2%
# of a bus transaction. The repository benchmark (bash benchmark/run.sh, see
# BENCHMARK.json) is the instrument for end-to-end performance.
overhead:
	OBS_OVERHEAD_GATE=1 $(GO) test -count=1 -run TestStageOverheadGate -v ./internal/core/
	WAL_OVERHEAD_GATE=1 $(GO) test -count=1 -run TestWALOverheadGate -v ./internal/core/
	RESILIENCE_OVERHEAD_GATE=1 $(GO) test -count=1 -run TestResilienceOverheadGate -v ./internal/core/

# benchall runs every go test benchmark (paper tables/figures + micro).
benchall:
	$(GO) test -bench=. -benchmem
