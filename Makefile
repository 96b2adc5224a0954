GO ?= go

# Minimum total statement coverage `make cover` accepts. Measured 71.5%
# after the observability subsystem landed; the baseline sits a few
# points below so honest refactors don't trip it while real coverage
# regressions do.
COVER_BASELINE ?= 69.0

.PHONY: all build vet unreachable fmt test race fuzz shuffle cover chaos ci \
	search-check trace-check obs-check alloc-check bench bench-snapshot \
	bench-check bench-diff bench-e2e bench-ab loc loc-check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Dedicated unreachable-code pass: recover()-based panic isolation makes it
# easy to leave dead branches behind.
unreachable:
	$(GO) vet -unreachable ./...

# Fails when any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz smoke: the schedule-library loader must quarantine arbitrary corrupt
# input, the event encoder must emit valid JSON/SSE frames for any input,
# and the search feature extractor must return a fixed-length finite vector
# for any candidate — none may ever crash. The flattening visitor must
# agree with its reference (descriptors, order, exact pre-sizing) on any
# rank ≤ 5 tensor, layout and in-bounds region, and the bound evaluator with
# Expr.Eval (value or panic) on any expression tree and environment.
fuzz:
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzLibraryLoad -fuzztime 10s
	$(GO) test ./internal/obsrv -run '^$$' -fuzz FuzzEventEncoder -fuzztime 10s
	$(GO) test ./internal/search -run '^$$' -fuzz FuzzFeatureVector -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzFlattenEach -fuzztime 10s
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzBoundEval -fuzztime 10s

# Order-independence: tests must pass in any execution order (catches
# hidden coupling through shared caches, libraries or package state).
shuffle:
	$(GO) test -shuffle=on -count=1 ./...

# Chaos smoke: the serving path under fault injection (half of all tuning
# measurements fail, compute periodically stalls, then DMA transfers fail)
# with the race detector on. Measurement faults must yield only 200/429/408
# — degraded, shed or expired, never crashed; DMA faults during execution
# may fail batches with 500 but the daemon must answer every request,
# recover once the faults clear, and still drain cleanly afterwards.
chaos:
	$(GO) test -race -run TestChaos -count=1 ./internal/serve/...

# Coverage gate: total statement coverage must stay at or above
# COVER_BASELINE. Writes cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...
	@total="$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% fell below baseline $(COVER_BASELINE)%"; exit 1; }

# Sample-efficient-search quality gate: the evolutionary searcher at a 10%
# measurement budget must stay within 5% of the exhaustive walk's schedule
# on every unique VGG16 conv shape (and within 10% aggregate coverage).
search-check:
	$(GO) run ./cmd/swbench -search-check

# Tracing acceptance: the 2000-request load run with tracing and SLO
# guardrails attached (phase sums match latency, /tracez serves complete
# span trees, a forced breach captures the flight dump), plus the
# invariant that tracing leaves simulated machine seconds
# bit-identical to a tracing-disabled server.
trace-check:
	$(GO) test -run 'TestTraceMachineSecondsInvariant|TestTraceAcceptanceLoad' -count=1 -v ./internal/serve/...

# Telemetry acceptance: the history scraper storming the registry leaves
# selected schedules and every deterministic metric bit-identical to a
# history-disabled run, scrape-while-write is race-clean, every number /varz
# derives from a scraped registry matches testdata/varz_fingerprint.json bit
# for bit, and bench-diff on identical snapshots attributes to zero
# everywhere.
obs-check:
	$(GO) test -race -run 'TestHistoryMachineSecondsInvariant|TestConcurrentScrapeWhileWrite|TestConcurrentRegistrySnapshot|TestVarzFingerprint' -count=1 -v ./internal/tshist/
	$(GO) test -run 'TestAttributeIdenticalZero' -count=1 -v ./internal/bench/
	$(GO) run ./cmd/swbench -bench-diff BENCH_baseline.json BENCH_baseline.json

# Allocation budgets of candidate scoring and timed execution: a streamed
# schedule point allocates its two maps and nothing that grows with the
# digit count; FlattenMulti allocates its result slice and nothing else, the
# visitor nothing;
# EstimateProgram's and a timed exec run's allocations (count and bytes) do
# not grow with the DMA descriptor count, nor a run's with the transfers it
# issues; binding a program is eight arenas whose bytes follow the statement
# count and never the trip counts; issue+wait on a warmed reply word
# allocates nothing; a second warm network run on one engine re-times no
# (operator, strategy) the first one timed — same Result bit for bit, the
# engine's memo unchanged, at most 0.65 of the first run's bytes.
alloc-check:
	$(GO) test -run 'TestStreamAllocsPerPoint' -count=1 ./internal/schedule
	$(GO) test -run 'TestFlattenMultiOneAlloc' -count=1 ./internal/tensor
	$(GO) test -run 'TestEstimateAllocBudget' -count=1 ./internal/costmodel
	$(GO) test -run 'TestTimedDMAAllocBudget|TestBindAllocBudget' -count=1 ./internal/exec
	$(GO) test -run 'TestIssueWaitSteadyStateNoAlloc' -count=1 ./internal/sw26010
	$(GO) test -run 'TestWarmRunRetimesNothing' -count=1 ./internal/infer

# The tier-1 loop: what every change must keep green.
ci: build vet unreachable fmt test race fuzz shuffle cover chaos search-check trace-check obs-check alloc-check bench-check loc-check

# Non-test Go lines per package directory and in total, outside benchmark/:
# the number ROADMAP item 5's "net-negative lines" target is read from.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; total += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'

# The tree may not grow by accident: `make loc`'s total must stay at or
# under LOC_MAX. A change that needs more lines raises LOC_MAX in the same
# commit, one line a reviewer sees next to the reason; a change that
# removes lines lowers it.
LOC_MAX ?= 23008
loc-check:
	@total="$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }')"; \
	echo "non-test lines: $$total (LOC_MAX $(LOC_MAX))"; \
	[ "$$total" -le "$(LOC_MAX)" ] || \
		{ echo "make loc total $$total exceeds LOC_MAX $(LOC_MAX): delete code or raise LOC_MAX with the reason"; exit 1; }

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Performance trajectory: BENCH_baseline.json records the canonical
# workloads' machine seconds at the last accepted baseline.
# bench-snapshot refreshes it (commit the diff deliberately);
# bench-check fails when the current tree tunes worse than the baseline.
bench-snapshot:
	$(GO) run ./cmd/swbench -bench-out BENCH_baseline.json

bench-check:
	$(GO) run ./cmd/swbench -bench-against BENCH_baseline.json

# One end-to-end run of one benchmark workload, as BENCHMARK.json's command
# runs it (last stdout line is the JSON result):
#   make bench-e2e W=tune-cold SEED=3
W ?= tune-cold
SEED ?= 1
bench-e2e:
	bash benchmark/run.sh --workload $(W) --seed $(SEED) --seconds 10 --trace 0

# The same run as an A/B against a parent commit, N alternating pairs:
#   make bench-ab PARENT=5c73472 W=blackbox-conv N=10
# prints both sides' median and quartiles of every end-to-end metric, pairs
# won, failed operations and the driver's spread rule (scripts/bench-ab.sh;
# clones and copies under /root/scratch, or $$SCRATCH).
N ?= 10
bench-ab:
	bash scripts/bench-ab.sh $(PARENT) $(W) $(N)

# Differential attribution between two snapshot files:
#   make bench-diff OLD=old.json NEW=new.json
# explains each machine-seconds delta per workload -> phase (exec/comm) ->
# layer, naming schedule changes. Defaults compare the committed baseline
# against itself (zero everywhere).
OLD ?= BENCH_baseline.json
NEW ?= BENCH_baseline.json
bench-diff:
	$(GO) run ./cmd/swbench -bench-diff $(OLD) $(NEW)
