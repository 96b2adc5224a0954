GO ?= go

# Minimum total statement coverage `make cover` accepts. Measured 76.1%
# after the fleet runner became one placement runner; the baseline is that
# total rounded down, minus 2 points, so honest refactors don't trip it
# while real coverage regressions do.
COVER_BASELINE ?= 74.0

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
# the tree evaluator kept in ir's tests (value or panic) on any expression
# tree and environment, wide constants, /0, %0 and unbound names included.
# A halo's clipped move, after the zero-fill it asks for, must leave its
# frame holding the zero-padded tensor's region, or be a legal stand-in
# where the region lies wholly outside (lower.Span.Clip).
fuzz:
	$(GO) test ./internal/cache -run '^$$' -fuzz FuzzLibraryLoad -fuzztime 10s
	$(GO) test ./internal/obsrv -run '^$$' -fuzz FuzzEventEncoder -fuzztime 10s
	$(GO) test ./internal/search -run '^$$' -fuzz FuzzFeatureVector -fuzztime 10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz FuzzFlattenEach -fuzztime 10s
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzBoundEval -fuzztime 10s
	$(GO) test ./internal/lower -run '^$$' -fuzz FuzzClip -fuzztime 10s

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
# issues, and a steady-state EstimateProgram stays within the measured
# 3 allocations / 624 B (the scorer and the program's descriptors in two
# arrays); Features allocates its vector and
# nothing else, at every golden point; a bind on released arenas, and its
# walk, allocate nothing, and on fresh arenas a bind's bytes follow the
# statement count and never the trip counts; issue+wait on a warmed reply word
# allocates nothing; a second warm network run on one engine re-times no
# (operator, strategy) the first one timed — same Result bit for bit, the
# engine's memo unchanged, not one fresh-machine simulation — and, having
# read each (shape, method) entry once (one cache hit each) and compiled
# only each shape's winner, stays within its measured allocation count, on
# one machine and as a warm 4-group data-parallel run of the same net
# (TestWarmRunAllocBudget's dp-b8-g4 case);
# compiling a candidate (lower, InjectPrefetch, InferDMA; an explicit or
# Winograd candidate on a warm operator, which compiled its strategy-
# independent phases once) stays within the allocation count measured at
# four double-buffered golden points once the prefetch pass and the nest
# builder took their nodes from exactly sized per-loop and per-nest
# arrays, and within the bytes those compiles allocated before: a slab may
# not trade allocation count for bytes; so do the padded twins of the
# implicit and Winograd points, which read their input through a halo; a
# warm run's timeline is sized once (cap == len) and its bytes stay within the
# measured cap now that a machine keeps its SPM storage across kernels, and
# neither a tuning session nor a network run leaves 1 MiB or more on the
# heap after two collections (no process-wide cache or pool of machines).
alloc-check:
	$(GO) test -run 'TestStreamAllocsPerPoint' -count=1 ./internal/schedule
	$(GO) test -run 'TestCompileAllocBudget|TestPaddedCompileAllocBudget' -count=1 ./internal/core
	$(GO) test -run 'TestFlattenMultiOneAlloc' -count=1 ./internal/tensor
	$(GO) test -run 'TestEstimateAllocBudget' -count=1 ./internal/costmodel
	$(GO) test -run 'TestFeaturesAllocBudget' -count=1 ./internal/search
	$(GO) test -run 'TestBindAllocBudget' -count=1 ./internal/ir
	$(GO) test -run 'TestTimedDMAAllocBudget' -count=1 ./internal/exec
	$(GO) test -run 'TestIssueWaitSteadyStateNoAlloc' -count=1 ./internal/sw26010
	$(GO) test -run 'TestSessionLeavesNoHeap' -count=1 ./internal/autotune
	$(GO) test -run 'TestWarmRunRetimesNothing|TestWarmRunAllocBudget|TestTimelineRecordedOnce|TestRunLeavesNoHeap' -count=1 ./internal/infer

# The tier-1 loop: what every change must keep green.
ci: build vet unreachable fmt test race fuzz shuffle cover chaos search-check trace-check obs-check alloc-check bench-check loc-check

# Non-test Go lines per package directory and in total, outside benchmark/:
# the number ROADMAP item 7's "net-negative lines" target is read from.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1; total += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }'

# The tree may not grow by accident: `make loc`'s total must stay at or
# under LOC_MAX. A change that needs more lines raises LOC_MAX in the same
# commit, one line a reviewer sees next to the reason; a change that
# removes lines lowers it. 22 845: +86 for the SPM storage a machine keeps
# across kernels and runs (spare stores in sw26010, Machine.Reset, an
# autotune session's machines), +32 for the walker a run keeps with its
# machine instead of in ir's pool (Machine.Interp, (*ir.Walker).Bind).
# 22 804: -41 once every fleet placement ran in one pass on one clock
# (runSteps, one SchedulePipeline), the facade reported infer's fleet
# records as aliases instead of copies, Counters.PublishPrefixed and the
# unread PipelineSchedule.BusySeconds went, and swserve checked its trace
# flags (+13).
# 22 893: +89 for the packed Winograd form a network runs, its filters
# transformed once per weight (the per-call switch, the host-side
# transform, the per-node U the runtime binds, the packed library name and
# NewPerCallOp for the callers that time one call).
# 22 896: +3 for the resnet-b1 and yolo-b1 rows of the snapshot (one loop
# over the three networks at batch 1).
# 22 893: -3 once the unread Plan.ParamBytes went.
# 23 215: +322 for the fused Winograd nest a network runs (the nest builder
# with its region coalescing and its own space, the slab kernels over
# several rows of tiles, lower's Plan.Gemm for the per-plane GEMM, exec's
# reused GEMM trace label).
# 23 212: -3 once the fused region was sized at the largest tiles without
# a loop.
# 23 214: +2 for the reason beside exec's reused GEMM trace label.
# 23 430: +216 for the ReLU epilogue every conv and fc runs in place of the
# relu node (the flag in ConvShape, gemm.Params and the seed, ir.ReLU and
# its kernel, the clamp in BuildNest and the fused Winograd nest, the
# baseline's unfused stub) net of the stub and its fleet paths; the views
# through which an operator reads another's output now that no stub sits
# between them, with the relayout that copies a view whose form differs;
# and the engine's memo of conv methods with no valid schedule.
# 23 438: +8 for sizing a fleet run's merged timeline once: the epilogue's
# events took every group's conv-head log past an append-growth step.
# 23 857: +419 for the halo through which a padded conv reads its unpadded
# input (lower's clip rule and the plan's spans; the clipped moves, zero-
# fills and GEMM guards of the implicit nest, the explicit im2col and the
# fused Winograd slab; the per-seed and per-operator caches of the clipped
# regions and ir.Memo, which keep a candidate's compile within tune-cold's
# allocation bound; Pad in ConvShape, its names and references) and for
# sizing each task's timeline from the event counts the engine remembers,
# net of the pad node, its stub and its graph check.
# 23 876: +19 for applying +, −, × and min, and reading a bound variable, in
# line in the bound evaluator: the halo's clipped moves, evaluated at every
# scored and simulated iteration, had made search-evo's wall time +24.8 %.
# 23 925: +49 for the strips of one row that tile P where one row of tiles
# overflows the fused Winograd region (VGG16's conv1 and conv2 at batch 8):
# the p tile's decoding, the strip loop's row and column, the strip menu
# and its 8-channel fallback where no strip applies, the column clip at a
# row's edges, and the halo cache keyed by p tile.
LOC_MAX ?= 23925
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
#
# Moving a gated number on purpose (ROADMAP items 8, 9, 13 and 17 reuse
# this; item 19 (a) set it):
#   1. The code change is one commit, with its tests and any lowered
#      allocation caps.
#   2. Each golden or fingerprint file it moves is regenerated in a commit
#      of its own that changes nothing else: through the test's
#      -update-golden / -update-fingerprint flag where it has one,
#      otherwise by replacing exactly the lines the failing test prints. A
#      file with a header names the moved entries there and why they moved.
#      Every golden the change does not explain stays bit-identical.
#   3. `make bench-snapshot` on the final code, committed alone. Compare
#      each row's machine_seconds with the previous file: only the rows the
#      change explains may move. `make bench-check` then reads +0.00 %.
#   4. CHANGES.md lists each moved row old -> new and each layer's delta
#      with its cause; the claim is also run as `make bench-ab` pairs.
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
