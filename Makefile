GO ?= go

.PHONY: all build test vet race check loc bench-e2e bench-compare bench-pairs perf-gate perf-baseline fmt figures scale-smoke fuzz-smoke vet-corpus repair-smoke arm64-unfused

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the pre-commit gate: everything must build, vet clean, be
# gofmt-clean, and pass the full suite under the race detector, uncached (-count=1) so the
# tests that only mean something there — worker-pool and SM-sharding
# determinism, pipelines shared across goroutines — never ride a cached
# result. The robustness smokes follow: short fuzz sessions on the
# parser, analyzer and pipeline, and the static vetting sweep over the
# corpus and workloads (the seeded differential and schedule campaigns
# are cmd/diffhunt goldens in the suite). perf-gate closes the gate: the
# repo benchmark's digests and allocation metrics against the committed
# run.
check:
	$(GO) build ./...
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(MAKE) arm64-unfused
	$(GO) test -race -count=1 ./...
	$(MAKE) scale-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) vet-corpus
	$(MAKE) repair-smoke
	$(MAKE) perf-gate

# loc is the size simplicity changes quote: per package, the non-test Go
# lines that are neither blank nor a // comment, then all non-test lines,
# then a total row.
#   make loc | grep internal/simt
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' \
		-exec dirname {} \; | sort -u | while read d; do \
		f=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go'); \
		printf '%7d code %7d lines  %s\n' \
			$$(cat $$f | grep -v '^[[:space:]]*$$' | grep -cv '^[[:space:]]*//') \
			$$(cat $$f | wc -l) $$d; \
	done | awk '{print; c += $$1; l += $$3} END {printf "%7d code %7d lines  total\n", c, l}'

# arm64-unfused holds every host to amd64's float arithmetic. Go lets a
# compiler fuse x*y + z into one rounding; arm64's does (FMADDD and kin),
# amd64's never does, so a fused line would move a lane result, an
# estimate or a workload table on an arm64 host. This cross-builds every
# binary for arm64 (offline, the local toolchain) with the compiler's
# own listing of this module's packages — full source paths, so standard
# library code inlined into ours is told apart — and fails naming each
# module line a fused instruction came from. The fix is an explicit
# float64(x*y), Go's spelling of "round here". The build cache replays
# the listing, so a warm run takes a second.
ARM64_OUT = /tmp/specrecon-arm64-unfused
arm64-unfused:
	rm -rf $(ARM64_OUT)
	mkdir -p $(ARM64_OUT)/bin
	GOTOOLCHAIN=local GOARCH=arm64 $(GO) build -gcflags='specrecon/...=-S' \
		-o $(ARM64_OUT)/bin/ ./... 2>$(ARM64_OUT)/asm.txt \
		|| { tail -20 $(ARM64_OUT)/asm.txt; exit 1; }
	@grep -E '\($(CURDIR)/[^)]*\.go:[0-9]+\)[[:space:]]+F(N)?M(ADD|SUB)D[[:space:]]' $(ARM64_OUT)/asm.txt \
		| sed -E 's/.*\(([^)]*)\).*/\1/' | sort -u > $(ARM64_OUT)/fused.txt
	@if [ -s $(ARM64_OUT)/fused.txt ]; then \
		echo "arm64 fuses a multiply into an add at:"; cat $(ARM64_OUT)/fused.txt; \
		rm -rf $(ARM64_OUT); exit 1; fi
	rm -rf $(ARM64_OUT)

# fuzz-smoke gives each fuzz target a short budget on top of the checked-in
# seed corpus: enough to catch shallow parser/pipeline regressions without
# holding up the gate. FuzzMulSoft holds the simulator's integer multiply
# to the host's, bit for bit.
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime 30s .
	$(GO) test -fuzz FuzzAnalyze -fuzztime 30s .
	$(GO) test -fuzz FuzzRepair -fuzztime 30s .
	$(GO) test -fuzz FuzzPipeline -fuzztime 30s .
	$(GO) test -run '^FuzzMulSoft$$' -fuzz FuzzMulSoft -fuzztime 10s ./internal/simt

# vet-corpus runs the static vetter over the seeded 500-kernel corpus
# and every bundled workload: zero error-severity diagnostics is the
# analyzer's false-positive budget, enforced at exit-code level. The
# SARIF report is validated as well-formed JSON along with the
# committed golden fixture the emitter tests pin.
vet-corpus:
	rm -rf /tmp/specrecon-vet-corpus
	mkdir -p /tmp/specrecon-vet-corpus
	$(GO) run ./cmd/sasmvet -q -corpus 500 -corpus-seed 42 -workloads \
		-sarif /tmp/specrecon-vet-corpus/vet.sarif
	$(GO) run ./cmd/perf json \
		/tmp/specrecon-vet-corpus/vet.sarif \
		internal/analyze/testdata/diagnostics.sarif
	rm -rf /tmp/specrecon-vet-corpus

# bench-e2e runs the repo benchmark (BENCHMARK.json, bench/README.md):
# six workloads, end-to-end metrics untraced and per-layer metrics
# traced, results in bench/out/results.json. bench-compare applies the
# bounds to two such files (A = parent, B = change) and passes the exit
# code through: 0 within bounds, 1 worse or digests differ, 2 unusable.
#   make bench-compare A=/path/parent/results.json B=bench/out/results.json
bench-e2e:
	sh bench/run.sh -seed 42

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# bench-pairs judges a claimed gain: N alternated pairs of workload W,
# parent checkout A against change checkout B, each run built and started
# by that checkout's own bench/run.sh (perf pairs). It prints every
# pair, both medians and quartiles and the win count, and fails unless B
# wins at least nine tenths of the pairs with the medians further apart
# than A's inter-quartile range.
#   make bench-pairs A=/root/scratch/parent B=. W=grid_launch N=10
W ?= grid_launch
N ?= 10
bench-pairs:
	$(GO) run ./cmd/perf pairs -a $(A) -b $(B) -w $(W) -n $(N)

# perf-gate is the benchmark step of check: a fresh short untraced run of
# every workload (about 30 s, into the ignored .bench_build/) held by
# `perf gate` against the committed records of the same run in
# testdata/perfgate on what is deterministic on a shared host — no failed
# op, every result_digest equal, and allocs_per_op, alloc_mb_per_op and
# heap_live_mb within the bounds BENCHMARK.json gives them. Wall time is
# not gated here (it moves ±10% on this host); bench-pairs judges it. A
# metric that beats its record by more than its bound passes with a
# "stale" line naming perf-baseline. perf gate exits 2 if GATE_WORKLOADS lacks a workload BENCHMARK.json
# lists. perf-baseline is the same run written over the committed
# records: run it, and commit the result, in the PR that means to move a
# digest or an allocation count. A change that moves one workload
# re-records that one alone, so the others keep their records:
#   make perf-baseline GATE_WORKLOADS=campaign
GATE_WORKLOADS = figures_all grid_launch campaign sweep observed_grid driver_matrix
gate-run = for w in $(GATE_WORKLOADS); do \
	sh bench/run.sh -workload $$w -seed 42 -seconds 1 -trace 0 -out $(1) >/dev/null || exit 1; done

perf-gate:
	rm -rf .bench_build/perf-gate
	$(call gate-run,.bench_build/perf-gate)
	$(GO) run ./cmd/perf gate BENCHMARK.json testdata/perfgate .bench_build/perf-gate
	rm -rf .bench_build/perf-gate

perf-baseline:
	$(call gate-run,testdata/perfgate)

fmt:
	gofmt -l -w .

figures:
	$(GO) run ./cmd/figures -fig all

# scale-smoke exercises the GPU-scale engine and its observers end to
# end: a multi-CTA workload compiled under both builds and simulated as
# an 8-CTA grid over 4 sharded SMs with the profiler, the per-SM
# occupancy sampler and the per-SM Perfetto trace attached (the traces
# carry the SM occupancy counter tracks), every artifact validated as
# well-formed JSON; then the same sharded grid once more on the
# reconvergence-stack model. The grid determinism itself (sharded ==
# serial, byte for byte) is pinned by TestGridShardingDeterministic under
# -race above. That the sampler adds zero allocations to the issue loop
# is pinned by TestSteadyStateIssueAllocFreeGrid, and that the observers
# allocate what they keep, a chunk at a time and never per event, by
# TestTraceRecorderAllocsPerEvent, TestRecordersAllocateWhatTheyHold and
# perf-gate's observed_grid allocation metrics.
scale-smoke:
	rm -rf /tmp/specrecon-scale-smoke
	mkdir -p /tmp/specrecon-scale-smoke
	$(GO) run ./cmd/specrecon -kernel xsbench -mode both \
		-grid 8 -ctasize 64 -sms 4 -workers 2 -profile -sample-stride 64 \
		-profile-json /tmp/specrecon-scale-smoke/profile.json \
		-trace-out /tmp/specrecon-scale-smoke/trace.json
	$(GO) run ./cmd/perf json \
		/tmp/specrecon-scale-smoke/profile-baseline.json \
		/tmp/specrecon-scale-smoke/profile-spec.json \
		/tmp/specrecon-scale-smoke/trace-baseline.json \
		/tmp/specrecon-scale-smoke/trace-spec.json
	rm -rf /tmp/specrecon-scale-smoke
	$(GO) run ./cmd/specrecon -kernel xsbench -model stack \
		-grid 8 -ctasize 64 -sms 4 -workers 2

# repair-smoke holds the automated-repair exit contract on the built
# binary: sasmvet -fix must repair an injected repairable fault on the
# canonical kernel and exit 0, while the designated unrepairable fault
# (SR1003 carries no machine edit) must fall through with the
# edits-applied count at zero and keep exit 1 — the gate distinguishes
# "repaired" from "fell back". The repair campaign's rate over the matrix
# kernel and a 120-application corpus (57 planted, 41 repaired, 16
# fallback, 100.0% -> 28.1%) is cmd/diffhunt's repair-120 golden.
repair-smoke:
	$(GO) run ./cmd/sasmvet -q -compiled -inject drop-cancel@1 -fix \
		testdata/repair/listing1.sasm
	! $(GO) run ./cmd/sasmvet -q -compiled -inject drop-wait@1 -fix \
		testdata/repair/listing1.sasm
