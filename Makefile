GO ?= go

.PHONY: all build test vet race check loc bench bench-e2e bench-compare bench-pairs perf-gate perf-baseline cache-smoke fmt figures profile-smoke scale-smoke fuzz-smoke diffcheck-smoke vet-corpus telemetry-smoke sched-smoke repair-smoke arm64-unfused

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the pre-commit gate: everything must build, vet clean, and
# pass the full suite under the race detector, uncached (-count=1) so the
# tests that only mean something there — worker-pool and SM-sharding
# determinism, pipelines shared across goroutines — never ride a cached
# result. The robustness smokes follow: short fuzz sessions on the
# parser, analyzer and pipeline, the seeded 500-kernel differential
# campaign with the fault matrix, and the static vetting sweep over the
# corpus and workloads. perf-gate closes the gate: the repo benchmark's
# digests and allocation metrics against the committed run.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) arm64-unfused
	$(GO) test -race -count=1 ./...
	$(MAKE) scale-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) diffcheck-smoke
	$(MAKE) vet-corpus
	$(MAKE) cache-smoke
	$(MAKE) telemetry-smoke
	$(MAKE) sched-smoke
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

# diffcheck-smoke is the seeded differential campaign on the driver's
# default (spec) axis: 500 corpus kernels compiled under both pipelines
# and compared, plus the full fault-injection matrix (every fault must be
# detected by the expected layer).
diffcheck-smoke:
	$(GO) run ./cmd/diffhunt -n 500 -seed 42 -matrix

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

bench:
	$(GO) test -bench=. -benchmem

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
# digest or an allocation count.
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

# scale-smoke exercises the GPU-scale engine end to end: a multi-CTA
# workload compiled under both builds and simulated as an 8-CTA grid
# over 4 sharded SMs with the profiler and the per-SM Perfetto trace
# attached, every artifact validated as well-formed JSON; then the same
# sharded grid once more on the reconvergence-stack model. The grid
# determinism itself (sharded == serial, byte for byte) is pinned by
# TestGridShardingDeterministic under -race above.
scale-smoke:
	rm -rf /tmp/specrecon-scale-smoke
	mkdir -p /tmp/specrecon-scale-smoke
	$(GO) run ./cmd/specrecon -kernel xsbench -mode both \
		-grid 8 -ctasize 64 -sms 4 -workers 2 -profile \
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

# cache-smoke proves the compile cache is both used and invisible: the
# vetter walks a 120-kernel compiled corpus twice with the cache on —
# the second pass must be pure hits (stats JSON, enforced at exit-code
# level by -min-cache-hits) — and once more without the cache, and the
# two SARIF reports must be byte-identical: memoized compilation may
# never change a diagnostic.
cache-smoke:
	rm -rf /tmp/specrecon-cache-smoke
	mkdir -p /tmp/specrecon-cache-smoke
	$(GO) run ./cmd/sasmvet -q -compiled -eff-below 0.8 -corpus 120 -corpus-seed 42 \
		-compile-cache -repeat 2 -min-cache-hits 120 \
		-cache-stats /tmp/specrecon-cache-smoke/stats.json \
		-sarif /tmp/specrecon-cache-smoke/cached.sarif
	$(GO) run ./cmd/sasmvet -q -compiled -eff-below 0.8 -corpus 120 -corpus-seed 42 \
		-sarif /tmp/specrecon-cache-smoke/fresh.sarif
	cmp /tmp/specrecon-cache-smoke/cached.sarif /tmp/specrecon-cache-smoke/fresh.sarif
	$(GO) run ./cmd/perf json /tmp/specrecon-cache-smoke/stats.json
	rm -rf /tmp/specrecon-cache-smoke

# telemetry-smoke exercises occupancy sampling and the run ledger end to
# end. A grid workload runs with the per-SM occupancy sampler and the
# compile cache attached, and its trace (carrying SM occupancy counter
# tracks) must be well-formed JSON. Then figures -fig 7 appends two run
# records to a scratch ledger, and perf ledger holds the second's
# compile-cache misses to the first's (16 -> 16; exit 2 if the record
# lacks them). A record's ccache_* series are the cache's own Stats(),
# written by cli.App.Record; the per-SM occupancy series are the table
# the sampled run prints. The ledger's Go tests run under -race. That the
# sampler adds zero allocations to the issue loop is pinned by
# TestSteadyStateIssueAllocFreeGrid, and that the observers allocate what
# they keep, a chunk at a time and never per event, by
# TestTraceRecorderAllocsPerEvent, TestRecordersAllocateWhatTheyHold and
# perf-gate's observed_grid allocation metrics.
telemetry-smoke:
	rm -rf /tmp/specrecon-telemetry-smoke
	mkdir -p /tmp/specrecon-telemetry-smoke
	$(GO) run ./cmd/specrecon -kernel rsbench -mode spec \
		-grid 8 -ctasize 64 -sms 4 -workers 2 \
		-sample-stride 64 -compile-cache \
		-trace-out /tmp/specrecon-telemetry-smoke/trace.json
	$(GO) run ./cmd/perf json /tmp/specrecon-telemetry-smoke/trace.json
	$(GO) run ./cmd/figures -fig 7 -compile-cache \
		-ledger /tmp/specrecon-telemetry-smoke/runs.jsonl >/dev/null
	$(GO) run ./cmd/figures -fig 7 -compile-cache \
		-ledger /tmp/specrecon-telemetry-smoke/runs.jsonl >/dev/null
	$(GO) run ./cmd/perf ledger -ledger /tmp/specrecon-telemetry-smoke/runs.jsonl \
		-tool figures -gate "ccache_misses_total <= 1"
	$(GO) test -race -count=1 ./internal/telemetry
	rm -rf /tmp/specrecon-telemetry-smoke

# sched-smoke exercises the campaign driver's schedule axis end to end.
# The planted scheduler-sensitive fault matrix must catch every fault at
# its pinned layer, then a short corpus campaign sweeps four adversarial
# policies x two schedule seeds against the greedy reference with the
# starvation monitor and wall-clock watchdog armed — zero findings, with
# the stats artifact validated as well-formed JSON and the campaign
# record appended to the run ledger (perf ledger gates: findings and
# panics may never grow from the baseline). That schedule exploration
# stays allocation-free under every policy is pinned by
# TestSteadyStateIssueAllocFreeGrid.
sched-smoke:
	rm -rf /tmp/specrecon-sched-smoke
	mkdir -p /tmp/specrecon-sched-smoke
	$(GO) run ./cmd/diffhunt -axis sched -n 60 -seed 42 -matrix \
		-policies oldest,youngest,obe,random -seeds 7,11 \
		-stats /tmp/specrecon-sched-smoke/stats.json \
		-ledger runs.jsonl
	$(GO) run ./cmd/perf json /tmp/specrecon-sched-smoke/stats.json
	$(GO) run ./cmd/perf ledger -ledger runs.jsonl -tool diffhunt-sched -last 5 \
		-gate "findings <= 1" \
		-gate "panics <= 1" \
		-gate "wall_seconds <= 2"
	rm -rf /tmp/specrecon-sched-smoke

# repair-smoke exercises the analysis-driven automated-repair pipeline
# end to end. The exit contract comes first: sasmvet -fix must repair an
# injected repairable fault on the canonical kernel and exit 0, while
# the designated unrepairable fault (SR1003 carries no machine edit)
# must fall through with the edits-applied count at zero and keep exit
# 1 — the gate distinguishes "repaired" from "fell back". The campaign
# driver's repair axis then plants every statically-visible matrix fault
# over the matrix kernel and a 120-application corpus, pushes each
# through repair-then-reverify, differentially checks every repaired
# build against the un-repaired PDOM baseline, and fails unless the
# post-repair fallback rate strictly improves on the pre-repair rate.
# The rates land in the run ledger; perf ledger gates the fallback rate
# and proof failures against the recent baseline.
repair-smoke:
	$(GO) run ./cmd/sasmvet -q -compiled -inject drop-cancel@1 -fix \
		testdata/repair/listing1.sasm
	! $(GO) run ./cmd/sasmvet -q -compiled -inject drop-wait@1 -fix \
		testdata/repair/listing1.sasm
	$(GO) run ./cmd/diffhunt -axis repair -n 120 -seed 42 -compile-cache \
		-ledger runs.jsonl
	$(GO) run ./cmd/perf ledger -ledger runs.jsonl -tool diffhunt-repair -last 5 \
		-gate "repair_fallback_rate <= 1.05" \
		-gate "findings <= 1" \
		-gate "repaired >= 0.95"

# profile-smoke runs one workload end to end with the profiler and the
# trace exporter attached, then validates every emitted artifact is
# non-empty well-formed JSON.
profile-smoke:
	rm -rf /tmp/specrecon-profile-smoke
	mkdir -p /tmp/specrecon-profile-smoke
	$(GO) run ./cmd/specrecon -kernel rsbench -mode both -profile \
		-profile-json /tmp/specrecon-profile-smoke/profile.json \
		-trace-out /tmp/specrecon-profile-smoke/trace.json
	$(GO) run ./cmd/perf json \
		/tmp/specrecon-profile-smoke/profile-baseline.json \
		/tmp/specrecon-profile-smoke/profile-spec.json \
		/tmp/specrecon-profile-smoke/trace-baseline.json \
		/tmp/specrecon-profile-smoke/trace-spec.json
	rm -rf /tmp/specrecon-profile-smoke
