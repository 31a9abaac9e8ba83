# Convenience targets for the concert reproduction. Everything is plain Go;
# these are shorthands, not requirements.

GO ?= go

.PHONY: all build test lint lint-fixtures bench bench-json bench-test tables figure9 examples fuzz chaos serve crash-recovery profile scale scale-smoke pdes-smoke cover clean

all: build test

# Determinism vet: concertvet (internal/lint) runs the full analyzer suite —
# methoddecl, framebounds, detrand, cellshare, goldenpath — over the whole
# repo (its default patterns), then the standard vet suite runs. Exit status
# 2 means an unsound finding, 1 pessimizing-only, 0 clean. Last, every Go
# file must be gofmt-clean; the offending files are listed on failure.
lint:
	$(GO) run ./cmd/concertvet
	$(GO) vet ./...
	test -z "$$(gofmt -l . | tee /dev/stderr)"

# The analyzers' own test gate: per-analyzer marker fixtures (bad + good),
# the //lint:allow machinery, and the repo-clean sweep.
lint-fixtures:
	$(GO) test -count=1 ./internal/lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run XXXnone ./...

# Same benchmarks as machine-readable go-test JSON events, for dashboards.
bench-json:
	$(GO) test -bench=. -benchmem -run XXXnone -json ./...

# Unit tests of the host-side benchmark harness (bench/, its own module, so
# the root `go test ./...` does not reach it). It calls repo APIs directly,
# so this is what catches an API change that would break only the benchmark.
# The benchmark itself runs as `bash bench/run.sh` (see BENCHMARK.json and
# bench/README.md).
bench-test:
	cd bench && $(GO) test ./...

# Tables 2-10 at medium scale, then Tables 7, 9 and 10 at full scale, each
# diffed against its pinned capture. The full-scale runs are the only ones
# with 32-node migration (Table 7) and 262,144 keys (Table 9). A change that
# moves numbers on purpose regenerates the pins with
#
#	go run ./cmd/tables -scale medium > cmd/tables/testdata/medium.txt
#	for n in 7 9 10; do go run ./cmd/tables -table $$n -scale full; done > cmd/tables/testdata/full_7_9_10.txt
#
# and the diff is the review record. figure9 is pinned the same way.
tables:
	$(GO) run ./cmd/tables -scale medium > /tmp/concert_tables_medium.out
	diff -u cmd/tables/testdata/medium.txt /tmp/concert_tables_medium.out
	for n in 7 9 10; do $(GO) run ./cmd/tables -table $$n -scale full || exit 1; done > /tmp/concert_tables_full.out
	diff -u cmd/tables/testdata/full_7_9_10.txt /tmp/concert_tables_full.out

figure9:
	$(GO) run ./cmd/figure9 > /tmp/concert_figure9.out
	diff -u cmd/figure9/testdata/figure9.txt /tmp/concert_figure9.out

# The demos, then the minic example program under both execution models,
# each run's output diffed against its pinned capture as `make tables` does.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heat -cells 1024 -iters 5
	$(GO) run ./examples/pipeline
	$(GO) run ./cmd/minic -stats -mode hybrid examples/minilang/binom.cal 16 8 > /tmp/concert_minic_hybrid.out
	diff -u cmd/minic/testdata/binom_hybrid.txt /tmp/concert_minic_hybrid.out
	$(GO) run ./cmd/minic -stats -mode parallel examples/minilang/binom.cal 16 8 > /tmp/concert_minic_parallel.out
	diff -u cmd/minic/testdata/binom_parallel.txt /tmp/concert_minic_parallel.out

# Fuzz for 30 s each, from the committed corpora. FuzzCompile: the minic
# front end must not panic, must return every error as a positioned
# *lang.Error, and every program it accepts must resolve under each
# interface set. FuzzReliable: a small reliable serving run under a
# generated fault schedule (drop, dup, reorder, stall and crash windows,
# checkpoint period) must apply every RMW exactly once, lose no request,
# quiesce when crash-free, and rerun byte-identically. A failing input is
# written under the package's testdata/fuzz/<target>; commit it with the
# fix, and plain go test replays it from then on.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 30s ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzReliable$$' -fuzztime 30s ./apps/serve

# Fault-injection smoke: the short loss sweep under the race detector, then
# the full Table 8 sweep (verified against native references, 3x budget).
chaos:
	$(GO) test -race -count=1 ./apps/chaos ./internal/sim ./internal/core -run 'Chaos|Fault|Reliable|Stall|Deterministic'
	$(GO) run ./cmd/tables -table 8 -scale small

# Serving-workload smoke: one verified open-loop run (exactly-once RMWs,
# tail-latency partition over the p99 stragglers) plus the small Table 9
# sweep, which cross-checks that the adaptive threshold policy beats static
# placement on p99 under the hotspot flip.
serve:
	$(GO) run ./cmd/concert -app serve -nodes 8 -size 1024 -policy threshold -verify -profile
	$(GO) run ./cmd/tables -table 9 -scale small

# Crash-recovery smoke: one verified serving run under fail-stop crashes
# with checkpointing and retries (exactly-once RMWs end to end), diffed
# against cmd/concert/testdata/crash_recovery.txt as `make scale` does, the
# crash determinism/exactly-once tests, then the small Table 10 availability
# grid (its asserts require zero lost requests and >= 99% SLO attainment
# with checkpoint+retry at the lower crash rate).
crash-recovery:
	$(GO) run ./cmd/concert -app serve -nodes 8 -size 1024 -rate 33000 -crash-every 12121 -crash-len 242 -ckpt-period 152 -retries 8 -verify > /tmp/concert_crash_recovery.out
	diff -u cmd/concert/testdata/crash_recovery.txt /tmp/concert_crash_recovery.out
	$(GO) test -race -count=1 ./apps/serve ./internal/sim ./internal/core -run 'Crash|Ckpt|Checkpoint|Recover'
	$(GO) run ./cmd/tables -table 10 -scale small

# Observability smoke: a profiled kernel run with cycle attribution, the
# critical path, and a Perfetto trace_event export (validated by the binary
# itself: the JSON is parsed back before the run reports success), then a
# profiled serving run whose export carries migration and forward-hop
# instants. Each report is diffed against its pinned capture, as `make
# tables` does; a change that moves the text on purpose regenerates the pin
# and the diff is the review record.
profile:
	$(GO) run ./cmd/concert -app sor -nodes 16 -size 48 -iters 3 -profile -trace-out /tmp/concert_sor_trace.json > /tmp/concert_profile_sor.out
	diff -u cmd/concert/testdata/profile_sor.txt /tmp/concert_profile_sor.out
	$(GO) run ./cmd/tables -table 4 -scale small -profile > /tmp/concert_profile_tables.out
	diff -u cmd/tables/testdata/profile_small.txt /tmp/concert_profile_tables.out
	$(GO) run ./cmd/concert -app serve -nodes 8 -size 1024 -policy threshold -profile -trace-out /tmp/concert_serve_trace.json > /tmp/concert_profile_serve.out
	diff -u cmd/concert/testdata/profile_serve.txt /tmp/concert_profile_serve.out

# Headline scale run: a million-object SOR (1024x1024 grid, one object per
# cell) on a 4096-node machine, routed through the fat-tree interconnect
# with per-link contention. Exercises the calendar event queue and the
# object arenas at full scale; completes in single-digit seconds. Its output
# is diffed against cmd/concert/testdata/scale.txt, as `make tables` does.
scale:
	$(GO) run ./cmd/concert -app sor -nodes 4096 -size 1024 -iters 1 -net fattree -verify > /tmp/concert_scale.out
	diff -u cmd/concert/testdata/scale.txt /tmp/concert_scale.out

# Reduced 256-node variant of the scale run: same code paths (fat-tree
# routing, calendar queue, arenas), ~65k objects, well under a second of
# simulation; diffed against cmd/concert/testdata/scale_smoke.txt.
scale-smoke:
	$(GO) run ./cmd/concert -app sor -nodes 256 -size 256 -iters 2 -net fattree -verify > /tmp/concert_scale_smoke.out
	diff -u cmd/concert/testdata/scale_smoke.txt /tmp/concert_scale_smoke.out

# PDES smoke: the 256-node fat-tree SOR run through the serial oracle and
# through the sharded parallel engine must print byte-identical output —
# the engine's golden guarantee exercised end to end on a real binary, not
# just inside the test suite. cmp fails the target on the first differing
# byte.
pdes-smoke:
	$(GO) run ./cmd/concert -app sor -nodes 256 -size 256 -iters 2 -net fattree -verify -engine serial > /tmp/pdes_smoke_serial.out
	$(GO) run ./cmd/concert -app sor -nodes 256 -size 256 -iters 2 -net fattree -verify -engine parallel -shards 4 > /tmp/pdes_smoke_parallel.out
	cmp /tmp/pdes_smoke_serial.out /tmp/pdes_smoke_parallel.out
	@echo "pdes-smoke: serial and parallel engine outputs are byte-identical"

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
