# Pre-PR gate for the Rhythm reproduction. `make check` is the bar every
# change must clear (see README "Install / build"): formatting, vet, a
# clean build, the differential-exactness test for the incremental tail
# tracker (uncached, so it always actually runs), and the full test suite
# under the race detector — the experiment engine is concurrent, so -race
# is part of tier-1 here, not an extra. The race run uses a raised timeout:
# -race slows the simulation ~5-10x and the experiments package regenerates
# real figures. Under -race the determinism harness (cmd/rhythm
# TestDeterminismHarness) runs its reduced form; CI's harness job runs the
# full one. `make golden` pins the whole `run all` stdout.

GO ?= go

# staticcheck is pinned so results are reproducible; `go run` fetches it on
# demand (no go.mod change). Offline environments skip it with a notice —
# CI always has network and runs it for real.
STATICCHECK_VERSION ?= 2025.1

.PHONY: check fmt vet build test exact race staticcheck bench bench-compare bench-gate golden golden-update

check: fmt vet build exact race staticcheck

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also covers perfbench, a separate module (root `go build ./...`
# never compiles it) built on the internal engine, fleet and profiler APIs.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# exact pins the incremental TailTracker to the copy-and-sort oracle
# (DESIGN.md §7.5): every experiment table depends on this equality.
exact:
	$(GO) test ./internal/metrics -run TestTailTrackerMatchesReference -count=1

race:
	$(GO) test -race -timeout 45m ./...

# staticcheck probes tool availability first (one cheap -version run): when
# the module proxy is unreachable it skips with a notice instead of failing
# the whole gate, so `make check` stays usable offline.
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: tool unavailable (offline?); skipping"; \
	fi

# bench runs the measurement hot-path micro benchmarks and refreshes
# BENCH_engine.json (ns/op, allocs/op, B/op per benchmark) — the perf
# trajectory every optimization PR is measured against. See README
# "Benchmarks" for the file format.
bench:
	$(GO) run ./cmd/rhythm-bench -out BENCH_engine.json

# bench-compare diffs a fresh benchmark run against the committed
# BENCH_engine.json baseline: per-benchmark ns/op, allocs/op and B/op
# deltas, signed and with percentages. Informational only — it never
# fails; use bench-gate for the blocking form.
bench-compare:
	$(GO) run ./cmd/rhythm-bench -out /tmp/rhythm-bench-new.json
	$(GO) run ./cmd/rhythm-bench -compare BENCH_engine.json /tmp/rhythm-bench-new.json

# bench-gate is bench-compare with teeth: the full drift table prints,
# then the run fails if EngineTick or FleetTick regressed more than 25%
# ns/op against the committed baseline. The other rows (per-pass
# sub-benchmarks, trackers, obs) stay informational at any drift — they
# attribute a regression, they don't gate. CI's quick-bench job runs this
# as a blocking check.
bench-gate:
	$(GO) run ./cmd/rhythm-bench -out /tmp/rhythm-bench-new.json
	$(GO) run ./cmd/rhythm-bench -compare -gate BENCH_engine.json /tmp/rhythm-bench-new.json

# golden verifies the byte-determinism contract end to end: the quick
# seed-2020 `run all` stdout — every paper figure, table and ablation —
# must hash to the pinned GOLDEN.sha256. It runs cold on four workers;
# TestDeterminismHarness checks that one worker renders the same bytes. Any
# change to produced float bits or draw order — however small — fails
# this. The pin is amd64-specific (math.Log/Exp are per-arch assembly);
# regenerate on other architectures before comparing. It also assumes an
# AVX+FMA host: math.Exp picks its FMA path at run time, and that path
# rounds differently from the SSE2 one. The samplers' vector kernels
# (internal/sim/kernels_amd64.s) reproduce those bits exactly; `make golden
# GOFLAGS=-tags=purego` checks the scalar path against the same pin.
golden:
	$(GO) run ./cmd/rhythm -quick -seed 2020 -jobs 4 run all | sha256sum -c GOLDEN.sha256

# golden-update re-pins GOLDEN.sha256 after an INTENTIONAL output change
# (new experiment content, a deliberate model change). Never run it to
# silence an unexplained diff — that diff is the contract catching a bug.
golden-update:
	$(GO) run ./cmd/rhythm -quick -seed 2020 -jobs 4 run all | sha256sum > GOLDEN.sha256
