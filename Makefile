GO ?= go

.PHONY: build test race fmt vet vet-snapea fuzz-smoke bench-smoke ledger-smoke invariance metrics-smoke serve-smoke placement ci clean

build:
	$(GO) build ./...

# Formatting gate: gofmt has nothing to rewrite (it names any file it
# would, and the target fails).
fmt:
	test -z "$$(gofmt -l . | tee /dev/stderr)"

vet:
	$(GO) vet ./...

# Repo-specific static analysis: determinism, durability, and lifecycle
# invariants go vet cannot see (map-iteration order into encoders,
# wall-clock reachable from byte-identical artifacts, non-atomic
# artifact writes, tensor-pool leaks, metric-domain mismatches).
vet-snapea:
	$(GO) run ./cmd/snapea-vet ./...

test:
	$(GO) test ./...

# The benchmark package's smoke test checks wall-clock latency limits,
# which the race detector's ~10x slow-down misses by construction; under
# -race it runs -short (its unit tests only). `make test` runs it whole.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^snapea/benchmark$$')
	$(GO) test -race -short ./benchmark

# Short fuzz runs over the two binary/JSON loaders, the execution
# kernel (geometry × params × input bytes, strip kernel vs the scalar
# reference) and the serving input decode (fast path vs encoding/json)
# — enough to catch regressions without an open-ended campaign.
fuzz-smoke:
	$(GO) test ./internal/models -run '^$$' -fuzz 'FuzzLoadWeights' -fuzztime 10s
	$(GO) test ./internal/snapea -run '^$$' -fuzz 'FuzzLoadParams' -fuzztime 10s
	$(GO) test ./internal/snapea -run '^$$' -fuzz 'FuzzStripEquivalence' -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzDecodeInput' -fuzztime 10s

# The repo benchmark's own smoke, non-race and whole: TestQuickSmoke
# runs all five BENCHMARK.json workloads through the timed and the
# traced pass with every output check (digests, params bytes, bit-for-bit
# 200s) — which `race` skips by running ./benchmark -short. Speeds are
# recorded and gated in one place only: BENCHMARK.json plus an
# interleaved parent/change A/B (`go run ./benchmark -compare`). A ci
# gate on the paired ratio (speedup_vs_gemm) against a re-recorded
# benchmark/baseline.json waits for a benchmark-archetype PR: benchmark/
# is fenced off from every other kind.
ledger-smoke:
	$(GO) test ./benchmark

# One iteration of every benchmark — catches bit-rotted bench code
# without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/nn ./internal/snapea ./internal/metrics ./internal/serve

# Determinism gate: outputs, traces, and checkpoints must be identical
# for every worker count, even when the scheduler has real parallelism
# to play with.
invariance:
	GOMAXPROCS=2 $(GO) test -race -run WorkerInvariance ./internal/nn ./internal/snapea

# Observability smoke: one real experiment with -metrics, then validate
# the snapshot parses and the engine/sim counters actually recorded.
metrics-smoke:
	$(GO) run ./cmd/snapea-bench -exp fig8 -nets tinynet -test-images 4 -opt-images 4 -train-images 8 \
		-metrics snapea-metrics-smoke.json >/dev/null
	$(GO) run ./internal/tools/metricscheck \
		-nonzero engine.runs,engine.windows,engine.macs_executed,engine.macs_issued,engine.macs_skipped,sim.cycles,sim.macs \
		snapea-metrics-smoke.json
	rm -f snapea-metrics-smoke.json

# Serving smoke: boot snapea-serve on an ephemeral port, drive it with
# snapea-load (500 requests, all responses must be 200/429), SIGTERM it,
# and validate the serve counters.
serve-smoke:
	GO=$(GO) sh scripts/serve_smoke.sh

# Code placement: the start address (and mod 64) of the GEMM baseline's
# and the SnaPEA kernel's hot functions in the benchmark binary. A
# speedup_vs_gemm A/B quotes both sides; not a gate.
placement:
	GO=$(GO) sh scripts/placement.sh

# The tier-1+ gate: everything CI runs before a merge.
ci: fmt vet vet-snapea build race fuzz-smoke bench-smoke ledger-smoke invariance metrics-smoke serve-smoke

clean:
	$(GO) clean ./...
	rm -f snapea-tune.ckpt snapea-bench.ckpt snapea-metrics-smoke.json
