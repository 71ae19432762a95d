GO ?= go
FUZZTIME ?= 30s

.PHONY: build vet test test-race conformance fuzz-smoke bench-smoke bench bench-compare serve bench-serve

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...
	$(GO) test -race ./internal/...

# Race-check the concurrent layers: the (trace, variant) sweep work queue
# and the pooled streaming converter it drives.
test-race:
	$(GO) test -race ./internal/...

# Full conformance suite: golden corpus, differential battery over the
# 135-trace synthetic suite, and the metamorphic simulator checks.
conformance:
	$(GO) run ./cmd/rebase -selftest

# Run each native fuzz target for FUZZTIME (default 30s). Go only allows
# one -fuzz target per invocation, hence the separate runs.
fuzz-smoke:
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzCVPDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzChampTraceDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzConvert$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/conformance -run '^$$' -fuzz '^FuzzExpBlockDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/expstore -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME)

# A fast allocation check of the hot convert+simulate path: the streaming
# source must stay well below the materializing baseline, and a hit on a
# slab another holder keeps mapped (BenchmarkSlabLoad) must run at 0 B/op.
bench-smoke:
	$(GO) test -run xxx -bench 'ConvertSimulate|SweepStreaming|BenchmarkMultiCorePipeline$$|BenchmarkSlab' -benchtime 3x .

# The repo's benchmark: the workloads of BENCHMARK.json (cold_all,
# slabwarm_all, warm_all, service_mix) with per-layer attribution. Run
# bench/run.sh directly to pick a workload, seed or repeat count; see
# bench/README.md.
bench:
	bash bench/run.sh

# Paired before/after benchmark comparison: runs the simulator-core
# benchmarks on the working tree and on REF (default HEAD, stashing any
# dirty state for the reference run), then prints ns/op, B/op, allocs/op
# deltas. See EXPERIMENTS.md "Benchmark comparison workflow".
#   make bench-compare                # working tree vs HEAD
#   make bench-compare REF=HEAD~1     # working tree vs previous commit
REF ?= HEAD
bench-compare:
	scripts/bench_compare.sh $(REF) $(BENCH)

# Run the sweep service in the foreground on the default port with the
# default cache dir. SIGINT/SIGTERM drains in-flight jobs and flushes the
# memory tier before exiting. Point clients (or another daemon's -remote
# tier) at http://127.0.0.1:8344.
ADDR ?= 127.0.0.1:8344
WORKERS ?= 1
serve:
	$(GO) run ./cmd/rebase serve -addr $(ADDR) -workers $(WORKERS)

# Sweep-service latency benchmark: cold submit vs warm memory-tier repeat
# vs remote-tier hit through a chained daemon, every response cmp'd
# byte-identical against the batch CLI. Emits BENCH_9.json; the headline
# is the warm p50 (must sit well under 10ms). See EXPERIMENTS.md
# "Service latency benchmark workflow".
EXP ?= all
STEP ?= 3
SERVE_REPEATS ?= 20
bench-serve:
	scripts/bench_serve.sh $(EXP) $(STEP) $(SERVE_REPEATS)
