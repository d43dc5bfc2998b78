GO ?= go

.PHONY: build loc vet fmt-check test test-short test-race fuzz-short cover bench bench-ensemble bench-graph bench-mbf bench-semiring bench-oracle bench-apps bench-scale bench-gate bench-scale-gate scale-smoke profile-mbf profile-draw perfbench-check ci

build:
	$(GO) build ./...

## vet also fails when a non-test package imports a test-support package
## (a package of this module whose path ends in "test", such as
## internal/semiring/semiringtest). `go list` reports non-test imports only,
## so any hit is a library or command file.
vet:
	$(GO) vet ./...
	@bad="$$($(GO) list -f '{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}' ./... | grep -v '^[^:]*test:' | grep -E ' parmbf/[^ ]*test( |$$)')"; \
	if [ -n "$$bad" ]; then echo "non-test packages import test-support packages:"; echo "$$bad"; exit 1; fi

## Non-test Go lines: the semiring package, the mbf/simgraph/frt/apps core,
## the whole repository minus the perfbench module, and the parmbfd serving
## command (the counts ROADMAP.md quotes). Test-support packages (directories
## named *test, such as internal/semiring/semiringtest: only _test.go files
## import them) count on their own line and in none of the others, so moving
## code into one reads as a move.
TEST_SUPPORT := -type d -name '*test' -prune
loc:
	@printf 'internal/semiring: '; find internal/semiring $(TEST_SUPPORT) -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
	@printf 'mbf+simgraph+frt+apps: '; find internal/mbf internal/simgraph internal/frt internal/apps $(TEST_SUPPORT) -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
	@printf 'repository minus perfbench/: '; find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o $(TEST_SUPPORT) -o -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
	@printf 'test-support packages: '; find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune -o -path '*test/*.go' ! -name '*_test.go' -exec cat {} + | wc -l
	@printf 'cmd/parmbfd: '; find cmd/parmbfd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }

## Full test tier: every test at full size (~30s on one core).
test:
	$(GO) test ./...

## Short tier: slow reproductions skipped; finishes in a few seconds.
test-short:
	$(GO) test -short ./...

## Race tier: the packages with internal parallelism, under the race detector
## (cmd/parmbfd exercises the router fan-out and fault-injection paths).
## -timeout caps a wedged parallel test (a deadlocked worker pool would
## otherwise hold the CI job for the default 10 minutes per package).
test-race:
	$(GO) test -short -race -timeout 5m . ./cmd/parmbfd/ ./internal/frt/... ./internal/graph/... ./internal/mbf/... ./internal/par/... ./internal/semiring/... ./internal/simgraph/...

## Brief fuzz tier: every fuzz target runs for a few seconds (CI smoke; for
## a real fuzzing session raise -fuzztime). -fuzz takes one target per
## invocation, so each parser — and parmbfd's request decoding, through
## every endpoint of a small -dynamic worker — gets its own run. Minimising
## a new input may take 1s: at the 60s default one minimisation can fill
## the whole run, and the 1s budget finds ~1.5-4x as many new inputs in it.
fuzz-short:
	$(GO) test ./internal/frt/ -run xxx -fuzz FuzzReadSnapshot -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/graph/ -run xxx -fuzz 'FuzzRead$$' -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./internal/graph/ -run xxx -fuzz FuzzApplyUpdates -fuzztime 10s -fuzzminimizetime 1s
	$(GO) test ./cmd/parmbfd/ -run xxx -fuzz FuzzEndpoints -fuzztime 10s -fuzzminimizetime 1s

## Coverage floor: the short tier under -coverprofile must not drop below
## COVER_MIN, measured after the graph layer dropped its directed-graph and
## DIMACS code (84.9–85.0% over two runs; pinned at the lower reading with
## a 0.5pt allowance for run-to-run jitter — the fleet fault-injection tests
## take timing-dependent branches). Raise the pin when coverage grows;
## never lower it to make a PR pass.
COVER_MIN ?= 84.4
cover:
	$(GO) test -short -covermode=atomic -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t+0 < min+0) { printf "coverage %.1f%% dropped below pinned %.1f%%\n", t, min; exit 1 } \
		printf "coverage %.1f%% (pinned minimum %.1f%%)\n", t, min }'

## Ensemble hot-path benchmarks: shared pipeline vs naive per-tree sampling.
bench-ensemble:
	$(GO) test ./internal/frt/ -run xxx -bench 'Ensemble(Naive|Shared)' -benchmem

## Graph-core benchmarks (CSR build, Dijkstra, Edges, heap vs seed heap);
## each run appends one JSON line to BENCH_graph.json.
bench-graph:
	@out="$$($(GO) test ./internal/graph/ -run xxx -bench 'Construct|Build4096|Dijkstra4096|Edges4096|Freeze4096|Heap|BenchmarkDijkstra$$|MultiSource' -benchmem)" \
		|| { echo "$$out"; echo "bench-graph: go test failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep '^Benchmark' | jq -R . | jq -sc \
		--arg date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		'{date: $$date, commit: $$commit, bench: .}' >> BENCH_graph.json

## MBF-engine benchmarks (k-way aggregation fast path vs generic fold, the
## sparse fixpoint engine, source detection, oracle iteration, LE lists,
## embedder sampling — at n=128 and, as EmbedderSampleChungLu1024, at the
## scale tier's Chung-Lu shape with the landmark hop set, which the
## EmbedderSample alternative also selects — the LE filter in both key
## spaces, tree assembly (BuildTree, n=512), the live-update path (one edit
## plus reindex at n=4096, K=16, and UpdateCycle: the serving benchmark's
## six-edit /update cycle at n=2048, K=16, split into apply_ms and index_ms),
## the next-hop routing tables, and the two list algebras that run the fold:
## APWP over width maps and Connectivity over node sets); each run appends
## one JSON line to BENCH_mbf.json.
bench-mbf:
	@out="$$($(GO) test ./internal/mbf/ ./internal/simgraph/ ./internal/frt/ -run xxx -bench 'Iterate4096|IterateGeneric4096|FixpointSparse4096|SourceDetection4096|SSSPIteration|KSSP$$|OracleIterate|OracleRunToFixpoint|LEListsOnGraph|LEFilter|BenchmarkBuildTree$$|EmbedderSample|IncrementalUpdate|UpdateCycle|RoutingTablesTop8|APWP|Connectivity' -benchmem)" \
		|| { echo "$$out"; echo "bench-mbf: go test failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep '^Benchmark' | jq -R . | jq -sc \
		--arg date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		'{date: $$date, commit: $$commit, bench: .}' >> BENCH_mbf.json

## Merge-kernel micro-benchmarks: the SoA k-way merge behind
## DistMapModule.Aggregate on every rung of the dispatch ladder (k = 2, 4,
## 8, 16, 40, 72, 600) against an array-of-structs fold baseline, the fused
## staircase pass of StaircaseModule against merge-then-Staircase on
## LE-shaped inputs (MergeKernelStaircase, k = 2, 8, 40, 80), plus the
## surrounding DistMap primitives; each run appends one JSON line to
## BENCH_semiring.json.
bench-semiring:
	@out="$$($(GO) test ./internal/semiring/ -run xxx -bench 'MergeKernel|DistMapAdd|DistMapSMul|TopKFilter' -benchmem)" \
		|| { echo "$$out"; echo "bench-semiring: go test failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep '^Benchmark' | jq -R . | jq -sc \
		--arg date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		'{date: $$date, commit: $$commit, bench: .}' >> BENCH_semiring.json

## Oracle/serving benchmarks: the per-pair parent-walk path vs the batched
## OracleIndex path on an n=4096, K=16 ensemble, index build cost, snapshot
## save/load vs full rebuild (OracleRebuild4096 ÷ SnapshotLoad4096 read 48×
## and 47× in the pair committed on 2026-10-19, 2 vCPUs; no gate reads the
## ratio), and HTTP-tier throughput for one server vs a 3-worker
## sharded fleet; each run appends one JSON line to BENCH_oracle.json. The
## acceptance bar of the query subsystem is MinBatch ≥ 10× faster than the
## walk.
bench-oracle:
	@out="$$($(GO) test ./internal/frt/ ./cmd/parmbfd/ -run xxx -bench 'OracleWalkMin4096|OracleIndexMinBatch4096|OracleIndexMedianBatch4096|OracleIndexBuild4096|SnapshotWrite4096|SnapshotLoad4096|OracleRebuild4096|ServerBatch1024|FleetBatch1024' -benchmem)" \
		|| { echo "$$out"; echo "bench-oracle: go test failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep '^Benchmark' | jq -R . | jq -sc \
		--arg date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		'{date: $$date, commit: $$commit, bench: .}' >> BENCH_oracle.json

## Application-tier benchmarks: the exact k-median plan evaluation Solve
## runs once per tree (one multi-source Dijkstra) vs the seed-era per-center
## Dijkstra loop, the full k-median and buy-at-bulk solves on a pre-drawn
## ensemble, buy-at-bulk on warm routing tables (the served path), and
## oblivious routing (table build + 256-route query batches); each run
## appends one JSON line to BENCH_apps.json.
bench-apps:
	@out="$$($(GO) test ./internal/apps/kmedian/ ./internal/apps/buyatbulk/ ./internal/apps/routing/ -run xxx -bench 'KMedianEval|KMedianSolve|TreeKMedian|BuyAtBulkSolve|BuyAtBulkWarmTables|RoutingTables|RouteQueryBatch' -benchmem -timeout 30m)" \
		|| { echo "$$out"; echo "bench-apps: go test failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep '^Benchmark' | jq -R . | jq -sc \
		--arg date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		'{date: $$date, commit: $$commit, bench: .}' >> BENCH_apps.json

## Million-node scale tier: generators, the Freeze serial-vs-parallel A/B
## pair, LE lists, and tree assembly at n = 2^16 and (via PARMBF_SCALE=1)
## 2^20, plus the K=2 end-to-end embedder draw at 2^16. Appends one entry to
## BENCH_graph.json and one to BENCH_mbf.json — the same trajectories as the
## core tier; benchgate's entry selection keeps the two suites' baselines
## apart. -benchtime 1x: one timed run per point, so the 2^20 sweep finishes
## in minutes; trends come from the trajectory, not per-run statistics.
bench-scale:
	@out="$$(PARMBF_SCALE=1 $(GO) test ./internal/graph/ -run xxx -bench 'ScaleChungLu|ScaleGridOfCliques|ScaleFreeze' -benchtime 1x -benchmem -timeout 60m)" \
		|| { echo "$$out"; echo "bench-scale: go test failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep '^Benchmark' | jq -R . | jq -sc \
		--arg date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		'{date: $$date, commit: $$commit, bench: .}' >> BENCH_graph.json
	@out="$$(PARMBF_SCALE=1 $(GO) test ./internal/frt/ -run xxx -bench 'ScaleLELists|ScaleBuildTree|ScaleEmbedderSample' -benchtime 1x -benchmem -timeout 60m)" \
		|| { echo "$$out"; echo "bench-scale: go test failed"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | grep '^Benchmark' | jq -R . | jq -sc \
		--arg date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		--arg commit "$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
		'{date: $$date, commit: $$commit, bench: .}' >> BENCH_mbf.json

## PR-blocking end-to-end smoke at 2^16: power-law graph through a K=2
## ensemble draw and the oracle index, with dominance and determinism
## spot-checks (see TestScaleSmoke). The -timeout is the wall-clock budget;
## the CI job adds its own timeout-minutes on top.
scale-smoke:
	PARMBF_SCALE_SMOKE=1 $(GO) test ./internal/frt/ -run 'TestScaleSmoke$$' -v -timeout 40m

## Regression gate: compares the freshest BENCH_*.json entry against the
## previous one (in CI: this run vs the committed baseline) and fails on a
## >20% ns/op regression in the gated hot paths.
bench-gate:
	$(GO) run ./cmd/benchgate -file BENCH_graph.json -match 'Dijkstra4096' -max 1.20
	$(GO) run ./cmd/benchgate -file BENCH_mbf.json -match 'Iterate4096|SourceDetection4096|BenchmarkLEListsOnGraph$$|BenchmarkBuildTree$$|BenchmarkIncrementalUpdate$$|BenchmarkEmbedderSample$$|BenchmarkEmbedderSampleChungLu1024$$|BenchmarkOracleRunToFixpoint$$|RoutingTablesTop8$$' -max 1.20
	$(GO) run ./cmd/benchgate -file BENCH_oracle.json -match 'OracleIndexMinBatch4096|OracleIndexMedianBatch4096|OracleIndexBuild4096|SnapshotLoad4096|FleetBatch1024' -max 1.20
	$(GO) run ./cmd/benchgate -file BENCH_semiring.json -match 'MergeKernel(Staircase)?/' -max 1.20
	$(GO) run ./cmd/benchgate -file BENCH_apps.json -match 'KMedianEvalDijkstra|KMedianSolve|BuyAtBulkSolve|BuyAtBulkWarmTables|RouteQueryBatch' -max 1.20

## Scale-tier gate: wider ns/op budget (single 1x runs are noisier than the
## averaged core tier) plus a B/op ceiling — at 10^6 nodes a 15% allocation
## regression is ~100 MB, so memory is gated here even though the core tier
## gates only time.
bench-scale-gate:
	$(GO) run ./cmd/benchgate -file BENCH_graph.json -match 'ScaleChungLu|ScaleFreeze' -max 1.30 -maxbytes 1.15
	$(GO) run ./cmd/benchgate -file BENCH_mbf.json -match 'ScaleLELists|ScaleEmbedderSample' -max 1.30 -maxbytes 1.15

bench:
	$(GO) test -bench . -benchmem ./...

## CPU + heap profiles of the MBF hot loop (BenchmarkIterate4096): writes
## /tmp/mbf.cpu.pprof and /tmp/mbf.mem.pprof, then prints the top CPU
## consumers. Inspect interactively with `go tool pprof /tmp/mbf.cpu.pprof`.
profile-mbf:
	$(GO) test ./internal/mbf/ -run xxx -bench 'BenchmarkIterate4096$$' -benchtime 30x \
		-cpuprofile /tmp/mbf.cpu.pprof -memprofile /tmp/mbf.mem.pprof
	$(GO) tool pprof -top -nodecount 15 /tmp/mbf.cpu.pprof

## CPU + heap profiles of one tree's LE fixpoint on H, the bulk of an
## Embedder draw (BenchmarkOracleRunToFixpoint: n=256, m=4n, the embed
## workload's shape, in the Embedder's oracle configuration): writes /tmp/draw.cpu.pprof and /tmp/draw.mem.pprof
## (the test binary goes to /tmp/draw.test, outside the tree), then prints
## the top CPU consumers.
profile-draw:
	$(GO) test ./internal/simgraph/ -run xxx -bench 'BenchmarkOracleRunToFixpoint$$' -benchtime 20x \
		-o /tmp/draw.test -cpuprofile /tmp/draw.cpu.pprof -memprofile /tmp/draw.mem.pprof
	$(GO) tool pprof -top -nodecount 15 /tmp/draw.cpu.pprof

## perfbench is a separate module (it holds the end-to-end benchmark), so the
## root `go build ./...` never compiles it: vet it and run its short tests so
## an API change in the library cannot silently break the benchmark. Under
## -short its end-to-end smoke test skips.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

## ci is the exact step list the GitHub Actions test matrix runs (the
## workflow invokes `make ci` so the two cannot drift).
ci: vet fmt-check build test-short test-race perfbench-check
