# Convenience targets for the HyLo reproduction.

GO ?= go

.PHONY: all build test loc locgate race racesched serve-smoke servecrash vet cover chaos netchaos fuzzsmoke sketchsmoke bench benchfast bench-tables experiments report examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines per package and in total (perf/ is the frozen benchmark
# module). ROADMAP north-star 2: the total should end a round lower than it
# started, so CI prints it in every log.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perf/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# The line budget: loc, failing when the total exceeds LOC_MAX. A PR that
# needs more lines raises the number in its own diff, where review sees it.
LOC_MAX = 24264
locgate:
	@$(MAKE) -s loc | awk -v max=$(LOC_MAX) '{ print } $$2 == "total" && $$1 > max { over = $$1 } \
		END { if (over) { printf "locgate: %d non-test lines exceed LOC_MAX = %d\n", over, max; exit 1 } }'

race:
	$(GO) test -race ./internal/mat/ ./internal/dist/ ./internal/nn/ ./internal/train/ ./internal/core/ ./internal/sngd/ ./internal/kfac/ ./internal/kbfgs/ ./internal/precond/ ./internal/telemetry/ ./internal/sched/

# Scheduler-focused race suite: the execution engine and token pool, the
# async collectives they drive, and the cross-optimizer parity tests that
# prove the layer-parallel path is bit-identical to -sched-workers=1.
racesched:
	$(GO) test -race ./internal/sched/ -count=1
	$(GO) test -race ./internal/dist/ -run 'TestAsync|TestLocalCommInPlace' -count=1
	$(GO) test -race ./internal/train/ -run 'TestElasticRecoveryWithParallelScheduler' -count=1

# End-to-end smoke of the hylo-serve daemon: boot the binary, submit a
# 2-epoch job over HTTP, assert completion and a non-empty /metrics, then
# drain via SIGTERM. The in-process HTTP tests live in internal/serve.
serve-smoke:
	./scripts/serve_smoke.sh

# Crash-recovery acceptance under the race detector: SIGKILL a real
# hylo-serve daemon mid-job, restart it over the same data directory, and
# require the resumed run to finish bit-identical to an uninterrupted
# reference. The helper-process body must be runnable too, so both test
# names are in scope.
servecrash:
	$(GO) test -race ./internal/serve/ -run 'TestServeCrashRecovery|TestServeCrashHelperProcess' -count=1 -timeout 600s

vet:
	$(GO) vet ./...

# Fault-injection and recovery suite under the race detector: checkpoint
# round-trips, injected worker panics recovered by train.Drive, corrupted
# snapshots falling back, the barrier watchdog, and chaos determinism.
chaos:
	$(GO) test -race ./internal/ckpt/ -count=1
	$(GO) test -race ./internal/dist/ -run 'TestFaultInjector|TestBarrierWatchdog|TestClusterReset|TestFaultPlan|TestAsync' -count=1
	$(GO) test -race ./internal/train/ -run 'TestElastic|TestDriver|TestNonfinite|TestSharding' -count=1
	$(GO) test -race ./internal/core/ -run 'TestSingularKernel|TestDegenerate' -count=1
	$(GO) test -race ./internal/sched/ -run 'TestSchedParityChaos' -count=1

# TCP-transport chaos suite under the race detector: the frame codec and
# socket fault injector, multi-process collectives over real loopback
# sockets (parity with the in-process cluster, shrink-then-rejoin,
# rendezvous rejection), and the two-OS-process acceptance tests — bit
# parity for every optimizer with 10% socket drop/dup/reorder faults, and a
# mid-epoch process kill recovering onto P-1 ranks.
netchaos:
	$(GO) test -race ./internal/dist/net/ -count=1
	$(GO) test -race ./internal/train/ -run 'TestNetProc' -count=1 -timeout 600s

# Short fuzz pass over the panic-free solver kernels: each target runs for a
# few seconds, enough for CI to catch a reintroduced solve-path panic or an
# unbounded retry loop without a dedicated fuzzing fleet.
FUZZTIME ?= 5s
fuzzsmoke:
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzFactorLU$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzQRPivot$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzInvSPD$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzInterpolativeDecomp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzCholeskySolve$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzRandomizedID$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzGemmKernel$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzAxpy$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzDotTile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mat/ -run '^$$' -fuzz '^FuzzGathered$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist/net/ -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dist/net/ -run '^$$' -fuzz '^FuzzChunkReassembly$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/runner/ -run '^$$' -fuzz '^FuzzJournalDecode$$' -fuzztime $(FUZZTIME)

# Sketched-KID smoke: the randomized-ID fast path end to end — mat/core
# sketch kernels and guards, bit-parity (including the forced exact-KID
# fallback) across scheduler widths, and one real sketched training run per
# mode through the hylo-train CLI.
sketchsmoke:
	$(GO) test ./internal/mat/ -run 'TestRandomizedID|TestRowIDOracle|TestSRHT|TestFWHT' -count=1
	$(GO) test ./internal/core/ -run 'Sketch' -count=1
	$(GO) test -race ./internal/sched/ -run 'TestSchedParity$$/hylo-kid-sketch|TestSchedParitySketchFallback' -count=1
	$(GO) run ./cmd/hylo-train -model mlp -epochs 1 -batch 16 -samples 32 -kid-sketch gauss -optimizer hylo
	$(GO) run ./cmd/hylo-train -model mlp -epochs 1 -batch 16 -samples 32 -kid-sketch srht -optimizer hylo

cover:
	$(GO) test -cover ./internal/...

# Root benchmarks: one testing.B benchmark per paper table/figure.
bench:
	$(GO) test -bench=. -benchmem

# One-iteration allocation smoke: runs every benchmark once with -benchmem
# so CI catches allocation regressions on the hot path without paying for a
# full timing run. Compare allocs/op against BENCH_baseline.json.
benchfast:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .
	$(GO) test -run='^$$' -bench='BenchmarkGEMM_512|BenchmarkWorkspacePool|BenchmarkInterpolativeDecomp_256r25|BenchmarkSolveCond_256x25' -benchtime=1x -benchmem ./internal/mat/
	$(GO) test -run='^$$' -bench='BenchmarkKIDFactors_256' -benchtime=1x -benchmem ./internal/core/

# Full experiment suite as text tables (minutes).
experiments:
	$(GO) run ./cmd/hylo-bench -exp all

# Markdown reproduction report with accuracy sparklines.
report:
	$(GO) run ./cmd/hylo-report -o report.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cnn_classification
	$(GO) run ./examples/segmentation
	$(GO) run ./examples/distributed
	$(GO) run ./examples/checkpointing
	$(GO) run ./examples/vit_attention

clean:
	$(GO) clean ./...
	rm -f report.md test_output.txt bench_output.txt
