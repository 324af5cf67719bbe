# Development targets for the hmscs reproduction.

GO ?= go

.PHONY: all build test race vet fmt-check bench-flags bench bench-compare profile plan serve cluster golden golden-check golden-plan golden-plan-check api api-check cli-help cli-help-check scenarios-check links-check clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# BENCH_FLAGS is the one benchmark invocation behind bench and
# bench-compare: ns/op and allocs/op for the figure/table reproduction
# paths, the capacity planner's screening stage, the analytic model it
# screens with (Analyze/C=4,64,256) and the exact MVA solver, the event
# set (EventList*), the engine's event rate (SimulatorEventRate), one
# pooled replication at C=1/16/256 (SimulatorReplication), the
# switch-level simulator (NetsimFatTree), the worker pool's per-unit
# dispatch (ParForEach/{p1,all}), the replication driver's own
# per-replication cost over a stub engine (RunBatch/{fixed,adaptive}),
# and every checked-in experiment spec to
# rendered report through run.Run (RunSpec/<name>). BENCHTIME is recorded
# in each report, and benchjson -compare refuses two reports taken at
# different benchtimes, so a gate only ever compares like with like.
BENCHTIME ?= 1s
BENCH_FLAGS = -run '^$$' -bench 'Figure|Table|Plan|Instrumented|Analyze|EventList|SimulatorEventRate|SimulatorReplication|RunSpec|MVA|NetsimFatTree|ParForEach|RunBatch' -benchmem -benchtime $(BENCHTIME)

# bench-flags prints BENCH_FLAGS, so CI runs both sides of its gate with
# the head tree's invocation.
bench-flags:
	@echo "$(BENCH_FLAGS)"

# bench regenerates BENCH_sim.json, tracked PR over PR with the core
# count and benchtime it was taken at.
bench:
	$(GO) test $(BENCH_FLAGS) . | tee bench.out
	$(GO) run ./tools/benchjson -benchtime $(BENCHTIME) < bench.out > BENCH_sim.json
	@rm -f bench.out
	@echo "wrote BENCH_sim.json"

# bench-compare gates a change against a baseline report taken with the
# same BENCH_FLAGS: fails when ns/op or allocs/op regressed by more than
# 25% (CI runs this against the PR base; locally, pass OLD=path/to/baseline.json).
OLD ?= BENCH_sim.json
bench-compare:
	$(GO) test $(BENCH_FLAGS) . > bench.out
	$(GO) run ./tools/benchjson -benchtime $(BENCHTIME) < bench.out > /tmp/bench-new.json
	@rm -f bench.out
	$(GO) run ./tools/benchjson -compare $(OLD) /tmp/bench-new.json

# profile writes a CPU and an allocation pprof file for each of the
# figure, plan-screen and spec-to-report benchmarks under
# .bench_build/profiles/ and prints each profile's top flat entries; the
# "where the time goes" table in DESIGN.md is read from them. Inspect
# further with go tool pprof -top .bench_build/profiles/<name>.cpu.pprof.
PROFILE_DIR := .bench_build/profiles
PROFILE_BENCHES := Figure4 PlanScreen RunSpec
profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -c -o $(PROFILE_DIR)/hmscs.test .
	@echo "nproc $$(nproc), GOMAXPROCS default"
	@for b in $(PROFILE_BENCHES); do \
		$(PROFILE_DIR)/hmscs.test -test.run '^$$' -test.bench "^Benchmark$$b\$$" -test.benchmem \
			-test.cpuprofile $(PROFILE_DIR)/$$b.cpu.pprof -test.memprofile $(PROFILE_DIR)/$$b.mem.pprof || exit 1; \
		echo "== $$b: CPU, top 5 flat"; \
		$(GO) tool pprof -top -nodecount 5 $(PROFILE_DIR)/$$b.cpu.pprof 2>/dev/null | sed -n '/flat%/,$$p'; \
		echo "== $$b: allocated bytes, top 5 flat"; \
		$(GO) tool pprof -top -nodecount 5 -sample_index alloc_space $(PROFILE_DIR)/$$b.mem.pprof 2>/dev/null | sed -n '/flat%/,$$p'; \
	done

# plan runs the documented capacity-planning scenario: the cheapest
# designs serving 100 msg/s/processor on >= 64 processors within 2 ms,
# screened over the default space and sim-verified (DESIGN.md §7).
plan:
	$(GO) run ./cmd/hmscs-plan -slo-latency 2 -min-nodes 64 -lambda 100 -top 3

# serve starts the resident experiment service on its default address;
# point any binary at it with -submit 127.0.0.1:8642 (docs/SERVER.md).
serve:
	$(GO) run ./cmd/hmscs-server

# cluster starts the service plus WORKERS local hmscs-worker processes
# attached to it, so any -submit invocation fans its units out across
# them (docs/SERVER.md §worker protocol). Ctrl-C stops the fleet.
WORKERS ?= 2
cluster:
	@trap 'kill 0' INT TERM EXIT; \
	$(GO) run ./cmd/hmscs-server & \
	sleep 1; \
	for i in $$(seq $(WORKERS)); do \
		$(GO) run ./cmd/hmscs-worker -connect 127.0.0.1:8642 -name local-w$$i & \
	done; \
	wait

# The pinned command behind testdata/golden-figures.txt: Figures 4-7 with
# a fixed seed and reduced replications, deterministic at any -parallel.
GOLDEN_CMD = $(GO) run ./cmd/hmscs-figures -what fig4,fig5,fig6,fig7 -format csv \
	-seed 12345 -reps 2 -messages 2000

# golden regenerates the committed golden CSVs (run after an intentional
# change to the simulator or the emitters, and eyeball the diff).
golden:
	$(GOLDEN_CMD) > testdata/golden-figures.txt
	@echo "wrote testdata/golden-figures.txt"

# golden-check fails when the current tree no longer reproduces the
# committed figures bit for bit (CI's golden-figure job).
golden-check:
	$(GOLDEN_CMD) > /tmp/golden-figures.txt
	diff -u testdata/golden-figures.txt /tmp/golden-figures.txt

# The pinned command behind testdata/golden-plan.txt: the documented
# planning scenario with a fixed seed and a reduced verification budget,
# deterministic at any -parallel.
GOLDEN_PLAN_CMD = $(GO) run ./cmd/hmscs-plan -slo-latency 2 -min-nodes 64 \
	-lambda 100 -top 2 -seed 12345 -messages 2000 -max-reps 6

# golden-plan regenerates the committed planner output (run after an
# intentional change to the planner, the analytic model, or the emitters,
# and eyeball the diff).
golden-plan:
	$(GOLDEN_PLAN_CMD) > testdata/golden-plan.txt
	@echo "wrote testdata/golden-plan.txt"

# golden-plan-check fails when the current tree no longer reproduces the
# committed planner output bit for bit (CI's golden-plan job).
golden-plan-check:
	$(GOLDEN_PLAN_CMD) > /tmp/golden-plan.txt
	diff -u testdata/golden-plan.txt /tmp/golden-plan.txt

# api regenerates the checked-in public-API surface (docs/api-surface.txt)
# after an intentional facade change; api-check fails when the hmscs
# facade drifted from it, so PRs cannot silently break the public API.
api:
	$(GO) run ./tools/apisurface > docs/api-surface.txt
	@echo "wrote docs/api-surface.txt"

api-check:
	$(GO) run ./tools/apisurface > /tmp/api-surface.txt
	diff -u docs/api-surface.txt /tmp/api-surface.txt

# cli-help regenerates testdata/cli-help/, the -h text of every
# experiment binary (run after an intentional flag change, and eyeball
# the diff); cli-help-check fails when a flag's name, default or help
# line drifted from it. hmscs-server and hmscs-worker configure daemons,
# not specs, and the worker's -procs default is the host's CPU count.
CLI_BINS := hmscs-analyze hmscs-figures hmscs-netsim hmscs-plan hmscs-sim hmscs-sweep
CLI_HELP = bin=$$(mktemp -d) && trap 'rm -rf $$bin' EXIT && mkdir -p $(1) && \
	for b in $(CLI_BINS); do \
		$(GO) build -o $$bin/ ./cmd/$$b || exit 1; \
		$$bin/$$b -h > $(1)/$$b.txt 2>&1 || true; \
	done

cli-help:
	@$(call CLI_HELP,testdata/cli-help)
	@echo "wrote testdata/cli-help/"

cli-help-check:
	@rm -rf /tmp/cli-help
	@$(call CLI_HELP,/tmp/cli-help)
	diff -ru testdata/cli-help /tmp/cli-help

# scenarios-check replays every command in docs/SCENARIOS.md as a smoke
# run (-messages 100 -reps 1, adapted per binary), so the cookbook cannot
# rot. links-check verifies intra-repo Markdown links resolve.
scenarios-check:
	$(GO) run ./tools/docscheck -scenarios docs/SCENARIOS.md

links-check:
	$(GO) run ./tools/docscheck -links .

clean:
	rm -f bench.out BENCH_sim.json
