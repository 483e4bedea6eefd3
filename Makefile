# Convenience targets for the arbor repository.

GO ?= go

.PHONY: all build vet lint lint-json test race loc bench bench-snapshot bench-diff bench-e2e cover figures scenarios clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (internal/lint via cmd/arborvet); runs
# alongside go vet, not instead of it. The wall-time budget keeps lint
# cheap enough to run on every commit, or it stops being run.
LINT_BUDGET ?= 90s
lint:
	$(GO) run ./cmd/arborvet -budget $(LINT_BUDGET) ./...

# Machine-readable findings, as CI uploads them.
lint-json:
	$(GO) run ./cmd/arborvet -json ./...

test:
	$(GO) test ./...

race:
	$(GO) test ./... -race

# Non-test Go lines per package and in total — the figure ROADMAP asks every
# PR to track. Two columns: all lines, and code lines (neither blank nor a
# // comment), so a drop carried by deleted comments alone shows as such.
# Tests, testdata, the bench/ module and build output are left out.
# LOC_MAX records the first column's total: the target fails when the tree
# is larger (a PR that grows it has to raise LOC_MAX on purpose) and when it
# is smaller (a PR that shrinks it has to lower LOC_MAX to the new total),
# printing the value to set either way. The last change lowered it by 1212
# from 20812: the three analyzers built on a control-flow graph (goleak,
# lockscope, poolsafe) and that graph and its dataflow layer went from
# internal/lint (−1315), since the tests catch every mutant they were kept
# for (EXPERIMENTS.md), and internal/testwatch (+103), the TestMain that
# turns a hang or a leaked goroutine into a prompt test failure, came in.
LOC_MAX = 19600
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' \
		-not -path '*/testdata/*' -not -path './.bench_build/*' -print0 \
	| xargs -0 awk -v max=$(LOC_MAX) '{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; t++ } \
		!/^[ \t]*($$|\/\/)/ { c[d]++; tc++ } \
		END { for (d in n) printf "%7d %7d  %s\n", n[d], c[d], d | "sort -k3"; close("sort -k3"); \
		      printf "%7d %7d  total (lines, code lines)\n", t, tc; \
		      if (t != max) { printf "loc: %d lines, LOC_MAX = %d: set LOC_MAX = %d\n", t, max, t; exit 1 } }'

bench:
	$(GO) test -bench=. -benchmem ./...

# Capture the per-PR perf snapshot (read/write latency + throughput of the
# live-cluster benchmarks, the engine over a canned connection, and one
# contact over loopback TCP) as JSON. Bump SNAPSHOT per PR: BENCH_020.json …
# The iteration count is fixed: the clients are seeded, so the same count is
# the same op stream (which write draws which level) and allocs/op repeats
# exactly — the property bench-diff's allocation gate rests on.
SNAPSHOT_BENCH = -bench 'BenchmarkCluster|BenchmarkTxn|BenchmarkEngine|BenchmarkTCPContact' -benchtime 20000x -benchmem
SNAPSHOT ?= BENCH_019.json
bench-snapshot:
	$(GO) test -run '^$$' $(SNAPSHOT_BENCH) . \
		| $(GO) run ./cmd/benchsnap -o $(SNAPSHOT)

# Compare a fresh snapshot against the committed baseline: WARN on
# throughput regressions beyond 25%, FAIL on any allocs/op increase.
BASELINE ?= BENCH_019.json
bench-diff:
	$(GO) test -run '^$$' $(SNAPSHOT_BENCH) . \
		| $(GO) run ./cmd/benchsnap -o /tmp/bench_current.json
	$(GO) run ./cmd/benchsnap -diff $(BASELINE) /tmp/bench_current.json

# The reference benchmark of the real path (bench/, a module of its own):
# its arithmetic tests, then a one-second end-to-end smoke that exits
# non-zero when what the cluster returned was incorrect.
bench-e2e:
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload read-heavy --seconds 1 --trace 0

cover:
	$(GO) test ./... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

# Regenerate every table and figure of the paper.
figures:
	$(GO) run ./cmd/paperfigs

# Replay the checked-in scenario corpus (scenarios/*.arb) through the
# deterministic harness and check every expect assertion. A failing
# adaptive scenario's decision journal lands in SCENARIO_ARTIFACTS.
SCENARIO_ARTIFACTS ?= .
scenarios:
	$(GO) run ./cmd/arborsim -scenario scenarios -artifacts $(SCENARIO_ARTIFACTS)

clean:
	rm -f cover.out test_output.txt bench_output.txt
