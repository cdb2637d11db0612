# Tier-1: the must-stay-green gate (build + full test suite).
tier1:
	go build ./... && go test ./...

# Tier-2: go vet, the whole tree under the race detector, and the
# allocation guards and smokes.
tier2:
	./scripts/check.sh

# Scenario matrix: run the full seed suite of named fault-injection
# scenarios against real child-process clusters (spongesim -list shows
# the cases) and write the machine-readable report for CI.
scenarios:
	go run ./cmd/spongesim -run all -report report.json

# Quick subset of the scenario matrix (the cases marked q in -list),
# used as the CI smoke.
scenarios-quick:
	go run ./cmd/spongesim -run all -quick -report report.json

# Observability smoke: boot a 3-node TCP cluster of sponge daemons,
# scrape each over OpMetrics and the HTTP /metrics sidecar, and check
# known counters appear in the expositions and the stats table.
stats-smoke:
	./scripts/stats_smoke.sh

# Wire protocol benchmarks: the pipelined client at 1, 4 and 16
# concurrent requests (EXPERIMENTS.md has the recorded results).
bench-wire:
	go test ./internal/sponge/wire -run '^$$' -bench BenchmarkWire -benchtime 1s -cpu=1,4,16

# Macro host cost: wall clock, allocs and bytes of one run of each of
# the three paper jobs (4 GB nodes, sponge on, size 0.05, 8 workers);
# EXPERIMENTS.md's macro table is regenerated from this. End to end
# across processes it is the repository benchmark's macro-sim workload.
bench:
	go test ./internal/bench -run '^$$' -bench BenchmarkMacro -benchmem

# Local transport tier ladder: steady-state 64KiB reads over loopback
# TCP, unix sockets, sendfile spill serves, and the fd-passing pread
# fast paths (spill file + memfd pool segments), against an in-process
# server; EXPERIMENTS.md's tier-ladder table is regenerated from this.
# Across processes it is the benchmark's spill-tcp-1m / spill-samehost-1m.
bench-tier:
	go test ./internal/sponge/wire -run '^$$' -bench BenchmarkTier -benchtime 2s

# The three virtual-time sweeps (benchtab's doc comment says what each
# varies): each prints the table EXPERIMENTS.md keeps, and writes no file.
bench-faults bench-readahead bench-combine: bench-%:
	go run ./cmd/benchtab $*

.PHONY: tier1 tier2 scenarios scenarios-quick stats-smoke bench-wire bench bench-faults bench-readahead bench-tier bench-combine
