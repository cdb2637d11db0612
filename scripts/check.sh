#!/bin/sh
# Tier-2 checks: static analysis, the whole tree under the race
# detector, the allocation guards, the fuzz targets and the end-to-end
# smokes. Run on every PR alongside the tier-1 build-and-test.
set -e
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== GOOS=darwin go build ./... (portable fallback must compile) =="
# The zero-copy serve path (sendfile, SCM_RIGHTS fd passing) is linux-only
# behind build tags; the darwin cross-compile proves the portable
# buffered fallback keeps every package building off-linux. The
# benchmark is a module of its own, which ./... stops at; -o /dev/null
# keeps its main package from leaving a binary in the tree.
GOOS=darwin go build ./...
GOOS=darwin go -C benchmark build -o /dev/null ./...

echo "== go vet ./... (both modules) =="
go vet ./...
go -C benchmark vet ./...

echo "== gofmt -l (tracked .go files) =="
unformatted=$(git ls-files '*.go' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt would rewrite:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go test -race ./... =="
# The whole tree, not a list of names: the only tests that sit a race
# build out are the allocation guards behind race_on_test.go, which the
# next step runs without the detector. The slowest package under the
# detector, internal/bench, takes about 42 s on a 2-core host; a test
# binary gets about three times that, so a hang fails in minutes rather
# than at go test's ten-minute default.
go test -race -count=1 -timeout 130s ./...

echo "== clock hand-off and sort-buffer recycling, -race -count=10 =="
# The two places where goroutines hand state to one another without a
# scheduler in between: simtime's processes pass the clock directly (the
# seeded event-order script and the Close/re-Spawn edge cases), and map
# tasks inherit each other's sort buffers through the job's free list.
go test -race -count=10 ./internal/simtime
go test -race -count=10 -run 'SortBuffer|Slab' ./internal/mapreduce

echo "== daemon rounds and dropped simulations, -race -count=20 =="
# No goroutine outlives Run: idle process goroutines change Sims through
# the package's pool, and a daemon takes one per round. The periodic
# daemon is held to the sleep loop it replaced, a round holds no process
# between ticks, and a cluster with its sponge service and a finished
# job, never closed, is collected with its goroutines gone and its
# descriptors and pool mappings released. The rounds that do outlive
# Run — parked or looping forever, as the benchmark load generators'
# do — are not a deadlock, resume in a second Run, and are unwound by
# Close with no goroutine left. A dropped pool's slabs are unmapped by
# their owners' finalizers, and a closed one's exactly once.
go test -race -count=20 -run 'TestEveryMatchesSleepLoop|TestRoundFalseStopsTick|TestNoGoroutineBetweenRounds|TestSpawnRunSteadyStateAllocationFree|TestDaemonParkedAtExitIsNotDeadlock|TestRunTwice|TestCloseUnwindsEveryGoroutine' ./internal/simtime
go test -race -count=20 -run 'TestDroppedSimulationIsCollected' .
go test -race -count=20 -run 'TestDroppedPoolIsUnmapped|TestClosedPoolReleasesOnce' ./internal/sponge

echo "== the tracker's table and its driver, -race -count=10 =="
# One tracker, the paper's: FreeTable, one free count per node indexed
# by node id, keeps the free list's ranking, held to a model by the
# seeded property test, and the script plays one
# event sequence — pools, cuts, a node's death, crashes and cold
# elections — to the polled tracker and holds its answers and term to
# the same model after every step.
go test -race -count=10 -run 'TestFreeTable|TestTrackerScript' ./internal/sponge

echo "== pool fill/view brackets against free and close, -race -count=10 =="
# The wire server receives a chunk into the pool slab and sends it from
# the slab, so a pin now spans socket I/O: the bracket tests run fillers
# and viewers against concurrent FreeChunk, FreeOwnedBy and Close, and
# the streamed-receive tests misbehave on real TCP and unix connections
# and hold the pool to free count restored, no pins, even generations.
# A free's handle is the network's word too: eight frees of one chunk,
# one on each of eight connections, and one racing the owner's reaping,
# free it exactly once. A connection is served on one goroutine, in
# request order: a burst written before any reply is read is answered
# one reply per id, in order, and a reader that never drains its
# responses holds one pin mid-send until the write deadline drops it.
# The pool's garbage collector asks after remote owners in (Node, PID)
# order, the same in every fresh simulation.
go test -race -count=10 -run 'TestPoolFill|TestPoolView|TestGCSweepVisitsOwnersInOrder' ./internal/sponge
go test -race -count=10 -run 'TestStreamedAllocWrite|TestConcurrentFreeOfOneHandle|TestWriteTimeoutReleasesStalledReader|TestPipelinedBurstAnsweredInOrder' ./internal/sponge/wire

echo "== histogram snapshots under concurrent Observe, -race -count=10 =="
# A scrape taken while Observes land must expose _count equal to the
# +Inf bucket; the interleaving that tore them is timing-dependent, so
# the tear test gets ten chances per run.
go test -race -count=10 -run 'TestHistogram' ./internal/obs

echo "== benchmarks compile and run once =="
# Among them the two the profile recipe runs (scripts/profile.sh):
# BenchmarkMacroJobs, one macro-sim pass job by job, and
# BenchmarkSortBufferZipf, one job-wordcount-nc map task's sort.
go test -run '^$' -bench . -benchtime 1x ./internal/simtime ./internal/mapreduce ./internal/pig ./internal/bench

echo "== map-side sort order, -count=5, and its comparator inlines =="
# The sort buffer's pdqsort must leave the index in exactly the
# permutation slices.SortFunc leaves under the old comparator: where
# equal keys land decides values order, segment bytes and virtual time.
# Its speed rests on lessRec inlining into every comparison.
go test -count=5 -run 'TestSortBufferOrderMatchesSortSlice|FuzzSortBufferOrder' ./internal/mapreduce
if ! go build -gcflags=-m ./internal/mapreduce 2>&1 | grep -q 'can inline lessRec'; then
	echo "the compiler no longer inlines mapreduce.lessRec" >&2
	exit 1
fi

echo "== allocation-regression guards =="
# The hot-path guards must hold: O(1) pool alloc/free, steady-state
# File.Write to local memory, the remote write path (a chunk handed to a
# recycled async writer, placed in remote memory and read back through
# the window) and windowed File.Read at zero allocations, spawning with no
# process allocated on one Sim or a fresh one per cycle, plus the
# absolute ceiling on a whole Median job run. The obs guard keeps
# counter, gauge and histogram ops allocation-free so instrumentation
# stays off the spill path's alloc budget. The mapreduce guards pin the map-side
# combiner scratch, the node-combine publish path and sortBuffer.add at
# zero steady-state allocations per record, and sortAndSlice at its
# segments alone. The record-path guards hold
# the Pig codec (encode into scratch + cursor read) at zero, a whole Pig
# job under two allocations per input record, and a TopK pass to one
# allocation per arena chunk its counter table fills plus a constant.
go test -count=1 -run 'AllocationFree|TestSpawnRunSteadyStateAllocationFree|TestMacroAllocRegressionGuard|TestPigJobAllocsPerRecord|TestTopKAllocsAmortized' \
	./internal/sponge ./internal/simtime ./internal/bench ./internal/obs \
	./internal/mapreduce ./internal/pig

# Wire transport guard: steady-state ReadInto must stay 0 allocs/chunk
# on all five serve paths — TCP and unix pool reads (sent from the slab,
# with no connection's staging buffer ever made), sendfile spill serves, the
# portable buffered spill serve (behind a connection that hides its
# socket, so linux covers it too), and the descriptor pread of whatever
# file the chunk lives in, spill file or memfd pool segment — and so
# must AllocWrite and Stat on both socket tiers, the client's half (the
# short reply decoded into the reply value) with the server's. The
# server runs in-process, so the guard sees its side too. The transport
# seam's exchange histograms must count every exchange the tier
# counters do and add no allocation to it.
go test -count=1 -run 'TestWireReadSteadyStateAllocationFree|TestTransportExchangeHistograms' \
	./internal/sponge/wire

echo "== wire dispatch fuzz, 10 s =="
# Whatever a peer past the hello sends to the sponge server — frame
# bytes on a reader, through the serve loop's one-request entry point —
# must never panic, always be answered or dropped with the pool
# restored, and never size an allocation or a response from an
# untrusted field. The seed corpus (one well-formed frame per op, one
# per retired code, plus truncated and oversized allocs) already runs
# as part of `go test`.
go test -run '^$' -fuzz '^FuzzServerDispatch$' -fuzztime 10s ./internal/sponge/wire

echo "== client demux fuzz, 10 s =="
# The other direction: whatever a peer past the hello sends where
# response frames belong, with three callers waiting on the client —
# no panic, every waiter released with a reply or an error inside a
# second, nothing stored past a caller's buffer, no allocation sized by
# a length above Client.limit(). The seeds (unknown id, id answered
# twice, empty frame, status where a payload is due, payload past the
# caller's buffer, a length of 2^31, truncated header and body) already
# run as part of `go test`.
go test -run '^$' -fuzz '^FuzzClientDemux$' -fuzztime 10s ./internal/sponge/wire

echo "== pipelined ops fuzz, 10 s =="
# Both at once: up to 64 alloc_write / read / free / pool_loc requests
# (and retired codes) over live, freed, never-allocated and spill-bit
# handles, all written before any response is read. One response per
# id, then the pool whole: all free, none pinned, generations even.
go test -run '^$' -fuzz '^FuzzPipelinedOps$' -fuzztime 10s ./internal/sponge/wire

echo "== map-side sort order fuzz, 10 s =="
# Any records, any reducer count up to 65535: the sort buffer's index
# must come out in the model's exact permutation and its segments in the
# model's bytes.
go test -run '^$' -fuzz '^FuzzSortBufferOrder$' -fuzztime 10s ./internal/mapreduce

echo "== scenario matrix smoke (quick cases) =="
# The seed scenarios marked Quick — a digest-verified spill round trip
# and a tracker killed mid-write and cold-elected again — run against
# real child server processes, end to end through the spongesim runner.
# The report lands in the gitignored report.json, which CI uploads.
go run ./cmd/spongesim -run all -quick -report report.json

echo "== scenario goroutine leak check, -count=20 =="
# A case fails on any goroutine it leaves behind. The runner compares
# goroutine IDs before and after the case, so the previous run's leaked
# goroutine, released as that run returns, cannot cancel this run's out.
go test -count=20 -run 'TestRunCaseFailsOnLeakedGoroutine' ./internal/scenario

echo "== benchmark module smoke =="
# The repository's benchmark is a module of its own that compiles
# against internal/pig, bench and mapreduce: build it and run its smoke,
# schema and self-check tests, so an API change it depends on fails here
# and not in the next benchmark run.
go -C benchmark test -count=1 ./...

echo "== per-process memory trace smoke (macro-sim, 1 s) =="
# The /proc sampler behind EXPERIMENTS' process-by-process tables must
# find the client and the macro-pass workers and pass the result through.
trace=$(scripts/memtrace.sh macro-sim 1 2>/dev/null)
echo "$trace"
for role in client macro-pass; do
	if ! echo "$trace" | grep -q "^max  *$role "; then
		echo "memtrace.sh sampled no $role process" >&2
		exit 1
	fi
done

echo "tier2 OK"
