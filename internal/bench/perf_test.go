package bench

import (
	"runtime"
	"testing"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/workload"
)

// Small-and-fast harness configuration for tests.
const (
	perfTestSize    = 0.02
	perfTestWorkers = 4
)

// perfConfig is the macro cell whose host cost is measured: sponge
// spilling on small-memory nodes, the configuration that spills hardest.
func perfConfig(sizeFactor float64, workers int) MacroConfig {
	return MacroConfig{NodeMemory: 4 * media.GB, Sponge: true, SizeFactor: sizeFactor, Workers: workers}
}

// TestMacroAllocRegressionGuard is the spill hot path's end-to-end
// guard: one Median job run — cluster set-up, simulator events, a
// process per spilled chunk, chunk buffers — stays under an absolute
// object ceiling. It took about 940 at 8271d13; the seed's boxed events,
// goroutine per process and fresh buffer per chunk took 19.9 k.
func TestMacroAllocRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard; skipped in -short mode")
	}
	const ceiling = 1500
	mc := perfConfig(perfTestSize, perfTestWorkers)
	if allocs := testing.AllocsPerRun(2, func() { RunMacro(Median, mc) }); allocs > ceiling {
		t.Fatalf("median job: %.0f allocs per run, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("median job: %.0f allocs per run", allocs)
	}
}

// BenchmarkMacroJobs is the host cost of one run of each paper job (wall
// clock, allocations, bytes) on the cell the benchmark's macro-sim
// workload runs end to end: `go test ./internal/bench -run '^$' -bench
// BenchmarkMacroJobs -benchmem` (make bench) regenerates EXPERIMENTS.md's
// macro host-cost table, and `scripts/profile.sh ./internal/bench
// BenchmarkMacroJobs/anchortext` profiles one job.
func BenchmarkMacroJobs(b *testing.B) {
	mc := perfConfig(0.05, 8)
	for _, job := range []struct {
		name string
		kind JobKind
	}{{"median", Median}, {"anchortext", Anchortext}, {"spam", SpamQuantiles}} {
		b.Run(job.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunMacro(job.kind, mc)
			}
		})
	}
}

// TestRunMacroLeavesNoGoroutines holds RunMacro to closing its
// simulation: twenty runs back to back leave the goroutine count where
// it started. Each used to leave its daemons and pooled processes parked
// for good, and the simulated cluster reachable through them.
func TestRunMacroLeavesNoGoroutines(t *testing.T) {
	mc := perfConfig(perfTestSize, perfTestWorkers)
	RunMacro(Median, mc)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		RunMacro(Median, mc)
	}
	// Exiting goroutines need a moment to leave the count.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines before 20 runs, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPigJobAllocsPerRecord is the record path's end-to-end guard: a
// whole Pig job — corpus generation, map, sort, shuffle, bags, UDF
// passes, cluster set-up included — stays under two heap objects per
// input record. The boxed tuple path cost about 135, and TopK cloning
// each term that entered its count table took Anchortext to 7.5.
func TestPigJobAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard; skipped in -short mode")
	}
	const ceiling = 2
	mc := perfConfig(perfTestSize, 8)
	records := float64(workload.DefaultWebCorpus(cluster.PaperConfig().Scale).Records()) * perfTestSize
	for _, kind := range []JobKind{Anchortext, SpamQuantiles} {
		allocs := testing.AllocsPerRun(2, func() { RunMacro(kind, mc) })
		if per := allocs / records; per > ceiling {
			t.Errorf("%s: %.0f allocs for %.0f records = %.1f per record, ceiling %d", kind, allocs, records, per, ceiling)
		} else {
			t.Logf("%s: %.1f allocs per record", kind, per)
		}
	}
}
