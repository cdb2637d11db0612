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

// TestLegacyAllocModeIsSimulationIdentical pins the central claim of the
// perf harness: the legacy-allocation mode changes only what the Go
// runtime does underneath, never the simulated outcome. Every job must
// produce bit-identical virtual results in both modes.
func TestLegacyAllocModeIsSimulationIdentical(t *testing.T) {
	for _, kind := range []JobKind{Median, Anchortext, SpamQuantiles} {
		legacy := RunMacro(kind, perfConfig(perfTestSize, perfTestWorkers, true))
		opt := RunMacro(kind, perfConfig(perfTestSize, perfTestWorkers, false))
		if legacy.Runtime != opt.Runtime {
			t.Errorf("%s: runtime differs between alloc modes: legacy=%v optimized=%v",
				kind, legacy.Runtime, opt.Runtime)
		}
		if legacy.StragglerChunks != opt.StragglerChunks || legacy.StragglerInput != opt.StragglerInput {
			t.Errorf("%s: straggler stats differ between alloc modes", kind)
		}
		if kind == Median && legacy.MedianValue != opt.MedianValue {
			t.Errorf("median value differs: legacy=%v optimized=%v",
				legacy.MedianValue, opt.MedianValue)
		}
	}
}

// TestMacroAllocRegressionGuard is the harness's acceptance gate: the
// pooled hot path must allocate at least 30% fewer objects per Median
// job run than the seed-equivalent legacy mode (the actual margin is far
// larger; 30% is the floor that must never regress).
func TestMacroAllocRegressionGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard; skipped in -short mode")
	}
	legacy := measureMacro(Median, perfConfig(perfTestSize, perfTestWorkers, true))
	opt := measureMacro(Median, perfConfig(perfTestSize, perfTestWorkers, false))
	if cut := pctDrop(legacy.AllocsPerOp, opt.AllocsPerOp); cut < 30 {
		t.Fatalf("median job allocs/op: legacy=%d optimized=%d (%.1f%% cut, want >= 30%%)",
			legacy.AllocsPerOp, opt.AllocsPerOp, cut)
	}
}

// Benchmarks for `go test -bench Macro -benchmem`: one per job in the
// optimized mode, plus the legacy Median for manual comparison.
func benchMacro(b *testing.B, kind JobKind, legacy bool) {
	b.ReportAllocs()
	mc := MacroConfig{
		NodeMemory:  4 * media.GB,
		Sponge:      true,
		SizeFactor:  0.05,
		Workers:     8,
		LegacyAlloc: legacy,
	}
	for i := 0; i < b.N; i++ {
		RunMacro(kind, mc)
	}
}

func BenchmarkMacroMedian(b *testing.B)        { benchMacro(b, Median, false) }
func BenchmarkMacroMedianLegacy(b *testing.B)  { benchMacro(b, Median, true) }
func BenchmarkMacroAnchortext(b *testing.B)    { benchMacro(b, Anchortext, false) }
func BenchmarkMacroSpamQuantiles(b *testing.B) { benchMacro(b, SpamQuantiles, false) }

// TestRunMacroLeavesNoGoroutines holds RunMacro to closing its
// simulation: twenty runs back to back leave the goroutine count where
// it started. Each used to leave its daemons and pooled processes parked
// for good, and the simulated cluster reachable through them.
func TestRunMacroLeavesNoGoroutines(t *testing.T) {
	mc := perfConfig(perfTestSize, perfTestWorkers, false)
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
// passes, cluster set-up included — stays under ten heap objects per
// input record. The boxed tuple path cost about 135. What remains is
// TopK cloning a term each time it enters the count table.
func TestPigJobAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard; skipped in -short mode")
	}
	const ceiling = 10
	mc := perfConfig(perfTestSize, 8, false)
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
