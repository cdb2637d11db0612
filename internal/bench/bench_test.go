package bench

import (
	"math"
	"slices"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/workload"
)

// The tests run the experiment harnesses at reduced size and assert the
// paper's qualitative shape; the full-size regeneration lives in the
// repository-root benchmarks and cmd/benchtab.

func TestTable1OrderingMatchesPaper(t *testing.T) {
	rows := Table1(50)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].AvgMs <= rows[i-1].AvgMs {
			t.Fatalf("Table 1 ordering broken at %q: %.2f after %.2f",
				rows[i].Medium, rows[i].AvgMs, rows[i-1].AvgMs)
		}
	}
	// Anchors: shared memory ≈ 1 ms, and contended disk is ~2 orders of
	// magnitude above memory media, as the paper stresses.
	if rows[0].AvgMs < 0.5 || rows[0].AvgMs > 2 {
		t.Fatalf("shared memory = %.2f ms, want ≈ 1", rows[0].AvgMs)
	}
	if rows[4].AvgMs < 50*rows[0].AvgMs {
		t.Fatalf("contended disk only %.0f× shared memory", rows[4].AvgMs/rows[0].AvgMs)
	}
}

func TestFig1Shape(t *testing.T) {
	res := Fig1(nil)
	// Max is many orders of magnitude above the median (Figure 1a).
	med := res.AllTasks[4].Value // fraction 0.5
	max := res.AllTasks[len(res.AllTasks)-1].Value
	if math.Log10(max/med) < 5 {
		t.Fatalf("size spread only %.1f orders", math.Log10(max/med))
	}
	// A big fraction of jobs highly skewed (Figure 1b).
	if res.HighlySkewedFraction < 0.25 {
		t.Fatalf("highly skewed fraction = %.2f", res.HighlySkewedFraction)
	}
	// Both CDFs monotone.
	for i := 1; i < len(res.Skewness); i++ {
		if res.Skewness[i].Value < res.Skewness[i-1].Value {
			t.Fatal("skewness CDF not monotone")
		}
	}
}

func TestMedianJobCorrectAndSpills(t *testing.T) {
	res := RunMacro(Median, MacroConfig{
		NodeMemory: 4 * media.GB,
		Sponge:     true,
		SizeFactor: 0.05,
		Workers:    8,
	})
	// The dataset values are uniform on [0, 1e6); the sample median
	// must land near the middle.
	if res.MedianValue < 400_000 || res.MedianValue > 600_000 {
		t.Fatalf("median = %f, want ≈ 500k", res.MedianValue)
	}
	if res.StragglerSpilled == 0 || res.StragglerChunks == 0 {
		t.Fatal("median straggler should spill through sponge chunks")
	}
	// Retain fraction 0: spilled ≈ input.
	ratio := float64(res.StragglerSpilled) / float64(res.StragglerInput)
	if ratio < 0.9 || ratio > 1.4 {
		t.Fatalf("spill/input = %.2f", ratio)
	}
}

// TestMedianJobSurvivesMidEmitSpill runs the median job with a sort
// buffer of a few records, so every map task spills inside emit over
// and over while the other map tasks keep mapping. emit adds the key
// again after the spill has slept: a key scratch shared between tasks
// holds another task's number by then.
func TestMedianJobSurvivesMidEmitSpill(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	var out MacroResult
	conf := medianJob(c, fs, spill.DiskFactory(), MacroConfig{SizeFactor: 0.05}, &out)
	conf.SortBufferVirtual = 256 * media.KB

	var mapped, reduced []float64
	mapFn, reduceFn := conf.Map, conf.Reduce
	conf.Map = func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
		mapped = append(mapped, workload.DecodeNumber(v))
		mapFn(ctx, k, v, emit)
	}
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		reduced = append(reduced, medianValue(key))
		reduceFn(ctx, key, vals, emit)
	}

	var res *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) {
		res = mapreduce.NewEngine(c, fs).Submit(conf).Wait(p)
	})
	sim.MustRun()
	if res.Failed {
		t.Fatal("median job failed")
	}

	// The run must be the one described: several map tasks alive at
	// once, each spilling many times.
	var maps []*mapreduce.TaskRun
	for _, tr := range res.Tasks {
		if tr.Kind == mapreduce.MapTask {
			maps = append(maps, tr)
		}
	}
	overlap := false
	for i, a := range maps {
		if a.SpillEvents < 10 {
			t.Fatalf("map task %d spilled %d times, want a spill every few records", a.Index, a.SpillEvents)
		}
		for _, b := range maps[i+1:] {
			overlap = overlap || (a.Start < b.End && b.Start < a.End)
		}
	}
	if !overlap {
		t.Fatalf("no two of the %d map tasks ran at the same time", len(maps))
	}

	// The reduce sees each distinct number once, in ascending order.
	slices.Sort(mapped)
	if want := slices.Compact(slices.Clone(mapped)); !slices.Equal(reduced, want) {
		t.Errorf("reduce saw %d keys, want the %d distinct mapped numbers in order", len(reduced), len(want))
	}
	if want := mapped[len(mapped)/2-1]; out.MedianValue != want {
		t.Errorf("median = %v, want %v", out.MedianValue, want)
	}
}

func TestMacroSpongeBeatsDiskAtLowMemory(t *testing.T) {
	disk := RunMacro(Median, MacroConfig{
		NodeMemory: 4 * media.GB, SizeFactor: 0.2, Workers: 8,
	})
	spg := RunMacro(Median, MacroConfig{
		NodeMemory: 4 * media.GB, Sponge: true, SizeFactor: 0.2, Workers: 8,
	})
	if spg.Runtime >= disk.Runtime {
		t.Fatalf("sponge (%v) should beat disk (%v) at 4 GB", spg.Runtime, disk.Runtime)
	}
	if disk.MedianValue != spg.MedianValue {
		t.Fatalf("answers differ across spill modes: %f vs %f",
			disk.MedianValue, spg.MedianValue)
	}
}

func TestAnchortextStragglerShape(t *testing.T) {
	res := RunMacro(Anchortext, MacroConfig{
		NodeMemory: 16 * media.GB, Sponge: true, SizeFactor: 0.1, Workers: 8,
	})
	// Projection keeps ~25% of the corpus; the single reducer gets all
	// of it.
	frac := float64(res.StragglerInput) / (0.1 * 10 * float64(media.GB))
	if frac < 0.15 || frac > 0.40 {
		t.Fatalf("straggler input fraction = %.2f, want ≈ 0.25", frac)
	}
	// TopK output: ten terms for the dominant language, sorted by count.
	en := res.GroupOut["en"]
	if len(en) != 10 {
		t.Fatalf("en top-k size = %d", len(en))
	}
	for i := 1; i < len(en); i++ {
		if en[i].Int(1) > en[i-1].Int(1) {
			t.Fatal("top-k not sorted by count")
		}
	}
}

func TestSpamQuantilesStragglerShape(t *testing.T) {
	res := RunMacro(SpamQuantiles, MacroConfig{
		NodeMemory: 16 * media.GB, Sponge: true, SizeFactor: 0.1, Workers: 8,
	})
	// No projection: the dominant domain (~30% of the corpus) lands on
	// one reducer.
	frac := float64(res.StragglerInput) / (0.1 * 10 * float64(media.GB))
	if frac < 0.2 || frac > 0.5 {
		t.Fatalf("straggler input fraction = %.2f, want ≈ 0.3", frac)
	}
	// The ordered-bag UDF spills more than the input (Table 2's 3 GB →
	// 10.2 GB pattern: merge spill + sorted bag runs).
	if res.StragglerSpilled < res.StragglerInput {
		t.Fatalf("quantiles should spill ≥ input: %d vs %d",
			res.StragglerSpilled, res.StragglerInput)
	}
	// Quantiles of the dominant domain: 11 monotone values in [0, 1).
	rows := res.GroupOut["domain000.com"]
	if len(rows) != 11 {
		t.Fatalf("quantile rows = %d, want 11", len(rows))
	}
	prev := -1.0
	for _, r := range rows {
		v := r.Float(1)
		if v < prev || v < 0 || v > 1.01 {
			t.Fatalf("quantiles not monotone in range: %v", rows)
		}
		prev = v
	}
}

func TestTable2Fragmentation(t *testing.T) {
	rows := Table2(0.05)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SpilledChunks == 0 {
			t.Fatalf("%s spilled no chunks", r.Kind)
		}
		// §4.2.3: internal fragmentation well below 1%. At 5% size the
		// per-file partial chunks weigh more, so allow a few percent.
		if r.Fragmentation < 0 || r.Fragmentation > 0.05 {
			t.Fatalf("%s fragmentation = %.3f", r.Kind, r.Fragmentation)
		}
	}
}

func TestFailureTableMatchesPaperModel(t *testing.T) {
	rows := FailureTable()
	// The paper: with MTTF 100 months and the longest task at ~120
	// minutes, risk stays very low even across many machines.
	last := rows[len(rows)-1]
	if last.Machines != 40 || last.Probability > 0.002 {
		t.Fatalf("P(40 machines) = %g", last.Probability)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Probability <= rows[i-1].Probability {
			t.Fatal("failure table not strictly increasing")
		}
	}
}

func TestGrepVarianceCollapsesWithSponge(t *testing.T) {
	res := GrepVariance(0.15)
	if len(res.DiskSecs) == 0 || len(res.SpongeSecs) == 0 {
		t.Fatal("no grep tasks completed")
	}
	_, dMax := MedianMax(res.DiskSecs)
	dMed, _ := MedianMax(res.DiskSecs)
	if dMax < dMed*1.2 {
		t.Fatalf("disk spilling should stretch unlucky grep tasks: med=%.1f max=%.1f", dMed, dMax)
	}
}

func TestFormatTableAligns(t *testing.T) {
	out := FormatTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	want := "a    bb\n---  --\nxxx  y \n"
	if out != want {
		t.Fatalf("format = %q, want %q", out, want)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[float64]string{
		512:                           "512B",
		2 * float64(media.KB):         "2.0KB",
		3.5 * float64(media.MB):       "3.5MB",
		10.25 * float64(media.GB):     "10.2GB",
		1024 * 50 * float64(media.GB): "51200.0GB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Fatalf("HumanBytes(%f) = %q, want %q", in, got, want)
		}
	}
}
