// Benchtab regenerates the paper's tables and figures on the simulated
// cluster and prints them in the paper's layout.
//
// Usage:
//
//	benchtab [-size f] [-spills n] [tab1|tab2|fig1a|fig1b|fig4|fig5|fig6|grepvar|failtab|ablate|all]
//	benchtab faults|readahead|combine
//
// -size scales the macro datasets (1.0 = the paper's 10 GB inputs).
//
// The three sweeps print one table each, none of them part of "all";
// EXPERIMENTS.md keeps the tables and names the make target that
// regenerates each.
//
// The faults experiment sweeps transport drop rates over the simulated
// and the real-TCP wire transports, recording spill placement, retries,
// and timing.
//
// The readahead experiment sweeps the readahead window depth against
// injected per-exchange latency over both transports, measuring
// read-back throughput of a fully remote file.
//
// The combine experiment sweeps combining scope (none, per-task,
// per-node, per-node with sponge-backed overflow) against key skew
// over a wordcount and an algebraic Pig query, recording shuffle
// volume, spill traffic, and runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"spongefiles/internal/bench"
	"spongefiles/internal/media"
)

// experiments are the sweeps, none of them part of "all": each prints
// its banner, runs, and returns its table.
var experiments = []struct {
	name string
	run  func() (header []string, rows [][]string)
}{
	{"faults", faults},
	{"readahead", readahead},
	{"combine", combine},
}

func main() {
	size := flag.Float64("size", 1.0, "dataset scale factor (1.0 = paper size)")
	spills := flag.Int("spills", 10000, "microbenchmark spill count")
	flag.Parse()
	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}
	for _, e := range experiments {
		if e.name != which {
			continue
		}
		fmt.Println(bench.FormatTable(e.run()))
		return
	}
	ran := false
	for _, e := range []struct {
		name string
		fn   func()
	}{
		{"tab1", func() { table1(*spills) }},
		{"fig1a", fig1a},
		{"fig1b", fig1b},
		{"tab2", func() { table2(*size) }},
		{"fig4", func() { figMacro("Figure 4 (no contention)", bench.Fig4(*size)) }},
		{"fig5", func() { figMacro("Figure 5 (disk contention)", bench.Fig5(*size)) }},
		{"fig6", func() { fig6(*size) }},
		{"grepvar", func() { grepvar(*size) }},
		{"failtab", failtab},
		{"effective", effective},
		{"ablate", ablate},
	} {
		if which == "all" || which == e.name {
			e.fn()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
}

func faults() ([]string, [][]string) {
	cfg := bench.DefaultFaults()
	fmt.Printf("== Fault injection: spill placement vs exchange drop rate (%d workers, %d files x %d chunks, seed %d) ==\n",
		cfg.Workers, cfg.Files, cfg.FileChunks, cfg.Seed)
	return bench.FaultsHeader, bench.FaultsRows(bench.RunFaults(cfg))
}

func readahead() ([]string, [][]string) {
	cfg := bench.DefaultReadAhead()
	fmt.Printf("== Readahead window: depth x injected exchange delay (%d workers, %d-chunk file, seed %d) ==\n",
		cfg.Workers, cfg.FileChunks, cfg.Seed)
	return bench.ReadAheadHeader, bench.ReadAheadRows(bench.RunReadAhead(cfg))
}

func combine() ([]string, [][]string) {
	cfg := bench.DefaultCombine()
	fmt.Printf("== Combine scope: task vs node combining x skew (%d workers, %d records, vocab %d, zipf s=%.1f) ==\n",
		cfg.Workers, cfg.Records, cfg.Vocab, cfg.ZipfS)
	return bench.CombineHeader, bench.CombineRows(bench.RunCombine(cfg))
}

func table1(spills int) {
	fmt.Printf("== Table 1: spilling cost of a 1 MB buffer (%d spills) ==\n", spills)
	fmt.Println("   paper: 1 / 7 / 9 / 25 / 174 / 499 ms")
	rows := bench.Table1(spills)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Medium, fmt.Sprintf("%.1f", r.AvgMs)})
	}
	fmt.Println(bench.FormatTable([]string{"spill medium", "time (ms)"}, out))
}

func fig1a() {
	fmt.Println("== Figure 1(a): CDF of reduce-task input sizes ==")
	res := bench.Fig1(nil)
	var out [][]string
	for i := range res.AllTasks {
		out = append(out, []string{
			fmt.Sprintf("%.4f", res.AllTasks[i].Fraction),
			bench.HumanBytes(res.AllTasks[i].Value),
			bench.HumanBytes(res.JobAverages[i].Value),
		})
	}
	fmt.Println(bench.FormatTable([]string{"fraction", "all tasks", "per-job avg"}, out))
	fmt.Println(bench.ASCIICDF("all reduce-task inputs", res.AllTasks, 60))
	fmt.Println(bench.ASCIICDF("per-job average inputs", res.JobAverages, 60))
}

func fig1b() {
	fmt.Println("== Figure 1(b): CDF of per-job skewness of reduce input sizes ==")
	res := bench.Fig1(nil)
	var out [][]string
	for _, p := range res.Skewness {
		out = append(out, []string{fmt.Sprintf("%.4f", p.Fraction), fmt.Sprintf("%.2f", p.Value)})
	}
	fmt.Println(bench.FormatTable([]string{"fraction", "skewness"}, out))
	fmt.Printf("fraction of jobs with |skewness| > 1: %.0f%%\n\n", res.HighlySkewedFraction*100)
}

func table2(size float64) {
	fmt.Printf("== Table 2: straggling reduce statistics (size factor %.2f) ==\n", size)
	fmt.Println("   paper: median 10/10.3GB/10527; anchortext 2.5/7.2GB/7383; spam 3/10.2GB/10478")
	rows := bench.Table2(size)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Kind.String(),
			fmt.Sprintf("%.2f GB", r.InputGB),
			fmt.Sprintf("%.2f GB", r.SpilledGB),
			strconv.FormatInt(r.SpilledChunks, 10),
			fmt.Sprintf("%.2f%%", r.Fragmentation*100),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"job", "input bytes", "spilled bytes", "spilled chunks", "fragmentation"}, out))
}

func figMacro(title string, cells []bench.MacroCell) {
	fmt.Printf("== %s: job runtimes ==\n", title)
	var out [][]string
	for _, c := range cells {
		out = append(out, []string{c.Label, fmt.Sprintf("%.0f s", c.Seconds)})
	}
	fmt.Println(bench.FormatTable([]string{"configuration", "runtime"}, out))
}

func fig6(size float64) {
	fmt.Println("== Figure 6: memory configurations (no contention) ==")
	cells := bench.Fig6(size)
	var out [][]string
	for _, c := range cells {
		spilled := float64(c.Result.StragglerSpilled) / float64(media.GB)
		out = append(out, []string{
			c.Kind.String(), c.Config,
			fmt.Sprintf("%.0f s", c.Seconds),
			fmt.Sprintf("%.2f GB", spilled),
		})
	}
	fmt.Println(bench.FormatTable([]string{"job", "config", "runtime", "straggler spilled"}, out))
}

func grepvar(size float64) {
	fmt.Println("== §4.2.3: effect of disk spilling on background grep tasks ==")
	fmt.Println("   paper: most ~16 s, unlucky ones up to ~39 s under disk spilling")
	res := bench.GrepVariance(size)
	dm, dx := bench.MedianMax(res.DiskSecs)
	sm, sx := bench.MedianMax(res.SpongeSecs)
	out := [][]string{
		{"disk spilling", fmt.Sprintf("%d", len(res.DiskSecs)), fmt.Sprintf("%.1f s", dm), fmt.Sprintf("%.1f s", dx)},
		{"sponge spilling", fmt.Sprintf("%d", len(res.SpongeSecs)), fmt.Sprintf("%.1f s", sm), fmt.Sprintf("%.1f s", sx)},
	}
	fmt.Println(bench.FormatTable([]string{"foreground spill mode", "grep tasks", "median", "max"}, out))
}

func ablate() {
	fmt.Println("== Ablation: in-memory chunk size (§3.2 picks 1 MB) ==")
	var out [][]string
	for _, r := range bench.ChunkSizeAblation(nil, 100) {
		out = append(out, []string{
			bench.HumanBytes(float64(r.ChunkVirtual)),
			fmt.Sprintf("%.1f ms/MB", r.RemoteSpillMs),
			fmt.Sprintf("%.2f%%", r.Fragmentation*100),
		})
	}
	fmt.Println(bench.FormatTable([]string{"chunk size", "remote spill cost", "fragmentation (10.25MB spill)"}, out))

	fmt.Println("== Ablation: tracker poll interval (§3.1.1 picks 1 s) ==")
	out = nil
	for _, r := range bench.StalenessAblation(nil) {
		out = append(out, []string{
			r.PollInterval.String(),
			fmt.Sprintf("%d", r.RemoteFailures),
			fmt.Sprintf("%d", r.DiskChunks),
		})
	}
	fmt.Println(bench.FormatTable([]string{"poll interval", "stale-entry failures", "disk-fallback chunks"}, out))

	fmt.Println("== Ablation: server affinity (failure surface, §4.3) ==")
	out = nil
	for _, r := range bench.AffinityAblation() {
		out = append(out, []string{
			fmt.Sprintf("%v", r.Affinity),
			fmt.Sprintf("%d", r.MachinesUsed),
			fmt.Sprintf("%.6f%%", r.FailureProb*100),
		})
	}
	fmt.Println(bench.FormatTable([]string{"affinity", "machines holding data", "P(task failure)"}, out))

	fmt.Println("== Ablation: rack-local spilling vs oversubscribed uplinks (§3.1.1) ==")
	out = nil
	for _, r := range bench.RackLocalityAblation() {
		out = append(out, []string{
			fmt.Sprintf("%v", r.RackLocalOnly),
			fmt.Sprintf("%.0f ms", r.SpillMs),
			fmt.Sprintf("%d", r.DiskChunks),
			bench.HumanBytes(float64(r.CrossRackBytes)),
		})
	}
	fmt.Println(bench.FormatTable([]string{"rack-local only", "32MB spill", "disk-fallback chunks", "uplink bytes"}, out))

	fmt.Println("== Ablation: async writes + prefetch (§3.1.2) ==")
	out = nil
	for _, r := range bench.OverlapAblation() {
		out = append(out, []string{
			fmt.Sprintf("%v", r.Prefetch),
			fmt.Sprintf("%d", r.AsyncDepth),
			fmt.Sprintf("%.1f ms", r.WriteMs),
			fmt.Sprintf("%.1f ms", r.ReadMs),
		})
	}
	fmt.Println(bench.FormatTable([]string{"overlap on", "async depth", "32-chunk write", "32-chunk read"}, out))
}

func effective() {
	fmt.Println("== §4.3 Effectiveness: aggregate intermediate data vs cluster memory ==")
	fmt.Println("   paper: at most ~25% of total cluster memory at any point in time")
	res := bench.Effectiveness(bench.DefaultEffectiveness())
	out := [][]string{
		{"cluster memory", bench.HumanBytes(res.ClusterMemory)},
		{"median fraction", fmt.Sprintf("%.2f%%", res.MedianFraction*100)},
		{"p99 fraction", fmt.Sprintf("%.2f%%", res.P99Fraction*100)},
		{"peak fraction", fmt.Sprintf("%.2f%%", res.PeakFraction*100)},
	}
	fmt.Println(bench.FormatTable([]string{"metric", "value"}, out))
}

func failtab() {
	fmt.Println("== §4.3: task failure probability, MTTF 100 months, t = 120 min ==")
	var out [][]string
	for _, r := range bench.FailureTable() {
		out = append(out, []string{strconv.Itoa(r.Machines), fmt.Sprintf("%.6f%%", r.Probability*100)})
	}
	fmt.Println(bench.FormatTable([]string{"machines holding data", "P(task failure)"}, out))
}
