package bench

import (
	"fmt"
	"sort"
	"strings"

	"spongefiles/internal/failure"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/workload"
)

// --- Figure 1 -------------------------------------------------------------

// Fig1Result holds the production-skew CDFs of Figure 1.
type Fig1Result struct {
	AllTasks             []workload.CDFPoint // reduce-task input sizes (virtual bytes)
	JobAverages          []workload.CDFPoint
	Skewness             []workload.CDFPoint
	HighlySkewedFraction float64
}

var cdfFractions = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999, 1.0}

// Fig1 generates the synthetic month of jobs and extracts both CDFs.
func Fig1(pop *workload.JobPopulation) Fig1Result {
	if pop == nil {
		pop = workload.DefaultJobPopulation()
	}
	jobs := pop.Generate()
	sk := workload.JobSkewness(jobs)
	highly := 0
	for _, s := range sk {
		if s > 1 || s < -1 {
			highly++
		}
	}
	return Fig1Result{
		AllTasks:             workload.CDF(workload.AllTaskInputs(jobs), cdfFractions),
		JobAverages:          workload.CDF(workload.JobAverages(jobs), cdfFractions),
		Skewness:             workload.CDF(sk, cdfFractions),
		HighlySkewedFraction: float64(highly) / float64(len(sk)),
	}
}

// --- Figures 4, 5, 6 and Table 2 -------------------------------------------

// MacroCell is one bar of Figures 4/5: a job under one spill mode and
// node-memory size.
type MacroCell struct {
	Kind    JobKind
	Label   string
	Seconds float64
	Result  MacroResult
}

// Fig4 runs the §4.2.3 isolation experiment: the three jobs, disk vs
// SpongeFile spilling, 4 GB vs 16 GB nodes, no contention.
func Fig4(sizeFactor float64) []MacroCell {
	return macroGrid(false, sizeFactor)
}

// Fig5 repeats Figure 4 with the background 1 TB grep job contending for
// disks.
func Fig5(sizeFactor float64) []MacroCell {
	return macroGrid(true, sizeFactor)
}

func macroGrid(contention bool, sizeFactor float64) []MacroCell {
	var cells []MacroCell
	for _, kind := range []JobKind{Median, Anchortext, SpamQuantiles} {
		for _, mem := range []int64{4 * media.GB, 16 * media.GB} {
			for _, spg := range []bool{false, true} {
				mc := MacroConfig{
					NodeMemory: mem,
					Sponge:     spg,
					Contention: contention,
					SizeFactor: sizeFactor,
				}
				res := RunMacro(kind, mc)
				mode := "disk"
				if spg {
					mode = "sponge"
				}
				cells = append(cells, MacroCell{
					Kind:    kind,
					Label:   fmt.Sprintf("%s/%dGB/%s", kind, mem/media.GB, mode),
					Seconds: res.Runtime.Seconds(),
					Result:  res,
				})
			}
		}
	}
	return cells
}

// Table2Row is one row of Table 2: the straggling reduce task's input,
// spilled bytes and spilled chunks, plus the derived fragmentation
// fraction (§4.2.3 computes it from these columns; the paper finds it
// well below 1%).
type Table2Row struct {
	Kind          JobKind
	InputGB       float64
	SpilledGB     float64
	SpilledChunks int64
	Fragmentation float64
}

// Table2 runs the three jobs with SpongeFile spilling on 16 GB nodes and
// reports the straggler statistics.
func Table2(sizeFactor float64) []Table2Row {
	var rows []Table2Row
	for _, kind := range []JobKind{Median, Anchortext, SpamQuantiles} {
		res := RunMacro(kind, MacroConfig{
			NodeMemory: 16 * media.GB,
			Sponge:     true,
			SizeFactor: sizeFactor,
		})
		chunkBytes := res.StragglerChunks * media.MB
		frag := 0.0
		if chunkBytes > 0 {
			frag = float64(chunkBytes-res.StragglerSpilled) / float64(chunkBytes)
		}
		rows = append(rows, Table2Row{
			Kind:          kind,
			InputGB:       float64(res.StragglerInput) / float64(media.GB),
			SpilledGB:     float64(res.StragglerSpilled) / float64(media.GB),
			SpilledChunks: res.StragglerChunks,
			Fragmentation: frag,
		})
	}
	return rows
}

// Fig6Cell is one bar of Figure 6: a job under one memory configuration.
type Fig6Cell struct {
	Kind    JobKind
	Config  string
	Seconds float64
	Result  MacroResult
}

// Fig6Configs are the four §4.2.3 memory configurations.
var Fig6Configs = []string{
	"disk (16GB buffer cache)",
	"local sponge only (12GB)",
	"no spilling (12GB heap)",
	"spongefiles (1GB/node)",
}

// Fig6 runs the memory-configuration comparison, no disk contention.
func Fig6(sizeFactor float64) []Fig6Cell {
	var cells []Fig6Cell
	for _, kind := range []JobKind{Median, Anchortext, SpamQuantiles} {
		for ci, label := range Fig6Configs {
			mc := MacroConfig{NodeMemory: 16 * media.GB, SizeFactor: sizeFactor}
			switch ci {
			case 0: // stock disk spilling, big buffer cache
			case 1: // large local-only sponge
				mc.Sponge = true
				mc.SpongeMemory = 12 * media.GB
				mc.RemoteDisabled = true
			case 2: // no spilling at all
				mc.NoSpill = true
			case 3: // standard SpongeFiles, mostly remote
				mc.Sponge = true
				mc.SpongeMemory = 1 * media.GB
			}
			res := RunMacro(kind, mc)
			cells = append(cells, Fig6Cell{Kind: kind, Config: label, Seconds: res.Runtime.Seconds(), Result: res})
		}
	}
	return cells
}

// --- Grep variance ---------------------------------------------------------

// GrepVarianceResult compares background grep task runtimes when the
// foreground job spills to disk versus to SpongeFiles (§4.2.3: disk
// spilling makes "unlucky" grep tasks take ~2.4× the nominal time).
type GrepVarianceResult struct {
	DiskSecs   []float64
	SpongeSecs []float64
}

// Summary returns (median, max) of a sample.
func summary(xs []float64) (med, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2], s[len(s)-1]
}

// MedianMax exposes summary for reporting.
func MedianMax(xs []float64) (float64, float64) { return summary(xs) }

// GrepVariance runs the median job (the heaviest spiller) with the
// background grep under both spill modes and collects grep task times.
func GrepVariance(sizeFactor float64) GrepVarianceResult {
	disk := RunMacro(Median, MacroConfig{
		NodeMemory: 16 * media.GB, Contention: true, SizeFactor: sizeFactor,
	})
	spg := RunMacro(Median, MacroConfig{
		NodeMemory: 16 * media.GB, Sponge: true, Contention: true, SizeFactor: sizeFactor,
	})
	return GrepVarianceResult{DiskSecs: disk.GrepTaskSecs, SpongeSecs: spg.GrepTaskSecs}
}

// --- Failure analysis --------------------------------------------------------

// FailureTable reproduces §4.3's model: P = 1 − e^(−N·t/MTTF) with
// MTTF = 100 months and t = 120 minutes, over machine counts.
func FailureTable() []failure.Row {
	return failure.Table(120*simtime.Minute, failure.PaperMTTF(),
		[]int{1, 2, 5, 10, 20, 40})
}

// --- Formatting --------------------------------------------------------------

// FormatTable renders rows of columns with aligned widths.
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// HumanBytes formats virtual bytes compactly.
func HumanBytes(v float64) string {
	switch {
	case v >= float64(media.GB):
		return fmt.Sprintf("%.1fGB", v/float64(media.GB))
	case v >= float64(media.MB):
		return fmt.Sprintf("%.1fMB", v/float64(media.MB))
	case v >= float64(media.KB):
		return fmt.Sprintf("%.1fKB", v/float64(media.KB))
	}
	return fmt.Sprintf("%.0fB", v)
}
