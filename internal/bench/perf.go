package bench

import (
	"encoding/json"
	"fmt"
	"testing"

	"spongefiles/internal/media"
)

// The macro perf harness measures the simulator's *host-level* cost —
// wall-clock, allocations and bytes per job run — for the three paper
// jobs. cmd/benchtab's perf subcommand emits the report as
// BENCH_macro.json.

// PerfCase is one job's measurement, straight from testing.Benchmark.
type PerfCase struct {
	Job         string  `json:"job"`
	Iterations  int     `json:"iterations"`
	MsPerOp     float64 `json:"ms_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// PerfReport is the full macro perf run, serialized to BENCH_macro.json.
type PerfReport struct {
	Description string     `json:"description"`
	SizeFactor  float64    `json:"size_factor"`
	Workers     int        `json:"workers"`
	Cases       []PerfCase `json:"cases"`
}

// perfConfig is the fixed macro cell the harness measures: sponge
// spilling on small-memory nodes, the configuration that spills hardest.
func perfConfig(sizeFactor float64, workers int) MacroConfig {
	return MacroConfig{
		NodeMemory: 4 * media.GB,
		Sponge:     true,
		SizeFactor: sizeFactor,
		Workers:    workers,
	}
}

func measureMacro(kind JobKind, mc MacroConfig) PerfCase {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			RunMacro(kind, mc)
		}
	})
	return PerfCase{
		Job:         kind.String(),
		Iterations:  r.N,
		MsPerOp:     float64(r.NsPerOp()) / 1e6,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// RunPerf benchmarks the three macro jobs and returns the report.
func RunPerf(sizeFactor float64, workers int) PerfReport {
	rep := PerfReport{
		Description: "host-level cost of one macro job run (4GB nodes, sponge spilling)",
		SizeFactor:  sizeFactor,
		Workers:     workers,
	}
	for _, kind := range []JobKind{Median, Anchortext, SpamQuantiles} {
		rep.Cases = append(rep.Cases, measureMacro(kind, perfConfig(sizeFactor, workers)))
	}
	return rep
}

// JSON renders the report as indented JSON (the BENCH_macro.json format).
func (r PerfReport) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // plain structs: cannot happen
	}
	return append(out, '\n')
}

// Rows formats the report as table rows for benchtab.
func (r PerfReport) Rows() [][]string {
	var rows [][]string
	for _, c := range r.Cases {
		rows = append(rows, []string{
			c.Job,
			fmt.Sprintf("%.1f ms", c.MsPerOp),
			fmt.Sprintf("%d", c.AllocsPerOp),
			fmt.Sprintf("%d", c.BytesPerOp),
		})
	}
	return rows
}

// PerfHeader matches Rows for FormatTable.
var PerfHeader = []string{"job", "time", "allocs/op", "bytes/op"}
