// Command benchmark is the repository's end-to-end benchmark: four
// closed-loop workloads over the real child-process cluster and the
// simulator, five gated end-to-end metrics, and a per-layer trace taken
// from outside through the packages' public seams. README.md defines
// the workloads, the metrics and the statistic; BENCHMARK.json is the
// contract a driver runs it by.
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//	benchmark compare A.jsonl B.jsonl                            gate two result sets
//	benchmark serve ...                                          child daemon (internal)
//	benchmark macro-pass full|tiny                               macro-sim worker (internal)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"spongefiles/internal/scenario"
)

// buildDir holds everything a run leaves behind inside the checkout
// (binary, Go caches, scratch, span dumps); .gitignore names it.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			scenario.ServeCmd(os.Args[2:])
			return
		case "macro-pass":
			os.Exit(macroPassMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object printed as the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what --out appends: the result line plus what compare and
// the calibration tables need to identify and summarise it.
type record struct {
	Workload string          `json:"workload"`
	Seed     int64           `json:"seed"`
	Seconds  float64         `json:"seconds"`
	Trace    bool            `json:"trace"`
	Result   resultLine      `json:"result"`
	Detail   map[string]dist `json:"detail,omitempty"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed: payload pattern and key stream")
	seconds := fs.Float64("seconds", 30, "length of the timed section")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := fs.String("out", "", "append the run's record to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if _, ok := findWorkload(*name); !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; BENCHMARK.json lists %s\n", *name, strings.Join(spec.workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	outPath := *out
	if outPath != "" && !filepath.IsAbs(outPath) {
		outPath = filepath.Join(root, outPath)
	}

	e, err := newEnv(root, *seed, full)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Children, sockets and spill files must not outlive the run, however
	// it ends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	defer e.cleanup()

	o := runOptions{
		workload: *name,
		seconds:  *seconds,
		trace:    *trace != 0,
		traceOut: filepath.Join(root, buildDir, "trace-"+*name+".json"),
	}
	res, err := run(o, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
		fillMissing(res.metrics, defs)
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: metric %s in BENCHMARK.json was not measured\n", d.Name)
			return 1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark: first failed operation:", res.firstErr)
	}
	printDetail(res)
	if outPath != "" {
		rec := record{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: o.trace, Result: line, Detail: res.detail}
		if err := appendRecord(outPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	e.cleanup()
	js, _ := json.Marshal(line)
	fmt.Println(string(js))
	if res.failed != 0 {
		return 1
	}
	return 0
}

// newEnv creates the run's scratch directory under the checkout's build
// directory and moves the process next to it (see env.tmp).
func newEnv(root string, seed int64, sz size) (*env, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	if err := os.Chdir(scratch); err != nil {
		os.RemoveAll(scratch)
		return nil, err
	}
	e := &env{seed: seed, size: sz, tr: newTracer(), exe: exe, tmp: "."}
	e.onCleanup(func() {
		os.Chdir(root)
		os.RemoveAll(scratch)
	})
	return e, nil
}

// printDetail writes the quartiles, p95 and sample count behind each
// median to standard error, for a human reading along.
func printDetail(res *outcome) {
	names := make([]string, 0, len(res.detail))
	for n := range res.detail {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := res.detail[n]
		fmt.Fprintf(os.Stderr, "%-16s median %.6g  q1 %.6g  q3 %.6g  p95 %.6g  n %d\n", n, d.Median, d.Q1, d.Q3, d.P95, d.N)
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	js, _ := json.Marshal(rec)
	if _, err := f.Write(append(js, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
