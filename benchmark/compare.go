package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is BENCHMARK.json: the contract the driver runs the benchmark
// by, and the source of the bounds compare applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// loadRecords reads a JSON-lines file written with --out and returns
// the untraced runs' values per workload and metric.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Trace {
			continue
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s had %d failed operations; nothing to compare", path, n, r.Workload, r.Result.Failed)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, mv := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
		}
	}
	return out, sc.Err()
}

// verdict compares set b against set a for one metric under its bound.
// Following the choosing-metrics rule: a regression is b's median worse
// than a's by more than the bound; when either set's own quartile range
// is wider than the bound the pair is unresolved rather than unchanged,
// unless every run of b reads better than every run of a.
func verdict(a, b []float64, def metricDef) (status string, change float64) {
	da, db := summarise(a), summarise(b)
	worse := func(x, y float64) bool { // x worse than y
		if def.Better == "higher" {
			return x < y
		}
		return x > y
	}
	if da.Median != 0 {
		change = (db.Median - da.Median) / da.Median
	}
	worsening := change
	if def.Better == "higher" {
		worsening = -change
	}
	if worsening > def.Bound {
		return "REGRESSION", change
	}
	spread := func(d dist) float64 {
		if d.Median == 0 {
			return 0
		}
		return (d.Q3 - d.Q1) / d.Median
	}
	if spread(da) > def.Bound || spread(db) > def.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if !worse(y, x) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved", change
		}
	}
	return "ok", change
}

// compareMain implements `benchmark compare a.jsonl b.jsonl`: one row
// per workload × end-to-end metric; exit 1 on any regression.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.jsonl B.jsonl   (files written with --out; run from the repository root)")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	a, err := loadRecords(args[0])
	if err == nil {
		var b map[string]map[string][]float64
		if b, err = loadRecords(args[1]); err == nil {
			return printComparison(sp, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func printComparison(sp *spec, a, b map[string]map[string][]float64) int {
	names := make([]string, 0, len(a))
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchmark compare: the two files share no workload")
		return 2
	}
	fmt.Printf("%-18s %-16s %5s  %-34s %-34s %8s  %s\n", "workload", "metric", "bound", "A median [q1, q3] n", "B median [q1, q3] n", "change", "verdict")
	code := 0
	for _, w := range names {
		for _, def := range sp.EndToEnd {
			va, vb := a[w][def.Name], b[w][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			status, change := verdict(va, vb, def)
			if status == "REGRESSION" {
				code = 1
			}
			cell := func(v []float64) string {
				d := summarise(v)
				return fmt.Sprintf("%.6g [%.6g, %.6g] %d", d.Median, d.Q1, d.Q3, d.N)
			}
			fmt.Printf("%-18s %-16s %4.1f%%  %-34s %-34s %+7.2f%%  %s\n", w, def.Name, 100*def.Bound, cell(va), cell(vb), 100*change, status)
		}
	}
	return code
}
