package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"time"

	"spongefiles/internal/bench"
	"spongefiles/internal/media"
	"spongefiles/internal/pig"
)

// macro-sim: one pass of the paper's three skew-vulnerable jobs (§4.2.1)
// through bench.RunMacro, in BENCH_macro.json's cell — 4 GB nodes,
// sponge spilling, 8 workers, SizeFactor 0.05. Pure simulator: no
// sockets, no children. It is the bypass workload for every wire change
// and the target workload for the Pig tuple/bag and simtime work of
// ROADMAP item 5.
//
// The corpora are seeded inside internal/workload, not by --seed: every
// seed runs the same inputs here, which is what lets the outputs be
// pinned to goldens.
var (
	macroKinds = []bench.JobKind{bench.Median, bench.Anchortext, bench.SpamQuantiles}
	macroSpans = []string{"macro.median", "macro.anchortext", "macro.spam"}
)

// macroGolden pins one job's answer at one size: its straggler's input
// bytes and spilled chunks, and the median value or the SHA-256 over the
// sorted groups' encoded result tuples. Frequent Anchortext pins its
// group count instead of a digest: pig.TopK's sketch prunes candidates
// in map-iteration order, so its (term, count) rows differ from process
// to process at the parent commit and only their shape can be checked —
// as internal/bench's own test does. Captured at the commit that added
// the benchmark; the tiny size is internal/bench's seed-golden cell
// (seedgolden_test.go: SizeFactor 0.02, 8 workers, 4 GB) and repeats
// that file's numbers.
type macroGolden struct {
	stragglerInput, stragglerChunks int64
	median                          float64
	groups                          string
	groupCount                      int
}

var macroGoldens = map[size]map[bench.JobKind]macroGolden{
	full: {
		bench.Median:        {520093696, 496, 496399.091, "", 0},
		bench.Anchortext:    {137011840, 131, 0, "", 8},
		bench.SpamQuantiles: {192472832, 184, 0, "25f23cba711b7300521a61a036335653f1ece689914d0fb3562eb3da26df9852", 100},
	},
	tiny: {
		bench.Median:        {208034304, 199, 497005.355, "", 0},
		bench.Anchortext:    {54804736, 53, 0, "", 8},
		bench.SpamQuantiles: {77451008, 74, 0, "23e37538dcc310fd36515a5007e5d9da4e169700129b4aac02217f6933215c07", 100},
	},
}

var macroSizeFactor = map[size]float64{full: 0.05, tiny: 0.02}

// Every pass runs in a worker process of its own (`benchmark macro-pass`).
// bench.RunMacro leaves its simulation's parked process goroutines — and
// through them the whole simulated cluster, about 22 MB and 76
// goroutines a pass at this size — behind for good, so a loop of passes
// in one process grows its heap without bound, and on the sandbox the
// cost of faulting in ever-new memory swamps the pass itself after a
// dozen passes (README.md, "Why macro-sim forks"). One process per pass
// gives every pass the same heap to start from; the worker times the
// pass and counts its allocations itself, so process start-up is not in
// iter_wall_s.

// macroJob is one job's share of a pass, as the worker reports it.
type macroJob struct {
	WallNs    int64   `json:"wall_ns"`
	Allocs    uint64  `json:"allocs"`
	Virtual   float64 `json:"virtual_s"`
	Straggler int64   `json:"straggler_chunks"`
}

// macroPass is the worker's whole report, printed as one JSON line.
type macroPass struct {
	WallS   float64    `json:"wall_s"`
	Mallocs uint64     `json:"mallocs"`
	Jobs    []macroJob `json:"jobs"`
	Error   string     `json:"error,omitempty"`
}

// macroPassMain is the worker: run the three jobs once each, check
// their answers, report.
func macroPassMain(args []string) int {
	sz := full
	if len(args) > 0 && args[0] == "tiny" {
		sz = tiny
	}
	var rep macroPass
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	first := ms.Mallocs
	start := time.Now()
	for _, kind := range macroKinds {
		before := ms.Mallocs
		t0 := time.Now()
		res, err := runMacro(kind, macroSizeFactor[sz])
		wall := time.Since(t0)
		runtime.ReadMemStats(&ms)
		if err == nil {
			err = checkMacro(kind, res, macroGoldens[sz][kind])
		}
		if err != nil {
			rep.Error = err.Error()
			break
		}
		rep.Jobs = append(rep.Jobs, macroJob{
			WallNs: int64(wall), Allocs: ms.Mallocs - before,
			Virtual: res.Runtime.Seconds(), Straggler: res.StragglerChunks,
		})
	}
	rep.WallS = time.Since(start).Seconds()
	rep.Mallocs = ms.Mallocs - first
	js, _ := json.Marshal(rep)
	fmt.Println(string(js))
	return 0
}

type macroInstance struct {
	e      *env
	maxRSS float64
	// Per-job totals over the traced iterations, indexed like macroKinds.
	wallNs    [3]int64
	allocs    [3]uint64
	virtual   [3]float64
	straggler int64
	iters     int64
}

func setupMacro(e *env) (instance, error) {
	m := &macroInstance{e: e}
	start := e.tr.now()
	if _, err := m.iterate(); err != nil {
		return nil, fmt.Errorf("first iteration: %w", err)
	}
	e.tr.leaf("setup.first_iter", start, e.tr.now())
	return m, nil
}

// groupDigest hashes a Pig job's output: groups in key order, each
// group's tuples in emission order.
func groupDigest(out map[string][]pig.Tuple) string {
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var buf []byte
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		for _, t := range out[k] {
			buf = pig.AppendTuple(buf[:0], t)
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// iterate runs one pass in a worker process and takes over its report.
func (m *macroInstance) iterate() (iterStats, error) {
	tr := m.e.tr
	arg := "full"
	if m.e.size == tiny {
		arg = "tiny"
	}
	cmd := exec.Command(m.e.exe, "macro-pass", arg)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return iterStats{}, fmt.Errorf("macro-pass worker: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		if rss := float64(ru.Maxrss) / 1024; rss > m.maxRSS { // Maxrss is in kB
			m.maxRSS = rss
		}
	}
	var rep macroPass
	if err := json.Unmarshal(outBytes, &rep); err != nil {
		return iterStats{}, fmt.Errorf("macro-pass worker said %q: %w", outBytes, err)
	}
	if rep.Error != "" {
		return iterStats{}, errors.New(rep.Error)
	}
	st := iterStats{wall: rep.WallS, mallocs: rep.Mallocs}
	// The worker's job times become spans ending now, back to back.
	at := tr.now()
	for i := len(rep.Jobs) - 1; i >= 0; i-- {
		j := rep.Jobs[i]
		st.virtual += j.Virtual
		if tr.on {
			tr.leaf(macroSpans[i], at-j.WallNs, at)
			at -= j.WallNs
			m.wallNs[i] += j.WallNs
			m.allocs[i] += j.Allocs
			m.virtual[i] += j.Virtual
			m.straggler += j.Straggler
		}
	}
	if tr.on {
		m.iters++
	}
	return st, nil
}

func (m *macroInstance) workerRSSMiB() float64 { return m.maxRSS }

// checkMacro compares one job's outputs with its golden.
func checkMacro(kind bench.JobKind, res bench.MacroResult, want macroGolden) error {
	if res.StragglerInput != want.stragglerInput || res.StragglerChunks != want.stragglerChunks {
		return fmt.Errorf("%s straggler read %d bytes and spilled %d chunks, golden %d and %d",
			kind, res.StragglerInput, res.StragglerChunks, want.stragglerInput, want.stragglerChunks)
	}
	if len(res.GroupOut) != want.groupCount {
		return fmt.Errorf("%s produced %d groups, golden %d", kind, len(res.GroupOut), want.groupCount)
	}
	switch kind {
	case bench.Median:
		if res.MedianValue != want.median {
			return fmt.Errorf("median job answered %v, golden %v", res.MedianValue, want.median)
		}
	case bench.Anchortext:
		for lang, rows := range res.GroupOut {
			if len(rows) != 10 {
				return fmt.Errorf("anchortext group %s has %d rows, want 10", lang, len(rows))
			}
			for i, r := range rows {
				if r.Int(1) <= 0 || (i > 0 && r.Int(1) > rows[i-1].Int(1)) {
					return fmt.Errorf("anchortext group %s is not sorted by positive count: %v", lang, rows)
				}
			}
		}
	default:
		if got := groupDigest(res.GroupOut); got != want.groups {
			return fmt.Errorf("%s output digest %s, golden %s", kind, got, want.groups)
		}
	}
	return nil
}

// runMacro turns RunMacro's panic on a failed job into an error, so a
// failure is a failed operation rather than the end of the run.
func runMacro(kind bench.JobKind, sizeFactor float64) (res bench.MacroResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", kind, r)
		}
	}()
	return bench.RunMacro(kind, bench.MacroConfig{
		NodeMemory: 4 * media.GB,
		Sponge:     true,
		SizeFactor: sizeFactor,
		Workers:    8,
	}), nil
}

func (m *macroInstance) pids() []int { return nil }

func (m *macroInstance) markBase() {
	*m = macroInstance{e: m.e, maxRSS: m.maxRSS}
}

func (m *macroInstance) finish(out map[string]float64) error {
	for i, n := range macroSpans {
		out[n+"_s"] = perIter(float64(m.wallNs[i])/1e9, m.iters)
		out[n+"_allocs"] = perIter(float64(m.allocs[i]), m.iters)
		out[n+"_virtual_s"] = perIter(m.virtual[i], m.iters)
	}
	out["macro.straggler_chunks_n"] = perIter(float64(m.straggler), m.iters)
	return nil
}

func perIter(total float64, iters int64) float64 {
	if iters == 0 {
		return 0
	}
	return total / float64(iters)
}

func (m *macroInstance) close() error { return nil }
