package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The run shape, fixed for every workload (README.md, "Statistic and
// sizing rules"): setupCycles cold set-up cycles whose median is
// setup_s, one more set-up kept for the loop, warmupIters untimed
// iterations, then a closed loop of a fixed number of verified
// iterations — --seconds divided by the workload's calibrated iteration
// time, so that every run of a workload does the same work and counts
// and simulated time divide exactly.
const (
	setupCycles = 7
	warmupIters = 3
	// minIters keeps a median meaningful however short --seconds is.
	minIters = 5
	// overrun is the safety valve on a machine much slower than the
	// sandbox the iteration times were calibrated on: the loop stops
	// once it has run this many times --seconds, and says so.
	overrun = 1.5
)

// size selects a workload's input scale: full for measurement, tiny
// for the smoke tests.
type size int

const (
	full size = iota
	tiny
)

// env is what one run hands to its workload: where to put files, the
// input seed, the size, and the tracer every decorator reports to.
type env struct {
	seed int64
	size size
	tr   *tracer
	// exe is the binary re-executed as the child daemons (its `serve`
	// subcommand is scenario.ServeCmd).
	exe string
	// tmp is the run's scratch directory, relative to the working
	// directory: the run chdirs next to it so that unix-socket paths
	// stay under the 108-byte sun_path limit wherever the checkout is.
	tmp string

	mu       sync.Mutex
	cleanups []func()
}

// onCleanup registers fn to run at teardown — on success, on error and
// on SIGINT alike. Functions run in reverse order, once.
func (e *env) onCleanup(fn func()) {
	e.mu.Lock()
	e.cleanups = append(e.cleanups, fn)
	e.mu.Unlock()
}

// cleanup runs every registered teardown function that has not run.
func (e *env) cleanup() {
	e.mu.Lock()
	fns := e.cleanups
	e.cleanups = nil
	e.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// dir creates and returns a fresh scratch directory.
func (e *env) dir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// iterStats is what one iteration reports beside its verdict. A
// workload that runs its iterations in worker processes fills wall and
// mallocs from the worker's own measurement; zero means "as measured
// around the call".
type iterStats struct {
	virtual float64 // simulated seconds covered
	wall    float64
	mallocs uint64
}

// instance is one set-up workload stack, ready to iterate.
type instance interface {
	// iterate runs one closed-loop iteration and verifies its output. An
	// error is a failed operation, not a reason to stop.
	iterate() (iterStats, error)
	// pids lists the child daemons' process IDs.
	pids() []int
	// workerRSSMiB is the largest peak resident set among the worker
	// processes that have come and gone (0 for workloads without).
	workerRSSMiB() float64
	// markBase marks the start of the traced section: the layer counts
	// finish reports are per iteration since this call.
	markBase()
	// finish runs the end-of-run checks that need the stack alive
	// (tier counters, leaked chunks) and adds the workload's own layer
	// counts to m.
	finish(m map[string]float64) error
	// close tears everything down and verifies nothing is left behind.
	close() error
}

// workload is one entry of the benchmark's workload table. iterSeconds
// is one iteration's wall time as calibrated on the 2-vCPU sandbox
// (README.md, "Calibration record"); it only sizes the iteration count.
type workload struct {
	name        string
	iterSeconds float64
	setup       func(e *env) (instance, error)
}

// workloads lists the workloads in BENCHMARK.json order.
var workloads = []workload{
	{"spill-tcp-1m", 0.158, func(e *env) (instance, error) { return setupSpill(e, false) }},
	{"spill-samehost-1m", 0.126, func(e *env) (instance, error) { return setupSpill(e, true) }},
	{"job-wordcount-nc", 0.55, setupJob},
	{"macro-sim", 0.97, setupMacro},
}

// shape is how much of everything one run does.
type shape struct {
	setupCycles, warmup, iters int
}

// shape returns the run shape for a timed section of the given length:
// the fixed cycle and warm-up counts, and the iteration count the
// workload's calibrated iteration time gives.
func (w workload) shape(seconds float64) shape {
	n := int(seconds/w.iterSeconds + 0.5)
	if n < minIters {
		n = minIters
	}
	return shape{setupCycles: setupCycles, warmup: warmupIters, iters: n}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dist summarises a sample: the statistics every timing is reported
// with.
type dist struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P95    float64 `json:"p95"`
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarise(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return dist{N: len(s), Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75), P95: quantile(s, 0.95)}
}

// outcome is everything one run measured.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
	// detail carries the quartiles, p95 and sample count behind each
	// timing metric reported as a median.
	detail map[string]dist
}

func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// runOptions are the command-line knobs of one run.
type runOptions struct {
	workload string
	seconds  float64
	trace    bool
	// traceOut is where a traced run writes its spans.
	traceOut string
	// shape overrides the run shape derived from seconds; the smoke
	// tests run one of everything.
	shape *shape
}

// run executes one benchmark run and returns what it measured. The
// caller owns e's teardown (so that a signal handler can share it).
func run(o runOptions, e *env) (*outcome, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	out := &outcome{metrics: map[string]float64{}, detail: map[string]dist{}}
	e.tr.on = o.trace
	sh := w.shape(o.seconds)
	if o.shape != nil {
		sh = *o.shape
	}

	// Cold set-up cycles: build, spawn, dial, generate, one verified
	// iteration, full teardown.
	var setups []float64
	for c := 0; c < sh.setupCycles; c++ {
		start := time.Now()
		inst, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("set-up cycle %d: %w", c, err)
		}
		out.op(nil) // setup's first iteration verified, or setup had failed
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("set-up cycle %d teardown: %w", c, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.detail["setup_s"] = summarise(setups)

	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out.op(nil)
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	warmStart := e.tr.now()
	for i := 0; i < sh.warmup; i++ {
		_, err := inst.iterate()
		out.op(err)
	}
	e.tr.leaf("warmup", warmStart, e.tr.now())

	if o.trace {
		if err := runTraced(o, e, inst, out, sh.iters); err != nil {
			return nil, err
		}
	} else {
		runtime.GC() // every run starts its timed section from a collected heap
		sec := measure(e, inst, out, sh.iters, o.seconds)
		out.detail["iter_wall_s"] = summarise(sec.walls)
		out.detail["iter_virtual_s"] = summarise(sec.virtuals)
		out.metrics["setup_s"] = out.detail["setup_s"].Median
		out.metrics["iter_wall_s"] = out.detail["iter_wall_s"].Median
		out.metrics["iter_virtual_s"] = out.detail["iter_virtual_s"].Median
		out.metrics["allocs_per_iter"] = float64(sec.mallocs) / float64(len(sec.walls))
		out.metrics["peak_rss_mib"] = peakRSSMiB(inst.pids()) + inst.workerRSSMiB()
		if err := inst.finish(map[string]float64{}); err != nil {
			out.op(err)
		}
	}

	closed = true
	if err := inst.close(); err != nil {
		out.op(err)
	}
	if o.trace && o.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			return nil, err
		}
		if err := e.tr.write(o.traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

// section is one timed stretch of the iteration loop.
type section struct {
	walls, virtuals []float64
	mallocs         uint64
}

func (s *section) add(t section) {
	s.walls = append(s.walls, t.walls...)
	s.virtuals = append(s.virtuals, t.virtuals...)
	s.mallocs += t.mallocs
}

// measure runs n verified iterations back to back.
func measure(e *env, inst instance, out *outcome, n int, seconds float64) section {
	var sec section
	tr := e.tr
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for len(sec.walls) < n {
		if len(sec.walls) >= minIters && time.Since(start).Seconds() > overrun*seconds {
			fmt.Fprintf(os.Stderr, "benchmark: stopping after %d of %d iterations: %.0f s is over %.1f times --seconds\n",
				len(sec.walls), n, time.Since(start).Seconds(), overrun)
			break
		}
		tr.iter++
		id := tr.begin("iteration")
		t0 := time.Now()
		st, err := inst.iterate()
		wall := time.Since(t0).Seconds()
		tr.end(id)
		if st.wall > 0 {
			// The worker timed the iteration itself; the span covers what
			// iter_wall_s covers.
			wall = st.wall
			if id >= 0 {
				tr.spans[id].Start = tr.spans[id].End - int64(wall*1e9)
			}
		}
		sec.walls = append(sec.walls, wall)
		sec.virtuals = append(sec.virtuals, st.virtual)
		sec.mallocs += st.mallocs
		out.op(err)
	}
	runtime.ReadMemStats(&ms)
	sec.mallocs += ms.Mallocs - mallocs
	return sec
}
