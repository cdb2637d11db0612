package scenario

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/leakcheck"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

func TestSeedSuiteShape(t *testing.T) {
	suite := SeedSuite()
	if len(suite.Cases) < 10 {
		t.Fatalf("seed suite has %d cases, want >= 10", len(suite.Cases))
	}
	names := map[string]bool{}
	quick := 0
	for i := range suite.Cases {
		cs := &suite.Cases[i]
		if names[cs.Name] {
			t.Errorf("duplicate case name %s", cs.Name)
		}
		names[cs.Name] = true
		if err := cs.Validate(); err != nil {
			t.Errorf("case %s: %v", cs.Name, err)
		}
		if cs.Quick {
			quick++
		}
	}
	if quick == 0 {
		t.Error("no quick cases — the CI smoke subset is empty")
	}
	// The acceptance pair: a kill-the-tracker-leader case asserting no
	// chunk lost, and a partition case asserting digest-equal output.
	for _, required := range []string{"tracker-failover-mid-job", "partition-mid-job"} {
		if !names[required] {
			t.Errorf("seed suite missing required case %s", required)
		}
	}
}

// TestSeedAssertedMetricsExist scrapes a live registry wired the way
// RunCase wires one — sponge service, fault transport, wire transport,
// scenario gauges, plus one NodeCombine job for the mr_* family — and
// checks that every series id the seed suite asserts on is present.
// This is the tripwire for metric renames: renaming an obs series
// without updating the seed cases fails here, not silently in CI.
func TestSeedAssertedMetricsExist(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	cfg.SpongeMemory = 2 * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	reg := obs.NewRegistry()
	scfg := sponge.DefaultConfig()
	scfg.Metrics = reg
	svc := sponge.Start(c, scfg)
	// No children here: an empty address map routes everything through
	// the sim fallback, but still registers every transport series.
	svc.SetTransport(sponge.NewFaultTransport(
		wire.NewTransportOptions(map[int]string{}, svc.Transport(), wire.TransportOptions{Metrics: reg}),
		sponge.FaultConfig{Seed: 1}))

	rc := &RunContext{
		Case:        &Case{Name: "metric-probe"},
		Cluster:     c,
		Svc:         svc,
		Reg:         reg,
		digestMatch: reg.Gauge("scenario_output_digest_match"),
		workloadOK:  reg.Gauge("scenario_workload_ok"),
	}
	// mr_node_combine_* series only exist once a NodeCombine job has
	// started; run a tiny one.
	var wlErr error
	sim.Spawn("probe", func(p *simtime.Proc) {
		wlErr = WordCountWorkload{Records: 2000, Vocab: 40, NodeCombine: true}.Run(rc, p)
	})
	sim.MustRun()
	if wlErr != nil {
		t.Fatalf("probe workload: %v", wlErr)
	}

	scrape, err := obs.ParseText(reg.Text())
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	for _, cs := range SeedSuite().Cases {
		for _, a := range cs.Assert {
			if _, ok := scrape[a.Metric]; !ok {
				t.Errorf("case %s asserts %q, which no live registry scrape exposes", cs.Name, a.Metric)
			}
		}
	}
}

// TestRunCaseEndToEnd drives one quick seed case through the full
// RunCase machinery — real child processes included — and checks the
// report it produces.
func TestRunCaseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	suite := SeedSuite()
	re := regexp.MustCompile(`^spill-roundtrip-clean$`)
	rep := RunSuite(suite, RunOptions{Filter: re})
	if len(rep.Cases) != 1 {
		t.Fatalf("got %d cases, want 1", len(rep.Cases))
	}
	cr := rep.Cases[0]
	if !cr.Pass {
		t.Fatalf("case failed: %v", cr.Failures)
	}
	if !rep.OK() {
		t.Fatal("report not OK after a passing case")
	}
	if cr.Evidence["scenario_output_digest_match"] != 1 {
		t.Errorf("evidence missing digest match: %v", cr.Evidence)
	}
	if len(cr.Artifacts) != 3 {
		t.Errorf("want 3 child address artifacts, got %v", cr.Artifacts)
	}
}

// leakyWorkload spills a file past every pool — one local chunk, one in
// the child's pool, the rest on the disk fallback, whose chunks carry
// their payload in service buffers — and walks away without deleting it.
type leakyWorkload struct{}

func (leakyWorkload) Name() string { return "leaky" }

func (leakyWorkload) Run(rc *RunContext, p *simtime.Proc) error {
	agent := rc.Svc.NewAgent(rc.Cluster.Nodes[0])
	defer agent.Close()
	f := agent.Create(p, "leaky")
	if err := f.Write(p, make([]byte, 4*rc.Svc.ChunkReal())); err != nil {
		return err
	}
	return f.Close(p)
}

// The runner's other teardown invariant: a case whose assertions all
// hold still fails when its service ends with chunk buffers out.
func TestRunCaseFailsOnOutstandingBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	cr := RunCase(Case{
		Name:     "leaky",
		Spec:     Spec{Nodes: 1, PoolChunks: 1, LocalChunks: 1},
		Workload: leakyWorkload{},
		Assert:   []Assertion{{Metric: "scenario_workload_ok", Op: "==", Value: 1}},
	}, RunOptions{})
	if cr.Pass || len(cr.Failures) != 1 || !strings.Contains(cr.Failures[0], "2 chunk buffers outstanding") {
		t.Fatalf("pass = %v, failures = %q; want the one buffer leak", cr.Pass, cr.Failures)
	}
}

// leakyGoroutine starts a goroutine that outlives the case.
type leakyGoroutine struct{ release chan struct{} }

func (leakyGoroutine) Name() string { return "leaky-goroutine" }

func (w leakyGoroutine) Run(rc *RunContext, p *simtime.Proc) error {
	go func() { <-w.release }()
	return nil
}

// The third teardown invariant: a case that leaves a goroutine behind
// fails, however clean its evidence.
func TestRunCaseFailsOnLeakedGoroutine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	w := leakyGoroutine{release: make(chan struct{})}
	defer close(w.release)
	cr := RunCase(Case{
		Name:     "leaky-goroutine",
		Spec:     Spec{Nodes: 1},
		Workload: w,
		Assert:   []Assertion{{Metric: "scenario_workload_ok", Op: "==", Value: 1}},
	}, RunOptions{})
	if cr.Pass || len(cr.Failures) != 1 || !strings.Contains(cr.Failures[0], "1 more than it started with") {
		t.Fatalf("pass = %v, failures = %q; want the one goroutine leak", cr.Pass, cr.Failures)
	}
}

// leakyFD opens a file and keeps it reachable past the case.
type leakyFD struct{ f *os.File }

func (*leakyFD) Name() string { return "leaky-fd" }

func (w *leakyFD) Run(rc *RunContext, p *simtime.Proc) error {
	var err error
	w.f, err = os.Open(os.DevNull)
	return err
}

// The fourth teardown invariant: a case that leaves a descriptor open
// fails, however clean its evidence.
func TestRunCaseFailsOnLeakedFD(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	if _, ok := leakcheck.Snapshot(); !ok {
		t.Skip("no /proc/self to count descriptors in")
	}
	w := &leakyFD{}
	defer func() { w.f.Close() }()
	cr := RunCase(Case{
		Name:     "leaky-fd",
		Spec:     Spec{Nodes: 1},
		Workload: w,
		Assert:   []Assertion{{Metric: "scenario_workload_ok", Op: "==", Value: 1}},
	}, RunOptions{})
	if cr.Pass || len(cr.Failures) != 1 || !strings.Contains(cr.Failures[0], "descriptors") {
		t.Fatalf("pass = %v, failures = %q; want the one descriptor leak", cr.Pass, cr.Failures)
	}
}

// A job workload fires only pre-write and post-read, so an event
// anchored mid-write never lands: the case fails and names it, however
// clean its evidence.
func TestRunCaseFailsOnUnfiredPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	cr := RunCase(Case{
		Name:     "unfired-phase",
		Spec:     Spec{Nodes: 1},
		Faults:   []FaultEvent{{Phase: PhaseMidWrite, Op: OpKillTracker}},
		Workload: WordCountWorkload{Records: 2000, Vocab: 40},
		Assert:   []Assertion{{Metric: "scenario_workload_ok", Op: "==", Value: 1}},
	}, RunOptions{})
	want := "fault kill-tracker at phase mid-write never applied"
	if cr.Pass || len(cr.Failures) != 1 || !strings.Contains(cr.Failures[0], want) {
		t.Fatalf("pass = %v, failures = %q; want the one %q", cr.Pass, cr.Failures, want)
	}
}

func TestValidateRejectsUnknownPhase(t *testing.T) {
	cs := Case{
		Name:     "typo",
		Faults:   []FaultEvent{{Phase: "mid_write", Op: OpKillTracker}},
		Workload: leakyWorkload{},
		Assert:   []Assertion{{Metric: "scenario_workload_ok", Op: "==", Value: 1}},
	}
	if err := cs.Validate(); err == nil || !strings.Contains(err.Error(), `"mid_write"`) {
		t.Fatalf("Validate = %v; want the unknown phase \"mid_write\" rejected", err)
	}
}
