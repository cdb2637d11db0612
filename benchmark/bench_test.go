package main

import (
	"os"
	"regexp"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/scenario"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// TestMain lets the test binary double as the child daemon, as the
// harness tests in internal/scenario do (Spawn re-executes it with the
// serve subcommand), and as the macro-sim worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			scenario.ServeCmd(os.Args[2:])
			return
		case "macro-pass":
			os.Exit(macroPassMain(os.Args[2:]))
		}
	}
	os.Exit(m.Run())
}

// one runs one of everything: a set-up cycle, the kept set-up, one
// iteration.
var one = &shape{setupCycles: 1, warmup: 0, iters: 1}

// tinyEnv builds a tiny-size env rooted in a temp dir and restores the
// working directory when the test ends.
func tinyEnv(t *testing.T) *env {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(t.TempDir(), 7, tiny)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.cleanup()
		os.Chdir(wd)
	})
	return e
}

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func names(defs []metricDef) map[string]bool {
	out := map[string]bool{}
	for _, d := range defs {
		out[d.Name] = true
	}
	return out
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// holds the metric names it emits against BENCHMARK.json: the
// end-to-end set must match on every workload, every per-layer name
// emitted must be listed, and every listed per-layer name must be
// emitted by some workload.
func TestSmoke(t *testing.T) {
	sp := loadRepoSpec(t)
	endToEnd, perLayer := names(sp.EndToEnd), names(sp.PerLayer)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(sp.Workloads), len(workloads))
	}
	emitted := map[string]bool{}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the table", i, sp.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := run(runOptions{workload: w.name, seconds: 1, shape: one}, tinyEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted != 3 {
				t.Fatalf("attempted %d, failed %d (%v); want 3 and 0", res.attempted, res.failed, res.firstErr)
			}
			for name, v := range res.metrics {
				if !endToEnd[name] {
					t.Errorf("emitted %s, which BENCHMARK.json does not list as end-to-end", name)
				}
				if v <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", name, v)
				}
			}
			if len(res.metrics) != len(endToEnd) {
				t.Errorf("emitted %d end-to-end metrics, BENCHMARK.json lists %d", len(res.metrics), len(endToEnd))
			}

			spans := t.TempDir() + "/spans.json"
			res, err = run(runOptions{workload: w.name, seconds: 1, trace: true, traceOut: spans, shape: one}, tinyEnv(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("traced run: %d failed operations: %v", res.failed, res.firstErr)
			}
			for name := range res.metrics {
				if !perLayer[name] {
					t.Errorf("emitted %s, which BENCHMARK.json does not list as per-layer", name)
				}
				emitted[name] = true
			}
			if pct := res.metrics["trace.span_sum_pct"]; pct < 90 || pct > 110 {
				t.Errorf("named layers cover %.1f%% of the traced iteration, want within 10%%", pct)
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("no spans written: %v", err)
			}
		})
	}
	for name := range perLayer {
		if !emitted[name] {
			t.Errorf("BENCHMARK.json lists per-layer metric %s, which no workload emitted", name)
		}
	}
}

// TestSpecNames checks BENCHMARK.json against the name and unit rules
// of the driver's contract.
func TestSpecNames(t *testing.T) {
	sp := loadRepoSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range sp.EndToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks the unit rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range sp.PerLayer {
		check(d.Name)
	}
}

// corruptingTransport flips one byte of every chunk read back, through
// the same seam the tracer uses.
type corruptingTransport struct{ inner sponge.Transport }

func (c corruptingTransport) Peer(node int) sponge.Peer {
	return corruptingPeer{c.inner.Peer(node)}
}

type corruptingPeer struct{ sponge.Peer }

func (c corruptingPeer) Read(p *simtime.Proc, to *cluster.Node, handle int, buf []byte) (int, error) {
	n, err := c.Peer.Read(p, to, handle, buf)
	if n > 0 {
		buf[n/2] ^= 0xFF
	}
	return n, err
}

// TestCorruptReadBackIsAFailedOperation proves the self-check is live:
// a read-back that differs from the payload is counted as a failed
// operation, not reported as a time.
func TestCorruptReadBackIsAFailedOperation(t *testing.T) {
	e := tinyEnv(t)
	inst, err := setupSpill(e, false)
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*spillInstance)
	defer s.close()
	s.svc.SetTransport(corruptingTransport{s.tt})
	out := &outcome{metrics: map[string]float64{}, detail: map[string]dist{}}
	measure(e, s, out, 1, 1)
	if out.attempted != 1 || out.failed != 1 {
		t.Fatalf("attempted %d, failed %d; want 1 and 1", out.attempted, out.failed)
	}
	t.Log("reported:", out.firstErr)
}

// TestVerdict pins compare's three verdicts.
func TestVerdict(t *testing.T) {
	def := metricDef{Name: "iter_wall_s", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{1.01, 1.00, 1.02, 0.99, 1.00}, "ok"},
		{"slower", []float64{1.20, 1.21, 1.19, 1.22, 1.20}, "REGRESSION"},
		{"noisy", []float64{0.80, 1.00, 1.25, 0.90, 1.10}, "unresolved"},
		{"faster", []float64{0.50, 0.51, 0.49, 0.50, 0.52}, "ok"},
	} {
		if got, _ := verdict(steady, tc.b, def); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
