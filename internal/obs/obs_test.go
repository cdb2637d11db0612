package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentSum(t *testing.T) {
	var c Counter
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(9)
	if g.Value() != 9 {
		t.Fatalf("Set: %d", g.Value())
	}
	g.Add(-2)
	if g.Value() != 7 {
		t.Fatalf("Add: %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("occ", []int64{1, 2, 4})
	for _, v := range []int64{0, 1, 2, 2, 3, 5, 100} {
		h.Observe(v)
	}
	// bucket counts: le=1 -> {0,1}=2; le=2 -> +{2,2}=4; le=4 -> +{3}=5; +Inf -> +{5,100}=7
	want := []int64{2, 4, 5, 7}
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 || h.Sum() != 113 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestHistogramCountMatchesInfBucketUnderObserve: a scrape taken while
// other goroutines Observe must expose a _count equal to its +Inf bucket,
// as the exposition format requires of one histogram sample.
func TestHistogramCountMatchesInfBucketUnderObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{1, 2, 4})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(v)
				}
			}
		}(int64(w * 2))
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	torn := 0
	for i := 0; i < 2000; i++ {
		var inf, count int64
		for _, s := range r.Snapshot() {
			switch s.ID {
			case `h_bucket{le="+Inf"}`:
				inf = s.Value
			case "h_count":
				count = s.Value
			}
		}
		if inf != count {
			torn++
		}
	}
	if torn > 0 {
		t.Fatalf("%d of 2000 snapshots exposed h_count != h_bucket{le=\"+Inf\"}", torn)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []int64{2, 2})
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", L("node", "1"))
	b := r.Counter("hits", L("node", "1"))
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := r.Counter("hits", L("node", "2"))
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	// Label order must not matter for identity.
	d := r.Gauge("depth", L("a", "1"), L("b", "2"))
	e := r.Gauge("depth", L("b", "2"), L("a", "1"))
	if d != e {
		t.Fatal("label order changed series identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("x")
}

func TestGaugeFuncReplace(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("free", func() int64 { return 1 })
	r.GaugeFunc("free", func() int64 { return 42 })
	v, ok := r.Lookup("free")
	if !ok || v != 42 {
		t.Fatalf("Lookup(free) = %d, %v; want 42, true", v, ok)
	}
}

func TestTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("sponge_spill_chunks_total", L("kind", "local_mem")).Add(3)
	r.Counter("sponge_spill_chunks_total", L("kind", "remote_mem")).Add(7)
	r.Gauge("sponge_pool_free_chunks", L("node", "0")).Set(12)
	r.GaugeFunc("sponge_buf_outstanding", func() int64 { return 2 })
	r.Histogram("sponge_ra_occupancy", []int64{1, 2, 4}).Observe(3)

	text := r.Text()
	if !strings.Contains(text, "# TYPE sponge_spill_chunks_total counter") {
		t.Fatalf("missing TYPE comment:\n%s", text)
	}
	parsed, err := ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	checks := map[string]int64{
		`sponge_spill_chunks_total{kind="local_mem"}`:  3,
		`sponge_spill_chunks_total{kind="remote_mem"}`: 7,
		`sponge_pool_free_chunks{node="0"}`:            12,
		`sponge_buf_outstanding`:                       2,
		`sponge_ra_occupancy_bucket{le="4"}`:           1,
		`sponge_ra_occupancy_bucket{le="+Inf"}`:        1,
		`sponge_ra_occupancy_sum`:                      3,
		`sponge_ra_occupancy_count`:                    1,
	}
	for id, want := range checks {
		if parsed[id] != want {
			t.Fatalf("%s = %d, want %d\nfull text:\n%s", id, parsed[id], want, text)
		}
	}
	// Two scrapes of identical state must be byte-identical.
	if r.Text() != text {
		t.Fatal("exposition not deterministic")
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	if _, err := ParseText("ok 1\nbroken-line\n"); err == nil {
		t.Fatal("malformed line accepted")
	}
	// WriteText writes integers only: anything else is not a value this
	// package produced, and truncating it would report a wrong count.
	for _, line := range []string{"x NaN", "x +Inf", "x 1e30", "x 2.9"} {
		if got, err := ParseText("ok 1\n" + line + "\n"); err == nil {
			t.Errorf("%q accepted as %d", line, got["x"])
		}
	}
	got, err := ParseText("# comment\n\nx 5\ny{a=\"b\"} 6\n")
	if err != nil {
		t.Fatal(err)
	}
	if got["x"] != 5 || got[`y{a="b"}`] != 6 {
		t.Fatalf("parsed %v", got)
	}
}

func TestRenderNodeTable(t *testing.T) {
	nodes := []NodeSamples{
		{Name: "n1", Samples: map[string]int64{"hits": 3, "misses": 1}},
		{Name: "n2", Samples: map[string]int64{"hits": 4}},
	}
	var b strings.Builder
	if err := RenderNodeTable(&b, nodes); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got:\n%s", out)
	}
	if !strings.Contains(lines[0], "n1") || !strings.Contains(lines[0], "n2") || !strings.Contains(lines[0], "TOTAL") {
		t.Fatalf("header: %q", lines[0])
	}
	hits := lines[1]
	if !strings.HasPrefix(hits, "hits") || !strings.Contains(hits, "7") {
		t.Fatalf("hits row lacks TOTAL 7: %q", hits)
	}
	misses := lines[2]
	if !strings.Contains(misses, "-") {
		t.Fatalf("missing cell should render '-': %q", misses)
	}
	// Prefix filtering drops the misses row.
	b.Reset()
	if err := RenderNodeTable(&b, nodes, "hits"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "misses") {
		t.Fatalf("prefix filter leaked rows:\n%s", b.String())
	}
}

// The hot-path mutators must be allocation-free: they run inside the
// sponge spill path, which is guarded at 0 allocs/op end to end.
func TestMetricOpsSteadyStateAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", L("k", "v"))
	g := r.Gauge("g")
	h := r.Histogram("h", []int64{1, 2, 4, 8})
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(1)
		h.Observe(5)
	}); n != 0 {
		t.Fatalf("metric mutators allocate: %v allocs/op", n)
	}
}
