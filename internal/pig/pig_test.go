package pig

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
)

func TestValueRoundTrip(t *testing.T) {
	in := Tuple{
		"url-string", int64(-42), 3.25,
		Tuple{"nested", int64(7), Tuple{"deep"}},
	}
	data := AppendTuple(nil, in)
	out := DecodeTuple(data)
	if len(out) != 4 {
		t.Fatalf("decoded %d fields", len(out))
	}
	if out.String(0) != "url-string" || out.Int(1) != -42 || out.Float(2) != 3.25 {
		t.Fatalf("scalar fields corrupt: %v", out)
	}
	n := out.Nested(3)
	if n.String(0) != "nested" || n.Int(1) != 7 || n.Nested(2).String(0) != "deep" {
		t.Fatalf("nested fields corrupt: %v", n)
	}
}

func TestPropertyValueRoundTrip(t *testing.T) {
	f := func(s string, i int64, fl float64) bool {
		in := Tuple{s, i, fl, Tuple{s + "x"}}
		out := DecodeTuple(AppendTuple(nil, in))
		return out.String(0) == s && out.Int(1) == i &&
			(out.Float(2) == fl || fl != fl) && out.Nested(3).String(0) == s+"x"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// cursorOf serializes t and scans it back.
func cursorOf(t Tuple) Cursor { return mustScan(AppendTuple(nil, t)) }

// bagRig builds a one-node cluster and returns a proc-running helper.
func bagRig(t *testing.T, fn func(p *simtime.Proc, node *cluster.Cluster, target spill.Target)) {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.Workers = 1
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	sim.Spawn("t", func(p *simtime.Proc) {
		fn(p, c, spill.NewDiskTarget(c.Nodes[0]))
	})
	sim.MustRun()
}

func TestBagInMemoryIteration(t *testing.T) {
	bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 1<<20, 1<<16)
		b := mm.NewBag("g")
		for i := 0; i < 100; i++ {
			b.Add(Tuple{int64(i)})
		}
		if b.SpilledRuns() != 0 {
			t.Error("small bag spilled")
		}
		it := b.Iterate(p)
		n := 0
		for {
			tu, ok := it.Next(p)
			if !ok {
				break
			}
			if tu.Int(0) != int64(n) {
				t.Fatalf("order broken at %d: %v", n, tu)
			}
			n++
		}
		if n != 100 {
			t.Fatalf("iterated %d", n)
		}
	})
}

func TestBagSpillsUnderPressure(t *testing.T) {
	bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 10_000, 2_000)
		b := mm.NewBag("g")
		seen := map[int64]bool{}
		const n = 500
		for i := 0; i < n; i++ {
			b.Add(Tuple{int64(i), "padding-padding-padding"})
		}
		if b.SpilledRuns() == 0 {
			t.Fatal("bag never spilled under pressure")
		}
		if mm.Used() > 10_000+1_000 {
			t.Fatalf("memory manager let usage reach %d", mm.Used())
		}
		// All tuples survive, exactly once each.
		it := b.Iterate(p)
		for {
			tu, ok := it.Next(p)
			if !ok {
				break
			}
			v := tu.Int(0)
			if seen[v] {
				t.Fatalf("duplicate tuple %d", v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("iterated %d of %d", len(seen), n)
		}
		b.Delete(p)
	})
}

func TestBagMultiPassIteration(t *testing.T) {
	bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 5_000, 1_000)
		b := mm.NewBag("g")
		for i := 0; i < 300; i++ {
			b.Add(Tuple{int64(i), "xxxxxxxxxxxxxxxx"})
		}
		for pass := 0; pass < 3; pass++ {
			it := b.Iterate(p)
			n := 0
			for {
				_, ok := it.Next(p)
				if !ok {
					break
				}
				n++
			}
			if n != 300 {
				t.Fatalf("pass %d saw %d tuples", pass, n)
			}
		}
		b.Delete(p)
	})
}

func TestSortedBagGlobalOrder(t *testing.T) {
	bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 4_000, 1_000)
		b := mm.NewSortedBag("g", func(t Cursor) float64 { return t.Float(0) })
		rng := rand.New(rand.NewSource(7))
		const n = 400
		for i := 0; i < n; i++ {
			b.Add(Tuple{rng.Float64(), "pad-pad-pad-pad-pad"})
		}
		if b.SpilledRuns() == 0 {
			t.Fatal("sorted bag should have spilled (several sorted runs)")
		}
		it := b.Iterate(p)
		prev := -1.0
		count := 0
		for {
			tu, ok := it.Next(p)
			if !ok {
				break
			}
			v := tu.Float(0)
			if v < prev {
				t.Fatalf("sorted iteration out of order: %f after %f", v, prev)
			}
			prev = v
			count++
		}
		if count != n {
			t.Fatalf("iterated %d of %d", count, n)
		}
		b.Delete(p)
	})
}

func TestMemoryManagerSpillsLargestFirst(t *testing.T) {
	bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 20_000, 1_000)
		small := mm.NewBag("small")
		big := mm.NewBag("big")
		for i := 0; i < 20; i++ {
			small.Add(Tuple{int64(i)})
		}
		for i := 0; i < 1000; i++ {
			big.Add(Tuple{int64(i), "lots-of-padding-here-lots"})
		}
		if big.SpilledRuns() == 0 {
			t.Fatal("big bag should have spilled")
		}
		if small.SpilledRuns() != 0 {
			t.Fatal("small bag spilled before the big one emptied")
		}
	})
}

// queryRig runs a GroupQuery end to end on a small cluster.
func runQuery(t *testing.T, q *GroupQuery, tuples []Tuple, useSponge bool) (map[string][]Tuple, *mapreduce.JobResult) {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	eng := mapreduce.NewEngine(c, fs)
	svc := sponge.Start(c, sponge.DefaultConfig())

	// Serialize the corpus into per-split generators.
	var blobs [][]byte
	totalReal := 0
	for _, tu := range tuples {
		b := AppendTuple(nil, tu)
		blobs = append(blobs, b)
		totalReal += len(b) + 8
	}
	// Small blocks so the corpus spans several map tasks per node (the
	// node-combine tests need co-located tasks to fold).
	fs.BlockVirtual = media.MB
	fs.AddExisting("/in/q", c.Cfg.V(totalReal))
	blocks := len(fs.Lookup("/in/q").Blocks)
	q.Input = mapreduce.Input{
		File: "/in/q",
		MakeRecords: func(split int) mapreduce.RecordGen {
			return func(emit mapreduce.Emit) {
				per := (len(blobs) + blocks - 1) / blocks
				lo := split * per
				hi := lo + per
				if hi > len(blobs) {
					hi = len(blobs)
				}
				for _, b := range blobs[lo:hi] {
					emit(nil, b)
				}
			}
		},
	}
	factory := spill.DiskFactory()
	if useSponge {
		factory = spill.SpongeFactory(svc)
	}
	conf := q.Compile(cfg.TaskHeap, factory)

	out := map[string][]Tuple{}
	inner := conf.Reduce
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		inner(ctx, key, vals, func(k, v []byte) {
			out[string(k)] = append(out[string(k)], DecodeTuple(v))
			emit(k, v)
		})
	}
	var res *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) {
		res = eng.Submit(conf).Wait(p)
	})
	sim.MustRun()
	if res.Failed {
		t.Fatal("query job failed")
	}
	return out, res
}

func TestTopKQueryEndToEnd(t *testing.T) {
	// Pages with languages and anchortext; term t0 most frequent, then t1...
	var tuples []Tuple
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		lang := "en"
		if i%5 == 0 {
			lang = "fr"
		}
		var terms Tuple
		for j := 0; j < 4; j++ {
			// Zipf-flavoured: term index biased to small numbers.
			idx := int(rng.ExpFloat64() * 3)
			if idx > 20 {
				idx = 20
			}
			terms = append(terms, fmt.Sprintf("t%d", idx))
		}
		tuples = append(tuples, Tuple{fmt.Sprintf("url%d", i), lang, terms})
	}
	q := &GroupQuery{
		Name:     "anchortext",
		Project:  []int{1, 2}, // lang, terms
		GroupKey: func(t Cursor) string { return t.String(0) },
		UDF:      TopK(1, 3, 0),
	}
	out, _ := runQuery(t, q, tuples, false)
	if len(out["en"]) != 3 || len(out["fr"]) != 3 {
		t.Fatalf("top-k sizes: en=%d fr=%d", len(out["en"]), len(out["fr"]))
	}
	if out["en"][0].String(0) != "t0" {
		t.Fatalf("most frequent en term = %v, want t0", out["en"][0])
	}
	if out["en"][0].Int(1) < out["en"][1].Int(1) {
		t.Fatal("top-k not sorted by count")
	}
}

func TestQuantilesQueryEndToEnd(t *testing.T) {
	// Spam scores uniform on [0,1) over one dominant domain.
	var tuples []Tuple
	rng := rand.New(rand.NewSource(5))
	var scores []float64
	for i := 0; i < 3000; i++ {
		s := rng.Float64()
		scores = append(scores, s)
		tuples = append(tuples, Tuple{fmt.Sprintf("url%d", i), "bigdomain.com", s, "other-fields-padding"})
	}
	q := &GroupQuery{
		Name:     "spamquantiles",
		GroupKey: func(t Cursor) string { return t.String(1) },
		SortKey:  func(t Cursor) float64 { return t.Float(2) },
		UDF:      Quantiles(2, 4),
	}
	out, _ := runQuery(t, q, tuples, true)
	got := out["bigdomain.com"]
	if len(got) != 5 {
		t.Fatalf("quantile outputs = %d, want 5", len(got))
	}
	sort.Float64s(scores)
	for i, tu := range got {
		want := scores[i*(len(scores)-1)/4]
		if tu.Float(1) != want {
			t.Fatalf("quantile %d = %f, want %f", i, tu.Float(1), want)
		}
	}
}

func TestQueryBagSpillGoesThroughTarget(t *testing.T) {
	// A group big enough to blow the bag budget must produce spill
	// traffic in the reduce task's spill stats.
	var tuples []Tuple
	for i := 0; i < 4000; i++ {
		tuples = append(tuples, Tuple{"d.com", float64(i), "padding-padding-padding-padding-padding"})
	}
	q := &GroupQuery{
		Name:           "bigbag",
		GroupKey:       func(t Cursor) string { return t.String(0) },
		SortKey:        func(t Cursor) float64 { return t.Float(1) },
		UDF:            Quantiles(1, 4),
		BagMemFraction: 0.00002, // tiny budget to force bag spilling
	}
	_, res := runQuery(t, q, tuples, true)
	st := res.Straggler()
	if st == nil {
		t.Fatal("no reduce run")
	}
	if st.Spill.Files < 3 {
		t.Fatalf("expected several bag spill files, got %d", st.Spill.Files)
	}
	if st.Spill.Chunks == 0 {
		t.Fatal("sponge target should count spilled chunks")
	}
}

func TestPruneCountsKeepsHeaviest(t *testing.T) {
	counts := newTermCounts(8)
	for term, n := range map[string]int{"a": 10, "b": 1, "c": 5, "d": 2, "e": 8, "f": 8} {
		for i := 0; i < n; i++ {
			counts.add(term)
		}
	}
	counts.prune(2)
	// e and f tie at 8; the tie goes to the smaller term.
	if len(counts.all) != 2 || len(counts.slot) != 2 ||
		counts.all[0] != (termCount{"a", 10}) || counts.all[1] != (termCount{"e", 8}) {
		t.Fatalf("wrong survivors: %v", counts.all)
	}
}

// TestTopKDeterministicOnTies runs the UDF twice in one process over a
// bag full of equal counts that overflows the counter table: pruning
// must not follow map iteration order, so both runs emit the same rows.
func TestTopKDeterministicOnTies(t *testing.T) {
	bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 1<<20, 1<<16)
		b := mm.NewBag("g")
		// 200 distinct terms, each twice, against a 24-entry table.
		for rep := 0; rep < 2; rep++ {
			for i := 0; i < 200; i += 4 {
				var terms Tuple
				for j := i; j < i+4; j++ {
					terms = append(terms, fmt.Sprintf("t%03d", (j*37)%200))
				}
				b.Add(Tuple{"en", terms})
			}
		}
		run := func() []Tuple {
			var out []Tuple
			uctx := &UDFContext{P: p, Task: &mapreduce.TaskContext{P: p}, MM: mm}
			TopK(1, 3, 0)(uctx, "g", b, func(t Tuple) { out = append(out, t) })
			return out
		}
		first := run()
		if len(first) != 3 {
			t.Fatalf("top-k emitted %d rows", len(first))
		}
		for i := 0; i < 5; i++ {
			if again := run(); !reflect.DeepEqual(first, again) {
				t.Fatalf("run %d emitted %v, first run %v", i, again, first)
			}
		}
	})
}
