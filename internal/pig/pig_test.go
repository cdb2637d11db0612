package pig

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
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
func bagRig(t testing.TB, fn func(p *simtime.Proc, node *cluster.Cluster, target spill.Target)) {
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

// runQuery runs a GroupQuery end to end on a small cluster.
func runQuery(t *testing.T, q *GroupQuery, tuples []Tuple, useSponge bool) (map[string][]Tuple, *mapreduce.JobResult) {
	t.Helper()
	return runPlan(t, q, tuples, useSponge, q.Compile)
}

// runPlan is runQuery with the step that compiles q supplied.
func runPlan(t *testing.T, q *GroupQuery, tuples []Tuple, useSponge bool,
	compile func(heapVirtual int64, factory spill.Factory) mapreduce.JobConf) (map[string][]Tuple, *mapreduce.JobResult) {
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
	conf := compile(cfg.ReduceHeap, factory)

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

// TestGroupBagReuseInvisible runs a reduce whose first group spills and
// whose next five are small, so each small group's bag starts from the
// slab and index the big one left behind. Every group's UDF must see its
// own tuples only, and the spill files, spilled bytes and job runtime
// must equal a run that compiles a fresh plan per group, where every bag
// starts empty.
func TestGroupBagReuseInvisible(t *testing.T) {
	want := map[string]int64{"big": 4000}
	var tuples []Tuple
	for i := 0; i < 4000; i++ {
		tuples = append(tuples, Tuple{"big", float64(i), "padding-padding-padding-padding-padding"})
	}
	for g := 0; g < 5; g++ {
		group := fmt.Sprintf("small%d", g)
		want[group] = int64(10 + g)
		for i := 0; i < 10+g; i++ {
			tuples = append(tuples, Tuple{group, float64(i), "pad"})
		}
	}
	for _, sorted := range []bool{false, true} {
		q := &GroupQuery{
			Name:     "reuse",
			GroupKey: func(c Cursor) string { return c.String(0) },
			UDF: func(ctx *UDFContext, group string, bag *Bag, emit func(Tuple)) {
				it := bag.Iterate(ctx.P)
				var n int64
				for {
					c, ok := it.Next(ctx.P)
					if !ok {
						break
					}
					if c.String(0) != group {
						t.Errorf("sorted=%v: group %s's UDF saw a tuple of %s", sorted, group, c.String(0))
					}
					n++
				}
				emit(Tuple{n})
			},
			BagMemFraction: 0.00002, // tiny budget, so the big group spills
		}
		if sorted {
			q.SortKey = func(c Cursor) float64 { return c.Float(1) }
		}
		out, reused := runQuery(t, q, tuples, true)
		for group, n := range want {
			if len(out[group]) != 1 || out[group][0].Int(0) != n {
				t.Errorf("sorted=%v: group %s emitted %v, want (%d)", sorted, group, out[group], n)
			}
		}
		fresh := func(heapVirtual int64, factory spill.Factory) mapreduce.JobConf {
			conf := q.Compile(heapVirtual, factory)
			conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
				q.Compile(heapVirtual, factory).Reduce(ctx, key, vals, emit)
			}
			return conf
		}
		_, empty := runPlan(t, q, tuples, true, fresh)
		r, e := reused.Straggler(), empty.Straggler()
		if r.Spill.Files < 3 {
			t.Fatalf("sorted=%v: the big group wrote %d spill files, want several", sorted, r.Spill.Files)
		}
		if r.Spill.Files != e.Spill.Files || r.Spill.BytesReal != e.Spill.BytesReal {
			t.Errorf("sorted=%v: spilled %d files, %d bytes with reused bags; %d files, %d bytes with empty ones",
				sorted, r.Spill.Files, r.Spill.BytesReal, e.Spill.Files, e.Spill.BytesReal)
		}
		if rd, ed := reused.End.Sub(reused.Start), empty.End.Sub(empty.Start); rd != ed {
			t.Errorf("sorted=%v: job ran %v with reused bags, %v with empty ones", sorted, rd, ed)
		}
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
	// e and f tie at 8; the tie goes to the smaller term. The survivors
	// are a set: prune keeps them in whatever order they were in.
	if len(counts.all) != 2 || len(counts.slot) != 2 {
		t.Fatalf("wrong survivors: %v", counts.all)
	}
	for i, e := range counts.all {
		if want := map[string]int64{"a": 10, "e": 8}[e.term]; e.n != want || counts.slot[e.term] != i {
			t.Fatalf("wrong survivors: %v, slots %v", counts.all, counts.slot)
		}
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

// addZipfTerms adds tuples of ("en", terms) to b, each with perTuple
// terms drawn from vocab by a seeded Zipf law, so the first words are
// the most frequent.
func addZipfTerms(b *Bag, seed int64, vocab []string, tuples, perTuple int) {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(vocab)-1))
	terms := make(Tuple, perTuple)
	for i := 0; i < tuples; i++ {
		for j := range terms {
			terms[j] = vocab[zipf.Uint64()]
		}
		b.Add(Tuple{"en", terms})
	}
}

// cloningCounts is TopK's counter table as it was before the arena and
// the selecting prune: each term that enters the table is cloned on its
// own, and a prune ranks the whole table.
type cloningCounts struct{ termCounts }

func (c *cloningCounts) prune(keep int) {
	if len(c.all) <= keep {
		return
	}
	c.rank()
	for _, e := range c.all[keep:] {
		delete(c.slot, e.term)
	}
	clear(c.all[keep:])
	c.all = c.all[:keep]
}

func (c *cloningCounts) add(term string) {
	if i, ok := c.slot[term]; ok {
		c.all[i].n++
		return
	}
	term = strings.Clone(term)
	c.slot[term] = len(c.all)
	c.all = append(c.all, termCount{term, 1})
}

// cloningTopK is TopK over cloningCounts, the model the arena is held to.
func cloningTopK(termField, k, tableCap int) UDF {
	return func(ctx *UDFContext, group string, bag *Bag, emit func(Tuple)) {
		eachTerm := func(fn func(term string)) {
			it := bag.Iterate(ctx.P)
			for {
				t, ok := it.Next(ctx.P)
				if !ok {
					return
				}
				terms := t.Nested(termField)
				for i, n := 0, terms.Len(); i < n; i++ {
					fn(terms.String(i))
				}
			}
		}
		counts := cloningCounts{*newTermCounts(tableCap)}
		eachTerm(func(term string) {
			counts.add(term)
			if len(counts.all) > tableCap {
				counts.prune(tableCap / 2)
			}
		})
		for i := range counts.all {
			counts.all[i].n = 0
		}
		eachTerm(func(term string) {
			if i, cand := counts.slot[term]; cand {
				counts.all[i].n++
			}
		})
		counts.rank()
		for _, e := range counts.all[:min(k, len(counts.all))] {
			emit(Tuple{e.term, e.n})
		}
	}
}

// TestTopKMatchesCloningModel holds TopK's arena-backed, selecting table
// to the cloning, sorting one over seeded Zipf streams. The terms come through the
// bag's reused buffers: a small budget and chunk spill the bag into runs
// longer than the run reader's buffer, which compacts as it reads and
// passes from run to run. A small table prunes constantly, and the
// vocabulary holds an empty term and a term longer than an arena chunk.
func TestTopKMatchesCloningModel(t *testing.T) {
	vocab := make([]string, 3000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%04d", i)
	}
	vocab[1] = ""
	vocab[3] = strings.Repeat("long", termArenaChunk/4+200)
	for _, k := range []int{1, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
				mm := NewMemoryManager(p, target, 128<<10, 96<<10)
				b := mm.NewBag("g")
				addZipfTerms(b, seed, vocab, 6000, 4)
				if b.SpilledRuns() < 3 {
					t.Errorf("bag spilled %d runs, want several", b.SpilledRuns())
				}
				uctx := &UDFContext{P: p, Task: &mapreduce.TaskContext{P: p}, MM: mm}
				var got, want []Tuple
				TopK(1, k, 0)(uctx, "g", b, func(t Tuple) { got = append(got, t) })
				cloningTopK(1, k, 8*k)(uctx, "g", b, func(t Tuple) { want = append(want, t) })
				if len(want) != k || !reflect.DeepEqual(got, want) {
					t.Errorf("k=%d seed=%d: TopK emitted %.60v, the cloning model %.60v", k, seed, got, want)
				}
				b.Delete(p)
			})
		}
	}
}

// TestTopKAllocsAmortized holds a TopK pass whose every term enters the
// counter table to one allocation per arena chunk filled, plus the
// table, the iterator and the emitted rows.
func TestTopKAllocsAmortized(t *testing.T) {
	const tuples, perTuple = 3000, 4
	var allocs float64
	entered := 0
	bagRig(t, func(p *simtime.Proc, c *cluster.Cluster, target spill.Target) {
		mm := NewMemoryManager(p, target, 1<<30, 1<<20)
		b := mm.NewBag("g")
		for i := 0; i < tuples; i++ {
			terms := make(Tuple, perTuple)
			for j := range terms {
				term := fmt.Sprintf("term%06d", i*perTuple+j) // every term distinct
				terms[j] = term
				entered += len(term)
			}
			b.Add(Tuple{"en", terms})
		}
		uctx := &UDFContext{P: p, Task: &mapreduce.TaskContext{P: p}, MM: mm}
		udf := TopK(1, 3, 0)
		allocs = testing.AllocsPerRun(3, func() { udf(uctx, "g", b, func(Tuple) {}) })
	})
	if ceiling := float64(entered/termArenaChunk + 1 + 32); allocs > ceiling {
		t.Fatalf("%d table entries, %d bytes: %.0f allocs per pass, ceiling %.0f",
			tuples*perTuple, entered, allocs, ceiling)
	}
	t.Logf("%d table entries, %d bytes: %.0f allocs per pass", tuples*perTuple, entered, allocs)
}
