package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// wordJob builds a wordcount-style job over records records with a
// saturated vocabulary of vocab keys (every split sees every key), the
// shape where node-scoped combining helps most: task combining leaves
// one record per key per task, node combining one per key per node.
func wordJob(r *rig, name string, records, vocab int) JobConf {
	const keyLen = 6 // "k%05d"
	realRec := keyLen + 4 + recHeader
	size := r.c.Cfg.V(records * realRec)
	r.fs.AddExisting(name, size)
	blocks := len(r.fs.Lookup(name).Blocks)
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	return JobConf{
		Name: "word" + name,
		Input: Input{
			File: name,
			MakeRecords: func(split int) RecordGen {
				return func(emit Emit) {
					per := records / blocks
					lo, hi := split*per, (split+1)*per
					if split == blocks-1 {
						hi = records
					}
					for i := lo; i < hi; i++ {
						emit(nil, []byte(fmt.Sprintf("k%05d", i%vocab)))
					}
				}
			},
		},
		Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
			emit(v[:keyLen], one)
		},
		Combine:     sumCombine,
		NumReducers: 2,
	}
}

// runWordJob executes conf with a summing reduce, returning the final
// per-key counts, the concatenated reduce output bytes per reducer (for
// determinism pinning), and the job result.
func runWordJob(t *testing.T, r *rig, conf JobConf) (map[string]uint32, [][]byte, *JobResult) {
	t.Helper()
	counts := map[string]uint32{}
	outBytes := make([][]byte, conf.NumReducers)
	conf.Reduce = func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
		var total uint32
		for {
			v, ok := vals.Next()
			if !ok {
				break
			}
			total += binary.LittleEndian.Uint32(v)
		}
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], total)
		counts[string(key)] = total
		outBytes[ctx.Run().Index] = appendRecord(outBytes[ctx.Run().Index], key, out[:])
		emit(key, out[:])
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		res = r.eng.Submit(conf).Wait(p)
	})
	r.sim.MustRun()
	if res == nil || res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	return counts, outBytes, res
}

func newCombineRig() *rig {
	r := newRig(2, nil)
	// Small blocks so each node runs several map tasks — the premise of
	// node-scoped combining.
	r.fs.BlockVirtual = 16 * media.MB
	return r
}

func checkWordCounts(t *testing.T, counts map[string]uint32, records, vocab int) {
	t.Helper()
	if len(counts) != vocab {
		t.Fatalf("got %d keys, want %d", len(counts), vocab)
	}
	want := uint32(records / vocab)
	for k, n := range counts {
		if n != want {
			t.Fatalf("count[%s] = %d, want %d", k, n, want)
		}
	}
}

func TestNodeCombineCutsShuffleAndPreservesAnswer(t *testing.T) {
	const records, vocab = 120_000, 2000

	task := newCombineRig()
	taskCounts, _, taskRes := runWordJob(t, task, wordJob(task, "/in/nc-task", records, vocab))

	node := newCombineRig()
	conf := wordJob(node, "/in/nc-node", records, vocab)
	conf.NodeCombine = true
	nodeCounts, _, nodeRes := runWordJob(t, node, conf)

	checkWordCounts(t, taskCounts, records, vocab)
	checkWordCounts(t, nodeCounts, records, vocab)

	taskShuffle := taskRes.Counters()["reduce.input.vbytes"]
	nodeShuffle := nodeRes.Counters()["reduce.input.vbytes"]
	if nodeShuffle >= taskShuffle*3/4 {
		t.Fatalf("node combine should cut shuffle ≥25%%: task=%d node=%d", taskShuffle, nodeShuffle)
	}

	st := nodeRes.NodeCombine
	maps := nodeRes.Counters()["map.tasks"]
	if st.Published == 0 || st.Published+st.BypassedLate+st.BypassedClosed != maps {
		t.Fatalf("publish accounting: %+v for %d maps", st, maps)
	}
	if st.RecordsOut >= st.RecordsIn || st.BytesOut >= st.BytesIn {
		t.Fatalf("node combine did not fold: %+v", st)
	}
	if st.SavedBytes() <= 0 {
		t.Fatalf("saved bytes = %d", st.SavedBytes())
	}
	if ts := taskRes.NodeCombine; ts != (NodeCombineStats{}) {
		t.Fatalf("stage off must leave zero stats, got %+v", ts)
	}
}

// TestNodeCombineDeterministicOutput pins node-combine reduce output
// byte-identical to task-combine for an algebraic fold: re-folding
// per-node instead of per-task must not change a single output byte.
func TestNodeCombineDeterministicOutput(t *testing.T) {
	const records, vocab = 60_000, 500

	task := newCombineRig()
	_, taskOut, _ := runWordJob(t, task, wordJob(task, "/in/det-task", records, vocab))

	node := newCombineRig()
	conf := wordJob(node, "/in/det-node", records, vocab)
	conf.NodeCombine = true
	_, nodeOut, _ := runWordJob(t, node, conf)

	for part := range taskOut {
		if !bytes.Equal(taskOut[part], nodeOut[part]) {
			t.Fatalf("reduce %d output differs: task-combine %d bytes, node-combine %d bytes",
				part, len(taskOut[part]), len(nodeOut[part]))
		}
	}
}

func TestNodeCombineOverflowSpillsThroughFactory(t *testing.T) {
	const records, vocab = 120_000, 3000
	r := newCombineRig()
	conf := wordJob(r, "/in/nc-overflow", records, vocab)
	conf.NodeCombine = true
	// A buffer far below one node's publish volume forces overflow on
	// nearly every publish; overflow must go through the spill factory
	// (here: sponge memory) and rejoin the final merge.
	conf.NodeCombineVirtual = 4 * media.MB
	conf.SpillFactory = spill.SpongeFactory(r.svc)
	counts, _, res := runWordJob(t, r, conf)
	checkWordCounts(t, counts, records, vocab)
	st := res.NodeCombine
	if st.Overflows == 0 {
		t.Fatalf("expected buffer overflows, got %+v", st)
	}
	if st.SpillBytesReal == 0 || st.SpillChunks == 0 {
		t.Fatalf("overflow should spill real bytes into sponge chunks: %+v", st)
	}
}

func TestNodeCombineLingerBypass(t *testing.T) {
	const records, vocab = 60_000, 1000
	r := newCombineRig()
	conf := wordJob(r, "/in/nc-linger", records, vocab)
	conf.NodeCombine = true
	// Split 0's map stalls for five virtual minutes, far past the 60 s
	// linger window: every other task publishes, the window closes and
	// the timer flushes, and the straggler must bypass to the stock
	// per-task path.
	inner := conf.Map
	stalled := false
	conf.Map = func(ctx *TaskContext, k, v []byte, emit Emit) {
		if ctx.Run().Index == 0 && !stalled {
			stalled = true
			ctx.P.Sleep(5 * 60 * simtime.Second)
		}
		inner(ctx, k, v, emit)
	}
	counts, _, res := runWordJob(t, r, conf)
	checkWordCounts(t, counts, records, vocab)
	st := res.NodeCombine
	if st.Published == 0 {
		t.Fatalf("first publish per node should land: %+v", st)
	}
	if st.BypassedLate+st.BypassedClosed == 0 {
		t.Fatalf("stragglers should bypass a closed buffer: %+v", st)
	}
	if st.LingerFlushes == 0 {
		t.Fatalf("linger timer never flushed: %+v", st)
	}
}

// failNCReads wraps the disk target but fails reads of node-combine
// overflow runs, simulating lost spill data at flush time.
type failNCReads struct{ spill.Target }

type failNCFile struct {
	spill.File
	fail bool
}

func (t *failNCReads) Create(p *simtime.Proc, name string) spill.File {
	return &failNCFile{File: t.Target.Create(p, name), fail: strings.Contains(name, "-nc")}
}

func (f *failNCFile) Read(p *simtime.Proc, buf []byte) (int, error) {
	if f.fail {
		return 0, fmt.Errorf("spill run lost")
	}
	return f.File.Read(p, buf)
}

func TestNodeCombineFlushFailureRetriesTasks(t *testing.T) {
	const records, vocab = 120_000, 3000
	r := newCombineRig()
	conf := wordJob(r, "/in/nc-flushfail", records, vocab)
	conf.NodeCombine = true
	conf.NodeCombineVirtual = 4 * media.MB // force overflow onto the failing runs
	conf.SpillFactory = func(node *cluster.Node) spill.Target {
		return &failNCReads{Target: spill.NewDiskTarget(node)}
	}
	counts, _, res := runWordJob(t, r, conf)
	// The flush lost every published task's output; the engine must
	// re-enqueue them, the retries bypass the poisoned buffer, and the
	// job still produces exact counts.
	checkWordCounts(t, counts, records, vocab)
	st := res.NodeCombine
	if st.FlushFailures == 0 {
		t.Fatalf("expected flush failures, got %+v", st)
	}
	if st.BypassedClosed == 0 {
		t.Fatalf("retried tasks should bypass the failed buffer: %+v", st)
	}
	retried := 0
	for _, tr := range res.Tasks {
		if tr.Kind == MapTask && tr.Attempt > 0 && tr.Err == nil {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("no map task was retried after the flush failure")
	}
}

// TestCombinerDuringMultiRoundMerges is the satellite regression: when
// io.sort.factor forces multiple reduce-side merge rounds, the combiner
// must re-run over each intermediate merge so re-merged runs carry
// combined records. Keys are unique within each map (map-side combining
// is a no-op) but shared across maps, so all folding happens at the
// reducer: without re-combining, intermediate merged runs re-spill
// every duplicate and total spill volume runs ~40% over the input.
func TestCombinerDuringMultiRoundMerges(t *testing.T) {
	r := newRig(8, func(c *cluster.Config) {
		c.ReduceHeap = 32 * media.MB // tiny merge memory: every segment spills
	})
	r.fs.BlockVirtual = 32 * media.MB
	const (
		records = 600_000
		vocab   = 30_000 // > records per map: unique within, shared across
		keyLen  = 7      // "k%06d"
	)
	realRec := keyLen + 4 + recHeader
	size := r.c.Cfg.V(records * realRec)
	r.fs.AddExisting("/in/rounds-combine", size)
	blocks := len(r.fs.Lookup("/in/rounds-combine").Blocks)
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	counts := map[string]uint32{}
	conf := JobConf{
		Name: "roundscombine",
		Input: Input{
			File: "/in/rounds-combine",
			MakeRecords: func(split int) RecordGen {
				return func(emit Emit) {
					per := records / blocks
					lo, hi := split*per, (split+1)*per
					if split == blocks-1 {
						hi = records
					}
					for i := lo; i < hi; i++ {
						emit(nil, []byte(fmt.Sprintf("k%06d", i%vocab)))
					}
				}
			},
		},
		Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
			emit(v[:keyLen], one)
		},
		Combine:     sumCombine,
		NumReducers: 1,
		Reduce: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
			var total uint32
			for {
				v, ok := vals.Next()
				if !ok {
					break
				}
				total += binary.LittleEndian.Uint32(v)
			}
			counts[string(key)] = total
		},
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		res = r.eng.Submit(conf).Wait(p)
	})
	r.sim.MustRun()
	if res.Failed {
		t.Fatal("job failed")
	}
	if len(counts) != vocab {
		t.Fatalf("keys = %d, want %d", len(counts), vocab)
	}
	for k, n := range counts {
		if n != uint32(records/vocab) {
			t.Fatalf("count[%s] = %d, want %d", k, n, records/vocab)
		}
	}
	st := res.Straggler()
	if st.MergeRounds == 0 {
		t.Fatalf("test must force multi-round merging (spills=%d rounds=%d)",
			st.SpillEvents, st.MergeRounds)
	}
	// Initial runs re-spill the whole input once; re-combined
	// intermediate rounds collapse cross-map duplicates, so the total
	// stays near 1× input instead of the uncombined ~1.4×.
	inputReal := st.InputVirtual / r.c.Cfg.Scale
	ratio := float64(st.Spill.BytesReal) / float64(inputReal)
	if ratio > 1.25 {
		t.Fatalf("spilled/input = %.2f; intermediate merges are not re-combining", ratio)
	}
}

// TestCombinerZeroEmit covers a combiner that drops keys entirely: a
// key combined to zero records must vanish from the shuffle without
// disturbing surviving keys — including when re-combined at node scope.
func TestCombinerZeroEmit(t *testing.T) {
	drop := func(key []byte) bool { return (key[len(key)-1]-'0')%2 == 1 }
	filterCombine := func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
		var total uint32
		for {
			v, ok := vals.Next()
			if !ok {
				break
			}
			total += binary.LittleEndian.Uint32(v)
		}
		if drop(key) {
			return
		}
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], total)
		emit(key, out[:])
	}
	for _, nodeCombine := range []bool{false, true} {
		const records, vocab = 60_000, 1000
		r := newCombineRig()
		name := fmt.Sprintf("/in/zero-%v", nodeCombine)
		conf := wordJob(r, name, records, vocab)
		conf.Combine = filterCombine
		conf.NodeCombine = nodeCombine
		counts, _, _ := runWordJob(t, r, conf)
		if len(counts) != vocab/2 {
			t.Fatalf("nodeCombine=%v: got %d keys, want %d", nodeCombine, len(counts), vocab/2)
		}
		for k, n := range counts {
			if drop([]byte(k)) {
				t.Fatalf("nodeCombine=%v: dropped key %s survived", nodeCombine, k)
			}
			if n != uint32(records/vocab) {
				t.Fatalf("nodeCombine=%v: count[%s] = %d, want %d", nodeCombine, k, n, records/vocab)
			}
		}
	}
}

// TestCombinerOutputLargerThanInput covers an inflating combiner: the
// combined segment outgrows its input, which must not corrupt the
// recycled combine scratch or the spill accounting. Values carry the
// count in their first 4 bytes and the combiner pads its output.
func TestCombinerOutputLargerThanInput(t *testing.T) {
	pad := make([]byte, 60)
	inflateCombine := func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
		var total uint32
		for {
			v, ok := vals.Next()
			if !ok {
				break
			}
			total += binary.LittleEndian.Uint32(v)
		}
		out := make([]byte, 4+len(pad))
		binary.LittleEndian.PutUint32(out, total)
		emit(key, out)
	}
	const records, vocab = 60_000, 1000
	for _, nodeCombine := range []bool{false, true} {
		r := newCombineRig()
		name := fmt.Sprintf("/in/inflate-%v", nodeCombine)
		conf := wordJob(r, name, records, vocab)
		conf.Combine = inflateCombine
		conf.NodeCombine = nodeCombine
		conf.SortBufferVirtual = 8 * media.MB // force map-side spills too
		counts, _, _ := runWordJob(t, r, conf)
		checkWordCounts(t, counts, records, vocab)
	}
}

// TestCombineSortedSteadyStateAllocationFree guards the map-side
// combiner: after warm-up, a flush with a combiner — the hand-off, the
// sort, the combiner reading the sorted index — allocates one thing, the
// slab its combined segments share. The scratch output, closures,
// stream, grouper and iterator pass with the buffer.
func TestCombineSortedSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations would drown the guard")
	}
	conf := JobConf{}
	var acc [4]byte
	conf.Combine = func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
		var total uint32
		for {
			v, ok := vals.Next()
			if !ok {
				break
			}
			total += binary.LittleEndian.Uint32(v)
		}
		binary.LittleEndian.PutUint32(acc[:], total)
		emit(key, acc[:])
	}
	// 500 keys × 4 duplicates over two partitions, added in key order.
	keys := make([][]byte, 500)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	b := newSortBuffer(1<<20, 1<<20, 2)
	segs := make([][]byte, 2)
	// The per-record CPU charge sleeps, so the combiner runs on a
	// simulated process.
	sim := simtime.New()
	defer sim.Close()
	var allocs float64
	sim.Spawn("combiner", func(p *simtime.Proc) {
		ctx := &TaskContext{P: p, Conf: &conf, run: &TaskRun{}}
		run := func() {
			for i, k := range keys {
				for d := 0; d < 4; d++ {
					b.add(i%2, k, one)
				}
			}
			clear(segs)
			b.startSort(nil)
			b.join()
			b.combineSorted(ctx, conf.Combine, segs)
		}
		run() // warm-up: grows the side array, index and scratch once
		allocs = testing.AllocsPerRun(100, run)
		for part, seg := range segs {
			if n := countRecords(seg); n != 250 {
				t.Errorf("partition %d combined to %d records, want 250", part, n)
			}
		}
	})
	sim.MustRun()
	if allocs != 1 {
		t.Fatalf("a combining flush allocates %.1f times in steady state, want 1", allocs)
	}
}

// TestNodeCombinePublishSteadyStateAllocationFree guards the publish
// hot path: absorbing a map task's segments into the shared buffer
// costs 0 allocations per record at steady state (the few per-publish
// bookkeeping allocations amortize across the segment's records).
func TestNodeCombinePublishSteadyStateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-runtime allocations would drown the guard")
	}
	r := newRig(2, nil)
	conf := JobConf{
		Name:        "puballoc",
		NumReducers: 1,
		Combine:     sumCombine,
		Reduce:      sumCombine,
		NodeCombine: true,
		Map:         func(ctx *TaskContext, k, v []byte, emit Emit) {},
		// Headroom so the measured publishes never overflow-spill.
		NodeCombineVirtual: 512 * media.MB,
	}
	conf.Defaults()

	const perSeg = 2000
	var template []byte
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	for i := 0; i < perSeg; i++ {
		template = appendRecord(template, []byte(fmt.Sprintf("key-%06d", i)), one)
	}

	const rounds = 50
	rj := &runningJob{conf: conf, mapOut: make([]*mapOutput, rounds+1), result: &JobResult{}}
	jc := newJobCombine(r.eng, rj)
	rj.nc = jc

	var perRecord float64
	r.sim.Spawn("publisher", func(p *simtime.Proc) {
		ctx := &TaskContext{P: p, Node: r.c.Nodes[0], Conf: &rj.conf, run: &TaskRun{}}
		segs := [][]byte{template}
		if !jc.publish(ctx, 0, segs) { // warm-up publish
			t.Error("warm-up publish rejected")
			return
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 1; i <= rounds; i++ {
			if !jc.publish(ctx, i, segs) {
				t.Errorf("publish %d rejected", i)
				return
			}
		}
		runtime.ReadMemStats(&m1)
		perRecord = float64(m1.Mallocs-m0.Mallocs) / float64(rounds*perSeg)
	})
	// Drain the linger flush so the sim winds down cleanly.
	r.sim.MustRun()
	if perRecord >= 0.05 {
		t.Fatalf("publish path allocates %.3f per record, want ~0", perRecord)
	}
}
