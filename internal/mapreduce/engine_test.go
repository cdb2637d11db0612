package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
)

type rig struct {
	sim *simtime.Sim
	c   *cluster.Cluster
	fs  *dfs.DFS
	eng *Engine
	svc *sponge.Service
}

func newRig(workers int, mutate func(*cluster.Config)) *rig {
	cfg := cluster.PaperConfig()
	cfg.Workers = workers
	if mutate != nil {
		mutate(&cfg)
	}
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	eng := NewEngine(c, fs)
	svc := sponge.Start(c, sponge.DefaultConfig())
	return &rig{sim: sim, c: c, fs: fs, eng: eng, svc: svc}
}

// numbersInput loads a file of n uint64 records (8 real bytes each) into
// the DFS and returns its job Input. Values are a deterministic pseudo-
// random permutation-ish sequence.
func (r *rig) numbersInput(name string, n int) Input {
	const realRec = 8 + recHeader
	size := r.c.Cfg.V(n * realRec)
	r.fs.AddExisting(name, size)
	recsPerSplit := func(split int) (lo, hi int) {
		blocks := r.fs.Lookup(name).Blocks
		per := n / len(blocks)
		lo = split * per
		hi = lo + per
		if split == len(blocks)-1 {
			hi = n
		}
		return
	}
	return Input{
		File: name,
		MakeRecords: func(split int) RecordGen {
			return func(emit Emit) {
				lo, hi := recsPerSplit(split)
				var v [8]byte
				for i := lo; i < hi; i++ {
					x := uint64(i)*2654435761 + 12345
					binary.LittleEndian.PutUint64(v[:], x)
					emit(nil, v[:])
				}
			}
		},
	}
}

// identityMap emits the value as key (for sorting tests).
func identityMap(ctx *TaskContext, k, v []byte, emit Emit) { emit(v, nil) }

func TestJobSortsAndGroups(t *testing.T) {
	r := newRig(4, nil)
	in := r.numbersInput("/in/sort", 5000)
	var keys [][]byte
	conf := JobConf{
		Name:        "sorttest",
		Input:       in,
		Map:         identityMap,
		NumReducers: 1,
		Reduce: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
			keys = append(keys, append([]byte(nil), key...))
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
			}
		},
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		res = r.eng.Submit(conf).Wait(p)
	})
	r.sim.MustRun()
	if res == nil || res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	if len(keys) != 5000 {
		t.Fatalf("reduce saw %d distinct keys, want 5000", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 }) {
		t.Fatal("reduce keys not sorted")
	}
	if res.Duration() <= 0 {
		t.Fatal("job took no virtual time")
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	r := newRig(3, nil)
	// Synthetic text: word w<i%7> appears with known counts.
	const records = 3000
	size := r.c.Cfg.V(records * 16)
	r.fs.AddExisting("/in/words", size)
	blocks := len(r.fs.Lookup("/in/words").Blocks)
	in := Input{
		File: "/in/words",
		MakeRecords: func(split int) RecordGen {
			return func(emit Emit) {
				per := records / blocks
				lo := split * per
				hi := lo + per
				if split == blocks-1 {
					hi = records
				}
				for i := lo; i < hi; i++ {
					emit(nil, []byte(fmt.Sprintf("w%d-padpad", i%7)))
				}
			}
		},
	}
	counts := map[string]int{}
	conf := JobConf{
		Name:  "wordcount",
		Input: in,
		Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
			emit(v[:2], []byte{1})
		},
		NumReducers: 3,
		Reduce: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
			n := 0
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
				n++
			}
			counts[string(key)] = n
		},
	}
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		res := r.eng.Submit(conf).Wait(p)
		if res.Failed {
			t.Error("job failed")
		}
	})
	r.sim.MustRun()
	if len(counts) != 7 {
		t.Fatalf("got %d words, want 7: %v", len(counts), counts)
	}
	total := 0
	for w, n := range counts {
		total += n
		if n < records/7-1 || n > records/7+1 {
			t.Fatalf("count[%s] = %d, want ≈ %d", w, n, records/7)
		}
	}
	if total != records {
		t.Fatalf("total counted = %d, want %d", total, records)
	}
}

func TestMapOnlyJob(t *testing.T) {
	r := newRig(3, nil)
	r.fs.AddExisting("/in/grepdata", 10*dfs.DefaultBlockVirtual)
	conf := JobConf{
		Name:  "grep",
		Input: Input{File: "/in/grepdata"}, // charge-only
		Map:   func(ctx *TaskContext, k, v []byte, emit Emit) {},
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		res = r.eng.Submit(conf).Wait(p)
	})
	r.sim.MustRun()
	if res.Failed {
		t.Fatal("map-only job failed")
	}
	maps := 0
	for _, tr := range res.Tasks {
		if tr.Kind == MapTask {
			maps++
			// A 128 MB charge-only scan at ~9 MB/s CPU + disk: ≥ 10 s.
			if tr.Duration() < 10*simtime.Second {
				t.Fatalf("grep map finished implausibly fast: %v", tr.Duration())
			}
		}
	}
	if maps != 10 {
		t.Fatalf("map tasks = %d, want 10", maps)
	}
}

func TestReduceSpillsWhenInputExceedsMergeMemory(t *testing.T) {
	// One reducer whose 48 MB heap holds the 39 MB input, but whose 70%
	// merge share (33.6 MB) does not: the shuffle must spill, and since
	// the merged input is spilled again before the reduce runs, the
	// spilled bytes ≈ input bytes (Table 2). Run in memory (Figure 6's
	// no-spill baseline), the whole heap is merge memory and the same
	// job spills nothing and reduces to the same output.
	run := func(inMemory bool) (st *TaskRun, inputReal int64, out []byte) {
		r := newRig(5, func(c *cluster.Config) { c.ReduceHeap = 48 * media.MB })
		const n = 40_000 // × 16 real bytes × 64 scale ≈ 39 MB virtual
		in := r.numbersInput("/in/big", n)
		conf := JobConf{
			Name:        "bigreduce",
			Input:       in,
			Map:         identityMap,
			NumReducers: 1,
			Reduce: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
				var count [4]byte
				for {
					if _, ok := vals.Next(); !ok {
						break
					}
					count[0]++
				}
				out = appendRecord(out, key, count[:])
			},
			ReduceInMemory: inMemory,
		}
		var res *JobResult
		r.sim.Spawn("driver", func(p *simtime.Proc) {
			res = r.eng.Submit(conf).Wait(p)
		})
		r.sim.MustRun()
		st = res.Straggler()
		if st == nil {
			t.Fatal("no reduce run")
		}
		return st, st.InputVirtual / r.c.Cfg.Scale, out
	}

	st, inputReal, out := run(false)
	if st.Spill.BytesReal == 0 || st.SpillEvents == 0 {
		t.Fatal("reduce did not spill")
	}
	ratio := float64(st.Spill.BytesReal) / float64(inputReal)
	if ratio < 0.95 || ratio > 1.3 {
		t.Fatalf("spilled/input = %.2f, want ≈ 1 (merged input spilled again)", ratio)
	}

	mst, _, mout := run(true)
	if mst.SpillEvents != 0 || mst.Spill.BytesReal != 0 {
		t.Fatalf("in-memory reduce spilled: %d events, %d bytes", mst.SpillEvents, mst.Spill.BytesReal)
	}
	if len(out) == 0 || !bytes.Equal(out, mout) {
		t.Fatalf("in-memory reduce output differs: %d bytes, spilling %d bytes", len(mout), len(out))
	}
}

func TestDiskMultiRoundVsSpongeSingleRound(t *testing.T) {
	run := func(factory spill.Factory) *TaskRun {
		// A small task heap (32 MB → 22.4 MB merge memory, below one
		// map segment) makes every shuffled segment its own merge run:
		// ~20 runs, exceeding the merge factor of 10.
		r := newRig(8, func(c *cluster.Config) {
			c.SpongeMemory = 2 * media.GB
			c.ReduceHeap = 32 * media.MB
		})
		if factory == nil {
			factory = spill.SpongeFactory(r.svc)
		}
		// Small blocks → ~20 map outputs → ~20 merge runs at the reducer.
		r.fs.BlockVirtual = 32 * media.MB
		const n = 600_000 // ≈ 614 MB virtual reduce input
		in := r.numbersInput("/in/rounds", n)
		conf := JobConf{
			Name:        "rounds",
			Input:       in,
			Map:         identityMap,
			NumReducers: 1,
			Reduce: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
				for {
					if _, ok := vals.Next(); !ok {
						break
					}
				}
			},
			SpillFactory: factory,
		}
		var res *JobResult
		r.sim.Spawn("driver", func(p *simtime.Proc) {
			res = r.eng.Submit(conf).Wait(p)
		})
		r.sim.MustRun()
		if res.Failed {
			t.Fatal("job failed")
		}
		return res.Straggler()
	}
	disk := run(spill.DiskFactory())
	spg := run(nil)
	if disk.MergeRounds == 0 {
		t.Fatalf("disk path should need intermediate merge rounds (got %d runs spilled, %d rounds)",
			disk.SpillEvents, disk.MergeRounds)
	}
	if spg.MergeRounds != 0 {
		t.Fatalf("sponge path should merge in a single round, got %d", spg.MergeRounds)
	}
	if spg.Spill.BytesReal >= disk.Spill.BytesReal {
		t.Fatalf("multi-round disk merging should spill more: disk=%d sponge=%d",
			disk.Spill.BytesReal, spg.Spill.BytesReal)
	}
}

func TestTaskRestartAfterSpongeNodeFailure(t *testing.T) {
	r := newRig(4, func(c *cluster.Config) { c.SpongeMemory = 512 * media.MB })
	const n = 60_000
	in := r.numbersInput("/in/failure", n)
	conf := JobConf{
		Name:        "failjob",
		Input:       in,
		Map:         identityMap,
		NumReducers: 1,
		Reduce: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
			}
		},
		SpillFactory: spill.SpongeFactory(r.svc),
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		job := r.eng.Submit(conf)
		res = job.Wait(p)
	})
	// Fail one non-local sponge pool mid-job: any reduce holding chunks
	// there loses them and must be restarted by the framework.
	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		p.Sleep(120 * simtime.Second)
		r.svc.Servers[3].Pool().Fail()
	})
	r.sim.MustRun()
	if res.Failed {
		t.Fatal("job should survive a sponge node failure via task restart")
	}
	// Whether a restart happened depends on chunk placement timing; the
	// invariant is completion. If an attempt did fail, a later attempt
	// must have succeeded.
	for _, tr := range res.Tasks {
		if tr.Err != nil && tr.Kind == ReduceTask {
			found := false
			for _, tr2 := range res.Tasks {
				if tr2.Kind == ReduceTask && tr2.Index == tr.Index && tr2.Err == nil {
					found = true
				}
			}
			if !found {
				t.Fatal("failed reduce never retried successfully")
			}
		}
	}
}

func TestBackgroundJobFillsLeftoverSlots(t *testing.T) {
	r := newRig(4, nil)
	r.fs.AddExisting("/in/fg", 4*dfs.DefaultBlockVirtual)
	r.fs.AddExisting("/in/bg", 400*dfs.DefaultBlockVirtual)
	fgConf := JobConf{
		Name:  "fg",
		Input: Input{File: "/in/fg"},
		Map:   func(ctx *TaskContext, k, v []byte, emit Emit) {},
	}
	bgConf := JobConf{
		Name:  "bg",
		Input: Input{File: "/in/bg"},
		Map:   func(ctx *TaskContext, k, v []byte, emit Emit) {},
	}
	var fgRes *JobResult
	var bgRan int
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		fg := r.eng.Submit(fgConf)
		bg := r.eng.Submit(bgConf)
		fgRes = fg.Wait(p)
		bg.Cancel()
		bgRes := bg.Wait(p)
		for _, tr := range bgRes.Tasks {
			if tr.Err == nil {
				bgRan++
			}
		}
	})
	r.sim.MustRun()
	if fgRes.Failed {
		t.Fatal("foreground job failed")
	}
	if bgRan == 0 {
		t.Fatal("background job never got leftover slots")
	}
}

func TestMapLocalityPreferred(t *testing.T) {
	r := newRig(6, nil)
	r.fs.AddExisting("/in/local", 6*dfs.DefaultBlockVirtual)
	conf := JobConf{
		Name:  "localjob",
		Input: Input{File: "/in/local"},
		Map:   func(ctx *TaskContext, k, v []byte, emit Emit) {},
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		res = r.eng.Submit(conf).Wait(p)
	})
	r.sim.MustRun()
	meta := r.fs.Lookup("/in/local")
	local := 0
	for _, tr := range res.Tasks {
		if tr.Kind != MapTask {
			continue
		}
		for _, rep := range meta.Blocks[tr.Index].Replicas {
			if rep == tr.Node {
				local++
				break
			}
		}
	}
	// With 6 blocks × 3 replicas over 6 nodes and 12 slots, every task
	// should land data-local.
	if local < 5 {
		t.Fatalf("only %d of 6 map tasks were data-local", local)
	}
}

func TestStragglerIdentifiesLongestReduce(t *testing.T) {
	r := newRig(4, nil)
	const n = 20_000
	in := r.numbersInput("/in/skewed", n)
	conf := JobConf{
		Name:        "skew",
		Input:       in,
		Map:         identityMap, // uniform keys...
		NumReducers: 4,
		// ...but partition ~94% of keys to reducer 0.
		Partition: func(key []byte, parts int) int {
			if key[0] < 240 {
				return 0
			}
			return 1 + int(key[0]%3)
		},
		Reduce: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
			}
		},
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		res = r.eng.Submit(conf).Wait(p)
	})
	r.sim.MustRun()
	st := res.Straggler()
	if st == nil || st.Index != 0 {
		t.Fatalf("straggler = %+v, want reduce 0", st)
	}
	var maxOther simtime.Duration
	for _, tr := range res.ReduceRuns() {
		if tr.Index != 0 && tr.Duration() > maxOther {
			maxOther = tr.Duration()
		}
	}
	if st.Duration() <= maxOther {
		t.Fatal("skewed reduce should dominate")
	}
}

// TestHashPartitionIsFNV1a holds the written-out hash to hash/fnv's
// values: which reducer a key goes to is part of every job's output.
func TestHashPartitionIsFNV1a(t *testing.T) {
	for i := 0; i < 1000; i++ {
		k := []byte(strings.Repeat(strconv.Itoa(i*7919), i%4))
		h := fnv.New32a()
		h.Write(k)
		if got, want := HashPartition(k, 7), int(h.Sum32()%7); got != want {
			t.Fatalf("HashPartition(%q, 7) = %d, hash/fnv says %d", k, got, want)
		}
	}
}
