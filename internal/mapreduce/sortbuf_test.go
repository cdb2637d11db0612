package mapreduce

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// splitsInput registers a file of the given number of blocks and returns
// an Input whose every split yields perSplit records keyed k<i%keys>
// with the record's global number as value.
func (r *rig) splitsInput(name string, splits, perSplit, keys int) Input {
	r.fs.AddExisting(name, int64(splits)*r.fs.BlockVirtual)
	return Input{
		File: name,
		MakeRecords: func(split int) RecordGen {
			return func(emit Emit) {
				var v [8]byte
				for i := split * perSplit; i < (split+1)*perSplit; i++ {
					binary.LittleEndian.PutUint64(v[:], uint64(i))
					emit([]byte(fmt.Sprintf("k%03d", i%keys)), v[:])
				}
			}
		},
	}
}

// collectReduce returns a reduce function that records each key's values
// in the order the merge delivers them.
func collectReduce(into map[string][]uint64) ReduceFunc {
	return func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
		for {
			v, ok := vals.Next()
			if !ok {
				return
			}
			into[string(key)] = append(into[string(key)], binary.LittleEndian.Uint64(v))
		}
	}
}

// checkSortBufs asserts the free list's lifetime rule at one instant: no
// more buffers than map tasks waiting for a slot, each empty and
// spilling at the limit this job sorts to.
func checkSortBufs(t *testing.T, rj *runningJob, limit int) {
	t.Helper()
	if held, waiting := len(rj.sortBufs), rj.waitingMaps(); held > waiting {
		t.Errorf("job %s holds %d sort buffers for %d waiting map tasks", rj.conf.Name, held, waiting)
	}
	for _, b := range rj.sortBufs {
		if b.limit != limit || cap(b.data) > limit || len(b.data) != 0 || len(b.recPart) != 0 {
			t.Errorf("job %s pooled a buffer of limit %d, cap %d, holding %d bytes, %d records; want limit %d, empty",
				rj.conf.Name, b.limit, cap(b.data), len(b.data), len(b.recPart), limit)
		}
	}
}

// TestMapTasksRecycleSortBuffers runs a 40-task map phase on two slots.
// Without the job's free list each task would make a slab of its own;
// the two that run first make theirs and the rest inherit them, and the
// list is gone with the last dispatch.
func TestMapTasksRecycleSortBuffers(t *testing.T) {
	const splits, slots = 40, 2
	r := newRig(1, func(c *cluster.Config) { c.MapSlots = slots })
	defer r.sim.Close()
	slab := r.c.Cfg.R(128 << 20)
	var job *Job
	got := map[string][]uint64{}
	conf := JobConf{
		Name:  "recycle",
		Input: r.splitsInput("/in/recycle", splits, 50, 7),
		Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
			checkSortBufs(t, job.rj, slab)
			emit(k, v)
		},
		Reduce: collectReduce(got),
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		job = r.eng.Submit(conf)
		res = job.Wait(p)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.sim.MustRun()
	runtime.ReadMemStats(&after)
	if res == nil || res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	if n := len(job.rj.sortBufs); n != 0 {
		t.Fatalf("%d sort buffers outlived the job", n)
	}
	records := 0
	for _, vs := range got {
		records += len(vs)
	}
	if records != splits*50 {
		t.Fatalf("reduce saw %d records, want %d", records, splits*50)
	}
	// One slab of slack covers everything else the run allocates.
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64((slots+1)*slab); alloc > limit {
		t.Fatalf("%d map tasks on %d slots allocated %d bytes, want at most %d (%d slabs of %d)",
			splits, slots, alloc, limit, slots+1, slab)
	}
}

// TestFailedAttemptReturnsResetSortBuffer makes attempts die with half
// their records in the buffer, on one slot so that the very next task
// inherits it. Nothing of the dead attempt may reach anyone's output:
// the reduce input must equal that of a run in which nothing failed.
func TestFailedAttemptReturnsResetSortBuffer(t *testing.T) {
	run := func(fail bool) map[string][]uint64 {
		r := newRig(1, func(c *cluster.Config) { c.MapSlots = 1 })
		defer r.sim.Close()
		got := map[string][]uint64{}
		var job *Job
		conf := JobConf{
			Name:  "halfway",
			Input: r.splitsInput("/in/halfway", 10, 40, 5),
			Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
				checkSortBufs(t, job.rj, r.c.Cfg.R(128<<20))
				n := binary.LittleEndian.Uint64(v)
				if fail && ctx.run.Attempt == 0 && ctx.run.Index%3 == 0 && n%40 == 20 {
					if n == 20 {
						panic("map function gave up")
					}
					panic(fmt.Errorf("map function failed at record %d", n))
				}
				emit(k, v)
			},
			Reduce: collectReduce(got),
		}
		var res *JobResult
		r.sim.Spawn("driver", func(p *simtime.Proc) {
			job = r.eng.Submit(conf)
			res = job.Wait(p)
		})
		r.sim.MustRun()
		if res == nil || res.Failed {
			t.Fatalf("job failed: %+v", res)
		}
		failed := 0
		for _, tr := range res.Tasks {
			if tr.Err != nil {
				failed++
			}
		}
		if want := map[bool]int{false: 0, true: 4}[fail]; failed != want {
			t.Fatalf("%d attempts failed, want %d", failed, want)
		}
		if n := len(job.rj.sortBufs); n != 0 {
			t.Fatalf("%d sort buffers outlived the job", n)
		}
		return got
	}
	clean, retried := run(false), run(true)
	// Retries finish later and so shuffle later; what each key received
	// is what must agree.
	for _, m := range []map[string][]uint64{clean, retried} {
		for _, vs := range m {
			slices.Sort(vs)
		}
	}
	if !reflect.DeepEqual(clean, retried) {
		t.Fatalf("reduce input differs after failed attempts:\nclean   %v\nretried %v", clean, retried)
	}
}

// TestSortBufferListDroppedWhenJobFailsOrIsCancelled ends a job the two
// other ways a job can end, each time with buffers in the list — held
// for map tasks that now will never run.
func TestSortBufferListDroppedWhenJobFailsOrIsCancelled(t *testing.T) {
	r := newRig(1, func(c *cluster.Config) { c.MapSlots = 2 })
	defer r.sim.Close()
	slab := r.c.Cfg.R(128 << 20)
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		var doomed, cancelled *Job
		heldAtFailure := -1
		doomed = r.eng.Submit(JobConf{
			Name:  "doomed",
			Input: r.splitsInput("/in/doomed", 12, 10, 3),
			Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
				checkSortBufs(t, doomed.rj, slab)
				// No split can be read. A retry queues behind every task
				// already waiting, so split 0 fails its last attempt while
				// the other splits' last attempts wait for a slot.
				if ctx.run.Index == 0 && ctx.run.Attempt == maxAttempts-1 {
					// The attempt's own buffer joins the list as it dies.
					p.Sim().After(0, func() { heldAtFailure = len(doomed.rj.sortBufs) })
				}
				panic("split cannot be read")
			},
		})
		if res := doomed.Wait(p); !res.Failed {
			t.Error("a job whose splits fail all their attempts should fail")
		}
		if heldAtFailure != 1 {
			t.Errorf("%d buffers in the list as the job failed, want 1; the test proves nothing", heldAtFailure)
		}

		cancelled = r.eng.Submit(JobConf{
			Name:  "cancelled",
			Input: r.splitsInput("/in/cancelled", 12, 10, 3),
			Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
				checkSortBufs(t, cancelled.rj, slab)
				emit(k, v)
			},
		})
		// With the only node out of scheduling, the two running tasks
		// leave their buffers for tasks that cannot be placed.
		p.Sleep(simtime.Second)
		r.eng.MarkNodeDead(0)
		for cancelled.rj.running > 0 {
			p.Sleep(simtime.Second)
		}
		if n := len(cancelled.rj.sortBufs); n != 2 {
			t.Errorf("%d buffers in the list before the cancel, want 2; the test proves nothing", n)
		}
		cancelled.Cancel()
		if res := cancelled.Wait(p); !res.Failed || len(res.Tasks) != 2 {
			t.Errorf("cancelled job: failed=%v after %d attempts, want a failure after 2", res.Failed, len(res.Tasks))
		}
		for _, j := range []*Job{doomed, cancelled} {
			if n := len(j.rj.sortBufs); n != 0 {
				t.Errorf("job %s still holds %d sort buffers", j.rj.conf.Name, n)
			}
		}
	})
	r.sim.MustRun()
}

// TestJobsDoNotShareSortBuffers runs two jobs with different
// SortBufferVirtual through one engine, the second taking over the slots
// as the first's map phase tails off. A small-buffer task that got a big
// slab would not spill; a big-buffer task that got a small one would.
func TestJobsDoNotShareSortBuffers(t *testing.T) {
	r := newRig(1, func(c *cluster.Config) { c.MapSlots = 2 })
	defer r.sim.Close()
	const perSplit = 64
	recReal := recSize([]byte("k000"), make([]byte, 8))
	small := r.c.Cfg.V(16 * recReal) // 16 records to a buffer: 3 spills and a remainder
	var big, tiny *Job
	var bigRes, tinyRes *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		big = r.eng.Submit(JobConf{
			Name:  "big",
			Input: r.splitsInput("/in/big", 9, perSplit, 4),
			Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
				checkSortBufs(t, big.rj, r.c.Cfg.R(128<<20))
				emit(k, v)
			},
		})
		tiny = r.eng.Submit(JobConf{
			Name:  "tiny",
			Input: r.splitsInput("/in/tiny", 9, perSplit, 4),
			Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
				checkSortBufs(t, tiny.rj, r.c.Cfg.R(small))
				emit(k, v)
			},
			SortBufferVirtual: small,
		})
		bigRes, tinyRes = big.Wait(p), tiny.Wait(p)
	})
	r.sim.MustRun()
	overlapped := false
	for _, tr := range tinyRes.Tasks {
		if tr.Start < bigRes.End {
			overlapped = true
		}
		if tr.SpillEvents != 4 {
			t.Errorf("tiny map %d spilled %d times, want 4", tr.Index, tr.SpillEvents)
		}
	}
	for _, tr := range bigRes.Tasks {
		if tr.SpillEvents != 0 {
			t.Errorf("big map %d spilled %d times, want 0", tr.Index, tr.SpillEvents)
		}
	}
	if !overlapped {
		t.Fatal("the jobs' map phases never overlapped; the test proves nothing")
	}
}

// TestMapSlabSizedBySplit runs map tasks over 256 KiB splits under the
// default io.sort.mb, 2 MiB real, on one slot. The buffer a task hands
// back for the next has a slab of the split and an eighth, not of
// io.sort.mb. The combiner reads the slab, so a task gives its buffer
// back once its combiner is done, and the buffer is in the list while
// the task writes its output: a watcher looks there every millisecond.
func TestMapSlabSizedBySplit(t *testing.T) {
	r := newRig(1, func(c *cluster.Config) { c.MapSlots = 1 })
	defer r.sim.Close()
	r.fs.BlockVirtual = r.c.Cfg.V(256 << 10)
	const maxSlab = 288 << 10
	var job *Job
	seen := 0
	conf := JobConf{
		Name:  "split-sized",
		Input: r.splitsInput("/in/split-sized", 3, 50, 7),
		Map:   func(ctx *TaskContext, k, v []byte, emit Emit) { emit(k, v) },
		Combine: func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
			for {
				v, ok := vals.Next()
				if !ok {
					return
				}
				emit(key, v)
			}
		},
		Reduce: collectReduce(map[string][]uint64{}),
	}
	var res *JobResult
	r.sim.Spawn("driver", func(p *simtime.Proc) {
		job = r.eng.Submit(conf)
		res = job.Wait(p)
	})
	r.sim.Spawn("watcher", func(p *simtime.Proc) {
		for res == nil {
			if job != nil {
				checkSortBufs(t, job.rj, r.c.Cfg.R(128<<20))
				for _, b := range job.rj.sortBufs {
					seen++
					if c := cap(b.data); c > maxSlab {
						t.Errorf("a map task over a 256 KiB split sorted in a %d-byte slab, want at most %d", c, maxSlab)
					}
				}
			}
			p.Sleep(simtime.Millisecond)
		}
	})
	r.sim.MustRun()
	if res == nil || res.Failed {
		t.Fatalf("job failed: %+v", res)
	}
	if seen == 0 {
		t.Fatal("no buffer was ever in the list while the watcher looked; the test proves nothing")
	}
}

// TestGrowingSlabSpillsWhereAFullOneDoes runs map tasks whose output is
// three times their 64 KiB split against a 128 KiB io.sort.mb: each
// slab starts at 72 KiB, grows to the limit and spills there. A run
// whose one slot is handed a full io.sort.mb slab before any task starts
// must agree with it on every task's spills, every output byte, every
// value's place and the virtual end time.
func TestGrowingSlabSpillsWhereAFullOneDoes(t *testing.T) {
	type outcome struct {
		end    simtime.Time
		spills []int
		parts  [][][]byte
		got    map[string][]uint64
	}
	run := func(full bool) outcome {
		r := newRig(1, func(c *cluster.Config) { c.MapSlots = 1 })
		defer r.sim.Close()
		const split, limit = 64 << 10, 128 << 10
		r.fs.BlockVirtual = r.c.Cfg.V(split)
		perSplit := split / recSize([]byte("k000"), make([]byte, 8))
		o := outcome{got: map[string][]uint64{}}
		conf := JobConf{
			Name:  "grow",
			Input: r.splitsInput("/in/grow", 4, perSplit, 97),
			Map: func(ctx *TaskContext, k, v []byte, emit Emit) {
				// Three records a record, each valued apart, so that where
				// equal keys land shows in what the reduce sees.
				var out [8]byte
				for i := uint64(0); i < 3; i++ {
					binary.LittleEndian.PutUint64(out[:], 3*binary.LittleEndian.Uint64(v)+i)
					emit(k, out[:])
				}
			},
			Reduce:            collectReduce(o.got),
			NumReducers:       3,
			SortBufferVirtual: r.c.Cfg.V(limit),
		}
		var res *JobResult
		r.sim.Spawn("driver", func(p *simtime.Proc) {
			job := r.eng.Submit(conf)
			if full {
				job.rj.sortBufs = append(job.rj.sortBufs, newSortBuffer(limit, limit, conf.NumReducers))
			}
			res = job.Wait(p)
			for _, mo := range job.rj.mapOut {
				o.parts = append(o.parts, mo.parts)
			}
		})
		r.sim.MustRun()
		if res == nil || res.Failed {
			t.Fatalf("full=%v: job failed: %+v", full, res)
		}
		o.end = res.End
		for _, tr := range res.Tasks {
			if tr.Kind == MapTask {
				o.spills = append(o.spills, tr.SpillEvents)
			}
		}
		return o
	}
	grown, full := run(false), run(true)
	for i, n := range grown.spills {
		if n < 2 {
			t.Fatalf("map %d spilled %d times, want its output to pass io.sort.mb", i, n)
		}
	}
	if !slices.Equal(grown.spills, full.spills) {
		t.Errorf("spill events per map %v with growing slabs, %v with full ones", grown.spills, full.spills)
	}
	if !reflect.DeepEqual(grown.parts, full.parts) {
		t.Error("map output segments differ between growing and full slabs")
	}
	if !reflect.DeepEqual(grown.got, full.got) {
		t.Error("reduce input differs between growing and full slabs")
	}
	if grown.end != full.end {
		t.Errorf("job ended at %v with growing slabs, %v with full ones", grown.end, full.end)
	}
}

// passCombine is a combiner that changes nothing: it emits each value
// of the key as it comes, so that its output is its input, in order.
func passCombine(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
	for v, ok := vals.Next(); ok; v, ok = vals.Next() {
		emit(key, v)
	}
}

// TestSortHandOffSameAcrossGOMAXPROCS runs a job whose map tasks spill
// mid-task and at the end, on more tasks than slots, so that buffers
// pass between tasks while their helpers may still sort, with one
// processor and with every one. The helper runs beside the simulation
// or only when the simulation waits for it; either way every map output
// byte, every value's place in the reduce and the virtual end time must
// come out the same, with a combiner and without. A pass-through
// combiner's job must also deliver the no-combiner job's map output.
func TestSortHandOffSameAcrossGOMAXPROCS(t *testing.T) {
	type outcome struct {
		end    simtime.Time
		spills int
		parts  [][][]byte
		got    map[string][]uint64
	}
	run := func(combine bool, procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := newRig(2, nil)
		defer r.sim.Close()
		const split, limit = 64 << 10, 48 << 10
		r.fs.BlockVirtual = r.c.Cfg.V(split)
		perSplit := split / recSize([]byte("k000"), make([]byte, 8))
		o := outcome{got: map[string][]uint64{}}
		conf := JobConf{
			Name:              "handoff",
			Input:             r.splitsInput("/in/handoff", 10, perSplit, 97),
			Map:               func(ctx *TaskContext, k, v []byte, emit Emit) { emit(k, v) },
			Reduce:            collectReduce(o.got),
			NumReducers:       3,
			SortBufferVirtual: r.c.Cfg.V(limit),
		}
		if combine {
			conf.Combine = passCombine
		}
		var res *JobResult
		r.sim.Spawn("driver", func(p *simtime.Proc) {
			job := r.eng.Submit(conf)
			res = job.Wait(p)
			for _, mo := range job.rj.mapOut {
				o.parts = append(o.parts, mo.parts)
			}
		})
		r.sim.MustRun()
		if res == nil || res.Failed {
			t.Fatalf("combine=%v GOMAXPROCS=%d: job failed: %+v", combine, procs, res)
		}
		o.end = res.End
		for _, tr := range res.Tasks {
			o.spills += tr.SpillEvents
		}
		return o
	}
	var outs [2]outcome
	for i, combine := range []bool{false, true} {
		one, all := run(combine, 1), run(combine, runtime.NumCPU())
		if one.spills == 0 {
			t.Fatalf("combine=%v: no map task spilled mid-task; the test proves nothing", combine)
		}
		if !reflect.DeepEqual(one.parts, all.parts) {
			t.Errorf("combine=%v: map output differs between GOMAXPROCS 1 and %d", combine, runtime.NumCPU())
		}
		if !reflect.DeepEqual(one.got, all.got) {
			t.Errorf("combine=%v: reduce input differs between GOMAXPROCS 1 and %d", combine, runtime.NumCPU())
		}
		if one.end != all.end {
			t.Errorf("combine=%v: job ended at %v on one processor, %v on %d", combine, one.end, all.end, runtime.NumCPU())
		}
		outs[i] = one
	}
	if !reflect.DeepEqual(outs[0].parts, outs[1].parts) || !reflect.DeepEqual(outs[0].got, outs[1].got) {
		t.Error("a pass-through combiner changed the map output or the reduce input")
	}
}

// TestNodeFailureInsideSortCharge fails a node at a virtual instant
// inside a map task's sort charge, found from a fault-free run: the
// instant the task's combiner first runs, less half its sort's charge.
// The job is node-combined and its buffers overflow into sponge memory,
// so the failure costs the node's published output and its tasks run
// again. No buffer may be written while a helper still reads it (the
// race detector watches the tasks that inherit buffers mid-charge), and
// the retried job's reduce output must be the fault-free run's.
func TestNodeFailureInsideSortCharge(t *testing.T) {
	const records, vocab = 120_000, 3000
	type probe struct {
		node, index, attempt int
		combined             simtime.Time
	}
	per := 0 // records in a map task's one flush
	run := func(failAt simtime.Time, failNode int) ([][]byte, *JobResult, []probe) {
		r := newRig(3, func(c *cluster.Config) { c.SpongeMemory = 8 * media.MB })
		defer r.sim.Close()
		r.fs.BlockVirtual = 16 * media.MB
		conf := wordJob(r, "/in/failsort", records, vocab)
		per = records / len(r.fs.Lookup("/in/failsort").Blocks)
		conf.NodeCombine = true
		conf.NodeCombineVirtual = 4 * media.MB
		conf.SpillFactory = spill.SpongeFactory(r.svc)
		first := map[*TaskRun]simtime.Time{}
		conf.Combine = func(ctx *TaskContext, key []byte, vals *ValueIter, emit Emit) {
			if _, ok := first[ctx.Run()]; !ok {
				first[ctx.Run()] = ctx.P.Now()
			}
			sumCombine(ctx, key, vals, emit)
		}
		if failAt > 0 {
			r.sim.Spawn("chaos", func(p *simtime.Proc) {
				p.Sleep(simtime.Duration(failAt))
				r.svc.FailNode(failNode)
				r.eng.MarkNodeDead(failNode)
			})
		}
		counts, out, res := runWordJob(t, r, conf)
		checkWordCounts(t, counts, records, vocab)
		var probes []probe
		for _, tr := range res.Tasks {
			if at, ok := first[tr]; ok && tr.Kind == MapTask {
				probes = append(probes, probe{tr.Node, tr.Index, tr.Attempt, at})
			}
		}
		return out, res, probes
	}
	clean, _, probes := run(0, 0)
	// The last map task to combine on a node other than node 0, which
	// the sponge tracker lives on.
	var target probe
	for _, pr := range probes {
		if pr.node != 0 && pr.combined > target.combined {
			target = pr
		}
	}
	if target.combined == 0 {
		t.Fatal("no map task combined on a node other than node 0; the test proves nothing")
	}
	failAt := target.combined.Add(-sortCharge(per) / 2)
	faulty, res, probes := run(failAt, target.node)
	inside := false
	for _, pr := range probes {
		if pr.node == target.node && pr.index == target.index && pr.attempt == target.attempt && pr.combined == target.combined {
			inside = true
		}
	}
	if !inside {
		t.Fatalf("task %d did not combine at %v in the faulty run; the failure at %v missed its sort", target.index, target.combined, failAt)
	}
	retried := 0
	for _, tr := range res.Tasks {
		if tr.Kind == MapTask && tr.Attempt > 0 && tr.Err == nil {
			retried++
		}
	}
	t.Logf("failed node %d at %v; %d map attempts retried, %d flush failures", target.node, failAt, retried, res.NodeCombine.FlushFailures)
	if retried == 0 {
		t.Fatal("no map task ran again after the failure; the test proves nothing")
	}
	if !reflect.DeepEqual(clean, faulty) {
		t.Error("the retried job's reduce output differs from the fault-free run's")
	}
}

// TestUnwindJoinsSortInFlight is the kill path: an attempt unwound while
// it sleeps its sort's charge — the helper still sorting — joins the
// helper before its buffer goes back to the list, and the buffer it
// gives back is empty (under -race, reading the index the helper wrote
// without that join is a reported race). Nothing kills an attempt
// mid-sleep but a closing simulation, so the unwinding is called
// directly.
func TestUnwindJoinsSortInFlight(t *testing.T) {
	rj := &runningJob{conf: JobConf{NumReducers: 4}, pending: []*pendingTask{{kind: MapTask}}}
	b := newSortBuffer(1<<20, 1<<20, 4)
	for i := 0; i < 20_000; i++ {
		key := fmt.Appendf(nil, "key-%05d", i*7919%20_000)
		b.add(HashPartition(key, 4), key, key)
	}
	at := &mapAttempt{job: rj, conf: &rj.conf, buf: b}
	b.startSort(make([][]byte, 4))
	at.unwind()
	if len(rj.sortBufs) != 1 || rj.sortBufs[0] != b || !b.empty() || b.bytes() != 0 {
		t.Fatalf("the unwound attempt's buffer is not in the list, empty: %d listed", len(rj.sortBufs))
	}
	if len(b.index) != 20_000 {
		t.Fatalf("the joined sort indexed %d records, want 20000", len(b.index))
	}
}
