package mapreduce

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/simtime"
)

// splitsInput registers a file of the given number of blocks and returns
// an Input whose every split yields perSplit records keyed k<i%keys>
// with the record's global number as value.
func (r *rig) splitsInput(name string, splits, perSplit, keys int) Input {
	r.fs.AddExisting(name, int64(splits)*dfs.DefaultBlockVirtual)
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
// more buffers than map tasks waiting for a slot, each of the capacity
// this job sorts in.
func checkSortBufs(t *testing.T, rj *runningJob, capReal int) {
	t.Helper()
	if held, waiting := len(rj.sortBufs), rj.waitingMaps(); held > waiting {
		t.Errorf("job %s holds %d sort buffers for %d waiting map tasks", rj.conf.Name, held, waiting)
	}
	for _, b := range rj.sortBufs {
		if cap(b.data) != capReal || len(b.data) != 0 || len(b.index) != 0 {
			t.Errorf("job %s pooled a buffer of cap %d holding %d bytes, %d entries; want cap %d, empty",
				rj.conf.Name, cap(b.data), len(b.data), len(b.index), capReal)
		}
	}
}

// TestMapTasksRecycleSortBuffers runs a 40-task map phase on two slots.
// Forty tasks used to make forty zeroed 2 MiB slabs; now the two that
// run first make theirs and the rest inherit them, and the list is gone
// with the last dispatch.
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
