package spongefiles_test

// Integration scenarios across the whole stack: Pig Latin scripts
// compiled onto the MapReduce engine spilling through SpongeFiles,
// machine failures during contended jobs, and garbage collection
// cleaning up after dead tasks.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/failure"
	"spongefiles/internal/leakcheck"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
	"spongefiles/internal/workload"
)

type stack struct {
	sim *simtime.Sim
	c   *cluster.Cluster
	fs  *dfs.DFS
	eng *mapreduce.Engine
	svc *sponge.Service
}

func newStack(workers int, spongeMB int64) *stack {
	cfg := cluster.PaperConfig()
	cfg.Workers = workers
	cfg.SpongeMemory = spongeMB * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	scfg := sponge.DefaultConfig()
	scfg.Remote = dfs.NewSpillStore(fs)
	return &stack{
		sim: sim, c: c, fs: fs,
		eng: mapreduce.NewEngine(c, fs),
		svc: sponge.Start(c, scfg),
	}
}

// webInput registers a scaled-down web corpus and returns its input.
func (s *stack) webInput(totalVirtual int64) mapreduce.Input {
	w := workload.DefaultWebCorpus(s.c.Cfg.Scale)
	w.TotalVirtual = totalVirtual
	s.fs.AddExisting("/in/web", w.TotalVirtual)
	return w.Input("/in/web", len(s.fs.Lookup("/in/web").Blocks))
}

// TestPigLatinScriptEndToEnd runs the paper's spam-quantiles query from
// its Pig Latin source through parse → plan → compile → MapReduce with
// SpongeFile spilling, and checks the output's shape.
func TestPigLatinScriptEndToEnd(t *testing.T) {
	const src = `
pages = LOAD 'web' AS (url, domain, language, spam, terms, meta);
grps  = GROUP pages BY domain;
quant = FOREACH grps GENERATE group, QUANTILES(spam, 4);
STORE quant INTO 'spam-quantiles';
`
	script, err := pig.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q, input, err := script.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if input != "web" {
		t.Fatalf("input = %q", input)
	}

	s := newStack(6, 1024)
	q.Input = s.webInput(512 * media.MB)
	conf := q.Compile(s.c.Cfg.ReduceHeap, spill.SpongeFactory(s.svc))
	conf.NumReducers = 6

	out := map[string][]pig.Tuple{}
	inner := conf.Reduce
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		inner(ctx, key, vals, func(k, v []byte) {
			out[string(k)] = append(out[string(k)], pig.DecodeTuple(v))
			emit(k, v)
		})
	}
	var res *mapreduce.JobResult
	s.sim.Spawn("driver", func(p *simtime.Proc) {
		res = s.eng.Submit(conf).Wait(p)
	})
	s.sim.MustRun()
	if res.Failed {
		t.Fatal("scripted job failed")
	}
	if len(out) < 50 {
		t.Fatalf("only %d domains produced quantiles", len(out))
	}
	rows := out["domain000.com"]
	if len(rows) != 5 {
		t.Fatalf("dominant domain quantiles = %d, want 5", len(rows))
	}
	prev := -1.0
	for _, r := range rows {
		if v := r.Float(1); v < prev {
			t.Fatal("quantiles not monotone")
		} else {
			prev = v
		}
	}
}

// TestFailureDuringContendedJob kills a node while the median job runs
// against a background grep: the job must still complete correctly.
func TestFailureDuringContendedJob(t *testing.T) {
	s := newStack(6, 512)
	nums := workload.DefaultNumbers(s.c.Cfg.Scale)
	nums.TotalVirtual = media.GB
	s.fs.AddExisting("/in/numbers", nums.TotalVirtual)
	s.fs.AddExisting("/in/grep", 20*media.GB)
	total := nums.Records()

	var crossed bool
	var seen int64
	conf := mapreduce.JobConf{
		Name:        "median",
		Input:       nums.Input("/in/numbers", len(s.fs.Lookup("/in/numbers").Blocks)),
		NumReducers: 1,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			emit(v[:8], v[8:])
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
				seen++
				if seen == total/2 {
					crossed = true
				}
			}
		},
		SpillFactory: spill.SpongeFactory(s.svc),
	}
	grep := mapreduce.JobConf{
		Name:  "grep",
		Input: mapreduce.Input{File: "/in/grep"},
		Map:   func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {},
	}
	failure.InjectNodeFailure(s.svc, s.eng, 4, 40*simtime.Second)

	var res *mapreduce.JobResult
	s.sim.Spawn("driver", func(p *simtime.Proc) {
		main := s.eng.Submit(conf)
		bg := s.eng.Submit(grep)
		res = main.Wait(p)
		bg.Cancel()
		bg.Wait(p)
	})
	s.sim.MustRun()
	if res.Failed {
		t.Fatal("job failed despite restart machinery")
	}
	if !crossed {
		t.Fatal("median position never reached: records lost")
	}
	for _, tr := range res.Tasks {
		if tr.Err == nil && tr.Node == 4 && tr.End.Sub(0) > 40*simtime.Second && tr.Start.Seconds() > 40 {
			t.Fatal("task scheduled on the dead node after the failure")
		}
	}
}

// TestGCReclaimsAfterJobTasksExit verifies that a full job's sponge
// usage returns to zero: tasks delete spills, agents unregister, and GC
// mops up anything left.
func TestGCReclaimsAfterJobTasksExit(t *testing.T) {
	s := newStack(4, 256)
	nums := workload.DefaultNumbers(s.c.Cfg.Scale)
	nums.TotalVirtual = 512 * media.MB
	s.fs.AddExisting("/in/numbers", nums.TotalVirtual)
	conf := mapreduce.JobConf{
		Name:        "sort",
		Input:       nums.Input("/in/numbers", len(s.fs.Lookup("/in/numbers").Blocks)),
		NumReducers: 2,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			emit(v[:8], v[8:])
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
			}
		},
		SpillFactory: spill.SpongeFactory(s.svc),
	}
	totalChunks := s.svc.TotalFreeChunks()
	s.sim.Spawn("driver", func(p *simtime.Proc) {
		res := s.eng.Submit(conf).Wait(p)
		if res.Failed {
			t.Error("job failed")
		}
		p.Sleep(2 * sponge.GCInterval) // let GC run
		if free := s.svc.TotalFreeChunks(); free != totalChunks {
			t.Errorf("sponge chunks leaked: %d of %d free", free, totalChunks)
		}
	})
	s.sim.MustRun()
}

// TestManyConcurrentJobs runs several small jobs simultaneously through
// one sponge service and checks isolation: every job completes and no
// chunk leaks.
func TestManyConcurrentJobs(t *testing.T) {
	s := newStack(6, 256)
	totalChunks := s.svc.TotalFreeChunks()
	const jobs = 4
	for j := 0; j < jobs; j++ {
		name := fmt.Sprintf("/in/n%d", j)
		s.fs.AddExisting(name, 256*media.MB)
	}
	var results [jobs]*mapreduce.JobResult
	s.sim.Spawn("driver", func(p *simtime.Proc) {
		var handles []*mapreduce.Job
		for j := 0; j < jobs; j++ {
			j := j
			nums := workload.DefaultNumbers(s.c.Cfg.Scale)
			nums.TotalVirtual = 256 * media.MB
			nums.Seed = int64(j)
			conf := mapreduce.JobConf{
				Name:        fmt.Sprintf("job%d", j),
				Input:       nums.Input(fmt.Sprintf("/in/n%d", j), len(s.fs.Lookup(fmt.Sprintf("/in/n%d", j)).Blocks)),
				NumReducers: 1,
				Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
					emit(v[:8], nil)
				},
				Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
					for {
						if _, ok := vals.Next(); !ok {
							break
						}
					}
				},
				SpillFactory: spill.SpongeFactory(s.svc),
			}
			handles = append(handles, s.eng.Submit(conf))
		}
		for j, h := range handles {
			results[j] = h.Wait(p)
		}
	})
	s.sim.MustRun()
	for j, r := range results {
		if r == nil || r.Failed {
			t.Fatalf("job %d failed", j)
		}
	}
	if free := s.svc.TotalFreeChunks(); free != totalChunks {
		t.Fatalf("chunks leaked across jobs: %d of %d", free, totalChunks)
	}
}

// TestDroppedSimulationIsCollected runs a cluster, the sponge service and
// a spilling job to completion, never calls Close, and drops every
// reference: the simulation must be garbage within three collections;
// the goroutine count, less the simulator's pool of idle process
// goroutines, back where it started; and so the descriptor and
// shared-memory mapping counts, with every node's pool slabs unmapped.
// While the service daemons parked between rounds on processes of their
// own, those goroutines kept every finished job's cluster reachable for
// good; while nothing but Close unmapped a pool, its slabs outlived it.
func TestDroppedSimulationIsCollected(t *testing.T) {
	live := func() int { return len(simtime.Goroutines()) }
	before := live()
	host, _ := leakcheck.Snapshot()
	// The finalizer goes on a tag only a callback in the simulation's
	// queue refers to: the Sim itself is reachable from its own queue,
	// and the runtime never finalizes an object in a cycle.
	collected := make(chan struct{})
	func() {
		s := newStack(3, 64)
		tag := new([64]byte)
		runtime.SetFinalizer(tag, func(*[64]byte) { close(collected) })
		s.sim.AfterDaemon(1000*simtime.Hour, func() { runtime.KeepAlive(tag) })
		nums := workload.DefaultNumbers(s.c.Cfg.Scale)
		nums.TotalVirtual = 256 * media.MB
		s.fs.AddExisting("/in/numbers", nums.TotalVirtual)
		conf := mapreduce.JobConf{
			Name:        "sort",
			Input:       nums.Input("/in/numbers", len(s.fs.Lookup("/in/numbers").Blocks)),
			NumReducers: 1,
			Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
				emit(v[:8], v[8:])
			},
			Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
				for {
					if _, ok := vals.Next(); !ok {
						break
					}
				}
			},
			SpillFactory: spill.SpongeFactory(s.svc),
		}
		var res *mapreduce.JobResult
		s.sim.Spawn("driver", func(p *simtime.Proc) { res = s.eng.Submit(conf).Wait(p) })
		s.sim.MustRun()
		if res.Failed || res.Counters()["reduce.spill.chunks"] == 0 {
			t.Fatalf("the job failed or spilled nothing: %v", res.Counters())
		}
	}()
	gone := false
	for i := 0; i < 3 && !gone; i++ {
		runtime.GC()
		select {
		case <-collected:
			gone = true
		case <-time.After(100 * time.Millisecond):
		}
	}
	if !gone {
		t.Fatal("a finished simulation nobody references was not collected")
	}
	// Exiting goroutines need a moment to leave the count.
	for i := 0; live() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines before the job, %d after", before, live())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if now, ok := leakcheck.Settle(host, time.Second); !ok {
		t.Fatalf("%v before the job, %v after", host, now)
	}
}
