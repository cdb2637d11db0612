package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/scenario"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// job-wordcount-nc: a Zipf-skewed wordcount through mapreduce.Engine
// with the node-combine stage on and its buffer small enough to
// overflow through the sponge, reduce-side spills through the sponge
// too, against two real child daemons over TCP at the default 16 KiB
// real chunk. It is the scenario suite's WordCountWorkload scaled about
// ten times, with a skewed key stream and pre-rendered keys so that the
// engine's record path, not fmt.Sprintf, is what runs.
const (
	jobChildren   = 2
	jobPoolChunks = 4096 // 64 MiB per daemon at 16 KiB chunks: never full
	jobKeyLen     = 6
	jobReducers   = 2
	// jobRealRec is one input record's real size: key, uint32 value and
	// the engine's record header.
	jobRealRec = jobKeyLen + 4 + 8
	// jobRankSeed fixes the Zipf rank stream (see setupJob).
	jobRankSeed = 20140622
)

type jobSize struct {
	records, vocab int
	combineVirtual int64
}

var jobSizes = map[size]jobSize{
	full: {records: 600_000, vocab: 20_000, combineVirtual: 4 * media.MB},
	tiny: {records: 60_000, vocab: 1_000, combineVirtual: media.MB / 2},
}

type jobInstance struct {
	e   *env
	sz  jobSize
	h   *scenario.Harness
	reg *obs.Registry

	// keyIDs is the seed-driven key stream; keys the rendered key
	// bytes; want the exact count of every key.
	keyIDs []uint32
	keys   [][]byte
	want   []int64
	got    []int64

	// Layer counts accumulated over the traced iterations.
	lay  jobLayers
	base map[string]int64
	// unreachable and payload sum the per-iteration transports' counts.
	unreachable, payload int64
	// iters counts the iterations since markBase, traced those of them
	// that ran with the tracer on.
	iters, traced int
}

// jobLayers is what the job closures and the job result contribute to
// the per-layer table; all times are nanoseconds.
type jobLayers struct {
	gen, mapFn, combine, reduce          fnTimer
	mapTasks, reduceTasks                int64
	spillEvents, spillChunks, spillBytes int64
	ncOverflow, ncSaved                  int64
}

func setupJob(e *env) (instance, error) {
	tr := e.tr
	j := &jobInstance{e: e, sz: jobSizes[e.size], reg: obs.NewRegistry()}

	start := tr.now()
	h, err := scenario.Spawn(scenario.HarnessOptions{
		Exe:        e.exe,
		Nodes:      jobChildren,
		ChunkBytes: int(media.MB / cluster.PaperConfig().Scale),
		Chunks:     jobPoolChunks,
		Stderr:     os.Stderr,
	})
	if err != nil {
		return nil, err
	}
	j.h = h
	e.onCleanup(h.Stop)
	tr.leaf("harness.spawn", start, tr.now())

	// The key stream: Zipf(1.1) ranks over the vocabulary, with the seed
	// deciding which word holds which rank. The rank stream itself is
	// fixed, and words only trade ranks with words the default
	// partitioner sends to the same reducer, so every seed runs the same
	// skew — the same records per task, the same load per reducer — over
	// different hot words. The generator also tallies the exact answer.
	start = tr.now()
	j.keys = make([][]byte, j.sz.vocab)
	word := make([]int, j.sz.vocab) // rank -> word
	byReducer := make([][]int, jobReducers)
	for k := range j.keys {
		j.keys[k] = []byte(fmt.Sprintf("k%05d", k))
		r := mapreduce.HashPartition(j.keys[k], jobReducers)
		byReducer[r] = append(byReducer[r], k)
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, ranks := range byReducer {
		words := append([]int(nil), ranks...)
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		for i, rank := range ranks {
			word[rank] = words[i]
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(jobRankSeed)), 1.1, 1, uint64(j.sz.vocab-1))
	j.keyIDs = make([]uint32, j.sz.records)
	j.want = make([]int64, j.sz.vocab)
	for i := range j.keyIDs {
		k := uint32(word[zipf.Uint64()])
		j.keyIDs[i] = k
		j.want[k]++
	}
	j.got = make([]int64, j.sz.vocab)
	tr.leaf("workload.gen", start, tr.now())

	start = tr.now()
	if _, err := j.runJob(); err != nil {
		j.close()
		return nil, fmt.Errorf("first iteration: %w", err)
	}
	tr.leaf("setup.first_iter", start, tr.now())
	return j, nil
}

func (j *jobInstance) iterate() (iterStats, error) {
	j.iters++
	v, err := j.runJob()
	return iterStats{virtual: v}, err
}

func (j *jobInstance) workerRSSMiB() float64 { return 0 }

// runJob runs one job on a fresh simulated cluster and sponge service
// wired to the long-lived child daemons, verifies every count, and
// returns the job's simulated duration.
func (j *jobInstance) runJob() (float64, error) {
	tr := j.e.tr
	cfg := cluster.PaperConfig()
	cfg.Workers = jobChildren + 1
	cfg.SpongeMemory = 2 * media.MB // two local chunks: spills go remote
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.Metrics = j.reg
	svc := sponge.Start(c, scfg)
	wt := wire.NewTransportOptions(j.h.Addrs(), svc.Transport(), wire.TransportOptions{Metrics: j.reg})
	defer wt.Close()
	tt := newTracedTransport(wt, tr)
	svc.SetTransport(tt)

	fs := dfs.New(c)
	fs.BlockVirtual = 16 * media.MB // several map tasks per node
	eng := mapreduce.NewEngine(c, fs)
	const input = "/in/bench-wordcount"
	fs.AddExisting(input, c.Cfg.V(j.sz.records*jobRealRec))
	blocks := len(fs.Lookup(input).Blocks)

	for k := range j.got {
		j.got[k] = -1
	}
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	var lay jobLayers

	// sum folds a key's values. On a sampled call it takes the time
	// spent inside vals.Next — the engine's merge and spill reads — back
	// out of the closure's own time.
	sum := func(vals *mapreduce.ValueIter, ft *fnTimer, t0 time.Time) uint32 {
		var total uint32
		for {
			n0 := ft.pause(t0)
			v, ok := vals.Next()
			ft.resume(t0, n0)
			if !ok {
				return total
			}
			total += binary.LittleEndian.Uint32(v)
		}
	}

	conf := mapreduce.JobConf{
		Name: "bench-wordcount",
		Input: mapreduce.Input{
			File: input,
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := j.sz.records / blocks
					lo, hi := split*per, (split+1)*per
					if split == blocks-1 {
						hi = j.sz.records
					}
					for _, k := range j.keyIDs[lo:hi] {
						t0 := lay.gen.start(tr, nil)
						key := j.keys[k]
						lay.gen.stop(t0)
						emit(nil, key)
					}
				}
			},
		},
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			t0 := lay.mapFn.start(tr, ctx.P)
			key := v[:jobKeyLen]
			lay.mapFn.stop(t0)
			emit(key, one)
		},
		Combine: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			var out [4]byte
			t0 := lay.combine.start(tr, ctx.P)
			binary.LittleEndian.PutUint32(out[:], sum(vals, &lay.combine, t0))
			lay.combine.stop(t0)
			emit(key, out[:])
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			// Set, not added: a retried attempt overwrites its
			// predecessor's partial output instead of double counting.
			t0 := lay.reduce.start(tr, ctx.P)
			j.got[keyID(key)] = int64(sum(vals, &lay.reduce, t0))
			lay.reduce.stop(t0)
			emit(key, nil)
		},
		NumReducers:        jobReducers,
		SpillFactory:       tracedFactory(spill.SpongeFactory(svc), tr),
		Metrics:            j.reg,
		NodeCombine:        true,
		NodeCombineVirtual: j.sz.combineVirtual,
	}

	var res *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) { res = eng.Submit(conf).Wait(p) })
	if _, err := sim.Run(); err != nil {
		return 0, err
	}
	if res == nil || res.Failed {
		return 0, fmt.Errorf("wordcount job failed")
	}
	for k, want := range j.want {
		// Keys the stream never drew are never reduced.
		if want == 0 {
			want = -1
		}
		if j.got[k] != want {
			return 0, fmt.Errorf("key %s counted %d times, want %d", j.keys[k], j.got[k], want)
		}
	}
	if out := svc.BufPoolStats().Outstanding(); out != 0 {
		return 0, fmt.Errorf("%d sponge buffers leaked", out)
	}
	if tr.on {
		counters := res.Counters()
		lay.mapTasks = counters["map.tasks"]
		lay.reduceTasks = counters["reduce.tasks"]
		lay.spillEvents = counters["map.spill.events"] + counters["reduce.spill.events"]
		lay.spillChunks = counters["map.spill.chunks"] + counters["reduce.spill.chunks"]
		lay.spillBytes = counters["map.spill.rbytes"] + counters["reduce.spill.rbytes"]
		lay.ncOverflow = res.NodeCombine.Overflows
		lay.ncSaved = res.NodeCombine.BytesIn - res.NodeCombine.BytesOut
		j.lay.add(lay)
		j.unreachable += tt.unreachable
		j.payload += tt.payload
		j.traced++
	}
	return res.Duration().Seconds(), nil
}

// keyID parses a rendered key ("k01234") back to its index.
func keyID(key []byte) int {
	id := 0
	for _, ch := range key[1:] {
		id = id*10 + int(ch-'0')
	}
	return id
}

func (a *jobLayers) add(b jobLayers) {
	a.gen.ns += b.gen.ns
	a.mapFn.ns += b.mapFn.ns
	a.combine.ns += b.combine.ns
	a.reduce.ns += b.reduce.ns
	a.mapTasks += b.mapTasks
	a.reduceTasks += b.reduceTasks
	a.spillEvents += b.spillEvents
	a.spillChunks += b.spillChunks
	a.spillBytes += b.spillBytes
	a.ncOverflow += b.ncOverflow
	a.ncSaved += b.ncSaved
}

func (j *jobInstance) pids() []int { return harnessPids(j.h, jobChildren) }

func (j *jobInstance) markBase() {
	j.base = scrapeAll(j.reg, j.h)
	j.lay, j.unreachable, j.payload = jobLayers{}, 0, 0
	j.iters, j.traced = 0, 0
}

func (j *jobInstance) finish(m map[string]float64) error {
	now := scrapeAll(j.reg, j.h)
	wireCounts(m, now, j.base, j.iters)
	m["transport.unreachable_n"] = float64(j.unreachable)
	m["_payload_bytes"] = float64(j.payload)
	per := func(v float64) float64 { return perIter(v, int64(j.traced)) }
	m["mr.gen_s"] = per(j.lay.gen.seconds())
	m["mr.map_fn_s"] = per(j.lay.mapFn.seconds())
	m["mr.combine_fn_s"] = per(j.lay.combine.seconds())
	m["mr.reduce_fn_s"] = per(j.lay.reduce.seconds())
	m["mr.map_tasks_n"] = per(float64(j.lay.mapTasks))
	m["mr.reduce_tasks_n"] = per(float64(j.lay.reduceTasks))
	m["mr.spill_events_n"] = per(float64(j.lay.spillEvents))
	m["mr.spill_chunks_n"] = per(float64(j.lay.spillChunks))
	m["spill.bytes"] = per(float64(j.lay.spillBytes))
	m["mr.nc_overflow_n"] = per(float64(j.lay.ncOverflow))
	m["mr.nc_shuffle_saved_bytes"] = per(float64(j.lay.ncSaved))

	if lost := now["sponge_chunks_lost_total"]; lost != 0 {
		return fmt.Errorf("%d chunks lost", lost)
	}
	if free, total := now["spongewire_pool_free_chunks"], now["spongewire_pool_chunks"]; free != total {
		return fmt.Errorf("daemon pools hold %d chunks after the last job", total-free)
	}
	if now[`sponge_transport_tier_total{tier="tcp"}`] == 0 {
		return fmt.Errorf("no spill reached the daemons: the job under-fills its buffers")
	}
	if now["mr_node_combine_overflow_total"] == 0 {
		return fmt.Errorf("the node-combine buffer never overflowed")
	}
	return nil
}

func (j *jobInstance) close() error { return stopHarness(j.e.tr, j.h, jobChildren) }
