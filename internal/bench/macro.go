// Package bench regenerates every table and figure of the paper's
// evaluation (§4): the Table 1 spill-media microbenchmark, the Figure
// 4/5/6 macrobenchmarks over the three skewed jobs, Table 2's straggler
// statistics, the grep-variance and fragmentation analyses, Figure 1's
// production-skew CDFs, and the §4.3 failure table. Each experiment has
// a runner returning structured results plus a formatter producing the
// paper-style rows; cmd/benchtab and bench_test.go drive them.
package bench

import (
	"fmt"
	"math"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
	"spongefiles/internal/workload"
)

// JobKind selects one of the three macro workloads of §4.2.1.
type JobKind int

// The paper's three skew-vulnerable jobs.
const (
	// Median computes the median of the numbers dataset in a single
	// reduce task (inter-job skew: a 10 GB reduce input).
	Median JobKind = iota
	// Anchortext is the Frequent Anchortext Pig query: group pages by
	// language, top-k anchortext terms per language (holistic UDF over
	// skewed groups).
	Anchortext
	// SpamQuantiles is the Spam Quantiles Pig query: group pages by
	// domain, spam-score quantiles per domain, with the naive
	// no-projection plan.
	SpamQuantiles
)

func (k JobKind) String() string {
	switch k {
	case Median:
		return "median"
	case Anchortext:
		return "frequent-anchortext"
	case SpamQuantiles:
		return "spam-quantiles"
	}
	return "?"
}

// MacroConfig selects one macrobenchmark cell.
type MacroConfig struct {
	// NodeMemory is physical memory per node (the paper: 4 or 16 GB).
	NodeMemory int64
	// Sponge selects SpongeFile spilling; false is stock disk spilling.
	Sponge bool
	// SpongeMemory per node (1 GB in most experiments; 12 GB in Figure
	// 6's local-only configuration).
	SpongeMemory int64
	// RemoteDisabled restricts sponge spilling to local memory (Fig. 6).
	RemoteDisabled bool
	// NoSpill gives the reduce JVM a 12 GB heap and runs the reduce in
	// memory, so nothing spills (Figure 6's optimal baseline).
	NoSpill bool
	// Contention runs the background 1 TB grep job alongside (Fig. 5).
	Contention bool
	// SizeFactor scales the datasets (1.0 = the paper's sizes); tests
	// use small factors for speed.
	SizeFactor float64
	// Workers overrides the cluster size (default 29).
	Workers int
}

// MacroResult is one macrobenchmark run's outcome.
type MacroResult struct {
	Kind    JobKind
	Config  MacroConfig
	Runtime simtime.Duration
	// Straggler is the longest reduce attempt (Table 2's subject).
	StragglerInput   int64 // virtual bytes
	StragglerSpilled int64 // virtual bytes
	StragglerChunks  int64
	StragglerRun     *mapreduce.TaskRun
	// GrepTaskSecs are the completed background map-task durations in
	// seconds (the §4.2.3 variance analysis).
	GrepTaskSecs []float64
	// StragglerDisk is the straggler node's disk activity.
	StragglerDisk media.DiskStats
	// Job is the full MapReduce result (task runs, counters).
	Job *mapreduce.JobResult
	// Output carries the job's answer for correctness checks:
	// median value, or group → result tuples.
	MedianValue float64
	GroupOut    map[string][]pig.Tuple
}

// medianKey encodes a float64 into dst so byte order equals numeric
// order (all the dataset's values are non-negative). The caller passes a
// reusable scratch buffer: the sort buffer copies emitted keys, and one
// fresh 8-byte key per record was the job's largest allocation source.
func medianKey(dst *[8]byte, v float64) []byte {
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		dst[i] = byte(bits >> (56 - 8*i))
	}
	return dst[:]
}

// medianValue is medianKey's inverse.
func medianValue(key []byte) float64 {
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(key[i])
	}
	return math.Float64frombits(bits)
}

// RunMacro executes one cell of the macro experiments on a fresh
// simulated cluster.
func RunMacro(kind JobKind, mc MacroConfig) MacroResult {
	if mc.SizeFactor <= 0 {
		mc.SizeFactor = 1.0
	}
	cfg := cluster.PaperConfig()
	if mc.Workers > 0 {
		cfg.Workers = mc.Workers
	}
	if mc.NodeMemory > 0 {
		cfg.NodeMemory = mc.NodeMemory
	}
	if mc.Sponge {
		if mc.SpongeMemory > 0 {
			cfg.SpongeMemory = mc.SpongeMemory
		}
	} else {
		cfg.SpongeMemory = 0 // stock Hadoop reserves no sponge
	}
	if mc.NoSpill {
		// The paper gives the reduce JVM a 12 GB heap; map slots keep
		// their 1 GB, so roughly 1.5 GB of cache remains.
		cfg.ReduceHeap = 12 * media.GB
		cfg.SpongeMemory = 0
	}

	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	eng := mapreduce.NewEngine(c, fs)
	scfg := sponge.DefaultConfig()
	scfg.RemoteDisabled = mc.RemoteDisabled
	scfg.Remote = dfs.NewSpillStore(fs)
	svc := sponge.Start(c, scfg)

	factory := spill.DiskFactory()
	if mc.Sponge {
		factory = spill.SpongeFactory(svc)
	}

	res := MacroResult{Kind: kind, Config: mc, GroupOut: map[string][]pig.Tuple{}}
	var conf mapreduce.JobConf
	switch kind {
	case Median:
		conf = medianJob(c, fs, factory, mc, &res)
	case Anchortext:
		conf = anchortextJob(c, fs, factory, mc, cfg.ReduceHeap, &res)
	case SpamQuantiles:
		conf = spamJob(c, fs, factory, mc, cfg.ReduceHeap, &res)
	}
	conf.ReduceInMemory = mc.NoSpill

	var bgConf *mapreduce.JobConf
	if mc.Contention {
		grepVirtual := int64(float64(1024*media.GB) * mc.SizeFactor)
		fs.AddExisting("/in/grep", grepVirtual)
		bgConf = &mapreduce.JobConf{
			Name:  "grep",
			Input: mapreduce.Input{File: "/in/grep"},
			Map:   func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {},
		}
	}

	var mainRes, bgRes *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) {
		main := eng.Submit(conf)
		var bg *mapreduce.Job
		if bgConf != nil {
			bg = eng.Submit(*bgConf)
		}
		mainRes = main.Wait(p)
		if bg != nil {
			bg.Cancel()
			bgRes = bg.Wait(p)
		}
	})
	sim.MustRun()

	if mainRes.Failed {
		panic(fmt.Sprintf("bench: %s job failed", kind))
	}
	res.Runtime = mainRes.Duration()
	res.Job = mainRes
	if st := mainRes.Straggler(); st != nil {
		res.StragglerRun = st
		res.StragglerInput = st.InputVirtual
		res.StragglerSpilled = c.Cfg.V(int(st.Spill.BytesReal))
		res.StragglerChunks = st.Spill.Chunks
		res.StragglerDisk = c.Nodes[st.Node].Disk.Stats()
	}
	if bgRes != nil {
		for _, tr := range bgRes.Tasks {
			if tr.Kind == mapreduce.MapTask && tr.Err == nil {
				res.GrepTaskSecs = append(res.GrepTaskSecs, tr.Duration().Seconds())
			}
		}
	}
	return res
}

// medianJob builds the paper's MapReduce median job: every number routes
// to a single reduce task, which streams the globally sorted values to
// the middle element.
func medianJob(c *cluster.Cluster, fs *dfs.DFS, factory spill.Factory, mc MacroConfig, out *MacroResult) mapreduce.JobConf {
	nums := workload.DefaultNumbers(c.Cfg.Scale)
	nums.TotalVirtual = int64(float64(nums.TotalVirtual) * mc.SizeFactor)
	fs.AddExisting("/in/numbers", nums.TotalVirtual)
	splits := len(fs.Lookup("/in/numbers").Blocks)
	total := nums.Records()
	pad := nums.RecordReal() - 8 - 16
	if pad < 0 {
		pad = 0
	}
	var seen int64
	// emit sleeps when it has to spill and adds the key again
	// afterwards, and other map tasks run meanwhile: each call holds a
	// key buffer of its own from this free list until emit returns.
	var kbufs []*[8]byte
	return mapreduce.JobConf{
		Name:        "median",
		Input:       nums.Input("/in/numbers", splits),
		NumReducers: 1,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			// Key: order-preserving encoding; value: the rest of the
			// record, so the reduce input carries the full data volume.
			var kbuf *[8]byte
			if n := len(kbufs); n > 0 {
				kbuf, kbufs = kbufs[n-1], kbufs[:n-1]
			} else {
				kbuf = new([8]byte)
			}
			emit(medianKey(kbuf, workload.DecodeNumber(v)), v[8:])
			kbufs = append(kbufs, kbuf)
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
				seen++
				if seen == total/2 {
					out.MedianValue = medianValue(key)
					emit([]byte("median"), key)
				}
			}
		},
		SpillFactory: factory,
	}
}

// anchortextJob builds the Frequent Anchortext query: project to
// (language, terms), group by language, top-10 terms per group. One
// reducer: the straggler's input is the whole projected dataset (~2.5 GB
// at full size, per Table 2).
func anchortextJob(c *cluster.Cluster, fs *dfs.DFS, factory spill.Factory, mc MacroConfig, heap int64, out *MacroResult) mapreduce.JobConf {
	w := workload.DefaultWebCorpus(c.Cfg.Scale)
	w.TotalVirtual = int64(float64(w.TotalVirtual) * mc.SizeFactor)
	fs.AddExisting("/in/web", w.TotalVirtual)
	splits := len(fs.Lookup("/in/web").Blocks)
	q := &pig.GroupQuery{
		Name:  "frequent-anchortext",
		Input: w.Input("/in/web", splits),
		// Keep language and the anchortext terms (~25% of the record).
		Project:  []int{2, 4},
		GroupKey: func(t pig.Cursor) string { return t.String(0) },
		UDF:      pig.TopK(1, 10, 0),
	}
	conf := q.Compile(heap, factory)
	wrapGroupOutput(&conf, out)
	return conf
}

// spamJob builds the Spam Quantiles query: no projection (the paper's
// hastily-assembled UDF), group by domain, spam-score quantiles over an
// ordered bag. It runs with one reducer per worker; the largest domain
// (~30% of the corpus) makes one of them the straggler with a ~3 GB
// input, matching Table 2.
func spamJob(c *cluster.Cluster, fs *dfs.DFS, factory spill.Factory, mc MacroConfig, heap int64, out *MacroResult) mapreduce.JobConf {
	w := workload.DefaultWebCorpus(c.Cfg.Scale)
	w.TotalVirtual = int64(float64(w.TotalVirtual) * mc.SizeFactor)
	fs.AddExisting("/in/web", w.TotalVirtual)
	splits := len(fs.Lookup("/in/web").Blocks)
	q := &pig.GroupQuery{
		Name:     "spam-quantiles",
		Input:    w.Input("/in/web", splits),
		GroupKey: func(t pig.Cursor) string { return t.String(1) },
		SortKey:  func(t pig.Cursor) float64 { return t.Float(3) },
		UDF:      pig.Quantiles(3, 10),
	}
	conf := q.Compile(heap, factory)
	conf.NumReducers = len(c.Nodes)
	wrapGroupOutput(&conf, out)
	return conf
}

// wrapGroupOutput tees the reduce's emitted tuples into the result for
// correctness checks.
func wrapGroupOutput(conf *mapreduce.JobConf, out *MacroResult) {
	inner := conf.Reduce
	conf.Reduce = func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		inner(ctx, key, vals, func(k, v []byte) {
			out.GroupOut[string(k)] = append(out.GroupOut[string(k)], pig.DecodeTuple(v))
			emit(k, v)
		})
	}
}
