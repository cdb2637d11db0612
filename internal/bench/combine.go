package bench

import (
	"fmt"
	"math/rand"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
	"spongefiles/internal/workload"
)

// CombineConfig selects the combine-scope sweep: three jobs (a
// heavy-Zipf wordcount, a uniform wordcount, and an algebraic Pig
// domain count) each run under four combining modes — no combiner,
// the stock per-task combiner, the per-node shared combine stage
// (JobConf.NodeCombine), and node combining with the shared buffer's
// overflow spilling into sponge memory instead of disk. The sweep
// records what each scope takes off the shuffle and what it costs.
type CombineConfig struct {
	// Workers is the simulated cluster size.
	Workers int
	// Records is the wordcount corpus size; Vocab its key space.
	Records int
	Vocab   int
	// ZipfS is the skew exponent of the heavy-skew wordcount (s > 1).
	ZipfS float64
	// PigTuples is the Pig domain-count corpus size.
	PigTuples int
	// BlockMB is the DFS block size in virtual MB — small enough that
	// every node runs several co-located map tasks.
	BlockMB int64
	// NCBufMB caps the shared node-combine buffer (virtual MB) in both
	// node modes, sized so the buffer overflows and the overflow medium
	// (disk versus sponge) is what the last two columns compare.
	NCBufMB int64
	// Seed drives the Zipf and domain generators.
	Seed int64
}

// DefaultCombine is the configuration of EXPERIMENTS.md's combine-scope
// table.
func DefaultCombine() CombineConfig {
	return CombineConfig{
		Workers:   8,
		Records:   400_000,
		Vocab:     4000,
		ZipfS:     1.2,
		PigTuples: 60_000,
		BlockMB:   16,
		NCBufMB:   8,
		Seed:      1,
	}
}

// CombineJobs and CombineModes order the sweep's cells.
var (
	CombineJobs  = []string{"wordcount-zipf", "wordcount-uniform", "pig-domain-count"}
	CombineModes = []string{"off", "task", "node", "node+sponge"}
)

// CombineCell is one (job, mode) measurement.
type CombineCell struct {
	Job  string
	Mode string
	// RuntimeS is the job's virtual runtime.
	RuntimeS float64
	// ShuffleVirtual is the reduce-side input volume (virtual bytes) —
	// the number each combining scope is trying to shrink.
	ShuffleVirtual int64
	// MapSpillReal is the map tasks' spill traffic (real bytes).
	MapSpillReal int64
	// Node-combine stage accounting (zero outside the node modes).
	NCPublished   int64
	NCBypassed    int64
	NCSavedBytes  int64
	NCOverflows   int64
	NCSpillReal   int64
	NCSpillChunks int64
	WallMs        float64
}

// RunCombine sweeps every job under every combining mode.
func RunCombine(cfg CombineConfig) []CombineCell {
	var cells []CombineCell
	for _, job := range CombineJobs {
		for _, mode := range CombineModes {
			cells = append(cells, runCombineCell(job, mode, cfg))
		}
	}
	return cells
}

// runCombineCell builds a fresh cluster and runs one job under one
// combining mode. The same seed regenerates the same corpus for every
// mode, so within a job row only the combining scope changes.
func runCombineCell(job, mode string, cfg CombineConfig) CombineCell {
	ccfg := cluster.PaperConfig()
	ccfg.Workers = cfg.Workers
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, ccfg)
	fs := dfs.New(c)
	fs.BlockVirtual = cfg.BlockMB * media.MB
	eng := mapreduce.NewEngine(c, fs)
	svc := sponge.Start(c, sponge.DefaultConfig())

	factory := spill.DiskFactory()
	if mode == "node+sponge" {
		factory = spill.SpongeFactory(svc)
	}

	var conf mapreduce.JobConf
	switch job {
	case "wordcount-zipf", "wordcount-uniform":
		conf = combineWordJob(c, fs, cfg, job == "wordcount-zipf")
		conf.SpillFactory = factory
	case "pig-domain-count":
		// The algebraic compile sets the fold as the combiner and enables
		// node combining; the mode switch below strips those back off
		// for the off/task cells.
		q, _ := workload.DomainCount(c, fs, "combine-domains", cfg.PigTuples, cfg.Seed)
		conf = q.Compile(ccfg.ReduceHeap, factory)
	default:
		panic("bench: unknown combine job " + job)
	}
	switch mode {
	case "off":
		conf.Combine = nil
		conf.NodeCombine = false
	case "task":
		conf.NodeCombine = false
	case "node", "node+sponge":
		conf.NodeCombine = true
		conf.NodeCombineVirtual = cfg.NCBufMB * media.MB
	}

	start := time.Now()
	var res *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) {
		res = eng.Submit(conf).Wait(p)
	})
	sim.MustRun()
	if res == nil || res.Failed {
		panic(fmt.Sprintf("bench: combine %s/%s job failed", job, mode))
	}

	counters := res.Counters()
	nc := res.NodeCombine
	return CombineCell{
		Job:            job,
		Mode:           mode,
		RuntimeS:       res.Duration().Std().Seconds(),
		ShuffleVirtual: counters["reduce.input.vbytes"],
		MapSpillReal:   counters["map.spill.rbytes"],
		NCPublished:    nc.Published,
		NCBypassed:     nc.BypassedLate + nc.BypassedClosed,
		NCSavedBytes:   nc.SavedBytes(),
		NCOverflows:    nc.Overflows,
		NCSpillReal:    nc.SpillBytesReal,
		NCSpillChunks:  nc.SpillChunks,
		WallMs:         float64(time.Since(start).Microseconds()) / 1000,
	}
}

// combineWordJob builds the wordcount corpus: Records records drawn
// from a Vocab-key space, Zipf-skewed or uniform. Keys recur across
// co-located map tasks either way; skew concentrates the recurrence on
// the hot keys, which is where node-scoped combining pays most.
func combineWordJob(c *cluster.Cluster, fs *dfs.DFS, cfg CombineConfig, zipf bool) mapreduce.JobConf {
	key := func(i int) int { return i % cfg.Vocab }
	if zipf {
		z := rand.NewZipf(rand.New(rand.NewSource(cfg.Seed)), cfg.ZipfS, 1, uint64(cfg.Vocab-1))
		keys := make([]uint32, cfg.Records)
		for i := range keys {
			keys[i] = uint32(z.Uint64())
		}
		key = func(i int) int { return int(keys[i]) }
	}
	conf := workload.KeyCount(c, fs, "combine-words", cfg.Records, key)
	conf.NumReducers = cfg.Workers
	return conf
}

// CombineHeader labels CombineRows' columns.
var CombineHeader = []string{
	"job", "mode", "runtime", "shuffle", "map spill", "published",
	"bypassed", "nc saved", "overflow chunks", "wall ms",
}

// CombineRows formats the cells for FormatTable.
func CombineRows(cells []CombineCell) [][]string {
	var out [][]string
	for _, c := range cells {
		out = append(out, []string{
			c.Job,
			c.Mode,
			fmt.Sprintf("%.0f s", c.RuntimeS),
			HumanBytes(float64(c.ShuffleVirtual)),
			HumanBytes(float64(c.MapSpillReal)),
			fmt.Sprintf("%d", c.NCPublished),
			fmt.Sprintf("%d", c.NCBypassed),
			HumanBytes(float64(c.NCSavedBytes)),
			fmt.Sprintf("%d", c.NCSpillChunks),
			fmt.Sprintf("%.1f", c.WallMs),
		})
	}
	return out
}
