package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/pig"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
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
	Workers int `json:"workers"`
	// Records is the wordcount corpus size; Vocab its key space.
	Records int `json:"records"`
	Vocab   int `json:"vocab"`
	// ZipfS is the skew exponent of the heavy-skew wordcount (s > 1).
	ZipfS float64 `json:"zipfS"`
	// PigTuples is the Pig domain-count corpus size.
	PigTuples int `json:"pigTuples"`
	// BlockMB is the DFS block size in virtual MB — small enough that
	// every node runs several co-located map tasks.
	BlockMB int64 `json:"blockMB"`
	// NCBufMB caps the shared node-combine buffer (virtual MB) in both
	// node modes, sized so the buffer overflows and the overflow medium
	// (disk versus sponge) is what the last two columns compare.
	NCBufMB int64 `json:"ncBufMB"`
	// Seed drives the Zipf and domain generators.
	Seed int64 `json:"seed"`
}

// DefaultCombine is the checked-in BENCH_combine.json configuration.
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
	Job  string `json:"job"`
	Mode string `json:"mode"`
	// RuntimeS is the job's virtual runtime.
	RuntimeS float64 `json:"runtimeS"`
	// ShuffleVirtual is the reduce-side input volume (virtual bytes) —
	// the number each combining scope is trying to shrink.
	ShuffleVirtual int64 `json:"shuffleVirtualBytes"`
	// MapSpillReal is the map tasks' spill traffic (real bytes).
	MapSpillReal int64 `json:"mapSpillRealBytes"`
	// Node-combine stage accounting (zero outside the node modes).
	NCPublished   int64   `json:"ncPublished"`
	NCBypassed    int64   `json:"ncBypassed"`
	NCSavedBytes  int64   `json:"ncSavedBytes"`
	NCOverflows   int64   `json:"ncOverflows"`
	NCSpillReal   int64   `json:"ncSpillRealBytes"`
	NCSpillChunks int64   `json:"ncSpillChunks"`
	WallMs        float64 `json:"wallMs"`
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
	case "pig-domain-count":
		conf = combinePigJob(c, fs, ccfg.TaskHeap, cfg)
	default:
		panic("bench: unknown combine job " + job)
	}
	conf.SpillFactory = factory
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
	const keyLen = 6 // "k%05d"
	keys := make([]uint32, cfg.Records)
	if zipf {
		z := rand.NewZipf(rand.New(rand.NewSource(cfg.Seed)), cfg.ZipfS, 1, uint64(cfg.Vocab-1))
		for i := range keys {
			keys[i] = uint32(z.Uint64())
		}
	} else {
		for i := range keys {
			keys[i] = uint32(i % cfg.Vocab)
		}
	}

	realRec := keyLen + 4 + 8 // key + uint32 count + record header
	name := "/in/combine-words"
	fs.AddExisting(name, c.Cfg.V(cfg.Records*realRec))
	blocks := len(fs.Lookup(name).Blocks)
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	sum := func(vals *mapreduce.ValueIter) uint32 {
		var total uint32
		for {
			v, ok := vals.Next()
			if !ok {
				return total
			}
			total += binary.LittleEndian.Uint32(v)
		}
	}
	return mapreduce.JobConf{
		Name: "combine-words",
		Input: mapreduce.Input{
			File: name,
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := cfg.Records / blocks
					lo, hi := split*per, (split+1)*per
					if split == blocks-1 {
						hi = cfg.Records
					}
					for _, k := range keys[lo:hi] {
						emit(nil, []byte(fmt.Sprintf("k%05d", k)))
					}
				}
			},
		},
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			emit(v[:keyLen], one)
		},
		Combine: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			var out [4]byte
			binary.LittleEndian.PutUint32(out[:], sum(vals))
			emit(key, out[:])
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			var out [4]byte
			binary.LittleEndian.PutUint32(out[:], sum(vals))
			emit(key, out[:])
		},
		NumReducers: cfg.Workers,
	}
}

// combinePigJob compiles the algebraic domain-count query (GROUP BY
// domain, COUNT) over a skewed corpus: one hot domain holds half the
// tuples, the rest spread thin. The algebraic compile sets the fold as
// the combiner and enables node combining; the mode switch in
// runCombineCell then strips those back off for the off/task cells.
func combinePigJob(c *cluster.Cluster, fs *dfs.DFS, heap int64, cfg CombineConfig) mapreduce.JobConf {
	rng := rand.New(rand.NewSource(cfg.Seed))
	blobs := make([][]byte, cfg.PigTuples)
	totalReal := 0
	for i := range blobs {
		dom := "hot.com"
		if rng.Intn(2) == 1 {
			dom = fmt.Sprintf("d%d.com", 1+rng.Intn(40))
		}
		blobs[i] = pig.AppendTuple(nil, pig.Tuple{fmt.Sprintf("url%d", i), dom})
		totalReal += len(blobs[i]) + 8
	}
	name := "/in/combine-domains"
	fs.AddExisting(name, c.Cfg.V(totalReal))
	blocks := len(fs.Lookup(name).Blocks)
	q := &pig.GroupQuery{
		Name: "combine-domains",
		Input: mapreduce.Input{
			File: name,
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := (len(blobs) + blocks - 1) / blocks
					lo, hi := split*per, (split+1)*per
					if hi > len(blobs) {
						hi = len(blobs)
					}
					for _, b := range blobs[lo:hi] {
						emit(nil, b)
					}
				}
			},
		},
		GroupKey:  func(t pig.Cursor) string { return t.String(1) },
		Algebraic: pig.CountFold(),
	}
	return q.Compile(heap, spill.DiskFactory())
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

// CombineJSON renders the cells as the BENCH_combine.json artifact.
func CombineJSON(cfg CombineConfig, cells []CombineCell) []byte { return reportJSON(cfg, cells) }
