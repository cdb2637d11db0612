package bench

import (
	"bytes"
	"encoding/binary"
	"sort"

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

// This file benchmarks SpongeFiles against the two alternatives the
// paper discusses: remote paging (§1 — page-granularity round trips,
// which SpongeFiles' large sequential chunks avoid) and skew-resistant
// partitioning (§2.2 — which balances partitionable work but cannot help
// holistic computations like the median).

// PagingRow compares spill+read time for one 64 MB spill.
type PagingRow struct {
	Mode    string
	Millis  float64
	RTTsPer float64 // network round trips per spilled MB
}

// RemotePagingComparison spills 64 virtual MB through the remote-paging
// baseline and through a SpongeFile forced remote, and reports total
// write+read time. Paging pays a round trip per 4 KB page; SpongeFiles
// amortize the trip over 1 MB chunks and overlap with prefetch/async.
func RemotePagingComparison() []PagingRow {
	run := func(paging bool) float64 {
		cfg := cluster.PaperConfig()
		cfg.Workers = 2
		cfg.SpongeMemory = 256 * media.MB
		sim := simtime.New()
		defer sim.Close()
		c := cluster.New(sim, cfg)
		svc := sponge.Start(c, sponge.DefaultConfig())
		var target spill.Target
		if paging {
			target = spill.NewPagingTarget(c, c.Nodes[0], c.Nodes[1])
		} else {
			target = spill.NewSpongeTarget(svc, c.Nodes[0])
		}
		var ms float64
		sim.Spawn("t", func(p *simtime.Proc) {
			defer target.Close()
			if !paging {
				// Exhaust local chunks so the SpongeFile goes remote,
				// matching what the pager does.
				hog := target.Create(p, "hog")
				if err := hog.Write(p, make([]byte, c.Cfg.R(256*media.MB))); err != nil {
					panic(err)
				}
				if err := hog.Close(p); err != nil {
					panic(err)
				}
			}
			f := target.Create(p, "spill")
			start := p.Now()
			if err := f.Write(p, make([]byte, c.Cfg.R(64*media.MB))); err != nil {
				panic(err)
			}
			if err := f.Close(p); err != nil {
				panic(err)
			}
			buf := make([]byte, 64<<10)
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					panic(err)
				}
				if n == 0 {
					break
				}
			}
			ms = p.Now().Sub(start).Seconds() * 1e3
			f.Delete(p)
		})
		sim.MustRun()
		return ms
	}
	pagingMs := run(true)
	spongeMs := run(false)
	return []PagingRow{
		{Mode: "remote paging (4KB pages)", Millis: pagingMs, RTTsPer: 2 * 256}, // out+in per MB
		{Mode: "spongefile (1MB chunks)", Millis: spongeMs, RTTsPer: 2},
	}
}

// SkewRow is one cell of the skew-avoidance comparison.
type SkewRow struct {
	Job      string
	Strategy string
	Seconds  float64
}

// SkewAvoidanceComparison reproduces §2.2's argument. A partitionable
// aggregation (count pages per domain) is run with the default hash
// partitioner (the Zipfian head lands on one reducer) and with a
// sample-based range partitioner that splits heavy keys' neighborhoods —
// skew avoidance works there. The median, a holistic single-group
// computation, is run the same way: repartitioning cannot subdivide one
// group, so the straggler (and the benefit of SpongeFiles) remains.
func SkewAvoidanceComparison(sizeFactor float64) []SkewRow {
	var rows []SkewRow
	rows = append(rows,
		SkewRow{"count-by-domain", "hash", countByDomain(sizeFactor, false)},
		SkewRow{"count-by-domain", "range(sampled)", countByDomain(sizeFactor, true)},
	)
	// Median: partitioning freedom is nil — one logical group. The run
	// with SpongeFiles shows where the win has to come from instead.
	disk := RunMacro(Median, MacroConfig{NodeMemory: 4 * media.GB, SizeFactor: sizeFactor})
	spg := RunMacro(Median, MacroConfig{NodeMemory: 4 * media.GB, Sponge: true, SizeFactor: sizeFactor})
	rows = append(rows,
		SkewRow{"median", "any partitioning (single group)", disk.Runtime.Seconds()},
		SkewRow{"median", "spongefiles", spg.Runtime.Seconds()},
	)
	return rows
}

// countByDomain runs a count-per-domain aggregation over the web corpus
// with either the hash partitioner or a sampled range partitioner.
func countByDomain(sizeFactor float64, skewAware bool) float64 {
	cfg := cluster.PaperConfig()
	cfg.Workers = 8
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	fs := dfs.New(c)
	eng := mapreduce.NewEngine(c, fs)

	w := workload.DefaultWebCorpus(c.Cfg.Scale)
	w.TotalVirtual = int64(float64(w.TotalVirtual) * sizeFactor)
	fs.AddExisting("/in/web", w.TotalVirtual)
	splits := len(fs.Lookup("/in/web").Blocks)

	conf := mapreduce.JobConf{
		Name:        "countbydomain",
		Input:       w.Input("/in/web", splits),
		NumReducers: 8,
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			// Key: domain \x00 url — naive plans partition on the
			// domain, so the Zipfian head domain swamps one reducer.
			// The value carries the record so reducer input volume
			// reflects data volume.
			emit(domainURLKey(v), v)
		},
		// Naive partitioning: hash of the domain component only.
		Partition: func(key []byte, n int) int {
			dom := key
			if i := bytes.IndexByte(key, 0); i >= 0 {
				dom = key[:i]
			}
			return mapreduce.HashPartition(dom, n)
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			n := 0
			for {
				if _, ok := vals.Next(); !ok {
					break
				}
				n++
			}
			var out [4]byte
			binary.LittleEndian.PutUint32(out[:], uint32(n))
			emit(key, out[:])
		},
	}
	if skewAware {
		// Skew-resistant scheme: range boundaries from a sampled pass
		// over the full (domain, url) keys subdivide the heavy domain.
		conf.Partition = rangePartitioner(sampleKeys(w, 4096), 8)
	}
	var res *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) {
		res = eng.Submit(conf).Wait(p)
	})
	sim.MustRun()
	if res.Failed {
		panic("bench: count-by-domain failed")
	}
	return res.Duration().Seconds()
}

// domainURLKey builds a fresh domain\x00url key from a serialized page.
func domainURLKey(page []byte) []byte {
	t, err := pig.Scan(page)
	if err != nil {
		panic(err) // inside a map function: a failed task attempt
	}
	dom, url := t.String(1), t.String(0)
	key := make([]byte, 0, len(dom)+1+len(url))
	key = append(append(key, dom...), 0)
	return append(key, url...)
}

// sampleKeys draws map-output keys from the corpus for the range
// partitioner (the sampling pass skew-resistant schemes rely on, §2.2),
// in the same domain\x00url form the job emits.
func sampleKeys(w *workload.WebCorpus, n int) [][]byte {
	in := w.Input("/sample", 1)
	gen := in.MakeRecords(0)
	var keys [][]byte
	i := 0
	gen(func(k, v []byte) {
		if i%16 == 0 && len(keys) < n {
			keys = append(keys, domainURLKey(v))
		}
		i++
	})
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
	return keys
}

// rangePartitioner builds equal-frequency range boundaries from sorted
// sample keys, so heavy key neighborhoods spread across reducers.
func rangePartitioner(sorted [][]byte, parts int) func([]byte, int) int {
	bounds := make([][]byte, 0, parts-1)
	for i := 1; i < parts; i++ {
		bounds = append(bounds, sorted[i*len(sorted)/parts])
	}
	return func(key []byte, n int) int {
		lo := sort.Search(len(bounds), func(i int) bool {
			return bytes.Compare(bounds[i], key) > 0
		})
		if lo >= n {
			lo = n - 1
		}
		return lo
	}
}
