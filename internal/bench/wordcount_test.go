package bench

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
)

// The node-combining wordcount of the repository benchmark's
// job-wordcount-nc workload: 600 k records drawn Zipf(1.1) from 20 k
// six-byte words, the rank stream and the seed-1 word shuffle exactly as
// the benchmark draws them, so the job is the same one, record for
// record.
const (
	wcRecords  = 600_000
	wcVocab    = 20_000
	wcKeyLen   = 6
	wcReducers = 2
	wcRankSeed = 20140622
	wcSeed     = 1
)

// wordcountKeys renders the vocabulary and draws the key stream.
func wordcountKeys() (keys [][]byte, ids []uint32) {
	keys = make([][]byte, wcVocab)
	word := make([]int, wcVocab) // rank -> word
	byReducer := make([][]int, wcReducers)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("k%05d", k))
		r := mapreduce.HashPartition(keys[k], wcReducers)
		byReducer[r] = append(byReducer[r], k)
	}
	rng := rand.New(rand.NewSource(wcSeed))
	for _, ranks := range byReducer {
		words := append([]int(nil), ranks...)
		rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
		for i, rank := range ranks {
			word[rank] = words[i]
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(wcRankSeed)), 1.1, 1, uint64(wcVocab-1))
	ids = make([]uint32, wcRecords)
	for i := range ids {
		ids[i] = uint32(word[zipf.Uint64()])
	}
	return keys, ids
}

// runWordcountNodeCombine runs the job once on a fresh three-node
// cluster whose sponge service keeps its simulated transport, and
// returns the job's virtual duration and its total count.
func runWordcountNodeCombine(keys [][]byte, ids []uint32) (simtime.Duration, uint64) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 3
	cfg.SpongeMemory = 2 * media.MB
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	svc := sponge.Start(c, sponge.DefaultConfig())
	fs := dfs.New(c)
	fs.BlockVirtual = 16 * media.MB
	eng := mapreduce.NewEngine(c, fs)
	const input = "/in/wordcount-nc"
	fs.AddExisting(input, c.Cfg.V(len(ids)*(wcKeyLen+4+8)))
	blocks := len(fs.Lookup(input).Blocks)
	one := binary.LittleEndian.AppendUint32(nil, 1)
	sum := func(vals *mapreduce.ValueIter) uint32 {
		var total uint32
		for v, ok := vals.Next(); ok; v, ok = vals.Next() {
			total += binary.LittleEndian.Uint32(v)
		}
		return total
	}
	var counted uint64
	conf := mapreduce.JobConf{
		Name: "wordcount-nc",
		Input: mapreduce.Input{
			File: input,
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := len(ids) / blocks
					lo, hi := split*per, (split+1)*per
					if split == blocks-1 {
						hi = len(ids)
					}
					for _, k := range ids[lo:hi] {
						emit(nil, keys[k])
					}
				}
			},
		},
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			emit(v[:wcKeyLen], one)
		},
		Combine: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			var out [4]byte
			binary.LittleEndian.PutUint32(out[:], sum(vals))
			emit(key, out[:])
		},
		Reduce: func(ctx *mapreduce.TaskContext, key []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
			counted += uint64(sum(vals))
			emit(key, nil)
		},
		NumReducers:        wcReducers,
		SpillFactory:       spill.SpongeFactory(svc),
		NodeCombine:        true,
		NodeCombineVirtual: 4 * media.MB,
	}
	var res *mapreduce.JobResult
	sim.Spawn("driver", func(p *simtime.Proc) { res = eng.Submit(conf).Wait(p) })
	sim.MustRun()
	if res == nil || res.Failed {
		panic("bench: wordcount-nc job failed")
	}
	return res.Duration(), counted
}

// BenchmarkWordcountNodeCombine is job-wordcount-nc's job in-process,
// the sponge's simulated transport standing in for the benchmark's
// daemons: `scripts/profile.sh ./internal/bench
// BenchmarkWordcountNodeCombine` profiles the engine's record path —
// sort buffer, combiner, merges — from the tree. virtual_s is the job's
// simulated duration.
func BenchmarkWordcountNodeCombine(b *testing.B) {
	keys, ids := wordcountKeys()
	b.ReportAllocs()
	b.ResetTimer()
	var virtual simtime.Duration
	for i := 0; i < b.N; i++ {
		var counted uint64
		virtual, counted = runWordcountNodeCombine(keys, ids)
		if counted != wcRecords {
			b.Fatalf("reduce counted %d records, want %d", counted, wcRecords)
		}
	}
	b.ReportMetric(virtual.Seconds(), "virtual_s")
}
