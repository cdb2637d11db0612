package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"spongefiles/internal/cluster"
	"spongefiles/internal/dfs"
	"spongefiles/internal/mapreduce"
	"spongefiles/internal/pig"
)

// The two jobs the combining evidence runs on — the combine-scope sweep
// and the scenario workloads build on them and add only what differs
// (how keys are drawn; tallying the output for verification). Keys recur
// across co-located map tasks, which is what node-scoped combining
// feeds on.

// CountKey is the key KeyCount's records carry for key number k.
func CountKey(k int) string { return fmt.Sprintf("k%05d", k) }

// KeyCount builds a wordcount over a stream of records whose keys the
// caller picks: record i carries CountKey(key(i)), the map emits
// (key, 1) and combiner and reduce sum the counts as uint32. The input
// is registered with fs as /in/<name>; NumReducers and the spill
// factory are the caller's.
func KeyCount(c *cluster.Cluster, fs *dfs.DFS, name string, records int, key func(i int) int) mapreduce.JobConf {
	const keyLen = 6          // len(CountKey(k))
	realRec := keyLen + 4 + 8 // key + uint32 count + record header
	file := "/in/" + name
	fs.AddExisting(file, c.Cfg.V(records*realRec))
	blocks := len(fs.Lookup(file).Blocks)
	one := make([]byte, 4)
	binary.LittleEndian.PutUint32(one, 1)
	sum := func(ctx *mapreduce.TaskContext, k []byte, vals *mapreduce.ValueIter, emit mapreduce.Emit) {
		var total uint32
		for v, ok := vals.Next(); ok; v, ok = vals.Next() {
			total += binary.LittleEndian.Uint32(v)
		}
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], total)
		emit(k, out[:])
	}
	return mapreduce.JobConf{
		Name: name,
		Input: mapreduce.Input{
			File: file,
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := records / blocks
					lo, hi := split*per, (split+1)*per
					if split == blocks-1 {
						hi = records
					}
					for i := lo; i < hi; i++ {
						emit(nil, []byte(CountKey(key(i))))
					}
				}
			},
		},
		Map: func(ctx *mapreduce.TaskContext, k, v []byte, emit mapreduce.Emit) {
			emit(v[:keyLen], one)
		},
		Combine: sum,
		Reduce:  sum,
	}
}

// DomainCount builds the algebraic Pig query GROUP BY domain, COUNT
// over a skewed corpus of (url, domain) tuples: one hot domain holds
// about half of them, the rest spread thin over forty. It returns the
// query — the algebraic compile makes the fold the combiner and turns
// node combining on — and the generator's own count per domain. The
// input is registered with fs as /in/<name>.
func DomainCount(c *cluster.Cluster, fs *dfs.DFS, name string, tuples int, seed int64) (*pig.GroupQuery, map[string]int64) {
	rng := rand.New(rand.NewSource(seed))
	blobs := make([][]byte, tuples)
	tally := make(map[string]int64)
	totalReal := 0
	for i := range blobs {
		dom := "hot.com"
		if rng.Intn(2) == 1 {
			dom = fmt.Sprintf("d%d.com", 1+rng.Intn(40))
		}
		tally[dom]++
		blobs[i] = pig.AppendTuple(nil, pig.Tuple{fmt.Sprintf("url%d", i), dom})
		totalReal += len(blobs[i]) + 8
	}
	file := "/in/" + name
	fs.AddExisting(file, c.Cfg.V(totalReal))
	blocks := len(fs.Lookup(file).Blocks)
	return &pig.GroupQuery{
		Name: name,
		Input: mapreduce.Input{
			File: file,
			MakeRecords: func(split int) mapreduce.RecordGen {
				return func(emit mapreduce.Emit) {
					per := (len(blobs) + blocks - 1) / blocks
					lo := split * per
					hi := min(lo+per, len(blobs))
					for _, b := range blobs[lo:hi] {
						emit(nil, b)
					}
				}
			},
		},
		GroupKey:  func(t pig.Cursor) string { return t.String(1) },
		Algebraic: pig.CountFold(),
	}, tally
}
