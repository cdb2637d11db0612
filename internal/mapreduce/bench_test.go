package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spongefiles/internal/simtime"
)

// Wall-clock micro-benchmarks of the engine's data paths.

func BenchmarkRecordEncodeDecode(b *testing.B) {
	k := []byte("some-map-output-key")
	v := make([]byte, 200)
	b.SetBytes(int64(recSize(k, v)))
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = appendRecord(buf[:0], k, v)
		gk, gv, _ := decodeRecord(buf, 0)
		if len(gk) != len(k) || len(gv) != len(v) {
			b.Fatal("corrupt")
		}
	}
}

func BenchmarkSortBuffer(b *testing.B) {
	const records = 10_000
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", rng.Intn(1_000_000)))
	}
	val := make([]byte, 100)
	slab := records*(recHeader+12+100) + 1024
	buf := newSortBuffer(slab, slab, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, k := range keys {
			if !buf.add(j%4, k, val) {
				b.Fatal("buffer full")
			}
		}
		segs, _ := buf.sortAndSlice()
		if len(segs) != 4 {
			b.Fatal("bad segments")
		}
	}
}

// BenchmarkSortBufferZipf fills and sorts one map task's worth of the
// benchmark's job-wordcount-nc output: 100 k records of six-byte keys
// drawn Zipf(1.1) from 20 k words, hash-partitioned two ways, so that
// most comparisons meet an equal key.
func BenchmarkSortBufferZipf(b *testing.B) {
	const records, vocab, parts = 100_000, 20_000, 2
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, vocab-1)
	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%05d", zipf.Uint64()))
	}
	one := []byte{1, 0, 0, 0}
	slab := records * recSize(keys[0], one)
	buf := newSortBuffer(slab, slab, parts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			if !buf.add(HashPartition(k, parts), k, one) {
				b.Fatal("buffer full")
			}
		}
		if segs, _ := buf.sortAndSlice(); len(segs) != parts {
			b.Fatal("bad segments")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

func BenchmarkMergeStream(b *testing.B) {
	// 8 sorted streams of 5k records each.
	rng := rand.New(rand.NewSource(2))
	var segs [][]byte
	for s := 0; s < 8; s++ {
		keys := make([]string, 5000)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%08d", rng.Intn(10_000_000))
		}
		sort.Strings(keys)
		var seg []byte
		for _, k := range keys {
			seg = appendRecord(seg, []byte(k), nil)
		}
		segs = append(segs, seg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := simtime.New()
		count := 0
		sim.Spawn("m", func(p *simtime.Proc) {
			streams := make([]recordStream, len(segs))
			for j, seg := range segs {
				streams[j] = newMemStream(seg)
			}
			m := newMergeStream(streams)
			for m.next(p) {
				count++
			}
		})
		sim.MustRun()
		if count != 8*5000 {
			b.Fatalf("merged %d", count)
		}
	}
}
