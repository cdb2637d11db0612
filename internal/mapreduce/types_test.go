package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spongefiles/internal/cluster"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

func TestRecordEncodingRoundTrip(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, []byte("key-1"), []byte("value-one"))
	buf = appendRecord(buf, nil, []byte("v2"))
	buf = appendRecord(buf, []byte("k3"), nil)
	k, v, off := decodeRecord(buf, 0)
	if string(k) != "key-1" || string(v) != "value-one" {
		t.Fatalf("record 1 = %q/%q", k, v)
	}
	k, v, off = decodeRecord(buf, off)
	if len(k) != 0 || string(v) != "v2" {
		t.Fatalf("record 2 = %q/%q", k, v)
	}
	k, v, off = decodeRecord(buf, off)
	if string(k) != "k3" || len(v) != 0 {
		t.Fatalf("record 3 = %q/%q", k, v)
	}
	if off != len(buf) {
		t.Fatalf("off = %d, want %d", off, len(buf))
	}
}

func TestPropertyRecordEncoding(t *testing.T) {
	f := func(k, v []byte) bool {
		buf := appendRecord(nil, k, v)
		gk, gv, off := decodeRecord(buf, 0)
		return bytes.Equal(gk, k) && bytes.Equal(gv, v) && off == len(buf) &&
			len(buf) == recSize(k, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSortBufferSortsByPartitionThenKey(t *testing.T) {
	b := newSortBuffer(1<<16, 3)
	add := func(part int, key string) {
		if !b.add(part, []byte(key), []byte("v")) {
			t.Fatal("buffer full unexpectedly")
		}
	}
	add(2, "b")
	add(0, "z")
	add(1, "m")
	add(0, "a")
	add(2, "a")
	segs, cmps := b.sortAndSlice()
	if cmps <= 0 {
		t.Fatal("no comparisons reported")
	}
	want := [][]string{{"a", "z"}, {"m"}, {"a", "b"}}
	for part, keys := range want {
		var got []string
		for off := 0; off < len(segs[part]); {
			k, _, next := decodeRecord(segs[part], off)
			got = append(got, string(k))
			off = next
		}
		if fmt.Sprint(got) != fmt.Sprint(keys) {
			t.Fatalf("partition %d = %v, want %v", part, got, keys)
		}
	}
	if !b.empty() {
		t.Fatal("buffer should reset after sortAndSlice")
	}
}

func TestSortBufferRejectsWhenFull(t *testing.T) {
	b := newSortBuffer(64, 1)
	if !b.add(0, []byte("0123456789"), []byte("0123456789")) {
		t.Fatal("first add should fit")
	}
	if !b.add(0, []byte("0123456789"), []byte("0123456789")) {
		t.Fatal("second add should fit")
	}
	if b.add(0, []byte("0123456789"), []byte("0123456789")) {
		t.Fatal("third add should overflow a 64-byte buffer")
	}
}

// TestSortBufferOrderMatchesSortSlice pins where equal keys land. The
// reference is the sort this buffer used to run — sort.Slice over
// (partition, full key) — on inputs dense with duplicates, short keys,
// keys that are prefixes of one another and keys with zero bytes.
func TestSortBufferOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(3000)
		b := newSortBuffer(1<<20, 3)
		for i := 0; i < n; i++ {
			var key []byte
			switch rng.Intn(4) {
			case 0: // few distinct words: long runs of equal keys
				key = []byte(fmt.Sprintf("w%d", rng.Intn(12)))
			case 1: // common 8-byte prefix, differing or equal tails
				key = []byte(fmt.Sprintf("prefix--%d", rng.Intn(5)))
			case 2: // zero bytes and prefixes of one another
				key = make([]byte, rng.Intn(11))
				for j := range key {
					key[j] = byte(rng.Intn(2))
				}
			default:
				key = make([]byte, rng.Intn(20))
				rng.Read(key)
			}
			// The value tells equal keys apart.
			val := []byte(fmt.Sprint(i))
			if !b.add(rng.Intn(3), key, val) {
				t.Fatal("buffer full unexpectedly")
			}
		}
		ref := append([]bufRec(nil), b.index...)
		sort.Slice(ref, func(i, j int) bool {
			x, y := ref[i], ref[j]
			if x.part != y.part {
				return x.part < y.part
			}
			return bytes.Compare(b.keyOf(x), b.keyOf(y)) < 0
		})
		want := make([][]byte, 3)
		for _, r := range ref {
			want[r.part] = append(want[r.part], b.data[r.off:r.off+r.totallen]...)
		}
		segs, _ := b.sortAndSlice()
		for part := range want {
			if !bytes.Equal(segs[part], want[part]) {
				t.Fatalf("round %d (%d records): partition %d differs from the sort.Slice order", round, n, part)
			}
			if cap(segs[part]) != len(segs[part]) {
				t.Fatalf("partition %d segment has cap %d for %d bytes", part, cap(segs[part]), len(segs[part]))
			}
		}
	}
}

// TestSortBufferAddAllocationFree guards the emit path: once the index
// has grown to a task's working size, adding a record allocates nothing.
func TestSortBufferAddAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard; the race runtime allocates around instrumented code")
	}
	b := newSortBuffer(1<<20, 4)
	key, val := []byte("key-00000000"), make([]byte, 8)
	fill := func() {
		for i := 0; i < 1000; i++ {
			key[4+i%8]++
			if !b.add(HashPartition(key, 4), key, val) {
				t.Fatal("buffer full unexpectedly")
			}
		}
	}
	fill()
	b.sortAndSlice()
	if allocs := testing.AllocsPerRun(10, func() {
		fill()
		b.data, b.index = b.data[:0], b.index[:0]
	}); allocs != 0 {
		t.Fatalf("sortBuffer.add allocates %.1f times per 1000 records, want 0", allocs)
	}
}

func TestMergeStreamGlobalOrder(t *testing.T) {
	sim := simtime.New()
	var merged []string
	sim.Spawn("t", func(p *simtime.Proc) {
		var streams []recordStream
		rng := rand.New(rand.NewSource(1))
		var all []string
		for s := 0; s < 5; s++ {
			var keys []string
			for i := 0; i < 50; i++ {
				keys = append(keys, fmt.Sprintf("k%06d", rng.Intn(10000)))
			}
			sort.Strings(keys)
			var seg []byte
			for _, k := range keys {
				seg = appendRecord(seg, []byte(k), nil)
			}
			streams = append(streams, newMemStream(seg))
			all = append(all, keys...)
		}
		m := newMergeStream(streams)
		for m.next(p) {
			merged = append(merged, string(m.key()))
		}
		sort.Strings(all)
		if fmt.Sprint(merged) != fmt.Sprint(all) {
			t.Error("merge does not produce the global sorted order")
		}
	})
	sim.MustRun()
	if len(merged) != 250 {
		t.Fatalf("merged %d records", len(merged))
	}
}

func TestMergeStreamEmptyInputs(t *testing.T) {
	sim := simtime.New()
	sim.Spawn("t", func(p *simtime.Proc) {
		m := newMergeStream(nil)
		if m.next(p) {
			t.Error("empty merge yielded a record")
		}
		m2 := newMergeStream([]recordStream{newMemStream(nil), newMemStream(nil)})
		if m2.next(p) {
			t.Error("merge of empty streams yielded a record")
		}
	})
	sim.MustRun()
}

func TestGrouperGroupsEqualKeys(t *testing.T) {
	sim := simtime.New()
	sim.Spawn("t", func(p *simtime.Proc) {
		var seg []byte
		for _, kv := range []struct{ k, v string }{
			{"a", "1"}, {"a", "2"}, {"b", "3"}, {"c", "4"}, {"c", "5"}, {"c", "6"},
		} {
			seg = appendRecord(seg, []byte(kv.k), []byte(kv.v))
		}
		g := newGrouper(p, newMemStream(seg), nil)
		vi := &ValueIter{g: g}
		got := map[string][]string{}
		for {
			key, ok := g.nextKey()
			if !ok {
				break
			}
			k := string(key)
			for {
				v, ok := vi.Next()
				if !ok {
					break
				}
				got[k] = append(got[k], string(v))
			}
		}
		if len(got) != 3 || len(got["a"]) != 2 || len(got["b"]) != 1 || len(got["c"]) != 3 {
			t.Errorf("groups = %v", got)
		}
	})
	sim.MustRun()
}

func TestGrouperSkipsUnconsumedValues(t *testing.T) {
	sim := simtime.New()
	sim.Spawn("t", func(p *simtime.Proc) {
		var seg []byte
		for i := 0; i < 5; i++ {
			seg = appendRecord(seg, []byte("x"), []byte{byte(i)})
		}
		seg = appendRecord(seg, []byte("y"), []byte{9})
		g := newGrouper(p, newMemStream(seg), nil)
		var keys []string
		for {
			key, ok := g.nextKey()
			if !ok {
				break
			}
			// Never consume the values: nextKey must skip them.
			keys = append(keys, string(key))
		}
		if fmt.Sprint(keys) != "[x y]" {
			t.Errorf("keys = %v", keys)
		}
	})
	sim.MustRun()
}

func TestFileStreamAcrossBufferBoundaries(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 1
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	sim.Spawn("t", func(p *simtime.Proc) {
		target := spill.NewDiskTarget(c.Nodes[0])
		f := target.Create(p, "big")
		// Records sized to straddle the 64 KB read buffer repeatedly,
		// including one record larger than the buffer itself.
		var want []string
		var buf []byte
		for i := 0; i < 2000; i++ {
			k := fmt.Sprintf("key-%08d", i)
			v := bytes.Repeat([]byte{byte(i)}, 37+i%101)
			buf = appendRecord(buf, []byte(k), v)
			want = append(want, k)
		}
		huge := bytes.Repeat([]byte("H"), 3*streamBufReal)
		buf = appendRecord(buf, []byte("zz-huge"), huge)
		want = append(want, "zz-huge")
		if err := f.Write(p, buf); err != nil {
			t.Error(err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Error(err)
			return
		}
		s := newFileStream(f)
		var got []string
		for s.next(p) {
			got = append(got, string(s.key()))
			if string(s.key()) == "zz-huge" && !bytes.Equal(s.value(), huge) {
				t.Error("huge record corrupt")
			}
		}
		if len(got) != len(want) || got[len(got)-1] != "zz-huge" {
			t.Errorf("got %d records, want %d", len(got), len(want))
		}
	})
	sim.MustRun()
}

func TestCountRecords(t *testing.T) {
	var seg []byte
	for i := 0; i < 7; i++ {
		seg = appendRecord(seg, []byte{byte(i)}, nil)
	}
	if n := countRecords(seg); n != 7 {
		t.Fatalf("countRecords = %d", n)
	}
	if countRecords(nil) != 0 {
		t.Fatal("empty segment should count 0")
	}
}
