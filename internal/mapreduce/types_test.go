package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

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
	b := newSortBuffer(1<<16, 1<<16, 3)
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
	b := newSortBuffer(64, 64, 1)
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

// sortCase is one sort buffer's input: a job's reducer count and each
// record's partition and key. A record's value is its number, so records
// with equal keys stay told apart in the output.
type sortCase struct {
	reducers int
	parts    []int
	keys     [][]byte
}

// modelCompare is the comparator sortAndSlice ran through
// slices.SortFunc before it had a sort of its own, over the fields an
// index entry held then: partition, key prefix, key length, full key.
// The partitions are the test's own, not read back from the entries.
func modelCompare(b *sortBuffer, part map[int32]int, x, y bufRec) int {
	xk, yk := keyAt(b.data, x), keyAt(b.data, y)
	switch {
	case part[x.off] != part[y.off]:
		return cmp.Compare(part[x.off], part[y.off])
	case keyPrefix(xk) != keyPrefix(yk):
		return cmp.Compare(keyPrefix(xk), keyPrefix(yk))
	case x.klen <= 8 && y.klen <= 8:
		// Equal prefixes of keys this short: one key is the other
		// followed by zero bytes, so the shorter sorts first.
		return cmp.Compare(x.klen, y.klen)
	}
	return bytes.Compare(xk, yk)
}

// check fills a buffer with the case, from an empty slab that has to
// grow, sorts it and holds it to the model: the index in exactly the
// permutation slices.SortFunc leaves under modelCompare, and each
// partition's segment the model's records back to back.
func (c sortCase) check(t *testing.T) {
	t.Helper()
	b := newSortBuffer(0, 1<<30, c.reducers)
	part := make(map[int32]int, len(c.keys))
	for i, k := range c.keys {
		part[int32(b.bytes())] = c.parts[i]
		if !b.add(c.parts[i], k, binary.LittleEndian.AppendUint32(nil, uint32(i))) {
			t.Fatal("buffer full unexpectedly")
		}
	}
	want := slices.Clone(b.index)
	slices.SortFunc(want, func(x, y bufRec) int { return modelCompare(b, part, x, y) })
	wantSegs := make([][]byte, c.reducers)
	for _, r := range want {
		wantSegs[part[r.off]] = append(wantSegs[part[r.off]], b.data[r.off:r.off+r.totallen]...)
	}
	n := len(b.index)
	segs, _ := b.sortAndSlice()
	// reset keeps the index's backing, and with it the sorted order.
	if got := b.index[:n]; !slices.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("%d records, %d reducers: entry %d is the record at %d, the model's the one at %d",
			n, c.reducers, i, got[i].off, want[i].off)
	}
	for p := range wantSegs {
		if !bytes.Equal(segs[p], wantSegs[p]) {
			t.Fatalf("%d records, %d reducers: partition %d differs from the model's", n, c.reducers, p)
		}
		if cap(segs[p]) != len(segs[p]) {
			t.Fatalf("partition %d segment has cap %d for %d bytes", p, cap(segs[p]), len(segs[p]))
		}
	}
}

// randomSortCase draws n records dense with what the sort's tie path
// tells apart: keys of 0–7, 8 and 9+ bytes, 8-byte keys that differ
// only where a word gives its low bits to the partition, long keys
// sharing an 8-byte prefix, zero bytes, and few distinct words. Most
// records fall in a few partitions, so that words tie.
func randomSortCase(rng *rand.Rand, reducers, n int) sortCase {
	small := func(n int) []byte {
		key := make([]byte, n)
		for j := range key {
			key[j] = "\x00\x01a"[rng.Intn(3)]
		}
		return key
	}
	c := sortCase{reducers: reducers}
	for i := 0; i < n; i++ {
		var key []byte
		switch rng.Intn(5) {
		case 0:
			key = []byte(fmt.Sprintf("w%d", rng.Intn(12)))
		case 1:
			key = small(rng.Intn(8))
		case 2:
			key = append([]byte("abcdef"), small(2)...)
		case 3:
			key = append([]byte("prefix--"), small(1+rng.Intn(12))...)
		default:
			key = make([]byte, rng.Intn(20))
			rng.Read(key)
		}
		part := rng.Intn(min(reducers, 3))
		switch rng.Intn(8) {
		case 0:
			part = rng.Intn(reducers)
		case 1:
			part = reducers - 1
		}
		c.keys, c.parts = append(c.keys, key), append(c.parts, part)
	}
	return c
}

// sorted returns the case with its records in (partition, key) order,
// or in the reverse of it.
func (c sortCase) sorted(reverse bool) sortCase {
	idx := make([]int, len(c.keys))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int {
		if d := cmp.Compare(c.parts[i], c.parts[j]); d != 0 {
			return d
		}
		return bytes.Compare(c.keys[i], c.keys[j])
	})
	if reverse {
		slices.Reverse(idx)
	}
	out := sortCase{reducers: c.reducers}
	for _, i := range idx {
		out.keys, out.parts = append(out.keys, c.keys[i]), append(out.parts, c.parts[i])
	}
	return out
}

// TestSortBufferOrderMatchesSortSlice pins where equal keys land: the
// index must come out of sortAndSlice in exactly the permutation that
// slices.SortFunc (the same pdqsort as sort.Slice, which the buffer ran
// before it) leaves over the old comparator. The inputs are random, in
// order, reversed, and all one key, over the reducer counts that put 0,
// 1, 2, 5 and 10 of a word's bits to the partition.
func TestSortBufferOrderMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, reducers := range []int{1, 2, 3, 29, 1000} {
		for round := 0; round < 8; round++ {
			c := randomSortCase(rng, reducers, 1+rng.Intn(3000))
			switch round % 4 {
			case 1:
				c = c.sorted(false)
			case 2:
				c = c.sorted(true)
			case 3:
				for i := range c.keys {
					c.keys[i], c.parts[i] = []byte("w1"), 0
				}
			}
			c.check(t)
		}
	}
}

// encode is the case as FuzzSortBufferOrder reads it: per record a
// big-endian 2-byte partition, a length byte and the key.
func (c sortCase) encode() []byte {
	var out []byte
	for i, k := range c.keys {
		out = binary.BigEndian.AppendUint16(out, uint16(c.parts[i]))
		out = append(append(out, byte(len(k))), k...)
	}
	return out
}

// FuzzSortBufferOrder holds the sort to the model over any records: the
// partition is taken modulo the reducer count, the length modulo 24, and
// a key ends early where the input does. The seeds are the shapes
// TestSortBufferOrderMatchesSortSlice draws from, at its reducer counts.
func FuzzSortBufferOrder(f *testing.F) {
	shapes := []string{
		"", "\x00", "a", "a\x00", "\x00a", "abcdefg", "abcdefg\x00", "abcdefgh", "abcdefgi",
		"abcdefh\x00", "abcdefgh\x00", "prefix--", "prefix--1", "prefix--12", "prefix--1\x00",
		"prefix--2", "\x00\x00\x00\x00\x00\x00\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		"w1", "w1", "w1", "w10", "w2",
	}
	for _, reducers := range []int{1, 2, 3, 29, 1000} {
		c := sortCase{reducers: reducers}
		for rep, part := range []int{0, reducers - 1, 1 % reducers} {
			for i := range shapes {
				k := shapes[(i*7+rep*5)%len(shapes)]
				c.keys, c.parts = append(c.keys, []byte(k)), append(c.parts, part)
			}
		}
		f.Add(uint16(reducers), c.encode())
	}
	f.Fuzz(func(t *testing.T, reducers uint16, recs []byte) {
		c := sortCase{reducers: max(1, int(reducers))}
		for len(recs) >= 3 {
			part := int(binary.BigEndian.Uint16(recs)) % c.reducers
			n := min(int(recs[2])%24, len(recs)-3)
			c.keys, c.parts = append(c.keys, recs[3:3+n]), append(c.parts, part)
			recs = recs[3+n:]
		}
		c.check(t)
	})
}

// TestSortBufferAddAllocationFree guards the emit and sort paths: once
// the index has grown to a task's working size, adding a record
// allocates nothing, and sorting allocates only the segments.
func TestSortBufferAddAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation guard; the race runtime allocates around instrumented code")
	}
	b := newSortBuffer(1<<20, 1<<20, 4)
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
	// Sorting and slicing allocates the segment list and one segment per
	// partition, and nothing else: the sort itself allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() {
		fill()
		b.sortAndSlice()
	}); allocs != 1+4 {
		t.Fatalf("sortAndSlice over 4 partitions allocates %.1f times, want 5", allocs)
	}
	if size := unsafe.Sizeof(bufRec{}); size != 24 {
		t.Fatalf("an index entry takes %d bytes, want 24", size)
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
