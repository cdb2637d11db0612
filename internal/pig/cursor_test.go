package pig

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randTuple builds an arbitrary nested tuple: empty strings, empty
// nested tuples and tuples wider than the cursor's offset index included.
func randTuple(rng *rand.Rand, depth int) Tuple {
	t := make(Tuple, rng.Intn(2*indexedFields+3))
	for i := range t {
		switch k := rng.Intn(5); {
		case k == 0:
			b := make([]byte, rng.Intn(5)*rng.Intn(40))
			rng.Read(b)
			t[i] = string(b)
		case k == 1:
			t[i] = int64(rng.Uint64())
		case k == 2:
			t[i] = math.Float64frombits(rng.Uint64())
		case depth > 0:
			t[i] = randTuple(rng, depth-1)
		default:
			t[i] = Tuple{}
		}
	}
	return t
}

// agree requires the cursor's typed accessors to return, field by field
// and level by level, what the materialised tuple holds.
func agree(c Cursor, want Tuple) error {
	if c.Len() != len(want) {
		return fmt.Errorf("cursor has %d fields, tuple %d", c.Len(), len(want))
	}
	for i, f := range want {
		switch x := f.(type) {
		case string:
			if got := c.String(i); got != x {
				return fmt.Errorf("field %d: String = %q, want %q", i, got, x)
			}
		case int64:
			if got := c.Int(i); got != x || c.Number(i) != float64(x) {
				return fmt.Errorf("field %d: Int = %d, want %d", i, got, x)
			}
		case float64:
			if got := c.Float(i); math.Float64bits(got) != math.Float64bits(x) ||
				math.Float64bits(c.Number(i)) != math.Float64bits(x) {
				return fmt.Errorf("field %d: Float = %v, want %v", i, got, x)
			}
		case Tuple:
			if err := agree(c.Nested(i), x); err != nil {
				return fmt.Errorf("field %d: %w", i, err)
			}
		}
	}
	return nil
}

// checkSerialized is the property the seeded test and the fuzz target
// share. Whatever data holds, Scan either rejects it or yields a cursor
// that agrees with DecodeTuple, whose re-encoding scans back to the same
// tuple, and whose projections are the fields' own bytes.
func checkSerialized(t *testing.T, data []byte) {
	t.Helper()
	c, err := Scan(data)
	if err != nil {
		defer func() {
			if recover() == nil {
				t.Fatalf("Scan rejected %x (%v) but DecodeTuple accepted it", data, err)
			}
		}()
		DecodeTuple(data)
		return
	}
	// No accessor may reach past the tuple: cut the cursor's bytes out
	// of the input and read them with nothing behind them.
	c = mustScan(bytes.Clone(c.Raw()))
	tu := DecodeTuple(data)
	if err := agree(c, tu); err != nil {
		t.Fatalf("%x: %v", data, err)
	}
	again := mustScan(AppendTuple(nil, tu))
	if err := agree(again, tu); err != nil {
		t.Fatalf("%x re-encoded: %v", data, err)
	}
	if c.Len() > 0 {
		fields := []int{c.Len() - 1, 0}
		proj := mustScan(c.AppendProject(nil, fields))
		if err := agree(proj, Tuple{tu[fields[0]], tu[0]}); err != nil {
			t.Fatalf("%x projected: %v", data, err)
		}
	}
}

// padVarint rewrites the uvarint at data[off:] in its longest form: the
// same value over ten bytes, as a foreign encoder may write it.
func padVarint(data []byte, off int) []byte {
	v, n := binary.Uvarint(data[off:])
	long := make([]byte, 0, binary.MaxVarintLen64)
	for i := 0; i < binary.MaxVarintLen64-1; i++ {
		long = append(long, byte(v)|0x80)
		v >>= 7
	}
	long = append(long, byte(v))
	return append(append(bytes.Clone(data[:off]), long...), data[off+n:]...)
}

func TestCursorAgreesWithDecodeTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(20140622))
	for i := 0; i < 2000; i++ {
		tu := randTuple(rng, 3)
		data := AppendTuple(nil, tu)
		if err := agree(mustScan(data), tu); err != nil {
			t.Fatalf("%v: %v", tu, err)
		}
		checkSerialized(t, data)
		// The same tuple with its field count in a max-length varint, and
		// followed by bytes that are not part of it.
		checkSerialized(t, append(padVarint(data, 1), 0xff, 0xff))
	}
}

// TestScanRejectsMalformed cuts and corrupts valid encodings: Scan must
// answer with an error, DecodeTuple with a panic the caller can recover,
// and neither with an out-of-range read or an allocation sized from an
// untrusted count.
func TestScanRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		data := AppendTuple(nil, randTuple(rng, 2))
		for cut := 0; cut < len(data); cut++ {
			if _, err := Scan(data[:cut:cut]); err == nil {
				t.Fatalf("Scan accepted %x cut to %d bytes", data, cut)
			}
		}
		for j := 0; j < 20; j++ {
			bad := bytes.Clone(data)
			bad[rng.Intn(len(bad))] = byte(rng.Intn(256))
			checkSerialized(t, bad)
		}
	}
	for _, data := range [][]byte{
		nil,
		{tagString, 0},      // a value, but not a tuple
		{tagTuple, 1, 9},    // unknown tag
		{tagTuple, 1, 1, 5}, // string longer than the input
		{tagTuple, 2, 2},    // number cut short
		{tagTuple, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},       // 2^64-1 fields
		{tagTuple, 1, tagTuple, 0xff, 0xff, 0xff, 0xff, 0x0f},                        // 2^32-1 nested fields
		{tagTuple, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, // varint overflow
	} {
		if _, err := Scan(data); err == nil {
			t.Errorf("Scan accepted %x", data)
		}
		checkSerialized(t, data)
	}
}

// FuzzScan feeds Scan arbitrary bytes: it must never panic, and what it
// accepts must read the same through the cursor and through DecodeTuple.
func FuzzScan(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		f.Add(AppendTuple(nil, randTuple(rng, 2)))
	}
	f.Add([]byte{tagTuple, 0})
	f.Add([]byte{tagTuple, 1, tagTuple, 1, tagTuple, 0})
	f.Add(padVarint(AppendTuple(nil, Tuple{"", Tuple{}, int64(1)}), 1))
	f.Fuzz(checkSerialized)
}

// TestProbeTupleCodecAllocationFree guards the record path's floor on
// the benchmark probe's tuple: encoding it into reused scratch — boxed
// through AppendTuple as the probe does, and field by field as the
// generators do — and reading every field back through a cursor
// allocates nothing.
func TestProbeTupleCodecAllocationFree(t *testing.T) {
	probe := Tuple{
		"http://www.domain042.com/page/123456", "domain042.com", "en", 0.375,
		Tuple{"term0001", "term0042", "term0007", "term0100"},
		"padding-padding-padding-padding",
	}
	var boxed, typed []byte
	var sink int
	codec := func() {
		boxed = AppendTuple(boxed[:0], probe)
		c, err := Scan(boxed)
		if err != nil {
			t.Fatal(err)
		}
		b := AppendTupleHeader(typed[:0], c.Len())
		b = AppendString(b, c.String(0))
		b = AppendString(b, c.String(1))
		b = AppendString(b, c.String(2))
		b = AppendFloat(b, c.Float(3))
		terms := c.Nested(4)
		b = AppendTupleHeader(b, terms.Len())
		for i := 0; i < terms.Len(); i++ {
			b = AppendString(b, terms.String(i))
		}
		typed = AppendString(b, c.String(5))
		sink += len(typed)
	}
	codec()
	if allocs := testing.AllocsPerRun(100, codec); allocs != 0 {
		t.Fatalf("encode into scratch + cursor read allocates %.1f times, want 0", allocs)
	}
	if !bytes.Equal(typed, boxed) {
		t.Fatal("field-by-field encoding differs from AppendTuple's")
	}
}
