package pig

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// indexedFields is how many leading field offsets a Cursor records.
// Fields past it are found by walking from the last recorded one, so
// wide tuples stay correct and only the rare wide access pays.
const indexedFields = 8

// Cursor reads one serialized tuple in place. Scan validates the whole
// tuple once; the accessors then trust it. Strings come back as views
// into the serialized bytes: they are valid until that buffer is reused
// and must be cloned to outlive it.
type Cursor struct {
	buf  []byte // exactly the tuple's serialized bytes
	n    uint32 // field count
	offs [indexedFields]uint32
}

var errTruncated = errors.New("pig: truncated tuple")

// Scan indexes the serialized tuple at the start of data. Bytes after
// the tuple are ignored. It fails on a value that is not a tuple, an
// unknown tag, or a length or count running past the end of data, so no
// accessor of the returned Cursor can read out of range.
func Scan(data []byte) (Cursor, error) {
	var c Cursor
	if len(data) == 0 {
		return c, errTruncated
	}
	if data[0] != tagTuple {
		return c, errors.New("pig: serialized value is not a tuple")
	}
	n, sz := binary.Uvarint(data[1:])
	off := 1 + sz
	// Every field takes at least one byte, which bounds the count by
	// the input and keeps it inside uint32 and the skip loop short.
	if sz <= 0 || n > uint64(len(data)-off) || n > math.MaxUint32 {
		return c, errTruncated
	}
	c.n = uint32(n)
	for i := 0; i < int(n); i++ {
		if i < indexedFields {
			c.offs[i] = uint32(off)
		}
		var err error
		if off, err = skipValue(data, off); err != nil {
			return Cursor{}, err
		}
	}
	c.buf = data[:off]
	return c, nil
}

// mustScan is Scan for serialized tuples this program wrote itself; a
// failure is a panic, which the MapReduce engine turns into a failed
// task attempt.
func mustScan(data []byte) Cursor {
	c, err := Scan(data)
	if err != nil {
		panic(err)
	}
	return c
}

// skipValue returns the offset past the value at data[off:], nested
// tuples included, without recursion: a tuple header adds its field
// count to the number of values still to skip.
func skipValue(data []byte, off int) (int, error) {
	for pending := uint64(1); pending > 0; pending-- {
		if off >= len(data) {
			return 0, errTruncated
		}
		tag := data[off]
		off++
		switch tag {
		case tagString:
			n, sz := binary.Uvarint(data[off:])
			if sz <= 0 || n > uint64(len(data)-off-sz) {
				return 0, errTruncated
			}
			off += sz + int(n)
		case tagInt, tagFloat:
			if len(data)-off < 8 {
				return 0, errTruncated
			}
			off += 8
		case tagTuple:
			n, sz := binary.Uvarint(data[off:])
			if sz <= 0 || n > uint64(len(data)-off-sz) {
				return 0, errTruncated
			}
			off += sz
			pending += n
		default:
			return 0, fmt.Errorf("pig: bad tag %d at %d", tag, off-1)
		}
	}
	return off, nil
}

// viewString returns b's bytes as a string without copying. The string
// aliases b: it is valid only until b's backing array is overwritten or
// reused, and whoever keeps it longer must copy it first. This is the
// package's one unsafe view. Its callers are Cursor.String, over
// serialized bytes a buffer will reuse, and TopK's counter table, over
// its arena copies, which are never rewritten.
func viewString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Len returns the number of fields.
func (c Cursor) Len() int { return int(c.n) }

// Raw returns the tuple's serialized bytes, a view like any other.
func (c Cursor) Raw() []byte { return c.buf }

// fieldOff returns the offset of field i's tag byte.
func (c Cursor) fieldOff(i int) int {
	if uint(i) >= uint(c.n) {
		panic(fmt.Sprintf("pig: field %d of a %d-field tuple", i, c.n))
	}
	if i < indexedFields {
		return int(c.offs[i])
	}
	off := int(c.offs[indexedFields-1])
	for j := indexedFields - 1; j < i; j++ {
		off, _ = skipValue(c.buf, off) // validated by Scan
	}
	return off
}

// field returns the offset of field i's payload after checking its tag.
func (c Cursor) field(i int, tag byte) int {
	off := c.fieldOff(i)
	if c.buf[off] != tag {
		panic(fmt.Sprintf("pig: field %d has tag %d, want %d", i, c.buf[off], tag))
	}
	return off + 1
}

// String returns field i as a string view (see viewString).
func (c Cursor) String(i int) string {
	off := c.field(i, tagString)
	n, sz := binary.Uvarint(c.buf[off:])
	return viewString(c.buf[off+sz : off+sz+int(n)])
}

// Int returns field i as an int64.
func (c Cursor) Int(i int) int64 {
	return int64(binary.LittleEndian.Uint64(c.buf[c.field(i, tagInt):]))
}

// Float returns field i as a float64.
func (c Cursor) Float(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.field(i, tagFloat):]))
}

// Number returns field i, an int64 or a float64, as a float64 — the
// common type numbers of either kind are compared in.
func (c Cursor) Number(i int) float64 {
	if c.buf[c.fieldOff(i)] == tagInt {
		return float64(c.Int(i))
	}
	return c.Float(i)
}

// Nested returns a cursor over field i, a nested tuple.
func (c Cursor) Nested(i int) Cursor {
	return mustScan(c.buf[c.field(i, tagTuple)-1:])
}

// AppendProject serializes onto dst the tuple made of the given fields
// of c, copying their serialized bytes as they are.
func (c Cursor) AppendProject(dst []byte, fields []int) []byte {
	dst = AppendTupleHeader(dst, len(fields))
	for _, i := range fields {
		start := c.fieldOff(i)
		end, _ := skipValue(c.buf, start) // validated by Scan
		dst = append(dst, c.buf[start:end]...)
	}
	return dst
}

// Tuple materialises the tuple: every string cloned, every field boxed.
func (c Cursor) Tuple() Tuple {
	v, _ := decodeValue(c.buf, 0)
	return v.(Tuple)
}

// decodeValue materialises the value at data[off:], which Scan has
// validated, returning it and the offset past it.
func decodeValue(data []byte, off int) (Value, int) {
	tag := data[off]
	off++
	switch tag {
	case tagString:
		n, sz := binary.Uvarint(data[off:])
		off += sz
		return string(data[off : off+int(n)]), off + int(n)
	case tagInt:
		return int64(binary.LittleEndian.Uint64(data[off:])), off + 8
	case tagFloat:
		return math.Float64frombits(binary.LittleEndian.Uint64(data[off:])), off + 8
	}
	n, sz := binary.Uvarint(data[off:])
	off += sz
	t := make(Tuple, n)
	for i := range t {
		t[i], off = decodeValue(data, off)
	}
	return t, off
}
