// Package pig implements a Pig-like dataflow layer on top of the
// MapReduce engine: typed tuples, spillable data bags managed by a
// memory manager that spills (portions of) large bags under memory
// pressure (§2.1.3 of the paper), group-by query plans compiled to
// MapReduce jobs, and the evaluation's two holistic UDFs — frequent
// anchortext (TopK) and spam-score quantiles.
//
// # Record path
//
// A tuple travels serialized: a tag byte per field (string, int64,
// float64, nested tuple), uvarint lengths and counts, little-endian
// 8-byte numbers. Producers append fields straight onto a reused buffer
// (AppendTupleHeader, AppendString, AppendInt, AppendFloat); consumers
// read in place through a Cursor, which Scan builds with one validating
// pass that indexes the field offsets. Cursor accessors return views
// into the serialized bytes and never box a field, so the map-side
// projection, the group key, a bag's sort key and the UDFs' passes cost
// no allocation per tuple. A view is valid until its buffer is reused:
// a map function's input until it returns, an Iterator's cursor until
// the next call to Next. Anything kept longer is copied (TopK copies a
// term onto its count table's arena when it enters). Tuple, with its
// boxed Value fields, is the materialised form for the edges — query
// output, tests, tools — and DecodeTuple is Scan followed by
// Cursor.Tuple.
package pig

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value is one tuple field: string, int64, float64, or a nested Tuple.
type Value interface{}

// Tuple is an ordered list of fields.
type Tuple []Value

// Field type tags in the serialized form.
const (
	tagString = 1
	tagInt    = 2
	tagFloat  = 3
	tagTuple  = 4
)

// AppendTupleHeader starts a serialized tuple of n fields on dst; the
// caller appends exactly n fields after it.
func AppendTupleHeader(dst []byte, n int) []byte {
	dst = append(dst, tagTuple)
	return binary.AppendUvarint(dst, uint64(n))
}

// AppendString serializes a string field, given as a string or as bytes.
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, tagString)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendInt serializes an int64 field.
func AppendInt(dst []byte, v int64) []byte {
	dst = append(dst, tagInt)
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// AppendFloat serializes a float64 field.
func AppendFloat(dst []byte, v float64) []byte {
	dst = append(dst, tagFloat)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendValue serializes one boxed value onto dst.
func AppendValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case string:
		return AppendString(dst, x)
	case int64:
		return AppendInt(dst, x)
	case float64:
		return AppendFloat(dst, x)
	case Tuple:
		return AppendTuple(dst, x)
	}
	panic(fmt.Sprintf("pig: unsupported value type %T", v))
}

// AppendTuple serializes a tuple onto dst.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = AppendTupleHeader(dst, len(t))
	for _, f := range t {
		dst = AppendValue(dst, f)
	}
	return dst
}

// DecodeTuple materialises a tuple serialized by AppendTuple. It panics
// on malformed input; a caller that must not panic calls Scan.
func DecodeTuple(data []byte) Tuple { return mustScan(data).Tuple() }

// compareFloat orders two numbers; NaN is unordered and compares equal.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// String returns field i as a string.
func (t Tuple) String(i int) string { return t[i].(string) }

// Int returns field i as an int64.
func (t Tuple) Int(i int) int64 { return t[i].(int64) }

// Float returns field i as a float64.
func (t Tuple) Float(i int) float64 { return t[i].(float64) }

// Nested returns field i as a nested tuple.
func (t Tuple) Nested(i int) Tuple { return t[i].(Tuple) }
