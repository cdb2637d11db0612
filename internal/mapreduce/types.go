// Package mapreduce implements a Hadoop-like MapReduce engine on the
// simulated cluster: a FIFO job scheduler over per-node task slots, map
// tasks with a sorting spill buffer, a shuffle phase, and a reduce-side
// multi-round k-way merge that spills through the spill.Target
// abstraction — the integration point where stock disk spilling is
// replaced by SpongeFiles (§2.1, §3.2 of the paper).
//
// Engines move real bytes (sorting, merging and user functions operate
// on actual data) while devices charge virtual time, so both correctness
// and the paper's performance effects are observable.
package mapreduce

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"math/bits"

	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// MapFunc consumes one input record and emits zero or more key/value
// pairs. Implementations must not retain key or value.
type MapFunc func(ctx *TaskContext, key, value []byte, emit Emit)

// ReduceFunc consumes one key and the iterator over its values, emitting
// output records. Values arrive in the merge's key-sorted order.
type ReduceFunc func(ctx *TaskContext, key []byte, values *ValueIter, emit Emit)

// Emit receives an output record.
type Emit func(key, value []byte)

// recHeader is the serialized record framing: two 32-bit lengths.
const recHeader = 8

// recSize returns the serialized size of a record.
func recSize(k, v []byte) int { return recHeader + len(k) + len(v) }

// appendRecord serializes a record onto dst.
func appendRecord(dst []byte, k, v []byte) []byte {
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(k)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(v)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, k...)
	dst = append(dst, v...)
	return dst
}

// decodeRecord reads the record at data[off:], returning key, value and
// the offset past it.
func decodeRecord(data []byte, off int) (k, v []byte, next int) {
	kl := int(binary.LittleEndian.Uint32(data[off : off+4]))
	vl := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
	ks := off + recHeader
	return data[ks : ks+kl], data[ks+kl : ks+kl+vl], ks + kl + vl
}

// recordStream yields key-sorted records; the merge consumes these.
type recordStream interface {
	// next advances to the following record, reporting false at the end.
	next(p *simtime.Proc) bool
	// key and value are valid until the next call to next.
	key() []byte
	value() []byte
}

// memStream iterates a serialized in-memory segment.
type memStream struct {
	data []byte
	off  int
	k, v []byte
}

func newMemStream(data []byte) *memStream { return &memStream{data: data} }

// reset re-arms the stream over a new segment, reusing the struct.
func (s *memStream) reset(data []byte) {
	s.data, s.off = data, 0
	s.k, s.v = nil, nil
}

func (s *memStream) next(p *simtime.Proc) bool {
	if s.off >= len(s.data) {
		return false
	}
	s.k, s.v, s.off = decodeRecord(s.data, s.off)
	return true
}

func (s *memStream) key() []byte   { return s.k }
func (s *memStream) value() []byte { return s.v }

// fileStream iterates a serialized spill file with buffered reads, so
// I/O is charged in large operations rather than per record.
type fileStream struct {
	spill.RunReader
	k, v []byte
}

// streamBufReal is the read and write granularity of spill-file streams.
const streamBufReal = spill.RunBufReal

func newFileStream(f spill.File) *fileStream {
	return &fileStream{RunReader: spill.NewRunReader(f, streamBufReal, nil)}
}

func (s *fileStream) next(p *simtime.Proc) bool {
	if !s.Need(p, recHeader) {
		return false
	}
	w := s.Window()
	total := recHeader + int(binary.LittleEndian.Uint32(w[0:4])) + int(binary.LittleEndian.Uint32(w[4:8]))
	if !s.Need(p, total) {
		panic("mapreduce: truncated record in spill")
	}
	s.k, s.v, _ = decodeRecord(s.Window(), 0)
	s.Skip(total)
	return true
}

func (s *fileStream) key() []byte   { return s.k }
func (s *fileStream) value() []byte { return s.v }

// mergeStream is a k-way merge of key-sorted streams, itself a
// recordStream. It charges nothing: the caller charges cmp, the
// merge's comparison CPU, per record it takes, so the merge stays
// reusable.
type mergeStream struct {
	h mergeHeap
	// cmp is the comparison CPU one record costs: compareCost times
	// bits.Len of the stream count (at least one).
	cmp simtime.Duration
	// primed indicates the heap is initialized.
	primed bool
	k, v   []byte
}

type mergeHeap []recordStream

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return bytes.Compare(h[i].key(), h[j].key()) < 0
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(recordStream)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// newMergeStream merges the given key-sorted streams.
func newMergeStream(streams []recordStream) *mergeStream {
	return &mergeStream{
		h:   append(mergeHeap(nil), streams...),
		cmp: simtime.Duration(bits.Len(uint(max(len(streams), 1)))) * compareCost,
	}
}

func (m *mergeStream) next(p *simtime.Proc) bool {
	if !m.primed {
		live := m.h[:0]
		for _, s := range m.h {
			if s.next(p) {
				live = append(live, s)
			}
		}
		m.h = live
		heap.Init(&m.h)
		m.primed = true
	} else if len(m.h) > 0 {
		// Advance the stream we last emitted from.
		if m.h[0].next(p) {
			heap.Fix(&m.h, 0)
		} else {
			heap.Pop(&m.h)
		}
	}
	if len(m.h) == 0 {
		return false
	}
	m.k, m.v = m.h[0].key(), m.h[0].value()
	return true
}

func (m *mergeStream) key() []byte   { return m.k }
func (m *mergeStream) value() []byte { return m.v }

// ValueIter iterates the values of one key during reduce. It is valid
// only inside the ReduceFunc invocation it was passed to.
type ValueIter struct {
	g *grouper
}

// Next returns the next value for the current key; ok is false when the
// key's run ends. The returned slice is valid until the next call.
func (it *ValueIter) Next() ([]byte, bool) { return it.g.nextValue() }

// grouper drives group-by-key iteration over a merged stream.
type grouper struct {
	src     recordStream
	p       *simtime.Proc
	curKey  []byte
	started bool // curKey holds a captured key
	pending bool // src is positioned at an unconsumed record
	done    bool
	onRec   func(k, v []byte) // per-record hook (CPU + counters)
}

// eachGroup runs fn over each key group of src: its key, vi over its
// values, and emit. onRec sees each value fn takes; values fn leaves
// are skipped. A non-nil *stop after a group ends the pass before src
// is read again (a failed spill write). The caller owns g and vi, so a
// recycled pair allocates nothing; g keeps its key scratch.
func eachGroup(ctx *TaskContext, g *grouper, vi *ValueIter, src recordStream, onRec func(k, v []byte), fn ReduceFunc, emit Emit, stop *error) {
	*g = grouper{src: src, p: ctx.P, curKey: g.curKey, onRec: onRec}
	vi.g = g
	for {
		if !g.pending {
			if !src.next(ctx.P) {
				return
			}
			g.pending = true
		}
		if g.started && bytes.Equal(src.key(), g.curKey) {
			// Unconsumed value of the previous key: skip it.
			g.pending = false
			continue
		}
		g.started = true
		g.curKey = append(g.curKey[:0], src.key()...)
		fn(ctx, g.curKey, vi, emit)
		if stop != nil && *stop != nil {
			return
		}
	}
}

func (g *grouper) nextValue() ([]byte, bool) {
	if g.done {
		return nil, false
	}
	if g.pending {
		if !bytes.Equal(g.src.key(), g.curKey) {
			return nil, false
		}
		g.pending = false
		if g.onRec != nil {
			g.onRec(g.src.key(), g.src.value())
		}
		return g.src.value(), true
	}
	if !g.src.next(g.p) {
		g.done = true
		return nil, false
	}
	g.pending = true
	if !bytes.Equal(g.src.key(), g.curKey) {
		return nil, false
	}
	g.pending = false
	if g.onRec != nil {
		g.onRec(g.src.key(), g.src.value())
	}
	return g.src.value(), true
}
