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

// newFileStream opens a stream over f that reads through reuse's
// backing when it is big enough, else through a buffer of its own.
func newFileStream(f spill.File, reuse []byte) *fileStream {
	return &fileStream{RunReader: spill.NewRunReader(f, streamBufReal, reuse)}
}

// readBufs is a free list of file-stream buffers: a task or a node
// combiner that merges runs batch after batch reads every batch through
// the buffers of the first.
type readBufs [][]byte

// open is newFileStream with a buffer from the list.
func (r *readBufs) open(f spill.File) *fileStream {
	var reuse []byte
	if n := len(*r); n > 0 {
		reuse = (*r)[n-1]
		(*r)[n-1] = nil
		*r = (*r)[:n-1]
	}
	return newFileStream(f, reuse)
}

// recycle takes back the buffers of a finished merge's file streams;
// nothing may read those streams again.
func (r *readBufs) recycle(streams []recordStream) {
	for _, s := range streams {
		if fs, ok := s.(*fileStream); ok {
			*r = append(*r, fs.Buffer())
		}
	}
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
//
// The heap is container/heap's, typed: Init, Fix and Pop make the same
// swaps through the same down steps (Fix's up step is a no-op at the
// root, the only entry ever fixed), so records with equal keys come out
// in the order they always have. Each entry caches its stream's current
// key, taken once per next.
type mergeStream struct {
	h []mergeEntry
	// cmp is the comparison CPU one record costs: compareCost times
	// bits.Len of the stream count (at least one).
	cmp simtime.Duration
	// primed indicates the heap is initialized.
	primed bool
	k, v   []byte
}

// mergeEntry is one stream in the merge heap and its current key.
type mergeEntry struct {
	s recordStream
	k []byte
}

// newMergeStream merges the given key-sorted streams.
func newMergeStream(streams []recordStream) *mergeStream {
	h := make([]mergeEntry, len(streams))
	for i, s := range streams {
		h[i].s = s
	}
	return &mergeStream{
		h:   h,
		cmp: simtime.Duration(bits.Len(uint(max(len(streams), 1)))) * compareCost,
	}
}

func (m *mergeStream) next(p *simtime.Proc) bool {
	if !m.primed {
		live := m.h[:0]
		for _, e := range m.h {
			if e.s.next(p) {
				live = append(live, mergeEntry{s: e.s, k: e.s.key()})
			}
		}
		clear(m.h[len(live):])
		m.h = live
		for i := len(m.h)/2 - 1; i >= 0; i-- {
			m.down(i, len(m.h))
		}
		m.primed = true
	} else if len(m.h) > 0 {
		// Advance the stream we last emitted from.
		if top := &m.h[0]; top.s.next(p) {
			top.k = top.s.key()
			m.down(0, len(m.h))
		} else {
			n := len(m.h) - 1
			m.h[0], m.h[n] = m.h[n], m.h[0]
			m.down(0, n)
			m.h[n] = mergeEntry{}
			m.h = m.h[:n]
		}
	}
	if len(m.h) == 0 {
		return false
	}
	m.k, m.v = m.h[0].k, m.h[0].s.value()
	return true
}

func (m *mergeStream) less(i, j int) bool { return bytes.Compare(m.h[i].k, m.h[j].k) < 0 }

// down is container/heap's down.
func (m *mergeStream) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && m.less(j2, j1) {
			j = j2 // right child
		}
		if !m.less(j, i) {
			break
		}
		m.h[i], m.h[j] = m.h[j], m.h[i]
		i = j
	}
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
