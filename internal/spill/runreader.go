package spill

import "spongefiles/internal/simtime"

// RunBufReal is the read granularity of a run read back from a spill
// file: I/O is charged in operations this large rather than per record.
const RunBufReal = 64 << 10

// RunReader reads a spilled run back through one buffer. Records are
// the caller's: it asks for as many bytes as its next record needs
// (Need), decodes them in place (Window) and moves on (Skip). The
// buffer's capacity is the size of each read, and so what the medium
// charges; it grows only for a record that does not fit.
type RunReader struct {
	f    File
	buf  []byte
	fill int
	off  int
	eof  bool
}

// NewRunReader reads f from its current position through a buffer of
// exactly the given capacity, taken from reuse's backing array when that
// is big enough.
func NewRunReader(f File, capacity int, reuse []byte) RunReader {
	if cap(reuse) < capacity {
		reuse = make([]byte, 0, capacity)
	}
	return RunReader{f: f, buf: reuse[:0:capacity]}
}

// Need ensures at least n unconsumed bytes are buffered, reporting false
// when the run ends first. A read error panics; the engines surface it
// as a task failure.
func (r *RunReader) Need(p *simtime.Proc, n int) bool {
	return r.fill-r.off >= n || r.refill(p, n)
}

// Window returns the buffered, unconsumed bytes, valid until the next
// Need.
func (r *RunReader) Window() []byte { return r.buf[r.off:r.fill] }

// Skip consumes n bytes of the window.
func (r *RunReader) Skip(n int) { r.off += n }

// Buffer returns the reader's buffer for a successor to reuse.
func (r *RunReader) Buffer() []byte { return r.buf }

// refill compacts the consumed prefix away and reads until need bytes
// are buffered or the run ends.
func (r *RunReader) refill(p *simtime.Proc, need int) bool {
	if r.off > 0 {
		copy(r.buf[:cap(r.buf)], r.buf[r.off:r.fill])
		r.fill -= r.off
		r.off = 0
	}
	for r.fill < need && !r.eof {
		if cap(r.buf) < need {
			grown := make([]byte, r.fill, need+RunBufReal)
			copy(grown, r.buf[:r.fill])
			r.buf = grown
		}
		r.buf = r.buf[:cap(r.buf)]
		n, err := r.f.Read(p, r.buf[r.fill:])
		if err != nil {
			panic(err)
		}
		if n == 0 {
			r.eof = true
		}
		r.fill += n
	}
	r.buf = r.buf[:r.fill]
	return r.fill >= need
}
