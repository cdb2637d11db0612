package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
	"spongefiles/internal/sponge"
)

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent indexes the span that
// was open when this one began (-1 for none); Iter is the iteration the
// span belongs to (-1 outside the iteration loop). A span's own time is
// its duration minus its children, unless SelfMeasured says Self holds
// it: the job workload's spill spans interleave with other simulated
// tasks, so their own time is measured directly (see tracer.tick).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Iter   int32  `json:"iter"`
	Self   int64  `json:"self_ns,omitempty"`

	SelfMeasured bool `json:"self_measured,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Every decorator in this file is a no-op costing one branch while the
// tracer is off, so one stack serves both the untraced baseline and the
// traced section of a --trace run.
//
// The simulator runs one process at a time, so the tracer needs no
// lock: spans begin and end on whichever goroutine the scheduler
// resumed, never on two at once.
type tracer struct {
	on    bool
	epoch time.Time
	iter  int32
	spans []span
	// open is the innermost open span whose callee may begin further
	// spans (an iteration, a file operation); -1 when none.
	open int32

	// lastEv and lastProc drive tick: the time of the previous trace
	// event and the simulated process that produced it. openSpill maps
	// a process to the spill span it has open, so that a transport call
	// nested in it credits the process's own time to the span.
	lastEv    int64
	lastProc  *simtime.Proc
	openSpill map[*simtime.Proc]int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), iter: -1, open: -1, openSpill: map[*simtime.Proc]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the current open span and makes it the open
// one; end closes it and restores its parent. With the tracer off begin
// returns -1, which end ignores.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.open, Iter: t.iter})
	t.open = id
	return id
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].End = t.now()
		t.open = t.spans[id].Parent
	}
}

// leaf records a finished span that begins no others; a no-op with the
// tracer off.
func (t *tracer) leaf(name string, start, end int64) {
	if t.on {
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.open, Iter: t.iter})
	}
}

// mark notes that process p is running, without reading the clock; the
// job closures call it on every record so tick can tell when another
// simulated task ran in between two events.
func (t *tracer) mark(p *simtime.Proc) { t.lastProc = p }

// tick reads the clock and returns, beside it, the wall time since the
// previous event when process p produced both and no other process was
// marked in between — the only intervals that provably belong to p's
// own code, because the simulator switches processes inside calls the
// benchmark cannot see.
func (t *tracer) tick(p *simtime.Proc) (now, own int64) {
	now = t.now()
	if p == t.lastProc {
		own = now - t.lastEv
	}
	t.lastEv, t.lastProc = now, p
	return now, own
}

// sums returns, per span name, the total duration and total self time
// of the spans of iterations [from, to).
func (t *tracer) sums(from, to int32) (total, self map[string]int64, count map[string]int64) {
	total, self, count = map[string]int64{}, map[string]int64{}, map[string]int64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Iter < from || s.Iter >= to {
			continue
		}
		d := s.End - s.Start
		total[s.Name] += d
		count[s.Name]++
		if s.SelfMeasured {
			self[s.Name] += s.Self
		} else {
			self[s.Name] += d - child[i]
		}
	}
	return total, self, count
}

// durations returns the sorted durations, in nanoseconds, of the spans
// with the given name in iterations [from, to).
func (t *tracer) durations(name string, from, to int32) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Iter >= from && s.Iter < to {
			out = append(out, float64(s.End-s.Start))
		}
	}
	sort.Float64s(out)
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- sponge.Transport decorator -------------------------------------------

// tracedTransport times every exchange that crosses the sponge
// transport seam, installed with Service.SetTransport exactly as
// sponge.FaultTransport is. Wire calls block the calling goroutine for
// real — the simulator cannot switch processes inside one — so these
// spans are exact on every workload.
type tracedTransport struct {
	inner sponge.Transport
	tr    *tracer
	peers map[int]sponge.Peer
	// unreachable counts exchanges that came back ErrPeerUnreachable;
	// payload the chunk bytes written and read while tracing.
	unreachable int64
	payload     int64
}

func newTracedTransport(inner sponge.Transport, tr *tracer) *tracedTransport {
	return &tracedTransport{inner: inner, tr: tr, peers: map[int]sponge.Peer{}}
}

func (t *tracedTransport) Peer(node int) sponge.Peer {
	if p := t.peers[node]; p != nil {
		return p
	}
	p := &tracedPeer{t: t, inner: t.inner.Peer(node)}
	t.peers[node] = p
	return p
}

type tracedPeer struct {
	t     *tracedTransport
	inner sponge.Peer
}

// start opens one exchange: it credits the caller's own time since its
// last event to the spill span the caller has open, if any, and returns
// the start time — or -1 with the tracer off.
func (tp *tracedPeer) start(p *simtime.Proc) int64 {
	tr := tp.t.tr
	if !tr.on {
		return -1
	}
	now, own := tr.tick(p)
	if id, ok := tr.openSpill[p]; ok {
		tr.spans[id].Self += own
	}
	return now
}

// done closes the exchange start opened, counting its payload bytes.
func (tp *tracedPeer) done(name string, p *simtime.Proc, start int64, err error, payload int) {
	if start < 0 {
		return
	}
	tr := tp.t.tr
	end, _ := tr.tick(p)
	tr.leaf(name, start, end)
	tp.t.payload += int64(payload)
	if errors.Is(err, sponge.ErrPeerUnreachable) {
		tp.t.unreachable++
	}
}

func (tp *tracedPeer) AllocWrite(p *simtime.Proc, from *cluster.Node, owner sponge.TaskID, data []byte) (int, error) {
	start := tp.start(p)
	h, err := tp.inner.AllocWrite(p, from, owner, data)
	tp.done("transport.allocwrite", p, start, err, len(data))
	return h, err
}

func (tp *tracedPeer) Read(p *simtime.Proc, to *cluster.Node, handle int, buf []byte) (int, error) {
	start := tp.start(p)
	n, err := tp.inner.Read(p, to, handle, buf)
	tp.done("transport.read", p, start, err, n)
	return n, err
}

func (tp *tracedPeer) Free(p *simtime.Proc, from *cluster.Node, handle int) error {
	start := tp.start(p)
	err := tp.inner.Free(p, from, handle)
	tp.done("transport.free", p, start, err, 0)
	return err
}

func (tp *tracedPeer) FreeSpace(p *simtime.Proc, from *cluster.Node) (int, error) {
	start := tp.start(p)
	n, err := tp.inner.FreeSpace(p, from)
	tp.done("transport.freespace", p, start, err, 0)
	return n, err
}

func (tp *tracedPeer) TaskAlive(p *simtime.Proc, from *cluster.Node, pid int64) (bool, error) {
	return tp.inner.TaskAlive(p, from, pid)
}

// --- spill.Factory / Target / File decorator ------------------------------

// tracedFactory wraps a spill.Factory so every Create, Write, Close,
// Read and Delete a job issues is a span. Several simulated tasks
// interleave inside these calls, so a span's duration is not its cost;
// Self holds the intervals tick attributes to the calling process.
func tracedFactory(inner spill.Factory, tr *tracer) spill.Factory {
	return func(node *cluster.Node) spill.Target {
		return &tracedTarget{Target: inner(node), tr: tr}
	}
}

type tracedTarget struct {
	spill.Target
	tr *tracer
}

func (t *tracedTarget) Create(p *simtime.Proc, name string) spill.File {
	id := t.tr.spillBegin(p, "spill.create")
	f := t.Target.Create(p, name)
	t.tr.spillEnd(p, id)
	return &tracedFile{File: f, tr: t.tr}
}

type tracedFile struct {
	spill.File
	tr *tracer
}

// spillBegin opens a spill span for process p (-1 with the tracer off)
// and spillEnd closes it, crediting p's own time at both ends.
func (t *tracer) spillBegin(p *simtime.Proc, name string) int32 {
	if !t.on {
		return -1
	}
	now, _ := t.tick(p)
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: t.open, Iter: t.iter, SelfMeasured: true})
	t.openSpill[p] = id
	return id
}

func (t *tracer) spillEnd(p *simtime.Proc, id int32) {
	if id < 0 {
		return
	}
	now, own := t.tick(p)
	s := &t.spans[id]
	s.End = now
	s.Self += own
	delete(t.openSpill, p)
}

func (f *tracedFile) Write(p *simtime.Proc, data []byte) error {
	id := f.tr.spillBegin(p, "spill.write")
	err := f.File.Write(p, data)
	f.tr.spillEnd(p, id)
	return err
}

func (f *tracedFile) Close(p *simtime.Proc) error {
	id := f.tr.spillBegin(p, "spill.close")
	err := f.File.Close(p)
	f.tr.spillEnd(p, id)
	return err
}

func (f *tracedFile) Read(p *simtime.Proc, buf []byte) (int, error) {
	id := f.tr.spillBegin(p, "spill.read")
	n, err := f.File.Read(p, buf)
	f.tr.spillEnd(p, id)
	return n, err
}

func (f *tracedFile) Delete(p *simtime.Proc) {
	id := f.tr.spillBegin(p, "spill.delete")
	f.File.Delete(p)
	f.tr.spillEnd(p, id)
}

// --- job closure timers ---------------------------------------------------

// sampleEvery is the share of closure calls whose own time is read off
// the clock while tracing; the total is scaled up from them. Reading
// the clock twice costs about as much as mapping one record, so timing
// every call would measure the clock.
const sampleEvery = 16

// clockNs is what one start/stop pair reads when nothing runs between
// them, taken off every sample.
var clockNs = func() int64 {
	best := int64(1 << 62)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if d := int64(time.Since(t0)); d < best {
			best = d
		}
	}
	return best
}()

// fnTimer accumulates the own time of one user closure (record
// generator, map, combine, reduce). User code never sleeps in simulated
// time, so a segment between two calls into the engine belongs wholly to
// the closure — unlike any span that crosses an engine call.
type fnTimer struct {
	calls int64
	ns    int64 // own time of the sampled calls
}

// start begins a segment; the zero time means "not sampled" (tracing
// off, or not this call's turn). A non-nil p is marked as running.
func (f *fnTimer) start(tr *tracer, p *simtime.Proc) time.Time {
	if !tr.on {
		return time.Time{}
	}
	if p != nil {
		tr.mark(p)
	}
	f.calls++
	if f.calls%sampleEvery != 0 {
		return time.Time{}
	}
	return time.Now()
}

// stop ends the segment start began.
func (f *fnTimer) stop(t0 time.Time) {
	if !t0.IsZero() {
		if d := int64(time.Since(t0)) - clockNs; d > 0 {
			f.ns += d
		}
	}
}

// pause and resume bracket a call into the engine made in mid-segment:
// the time between them is taken back out.
func (f *fnTimer) pause(t0 time.Time) time.Time {
	if t0.IsZero() {
		return t0
	}
	return time.Now()
}

func (f *fnTimer) resume(t0, paused time.Time) {
	if !t0.IsZero() {
		f.ns -= int64(time.Since(paused)) + clockNs
	}
}

func (f *fnTimer) seconds() float64 { return float64(f.ns) * sampleEvery / 1e9 }
