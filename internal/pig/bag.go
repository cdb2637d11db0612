package pig

import (
	"encoding/binary"
	"fmt"
	"slices"

	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/spill"
)

// MemoryManager mirrors Pig's SpillableMemoryManager: bags register with
// it, report their estimated sizes, and when bag memory exceeds the
// task's budget it spills the largest bags first (the paper: applications
// "try to spill the bigger objects to free more memory") until usage is
// back under the threshold.
type MemoryManager struct {
	p      *simtime.Proc
	target spill.Target
	// BudgetReal is the real-byte budget for bag memory.
	BudgetReal int
	// ChunkReal is Pig's bag spill chunk size C (10 MB virtual by
	// default): each spill event writes whole chunks of this size,
	// each into its own spill file ("each spilled object is written
	// into a separate SpongeFile", §3.2).
	ChunkReal int

	used int
	bags []*Bag
}

// NewMemoryManager creates a manager spilling through target.
func NewMemoryManager(p *simtime.Proc, target spill.Target, budgetReal, chunkReal int) *MemoryManager {
	if chunkReal <= 0 {
		chunkReal = 64 << 10
	}
	return &MemoryManager{p: p, target: target, BudgetReal: budgetReal, ChunkReal: chunkReal}
}

// Used reports current in-memory bag bytes (real).
func (m *MemoryManager) Used() int { return m.used }

func (m *MemoryManager) grow(n int) {
	m.used += n
	if m.used <= m.BudgetReal {
		return
	}
	// Memory pressure upcall: spill the largest bags until under budget.
	for m.used > m.BudgetReal {
		var victim *Bag
		for _, b := range m.bags {
			if b.memBytes > 0 && (victim == nil || b.memBytes > victim.memBytes) {
				victim = b
			}
		}
		if victim == nil || victim.memBytes < m.ChunkReal/4 {
			// Nothing big enough left to spill profitably.
			return
		}
		victim.spillNow(m.p)
	}
}

func (m *MemoryManager) shrink(n int) { m.used -= n }

// Bag is Pig's primary intermediate structure: a collection of tuples
// supporting insertion and iteration, spilling itself when the memory
// manager detects pressure (§2.1.3). A bag created with a sort key is an
// ordered bag: iteration is globally sorted by the key (spilled runs are
// sorted before writing, and iteration merges them).
type Bag struct {
	mm   *MemoryManager
	name string
	// sortKey orders tuples when non-nil (ordered bag).
	sortKey func(Cursor) float64

	// In-memory portion: the serialized tuples back to back in one
	// slab, and one index entry per tuple.
	slab     []byte
	recs     []bagRec
	memBytes int

	// Spilled runs, in spill order.
	runs  []spill.File
	total int64
}

// bagRec locates one tuple in the slab and, in an ordered bag, carries
// its sort key so sorting and merging never re-read the tuple.
type bagRec struct {
	key    float64
	off, n uint32
}

// NewBag creates an unordered bag registered with the manager.
func (m *MemoryManager) NewBag(name string) *Bag {
	b := &Bag{mm: m, name: name}
	m.bags = append(m.bags, b)
	return b
}

// NewSortedBag creates an ordered bag whose iteration is sorted by the
// numeric key; tuples with equal keys keep their insertion order within
// a run.
func (m *MemoryManager) NewSortedBag(name string, key func(Cursor) float64) *Bag {
	b := &Bag{mm: m, name: name, sortKey: key}
	m.bags = append(m.bags, b)
	return b
}

// Len returns the number of tuples added.
func (b *Bag) Len() int64 { return b.total }

// SpilledRuns returns how many spill files the bag has written.
func (b *Bag) SpilledRuns() int { return len(b.runs) }

// AddSerialized inserts an already-serialized tuple (the reduce path
// hands bags serialized values directly). data is copied.
func (b *Bag) AddSerialized(data []byte) {
	off := len(b.slab)
	b.slab = append(b.slab, data...)
	b.index(off)
}

// Add inserts a tuple.
func (b *Bag) Add(t Tuple) {
	off := len(b.slab)
	b.slab = AppendTuple(b.slab, t)
	b.index(off)
}

// index records the tuple just appended to the slab at off.
func (b *Bag) index(off int) {
	n := len(b.slab) - off
	r := bagRec{off: uint32(off), n: uint32(n)}
	if b.sortKey != nil {
		r.key = b.sortKey(mustScan(b.slab[off:]))
	}
	b.recs = append(b.recs, r)
	b.memBytes += n
	b.total++
	b.mm.grow(n)
}

// tuple returns the serialized bytes of the in-memory tuple r.
func (b *Bag) tuple(r bagRec) []byte { return b.slab[r.off : r.off+r.n] }

// sortMem orders the in-memory portion by key. The sort is stable, so
// the order of equal keys, and with it every run's bytes, is fixed by
// insertion order alone.
func (b *Bag) sortMem() {
	slices.SortStableFunc(b.recs, func(x, y bagRec) int { return compareFloat(x.key, y.key) })
}

// writeTuple appends one length-prefixed tuple to a run file.
func writeTuple(p *simtime.Proc, f spill.File, t []byte) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(t)))
	if err := f.Write(p, hdr[:]); err != nil {
		panic(err)
	}
	if err := f.Write(p, t); err != nil {
		panic(err)
	}
}

// spillNow writes the in-memory portion out in ChunkReal-sized pieces,
// each piece its own spill file, and frees the memory. Ordered bags sort
// the portion first so every run is a sorted run.
func (b *Bag) spillNow(p *simtime.Proc) {
	if len(b.recs) == 0 {
		return
	}
	if b.sortKey != nil {
		b.sortMem()
	}
	var f spill.File
	chunk := 0
	for _, r := range b.recs {
		if f == nil {
			f = b.mm.target.Create(p, fmt.Sprintf("%s-run%d", b.name, len(b.runs)))
			b.runs = append(b.runs, f)
			chunk = 0
		}
		writeTuple(p, f, b.tuple(r))
		chunk += 4 + int(r.n)
		if chunk >= b.mm.ChunkReal {
			if err := f.Close(p); err != nil {
				panic(err)
			}
			f = nil
		}
	}
	if f != nil {
		if err := f.Close(p); err != nil {
			panic(err)
		}
	}
	b.dropMem()
}

// dropMem empties the in-memory portion, keeping its capacity for the
// tuples that follow.
func (b *Bag) dropMem() {
	b.mm.shrink(b.memBytes)
	b.memBytes = 0
	b.slab = b.slab[:0]
	b.recs = b.recs[:0]
}

// Delete frees the bag's spill files and memory.
func (b *Bag) Delete(p *simtime.Proc) {
	for _, f := range b.runs {
		f.Delete(p)
	}
	b.runs = nil
	b.dropMem()
}

// Iterator yields a bag's tuples. The cursor Next returns is a view: it
// is valid until the following call to Next.
type Iterator interface {
	Next(p *simtime.Proc) (Cursor, bool)
}

// bagMergeFactor bounds how many spilled runs an ordered bag reads
// concurrently off seek-bound media, mirroring io.sort.factor.
const bagMergeFactor = 10

// Iterate returns an iterator over the bag: spilled runs first, then the
// in-memory portion for unordered bags; a k-way merge by sort key for
// ordered bags. Iteration may run multiple times (each run rewinds the
// spill files).
//
// An ordered bag with many runs first consolidates them in rounds of
// bagMergeFactor, re-spilling the data — Pig's seek avoidance, and the
// source of the spam-quantiles job's amplified spill volume (Table 2:
// 3 GB in, 10.2 GB spilled). Unlike the Hadoop reduce merger, which the
// paper's integration taught to merge in a single round off SpongeFiles
// (§4.2.3), Pig's bag policy is medium-blind: the paper's Table 2 shows
// the same ~3.4× amplification with SpongeFile spilling.
func (b *Bag) Iterate(p *simtime.Proc) Iterator {
	if b.sortKey != nil {
		b.consolidate(p)
	}
	for _, f := range b.runs {
		f.Rewind()
	}
	if b.sortKey == nil {
		return &chainIter{b: b}
	}
	// Ordered: sort the in-memory portion and merge with the runs.
	b.sortMem()
	return newMergeIter(b.sortKey, b.runs, b)
}

// consolidate merges sorted runs, bagMergeFactor at a time, until at
// most bagMergeFactor remain. Each original byte is rewritten once.
func (b *Bag) consolidate(p *simtime.Proc) {
	for len(b.runs) > bagMergeFactor {
		batch := b.runs[:bagMergeFactor]
		for _, f := range batch {
			f.Rewind()
		}
		merged := b.mm.target.Create(p, fmt.Sprintf("%s-cons%d", b.name, len(b.runs)))
		m := newMergeIter(b.sortKey, batch, nil)
		for {
			c, ok := m.Next(p)
			if !ok {
				break
			}
			writeTuple(p, merged, c.Raw())
		}
		if err := merged.Close(p); err != nil {
			panic(err)
		}
		for _, f := range batch {
			f.Delete(p)
		}
		b.runs = append(b.runs[bagMergeFactor:], merged)
	}
}

// runIter reads tuples from one spill file with buffered reads.
type runIter struct {
	spill.RunReader
	cur Cursor  // valid until the next call to next
	key float64 // cur's sort key, kept by mergeIter
}

// newRunIter reads f through reuse's backing array when it is big
// enough. The buffer always starts at the same capacity, because the
// capacity sets the size of each read and so what the medium charges.
func newRunIter(f spill.File, reuse []byte) runIter {
	return runIter{RunReader: spill.NewRunReader(f, 4+spill.RunBufReal, reuse)}
}

func (r *runIter) next(p *simtime.Proc) bool {
	if !r.Need(p, 4) {
		return false
	}
	n := int(binary.LittleEndian.Uint32(r.Window()))
	if !r.Need(p, 4+n) {
		panic("pig: truncated tuple in bag run")
	}
	r.cur = mustScan(r.Window()[4 : 4+n])
	r.Skip(4 + n)
	return true
}

// chainIter yields spilled runs in order, then the memory portion.
type chainIter struct {
	b      *Bag
	runIdx int
	cur    runIter
	open   bool // cur is reading runs[runIdx]
	memIdx int
}

func (c *chainIter) Next(p *simtime.Proc) (Cursor, bool) {
	for c.runIdx < len(c.b.runs) {
		if !c.open {
			c.cur, c.open = newRunIter(c.b.runs[c.runIdx], c.cur.Buffer()), true
		}
		if c.cur.next(p) {
			return c.cur.cur, true
		}
		c.open = false
		c.runIdx++
	}
	if c.memIdx < len(c.b.recs) {
		t := c.b.tuple(c.b.recs[c.memIdx])
		c.memIdx++
		return mustScan(t), true
	}
	return Cursor{}, false
}

// mergeIter merges sorted runs and the sorted memory portion by key.
type mergeIter struct {
	sortKey func(Cursor) float64
	runs    []runIter
	mem     *Bag // whose sorted memory portion joins the merge; may be nil
	primed  bool
	memIdx  int
	// out holds the tuple last yielded from a run: that run has already
	// read ahead to its next tuple, which may move its buffer.
	out []byte
}

func newMergeIter(sortKey func(Cursor) float64, runs []spill.File, mem *Bag) *mergeIter {
	m := &mergeIter{sortKey: sortKey, mem: mem, runs: make([]runIter, len(runs))}
	for i, f := range runs {
		m.runs[i] = newRunIter(f, nil)
	}
	return m
}

// advance moves r to its next tuple and caches that tuple's key.
func (m *mergeIter) advance(p *simtime.Proc, r *runIter) bool {
	if !r.next(p) {
		return false
	}
	r.key = m.sortKey(r.cur)
	return true
}

func (m *mergeIter) Next(p *simtime.Proc) (Cursor, bool) {
	if !m.primed {
		live := m.runs[:0]
		for i := range m.runs {
			if m.advance(p, &m.runs[i]) {
				live = append(live, m.runs[i])
			}
		}
		m.runs = live
		m.primed = true
	}
	// Pick the smallest head among runs and the memory cursor; on equal
	// keys the earliest run wins, and any run beats memory. Linear scan:
	// bags rarely have more than a few dozen runs.
	best := -1
	for i := range m.runs {
		if best == -1 || m.runs[i].key < m.runs[best].key {
			best = i
		}
	}
	if m.mem != nil && m.memIdx < len(m.mem.recs) {
		r := m.mem.recs[m.memIdx]
		if best == -1 || r.key < m.runs[best].key {
			m.memIdx++
			return mustScan(m.mem.tuple(r)), true
		}
	}
	if best == -1 {
		return Cursor{}, false
	}
	r := &m.runs[best]
	c := r.cur
	m.out = append(m.out[:0], c.buf...)
	c.buf = m.out // same tuple, same offsets, bytes that stay put
	if !m.advance(p, r) {
		m.runs = append(m.runs[:best], m.runs[best+1:]...)
	}
	return c, true
}

// bagChunkVirtual is Pig's bag spill chunk size C (§2.1.3).
const bagChunkVirtual = 10 * media.MB
