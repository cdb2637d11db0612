package media

import (
	"spongefiles/internal/simtime"
)

// StreamID identifies one sequentially-accessed byte stream on a disk (a
// file, in practice). The disk charges a seek whenever consecutive platter
// operations belong to different streams, which is what makes k-way merges
// of many files and contended multi-job access expensive, exactly as §3.1.5
// of the paper argues.
type StreamID int64

const (
	noStream     StreamID = -1 // nothing served yet
	randomStream StreamID = -2 // previous op was at a random offset
)

// DiskStats aggregates observable disk behaviour in virtual bytes.
type DiskStats struct {
	PlatterReadBytes  int64
	PlatterWriteBytes int64
	Seeks             int64
	CacheHitBytes     int64
	AbsorbedBytes     int64 // writes absorbed by the page cache
	ThroughBytes      int64 // writes forced straight to the platter
	ThrottleTime      simtime.Duration
}

// cacheEntry tracks one stream's page-cache residency. A stream is "fully
// resident" until any of its bytes are evicted or written through; reads
// of fully resident streams are served from memory.
type cacheEntry struct {
	id        StreamID
	total     int64 // bytes ever written
	resident  int64 // bytes currently cached (clean + dirty)
	dirty     int64 // cached bytes not yet flushed
	full      bool
	lastTouch simtime.Time
	seq       uint64
}

// Disk models one node's disk: a single arm (FIFO resource), a page cache
// that absorbs writes and serves re-reads, and a background flusher daemon
// that writes dirty data back in large batches; it runs only while there is
// dirty data to write. Writers are throttled when the dirty fraction
// exceeds dirtyRatio, as in Linux.
type Disk struct {
	sim  *simtime.Sim
	name string

	arm        *simtime.Resource
	lastStream StreamID

	capacity int64 // page cache size, virtual bytes
	used     int64
	dirty    int64
	entries  map[StreamID]*cacheEntry
	touchSeq uint64

	nextStream StreamID
	flusher    *simtime.Daemon // woken by dirty work
	flushDone  *simtime.Signal // wakes throttled writers
	throttled  int

	// ring tracks the streams of recent platter operations; the number
	// of distinct streams in it measures interleaving pressure, which
	// shrinks the effective readahead window (Linux readahead state is
	// bounded by the page cache, so many concurrent streams degrade to
	// small seek-bounded bursts — the k-way-merge seek storm of §3.1.5).
	ring    [32]StreamID
	ringLen int
	ringPos int

	stats DiskStats
}

// NewDisk creates a disk with the given page-cache capacity (virtual
// bytes; the free memory of the node after task heaps and sponge memory).
func NewDisk(sim *simtime.Sim, name string, cacheBytes int64) *Disk {
	if cacheBytes < 0 {
		cacheBytes = 0
	}
	d := &Disk{
		sim:        sim,
		name:       name,
		arm:        simtime.NewResource(name+".arm", 1),
		lastStream: noStream,
		capacity:   cacheBytes,
		entries:    make(map[StreamID]*cacheEntry),
		flushDone:  simtime.NewSignal(name + ".flushdone"),
	}
	d.flusher = sim.NewDaemon(name+".flusher", d.flush)
	return d
}

// NewStream allocates an identifier for a new sequential stream (file).
func (d *Disk) NewStream() StreamID {
	d.nextStream++
	return d.nextStream
}

// Stats returns a copy of the disk's counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// CacheDirty returns the current dirty bytes.
func (d *Disk) CacheDirty() int64 { return d.dirty }

func (d *Disk) entry(id StreamID) *cacheEntry {
	e, ok := d.entries[id]
	if !ok {
		e = &cacheEntry{id: id, full: true}
		d.entries[id] = e
	}
	d.touchSeq++
	e.lastTouch = d.sim.Now()
	e.seq = d.touchSeq
	return e
}

// noteOp records a platter operation's stream for interleaving pressure.
func (d *Disk) noteOp(stream StreamID) {
	d.ring[d.ringPos] = stream
	d.ringPos = (d.ringPos + 1) % len(d.ring)
	if d.ringLen < len(d.ring) {
		d.ringLen++
	}
}

// interleaveWidth is the number of distinct streams among recent ops.
// The ring is small and this runs on every platter operation, so the
// dedup scans a stack array instead of building a map.
func (d *Disk) interleaveWidth() int {
	var seen [len(d.ring)]StreamID
	w := 0
outer:
	for i := 0; i < d.ringLen; i++ {
		s := d.ring[i]
		for j := 0; j < w; j++ {
			if seen[j] == s {
				continue outer
			}
		}
		seen[w] = s
		w++
	}
	return w
}

// effectiveReadahead is the burst size the OS sustains per stream: the
// full readahead window when one stream owns the disk, shrinking as more
// streams compete for cache-backed readahead state.
func (d *Disk) effectiveReadahead() int64 {
	w := d.interleaveWidth()
	if w <= 1 {
		return ReadAhead
	}
	eff := d.capacity / int64(8*w)
	if eff > ReadAhead {
		eff = ReadAhead
	}
	if eff < 256*KB {
		eff = 256 * KB
	}
	return eff
}

// platterOp performs one physical disk operation of n bytes belonging to
// stream. It charges one seek on a stream switch (always, for
// random-offset access), and when several streams interleave it charges
// a seek per effective-readahead burst: the arm bounces between streams
// within the operation.
func (d *Disk) platterOp(p *simtime.Proc, stream StreamID, n int64, write bool) {
	d.arm.Acquire(p)
	seeks := int64(0)
	if d.lastStream != stream || stream == randomStream {
		seeks = 1
	}
	if stream != randomStream {
		if eff := d.effectiveReadahead(); eff < n && d.interleaveWidth() > 1 {
			if bursts := (n + eff - 1) / eff; bursts > seeks {
				seeks = bursts
			}
		}
	}
	d.lastStream = stream
	d.noteOp(stream)
	d.stats.Seeks += seeks
	cost := simtime.Duration(seeks)*diskSeek + bwTime(n, diskBW)
	p.Sleep(cost)
	d.arm.Release()
	if write {
		d.stats.PlatterWriteBytes += n
	} else {
		d.stats.PlatterReadBytes += n
	}
}

// evictClean drops up to need clean bytes, least-recently-touched streams
// first, and returns the number of bytes actually freed. Evicted streams
// lose their fully-resident status.
func (d *Disk) evictClean(need int64) int64 {
	var freed int64
	for freed < need {
		var victim *cacheEntry
		for _, e := range d.entries {
			if e.resident-e.dirty <= 0 {
				continue
			}
			if victim == nil || e.lastTouch < victim.lastTouch ||
				(e.lastTouch == victim.lastTouch && e.seq < victim.seq) {
				victim = e
			}
		}
		if victim == nil {
			break
		}
		clean := victim.resident - victim.dirty
		take := clean
		if take > need-freed {
			take = need - freed
		}
		victim.resident -= take
		victim.full = false
		d.used -= take
		freed += take
	}
	return freed
}

// Write appends n virtual bytes to stream. The page cache absorbs the
// write (memory-copy cost, background flush) when it can; otherwise the
// write goes straight to the platter. Writers sleep while the cache is
// over its dirty threshold.
func (d *Disk) Write(p *simtime.Proc, stream StreamID, n int64) {
	e := d.entry(stream)
	if d.capacity-d.dirty >= n {
		// Absorb: make room by evicting clean pages if necessary.
		if free := d.capacity - d.used; free < n {
			d.evictClean(n - free)
		}
		e.total += n
		e.resident += n
		e.dirty += n
		if e.resident != e.total {
			e.full = false
		}
		d.used += n
		d.dirty += n
		d.stats.AbsorbedBytes += n
		p.Sleep(CopyTime(n))
		d.flusher.Wake()
		d.throttle(p)
		return
	}
	// Cache is full of dirty data (or too small): write through.
	e.total += n
	e.full = false
	d.stats.ThroughBytes += n
	d.platterOp(p, stream, n, true)
}

// WriteRandom writes n bytes at a random offset, bypassing the cache and
// paying a seek for every operation; this is the microbenchmark's
// disk-spill pattern (§4.1).
func (d *Disk) WriteRandom(p *simtime.Proc, n int64) {
	d.stats.ThroughBytes += n
	d.platterOp(p, randomStream, n, true)
}

// throttle blocks the writer while dirty bytes exceed the dirty ratio.
func (d *Disk) throttle(p *simtime.Proc) {
	high := int64(float64(d.capacity) * dirtyRatio)
	if d.dirty <= high {
		return
	}
	start := p.Now()
	d.throttled++
	d.flusher.Wake()
	for d.dirty > high {
		d.flushDone.Wait(p)
	}
	d.throttled--
	d.stats.ThrottleTime += p.Now().Sub(start)
}

// Read reads n virtual bytes from stream. Fully cache-resident streams are
// served at memory speed; anything else is a platter scan in readahead-
// sized operations (seeking on stream switches). Read data populates the
// cache as clean pages, evicting least-recently-touched clean data — this
// is how a streaming background job (the 1 TB grep) flushes other
// streams' spill data out of the cache. Partially-resident streams stay
// demoted: their residency cannot be trusted for re-reads.
func (d *Disk) Read(p *simtime.Proc, stream StreamID, n int64) {
	e := d.entry(stream)
	if e.full && e.total > 0 {
		d.stats.CacheHitBytes += n
		p.Sleep(CopyTime(n))
		return
	}
	for left := n; left > 0; {
		// One platter operation per effective readahead burst: under
		// interleaving pressure the bursts shrink, and competing
		// streams get to queue between them (which is what makes
		// contended spill reads so much slower, Table 1).
		op := d.effectiveReadahead()
		if op > left {
			op = left
		}
		d.platterOp(p, stream, op, false)
		d.insertClean(e, op)
		left -= op
	}
}

// insertClean adds freshly read bytes to the cache as clean pages,
// evicting clean LRU data to make room; bytes that cannot fit are simply
// not cached.
func (d *Disk) insertClean(e *cacheEntry, n int64) {
	if free := d.capacity - d.used; free < n {
		d.evictClean(n - free)
	}
	take := d.capacity - d.used
	if take > n {
		take = n
	}
	if take > 0 {
		e.resident += take
		d.used += take
	}
}

// ReadRandom reads n bytes at a random offset with a guaranteed seek,
// bypassing the cache.
func (d *Disk) ReadRandom(p *simtime.Proc, n int64) {
	d.platterOp(p, randomStream, n, false)
}

// Delete drops a stream. Cached bytes are freed; dirty bytes are discarded
// without writeback (an unlinked file's dirty pages are never flushed),
// which is why short-lived spills absorbed by the cache cost no disk I/O.
func (d *Disk) Delete(stream StreamID) {
	e, ok := d.entries[stream]
	if !ok {
		return
	}
	d.used -= e.resident
	d.dirty -= e.dirty
	delete(d.entries, stream)
	d.flushDone.Broadcast()
}

// StreamBytes returns the bytes ever written to stream — equivalently,
// its stable append offset: the next write to the stream lands exactly
// here. Spill bookkeeping uses this to record where in an
// append-coalesced spill stream each chunk starts (the offsets a real
// daemon serves zero-copy); it reads pure accounting and never touches
// LRU or residency state.
func (d *Disk) StreamBytes(stream StreamID) int64 {
	if e, ok := d.entries[stream]; ok {
		return e.total
	}
	return 0
}

// FullyResident reports whether every byte of the stream is in cache.
func (d *Disk) FullyResident(stream StreamID) bool {
	e, ok := d.entries[stream]
	return ok && e.full && e.total > 0
}

// flush is the background writeback daemon's round, started by dirty
// work: once dirty bytes exceed 10% of the cache (or a writer is
// throttled) it drains in flushBatch bursts, oldest streams first, and it
// returns as soon as neither holds.
func (d *Disk) flush(p *simtime.Proc) {
	bgStart := d.capacity / 10
	for d.dirty != 0 && (d.dirty > bgStart || d.throttled > 0) {
		var victim *cacheEntry
		for _, e := range d.entries {
			if e.dirty <= 0 {
				continue
			}
			if victim == nil || e.lastTouch < victim.lastTouch ||
				(e.lastTouch == victim.lastTouch && e.seq < victim.seq) {
				victim = e
			}
		}
		if victim == nil {
			// Dirty accounting says there is work but no entry holds it;
			// cannot happen, but never spin.
			d.dirty = 0
			continue
		}
		batch := flushBatch
		if batch > victim.dirty {
			batch = victim.dirty
		}
		d.platterOp(p, victim.id, batch, true)
		// The victim may have been deleted while the platter op slept.
		if cur, ok := d.entries[victim.id]; ok && cur == victim {
			victim.dirty -= batch
			d.dirty -= batch
			d.flushDone.Broadcast()
		}
	}
}
