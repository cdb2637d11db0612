package sponge

import (
	"errors"
	"os"
	"sync"
	"sync/atomic"

	"spongefiles/internal/simtime"
)

// Pool is one node's sponge memory: a region shared by every task on the
// machine, divided into fixed equal-size chunks plus per-chunk metadata
// recording the owning task (§3.1.1). Following the paper's Java
// implementation, which splits the region into multiple memory-mapped
// segments to get past the 2 GB mmap limit, the pool is backed by
// several slabs of up to segmentChunks chunks, each materialized on its
// first touch; allocation tries any segment. On linux each slab is an
// anonymous memory file (memfd_create) mapped MAP_SHARED, so the wire
// server can pass segment descriptors to same-host clients who then
// pread chunks without the payload ever crossing a socket.
//
// Close releases the slabs at once; a pool nobody references releases
// them when it is collected (see slabMap), so a dropped simulation's
// pools need no Close. A slice a bracket hands out stays mapped until
// the bracket's closing call, which uses the pool.
//
// The pool is guarded by a single lock, like the paper's global spin
// lock over the metadata region. Under the simulator the lock is
// uncontended (one process runs at a time) and its cost is charged as
// virtual time; the real-TCP transport in the wire subpackage shares the
// same pool from OS threads, which is why a real mutex backs it.
//
// Chunk payloads, however, move outside the lock under a per-chunk pin
// and a seqlock-style generation, through two brackets: Fill … Filled
// hands a producer the slab slot between two generation bumps (odd =
// write in progress), View … Unpin hands a consumer the valid bytes in
// place. Write and Read are their copying callers; the wire server
// receives a chunk from its socket inside the first and sends one from
// inside the second, so a chunk crosses the daemon without a staging
// copy. FreeChunk both waits out pins and bumps the generation.
// In-process that makes large copies concurrent instead of serialized
// on the metadata lock; across processes the generation table — itself
// file-backed and passed with the segments — is how an fd-holding
// reader detects that a chunk was freed or rewritten between its
// location lookup and its pread.
type Pool struct {
	mu sync.Mutex
	// drained signals pin-count and pinned-total drops to waiters
	// (FreeChunk, Fill, a View of a chunk mid-fill, Close).
	drained *sync.Cond

	chunkReal int // real bytes per chunk
	segments  []poolSlab
	owners    []TaskID // flat index across segments; zero = free
	lengths   []int    // valid bytes per chunk

	// gens is the per-chunk seqlock generation: even = stable, odd =
	// write in progress; freeing bumps by two. On linux it views the
	// file-backed meta slab so fd-holding peers share it.
	gens    []uint64
	genSlab poolSlab

	// pins counts open Fill and View brackets per chunk; pinned is their
	// total. A pinned chunk is never freed or rewritten, and a
	// pool with pinned chunks is never unmapped.
	pins   []int32
	pinned int

	// freeList is a LIFO stack of free chunk handles, so Alloc is O(1)
	// instead of scanning the owner table. Its capacity is fixed at the
	// chunk count, so pushes never reallocate. Invariant: h is on the
	// free list iff owners[h] is zero.
	freeList []int

	// quota limits chunks per owning task on this pool; 0 = unlimited.
	quota int
	held  map[TaskID]int

	// failed marks the hosting node as dead: all chunks are lost.
	failed bool
	// closed marks the pool shut down: segments are unmapped and all
	// access errors out.
	closed bool

	// highWater is the most chunks ever simultaneously in use.
	highWater int
}

// segmentChunks caps chunks per slab, mirroring the paper's ≤2 GB
// memory-mapped segments (at the default real chunk size this keeps
// slabs modest; what matters is that allocation spans segments).
const segmentChunks = 1024

// ErrPoolNotMappable reports that a pool cannot hand out segment
// descriptors: its slabs are heap-backed (portable build, or a host
// with neither memfd_create nor /dev/shm) or the pool is closed.
var ErrPoolNotMappable = errors.New("sponge: pool segments are not file-backed")

// NewPool builds a pool of nchunks chunks of chunkReal bytes each.
func NewPool(chunkReal, nchunks int) *Pool {
	if chunkReal <= 0 || nchunks < 0 {
		panic("sponge: bad pool geometry")
	}
	p := &Pool{
		chunkReal: chunkReal,
		owners:    make([]TaskID, nchunks),
		lengths:   make([]int, nchunks),
		pins:      make([]int32, nchunks),
		freeList:  make([]int, nchunks),
		held:      make(map[TaskID]int),
	}
	p.drained = sync.NewCond(&p.mu)
	p.genSlab, p.gens = newGenSlab(nchunks)
	// Stack the handles so the first allocations pop 0, 1, 2, … — the
	// same order the old linear scan produced.
	for i := range p.freeList {
		p.freeList[i] = nchunks - 1 - i
	}
	// Segments are materialized lazily on first touch: the cluster may
	// reserve sponge memory far larger than any one run ever fills.
	p.segments = make([]poolSlab, (nchunks+segmentChunks-1)/segmentChunks)
	return p
}

// SetQuota caps the number of chunks any single task may hold in this
// pool (§3.1.4); 0 removes the cap.
func (p *Pool) SetQuota(chunksPerTask int) {
	p.mu.Lock()
	p.quota = chunksPerTask
	p.mu.Unlock()
}

// ChunkSize returns the real bytes per chunk.
func (p *Pool) ChunkSize() int { return p.chunkReal }

// Chunks returns the total chunk count.
func (p *Pool) Chunks() int { return len(p.owners) }

// SegmentChunks returns the chunk capacity of one segment slab — the
// divisor that turns a handle into (segment index, offset) for peers
// resolving locations against passed descriptors.
func (p *Pool) SegmentChunks() int { return segmentChunks }

// Free returns the number of free chunks.
func (p *Pool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.freeList)
}

// PoolLockCost is the virtual cost of one pool metadata-lock
// acquisition, charged by callers running under the simulator.
const PoolLockCost = 2 * simtime.Microsecond

// Alloc claims a free chunk for owner and returns its handle in O(1) by
// popping the free list. It returns ErrNoFreeChunk when the pool is
// exhausted and ErrQuotaExceeded when the owner is over its per-node
// quota. The steady state allocates no memory.
func (p *Pool) Alloc(owner TaskID) (int, error) {
	if owner.IsZero() {
		panic("sponge: alloc with zero owner")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed || p.closed {
		return 0, ErrChunkLost
	}
	n := len(p.freeList)
	if n == 0 {
		return 0, ErrNoFreeChunk
	}
	if p.quota > 0 && p.held[owner] >= p.quota {
		return 0, ErrQuotaExceeded
	}
	h := p.freeList[n-1]
	p.freeList = p.freeList[:n-1]
	p.owners[h] = owner
	p.lengths[h] = 0
	p.held[owner]++
	if used := len(p.owners) - len(p.freeList); used > p.highWater {
		p.highWater = used
	}
	return h, nil
}

// chunkSlice returns the backing bytes of a handle, materializing the
// segment on first touch. Caller holds p.mu.
func (p *Pool) chunkSlice(h int) []byte {
	seg := h / segmentChunks
	if p.segments[seg].data == nil {
		n := len(p.owners) - seg*segmentChunks
		if n > segmentChunks {
			n = segmentChunks
		}
		p.segments[seg] = newPoolSlab(n*p.chunkReal, "sponge-pool-seg")
	}
	off := (h % segmentChunks) * p.chunkReal
	return p.segments[seg].data[off : off+p.chunkReal]
}

// Fill opens chunk h for filling in place: it pins the chunk, marks its
// generation odd (write in progress) and returns the whole slab slot.
// The caller produces up to ChunkSize bytes into the slice — a memcpy, or
// a socket receive — and then must close the bracket exactly once, with
// Filled, or with AbortFill when the producer failed; the slice is dead
// from that call on. The pin holds FreeChunk, FreeOwnedBy and Close off
// for as long as the producer takes, so a producer that can stall must
// carry its own deadline. Filling a chunk that unlocked readers still
// view waits them out first.
func (p *Pool) Fill(h int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(h); err != nil {
		return nil, err
	}
	// Wait out unlocked readers of the old contents; re-validate after
	// any wait, the chunk may have been freed meanwhile.
	for p.pins[h] > 0 {
		p.drained.Wait()
		if err := p.check(h); err != nil {
			return nil, err
		}
	}
	atomic.AddUint64(&p.gens[h], 1) // odd: write in progress
	p.pins[h]++
	p.pinned++
	return p.chunkSlice(h), nil
}

// Filled closes the bracket Fill opened: the chunk now holds n valid
// bytes, its generation is even again (new contents visible to local
// readers and to peers holding passed descriptors), and the pin drops.
func (p *Pool) Filled(h, n int) {
	if n < 0 || n > p.chunkReal {
		panic("sponge: chunk overflow")
	}
	p.mu.Lock()
	p.lengths[h] = n
	atomic.AddUint64(&p.gens[h], 1) // even: new contents visible
	p.unpin(h)
	p.mu.Unlock()
}

// AbortFill closes the bracket of a Fill whose producer failed, and
// frees the chunk in the same critical section: the half-written bytes
// are never visible, and no other free — a FreeOwnedBy that was waiting
// on this very pin — can get in between and turn the caller's own
// FreeChunk into a double free.
func (p *Pool) AbortFill(h int) {
	p.mu.Lock()
	atomic.AddUint64(&p.gens[h], 1) // even again; reclaim bumps it on
	p.unpin(h)
	p.reclaim(h, p.owners[h])
	p.mu.Unlock()
}

// View pins live chunk h and returns its valid bytes in place, with no
// copy: the caller reads them — a memcpy, or a socket send — and then
// must call Unpin exactly once; the slice is dead from that call on. The
// pin excludes frees and rewrites for as long as the caller holds it, so
// the bytes are consistent as of the pinned generation. A chunk that is
// mid-fill (odd generation) is waited for, asleep on the pool's
// condition rather than spinning on its lock: the fill may be a network
// receive long.
func (p *Pool) View(h int) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := p.check(h); err != nil {
			return nil, err
		}
		if atomic.LoadUint64(&p.gens[h])&1 == 0 {
			break
		}
		p.drained.Wait()
	}
	p.pins[h]++
	p.pinned++
	return p.chunkSlice(h)[:p.lengths[h]], nil
}

// Unpin drops the pin a View took.
func (p *Pool) Unpin(h int) {
	p.mu.Lock()
	p.unpin(h)
	p.mu.Unlock()
}

// unpin drops one pin on h and wakes whoever waits on it: a free, a
// fill, a view of a chunk mid-fill, Close. Caller holds p.mu.
func (p *Pool) unpin(h int) {
	p.pins[h]--
	p.pinned--
	p.drained.Broadcast()
}

// Write stores data into the chunk (replacing previous contents). The
// caller charges copy time; Write only moves the real bytes, as Fill's
// copying caller: outside the metadata lock, under the pin, between the
// generation bumps.
func (p *Pool) Write(h int, data []byte) error {
	if len(data) > p.chunkReal {
		panic("sponge: chunk overflow")
	}
	dst, err := p.Fill(h)
	if err != nil {
		return err
	}
	copy(dst, data)
	p.Filled(h, len(data))
	return nil
}

// Read copies the chunk's valid bytes into buf and returns the count, as
// View's copying caller.
func (p *Pool) Read(h int, buf []byte) (int, error) {
	src, err := p.View(h)
	if err != nil {
		return 0, err
	}
	n := copy(buf, src)
	p.Unpin(h)
	return n, nil
}

// Length returns the valid byte count of a chunk.
func (p *Pool) Length(h int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(h); err != nil {
		return 0, err
	}
	return p.lengths[h], nil
}

// Loc resolves a live chunk to its location in the pool's segment
// geometry — segment index, byte offset within the segment, valid
// length — plus the chunk's current generation. A peer holding the
// passed segment descriptors preads [off, off+n) from segment seg and
// accepts the bytes only if the generation table still shows gen (even)
// afterwards; anything else means the chunk was freed or rewritten
// mid-read and the peer falls back to a socket read.
func (p *Pool) Loc(h int) (seg int, off int64, n int, gen uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(h); err != nil {
		return 0, 0, 0, 0, err
	}
	seg = h / segmentChunks
	off = int64(h%segmentChunks) * int64(p.chunkReal)
	n = p.lengths[h]
	gen = atomic.LoadUint64(&p.gens[h])
	return seg, off, n, gen, nil
}

// SegmentFiles materializes every segment and returns the pool's
// file-backed memory: the generation-table descriptor and one
// descriptor per segment, in index order. The files stay owned by the
// pool; on success the caller holds an outstanding-reader hold (counted
// with the pinned copies) that blocks Close — and therefore the fds'
// destruction — until ReleaseSegmentFiles, so a concurrent shutdown can
// never close a descriptor mid-handshake. Heap-backed pools (portable
// builds, hosts without memfd or /dev/shm) and closed pools return
// ErrPoolNotMappable.
func (p *Pool) SegmentFiles() (meta *os.File, segs []*os.File, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, nil, ErrPoolNotMappable
	}
	if meta = p.genSlab.file(); meta == nil {
		return nil, nil, ErrPoolNotMappable
	}
	segs = make([]*os.File, len(p.segments))
	for i := range p.segments {
		if p.segments[i].data == nil {
			// Materialize through the first handle of the segment.
			p.chunkSlice(i * segmentChunks)
		}
		if segs[i] = p.segments[i].file(); segs[i] == nil {
			return nil, nil, ErrPoolNotMappable
		}
	}
	p.pinned++
	return meta, segs, nil
}

// ReleaseSegmentFiles drops the hold a successful SegmentFiles took;
// the returned descriptors must not be used past this call.
func (p *Pool) ReleaseSegmentFiles() {
	p.mu.Lock()
	p.pinned--
	p.drained.Broadcast()
	p.mu.Unlock()
}

func (p *Pool) check(h int) error {
	if p.failed || p.closed {
		return ErrChunkLost
	}
	if h < 0 || h >= len(p.owners) || p.owners[h].IsZero() {
		return ErrNoFreeChunk
	}
	return nil
}

// FreeChunk returns a chunk to the pool. Freeing a free chunk is an error
// caught by panic: it indicates double-free in the engine. The free
// waits out any open Fill or View of the chunk and bumps its
// generation, so descriptor-holding peers can detect the recycle.
func (p *Pool) FreeChunk(h int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return // the whole pool is already gone
	}
	owner := p.owners[h]
	if owner.IsZero() {
		panic("sponge: double free")
	}
	p.reclaim(h, owner)
}

// TryFree is FreeChunk for a caller that cannot vouch for its handle —
// the wire server, whose handles come off the network: the check and the
// free are one critical section, and a handle that is out of range or
// already free is reported (ErrNoFreeChunk), as is a failed or closed
// pool (ErrChunkLost). Of any number of concurrent frees of one chunk,
// exactly one returns nil.
func (p *Pool) TryFree(h int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(h); err != nil {
		return err
	}
	if !p.reclaim(h, p.owners[h]) {
		// Gone while reclaim waited out a pin. The slot may already have
		// a new owner, so it is not looked at again.
		if p.closed {
			return ErrChunkLost
		}
		return ErrNoFreeChunk
	}
	return nil
}

// reclaim waits out chunk h's open brackets and returns it to the free
// list, bumping its generation. The wait gives the lock up, so the
// chunk is looked at again after it: when the pool closed meanwhile, or
// another path freed the chunk first, reclaim does nothing and reports
// false. Caller holds p.mu.
func (p *Pool) reclaim(h int, owner TaskID) bool {
	for {
		if p.closed || p.owners[h] != owner {
			return false
		}
		if p.pins[h] == 0 {
			break
		}
		p.drained.Wait()
	}
	atomic.AddUint64(&p.gens[h], 2) // stays even: freed, not mid-write
	p.owners[h] = TaskID{}
	p.lengths[h] = 0
	p.freeList = append(p.freeList, h)
	if p.held[owner] <= 1 {
		delete(p.held, owner)
	} else {
		p.held[owner]--
	}
	return true
}

// Owners returns a snapshot of the distinct owners currently holding
// chunks, with their chunk counts; used by the garbage collector.
func (p *Pool) Owners() map[TaskID]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[TaskID]int, len(p.held))
	for t, n := range p.held {
		out[t] = n
	}
	return out
}

// FreeOwnedBy releases every chunk held by owner (garbage collection of
// orphans) and returns how many were freed.
func (p *Pool) FreeOwnedBy(owner TaskID) int {
	if owner.IsZero() {
		return 0 // the free-chunk marker owns nothing
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	freed := 0
	for h := range p.owners {
		if p.reclaim(h, owner) {
			freed++
		}
	}
	return freed
}

// Fail marks the pool's node as dead: every stored chunk is lost and all
// further access returns ErrChunkLost.
func (p *Pool) Fail() {
	p.mu.Lock()
	p.failed = true
	p.mu.Unlock()
}

// Failed reports whether the pool's node has failed.
func (p *Pool) Failed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed
}

// Close shuts the pool down: it waits for every in-flight unlocked copy
// to unpin, then unmaps and closes the segment and generation slabs.
// All subsequent access errors with ErrChunkLost. Close is idempotent,
// and optional: an unreferenced pool's slabs are released when it is
// collected.
// Peers holding passed descriptors are unaffected by the unmap — the
// kernel keeps the memory alive for them — but their location lookups
// fail cleanly from here on.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	// New pins are impossible now (check sees closed); drain the rest.
	for p.pinned > 0 {
		p.drained.Wait()
	}
	for i := range p.segments {
		p.segments[i].close()
	}
	p.gens = nil
	p.genSlab.close()
	return nil
}

// Closed reports whether the pool has been shut down.
func (p *Pool) Closed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// PoolStats is a consistent snapshot of one pool's occupancy and
// high-water mark, taken under the metadata lock.
type PoolStats struct {
	FreeChunks  int // chunks on the free list right now
	TotalChunks int // pool capacity
	HighWater   int // most chunks ever simultaneously in use
	Owners      int // distinct tasks currently holding chunks
	Pinned      int // in-flight unlocked payload copies right now
}

// Stats snapshots the pool's occupancy in one lock
// acquisition, so invariants relating the fields (free + in-use =
// total) hold within the returned value.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		FreeChunks:  len(p.freeList),
		TotalChunks: len(p.owners),
		HighWater:   p.highWater,
		Owners:      len(p.held),
		Pinned:      p.pinned,
	}
}
