package sponge

import (
	"errors"
	"fmt"

	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

// FileStats aggregates one SpongeFile's spill behaviour in real bytes.
type FileStats struct {
	BytesWritten int64
	Chunks       int // chunk spills (Table 2's "Spilled Chunks")
	ByKind       [4]int
	// Retries counts remote exchanges that were lost in transit
	// (ErrPeerUnreachable) and re-sent; always 0 on a fault-free
	// transport.
	Retries int
}

// chunkRef records where one chunk of the file lives. Disk and remote-FS
// chunks carry their payload here because the device models charge time
// but store no bytes; the carried buffer comes from the service's chunk
// pool and is recycled on Delete.
type chunkRef struct {
	kind    ChunkKind
	node    int // hosting node for memory chunks
	handle  int // pool handle for memory chunks
	data    []byte
	size    int
	off     int64  // stable offset in the spill stream for LocalDisk chunks
	nonce   uint64 // per-chunk counter sequence when the agent encrypts; 0 = plaintext
	pending bool   // async write still in flight
}

// File is a SpongeFile (§3.1): a logical byte array built from large
// chunks allocated from the nearest location with capacity — local
// sponge memory, remote sponge memory, local disk, then the distributed
// filesystem. It has a single writer and then a single reader, is
// accessed strictly sequentially, and is deleted after use; chunk writes
// to non-local media are asynchronous and reads prefetch upcoming
// non-local chunks through a window of up to ReadAheadDepth concurrent
// fetches (§3.1.2, widened).
type File struct {
	agent *Agent
	name  string

	buf    []byte // internal buffer, one chunk in size
	bufLen int

	chunks []chunkRef
	stats  FileStats

	// Write-side async machinery.
	asyncSlots  *simtime.Resource
	outstanding int
	writersDone *simtime.Signal

	// Remote allocation state: the candidate list from the tracker,
	// fetched when the file is created. Entries that turn out to be
	// stale are marked dead rather than removed, because several
	// asynchronous chunk writers walk the list concurrently.
	candidates []FreeRow
	deadNodes  map[int]bool

	// Disk fallback: all of this file's disk chunks append to a single
	// local stream, so consecutive disk chunks coalesce into one on-disk
	// file as in §3.1.1.
	diskStream media.StreamID
	hasDisk    bool

	// Remote-FS fallback spill (nil until first used).
	remoteSpill RemoteSpill

	// Read-side state.
	closed    bool
	deleted   bool
	readChunk int
	readOff   int
	cur       []byte // fetched contents of the current non-local chunk
	curChunk  int

	// Readahead ring (§3.1.2, widened): up to ReadAheadDepth chunk
	// fetches in flight at once, one slot each. Slots are keyed by chunk
	// index and the reader consumes chunks in order, so delivery to the
	// reader is strictly sequential no matter in which order the fetches
	// complete (retries inside one window member only delay that slot).
	// raNext is the next chunk index the window scan will consider; it
	// is monotonic within a read pass and reset by Rewind. Fetchers are
	// records from the service's free list (Service.raFree), so a
	// steady-state windowed read spawns without allocating, and a new
	// file allocates no fetcher once any file before it has read.
	ra           []raSlot
	raNext       int
	raInFlight   int
	prefetchDone *simtime.Signal
	// prefetchGen counts prefetch epochs. Every event that invalidates
	// the in-flight window (Rewind, Delete) bumps it; a fetcher only
	// delivers if the generation it was spawned under is still current,
	// so each orphaned fetch drops its result and recycles its buffer
	// exactly once — it can never feed a *post-rewind* refetch of the
	// same chunk index.
	prefetchGen uint64

	// writerName and prefetchName are the diagnostic names given to the
	// async writer and prefetcher processes, precomputed so the per-chunk
	// hot path does not format strings.
	writerName   string
	prefetchName string
}

// raSlot is one member of the readahead window: the chunk it owns and,
// once the fetch lands, the payload or error awaiting the reader.
type raSlot struct {
	chunk int // chunk index this slot is fetching; -1 = free
	done  bool
	buf   []byte
	err   error
}

// raFetch is the argument block for one spawned window fetcher. The run
// method value is bound once per record and the record recycles through
// the service's free list, so repeated spawns allocate nothing.
type raFetch struct {
	f     *File
	slot  int
	chunk int
	gen   uint64
	next  *raFetch
	run   func(*simtime.Proc)
}

func (rf *raFetch) fetch(p *simtime.Proc) {
	f := rf.f
	buf, err := f.fetchChunk(p, rf.chunk)
	stale := f.prefetchGen != rf.gen
	slot := rf.slot
	f.agent.svc.putFetcher(rf)
	f.raInFlight--
	if stale {
		// The reader rewound (or deleted the file) while this fetch was
		// in flight; dropPrefetch already cleared the slots. Drop the
		// result and recycle the buffer — exactly once, here. The
		// broadcast still fires: Delete may be waiting out the window.
		if buf != nil {
			f.agent.svc.putBuf(buf)
		}
		f.prefetchDone.Broadcast()
		return
	}
	s := &f.ra[slot]
	s.buf, s.err, s.done = buf, err, true
	f.prefetchDone.Broadcast()
}

// Create makes an empty SpongeFile owned by the agent's task. Creation
// queries the memory tracker for the current free list (§3.1.1).
func (a *Agent) Create(p *simtime.Proc, name string) *File {
	f := &File{
		agent:        a,
		name:         name,
		buf:          a.svc.getBuf(),
		writersDone:  simtime.NewSignal(name + ".writers"),
		prefetchDone: simtime.NewSignal(name + ".prefetch"),
		curChunk:     -1,
		writerName:   name + ".w",
		prefetchName: name + ".pf",
	}
	depth := a.svc.Config.AsyncWriteDepth
	if depth > 0 {
		f.asyncSlots = simtime.NewResource(name+".async", depth)
	}
	f.ra = make([]raSlot, a.svc.Config.ReadAheadDepth)
	for i := range f.ra {
		f.ra[i].chunk = -1
	}
	f.candidates = a.svc.Tracker.Query(p, a.node)
	f.deadNodes = make(map[int]bool)
	return f
}

// Name returns the file's diagnostic name.
func (f *File) Name() string { return f.name }

// Stats returns the file's spill statistics.
func (f *File) Stats() FileStats { return f.stats }

// Size returns the total bytes written.
func (f *File) Size() int64 { return f.stats.BytesWritten }

// Write appends data, spilling a chunk whenever the internal buffer
// (sized to one chunk) fills.
func (f *File) Write(p *simtime.Proc, data []byte) error {
	if f.closed {
		panic("sponge: write after close of " + f.name)
	}
	for len(data) > 0 {
		n := copy(f.buf[f.bufLen:], data)
		f.bufLen += n
		data = data[n:]
		if f.bufLen == len(f.buf) {
			if err := f.flushChunk(p, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushChunk spills the full (or final partial) buffer as one chunk.
// Local memory is tried synchronously; remote memory, disk and remote FS
// happen on an asynchronous writer bounded by AsyncWriteDepth. last
// marks Close's flush: no write follows it, so a staging buffer handed
// off is not replaced.
func (f *File) flushChunk(p *simtime.Proc, last bool) error {
	n := f.bufLen
	if n == 0 {
		return nil
	}
	f.bufLen = 0
	f.stats.BytesWritten += int64(n)
	f.stats.Chunks++
	f.agent.BytesSpilled += int64(n)
	f.agent.ChunksSpilled++

	// With encryption enabled, seal the chunk before it leaves the task
	// (§3.1.4). Sealing happens in place in the staging buffer: the local
	// path copies it into the pool slab and the async path takes the
	// buffer itself, so no separate sealed copy ever exists.
	plain := f.buf[:n]
	var nonce uint64
	if f.agent.cipher != nil {
		nonce = f.agent.cipher.nextNonce()
		f.agent.cipher.seal(p, f.agent.node, nonce, plain)
	}

	// 1. Local sponge memory through shared memory.
	m := f.agent.svc.metrics
	pool := f.agent.svc.Servers[f.agent.node.ID].Pool()
	p.Sleep(PoolLockCost)
	h, err := pool.Alloc(f.agent.task)
	if err == nil {
		f.agent.node.ChargeCopy(p, n)
		if werr := pool.Write(h, plain); werr != nil {
			pool.FreeChunk(h)
			return werr
		}
		f.chunks = append(f.chunks, chunkRef{kind: LocalMem, node: f.agent.node.ID, handle: h, size: n, nonce: nonce})
		f.stats.ByKind[LocalMem]++
		m.spill[LocalMem].Inc()
		return nil
	}
	// The local pool turned the chunk away; it falls down the chain.
	m.fallbackLocalFull.Inc()

	// 2..4. Non-local media: hand the staging buffer itself to an async
	// writer and stage the next chunk in a fresh one from the service's
	// pool — the host moves no bytes, while the simulated task is still
	// charged the hand-off copy the paper's client makes. The writer then
	// tries remote sponge servers from the (possibly stale) free list, the
	// local disk, and finally the remote store. References that carry no
	// payload (remote memory stores the bytes in its pool) return the
	// buffer immediately; disk and remote-FS references keep it until
	// Delete.
	svc := f.agent.svc
	f.buf = nil
	if !last {
		f.buf = svc.getBuf()
	}
	f.agent.node.ChargeCopy(p, n)
	idx := len(f.chunks)
	f.chunks = append(f.chunks, chunkRef{pending: true, size: n})

	f.outstanding++
	if f.asyncSlots == nil {
		// Synchronous configuration: the task itself is the writer.
		svc.getWriter(f, plain, idx, nonce).write(p)
		return nil
	}
	f.asyncSlots.Acquire(p) // bounds buffering; blocks when pipeline is full
	p.Sim().Spawn(f.writerName, svc.getWriter(f, plain, idx, nonce).run)
	return nil
}

// chunkWriter is the argument block for one non-local chunk write: the
// file, the staging buffer handed off as payload, the chunk's index in
// the table and its nonce. The run method value is bound once per record
// and the record recycles through the service's free list, so a
// steady-state spill spawns without allocating. order is the record's
// own scratch for the candidate walk: a writer can park mid-walk (a
// remote allocate-and-write takes time), and another writer of the same
// file then walks a list of its own.
type chunkWriter struct {
	f       *File
	payload []byte
	idx     int
	nonce   uint64
	order   []FreeRow
	next    *chunkWriter
	run     func(*simtime.Proc)
}

func (cw *chunkWriter) write(p *simtime.Proc) {
	f, payload := cw.f, cw.payload
	svc := f.agent.svc
	ref := f.spillNonLocal(p, payload, &cw.order)
	ref.size = len(payload)
	ref.nonce = cw.nonce
	f.chunks[cw.idx] = ref
	svc.putWriter(cw)
	f.stats.ByKind[ref.kind]++
	svc.metrics.spill[ref.kind].Inc()
	if ref.data == nil {
		svc.putBuf(payload)
	}
	f.outstanding--
	if f.asyncSlots != nil {
		f.asyncSlots.Release()
	}
	f.writersDone.Broadcast()
}

// getWriter takes a writer record off the service's free list (or makes
// one) and arms it for one chunk of f.
func (s *Service) getWriter(f *File, payload []byte, idx int, nonce uint64) *chunkWriter {
	cw := s.cwFree
	if cw == nil {
		cw = &chunkWriter{}
		cw.run = cw.write
	} else {
		s.cwFree = cw.next
	}
	cw.f, cw.payload, cw.idx, cw.nonce, cw.next = f, payload, idx, nonce, nil
	return cw
}

// putWriter returns a finished writer record to the free list, dropping
// its file and payload so the list keeps neither alive.
func (s *Service) putWriter(cw *chunkWriter) {
	cw.f, cw.payload = nil, nil
	cw.next = s.cwFree
	s.cwFree = cw
}

// getFetcher takes a fetcher record off the service's free list (or
// makes one) for a window slot of f.
func (s *Service) getFetcher(f *File) *raFetch {
	rf := s.raFree
	if rf == nil {
		rf = &raFetch{}
		rf.run = rf.fetch
	} else {
		s.raFree = rf.next
	}
	rf.f, rf.next = f, nil
	return rf
}

// putFetcher returns a landed fetcher record to the free list, dropping
// its file.
func (s *Service) putFetcher(rf *raFetch) {
	rf.f = nil
	rf.next = s.raFree
	s.raFree = rf
}

// spillNonLocal stores payload in remote memory, local disk, or the
// remote FS, in that order, and returns the resulting reference. order
// is the calling writer's scratch for the remote candidate walk.
func (f *File) spillNonLocal(p *simtime.Proc, payload []byte, order *[]FreeRow) chunkRef {
	if ref, ok := f.tryRemoteMemory(p, payload, order); ok {
		return ref
	}
	if f.agent.svc.Config.LocalDiskEnabled {
		if !f.hasDisk {
			f.diskStream = f.agent.node.Disk.NewStream()
			f.hasDisk = true
		}
		// Record the chunk's stable offset in the append-coalesced spill
		// stream before the write moves the cursor: this (offset, size)
		// pair is the region a real daemon serves zero-copy (sendfile, or
		// pread by an fd-holding same-host reader).
		off := f.agent.node.Disk.StreamBytes(f.diskStream)
		f.agent.node.WriteFile(p, f.diskStream, len(payload))
		return chunkRef{kind: LocalDisk, data: payload, off: off}
	}
	if f.agent.svc.Config.Remote != nil {
		if f.remoteSpill == nil {
			f.remoteSpill = f.agent.svc.Config.Remote.CreateSpill(p, f.agent.node, f.agent.task)
		}
		f.remoteSpill.Append(p, payload)
		return chunkRef{kind: RemoteFS, data: payload}
	}
	panic("sponge: no spill medium available for " + f.name)
}

// tryRemoteMemory walks the candidate servers — affinity nodes first,
// then by advertised free space — and attempts an allocate-and-write on
// each. Stale entries simply fail and are dropped from this file's list.
// The walk order is built in the writer's scratch, which keeps its
// capacity from chunk to chunk.
func (f *File) tryRemoteMemory(p *simtime.Proc, payload []byte, scratch *[]FreeRow) (chunkRef, bool) {
	svc := f.agent.svc
	if svc.Config.RemoteDisabled {
		return chunkRef{}, false
	}
	order := (*scratch)[:0]
	if svc.Config.Affinity {
		for _, c := range f.candidates {
			if f.agent.usedNodes[c.Key] {
				order = append(order, c)
			}
		}
		for _, c := range f.candidates {
			if !f.agent.usedNodes[c.Key] {
				order = append(order, c)
			}
		}
	} else {
		order = append(order, f.candidates...)
	}
	*scratch = order
	for _, c := range order {
		if c.Key == f.agent.node.ID || f.deadNodes[c.Key] {
			continue // local pool already tried, or known stale
		}
		if svc.Config.RackLocalOnly && !svc.Cluster.SameRack(f.agent.node, svc.Cluster.Nodes[c.Key]) {
			continue
		}
		h, err := f.allocRemote(p, c.Key, payload)
		if err != nil {
			// Stale free-list entry, failed node, or a peer that stayed
			// unreachable through the retry budget: forget it for the
			// rest of this file's life.
			f.deadNodes[c.Key] = true
			svc.metrics.blacklists.Inc()
			continue
		}
		f.agent.usedNodes[c.Key] = true
		return chunkRef{kind: RemoteMem, node: c.Key, handle: h}, true
	}
	// Every candidate refused (or none existed): the chunk falls past
	// remote memory to the disk / remote-FS legs of the chain.
	svc.metrics.fallbackRemoteExhst.Inc()
	return chunkRef{}, false
}

// allocRemote attempts an allocate-and-write on one candidate through
// the transport. Exchanges lost in transit (ErrPeerUnreachable) are
// retried up to the service's retry limit with backoff; application
// refusals — a full pool, a quota rejection, a failed node — are final
// for this candidate and returned at once.
func (f *File) allocRemote(p *simtime.Proc, node int, payload []byte) (int, error) {
	svc := f.agent.svc
	peer := svc.peer(node)
	for attempt := 0; ; attempt++ {
		h, err := peer.AllocWrite(p, f.agent.node, f.agent.task, payload)
		if err == nil {
			return h, nil
		}
		if !errors.Is(err, ErrPeerUnreachable) || attempt >= retryLimit {
			return 0, err
		}
		f.stats.Retries++
		svc.metrics.retriesAlloc.Inc()
		p.Sleep(retryBackoff)
	}
}

// Close flushes the final partial chunk and waits for in-flight
// asynchronous writes; the file is then ready to be read back.
func (f *File) Close(p *simtime.Proc) error {
	if f.closed {
		return nil
	}
	if err := f.flushChunk(p, true); err != nil {
		return err
	}
	for f.outstanding > 0 {
		f.writersDone.Wait(p)
	}
	f.closed = true
	// The staging buffer is write-side only; recycle it now rather than at
	// Delete so it can serve the read side's fetches (the final flush may
	// already have handed it to a writer).
	if f.buf != nil {
		f.agent.svc.putBuf(f.buf)
		f.buf = nil
	}
	return nil
}

// Read fills buf with the next bytes of the file, returning the count;
// 0 means end of file. The file must be closed first.
func (f *File) Read(p *simtime.Proc, buf []byte) (int, error) {
	if !f.closed {
		panic("sponge: read before close of " + f.name)
	}
	if f.deleted {
		panic("sponge: read after delete of " + f.name)
	}
	total := 0
	for total < len(buf) && f.readChunk < len(f.chunks) {
		ref := &f.chunks[f.readChunk]
		if f.readOff == 0 {
			if err := f.ensureChunk(p, f.readChunk); err != nil {
				return total, err
			}
		}
		n := copy(buf[total:], f.cur[f.readOff:ref.size])
		f.agent.node.ChargeCopy(p, n)
		f.readOff += n
		total += n
		if f.readOff >= ref.size {
			f.releaseCur()
			f.readChunk++
			f.readOff = 0
		}
	}
	return total, nil
}

// releaseCur recycles the buffer holding the current chunk's bytes, if
// any, back to the service pool.
func (f *File) releaseCur() {
	if f.cur != nil {
		f.agent.svc.putBuf(f.cur)
		f.cur = nil
		f.curChunk = -1
	}
}

// ensureChunk makes chunk i's bytes available in f.cur, using the
// window's copy when a fetcher already owns the chunk, and refills the
// readahead window.
func (f *File) ensureChunk(p *simtime.Proc, i int) error {
	m := f.agent.svc.metrics
	f.releaseCur()
	if s := f.raLookup(i); s != nil {
		// A window member owns this chunk; wait for its delivery. Other
		// slots broadcasting wake the reader spuriously — re-check, as
		// with any condition wait.
		m.raHits.Inc()
		for !s.done {
			f.prefetchDone.Wait(p)
		}
		buf, err := s.buf, s.err
		s.chunk, s.buf, s.err, s.done = -1, nil, nil, false
		if err != nil {
			return err
		}
		f.cur = buf
		f.curChunk = i
	} else {
		m.raInline.Inc()
		buf, err := f.fetchChunk(p, i)
		if err != nil {
			return err
		}
		f.cur = buf
		f.curChunk = i
	}
	f.fillWindow(p, i+1)
	m.raOccupancy.Observe(int64(f.raInFlight))
	return nil
}

// raLookup returns the window slot owning chunk i, or nil.
func (f *File) raLookup(i int) *raSlot {
	for k := range f.ra {
		if f.ra[k].chunk == i {
			return &f.ra[k]
		}
	}
	return nil
}

// fillWindow tops the readahead window up to ReadAheadDepth in-flight
// fetches of upcoming non-local chunks (§3.1.2, widened). The scan looks
// past non-prefetchable kinds (LocalMem needs no fetch; RemoteFS shares
// one sequential cursor with the foreground reader and is fetched in
// line) to the next remote-memory or disk chunk instead of giving up.
func (f *File) fillWindow(p *simtime.Proc, from int) {
	if f.raNext < from {
		f.raNext = from
	}
	inFlight := 0
	for k := range f.ra {
		if f.ra[k].chunk != -1 {
			inFlight++
		}
	}
	for inFlight < len(f.ra) && f.raNext < len(f.chunks) {
		i := f.raNext
		f.raNext++
		if k := f.chunks[i].kind; k == LocalMem || k == RemoteFS {
			f.agent.svc.metrics.raSkips.Inc()
			continue
		}
		for k := range f.ra {
			if f.ra[k].chunk == -1 {
				f.startFetch(p, k, i)
				break
			}
		}
		inFlight++
	}
}

// startFetch arms a window slot and spawns its fetcher under the current
// prefetch generation.
func (f *File) startFetch(p *simtime.Proc, slot, chunk int) {
	s := &f.ra[slot]
	s.chunk, s.done, s.buf, s.err = chunk, false, nil, nil
	rf := f.agent.svc.getFetcher(f)
	rf.slot, rf.chunk, rf.gen = slot, chunk, f.prefetchGen
	f.raInFlight++
	p.Sim().Spawn(f.prefetchName, rf.run)
}

// fetchChunk brings one chunk's bytes to the reading node, charging the
// appropriate medium, and decrypts them when the agent seals its chunks.
func (f *File) fetchChunk(p *simtime.Proc, i int) ([]byte, error) {
	buf, err := f.fetchRaw(p, i)
	if err != nil {
		return nil, err
	}
	if ref := &f.chunks[i]; f.agent.cipher != nil && ref.nonce != 0 {
		f.agent.cipher.open(p, f.agent.node, ref.nonce, buf)
	}
	return buf, nil
}

// fetchRaw moves the stored (possibly sealed) bytes into a recycled chunk
// buffer; the caller (reader or prefetcher) owns the returned buffer and
// recycles it when the read cursor moves past the chunk.
func (f *File) fetchRaw(p *simtime.Proc, i int) ([]byte, error) {
	ref := &f.chunks[i]
	buf := f.agent.svc.getBuf()[:ref.size]
	switch ref.kind {
	case LocalMem:
		// Shared memory: no fetch; the per-byte copy is charged in Read.
		if _, err := f.agent.svc.Servers[ref.node].Pool().Read(ref.handle, buf); err != nil {
			f.agent.svc.putBuf(buf)
			return nil, err
		}
		return buf, nil
	case RemoteMem:
		if err := f.readRemote(p, ref.node, ref.handle, buf); err != nil {
			f.agent.svc.putBuf(buf)
			return nil, err
		}
		return buf, nil
	case LocalDisk:
		f.agent.node.ReadFile(p, f.diskStream, ref.size)
		copy(buf, ref.data)
		return buf, nil
	case RemoteFS:
		if f.remoteSpill == nil {
			f.agent.svc.putBuf(buf)
			return nil, fmt.Errorf("sponge: %s has remote-fs chunk but no spill", f.name)
		}
		// The payload kept with the reference is authoritative
		// (asynchronous writers may have appended chunks to the store
		// out of order); the store read charges the scan cost, using buf
		// itself as the scratch destination before the payload overwrites
		// it.
		if f.firstRemoteFSChunk() == i {
			f.remoteSpill.Open()
		}
		f.remoteSpill.Read(p, buf)
		copy(buf, ref.data)
		return buf, nil
	}
	panic("sponge: unknown chunk kind")
}

// readRemote fetches a remote-memory chunk through the transport,
// retrying lost exchanges. A peer that stays unreachable through the
// retry budget means the chunk cannot be recovered: the caller gets
// ErrChunkLost — exactly what a failed hosting node produces — and the
// framework restarts the owning task (§3.1).
func (f *File) readRemote(p *simtime.Proc, node, handle int, buf []byte) error {
	svc := f.agent.svc
	peer := svc.peer(node)
	for attempt := 0; ; attempt++ {
		_, err := peer.Read(p, f.agent.node, handle, buf)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrPeerUnreachable) {
			return err
		}
		if attempt >= retryLimit {
			svc.metrics.chunksLost.Inc()
			return fmt.Errorf("%w: node %d unreachable after %d attempts", ErrChunkLost, node, attempt+1)
		}
		f.stats.Retries++
		svc.metrics.retriesRead.Inc()
		p.Sleep(retryBackoff)
	}
}

func (f *File) firstRemoteFSChunk() int {
	for i := range f.chunks {
		if f.chunks[i].kind == RemoteFS {
			return i
		}
	}
	return -1
}

// Rewind resets the read cursor to the start of the file, for consumers
// (such as Pig's multi-pass UDFs) that scan a spill more than once.
// Bumping the prefetch generation orphans every in-flight window fetch:
// each eventual result is dropped instead of being mistaken for a
// post-rewind refetch of the same chunk index.
func (f *File) Rewind() {
	f.readChunk = 0
	f.readOff = 0
	f.releaseCur()
	f.dropPrefetch()
}

// dropPrefetch abandons the whole readahead window. Slots whose fetch
// already delivered recycle their buffers here; fetches still in flight
// are orphaned by the generation bump and recycle their own buffers on
// landing — so with K fetches outstanding, all K results are dropped and
// recycled exactly once between the two paths.
func (f *File) dropPrefetch() {
	for k := range f.ra {
		s := &f.ra[k]
		if s.buf != nil {
			f.agent.svc.putBuf(s.buf)
		}
		s.chunk, s.buf, s.err, s.done = -1, nil, nil, false
	}
	f.raNext = 0
	f.prefetchGen++
}

// Delete frees every chunk via the matching deallocator (§3.1.3).
func (f *File) Delete(p *simtime.Proc) {
	if f.deleted {
		return
	}
	for f.outstanding > 0 {
		f.writersDone.Wait(p)
	}
	// Orphan the readahead window first and wait for its in-flight
	// fetches to land: a fetcher mid-exchange still references the chunk
	// table and pool handles this method is about to free. Orphans drop
	// their results, so nothing is delivered past this point.
	f.dropPrefetch()
	for f.raInFlight > 0 {
		f.prefetchDone.Wait(p)
	}
	pool := f.agent.svc.Servers[f.agent.node.ID].Pool()
	for i := range f.chunks {
		ref := &f.chunks[i]
		switch ref.kind {
		case LocalMem:
			if !pool.Failed() {
				p.Sleep(PoolLockCost)
				pool.FreeChunk(ref.handle)
			}
		case RemoteMem:
			// A free lost in the network is not retried: the chunk
			// becomes an orphan and the owner node's garbage collector
			// reclaims it once the task exits (§3.1.3).
			_ = f.agent.svc.peer(ref.node).Free(p, f.agent.node, ref.handle)
		}
		if ref.data != nil {
			f.agent.svc.putBuf(ref.data)
			ref.data = nil
		}
	}
	if f.hasDisk {
		f.agent.node.Disk.Delete(f.diskStream)
	}
	if f.remoteSpill != nil {
		f.remoteSpill.Delete(p)
	}
	if f.buf != nil {
		f.agent.svc.putBuf(f.buf)
		f.buf = nil
	}
	f.releaseCur()
	f.chunks = nil
	f.deleted = true
	f.closed = true
}
