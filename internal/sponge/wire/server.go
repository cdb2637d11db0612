package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

// Server is a node's sponge server: it serves the node's pool over TCP
// (and, with Options.LocalSocketDir, a same-host unix socket). The pool
// is the same structure the in-process allocators use; its internal lock
// makes the two access paths (shared memory within the process, sockets
// across machines) safe together, exactly as the paper's mmap-plus-
// daemon design intends.
//
// Every connection opens with one handshake frame. An OpHello makes it
// pipelined for the rest of its life: requests dispatch concurrently
// through a bounded worker pool and responses (tagged with the request
// ID) are written back in completion order. An OpPoolFD (the descriptor
// handshake) is answered and the connection closed.
//
// With Options.SpillDir set the server grows the paper's local-disk
// tier: AllocWrites that find the pool full overflow into an
// append-coalesced spill file instead of failing, and reads of those
// chunks are served zero-copy — sendfile from the stable file region on
// linux, a pooled buffered copy elsewhere. Same-host clients can go one
// step further: they fetch the server's files once over SCM_RIGHTS
// (OpPoolFD) — the pool's memfd segments and the spill file alike — and
// pread chunk regions themselves (OpPoolLoc, OpSpillLoc), so the bytes
// never cross the socket at all. Spilled chunks are not owner-tracked:
// they are freed explicitly like any other chunk, and the file reclaims
// wholesale when its last record dies.
type Server struct {
	pool  *sponge.Pool
	spill *spillFile // nil without Options.SpillDir
	geom  fdGeom     // the pool's layout, as the fd handshake states it
	opts  Options

	lns       []net.Listener // TCP first, then the unix socket if any
	localPath string         // unix socket path, "" when TCP-only
	// frameLimit bounds inbound frames after the hello: a chunk plus
	// protocol overhead.
	frameLimit int
	// sendFDs answers OpPoolFD on a unix connection by passing the
	// server's files over SCM_RIGHTS (passFiles; a field so a test can
	// pass files that break the handshake's promises).
	sendFDs func(conn net.Conn, id uint32) error

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// metrics is the registry served over OpMetrics; opReqs are the
	// per-op request counters (indexed by op code), badReqs counts
	// frames whose op is unknown or empty. All series carry a listen
	// label so servers sharing one registry stay distinguishable.
	metrics       *obs.Registry
	opReqs        [opMax + 1]*obs.Counter
	badReqs       *obs.Counter
	connsSeen     [2]*obs.Counter // indexed by connTier
	acceptRetries *obs.Counter    // Accept failures retried after a back-off
	connsOpen     *obs.Gauge
	zcBytes       *obs.Counter // payload bytes served via sendfile
	zcFallbk      *obs.Counter // file responses that took the buffered path
	fdFail        *obs.Counter // fd-pass handshakes refused or failed
	spillAllocs   *obs.Counter

	// bufs recycles large request bodies — a chunk on its way to the
	// spill file — so they do not allocate per request. small does the
	// same for header-size exchanges (a read is a 5-byte request, an
	// alloc_write a 5-byte reply, the fd-passing fast path 25-byte loc
	// responses).
	bufs  sync.Pool
	small sync.Pool

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

// connTier indexes connsSeen, and lns: which listener a connection
// arrived on.
const (
	connTCP = iota
	connUnix
)

// Serve starts a server for pool on addr (e.g. "127.0.0.1:0"), plus the
// derived unix socket when opts.LocalSocketDir is set, and returns once
// it is listening.
func Serve(pool *sponge.Pool, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		pool: pool,
		geom: fdGeom{
			segChunks: pool.SegmentChunks(),
			chunks:    pool.Chunks(),
			chunkSize: pool.ChunkSize(),
		},
		opts:       opts,
		lns:        []net.Listener{ln},
		frameLimit: pool.ChunkSize() + frameSlack,
		conns:      make(map[net.Conn]struct{}),
		metrics:    opts.Metrics,
		closed:     make(chan struct{}),
	}
	s.sendFDs = s.passFiles
	if err := s.openTiers(); err != nil {
		s.Close()
		return nil, err
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.instrument()
	for tier, ln := range s.lns {
		s.wg.Add(1)
		go s.acceptLoop(ln, tier)
	}
	return s, nil
}

// openTiers opens what Options adds to the TCP listener: the same-host
// unix socket and the spill file.
func (s *Server) openTiers() error {
	if dir := s.opts.LocalSocketDir; dir != "" {
		path, err := SocketPath(dir, s.Addr())
		if err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o700); err != nil {
			return fmt.Errorf("wire: local socket dir: %w", err)
		}
		// A crashed server leaves its socket file behind; nothing can be
		// listening on this port-derived path but us, so replace it.
		os.Remove(path)
		uln, err := net.Listen("unix", path)
		if err != nil {
			return fmt.Errorf("wire: local socket: %w", err)
		}
		s.lns = append(s.lns, uln)
		s.localPath = path
	}
	if s.opts.SpillDir != "" {
		sf, err := openSpillFile(s.opts.SpillDir, s.opts.SpillChunks)
		if err != nil {
			return err
		}
		s.spill = sf
	}
	return nil
}

// instrument registers the server's series, every one labeled by listen
// address. Pool and spill state ride along in the scrape as live gauges.
func (s *Server) instrument() {
	listen := obs.L("listen", s.Addr())
	for op, name := range opNames {
		if name != "" {
			s.opReqs[op] = s.metrics.Counter("spongewire_requests_total", obs.L("op", name), listen)
		}
	}
	s.badReqs = s.metrics.Counter("spongewire_bad_requests_total", listen)
	s.connsSeen[connTCP] = s.metrics.Counter("spongewire_connections_total", obs.L("tier", "tcp"), listen)
	s.connsSeen[connUnix] = s.metrics.Counter("spongewire_connections_total", obs.L("tier", "unix"), listen)
	s.acceptRetries = s.metrics.Counter("spongewire_accept_retries_total", listen)
	s.connsOpen = s.metrics.Gauge("spongewire_open_connections", listen)
	s.zcBytes = s.metrics.Counter("spongewire_serve_zero_copy_bytes_total", listen)
	s.zcFallbk = s.metrics.Counter("spongewire_serve_zero_copy_fallback_total", listen)
	s.fdFail = s.metrics.Counter("spongewire_fdpass_fail_total", listen)
	pool := s.pool
	s.metrics.GaugeFunc("spongewire_pool_free_chunks", func() int64 { return int64(pool.Free()) }, listen)
	s.metrics.GaugeFunc("spongewire_pool_chunks", func() int64 { return int64(pool.Chunks()) }, listen)
	// Open Fill/View brackets: a receive or a send in flight. Zero at
	// rest, so a scrape of an idle server that shows otherwise is a leak.
	s.metrics.GaugeFunc("spongewire_pool_pinned", func() int64 { return int64(pool.Stats().Pinned) }, listen)
	if s.spill != nil {
		s.spillAllocs = s.metrics.Counter("spongewire_spill_allocs_total", listen)
		s.metrics.GaugeFunc("spongewire_spill_chunks", func() int64 {
			live, _ := s.spill.stats()
			return int64(live)
		}, listen)
		s.metrics.GaugeFunc("spongewire_spill_bytes", func() int64 {
			_, bytes := s.spill.stats()
			return bytes
		}, listen)
	}
}

// Metrics returns the registry this server instruments itself into (the
// one passed via Options.Metrics, or its private registry).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Addr returns the TCP listening address.
func (s *Server) Addr() string { return s.lns[0].Addr().String() }

// LocalSocket returns the unix-socket path this server also listens on,
// or "" when it serves TCP only.
func (s *Server) LocalSocket() string { return s.localPath }

// Close stops every listener (removing the unix socket file), closes
// every live connection, waits for their handlers, and removes the spill
// file. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		for _, ln := range s.lns {
			if cerr := ln.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		if s.spill != nil {
			if serr := s.spill.close(); err == nil {
				err = serr
			}
		}
	})
	return err
}

// passFiles answers one OpPoolFD exchange: pass whatever files this
// server keeps chunks in over the unix connection's SCM_RIGHTS — the
// pool's generation table and segments when they are file-backed (and
// fit one message beside the spill file), the spill file when there is
// a spill tier. Non-unix connections, non-linux builds, and a server
// with neither degrade to errZCUnsupported, which handle answers as
// StatusBadRequest.
func (s *Server) passFiles(conn net.Conn, id uint32) error {
	uc, ok := conn.(*net.UnixConn)
	if !ok {
		return errZCUnsupported
	}
	g := s.geom
	var files []*os.File
	if meta, segs, err := s.pool.SegmentFiles(); err == nil {
		// The hold keeps a concurrent Pool.Close from destroying the
		// descriptors while the sendmsg is in flight.
		defer s.pool.ReleaseSegmentFiles()
		if 2+len(segs) <= scmMaxFD {
			files = append(append(files, meta), segs...)
			g.flags |= fdHasPool
		}
	}
	if s.spill != nil {
		files = append(files, s.spill.file())
		g.flags |= fdHasSpill
	}
	if len(files) == 0 {
		return errZCUnsupported
	}
	return sendFilesOverUnix(uc, id, files, g)
}

// helloResponse builds the reply to OpHello: status, version, and the
// chunk size a dialer sizes its frame limit by.
func (s *Server) helloResponse() []byte {
	out := make([]byte, helloRespLen)
	out[0] = StatusOK
	out[1] = ProtocolV2
	binary.LittleEndian.PutUint32(out[2:6], uint32(s.pool.ChunkSize()))
	return out
}

// allocWrite serves one OpAllocWrite while its n-byte body — op, owner
// node (u32), owner pid (u64), data — is still on the socket: the head
// is parsed in place, the chunk allocated, and the data received
// straight into its pool slab inside a Pool.Fill bracket, so the only
// copy the server makes of a chunk is the kernel's. A request it refuses
// (zero owner, data past the chunk size, no room anywhere) has its body
// drained so the stream stays in step. Only a chunk the full pool sends
// on to the spill tier passes through a buffer. An error means the peer
// died or stalled mid-frame; the half-filled chunk is freed first.
func (s *Server) allocWrite(br *bufio.Reader, n int) (response, error) {
	const headLen = 1 + 12
	if n < headLen {
		_, err := br.Discard(n)
		return statusOnly(StatusBadRequest), err
	}
	head, err := br.Peek(headLen)
	if err != nil {
		return response{}, err
	}
	owner := sponge.TaskID{
		Node: int(binary.LittleEndian.Uint32(head[1:5])),
		PID:  int64(binary.LittleEndian.Uint64(head[5:13])),
	}
	br.Discard(headLen)
	size := n - headLen
	// The zero ID is the pool's free-chunk marker, never accepted from the
	// network; and the frame limit leaves slack past the chunk size where
	// a chunk does not.
	if owner.IsZero() || size > s.pool.ChunkSize() {
		_, err := br.Discard(size)
		return statusOnly(StatusBadRequest), err
	}
	h, err := s.pool.Alloc(owner)
	switch {
	case err == nil:
		dst, ferr := s.pool.Fill(h)
		if ferr != nil {
			// Gone between the two calls — the pool failed or closed, or
			// the owner's chunks were reaped: nothing is left to free.
			_, derr := br.Discard(size)
			return statusOnly(errStatus(ferr)), derr
		}
		if _, rerr := io.ReadFull(br, dst[:size]); rerr != nil {
			s.pool.AbortFill(h)
			return response{}, rerr
		}
		s.pool.Filled(h, size)
	case errors.Is(err, sponge.ErrNoFreeChunk) && s.spill != nil:
		// Memory pool full: overflow into the disk tier, through a buffer.
		buf := s.getBuf(size)
		_, rerr := io.ReadFull(br, buf)
		if rerr == nil {
			h, err = s.spill.append(buf)
		}
		s.recycle(buf)
		if rerr != nil {
			return response{}, rerr
		}
		if err != nil {
			return statusOnly(errStatus(err)), nil
		}
		s.spillAllocs.Inc()
	default:
		_, derr := br.Discard(size)
		return statusOnly(errStatus(err)), derr
	}
	out := s.getBuf(5)
	out[0] = StatusOK
	binary.LittleEndian.PutUint32(out[1:], uint32(h))
	return response{body: out}, nil
}

// dispatch executes one buffered request and builds its response. (An
// OpAllocWrite never gets here: the connection reader hands it to
// allocWrite while it is still on the socket.)
func (s *Server) dispatch(req []byte) response {
	if len(req) < 1 {
		return statusOnly(StatusBadRequest)
	}
	op, payload := req[0], req[1:]
	switch op {
	case OpRead:
		if len(payload) != 4 {
			return statusOnly(StatusBadRequest)
		}
		h := int(binary.LittleEndian.Uint32(payload))
		if h&SpillHandleBit != 0 {
			if s.spill == nil {
				return statusOnly(StatusBadRequest)
			}
			off, n, err := s.spill.loc(h)
			if err != nil {
				return statusOnly(errStatus(err))
			}
			return response{f: s.spill.file(), off: off, n: int64(n)}
		}
		// Sent from the slab: the view stays pinned until respond has
		// written it.
		chunk, err := s.pool.View(h)
		if err != nil {
			return statusOnly(errStatus(err))
		}
		return response{pool: s.pool, h: h, chunk: chunk}
	case OpFree:
		if len(payload) != 4 {
			return statusOnly(StatusBadRequest)
		}
		h := int(binary.LittleEndian.Uint32(payload))
		if h&SpillHandleBit != 0 {
			if s.spill == nil {
				return statusOnly(StatusBadRequest)
			}
			if err := s.spill.freeRec(h); err != nil {
				return statusOnly(errStatus(err))
			}
			return statusOnly(StatusOK)
		}
		// The handle is the network's word: of several frees racing on one
		// chunk — or one racing the owner's reaping — exactly one finds it.
		if err := s.pool.TryFree(h); err != nil {
			return statusOnly(errStatus(err))
		}
		return statusOnly(StatusOK)
	case OpPoolLoc, OpSpillLoc:
		return response{body: s.loc(payload)}
	case OpMetrics:
		if len(payload) != 0 {
			return statusOnly(StatusBadRequest)
		}
		// StatusOK, then the registry's text exposition.
		var b bytes.Buffer
		b.WriteByte(StatusOK)
		s.metrics.WriteText(&b)
		return response{body: b.Bytes()}
	case OpStat:
		out := s.getBuf(13)
		out[0] = StatusOK
		binary.LittleEndian.PutUint32(out[1:5], uint32(s.pool.Free()))
		binary.LittleEndian.PutUint32(out[5:9], uint32(s.pool.Chunks()))
		binary.LittleEndian.PutUint32(out[9:13], uint32(s.pool.ChunkSize()))
		return response{body: out}
	}
	return statusOnly(StatusBadRequest)
}

// loc answers OpPoolLoc and OpSpillLoc — one exchange under two labels:
// where the chunk lives among the files sendFDs passes (the pool's
// segments from index 0, then the spill file), and the generation an
// fd-holding reader re-checks after its pread. A spilled chunk reports
// generation 0: its region is stable for the record's lifetime.
func (s *Server) loc(payload []byte) []byte {
	if len(payload) != 4 {
		return []byte{StatusBadRequest}
	}
	h := int(binary.LittleEndian.Uint32(payload))
	var (
		idx, n int
		off    int64
		gen    uint64
		err    error
	)
	switch {
	case h&SpillHandleBit == 0:
		idx, off, n, gen, err = s.pool.Loc(h)
	case s.spill != nil:
		idx = s.geom.segments()
		off, n, err = s.spill.loc(h)
	default:
		return []byte{StatusBadRequest}
	}
	if err != nil {
		return []byte{errStatus(err)}
	}
	// Pooled: this is the pread fast path's per-read exchange.
	out := s.getBuf(25)
	out[0] = StatusOK
	binary.LittleEndian.PutUint32(out[1:5], uint32(idx))
	binary.LittleEndian.PutUint64(out[5:13], uint64(off))
	binary.LittleEndian.PutUint32(out[13:17], uint32(n))
	binary.LittleEndian.PutUint64(out[17:25], gen)
	return out
}

func errStatus(err error) byte {
	switch {
	case errors.Is(err, sponge.ErrNoFreeChunk):
		return StatusNoFreeChunk
	case errors.Is(err, sponge.ErrQuotaExceeded):
		return StatusQuotaExceeded
	case errors.Is(err, sponge.ErrChunkLost):
		return StatusChunkLost
	}
	return StatusBadRequest
}
