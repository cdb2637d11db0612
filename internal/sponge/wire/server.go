package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"os"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

// Server serves a node's sponge pool over TCP (and, with
// Options.LocalSocketDir, a same-host unix socket). The pool is the
// same structure the in-process allocators use; its internal lock makes
// the two access paths (shared memory within the process, sockets
// across machines) safe together, exactly as the paper's mmap-plus-
// daemon design intends.
//
// Each connection opens with a v1-framed OpHello, which switches it to
// the pipelined v2 framing, where requests dispatch concurrently
// through a bounded worker pool and responses (tagged with the request
// ID) are written back in completion order. The connection machinery
// itself lives in the daemon type, shared with the TCP tracker.
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
	pool     *sponge.Pool
	live     Liveness
	d        *daemon
	spill    *spillFile     // nil without Options.SpillDir
	geom     fdGeom         // the pool's layout, as the fd handshake states it
	reporter *deltaReporter // nil without Options.Trackers

	spillAllocs *obs.Counter
}

// Serve starts a server for pool on addr (e.g. "127.0.0.1:0") with
// default options and returns once it is listening.
func Serve(pool *sponge.Pool, addr string) (*Server, error) {
	return ServeOptions(pool, addr, Options{})
}

// ServeOptions starts a server for pool on addr with explicit tuning:
// worker-pool bound, I/O deadlines, the same-host socket tier, the
// disk-spill tier, and optionally an external task-liveness registry
// shared with the in-process sponge server.
func ServeOptions(pool *sponge.Pool, addr string, opts Options) (*Server, error) {
	s := &Server{pool: pool, live: opts.Liveness, geom: fdGeom{
		segChunks: pool.SegmentChunks(),
		chunks:    pool.Chunks(),
		chunkSize: pool.ChunkSize(),
	}}
	if s.live == nil {
		s.live = newMapLiveness()
	}
	if opts.SpillDir != "" {
		sf, err := openSpillFile(opts.SpillDir, opts.SpillChunks)
		if err != nil {
			return nil, err
		}
		s.spill = sf
	}
	d, err := startDaemon(addr, opts, pool.ChunkSize()+frameSlack, s.helloResponse, s.dispatch)
	if err != nil {
		if s.spill != nil {
			s.spill.close()
		}
		return nil, err
	}
	s.d = d
	d.sendFDs = s.sendFDs
	// Pool state rides along in the scrape as live gauges, labeled by
	// listen address like the daemon's own series.
	listen := obs.L("listen", d.addr())
	d.metrics.GaugeFunc("spongewire_pool_free_chunks", func() int64 { return int64(pool.Free()) }, listen)
	d.metrics.GaugeFunc("spongewire_pool_chunks", func() int64 { return int64(pool.Chunks()) }, listen)
	if s.spill != nil {
		s.spillAllocs = d.metrics.Counter("spongewire_spill_allocs_total", listen)
		d.metrics.GaugeFunc("spongewire_spill_chunks", func() int64 {
			live, _ := s.spill.stats()
			return int64(live)
		}, listen)
		d.metrics.GaugeFunc("spongewire_spill_bytes", func() int64 {
			_, bytes := s.spill.stats()
			return bytes
		}, listen)
	}
	if len(opts.Trackers) > 0 {
		adv := opts.AdvertiseAddr
		if adv == "" {
			adv = d.addr()
		}
		s.reporter = newDeltaReporter(adv, opts.Trackers, opts.ReportInterval, pool.Free, d.metrics)
	}
	return s, nil
}

// Metrics returns the registry this server instruments itself into (the
// one passed via Options.Metrics, or its private registry).
func (s *Server) Metrics() *obs.Registry { return s.d.metrics }

// Addr returns the TCP listening address.
func (s *Server) Addr() string { return s.d.addr() }

// LocalSocket returns the unix-socket path this server also listens on,
// or "" when it serves TCP only.
func (s *Server) LocalSocket() string { return s.d.localSocket() }

// Close stops the listeners, closes every live connection, waits for
// their handlers, and removes the spill file.
func (s *Server) Close() error {
	if s.reporter != nil {
		s.reporter.close()
	}
	err := s.d.close()
	if s.spill != nil {
		if serr := s.spill.close(); err == nil {
			err = serr
		}
	}
	return err
}

// TaskAlive reports whether a pid is registered live on this node.
func (s *Server) TaskAlive(pid uint64) bool { return s.live.Alive(pid) }

// sendFDs answers one OpPoolFD exchange: pass whatever files this
// server keeps chunks in over the unix connection's SCM_RIGHTS — the
// pool's generation table and segments when they are file-backed (and
// fit one message beside the spill file), the spill file when there is
// a spill tier. Non-unix connections, non-linux builds, and a server
// with neither degrade to errZCUnsupported, which the daemon answers as
// StatusBadRequest.
func (s *Server) sendFDs(conn net.Conn) error {
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
	return sendFilesOverUnix(uc, files, g)
}

// helloResponse builds the v1-framed reply to OpHello: status, version,
// and the stat triple so v2 dialers skip a round trip.
func (s *Server) helloResponse() []byte {
	out := make([]byte, helloRespLen)
	out[0] = StatusOK
	out[1] = ProtocolV2
	binary.LittleEndian.PutUint32(out[2:6], uint32(s.pool.Free()))
	binary.LittleEndian.PutUint32(out[6:10], uint32(s.pool.Chunks()))
	binary.LittleEndian.PutUint32(out[10:14], uint32(s.pool.ChunkSize()))
	return out
}

// dispatch executes one request and builds the response body. Responses
// may come from the daemon's buffer pool; callers hand them to recycle
// after writing. A response whose payload lives in the spill file comes
// back as a fileRef instead, and the daemon serves it zero-copy.
func (s *Server) dispatch(req []byte) ([]byte, fileRef) {
	if len(req) < 1 {
		return []byte{StatusBadRequest}, fileRef{}
	}
	op, payload := req[0], req[1:]
	switch op {
	case OpAllocWrite:
		if len(payload) < 12 {
			return []byte{StatusBadRequest}, fileRef{}
		}
		owner := sponge.TaskID{
			Node: int(binary.LittleEndian.Uint32(payload[0:4])),
			PID:  int64(binary.LittleEndian.Uint64(payload[4:12])),
		}
		if owner.IsZero() {
			// The zero ID is the pool's free-chunk marker; never accept
			// it from the network.
			return []byte{StatusBadRequest}, fileRef{}
		}
		data := payload[12:]
		if len(data) > s.pool.ChunkSize() {
			// The frame limit leaves slack past the chunk size; a chunk
			// does not (Pool.Write panics on overflow).
			return []byte{StatusBadRequest}, fileRef{}
		}
		h, err := s.pool.Alloc(owner)
		if err == nil {
			if werr := s.pool.Write(h, data); werr != nil {
				s.pool.FreeChunk(h)
				return []byte{errStatus(werr)}, fileRef{}
			}
		} else if errors.Is(err, sponge.ErrNoFreeChunk) && s.spill != nil {
			// Memory pool full: overflow into the disk tier.
			h, err = s.spill.append(data)
			if err != nil {
				return []byte{errStatus(err)}, fileRef{}
			}
			s.spillAllocs.Inc()
		} else {
			return []byte{errStatus(err)}, fileRef{}
		}
		out := make([]byte, 5)
		out[0] = StatusOK
		binary.LittleEndian.PutUint32(out[1:], uint32(h))
		return out, fileRef{}
	case OpRead:
		if len(payload) != 4 {
			return []byte{StatusBadRequest}, fileRef{}
		}
		h := int(binary.LittleEndian.Uint32(payload))
		if h&SpillHandleBit != 0 {
			if s.spill == nil {
				return []byte{StatusBadRequest}, fileRef{}
			}
			off, n, err := s.spill.loc(h)
			if err != nil {
				return []byte{errStatus(err)}, fileRef{}
			}
			return nil, fileRef{f: s.spill.file(), off: off, n: int64(n)}
		}
		n, err := s.pool.Length(h)
		if err != nil {
			return []byte{errStatus(err)}, fileRef{}
		}
		buf := s.d.getBuf(1 + n)
		m, err := s.pool.Read(h, buf[1:])
		if err != nil {
			s.d.recycle(buf)
			return []byte{errStatus(err)}, fileRef{}
		}
		buf[0] = StatusOK
		return buf[:1+m], fileRef{}
	case OpFree:
		if len(payload) != 4 {
			return []byte{StatusBadRequest}, fileRef{}
		}
		h := int(binary.LittleEndian.Uint32(payload))
		if h&SpillHandleBit != 0 {
			if s.spill == nil {
				return []byte{StatusBadRequest}, fileRef{}
			}
			if err := s.spill.freeRec(h); err != nil {
				return []byte{errStatus(err)}, fileRef{}
			}
			return []byte{StatusOK}, fileRef{}
		}
		if _, err := s.pool.Length(h); err != nil {
			return []byte{errStatus(err)}, fileRef{}
		}
		s.pool.FreeChunk(h)
		return []byte{StatusOK}, fileRef{}
	case OpPoolLoc, OpSpillLoc:
		return s.loc(payload), fileRef{}
	case OpStat:
		out := make([]byte, 13)
		out[0] = StatusOK
		binary.LittleEndian.PutUint32(out[1:5], uint32(s.pool.Free()))
		binary.LittleEndian.PutUint32(out[5:9], uint32(s.pool.Chunks()))
		binary.LittleEndian.PutUint32(out[9:13], uint32(s.pool.ChunkSize()))
		return out, fileRef{}
	case OpPing:
		if len(payload) != 8 {
			return []byte{StatusBadRequest}, fileRef{}
		}
		alive := byte(0)
		if s.live.Alive(binary.LittleEndian.Uint64(payload)) {
			alive = 1
		}
		return []byte{StatusOK, alive}, fileRef{}
	case OpRegister, OpUnregister:
		if len(payload) != 8 {
			return []byte{StatusBadRequest}, fileRef{}
		}
		pid := binary.LittleEndian.Uint64(payload)
		if op == OpRegister {
			s.live.Register(pid)
		} else {
			s.live.Unregister(pid)
		}
		return []byte{StatusOK}, fileRef{}
	}
	return []byte{StatusBadRequest}, fileRef{}
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
	out := s.d.getBuf(25)
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

// NodeLiveness adapts a simulated sponge server's mutex-guarded task
// registry to the wire Liveness interface, so a TCP server and the
// in-process server on the same node answer liveness from one source of
// truth (pass it as Options.Liveness).
type NodeLiveness struct {
	Srv *sponge.Server
}

func (l NodeLiveness) Register(pid uint64)   { l.Srv.RegisterTask(int64(pid)) }
func (l NodeLiveness) Unregister(pid uint64) { l.Srv.UnregisterTask(int64(pid)) }
func (l NodeLiveness) Alive(pid uint64) bool { return l.Srv.TaskAlive(int64(pid)) }
