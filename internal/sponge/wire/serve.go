package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

// defaultInflight is the default per-connection worker-pool bound: how
// many v2 requests one connection may have executing at once. The
// reader stops pulling frames when all workers are busy, so it doubles
// as backpressure.
const defaultInflight = 16

// Options tunes a sponge server. The zero value is 16 in-flight requests
// per connection, no I/O deadlines, TCP only, and no disk-spill tier.
type Options struct {
	// Inflight bounds the per-connection worker pool in v2 framing;
	// 0 means the default (16).
	Inflight int
	// ReadTimeout is the per-frame read deadline: a connection that
	// sends no complete frame for this long is dropped. 0 disables it.
	ReadTimeout time.Duration
	// WriteTimeout is the deadline applied to each response write or
	// flush. 0 disables it.
	WriteTimeout time.Duration
	// Metrics, when non-nil, is the registry this daemon instruments
	// itself into and serves over OpMetrics; nil means a private
	// registry. Several daemons in one process may share a registry —
	// their series are distinguished by the listen-address label.
	Metrics *obs.Registry
	// LocalSocketDir, when non-empty, adds a same-host listener: a
	// unix-domain socket at SocketPath(dir, tcpAddr) speaking the exact
	// same protocol, so co-located clients skip the TCP stack. A stale
	// socket file from a dead daemon is replaced at startup; the file is
	// removed again on Close.
	LocalSocketDir string
	// SpillDir, when non-empty, gives the sponge server a disk tier: an
	// append-coalesced spill file in that directory absorbs AllocWrites
	// that find the memory pool full, and reads of those chunks are
	// served zero-copy (sendfile on linux, buffered elsewhere).
	SpillDir string
	// SpillChunks caps the live chunks in the spill file; 0 = unbounded.
	SpillChunks int
}

func (o Options) inflight() int {
	if o.Inflight > 0 {
		return o.Inflight
	}
	return defaultInflight
}

// SocketPath derives the well-known unix-socket path for a daemon from
// its TCP listen address: "sponge-<port>.sock" under dir. Deriving the
// name from the port lets a client that only knows a peer's TCP address
// discover the same-host socket without any extra coordination.
func SocketPath(dir, tcpAddr string) (string, error) {
	_, port, err := net.SplitHostPort(tcpAddr)
	if err != nil {
		return "", fmt.Errorf("wire: socket path for %q: %w", tcpAddr, err)
	}
	return filepath.Join(dir, "sponge-"+port+".sock"), nil
}

// mapLiveness is the task-liveness registry a sponge server consults for
// OpPing and mutates for OpRegister/OpUnregister, from a concurrent
// worker pool.
type mapLiveness struct {
	mu   sync.Mutex
	live map[uint64]bool
}

func newMapLiveness() *mapLiveness { return &mapLiveness{live: make(map[uint64]bool)} }

func (m *mapLiveness) Register(pid uint64) {
	m.mu.Lock()
	m.live[pid] = true
	m.mu.Unlock()
}

func (m *mapLiveness) Unregister(pid uint64) {
	m.mu.Lock()
	delete(m.live, pid)
	m.mu.Unlock()
}

func (m *mapLiveness) Alive(pid uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live[pid]
}

// response is what a dispatch hands back to the connection: exactly one
// of three payload shapes. The zero value is not a response.
//
//   - body: the whole response inline, status byte first. It may come
//     from the daemon's buffer pools; the daemon recycles it after
//     writing.
//   - f, off, n: StatusOK, then n bytes of a spill-file region, sent via
//     sendfile (or the buffered fallback) without visiting user space.
//   - pool, h, chunk: StatusOK, then a pool chunk's bytes where they
//     live. chunk is a Pool.View: it stays pinned until the bytes are on
//     the socket, and the daemon unpins it after writing, so a chunk is
//     sent from its slab with no staging copy.
type response struct {
	body []byte

	f   *os.File
	off int64
	n   int64

	pool  *sponge.Pool
	h     int
	chunk []byte
}

// statusOnly is a response carrying nothing but its status byte.
func statusOnly(status byte) response { return response{body: []byte{status}} }

// daemon is the sponge server's connection-serving core: it accepts
// connections on every listener (TCP, optionally a same-host unix
// socket), answers the v1-framed handshakes (OpHello, OpPoolFD), and
// once the hello has switched the connection to pipelined v2 framing
// feeds every request to the server, which answers with a response.
type daemon struct {
	lns       []net.Listener
	localPath string // unix socket path, "" when TCP-only
	opts      Options

	srv *Server
	// frameLimit bounds inbound v2 frames: a chunk plus protocol overhead.
	frameLimit int
	// sendFDs answers OpPoolFD on a unix connection by passing the
	// server's files over SCM_RIGHTS (Server.sendFDs; a field so a test
	// can pass files that break the handshake's promises).
	sendFDs func(conn net.Conn) error

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	// metrics is the registry served over OpMetrics; opReqs are the
	// per-op request counters (indexed by op code), badReqs counts
	// frames whose op is unknown or empty. All series carry a listen
	// label so daemons sharing one registry stay distinguishable.
	metrics   *obs.Registry
	opReqs    [opMax + 1]*obs.Counter
	badReqs   *obs.Counter
	connsSeen [2]*obs.Counter // indexed by connTier
	connsOpen *obs.Gauge
	zcBytes   *obs.Counter // payload bytes served via sendfile
	zcFallbk  *obs.Counter // file responses that took the buffered path
	fdFail    *obs.Counter // fd-pass handshakes refused or failed

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

// connTier indexes connsSeen: which listener a connection arrived on.
const (
	connTCP = iota
	connUnix
)

// minRecycledBuf is the smallest buffer worth pooling in the chunk
// class; smallRecycledBuf is the fixed capacity of the small class that
// keeps header-size requests and responses (≤ 64 bytes: alloc_write and
// stat replies, loc exchanges) off the allocator too. Buffers
// between the two classes are cheaper to allocate than to pool.
const (
	minRecycledBuf   = 1 << 10
	smallRecycledBuf = 64
)

// opNames maps op codes to the label values used in the daemon's
// per-op request counters. A blank entry means "not a real op".
var opNames = [opMax + 1]string{
	OpAllocWrite: "alloc_write",
	OpRead:       "read",
	OpFree:       "free",
	OpStat:       "stat",
	OpPing:       "ping",
	OpRegister:   "register",
	OpUnregister: "unregister",
	OpHello:      "hello",
	OpMetrics:    "metrics",
	OpSpillLoc:   "spill_loc",
	OpPoolLoc:    "pool_loc",
	OpPoolFD:     "pool_fd",
}

// startDaemon listens on addr (plus the derived unix socket when
// opts.LocalSocketDir is set) and begins accepting connections for srv.
func startDaemon(addr string, opts Options, srv *Server) (*daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		lns:        []net.Listener{ln},
		opts:       opts,
		srv:        srv,
		frameLimit: srv.pool.ChunkSize() + frameSlack,
		sendFDs:    srv.sendFDs,
		conns:      make(map[net.Conn]struct{}),
		closed:     make(chan struct{}),
	}
	if opts.LocalSocketDir != "" {
		path, err := SocketPath(opts.LocalSocketDir, ln.Addr().String())
		if err != nil {
			ln.Close()
			return nil, err
		}
		if err := os.MkdirAll(opts.LocalSocketDir, 0o700); err != nil {
			ln.Close()
			return nil, fmt.Errorf("wire: local socket dir: %w", err)
		}
		// A crashed daemon leaves its socket file behind; nothing can be
		// listening on this port-derived path but us, so replace it.
		os.Remove(path)
		uln, err := net.Listen("unix", path)
		if err != nil {
			ln.Close()
			return nil, fmt.Errorf("wire: local socket: %w", err)
		}
		d.lns = append(d.lns, uln)
		d.localPath = path
	}
	d.metrics = opts.Metrics
	if d.metrics == nil {
		d.metrics = obs.NewRegistry()
	}
	listen := obs.L("listen", ln.Addr().String())
	for op, name := range opNames {
		if name == "" {
			continue
		}
		d.opReqs[op] = d.metrics.Counter("spongewire_requests_total", obs.L("op", name), listen)
	}
	d.badReqs = d.metrics.Counter("spongewire_bad_requests_total", listen)
	d.connsSeen[connTCP] = d.metrics.Counter("spongewire_connections_total", obs.L("tier", "tcp"), listen)
	d.connsSeen[connUnix] = d.metrics.Counter("spongewire_connections_total", obs.L("tier", "unix"), listen)
	d.connsOpen = d.metrics.Gauge("spongewire_open_connections", listen)
	d.zcBytes = d.metrics.Counter("spongewire_serve_zero_copy_bytes_total", listen)
	d.zcFallbk = d.metrics.Counter("spongewire_serve_zero_copy_fallback_total", listen)
	d.fdFail = d.metrics.Counter("spongewire_fdpass_fail_total", listen)
	srv.d = d // before the first connection can reach srv through d
	for _, l := range d.lns {
		d.wg.Add(1)
		go d.acceptLoop(l)
	}
	return d, nil
}

// countOp records one inbound request frame in the per-op counters.
func (d *daemon) countOp(req []byte) {
	if len(req) > 0 {
		if op := int(req[0]); op < len(d.opReqs) && d.opReqs[op] != nil {
			d.opReqs[op].Inc()
			return
		}
	}
	d.badReqs.Inc()
}

// metricsResponse renders the daemon's registry as an OpMetrics reply:
// a StatusOK byte followed by the text exposition.
func (d *daemon) metricsResponse() []byte {
	var b bytes.Buffer
	b.WriteByte(StatusOK)
	d.metrics.WriteText(&b)
	return b.Bytes()
}

// addr returns the TCP listening address.
func (d *daemon) addr() string { return d.lns[0].Addr().String() }

// localSocket returns the unix socket path, or "" when TCP-only.
func (d *daemon) localSocket() string { return d.localPath }

// close stops every listener (removing the unix socket file), closes
// every live connection, and waits for their handlers. Safe to call
// more than once.
func (d *daemon) close() error {
	var err error
	d.closeOnce.Do(func() {
		close(d.closed)
		for _, ln := range d.lns {
			if cerr := ln.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		d.mu.Lock()
		for conn := range d.conns {
			conn.Close()
		}
		d.mu.Unlock()
	})
	d.wg.Wait()
	return err
}

func (d *daemon) acceptLoop(ln net.Listener) {
	defer d.wg.Done()
	tier := connTCP
	if _, ok := ln.(*net.UnixListener); ok {
		tier = connUnix
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-d.closed:
				return
			default:
				log.Printf("wire: accept: %v", err)
				return
			}
		}
		d.mu.Lock()
		select {
		case <-d.closed:
			d.mu.Unlock()
			conn.Close()
			return
		default:
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		d.connsSeen[tier].Inc()
		d.connsOpen.Add(1)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer conn.Close()
			defer func() {
				d.mu.Lock()
				delete(d.conns, conn)
				d.mu.Unlock()
				d.connsOpen.Add(-1)
			}()
			d.handle(conn)
		}()
	}
}

// sliceHdrPool recycles the *[]byte boxes that carry buffers through
// d.bufs. Boxing a local slice header at each recycle (`Put(&b)`) would
// heap-allocate per request; instead the boxes cycle between the two
// pools — getBuf unboxes and returns the empty box, recycle takes a box
// back out to wrap the buffer.
var sliceHdrPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a buffer of exactly need bytes, reusing a recycled one
// when it is big enough. When the pool is empty (or only holds smaller
// buffers) the fallback allocation is sized to need — the actual chunk
// length — never to the full chunk size.
func (d *daemon) getBuf(need int) []byte {
	pool := &d.bufs
	if need <= smallRecycledBuf {
		pool = &d.small
	}
	if v := pool.Get(); v != nil {
		p := v.(*[]byte)
		b := *p
		*p = nil
		sliceHdrPool.Put(p)
		if cap(b) >= need {
			return b[:need]
		}
	}
	if need <= smallRecycledBuf {
		return make([]byte, need, smallRecycledBuf)
	}
	return make([]byte, need)
}

// recycle returns a buffer to its size-class pool for reuse. Buffers
// between the small and chunk classes are dropped.
func (d *daemon) recycle(b []byte) {
	pool := &d.bufs
	switch {
	case cap(b) >= minRecycledBuf:
	case cap(b) == smallRecycledBuf:
		pool = &d.small
	default:
		return
	}
	p := sliceHdrPool.Get().(*[]byte)
	*p = b[:cap(b)]
	pool.Put(p)
}

// armRead applies the per-frame read deadline, when configured.
func (d *daemon) armRead(conn net.Conn) {
	if d.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(d.opts.ReadTimeout))
	}
}

// respond writes one response frame for request id and gives back
// whatever the response held: the pooled body, or the chunk's pin. A
// payload that is a file region or a pinned chunk goes out behind a
// header that already carries the StatusOK byte — the first via sendfile
// (accounting the outcome), the second as one vectored write straight
// from the pool slab — so neither needs user-space staging.
func (d *daemon) respond(fw *frameWriter, id uint32, r response) error {
	if r.f == nil && r.pool == nil {
		err := writeFrameV2(fw, id, r.body)
		d.recycle(r.body)
		return err
	}
	n := r.n
	if r.pool != nil {
		n = int64(len(r.chunk))
	}
	hp := hdrPool.Get().(*[]byte)
	hdr := append((*hp)[:0], 0, 0, 0, 0, 0, 0, 0, 0, StatusOK)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(1+n))
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	var err error
	if r.pool != nil {
		err = fw.writeFrame(hdr, r.chunk)
		r.pool.Unpin(r.h)
	} else {
		var zc int64
		if zc, err = fw.writeFrameFile(hdr, r.f, r.off, r.n); zc > 0 {
			d.zcBytes.Add(zc)
		} else {
			d.zcFallbk.Inc()
		}
	}
	*hp = hdr[:0]
	hdrPool.Put(hp)
	return err
}

// preHelloLimit bounds a frame read before the hello. The longest legal
// one is OpHello plus a version byte, so a peer that has not introduced
// itself cannot make the daemon size a buffer.
const preHelloLimit = 2

// handle serves a connection's v1-framed prologue: the fd-pass
// handshake, any number of times, then the OpHello that switches the
// connection to v2 framing for the rest of its life. Anything else is
// refused and the connection dropped. All writes flow through one
// batching frame writer, shared with the v2 phase.
func (d *daemon) handle(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFrameWriter(conn, d.opts.WriteTimeout)
	for {
		d.armRead(conn)
		req, err := readFrame(br, preHelloLimit)
		if err != nil {
			return // EOF or protocol violation: drop the connection
		}
		d.countOp(req)
		switch {
		case len(req) == 1 && req[0] == OpPoolFD:
			// Descriptor passing happens outside the frame writer: the
			// exchange owns the connection (lock-step, nothing buffered)
			// and the descriptors must ride their own sendmsg.
			err := d.sendFDs(conn)
			if err == nil {
				continue
			}
			d.fdFail.Inc()
			// errZCUnsupported — TCP connection, nothing to pass, or
			// portable build — wrote nothing: refuse, stream intact. Any
			// other failure is a half-written handshake that poisons it.
			if err != errZCUnsupported || writeFrameV1(fw, []byte{StatusBadRequest}) != nil {
				return
			}
		case len(req) == 2 && req[0] == OpHello && req[1] >= ProtocolV2:
			if err := writeFrameV1(fw, d.srv.helloResponse()); err == nil {
				d.serveV2(conn, br, fw)
			}
			return
		default:
			// Not a handshake, or a hello for a version this daemon does
			// not serve. The connection is dropped whether or not the
			// refusal goes out.
			_ = writeFrameV1(fw, []byte{StatusBadRequest})
			return
		}
	}
}

// v2req is one pipelined request handed from the connection reader to a
// worker.
type v2req struct {
	id  uint32
	req []byte
}

// serveV2 runs a connection in pipelined framing: the reader pulls
// frames and hands each to one of Options.Inflight long-lived workers;
// workers dispatch and write their response — tagged with the request
// ID — in completion order through the connection's batching writer,
// which coalesces small responses into one flush when several workers
// finish together. The workers are spawned once per connection and fed
// over an unbuffered channel, so the steady state neither allocates nor
// spawns: the reader blocks handing off when all workers are busy,
// which is the same backpressure the old per-request semaphore gave.
// A request the reader already served off the socket (an OpAllocWrite)
// is answered from the reader: its reply is five bytes through the same
// writer, not worth a hand-off.
func (d *daemon) serveV2(conn net.Conn, br *bufio.Reader, fw *frameWriter) {
	work := make(chan v2req)
	var wg sync.WaitGroup
	for i := 0; i < d.opts.inflight(); i++ {
		wg.Add(1)
		go d.v2worker(conn, fw, work, &wg)
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	for {
		d.armRead(conn)
		id, req, resp, err := d.readRequest(br)
		if err != nil {
			return
		}
		if req != nil {
			work <- v2req{id: id, req: req}
		} else if d.respond(fw, id, resp) != nil {
			return
		}
	}
}

// errEmptyFrame drops a connection that sent a frame with no op byte.
var errEmptyFrame = errors.New("wire: empty request frame")

// readRequest takes the next request frame off the connection. Most come
// back as req, a pooled buffer holding the body for a worker to answer
// (and recycle). An OpAllocWrite is served right here instead, on the
// only goroutine that may touch br, its payload going from the socket
// into the pool, and comes back as a finished resp with req nil. Any
// error means the stream is over or out of step.
func (d *daemon) readRequest(br *bufio.Reader) (id uint32, req []byte, resp response, err error) {
	n, id, err := readFrameV2Header(br, d.frameLimit)
	if err != nil {
		return 0, nil, response{}, err
	}
	if n < 1 {
		return 0, nil, response{}, errEmptyFrame
	}
	if op, perr := br.Peek(1); perr == nil && op[0] == OpAllocWrite {
		d.opReqs[OpAllocWrite].Inc()
		resp, err = d.srv.allocWrite(br, n)
		return id, nil, resp, err
	}
	req = d.getBuf(n)
	if _, err := io.ReadFull(br, req); err != nil {
		d.recycle(req)
		return 0, nil, response{}, err
	}
	d.countOp(req)
	return id, req, response{}, nil
}

// answer executes one buffered request — the daemon's own OpMetrics, or
// the server's dispatch — and recycles its buffer.
func (d *daemon) answer(req []byte) response {
	var resp response
	if len(req) == 1 && req[0] == OpMetrics {
		resp = response{body: d.metricsResponse()}
	} else {
		resp = d.srv.dispatch(req)
	}
	d.recycle(req)
	return resp
}

// v2worker serves one slot of a connection's pipelined worker pool.
func (d *daemon) v2worker(conn net.Conn, fw *frameWriter, work chan v2req, wg *sync.WaitGroup) {
	defer wg.Done()
	for w := range work {
		if d.respond(fw, w.id, d.answer(w.req)) != nil {
			conn.Close() // unblocks the reader; the connection is gone
		}
	}
}
