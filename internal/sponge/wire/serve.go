package wire

import (
	"bufio"
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

// connWorkers is the per-connection worker-pool bound: how many v2
// requests one connection may have executing at once. The reader stops
// pulling frames when all workers are busy, so it doubles as
// backpressure.
const connWorkers = 16

// Options tunes a sponge server. The zero value is no I/O deadlines, TCP
// only, and no disk-spill tier.
type Options struct {
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

// response is what a dispatch hands back to the connection: exactly one
// of three payload shapes. The zero value is not a response.
//
//   - body: the whole response inline, status byte first. It may come
//     from the server's buffer pools; respond recycles it after
//     writing.
//   - f, off, n: StatusOK, then n bytes of a spill-file region, sent via
//     sendfile (or the buffered fallback) without visiting user space.
//   - pool, h, chunk: StatusOK, then a pool chunk's bytes where they
//     live. chunk is a Pool.View: it stays pinned until the bytes are on
//     the socket, and respond unpins it after writing, so a chunk is
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

// statusOnly is a response carrying nothing but its status byte. The
// body is a one-byte window on a shared table, capacity 1 so recycle
// drops it: a free's or a refusal's reply costs no allocation.
func statusOnly(status byte) response {
	return response{body: statusBytes[status : status+1 : status+1]}
}

// statusBytes holds every status byte at its own index.
var statusBytes = func() (b [256]byte) {
	for i := range b {
		b[i] = byte(i)
	}
	return b
}()

// minRecycledBuf is the smallest buffer worth pooling in the chunk
// class; smallRecycledBuf is the fixed capacity of the small class that
// keeps header-size requests and responses (≤ 64 bytes: alloc_write and
// stat replies, loc exchanges) off the allocator too. Buffers
// between the two classes are cheaper to allocate than to pool.
const (
	minRecycledBuf   = 1 << 10
	smallRecycledBuf = 64
)

// opNames maps op codes to the label values used in the server's
// per-op request counters. A blank entry means "not a real op".
var opNames = [opMax + 1]string{
	OpAllocWrite: "alloc_write",
	OpRead:       "read",
	OpFree:       "free",
	OpStat:       "stat",
	OpHello:      "hello",
	OpMetrics:    "metrics",
	OpSpillLoc:   "spill_loc",
	OpPoolLoc:    "pool_loc",
	OpPoolFD:     "pool_fd",
}

// countOp records one inbound request frame in the per-op counters.
func (s *Server) countOp(req []byte) {
	if len(req) > 0 {
		if op := int(req[0]); op < len(s.opReqs) && s.opReqs[op] != nil {
			s.opReqs[op].Inc()
			return
		}
	}
	s.badReqs.Inc()
}

// Accept back-off: a temporary failure (EMFILE, ENFILE — the net package
// retries ECONNABORTED itself) is retried after acceptBackoffMin,
// doubling to acceptBackoffMax while failures continue and starting over
// after a success.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// acceptLoop serves one listener until the server closes or the listener
// fails for good. Running out of descriptors is not for good: the server
// keeps serving its open connections meanwhile, and must take new ones
// again once some close.
func (s *Server) acceptLoop(ln net.Listener, tier int) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if ne, ok := err.(net.Error); !ok || !ne.Temporary() {
				log.Printf("wire: accept: %v", err)
				return
			}
			backoff = min(max(2*backoff, acceptBackoffMin), acceptBackoffMax)
			s.acceptRetries.Inc()
			select {
			case <-s.closed:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		select {
		case <-s.closed:
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connsSeen[tier].Inc()
		s.connsOpen.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.connsOpen.Add(-1)
			}()
			s.handle(conn)
		}()
	}
}

// sliceHdrPool recycles the *[]byte boxes that carry buffers through
// s.bufs. Boxing a local slice header at each recycle (`Put(&b)`) would
// heap-allocate per request; instead the boxes cycle between the two
// pools — getBuf unboxes and returns the empty box, recycle takes a box
// back out to wrap the buffer.
var sliceHdrPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a buffer of exactly need bytes, reusing a recycled one
// when it is big enough. When the pool is empty (or only holds smaller
// buffers) the fallback allocation is sized to need — the actual chunk
// length — never to the full chunk size.
func (s *Server) getBuf(need int) []byte {
	pool := &s.bufs
	if need <= smallRecycledBuf {
		pool = &s.small
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
func (s *Server) recycle(b []byte) {
	pool := &s.bufs
	switch {
	case cap(b) >= minRecycledBuf:
	case cap(b) == smallRecycledBuf:
		pool = &s.small
	default:
		return
	}
	p := sliceHdrPool.Get().(*[]byte)
	*p = b[:cap(b)]
	pool.Put(p)
}

// armRead applies the per-frame read deadline, when configured.
func (s *Server) armRead(conn net.Conn) {
	if s.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
}

// respond writes one response frame for request id and gives back
// whatever the response held: the pooled body, or the chunk's pin. A
// payload that is a file region or a pinned chunk goes out behind a
// header that already carries the StatusOK byte — the first via sendfile
// (accounting the outcome), the second as one vectored write straight
// from the pool slab — so neither needs user-space staging.
func (s *Server) respond(fw *frameWriter, id uint32, r response) error {
	if r.f == nil && r.pool == nil {
		err := writeFrameV2(fw, id, r.body)
		s.recycle(r.body)
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
			s.zcBytes.Add(zc)
		} else {
			s.zcFallbk.Inc()
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

// handle serves a connection's first frame. OpHello switches the
// connection to pipelined serving for the rest of its life. OpPoolFD
// passes the server's files, or refuses, and ends the connection: a
// descriptor connection carries one exchange. Anything else is refused
// and the connection dropped. Every reply echoes the request's ID, and
// every write but the descriptors' flows through one batching frame
// writer, shared with serveV2.
func (s *Server) handle(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFrameWriter(conn, s.opts.WriteTimeout)
	s.armRead(conn)
	n, id, err := readFrameV2Header(br, preHelloLimit)
	if err != nil {
		return // EOF or a frame past the limit: drop it unread
	}
	var req [preHelloLimit]byte
	if _, err := io.ReadFull(br, req[:n]); err != nil {
		return
	}
	s.countOp(req[:n])
	switch {
	case n == 1 && req[0] == OpPoolFD:
		// The descriptors ride a sendmsg of their own, outside the frame
		// writer, with nothing buffered ahead of them.
		if err := s.sendFDs(conn, id); err != nil {
			s.fdFail.Inc()
			// errZCUnsupported — TCP connection, nothing to pass, or
			// portable build — wrote nothing, so a refusal can follow.
			if err == errZCUnsupported {
				_ = writeFrameV2(fw, id, []byte{StatusBadRequest})
			}
		}
	case n == 2 && req[0] == OpHello && req[1] >= ProtocolV2:
		if err := writeFrameV2(fw, id, s.helloResponse()); err == nil {
			s.serveV2(conn, br, fw)
		}
	default:
		// Not a handshake, or a hello for a version this daemon does
		// not serve. The connection is dropped whether or not the
		// refusal goes out.
		_ = writeFrameV2(fw, id, []byte{StatusBadRequest})
	}
}

// v2req is one pipelined request handed from the connection reader to a
// worker.
type v2req struct {
	id  uint32
	req []byte
}

// serveV2 runs a connection in pipelined framing: the reader pulls
// frames and hands each to one of connWorkers long-lived workers;
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
func (s *Server) serveV2(conn net.Conn, br *bufio.Reader, fw *frameWriter) {
	work := make(chan v2req)
	var wg sync.WaitGroup
	for i := 0; i < connWorkers; i++ {
		wg.Add(1)
		go s.v2worker(conn, fw, work, &wg)
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	for {
		s.armRead(conn)
		id, req, resp, err := s.readRequest(br)
		if err != nil {
			return
		}
		if req != nil {
			work <- v2req{id: id, req: req}
		} else if s.respond(fw, id, resp) != nil {
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
func (s *Server) readRequest(br *bufio.Reader) (id uint32, req []byte, resp response, err error) {
	n, id, err := readFrameV2Header(br, s.frameLimit)
	if err != nil {
		return 0, nil, response{}, err
	}
	if n < 1 {
		return 0, nil, response{}, errEmptyFrame
	}
	if op, perr := br.Peek(1); perr == nil && op[0] == OpAllocWrite {
		s.opReqs[OpAllocWrite].Inc()
		resp, err = s.allocWrite(br, n)
		return id, nil, resp, err
	}
	req = s.getBuf(n)
	if _, err := io.ReadFull(br, req); err != nil {
		s.recycle(req)
		return 0, nil, response{}, err
	}
	s.countOp(req)
	return id, req, response{}, nil
}

// v2worker serves one slot of a connection's pipelined worker pool.
func (s *Server) v2worker(conn net.Conn, fw *frameWriter, work chan v2req, wg *sync.WaitGroup) {
	defer wg.Done()
	for w := range work {
		resp := s.dispatch(w.req)
		s.recycle(w.req)
		if s.respond(fw, w.id, resp) != nil {
			conn.Close() // unblocks the reader; the connection is gone
		}
	}
}
