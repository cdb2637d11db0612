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
	"time"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

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
//   - body: the whole response inline, status byte first. It may be the
//     connection's reply scratch, good until the next request is read.
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

// connScratch is what one connection's serve loop reuses from request
// to request. A connection is served on one goroutine, and a reply is on
// the socket before the next request is read, so nothing here is shared
// and nothing needs a pool.
type connScratch struct {
	// reply holds an inline answer: the longest is a loc's, status,
	// file index, offset, length and generation.
	reply [1 + 4 + 8 + 4 + 8]byte
	// hdr holds a reply's frame header, and the StatusOK byte ahead of
	// a payload that is not inline.
	hdr [9]byte
	// stage carries a chunk the full pool sends on to the spill tier;
	// made at the connection's first overflow.
	stage []byte
}

// status is a response carrying nothing but its status byte.
func (sc *connScratch) status(b byte) response {
	sc.reply[0] = b
	return response{body: sc.reply[:1]}
}

// frameHeader builds the header of an n-byte reply frame for request id.
func (sc *connScratch) frameHeader(id uint32, n int) []byte {
	hdr := sc.hdr[:8]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	return hdr
}

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
		sc := new(connScratch)
		s.conns[conn] = sc
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
			s.serve(conn, sc)
		}()
	}
}

// armRead applies the per-frame read deadline, when configured.
func (s *Server) armRead(conn net.Conn) {
	if s.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
}

// respond writes one response frame for request id and gives back the
// chunk's pin, if the response held one. A payload that is a file region
// or a pinned chunk goes out behind a header that already carries the
// StatusOK byte — the first via sendfile (accounting the outcome), the
// second as one vectored write straight from the pool slab — so neither
// needs user-space staging.
func (s *Server) respond(fw *frameWriter, sc *connScratch, id uint32, r response) error {
	if r.f == nil && r.pool == nil {
		return fw.writeFrame(sc.frameHeader(id, len(r.body)), r.body)
	}
	n := int(r.n)
	if r.pool != nil {
		n = len(r.chunk)
	}
	hdr := append(sc.frameHeader(id, 1+n), StatusOK)
	if r.pool != nil {
		err := fw.writeFrame(hdr, r.chunk)
		r.pool.Unpin(r.h)
		return err
	}
	zc, err := fw.writeFrameFile(hdr, r.f, r.off, r.n)
	if zc > 0 {
		s.zcBytes.Add(zc)
	} else {
		s.zcFallbk.Inc()
	}
	return err
}

// preHelloLimit bounds a frame read before the hello. The longest legal
// one is OpHello plus a version byte, so a peer that has not introduced
// itself cannot make the daemon size a buffer.
const preHelloLimit = 2

// serve runs one connection, on the goroutine acceptLoop spawned for it.
// The first frame decides what the connection is. OpHello makes it a
// request stream for the rest of its life, served one request at a
// time: a frame is read and answered before the next is read, so replies
// go out in request order, each echoing its request's ID. OpPoolFD
// passes the server's files, or refuses, and ends the connection: a
// descriptor connection carries one exchange. Anything else is refused
// and the connection dropped. Every write but the descriptors' goes
// through the connection's frame writer.
func (s *Server) serve(conn net.Conn, sc *connScratch) {
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
				_ = s.respond(fw, sc, id, sc.status(StatusBadRequest))
			}
		}
		return
	case n == 2 && req[0] == OpHello && req[1] >= ProtocolV2:
	default:
		// Not a handshake, or a hello for a version this daemon does
		// not serve. The connection is dropped whether or not the
		// refusal goes out.
		_ = s.respond(fw, sc, id, sc.status(StatusBadRequest))
		return
	}
	// The hello's reply, then one reply per request, each written before
	// the next request is read.
	resp := response{body: s.helloResponse(sc)}
	for s.respond(fw, sc, id, resp) == nil {
		s.armRead(conn)
		if id, resp, err = s.serveRequest(br, sc); err != nil {
			return
		}
	}
}

// errEmptyFrame drops a connection that sent a frame with no op byte.
var errEmptyFrame = errors.New("wire: empty request frame")

// maxReqLen is the longest request body but an alloc_write's: an op and
// a handle.
const maxReqLen = 1 + 4

// serveRequest reads the next request frame off the connection and
// builds its response. An OpAllocWrite is received from the socket
// straight into the pool (allocWrite). Any other request is parsed where
// it lies in the read buffer, or refused, its body skipped unparsed,
// when it is longer than maxReqLen. Any error means the stream is over
// or out of step.
func (s *Server) serveRequest(br *bufio.Reader, sc *connScratch) (id uint32, resp response, err error) {
	n, id, err := readFrameV2Header(br, s.frameLimit)
	if err != nil {
		return 0, response{}, err
	}
	if n < 1 {
		return 0, response{}, errEmptyFrame
	}
	req, err := br.Peek(min(n, maxReqLen))
	if err != nil {
		return 0, response{}, err
	}
	s.countOp(req)
	switch {
	case req[0] == OpAllocWrite:
		resp, err = s.allocWrite(br, sc, n)
		return id, resp, err
	case n > maxReqLen:
		resp = sc.status(StatusBadRequest)
	default:
		resp = s.dispatch(sc, req)
	}
	// A request short enough to dispatch was peeked whole, so only a
	// refused long one can fail here, and it holds no pin.
	if _, err := br.Discard(n); err != nil {
		return 0, response{}, err
	}
	return id, resp, nil
}
