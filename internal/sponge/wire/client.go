package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"

	"spongefiles/internal/obs"
	"spongefiles/internal/sponge"
)

// Client talks to one remote sponge server. It is safe for concurrent
// use: callers take turns, one exchange at a time. An exchange holds the
// client throughout: it writes the request frame, reads the one reply
// on the caller's goroutine and checks that the reply echoes the
// request's ID. A chunk payload rides a vectored write behind its
// header, with no coalescing copy.
type Client struct {
	conn      net.Conn
	chunkSize int
	network   string // "tcp" or "unix"
	addr      string // dial address (socket path for "unix")

	// fdOps and genMiss, when non-nil, count descriptor preads and
	// generation-check misses; wired by the transport so the series land
	// beside its tier counters.
	fdOps   *obs.Counter
	genMiss *obs.Counter

	// mu is held for a whole exchange, a pread of a passed file
	// included, and guards everything below.
	mu     sync.Mutex
	br     *bufio.Reader
	fw     frameWriter
	nextID uint32 // the next request's ID; the hello's is 0
	err    error  // sticky: the connection is closed, every call gets it
	// hdr holds a request's frame header and op header (an alloc-write's
	// 13 bytes are the longest).
	hdr [8 + 13]byte
	// short lands a short reply body — the hello, an alloc-write's
	// handle, the stat triple, a loc. Reading into a caller's local
	// instead would move the local to the heap through the reader's
	// interface call, one allocation per exchange.
	short [shortReply]byte

	// fds is the server's passed files once FetchPoolFDs has run the
	// descriptor handshake; chunks living in them are then pread directly.
	fds *fdState
}

// shortReply bounds a reply body read into Client.short: a loc's 24
// bytes are the longest.
const shortReply = 24

// fdState is the client-side view of the files a server passed: the
// pool's segment descriptors with the read-only mapping of its
// generation table, and the spill file. Either half may be absent.
type fdState struct {
	files    []*os.File // everything passed, owned until release
	metaRaw  []byte     // raw mmap backing gens
	gens     []uint64   // shared per-chunk generations, atomically loaded; empty without the pool
	segs     []*os.File // pool segments, by file index; empty without the pool
	spill    *os.File   // nil when the server has no spill tier
	spillIdx int        // the spill file's index in loc replies
}

// file resolves a loc reply's file index, nil when that file was not
// passed.
func (st *fdState) file(idx int) *os.File {
	switch {
	case idx < len(st.segs):
		return st.segs[idx]
	case idx == st.spillIdx:
		return st.spill
	}
	return nil
}

// release unmaps the generation table and closes every descriptor.
func (st *fdState) release() {
	unmapPoolMeta(st.metaRaw)
	for _, f := range st.files {
		f.Close()
	}
}

// Dial connects to a sponge server over TCP, negotiates the protocol
// version, and learns the server's chunk size. A client that cannot
// learn the chunk size would mis-size its frame limit and reject valid
// responses, so any failure here is returned rather than papered over.
func Dial(addr string) (*Client, error) { return dialNet("tcp", addr) }

// DialLocal connects to a same-host sponge server over its unix-domain
// socket (see Options.LocalSocketDir and SocketPath). The protocol is
// identical to TCP — the same framing and ops — the connection just
// skips the TCP stack. Additionally, a local client can call
// FetchPoolFDs to pread chunks directly.
func DialLocal(socketPath string) (*Client, error) { return dialNet("unix", socketPath) }

func dialNet(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, network, addr)
}

// newClient runs the hello over a fresh connection.
func newClient(conn net.Conn, network, addr string) (*Client, error) {
	c := &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 8<<10),
		fw:      frameWriter{conn: conn},
		network: network,
		addr:    addr,
	}
	if err := c.hello(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return c, nil
}

// hello performs the version exchange, request ID 0, and learns the
// server's chunk size. A peer that refuses it does not speak this
// version, and the error says so.
func (c *Client) hello() error {
	body, err := c.do([]byte{OpHello, ProtocolV2}, nil, c.short[:])
	switch {
	case errors.Is(err, ErrBadRequest):
		return fmt.Errorf("wire: peer refused the protocol v%d hello: %w", ProtocolV2, ErrBadRequest)
	case err != nil:
		return err
	case len(body) != helloRespLen-1 || body[0] < ProtocolV2:
		return fmt.Errorf("wire: malformed hello response (%d bytes)", 1+len(body))
	}
	c.chunkSize = int(binary.LittleEndian.Uint32(body[1:5]))
	return nil
}

// ChunkSize reports the server's chunk size learned at dial time.
func (c *Client) ChunkSize() int { return c.chunkSize }

// Network reports the transport tier this client dialed: "tcp" or
// "unix".
func (c *Client) Network() string { return c.network }

// Close closes the connection and releases any passed descriptors. The
// socket goes first, so that an exchange blocked on it returns; the
// descriptors go once no exchange is running, so a pread of a passed
// file never meets an unmapped generation table.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fail(net.ErrClosed)
	if c.fds != nil {
		c.fds.release()
		c.fds = nil
	}
	return err
}

// FetchPoolFDs asks the server to pass the files it keeps chunks in —
// the pool's generation table and segments, the spill file, whichever
// it has — over SCM_RIGHTS, enabling the direct-pread fast path:
// ReadInto then asks only where a chunk lives and preads it, so the
// payload never moves through the socket. Only a unix-socket client on
// a build with fd-passing can succeed; everyone else, and a client of a
// server with nothing to pass, gets an error and keeps using OpRead.
// The handshake is the one exchange of its own short-lived connection:
// descriptors must land exactly on a recvmsg boundary, which the main
// connection's buffered reader cannot guarantee.
func (c *Client) FetchPoolFDs() error {
	if c.network != "unix" || !zeroCopyAvailable {
		return errZCUnsupported
	}
	raw, err := net.Dial("unix", c.addr)
	if err != nil {
		return err
	}
	defer raw.Close()
	uc, ok := raw.(*net.UnixConn)
	if !ok {
		return errZCUnsupported
	}
	files, g, err := recvFilesOverUnix(uc)
	if err != nil {
		return err
	}
	st, err := newFDState(files, g, c.chunkSize)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil { // closed, or poisoned, while the handshake ran
		st.release()
		return c.err
	}
	if c.fds != nil {
		c.fds.release()
	}
	c.fds = st
	return nil
}

// errFDGeometry refuses a handshake whose files and geometry disagree.
var errFDGeometry = errors.New("wire: pool-fd geometry mismatch")

// newFDState checks the passed files against the geometry that came
// with them and maps the generation table. The geometry is the server's
// word; the files are measured before anything is mapped on it, since a
// load past the end of a short mapped file is a SIGBUS. On error every
// file is closed.
func newFDState(files []*os.File, g fdGeom, chunkSize int) (*fdState, error) {
	st := &fdState{files: files}
	if err := st.init(g, chunkSize); err != nil {
		st.release()
		return nil, err
	}
	return st, nil
}

// init fills st from its files, or says why they cannot be trusted.
func (st *fdState) init(g fdGeom, chunkSize int) error {
	if g.chunkSize != chunkSize || g.segChunks <= 0 || g.chunks < 0 {
		return errFDGeometry
	}
	st.spillIdx = g.segments()
	want := 0
	if g.flags&fdHasPool != 0 {
		want += 1 + st.spillIdx
	}
	if g.flags&fdHasSpill != 0 {
		want++
	}
	if len(st.files) != want {
		return errFDGeometry
	}
	if g.flags&fdHasSpill != 0 {
		st.spill = st.files[want-1]
	}
	if g.flags&fdHasPool == 0 {
		return nil
	}
	table := st.files[0]
	st.segs = st.files[1 : 1+st.spillIdx]
	if !holds(table, int64(g.chunks)*8) {
		return errFDGeometry
	}
	for i, f := range st.segs {
		n := g.chunks - i*g.segChunks // the last segment holds the remainder
		if n > g.segChunks {
			n = g.segChunks
		}
		if !holds(f, int64(n)*int64(g.chunkSize)) {
			return errFDGeometry
		}
	}
	var err error
	st.metaRaw, st.gens, err = mapPoolMeta(table, g.chunks)
	return err
}

// holds reports whether f is at least n bytes long.
func holds(f *os.File, n int64) bool {
	fi, err := f.Stat()
	return err == nil && fi.Size() >= n
}

func (c *Client) limit() int {
	// Chunk responses are bounded by the chunk size, but a metrics
	// exposition can be bigger, so the limit never drops below the
	// handshake bound.
	if c.chunkSize+frameSlack > handshakeLimit {
		return c.chunkSize + frameSlack
	}
	return handshakeLimit
}

// fail poisons the connection: the first error sticks, the socket is
// closed, and every later exchange gets the sticky error, which fail
// returns. The caller holds c.mu.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
		c.conn.Close()
	}
	return c.err
}

// do performs one exchange; the caller holds c.mu. head is the op byte
// plus fixed fields, payload the bulk data (may be nil). A StatusOK
// reply's payload is read into into and returned as into[:n]; with into
// nil it gets a buffer of its exact size, which limit() bounds. A
// payload longer than into is drained, and only this call fails, with
// io.ErrShortBuffer: the connection stays in step. A transport error, a
// reply under another request's ID, an empty frame or one longer than
// limit() poisons the connection.
func (c *Client) do(head, payload, into []byte) ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	id := c.nextID
	c.nextID++
	hdr := c.hdr[:8+copy(c.hdr[8:], head)]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(head)+len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	if err := c.fw.writeFrame(hdr, payload); err != nil {
		return nil, c.fail(err)
	}
	n, rid, err := readFrameV2Header(c.br, c.limit())
	switch {
	case err != nil:
		return nil, c.fail(err)
	case rid != id:
		return nil, c.fail(fmt.Errorf("wire: response for request %d, want %d", rid, id))
	case n < 1:
		return nil, c.fail(errors.New("wire: empty response frame"))
	}
	status, err := c.br.ReadByte()
	if err != nil {
		return nil, c.fail(err)
	}
	rest := n - 1
	switch {
	case status != StatusOK:
		return nil, c.skip(rest, statusErr(status))
	case into == nil:
		into = make([]byte, rest)
	case rest > len(into):
		return nil, c.skip(rest, fmt.Errorf("wire: %w: response is %d bytes, buffer holds %d",
			io.ErrShortBuffer, rest, len(into)))
	}
	if _, err := io.ReadFull(c.br, into[:rest]); err != nil {
		return nil, c.fail(err)
	}
	return into[:rest], nil
}

// skip drains a reply payload nobody reads and returns err, the
// exchange's verdict; a failed drain poisons the connection instead.
func (c *Client) skip(n int, err error) error {
	if _, derr := c.br.Discard(n); derr != nil {
		return c.fail(derr)
	}
	return err
}

// AllocWrite allocates a chunk for owner and stores data in it, in one
// exchange, returning the chunk handle. The payload is written straight
// from data (vectored write); it must not be mutated until AllocWrite
// returns.
func (c *Client) AllocWrite(owner sponge.TaskID, data []byte) (int, error) {
	if c.chunkSize > 0 && len(data) > c.chunkSize {
		return 0, fmt.Errorf("wire: payload of %d bytes exceeds chunk size %d: %w",
			len(data), c.chunkSize, ErrBadRequest)
	}
	var head [13]byte
	head[0] = OpAllocWrite
	binary.LittleEndian.PutUint32(head[1:5], uint32(owner.Node))
	binary.LittleEndian.PutUint64(head[5:13], uint64(owner.PID))
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.do(head[:], data, c.short[:])
	if err != nil {
		return 0, err
	}
	if len(body) != 4 {
		return 0, fmt.Errorf("wire: bad alloc response")
	}
	return int(binary.LittleEndian.Uint32(body)), nil
}

// preadTestHook, when non-nil, runs between the loc exchange and the
// pread — the window the generation check guards. Tests use it to free
// or rewrite the chunk deterministically mid-read.
var preadTestHook func()

// ReadInto fetches a chunk's contents directly into buf, avoiding any
// intermediate allocation (the payload is decoded off the socket
// straight into buf), and returns the byte count. If buf is too
// small the call fails with an error wrapping io.ErrShortBuffer; the
// connection remains usable.
//
// When the server's files have been fetched (FetchPoolFDs) a chunk
// living in one of them is pread straight from it: only the 29-byte loc
// exchange crosses the socket, and a pool chunk whose generation moved
// under the pread (freed or rewritten mid-read) transparently falls
// back to OpRead.
func (c *Client) ReadInto(handle int, buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fds != nil {
		if n, ok, err := c.preadLoc(handle, buf); ok {
			return n, err
		}
	}
	var head [5]byte
	head[0] = OpRead
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	body, err := c.do(head[:], nil, buf)
	return len(body), err
}

// preadLoc is the descriptor fast path: ask where the chunk lives, pread
// that file, and for a pool chunk re-check the shared generation table
// (a spilled chunk's region is stable for its lifetime). ok=false (with
// no error) sends the caller to the OpRead fallback: the chunk's file
// was not passed, or the chunk moved under us — a write was in progress
// (odd generation) or the generation changed between the lookup and the
// pread. The caller holds c.mu, so Close cannot release the passed
// files under it.
func (c *Client) preadLoc(handle int, buf []byte) (n int, ok bool, err error) {
	st := c.fds
	pool := handle&SpillHandleBit == 0
	var head [5]byte
	switch {
	case !pool && st.spill != nil:
		head[0] = OpSpillLoc
	case pool && handle >= 0 && handle < len(st.gens):
		head[0] = OpPoolLoc
	default:
		return 0, false, nil
	}
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	loc, err := c.do(head[:], nil, c.short[:])
	if err != nil || len(loc) != 24 {
		if err == nil {
			err = fmt.Errorf("wire: bad loc response")
		}
		return 0, true, err
	}
	f := st.file(int(binary.LittleEndian.Uint32(loc[0:4])))
	off := int64(binary.LittleEndian.Uint64(loc[4:12]))
	n = int(binary.LittleEndian.Uint32(loc[12:16]))
	gen := binary.LittleEndian.Uint64(loc[16:24])
	if gen&1 == 1 || f == nil {
		// Odd: a write is mid-copy right now. A file we do not hold
		// means our view is stale. Either way the socket path has the
		// authoritative bytes.
		c.countGenMiss()
		return 0, false, nil
	}
	if n > len(buf) {
		return 0, true, fmt.Errorf("wire: %w: response is %d bytes, buffer holds %d",
			io.ErrShortBuffer, n, len(buf))
	}
	if h := preadTestHook; h != nil {
		h()
	}
	if n > 0 {
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return 0, true, err
		}
	}
	if pool && atomic.LoadUint64(&st.gens[handle]) != gen {
		// Freed, reallocated, or rewritten between the lookup and the
		// pread: the copy may be torn. Retry over the socket.
		c.countGenMiss()
		return 0, false, nil
	}
	if c.fdOps != nil {
		c.fdOps.Inc()
	}
	return n, true, nil
}

// countGenMiss records one generation-check miss (when wired).
func (c *Client) countGenMiss() {
	if c.genMiss != nil {
		c.genMiss.Inc()
	}
}

// Free releases a chunk.
func (c *Client) Free(handle int) error {
	var head [5]byte
	head[0] = OpFree
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	c.mu.Lock()
	defer c.mu.Unlock()
	_, err := c.do(head[:], nil, nil)
	return err
}

// Stat returns (free chunks, total chunks, chunk size).
func (c *Client) Stat() (free, total, chunkSize int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.do([]byte{OpStat}, nil, c.short[:])
	if err != nil {
		return 0, 0, 0, err
	}
	if len(body) != 12 {
		return 0, 0, 0, fmt.Errorf("wire: bad stat response")
	}
	return int(binary.LittleEndian.Uint32(body[0:4])),
		int(binary.LittleEndian.Uint32(body[4:8])),
		int(binary.LittleEndian.Uint32(body[8:12])), nil
}

// Metrics fetches the daemon's metrics registry rendered in the text
// exposition format; a pre-metrics peer answers StatusBadRequest,
// surfaced as ErrBadRequest.
func (c *Client) Metrics() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	body, err := c.do([]byte{OpMetrics}, nil, nil)
	return string(body), err
}
