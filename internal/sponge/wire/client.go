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
// use. The connection is pipelined: any number of requests may be in
// flight at once, a demux goroutine routes responses back to their
// callers by request ID, and chunk payloads ride vectored writes with
// no coalescing copy.
type Client struct {
	conn      net.Conn
	br        *bufio.Reader
	fw        *frameWriter
	chunkSize int
	network   string // "tcp" or "unix"
	addr      string // dial address (socket path for "unix")

	// Pipelining state.
	nextID  atomic.Uint32
	pmu     sync.Mutex
	pending map[uint32]*wireCall
	cerr    error // sticky transport error; guarded by pmu
	done    chan struct{}
	// short is the demux goroutine's landing buffer for a short reply
	// body, copied from here into the reply value: reading into the
	// value itself would hand the reader a pointer into it and move it
	// to the heap, one allocation per response.
	short [shortReply]byte

	// fds is the server's passed files once FetchPoolFDs has run the
	// descriptor handshake; chunks living in them are then pread directly.
	fds atomic.Pointer[fdState]

	// fdOps and genMiss, when non-nil, count descriptor preads and
	// generation-check misses; wired by the transport so the series land
	// beside its tier counters.
	fdOps   *obs.Counter
	genMiss *obs.Counter
}

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

// wireCall is one in-flight v2 request awaiting its response. Calls are
// pooled: each sees exactly one send (from demux or fail) and one
// receive (its caller), so the channel is reusable.
type wireCall struct {
	into []byte // optional destination for the response payload
	ch   chan wireReply
}

// callPool recycles wireCalls so the steady-state request path does not
// allocate a call record and channel per exchange.
var callPool = sync.Pool{New: func() any { return &wireCall{ch: make(chan wireReply, 1)} }}

// shortReply bounds a reply body carried inline in its wireReply: the
// alloc-write handle (4 bytes) and the stat triple (12) travel with no
// allocation.
const shortReply = 16

// wireReply carries a decoded response (or transport error) to a caller.
// Of a payload after the status byte, one of three holds it: the
// caller's into buffer, the first n bytes of short, or body.
type wireReply struct {
	status byte
	body   []byte // a payload longer than shortReply
	short  [shortReply]byte
	n      int // bytes stored into the caller's buffer or short
	err    error
}

// payload returns the reply's body when it came without a destination
// buffer.
func (r *wireReply) payload() []byte {
	if r.body != nil {
		return r.body
	}
	return r.short[:r.n]
}

// Dial connects to a sponge server over TCP, negotiates the protocol
// version, and learns the server's chunk size. A client that cannot
// learn the chunk size would mis-size its frame limit and reject valid
// responses, so any failure here is returned rather than papered over.
func Dial(addr string) (*Client, error) { return dialNet("tcp", addr) }

// DialLocal connects to a same-host sponge server over its unix-domain
// socket (see Options.LocalSocketDir and SocketPath). The protocol is
// identical to TCP — framing, pipelining, every op — the connection
// just skips the TCP stack. Additionally, a local client can call
// FetchPoolFDs to pread chunks directly.
func DialLocal(socketPath string) (*Client, error) { return dialNet("unix", socketPath) }

func dialNet(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, network, addr)
}

// newClient runs the hello over a fresh connection and starts its demux.
func newClient(conn net.Conn, network, addr string) (*Client, error) {
	c := &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 8<<10),
		fw:      newFrameWriter(conn, 0),
		network: network,
		addr:    addr,
		pending: make(map[uint32]*wireCall),
		done:    make(chan struct{}),
	}
	hello, err := c.hello()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	// The hello reply carries the chunk size; from here on the
	// connection is pipelined.
	c.chunkSize = int(binary.LittleEndian.Uint32(hello[2:6]))
	go c.demux()
	return c, nil
}

// hello performs the version exchange and returns the response body. A
// peer that refuses it does not speak this version, and the error says
// so.
func (c *Client) hello() ([]byte, error) {
	if err := c.send(0, []byte{OpHello, ProtocolV2}, nil); err != nil {
		return nil, err
	}
	n, id, err := readFrameV2Header(c.br, handshakeLimit)
	if err != nil {
		return nil, err
	}
	resp := make([]byte, n)
	if _, err := io.ReadFull(c.br, resp); err != nil {
		return nil, err
	}
	switch {
	case id != 0: // not an answer to the hello
	case len(resp) == helloRespLen && resp[0] == StatusOK && resp[1] >= ProtocolV2:
		return resp, nil
	case len(resp) >= 1 && resp[0] == StatusBadRequest:
		return nil, fmt.Errorf("wire: peer refused the protocol v%d hello: %w", ProtocolV2, ErrBadRequest)
	}
	return nil, fmt.Errorf("wire: malformed hello response (%d bytes)", len(resp))
}

// ChunkSize reports the server's chunk size learned at dial time.
func (c *Client) ChunkSize() int { return c.chunkSize }

// Network reports the transport tier this client dialed: "tcp" or
// "unix".
func (c *Client) Network() string { return c.network }

// Close closes the connection (and any passed descriptors) and waits
// for the demux goroutine to fail any in-flight requests and exit.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	if st := c.fds.Swap(nil); st != nil {
		st.release()
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
// descriptors must land exactly on a recvmsg boundary, which the
// pipelined main connection cannot guarantee.
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
	if old := c.fds.Swap(st); old != nil {
		old.release()
	}
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

// fail poisons the connection: the first error sticks, every in-flight
// and future request gets it, and the socket is closed.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	if c.cerr == nil {
		c.cerr = err
	}
	err = c.cerr
	calls := c.pending
	c.pending = make(map[uint32]*wireCall)
	c.pmu.Unlock()
	c.conn.Close()
	for _, call := range calls {
		call.ch <- wireReply{err: err}
	}
}

// demux routes v2 responses to their waiting callers by request ID.
// Responses whose caller supplied a destination buffer are decoded
// straight off the socket into it; a short one rides inline in the
// reply; a longer one gets an exact-size allocation.
func (c *Client) demux() {
	defer close(c.done)
	for {
		n, id, err := readFrameV2Header(c.br, c.limit())
		if err != nil {
			c.fail(err)
			return
		}
		if n < 1 {
			c.fail(fmt.Errorf("wire: empty response frame"))
			return
		}
		status, err := c.br.ReadByte()
		if err != nil {
			c.fail(err)
			return
		}
		rest := n - 1
		c.pmu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.pmu.Unlock()
		if call == nil {
			c.fail(fmt.Errorf("wire: response for unknown request %d", id))
			return
		}
		// From here on the call is out of the pending map, so fail()
		// cannot see it: any transport error must be delivered to this
		// caller directly as well.
		rep := wireReply{status: status}
		if call.into != nil && status == StatusOK {
			if rest > len(call.into) {
				// Caller's buffer is too small: the connection is still
				// consistent, so drain the payload and report only to
				// this caller.
				if _, err := io.CopyN(io.Discard, c.br, int64(rest)); err != nil {
					c.fail(err)
					call.ch <- wireReply{err: err}
					return
				}
				rep.err = fmt.Errorf("wire: %w: response is %d bytes, buffer holds %d",
					io.ErrShortBuffer, rest, len(call.into))
			} else if _, err := io.ReadFull(c.br, call.into[:rest]); err != nil {
				c.fail(err)
				call.ch <- wireReply{err: err}
				return
			} else {
				rep.n = rest
			}
		} else {
			dst := c.short[:0]
			if rest > shortReply {
				dst = make([]byte, rest)
			}
			if _, err := io.ReadFull(c.br, dst[:rest]); err != nil {
				c.fail(err)
				call.ch <- wireReply{err: err}
				return
			}
			if rest > shortReply {
				rep.body = dst
			} else {
				rep.n = copy(rep.short[:], dst[:rest])
			}
		}
		call.ch <- rep
	}
}

// send writes one v2 request frame (header + op header + payload)
// through the batching writer: small frames coalesce with concurrent
// senders' frames into one flush, chunk payloads go to the socket as a
// vectored write without being copied.
func (c *Client) send(id uint32, head, payload []byte) error {
	hp := hdrPool.Get().(*[]byte)
	hdr := append((*hp)[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(head)+len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], id)
	hdr = append(hdr, head...)
	err := c.fw.writeFrame(hdr, payload)
	*hp = hdr[:0]
	hdrPool.Put(hp)
	return err
}

// do performs one request/response exchange. head is the op byte plus
// fixed fields, payload the bulk data (may be nil), into an optional
// destination for the response payload.
func (c *Client) do(head, payload, into []byte) (wireReply, error) {
	call := callPool.Get().(*wireCall)
	call.into = into
	id := c.nextID.Add(1)
	c.pmu.Lock()
	if c.cerr != nil {
		err := c.cerr
		c.pmu.Unlock()
		call.into = nil
		callPool.Put(call)
		return wireReply{}, err
	}
	c.pending[id] = call
	c.pmu.Unlock()
	if err := c.send(id, head, payload); err != nil {
		c.fail(err) // delivers the error to every pending call, ours included
	}
	rep := <-call.ch
	call.into = nil
	callPool.Put(call)
	if rep.err != nil {
		return wireReply{}, rep.err
	}
	if err := statusErr(rep.status); err != nil {
		return wireReply{}, err
	}
	return rep, nil
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
	rep, err := c.do(head[:], data, nil)
	if err != nil {
		return 0, err
	}
	body := rep.payload()
	if len(body) != 4 {
		return 0, fmt.Errorf("wire: bad alloc response")
	}
	return int(binary.LittleEndian.Uint32(body)), nil
}

// locBufPool recycles the 24-byte destination buffers for the loc
// exchange on the pread fast path.
var locBufPool = sync.Pool{New: func() any { b := make([]byte, 24); return &b }}

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
	if st := c.fds.Load(); st != nil {
		if n, ok, err := c.preadLoc(st, handle, buf); ok {
			return n, err
		}
	}
	var head [5]byte
	head[0] = OpRead
	binary.LittleEndian.PutUint32(head[1:], uint32(handle))
	rep, err := c.do(head[:], nil, buf)
	if err != nil {
		return 0, err
	}
	return rep.n, nil
}

// preadLoc is the descriptor fast path: ask where the chunk lives, pread
// that file, and for a pool chunk re-check the shared generation table
// (a spilled chunk's region is stable for its lifetime). ok=false (with
// no error) sends the caller to the OpRead fallback: the chunk's file
// was not passed, or the chunk moved under us — a write was in progress
// (odd generation) or the generation changed between the lookup and the
// pread.
func (c *Client) preadLoc(st *fdState, handle int, buf []byte) (n int, ok bool, err error) {
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
	bp := locBufPool.Get().(*[]byte)
	rep, err := c.do(head[:], nil, *bp)
	if err != nil || rep.n != 24 {
		locBufPool.Put(bp)
		if err == nil {
			err = fmt.Errorf("wire: bad loc response")
		}
		return 0, true, err
	}
	f := st.file(int(binary.LittleEndian.Uint32((*bp)[0:4])))
	off := int64(binary.LittleEndian.Uint64((*bp)[4:12]))
	n = int(binary.LittleEndian.Uint32((*bp)[12:16]))
	gen := binary.LittleEndian.Uint64((*bp)[16:24])
	locBufPool.Put(bp)
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
	_, err := c.do(head[:], nil, nil)
	return err
}

// Stat returns (free chunks, total chunks, chunk size).
func (c *Client) Stat() (free, total, chunkSize int, err error) {
	rep, err := c.do([]byte{OpStat}, nil, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	body := rep.payload()
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
	rep, err := c.do([]byte{OpMetrics}, nil, nil)
	if err != nil {
		return "", err
	}
	return string(rep.payload()), nil
}
