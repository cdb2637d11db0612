// Package wire implements the sponge server's network protocol over real
// TCP: the interface a production deployment exposes so remote tasks can
// allocate, write, read and free chunks in a node's sponge memory and
// query free space (the paper's sponge server, §3.1.1, as an actual
// daemon rather than a simulated one; tasks are simulated processes, so
// task liveness, like the tracker, stays with the simulator).
//
// The same protocol runs over two transports. Every daemon listens on
// TCP; with Options.LocalSocketDir set it additionally listens on a
// per-node unix-domain socket (SocketPath derives the path from the TCP
// port), so co-located tasks — many map/reduce tasks per node is the
// paper's own layout — exchange chunks without the TCP stack. The
// framing is identical on both; clients pick the tier at dial time
// (Dial for TCP, DialLocal for the socket) and wire.Transport selects
// automatically for peers that resolve to the caller's own host,
// falling back to TCP when the socket is missing or stale.
//
// Every frame on every connection has one shape:
//
//	frame         := length(u32 LE, bytes after requestID) requestID(u32 LE) body
//	request  body := op(u8) payload
//	response body := status(u8) payload
//
// and every response echoes the ID of the request it answers. A client
// opens every connection with an OpHello (request ID 0) carrying the
// protocol version it speaks. The server answers StatusOK plus its
// version and chunk size; a peer that answers StatusBadRequest does not
// speak the version and the dial fails. The only other request a daemon
// serves before the hello is the descriptor handshake (OpPoolFD), on a
// unix connection of its own that carries that one exchange; it refuses
// anything else and drops the connection. A same-host client that has
// run the handshake holds every file the server keeps chunks in — the
// pool's memfd segments and the spill file — and reads a chunk by
// asking where it lives (OpPoolLoc, OpSpillLoc: one reply layout) and
// preading that file itself. After the hello the request ID multiplexes
// any number of concurrent requests over one connection: the client
// demultiplexes responses back to waiting callers by ID. The server
// serves a connection on one goroutine, reading each request and
// answering it before it reads the next, so it answers in request order;
// a client must not rely on that, only on the ID. Hot-path frames
// travel as vectored writes (net.Buffers) — header and chunk payload are
// never coalesced into one allocation.
// The server keeps no copy of a pool chunk beside the pool: it receives
// an OpAllocWrite payload from the socket into the chunk's slab and
// answers an OpRead from the slab, each under the pool's pin.
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
	"time"
)

// ProtocolV2 is the protocol version exchanged in the hello.
const ProtocolV2 = 2

// Op codes.
const (
	// OpAllocWrite allocates a chunk for a task and stores its data in
	// one exchange. Payload: owner node (u32), owner pid (u64), data.
	// Response payload: handle (u32).
	OpAllocWrite byte = iota + 1
	// OpRead fetches a chunk. Payload: handle (u32). Response: data.
	OpRead
	// OpFree releases a chunk. Payload: handle (u32).
	OpFree
	// OpStat asks for pool state. Response: free chunks (u32), total
	// chunks (u32), chunk size (u32).
	OpStat
	_ // 5, retired: task liveness ping — liveness is the simulator's
	_ // 6, retired: task register
	_ // 7, retired: task unregister
	// OpHello negotiates the protocol version; always a connection's
	// first request, sent with request ID 0. Payload: version (u8).
	// Response: version (u8), chunk size (u32) — the one pool field a
	// dialer needs to size its frame limit.
	OpHello
	_ // 9, retired: the TCP tracker's free-list query
	// OpMetrics asks a daemon for its metrics registry rendered in the
	// text exposition format. Response: UTF-8 text. Answered by the
	// daemon core itself; pre-metrics peers answer StatusBadRequest and
	// scrapers degrade gracefully.
	OpMetrics
	// OpSpillLoc asks where a disk-spilled chunk lives; OpPoolLoc asks
	// the same of a pool-resident one. The two codes are labels — the
	// per-op request counters tell spill preads from pool preads — over
	// one exchange, answered by one server function. Payload: handle
	// (u32). Response: file index (u32), byte offset within that file
	// (u64), length (u32), generation (u64). Files are numbered as the
	// OpPoolFD handshake passed them: the pool's segments from 0, then
	// the spill file. A client holding the descriptors preads the payload
	// itself — the bytes never cross the socket. A pool chunk's
	// generation is even at rest; the client accepts its pread only if
	// the shared generation table still shows that value afterwards, and
	// otherwise (chunk freed or rewritten mid-read) retries via OpRead.
	// A spilled chunk's generation is 0: its region is stable for the
	// record's lifetime and needs no re-check. A spill handle on a
	// server without a spill tier answers StatusBadRequest.
	OpSpillLoc
	_ // 12, retired: the spill file's own descriptor handshake
	OpPoolLoc
	// OpPoolFD asks the server to pass the files it keeps chunks in over
	// SCM_RIGHTS. Only answered as the first and only exchange of a
	// unix-socket connection (descriptors need a recvmsg boundary, which
	// the pipelined stream cannot give): the response frame is StatusOK
	// plus the 16-byte fdGeom — segment-chunk capacity, chunk count,
	// chunk size, flags (all u32) — and rides one sendmsg with the
	// descriptors as ancillary data. With fdHasPool the generation table
	// comes first, then every segment in index order; with fdHasSpill
	// the spill file comes last. TCP connections, non-linux builds, and
	// servers with nothing to pass (a heap-backed or over-large pool and
	// no spill tier) answer a plain StatusBadRequest frame; callers
	// degrade to OpRead. Either way the server then closes the
	// connection.
	OpPoolFD
)

// opMax is the highest op code, sizing per-op tables. Codes 15–17 are
// retired like 9 (the TCP tracker's other exchanges): past opMax, so
// unknown ops, and not to be handed out again.
const opMax = OpPoolFD

// fdGeom is the layout that rides the OpPoolFD handshake: the receiver
// needs it to check the passed files against, to size its view of the
// generation table, and to know which file index means the spill file
// (the pool's segment count, whether or not the segments were passed).
type fdGeom struct {
	segChunks int // chunk capacity of one segment slab
	chunks    int // total chunk count
	chunkSize int // real bytes per chunk
	flags     int // fdHasPool | fdHasSpill
}

// fdGeom flags: which files the handshake carries.
const (
	fdHasPool  = 1 << iota // generation table, then every pool segment
	fdHasSpill             // the spill file, last
)

// scmMaxFD is the kernel's per-message SCM_RIGHTS descriptor cap; a
// pool whose generation table and segments would not fit beside the
// spill file is not passed.
const scmMaxFD = 253

// segments is the pool's segment count.
func (g fdGeom) segments() int { return (g.chunks + g.segChunks - 1) / g.segChunks }

// SpillHandleBit distinguishes disk-spilled chunk handles from pool
// handles in the shared u32 handle space: pool handles index chunk
// slots (far below 2^31), spill handles index the server's spill-file
// record table with this bit set.
const SpillHandleBit = 1 << 31

// Status codes.
const (
	StatusOK byte = iota
	StatusNoFreeChunk
	StatusQuotaExceeded
	StatusBadRequest
	StatusChunkLost
)

// Errors mapped from response statuses.
var (
	ErrNoFreeChunk   = errors.New("wire: no free chunk")
	ErrQuotaExceeded = errors.New("wire: quota exceeded")
	ErrChunkLost     = errors.New("wire: chunk lost")
	ErrBadRequest    = errors.New("wire: bad request")
)

// frameSlack bounds a frame to chunk size plus protocol overhead;
// connections sending more are dropped.
const frameSlack = 64

// handshakeLimit bounds frames read before the peer's chunk size is
// known (a hello response is a few bytes).
const handshakeLimit = 1 << 20

// helloRespLen is the body of a successful hello response: status,
// version, chunk size (u32).
const helloRespLen = 6

// hdrPool recycles the small scratch buffers that carry a client's frame
// headers (and request op headers) into vectored writes. A client's
// callers are concurrent, so each send takes its own; the server builds
// its headers in the connection's scratch.
var hdrPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// directWriteMin is the payload size at which a frame bypasses the
// batching writer and goes to the socket as a vectored write: copying
// that much into the write buffer would cost more than the syscall it
// saves.
const directWriteMin = 4 << 10

// frameWriter serializes frame writes to one connection and batches
// small frames group-commit style: while other writers are queued on
// the lock the bytes stay buffered, and whoever leaves the queue last
// flushes. Large payloads skip the buffer entirely (vectored write), so
// chunk data is never copied. The zero value is not usable; call
// newFrameWriter.
type frameWriter struct {
	conn net.Conn
	bw   *bufio.Writer
	wto  time.Duration // per-write deadline; 0 = none
	mu   sync.Mutex
	q    atomic.Int32 // writers queued or writing
	err  error        // sticky; guarded by mu

	// zc drives sendfile for file-region payloads; built lazily on the
	// first such payload, dropped back to nil (with zcOff) when the
	// connection turns out not to support it. Guarded by mu.
	zc    *zeroCopier
	zcOff bool

	// vec is the reusable scratch vector for direct vectored writes;
	// guarded by mu.
	vec net.Buffers
}

func newFrameWriter(conn net.Conn, writeTimeout time.Duration) *frameWriter {
	return &frameWriter{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10), wto: writeTimeout}
}

// writeFrame queues one frame (pre-built header plus optional payload)
// and flushes unless another writer is about to enter. Errors are
// sticky: once the connection fails every later write reports it.
func (w *frameWriter) writeFrame(hdr, payload []byte) error {
	w.q.Add(1)
	w.mu.Lock()
	err := w.err
	if err == nil && w.wto > 0 {
		err = w.conn.SetWriteDeadline(time.Now().Add(w.wto))
	}
	if err == nil {
		if len(payload) >= directWriteMin {
			// Flush whatever small frames are pending, then hand the
			// payload straight to the kernel as a vectored write.
			if err = w.bw.Flush(); err == nil {
				err = w.writeFrameVec(hdr, payload)
			}
		} else {
			_, err = w.bw.Write(hdr)
			if err == nil && len(payload) > 0 {
				_, err = w.bw.Write(payload)
			}
		}
	}
	if w.q.Add(-1) == 0 && err == nil && w.bw.Buffered() > 0 {
		err = w.bw.Flush()
	}
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	return err
}

// copyBufPool recycles the scratch buffers the buffered fallback uses
// when a file-region payload cannot go out via sendfile.
var copyBufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// writeFrameFile queues one frame whose payload lives in a file region:
// the pre-built header (frame header plus status byte) goes through the
// write buffer, which is then flushed so the payload can follow via
// sendfile — or, when the connection refuses zero-copy (and always off
// linux), via a pooled pread+write loop. Returns the payload bytes that
// moved zero-copy (0 on the buffered path).
func (w *frameWriter) writeFrameFile(hdr []byte, f *os.File, off, n int64) (int64, error) {
	w.q.Add(1)
	w.mu.Lock()
	err := w.err
	if err == nil && w.wto > 0 {
		err = w.conn.SetWriteDeadline(time.Now().Add(w.wto))
	}
	if err == nil {
		_, err = w.bw.Write(hdr)
	}
	if err == nil {
		// The payload bypasses the buffer, so everything queued ahead of
		// it must hit the socket first.
		err = w.bw.Flush()
	}
	var zc int64
	if err == nil {
		if !w.zcOff {
			if w.zc == nil {
				if w.zc = newZeroCopier(w.conn); w.zc == nil {
					w.zcOff = true
				}
			}
			if w.zc != nil {
				zc, err = w.zc.sendFile(f, off, n)
				if err == errZCUnsupported {
					// First sendfile on this connection refused with no
					// bytes moved: remember and fall back for good.
					err = nil
					w.zc = nil
					w.zcOff = true
				}
			}
		}
		if err == nil && zc < n {
			err = copyFileRange(w.conn, f, off+zc, n-zc)
		}
	}
	w.q.Add(-1)
	if err != nil && w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	return zc, err
}

// copyFileRange is the portable file-payload path: pread into a pooled
// scratch buffer, write to the connection, repeat.
func copyFileRange(dst io.Writer, f *os.File, off, n int64) error {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	buf := *bp
	for n > 0 {
		c := int64(len(buf))
		if c > n {
			c = n
		}
		if _, err := f.ReadAt(buf[:c], off); err != nil {
			return err
		}
		if _, err := dst.Write(buf[:c]); err != nil {
			return err
		}
		off += c
		n -= c
	}
	return nil
}

// writeFrameVec sends one frame as a vectored write: hdr already holds
// the frame header plus any op header; payload rides behind it without
// being copied into a joint buffer. Runs under w.mu (the caller holds
// it), so the scratch vector can live on the frameWriter — a net.Buffers
// literal per frame would put two slice headers on the heap every call.
func (w *frameWriter) writeFrameVec(hdr, payload []byte) error {
	if len(payload) == 0 {
		_, err := w.conn.Write(hdr)
		return err
	}
	if cap(w.vec) < 2 {
		w.vec = make(net.Buffers, 0, 2)
	}
	w.vec = append(w.vec[:0], hdr, payload)
	// WriteTo consumes the vector through its pointer receiver — it
	// advances w.vec past its backing array. Keep a copy of the original
	// header so the backing survives for the next frame, and drop the
	// payload references so the pool buffer isn't pinned.
	save := w.vec
	_, err := w.vec.WriteTo(w.conn)
	save[0], save[1] = nil, nil
	w.vec = save[:0]
	return err
}

// readFrameV2Header reads a frame header, returning the body length
// and request ID. The caller reads the body (it may want to place it in
// a pooled or caller-supplied buffer). Peek/Discard parse the header in
// place inside the bufio buffer — a local [8]byte would escape through
// the io.ReadFull interface call and cost an allocation per frame.
func readFrameV2Header(r *bufio.Reader, limit int) (n int, id uint32, err error) {
	hdr, err := r.Peek(8)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	n = int(binary.LittleEndian.Uint32(hdr[0:4]))
	id = binary.LittleEndian.Uint32(hdr[4:8])
	r.Discard(8)
	if n > limit {
		return 0, 0, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, limit)
	}
	return n, id, nil
}

func statusErr(status byte) error {
	switch status {
	case StatusOK:
		return nil
	case StatusNoFreeChunk:
		return ErrNoFreeChunk
	case StatusQuotaExceeded:
		return ErrQuotaExceeded
	case StatusChunkLost:
		return ErrChunkLost
	default:
		return ErrBadRequest
	}
}
