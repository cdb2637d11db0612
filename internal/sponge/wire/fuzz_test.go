package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

// frame builds one request body: op, then the fields in order — uint32,
// uint64 and uint16 little-endian, byte slices and strings verbatim.
func frame(op byte, fields ...any) []byte {
	b := []byte{op}
	for _, f := range fields {
		switch v := f.(type) {
		case uint16:
			b = binary.LittleEndian.AppendUint16(b, v)
		case uint32:
			b = binary.LittleEndian.AppendUint32(b, v)
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		case []byte:
			b = append(b, v...)
		case string:
			b = append(b, v...)
		default:
			panic("frame: unsupported field type")
		}
	}
	return b
}

// v2frame wraps request bodies as the v2 frames a connection carries:
// length, request id, body.
func v2frame(bodies ...[]byte) []byte {
	var b []byte
	for i, body := range bodies {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
		b = binary.LittleEndian.AppendUint32(b, uint32(i+1))
		b = append(b, body...)
	}
	return b
}

// serveFrame serves the first frame of stream through serveRequest, the
// one-request entry point a connection's serve loop calls, with sc as
// the connection's scratch. A response that pins a chunk is returned
// still pinned; the caller finishes it with finishResponse, as respond
// would after writing.
func serveFrame(s *Server, sc *connScratch, stream []byte) (response, error) {
	_, resp, err := s.serveRequest(bufio.NewReader(bytes.NewReader(stream)), sc)
	return resp, err
}

// finishResponse gives back the pin a response holds, as Server.respond
// does once the bytes are written.
func finishResponse(r response) {
	if r.pool != nil {
		r.pool.Unpin(r.h)
	}
}

// FuzzServerDispatch feeds the sponge server arbitrary frame bytes on a
// reader, through the entry point its serve loop uses, as a peer
// past the hello could: it must never panic, must answer every frame it
// could read whole (inline, with a file region, or with a pinned chunk —
// exactly one) with no more than a frame holds, and must drop the rest
// with nothing left allocated or pinned. Every execution starts from the
// same state — one chunk live in the pool, one spilled, one pool slot
// free — so a finding replays from its input.
func FuzzServerDispatch(f *testing.F) {
	const chunk = 64
	pool := sponge.NewPool(chunk, 2)
	srv, err := Serve(pool, "127.0.0.1:0",
		Options{SpillDir: f.TempDir(), SpillChunks: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	sc := new(connScratch)
	const poolH, spillH = uint32(0), uint32(SpillHandleBit)
	alloc := frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk))

	for _, seed := range [][]byte{
		alloc, frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk+1)),
		frame(OpRead, poolH), frame(OpRead, spillH),
		frame(OpFree, poolH), frame(OpFree, spillH),
		frame(OpPoolLoc, poolH), frame(OpPoolLoc, spillH),
		frame(OpSpillLoc, poolH), frame(OpSpillLoc, spillH),
		// 5, 6, 7 and below them 9, 15, 16, 17: the retired codes, with the
		// bodies they once carried — unknown ops.
		frame(OpStat), frame(5, uint64(51)),
		frame(6, uint64(51)), frame(7, uint64(51)),
		frame(OpHello, []byte{ProtocolV2}), frame(OpPoolFD),
		frame(9), frame(OpMetrics), frame(17),
		frame(15, uint64(1), uint32(3), uint16(3), "a:1"),
		frame(16, uint64(1), uint16(0)),
		frame(OpAllocWrite, uint32(0), uint64(0), make([]byte, chunk)),
		frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk+frameSlack-13)),
	} {
		f.Add(v2frame(seed))
	}
	// An alloc whose sender died mid-payload: the header declares the full
	// chunk, half of it arrives.
	f.Add(v2frame(alloc)[:8+13+chunk/2])
	f.Add(v2frame(frame(12))) // retired too; last, so the seeds before it keep their numbers
	f.Fuzz(func(t *testing.T, stream []byte) {
		for i := 0; i < 3; i++ { // two fill the pool, the third spills
			resp, err := serveFrame(srv, sc, v2frame(alloc))
			if err != nil || resp.body[0] != StatusOK {
				t.Fatalf("fixture alloc %d = %v, %v", i, resp.body, err)
			}
			finishResponse(resp)
		}
		srv.dispatch(sc, frame(OpFree, uint32(1)))
		if resp, err := serveFrame(srv, sc, stream); err == nil {
			shapes := 0
			for _, has := range []bool{resp.body != nil, resp.f != nil, resp.pool != nil} {
				if has {
					shapes++
				}
			}
			// A chunk answer fits a chunk frame; an inline one fits what a
			// client accepts (Client.limit), which never drops below the
			// handshake bound — a metrics exposition outgrows a small chunk.
			limit := int64(srv.frameLimit)
			switch {
			case shapes != 1:
				t.Errorf("response has %d payload shapes, want exactly one", shapes)
			case resp.body != nil && len(resp.body) == 0:
				t.Error("empty inline response")
			case len(resp.body) > handshakeLimit || 1+resp.n > limit || 1+int64(len(resp.chunk)) > limit:
				t.Errorf("response of %d/%d/%d bytes (inline/file/chunk) exceeds the frame limit %d",
					len(resp.body), resp.n, len(resp.chunk), limit)
			}
			finishResponse(resp)
		}
		for _, h := range []uint32{1, 0, spillH | 1, spillH} {
			srv.dispatch(sc, frame(OpFree, h))
		}
		if st := pool.Stats(); st.FreeChunks != 2 || st.Pinned != 0 {
			t.Fatalf("after the reset %d pool chunks free and %d pinned, want 2 and 0", st.FreeChunks, st.Pinned)
		}
		if live, _ := srv.spill.stats(); live != 0 {
			t.Fatalf("%d spill records live after the reset", live)
		}
	})
}

// pipelinedOps decodes fuzz bytes into request bodies, two bytes a
// request: the first picks the op — alloc_write, read, free, pool_loc or
// one of the retired codes 5–7 — the second an alloc_write's payload
// length, or for the others a handle: one of the pool's four slots
// (live, freed or never allocated, as the stream so far left it), one
// past the pool, or one with the spill bit set. At most 64 requests, so
// the stream and its answers fit the socket buffers unread.
func pipelinedOps(stream []byte) [][]byte {
	ops := [...]byte{OpAllocWrite, OpRead, OpFree, OpPoolLoc, 5, 6, 7}
	handles := [...]uint32{0, 1, 2, 3, 9, SpillHandleBit}
	var bodies [][]byte
	for ; len(stream) >= 2 && len(bodies) < 64; stream = stream[2:] {
		op, arg := ops[int(stream[0])%len(ops)], int(stream[1])
		if op == OpAllocWrite {
			bodies = append(bodies, frame(op, uint32(1), uint64(51), make([]byte, arg%(pipelineChunk+1))))
		} else {
			bodies = append(bodies, frame(op, handles[arg%len(handles)]))
		}
	}
	return bodies
}

const pipelineChunk = 64

// FuzzPipelinedOps writes a whole sequence of requests to one connection
// before reading any response, so the server meets them back to back: a
// read after the free of its chunk, eight frees of one handle, a slot
// freed and reallocated under a loc. Every request must get
// exactly one response under its id — a retired code's a bad request —
// nothing may panic, and once the one owner's chunks are reclaimed the
// pool must be whole: every chunk free, none pinned, every generation
// even. Each execution gets its own server, so handles are handed out
// the same way every time and a finding replays from its input.
func FuzzPipelinedOps(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 8, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0}, // eight frees of one handle
		{0, 64, 1, 0, 2, 0, 1, 0},                              // read racing free
		{0, 5, 2, 0, 0, 7, 1, 0, 3, 0},                         // alloc, free, alloc of one slot
		{0, 1, 4, 0, 1, 0, 5, 0, 6, 0, 2, 0},                   // retired codes 5–7 mid-stream
		{1, 3, 2, 3, 3, 4, 1, 5, 2, 5, 3, 5},                   // never allocated, out of range, spill bit
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		// Over the unix socket: a closed connection leaves no port in
		// TIME_WAIT, so a long fuzz run does not eat the ephemeral range.
		srv := startServerOptions(t, pipelineChunk, 4, Options{LocalSocketDir: shortSockDir(t)})
		conn := dialRaw(t, srv, "unix")
		bodies := pipelinedOps(stream)
		if _, err := conn.Write(v2frame(bodies...)); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		answered := make([]bool, len(bodies))
		for range bodies {
			n, id, err := readFrameV2Header(br, srv.frameLimit)
			if err != nil {
				t.Fatalf("reading %d responses: %v", len(bodies), err)
			}
			body := make([]byte, n)
			if _, err := io.ReadFull(br, body); err != nil {
				t.Fatal(err)
			}
			i := int(id) - 1
			switch {
			case i < 0 || i >= len(bodies) || n == 0:
				t.Fatalf("response of %d bytes under id %d to %d requests", n, id, len(bodies))
			case answered[i]:
				t.Fatalf("request %d answered twice", id)
			case bodies[i][0] >= 5 && bodies[i][0] <= 7 && body[0] != StatusBadRequest:
				t.Errorf("retired code %d answered status %d, want StatusBadRequest", bodies[i][0], body[0])
			}
			answered[i] = true
		}
		srv.pool.FreeOwnedBy(sponge.TaskID{Node: 1, PID: 51})
		settled(t, srv, conn, 4)
	})
}

// respFrame builds one v2 response frame: length, request id, body.
func respFrame(id uint32, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, id)
	return append(b, body...)
}

// okBody is a StatusOK response body carrying n payload bytes.
func okBody(n int) []byte { return append([]byte{StatusOK}, make([]byte, n)...) }

// demuxChunk is the chunk size the scripted peer announces; demuxInto is
// the ReadInto caller's buffer, smaller than a chunk so a legal payload
// can overrun it.
const (
	demuxChunk = 64
	demuxInto  = 16
)

// runDemux puts a Client on an in-process pipe to a scripted peer. The
// peer answers the hello and swallows three requests, each issued once
// the one before is on the wire so the ids are fixed — ReadInto into a
// 16-byte buffer is request 1, Stat 2, AllocWrite 3 — then writes stream
// where response frames belong and hangs up. It returns the three
// callers' errors, and fails the test if any is still waiting a second
// later or the exchange allocated more than three full frames.
func runDemux(t *testing.T, stream []byte) [3]error {
	t.Helper()
	deadline := time.After(time.Second)
	cc, pc := net.Pipe()
	seen := make(chan struct{})
	go func() {
		defer pc.Close()
		br := bufio.NewReader(pc)
		id, _, err := readTestFrame(br)
		if err != nil {
			return
		}
		hello := make([]byte, helloRespLen)
		hello[0], hello[1] = StatusOK, ProtocolV2
		binary.LittleEndian.PutUint32(hello[2:6], demuxChunk)
		if writeTestFrame(pc, id, hello) != nil {
			return
		}
		for i := 0; i < 3; i++ {
			n, _, err := readFrameV2Header(br, handshakeLimit)
			if err != nil {
				return
			}
			br.Discard(n)
			seen <- struct{}{}
		}
		if len(stream) > 0 {
			pc.Write(stream)
		}
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := newClient(cc, "tcp", "pipe")
	if err != nil {
		t.Fatal(err)
	}
	var (
		into [demuxInto]byte
		errs [3]error
		done = make(chan struct{}, 3)
	)
	for i, call := range []func() error{
		func() error {
			n, err := c.ReadInto(0, into[:])
			if err == nil && n > len(into) {
				err = fmt.Errorf("ReadInto stored %d bytes in a %d-byte buffer", n, len(into))
				t.Error(err)
			}
			return err
		},
		func() error { _, _, _, err := c.Stat(); return err },
		func() error { _, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: 1}, into[:]); return err },
	} {
		go func() { errs[i] = call(); done <- struct{}{} }()
		select {
		case <-seen:
		case <-deadline:
			t.Fatalf("request %d never reached the peer", i+1)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("%d of 3 callers still waiting after 1 s", 3-i)
		}
	}
	c.Close()
	runtime.ReadMemStats(&after)
	if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(3*c.limit()+1<<20); grew > most {
		t.Fatalf("the exchange allocated %d bytes; three full frames and slack are %d", grew, most)
	}
	return errs
}

// FuzzClientDemux feeds the client's demux goroutine arbitrary bytes
// where response frames belong, with three callers waiting: it must not
// panic, must release every waiter with a reply or an error within a
// second, must never store past a caller's buffer, and must not size an
// allocation by a length above Client.limit().
func FuzzClientDemux(f *testing.F) {
	for _, seed := range [][]byte{
		slices.Concat(respFrame(1, okBody(demuxInto)), respFrame(2, okBody(12)), respFrame(3, okBody(4))), // all three answered
		respFrame(9, okBody(4)), // unknown id
		slices.Concat(respFrame(1, okBody(8)), respFrame(1, okBody(8))), // id answered twice
		respFrame(1, nil), // zero-length frame
		slices.Concat(respFrame(2, []byte{StatusOK}), respFrame(3, []byte{StatusOK})), // status only where a payload is due
		slices.Concat(respFrame(1, okBody(demuxChunk)), respFrame(2, okBody(12))),     // payload longer than into
		slices.Concat(respFrame(1, []byte{StatusChunkLost}), respFrame(3, []byte{StatusNoFreeChunk})),
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1<<31), 1), // length of 2³¹
		respFrame(1, okBody(8))[:5],    // truncated header
		respFrame(2, okBody(12))[:8+3], // truncated body
		{},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, stream []byte) { runDemux(t, stream) })
}

// TestDemuxShortBufferStaysInStep: a payload that overruns the caller's
// buffer is that caller's io.ErrShortBuffer and nobody else's problem —
// the frame is drained and the next response is read where it starts.
func TestDemuxShortBufferStaysInStep(t *testing.T) {
	errs := runDemux(t, slices.Concat(respFrame(1, okBody(demuxChunk)), respFrame(2, okBody(12)), respFrame(3, okBody(4))))
	if !errors.Is(errs[0], io.ErrShortBuffer) {
		t.Errorf("ReadInto = %v, want io.ErrShortBuffer", errs[0])
	}
	if errs[1] != nil || errs[2] != nil {
		t.Errorf("Stat = %v, AllocWrite = %v after a drained payload, want both answered", errs[1], errs[2])
	}
}
