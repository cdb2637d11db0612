package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

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

// serveFrame plays the connection reader and one worker over the first
// frame of stream: readRequest (which receives an alloc_write straight
// off the reader), then answer for a buffered request. A response that
// pins a chunk is returned still pinned; the caller finishes it with
// finishResponse, as respond would after writing.
func serveFrame(d *daemon, stream []byte) (response, error) {
	_, req, resp, err := d.readRequest(bufio.NewReader(bytes.NewReader(stream)))
	if err == nil && req != nil {
		resp = d.answer(req)
	}
	return resp, err
}

// finishResponse gives back what a response holds, as daemon.respond
// does once the bytes are written.
func finishResponse(d *daemon, r response) {
	if r.pool != nil {
		r.pool.Unpin(r.h)
	}
	d.recycle(r.body)
}

// FuzzServerDispatch feeds the sponge server arbitrary frame bytes on a
// reader, through the entry point its connection reader uses, as a peer
// past the hello could: it must never panic, must answer every frame it
// could read whole (inline, with a file region, or with a pinned chunk —
// exactly one) with no more than a frame holds, and must drop the rest
// with nothing left allocated or pinned. Every execution starts from the
// same state — one chunk live in the pool, one spilled, one pool slot
// free — so a finding replays from its input.
func FuzzServerDispatch(f *testing.F) {
	const chunk = 64
	pool := sponge.NewPool(chunk, 2)
	srv, err := ServeOptions(pool, "127.0.0.1:0",
		Options{SpillDir: f.TempDir(), SpillChunks: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	const poolH, spillH = uint32(0), uint32(SpillHandleBit)
	alloc := frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk))

	for _, seed := range [][]byte{
		alloc, frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk+1)),
		frame(OpRead, poolH), frame(OpRead, spillH),
		frame(OpFree, poolH), frame(OpFree, spillH),
		frame(OpPoolLoc, poolH), frame(OpPoolLoc, spillH),
		frame(OpSpillLoc, poolH), frame(OpSpillLoc, spillH),
		frame(OpStat), frame(OpPing, uint64(51)),
		frame(OpRegister, uint64(51)), frame(OpUnregister, uint64(51)),
		frame(OpHello, []byte{ProtocolV2}), frame(OpPoolFD),
		// The retired codes, with the bodies they once carried: unknown ops.
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
			resp, err := serveFrame(srv.d, v2frame(alloc))
			if err != nil || resp.body[0] != StatusOK {
				t.Fatalf("fixture alloc %d = %v, %v", i, resp.body, err)
			}
			finishResponse(srv.d, resp)
		}
		srv.dispatch(frame(OpFree, uint32(1)))
		if resp, err := serveFrame(srv.d, stream); err == nil {
			shapes := 0
			for _, has := range []bool{resp.body != nil, resp.f != nil, resp.pool != nil} {
				if has {
					shapes++
				}
			}
			// A chunk answer fits a chunk frame; an inline one fits what a
			// client accepts (Client.limit), which never drops below the
			// handshake bound — a metrics exposition outgrows a small chunk.
			limit := int64(srv.d.frameLimit)
			switch {
			case shapes != 1:
				t.Errorf("response has %d payload shapes, want exactly one", shapes)
			case resp.body != nil && len(resp.body) == 0:
				t.Error("empty inline response")
			case len(resp.body) > handshakeLimit || 1+resp.n > limit || 1+int64(len(resp.chunk)) > limit:
				t.Errorf("response of %d/%d/%d bytes (inline/file/chunk) exceeds the frame limit %d",
					len(resp.body), resp.n, len(resp.chunk), limit)
			}
			finishResponse(srv.d, resp)
		}
		for _, h := range []uint32{1, 0, spillH | 1, spillH} {
			srv.dispatch(frame(OpFree, h))
		}
		if st := pool.Stats(); st.FreeChunks != 2 || st.Pinned != 0 {
			t.Fatalf("after the reset %d pool chunks free and %d pinned, want 2 and 0", st.FreeChunks, st.Pinned)
		}
		if live, _ := srv.spill.stats(); live != 0 {
			t.Fatalf("%d spill records live after the reset", live)
		}
	})
}
