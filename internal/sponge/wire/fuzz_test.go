package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
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

// A count read off the wire must not size an allocation beyond what the
// rest of the frame could hold: a maximal count over an empty payload is
// refused, and refusing it costs no more than the error.
func TestUntrustedCountsDoNotSizeAllocations(t *testing.T) {
	tr := NewTrackerOptions(nil, TrackerOptions{Standby: true, Interval: time.Hour})
	defer tr.Close()
	ts := &TrackerServer{t: tr}
	state := frame(OpTrackerState, uint64(1), uint16(0xFFFF))
	for _, tc := range []struct {
		name    string
		refused func() bool
	}{
		{"OpTrackerState dispatch", func() bool {
			resp := ts.dispatch(state)
			return len(resp) == 1 && resp[0] == StatusBadRequest
		}},
		{"OpFreeList decode", func() bool {
			_, err := decodeFreeList([]byte{0xFF, 0xFF})
			return err != nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if !tc.refused() {
					t.Fatal("a count of 65535 over an empty payload was not refused")
				}
			}
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1<<10 {
				t.Errorf("refusing the frame allocates %d bytes, want a bounded error, not count-sized storage", per)
			}
		})
	}
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
		frame(OpFreeList), frame(OpMetrics), frame(OpTrackerInfo),
		frame(OpFreeDelta, uint64(1), uint32(3), uint16(3), "a:1"),
		frame(OpTrackerState, uint64(1), uint16(0)),
		frame(OpAllocWrite, uint32(0), uint64(0), make([]byte, chunk)),
		frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk+frameSlack-13)),
	} {
		f.Add(v2frame(seed))
	}
	// An alloc whose sender died mid-payload: the header declares the full
	// chunk, half of it arrives.
	f.Add(v2frame(alloc)[:8+13+chunk/2])
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

// FuzzTrackerDispatch does the same for the tracker's dispatch, against
// a leader (which applies deltas) and a standby (which applies handed-
// off state), both fresh each execution.
func FuzzTrackerDispatch(f *testing.F) {
	for _, seed := range [][]byte{
		frame(OpStat), frame(OpFreeList), frame(OpTrackerInfo),
		frame(OpFreeDelta, uint64(1), uint32(3), uint16(3), "a:1"),
		frame(OpTrackerState, uint64(1), uint16(0)),
		frame(OpTrackerState, uint64(2), uint16(2),
			uint32(5), uint64(9), uint16(3), "a:1",
			uint32(0), uint64(1), uint16(3), "b:2"),
		frame(OpRead, uint32(0)), frame(OpMetrics),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		if len(req) > handshakeLimit {
			return // the connection reader drops such a frame unread
		}
		for _, standby := range []bool{false, true} {
			tr := NewTrackerOptions(nil, TrackerOptions{Standby: standby, Interval: time.Hour})
			resp := (&TrackerServer{t: tr}).dispatch(req)
			tr.Close()
			if len(resp) == 0 || len(resp) > handshakeLimit {
				t.Errorf("standby=%v: response of %d bytes", standby, len(resp))
			}
		}
	})
}
