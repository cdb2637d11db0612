package wire

import (
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
			resp, _ := ts.dispatch(state)
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

// FuzzServerDispatch feeds the sponge server's dispatch arbitrary
// request bodies, as a peer past the hello could: it must never panic,
// always answer (inline or with a file region), and never answer with
// more than a frame holds. Every execution starts from the same state —
// one chunk live in the pool, one spilled, one pool slot free — so a
// finding replays from its input.
func FuzzServerDispatch(f *testing.F) {
	const chunk = 64
	srv, err := ServeOptions(sponge.NewPool(chunk, 2), "127.0.0.1:0",
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, req []byte) {
		if len(req) > srv.d.frameLimit {
			return // the connection reader drops such a frame unread
		}
		for i := 0; i < 3; i++ { // two fill the pool, the third spills
			if resp, _ := srv.dispatch(alloc); resp[0] != StatusOK {
				t.Fatalf("fixture alloc %d = status %d", i, resp[0])
			}
		}
		srv.dispatch(frame(OpFree, uint32(1)))
		resp, fr := srv.dispatch(req)
		switch {
		case fr.f != nil && 1+fr.n > int64(srv.d.frameLimit):
			t.Errorf("file response of %d bytes exceeds the frame limit", fr.n)
		case fr.f == nil && len(resp) == 0:
			t.Error("no response")
		case len(resp) > srv.d.frameLimit:
			t.Errorf("response of %d bytes exceeds the frame limit", len(resp))
		}
		srv.d.recycle(resp)
		for _, h := range []uint32{1, 0, spillH | 1, spillH} {
			srv.dispatch(frame(OpFree, h))
		}
		if free := srv.pool.Free(); free != 2 {
			t.Fatalf("%d pool chunks free after the reset, want 2", free)
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
			resp, fr := (&TrackerServer{t: tr}).dispatch(req)
			tr.Close()
			if fr.f != nil || len(resp) == 0 || len(resp) > handshakeLimit {
				t.Errorf("standby=%v: response of %d bytes (file=%v)", standby, len(resp), fr.f != nil)
			}
		}
	})
}
