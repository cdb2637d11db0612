package wire

import (
	"net"
	"testing"

	"spongefiles/internal/sponge"
)

// TestOpTable holds the server to its op table, code by code from 1 to
// three past opMax, over TCP and the unix socket. A code with an opNames
// entry gets a well-formed request where it is served — OpHello and
// OpPoolFD as the first frame of a fresh connection, the rest after the
// hello — and must be answered with something other than
// StatusBadRequest and counted under its own label. A blank or out-of-range code must be
// answered StatusBadRequest, counted as a bad request, and leave the
// connection in step. A new op with no request here fails the test, as
// does a retired one that is still answered.
func TestOpTable(t *testing.T) {
	srv := startServerOptions(t, 256, 4, Options{LocalSocketDir: shortSockDir(t)})
	owner := sponge.TaskID{Node: 1, PID: 51} // the owner frame() requests below name
	count := func(id string) int64 { return tierSample(t, srv.Metrics(), id) }
	badID := `spongewire_bad_requests_total{listen="` + srv.Addr() + `"}`
	_, _, fdErr := srv.pool.SegmentFiles()
	if fdErr == nil {
		srv.pool.ReleaseSegmentFiles()
	}

	// Below opMax: the three liveness ops, the TCP tracker's free-list
	// query and the spill file's own descriptor handshake.
	retired := map[int]bool{5: true, 6: true, 7: true, 9: true, 12: true}

	for _, tier := range []string{"tcp", "unix"} {
		conn := dialRaw(t, srv, tier)
		// live allocates a chunk for the requests that name one.
		live := func() []byte {
			st, h := exchange(t, conn, frame(OpAllocWrite, uint32(1), uint64(51), "x"))
			if st != StatusOK {
				t.Fatalf("%s: fixture alloc = status %d", tier, st)
			}
			return h
		}
		requests := map[byte]func() []byte{
			OpAllocWrite: func() []byte { return frame(OpAllocWrite, uint32(1), uint64(51), "x") },
			OpRead:       func() []byte { return frame(OpRead, live()) },
			OpFree:       func() []byte { return frame(OpFree, live()) },
			OpStat:       func() []byte { return frame(OpStat) },
			OpMetrics:    func() []byte { return frame(OpMetrics) },
			OpSpillLoc:   func() []byte { return frame(OpSpillLoc, live()) },
			OpPoolLoc:    func() []byte { return frame(OpPoolLoc, live()) },
		}
		for code := 1; code <= int(opMax)+3; code++ {
			srv.pool.FreeOwnedBy(owner) // the last code's fixture chunk
			op := byte(code)
			if code > int(opMax) || opNames[code] == "" {
				if !retired[code] && code <= int(opMax) {
					t.Fatalf("code %d has lost its opNames entry: only 5, 6, 7, 9 and 12 are retired below 15", code)
				}
				bad := count(badID)
				// A retired code is sent with the body it once carried.
				if st, _ := exchange(t, conn, frame(op, uint64(51))); st != StatusBadRequest {
					t.Errorf("%s: code %d, which names no op, answered status %d, want StatusBadRequest", tier, code, st)
				}
				if got := count(badID); got != bad+1 {
					t.Errorf("%s: code %d moved bad_requests %d -> %d, want +1", tier, code, bad, got)
				}
				roundTrip(t, conn, []byte("still in step"))
				continue
			}
			id := reqID(srv.Addr(), opNames[code])
			var (
				status byte
				before int64
			)
			switch op {
			case OpHello:
				before = count(id)
				raw := dialRaw(t, srv, tier) // the hello is how it dials
				raw.Close()
			case OpPoolFD:
				if tier != "unix" || !zeroCopyAvailable || fdErr != nil {
					continue // refused by design: nothing to pass, or no way to pass it
				}
				before = count(id)
				raw, err := net.Dial("unix", srv.LocalSocket())
				if err != nil {
					t.Fatal(err)
				}
				files, _, err := recvFilesOverUnix(raw.(*net.UnixConn))
				raw.Close()
				if err != nil {
					t.Errorf("unix: OpPoolFD handshake: %v", err)
					status = StatusBadRequest
				}
				for _, f := range files {
					f.Close()
				}
			default:
				build := requests[op]
				if build == nil {
					t.Fatalf("op %d (%s) has no well-formed request in this test", code, opNames[code])
				}
				req := build()
				before = count(id)
				status, _ = exchange(t, conn, req)
			}
			if status == StatusBadRequest {
				t.Errorf("%s: op %d (%s) answered StatusBadRequest to a well-formed request", tier, code, opNames[code])
			}
			if got := count(id); got != before+1 {
				t.Errorf("%s: op %d moved %s %d -> %d, want +1", tier, code, id, before, got)
			}
		}
		conn.Close()
	}
}
