package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

// The server receives an alloc_write's payload from the socket into the
// pool slab, under a pin, between two generation bumps. These tests
// misbehave on a raw connection — against a real Server, over both
// tiers — and then hold the pool to the state they found it in.

// settled hangs up the test's connection, waits for the server to be
// done with whatever was left on it, then asserts the bracket's
// invariants: wantFree chunks free, nothing pinned, and every free
// chunk's generation even (checked by allocating each and asking where
// it lives).
func settled(t *testing.T, srv *Server, conn net.Conn, wantFree int) {
	t.Helper()
	conn.Close()
	pool := srv.pool
	deadline := time.Now().Add(5 * time.Second)
	for srv.connsOpen.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the server never let go of the closed connection")
		}
		time.Sleep(time.Millisecond)
	}
	if st := pool.Stats(); st.FreeChunks != wantFree || st.Pinned != 0 {
		t.Fatalf("pool not restored: %d chunks free (want %d), %d pinned", st.FreeChunks, wantFree, st.Pinned)
	}
	probe := sponge.TaskID{Node: 99, PID: 99}
	for i := 0; i < wantFree; i++ {
		h, err := pool.Alloc(probe)
		if err != nil {
			t.Fatalf("probing free chunk %d of %d: %v", i, wantFree, err)
		}
		if _, _, _, gen, err := pool.Loc(h); err != nil || gen&1 == 1 {
			t.Errorf("chunk %d at rest: generation %d, err %v; want even", h, gen, err)
		}
	}
	if got := pool.FreeOwnedBy(probe); got != wantFree {
		t.Fatalf("probe freed %d chunks, want %d", got, wantFree)
	}
}

// exchange sends one request and reads its response off a raw
// connection.
func exchange(t *testing.T, conn net.Conn, body []byte) (status byte, payload []byte) {
	t.Helper()
	if err := writeTestFrame(conn, 1, body); err != nil {
		t.Fatal(err)
	}
	_, resp, err := readTestFrame(conn)
	if err != nil || len(resp) == 0 {
		t.Fatalf("reading a %d-byte response: %v", len(resp), err)
	}
	return resp[0], resp[1:]
}

// roundTrip proves a connection is still in step: a chunk goes in, comes
// back intact and is freed.
func roundTrip(t *testing.T, conn net.Conn, data []byte) {
	t.Helper()
	st, hb := exchange(t, conn, frame(OpAllocWrite, uint32(1), uint64(51), data))
	if st != StatusOK || len(hb) != 4 {
		t.Fatalf("alloc_write on a connection that should be in step = status %d, %d bytes", st, len(hb))
	}
	if st, got := exchange(t, conn, frame(OpRead, hb)); st != StatusOK || !bytes.Equal(got, data) {
		t.Fatalf("read back status %d, %d bytes; want the %d written", st, len(got), len(data))
	}
	if st, _ := exchange(t, conn, frame(OpFree, hb)); st != StatusOK {
		t.Fatalf("free = status %d", st)
	}
}

func TestStreamedAllocWrite(t *testing.T) {
	const chunk, chunks = 8 << 10, 3
	data := bytes.Repeat([]byte{0x5A}, chunk)
	alloc := frame(OpAllocWrite, uint32(1), uint64(51), data)
	half := v2frame(alloc)[:8+13+chunk/2] // full length declared, half the payload sent
	for _, tier := range []string{"tcp", "unix"} {
		serve := func(t *testing.T, opts Options) (*Server, net.Conn) {
			opts.LocalSocketDir = shortSockDir(t)
			srv := startServerOptions(t, chunk, chunks, opts)
			return srv, dialRaw(t, srv, tier)
		}
		t.Run(tier+"/disconnect-mid-payload", func(t *testing.T) {
			srv, conn := serve(t, Options{})
			if _, err := conn.Write(half); err != nil {
				t.Fatal(err)
			}
			settled(t, srv, conn, chunks)
		})
		t.Run(tier+"/stalled-sender-released-by-deadline", func(t *testing.T) {
			srv, conn := serve(t, Options{ReadTimeout: 100 * time.Millisecond})
			if _, err := conn.Write(half); err != nil {
				t.Fatal(err)
			}
			// The sender now sits on the rest. Its chunk is allocated and
			// pinned; the owner's garbage collection has to wait for it, and
			// the read deadline is what lets it go.
			for srv.pool.Stats().Pinned == 0 {
				time.Sleep(time.Millisecond)
			}
			start := time.Now()
			if got := srv.pool.FreeOwnedBy(sponge.TaskID{Node: 1, PID: 51}); got > 1 {
				t.Errorf("FreeOwnedBy freed %d chunks, want the stalled one at most", got)
			}
			if waited := time.Since(start); waited > 2*time.Second {
				t.Errorf("FreeOwnedBy waited %v on a stalled sender, want about the 100ms read deadline", waited)
			}
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Errorf("read on the stalled connection = %v, want EOF (dropped at the deadline)", err)
			}
			settled(t, srv, conn, chunks)
		})
		t.Run(tier+"/payload-past-chunk-size", func(t *testing.T) {
			// The frame limit leaves 51 bytes of slack past a chunk's worth
			// of alloc_write; a chunk leaves none.
			srv, conn := serve(t, Options{})
			for extra := 1; extra <= frameSlack-13; extra++ {
				big := frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk+extra))
				if st, _ := exchange(t, conn, big); st != StatusBadRequest {
					t.Fatalf("payload of chunk+%d bytes = status %d, want StatusBadRequest", extra, st)
				}
			}
			roundTrip(t, conn, data)
			settled(t, srv, conn, chunks)
		})
		t.Run(tier+"/zero-owner-then-good-request", func(t *testing.T) {
			srv, conn := serve(t, Options{})
			if st, _ := exchange(t, conn, frame(OpAllocWrite, uint32(0), uint64(0), data)); st != StatusBadRequest {
				t.Fatalf("zero owner = status %d, want StatusBadRequest", st)
			}
			roundTrip(t, conn, data) // the refused body was drained
			settled(t, srv, conn, chunks)
		})
		t.Run(tier+"/pool-full", func(t *testing.T) {
			srv, conn := serve(t, Options{})
			for i := 0; i < chunks; i++ {
				if st, _ := exchange(t, conn, alloc); st != StatusOK {
					t.Fatalf("alloc %d = status %d", i, st)
				}
			}
			if st, _ := exchange(t, conn, alloc); st != StatusNoFreeChunk {
				t.Fatalf("alloc past the pool = status %d, want StatusNoFreeChunk", st)
			}
			if st, _ := exchange(t, conn, frame(OpStat)); st != StatusOK {
				t.Fatalf("stat after the refusal = status %d: the refused body was not drained", st)
			}
			if got := srv.pool.FreeOwnedBy(sponge.TaskID{Node: 1, PID: 51}); got != chunks {
				t.Fatalf("freed %d chunks, want %d", got, chunks)
			}
			settled(t, srv, conn, chunks)
		})
		t.Run(tier+"/pool-full-spills", func(t *testing.T) {
			srv, conn := serve(t, Options{SpillDir: t.TempDir()})
			for i := 0; i < chunks; i++ {
				if st, _ := exchange(t, conn, alloc); st != StatusOK {
					t.Fatalf("alloc %d = status %d", i, st)
				}
			}
			st, hb := exchange(t, conn, alloc)
			if st != StatusOK || len(hb) != 4 || binary.LittleEndian.Uint32(hb)&SpillHandleBit == 0 {
				t.Fatalf("alloc past the pool = status %d handle %x, want a spill handle", st, hb)
			}
			if st, got := exchange(t, conn, frame(OpRead, hb)); st != StatusOK || !bytes.Equal(got, data) {
				t.Fatalf("spilled chunk read back status %d, %d bytes", st, len(got))
			}
			// A sender that dies on its way to the spill tier leaves no
			// record behind either.
			if _, err := conn.Write(half); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			for srv.connsOpen.Value() != 0 {
				time.Sleep(time.Millisecond)
			}
			if got := srv.pool.FreeOwnedBy(sponge.TaskID{Node: 1, PID: 51}); got != chunks {
				t.Fatalf("freed %d chunks, want %d", got, chunks)
			}
			settled(t, srv, conn, chunks)
			if live, _ := srv.spill.stats(); live != 1 {
				t.Errorf("%d spill records live, want the one whole chunk", live)
			}
		})
	}
}

// A pool closed under a connection mid-receive: Close waits for the
// fill, the sender is answered chunk-lost or dropped, nothing panics.
func TestStreamedAllocWriteAcrossPoolClose(t *testing.T) {
	const chunk = 8 << 10
	srv := startServerOptions(t, chunk, 2, Options{})
	conn := dialRawV2(t, srv.Addr())
	alloc := v2frame(frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk)))
	if _, err := conn.Write(alloc[:len(alloc)/2]); err != nil {
		t.Fatal(err)
	}
	for srv.pool.Stats().Pinned == 0 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		srv.pool.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Pool.Close returned while a receive held its chunk")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := conn.Write(alloc[len(alloc)/2:]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Pool.Close never returned after the receive finished")
	}
	// The chunk landed before the pool went away, so the sender hears OK;
	// the next one hears that the pool is gone.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.CopyN(io.Discard, conn, int64(binary.LittleEndian.Uint32(hdr[0:4]))); err != nil {
		t.Fatal(err)
	}
	if st, _ := exchange(t, conn, frame(OpAllocWrite, uint32(1), uint64(51), make([]byte, chunk))); st != StatusChunkLost {
		t.Errorf("alloc_write after Pool.Close = status %d, want StatusChunkLost", st)
	}
	if _, err := srv.pool.Alloc(sponge.TaskID{Node: 1, PID: 1}); !errors.Is(err, sponge.ErrChunkLost) {
		t.Errorf("Alloc after Close = %v", err)
	}
}
