package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

// TestPipelinedBurstAnsweredInOrder: a connection that writes a burst of
// requests before reading any reply gets one reply per request, in
// request order, each under its request's ID. The stat replies show it:
// each counts exactly the frees ahead of it in the burst.
func TestPipelinedBurstAnsweredInOrder(t *testing.T) {
	const chunk, chunks, burst = 512, 64, 40
	srv := startServerOptions(t, chunk, chunks, Options{})
	owner := sponge.TaskID{Node: 1, PID: 51}
	handles := make([]uint32, (burst+2)/3)
	for k := range handles {
		h, err := srv.pool.Alloc(owner)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.pool.Write(h, bytes.Repeat([]byte{byte(k)}, chunk)); err != nil {
			t.Fatal(err)
		}
		handles[k] = uint32(h)
	}
	// Request i is a read, a stat or a free of chunk i/3, in turn.
	ops := [3]byte{OpRead, OpStat, OpFree}
	reqs := make([][]byte, burst)
	for i := range reqs {
		if op := ops[i%3]; op == OpStat {
			reqs[i] = frame(op)
		} else {
			reqs[i] = frame(op, handles[i/3])
		}
	}
	conn := dialRawV2(t, srv.Addr())
	if _, err := conn.Write(v2frame(reqs...)); err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		id, resp, err := readTestFrame(conn)
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, burst, err)
		}
		if id != uint32(i+1) || len(resp) == 0 || resp[0] != StatusOK {
			t.Fatalf("reply %d is %d bytes under id %d, want StatusOK under id %d", i+1, len(resp), id, i+1)
		}
		k := i / 3
		switch ops[i%3] {
		case OpRead:
			if !bytes.Equal(resp[1:], bytes.Repeat([]byte{byte(k)}, chunk)) {
				t.Errorf("read %d returned %d bytes that are not chunk %d's", id, len(resp)-1, k)
			}
		case OpStat:
			want := chunks - len(handles) + k // the frees of chunks 0..k-1 came first
			if len(resp) != 13 || int(binary.LittleEndian.Uint32(resp[1:5])) != want {
				t.Errorf("stat %d = %v, want %d chunks free", id, resp, want)
			}
		case OpFree:
			if len(resp) != 1 {
				t.Errorf("free %d answered %d bytes", id, len(resp))
			}
		}
	}
	settled(t, srv, conn, chunks-1) // the last chunk is read, never freed
}

// TestReadTimeoutDropsIdleConnection: a connection that sends nothing
// within the read deadline is dropped; an active connection is not,
// because the deadline re-arms per frame.
func TestReadTimeoutDropsIdleConnection(t *testing.T) {
	pool := sponge.NewPool(512, 4)
	srv, err := Serve(pool, "127.0.0.1:0", Options{ReadTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Active: keep a request going every ~20 ms for several deadline
	// windows.
	busy, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for i := 0; i < 10; i++ {
		if _, _, _, err := busy.Stat(); err != nil {
			t.Fatalf("active connection dropped on iteration %d: %v", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Idle: outlive the deadline, then try to use the connection.
	idle, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		time.Sleep(120 * time.Millisecond)
		if _, _, _, err := idle.Stat(); err != nil {
			return // dropped, as configured
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection survived the read deadline")
		}
	}
}

// TestWriteTimeoutReleasesStalledReader: a peer that asks for a chunk
// again and again and never reads a response leaves the connection stuck
// mid-send with the chunk pinned — once: the next read is not taken off
// the socket until this one's reply is out. The write deadline is what
// drops the connection and lets the pin go, so the owner can free the
// chunk.
func TestWriteTimeoutReleasesStalledReader(t *testing.T) {
	const chunk = 1 << 20
	srv := startServerOptions(t, chunk, 2, Options{WriteTimeout: 200 * time.Millisecond})
	owner := sponge.TaskID{Node: 1, PID: 51}
	h, err := srv.pool.Alloc(owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.pool.Write(h, bytes.Repeat([]byte{0x5A}, chunk)); err != nil {
		t.Fatal(err)
	}
	conn := dialRawV2(t, srv.Addr())
	reads := make([][]byte, 64)
	for i := range reads {
		reads[i] = frame(OpRead, uint32(h))
	}
	if _, err := conn.Write(v2frame(reads...)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	peak := 0
	for srv.connsOpen.Value() != 0 {
		pinned := srv.pool.Stats().Pinned
		peak = max(peak, pinned)
		if time.Since(start) > time.Second {
			t.Fatalf("connection still open %v after the stall; pinned = %d", time.Since(start), pinned)
		}
		time.Sleep(time.Millisecond)
	}
	if peak > 1 {
		t.Errorf("the stalled connection held %d chunks pinned at once, want at most 1", peak)
	}
	if st := srv.pool.Stats(); st.Pinned != 0 {
		t.Fatalf("%d chunks still pinned after the connection dropped", st.Pinned)
	}
	if err := srv.pool.TryFree(h); err != nil {
		t.Fatalf("freeing the chunk the stalled reader asked for: %v", err)
	}
}

// TestServerCloseIdempotent: closing a server twice (test cleanups and
// failure injection both do it) must be a no-op the second time.
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve(sponge.NewPool(512, 4), "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}

// flakyListener fails its first fails Accepts the way a process out of
// descriptors does, then accepts normally.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// serveFlaky runs srv's accept loop over a second TCP listener whose
// first fails Accepts report EMFILE, and returns its address.
func serveFlaky(t *testing.T, srv *Server, fails int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln}
	fl.fails.Store(fails)
	srv.lns = append(srv.lns, fl) // Close unblocks its Accept too
	srv.wg.Add(1)
	go srv.acceptLoop(fl, connTCP)
	return ln.Addr().String()
}

// TestAcceptRetriesTemporaryErrors: a burst of EMFILE must not end the
// listener. The loop used to return on the first one, leaving a server
// that kept its open connections and refused every new dial for good.
func TestAcceptRetriesTemporaryErrors(t *testing.T) {
	srv, _ := startServer(t, 1024, 4)
	addr := serveFlaky(t, srv, 2)
	dialed := make(chan *Client, 1)
	go func() {
		c, err := Dial(addr)
		if err != nil {
			t.Error(err)
		}
		dialed <- c
	}()
	var c *Client
	select {
	case c = <-dialed:
	case <-time.After(5 * time.Second):
		t.Fatal("dial never accepted after two temporary Accept errors")
	}
	if c == nil {
		return
	}
	defer c.Close()
	data := []byte("accepted after the burst")
	h, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: 1}, data)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := readChunk(c, h); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %q, %v", got, err)
	}
	if n := srv.acceptRetries.Value(); n != 2 {
		t.Errorf("spongewire_accept_retries_total = %d, want 2", n)
	}
}

// TestCloseAbandonsAcceptBackoff: Close must not wait out a back-off.
// Eight failures in a row put the loop in a 640 ms sleep.
func TestCloseAbandonsAcceptBackoff(t *testing.T) {
	srv, err := Serve(sponge.NewPool(512, 4), "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	serveFlaky(t, srv, 1<<30)
	for srv.acceptRetries.Value() < 8 {
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took > 300*time.Millisecond {
		t.Fatalf("Close took %v mid-back-off", took)
	}
}
