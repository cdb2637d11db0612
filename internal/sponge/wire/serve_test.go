package wire

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

// TestBurstPastWorkerPoolStillPipelines: a burst of concurrent requests
// larger than the connection's worker pool must still be served
// correctly — the bound is backpressure, not a correctness constraint.
func TestBurstPastWorkerPoolStillPipelines(t *testing.T) {
	pool := sponge.NewPool(512, 64)
	srv, err := Serve(pool, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const burst = connWorkers + 8
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := []byte{byte(i), byte(i + 1)}
			h, err := c.AllocWrite(sponge.TaskID{Node: 1, PID: int64(i + 1)}, data)
			if err != nil {
				errs <- err
				return
			}
			got, err := readChunk(c, h)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != 2 || got[0] != byte(i) {
				errs <- ErrBadRequest
				return
			}
			errs <- c.Free(h)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if pool.Free() != pool.Chunks() {
		t.Fatalf("pool leaked under a burst past the workers: %d/%d", pool.Free(), pool.Chunks())
	}
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
// again and again and never reads a response leaves every worker stuck
// mid-send with the chunk pinned. The write deadline is what drops the
// connection and lets the pins go, so the owner can free the chunk.
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
	for srv.connsOpen.Value() != 0 {
		if time.Since(start) > time.Second {
			t.Fatalf("connection still open %v after the stall; pinned = %d", time.Since(start), srv.pool.Stats().Pinned)
		}
		time.Sleep(time.Millisecond)
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
