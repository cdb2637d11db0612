package wire

import (
	"sync"
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

// TestInflightOneStillPipelines: a worker pool bounded to a single slot
// must still serve a burst of concurrent requests correctly — the bound
// is backpressure, not a correctness constraint.
func TestInflightOneStillPipelines(t *testing.T) {
	pool := sponge.NewPool(512, 64)
	srv, err := ServeOptions(pool, "127.0.0.1:0", Options{Inflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const burst = 24
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
			got, err := c.Read(h)
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
		t.Fatalf("pool leaked under inflight=1: %d/%d", pool.Free(), pool.Chunks())
	}
}

// TestReadTimeoutDropsIdleConnection: a connection that sends nothing
// within the read deadline is dropped; an active connection is not,
// because the deadline re-arms per frame.
func TestReadTimeoutDropsIdleConnection(t *testing.T) {
	pool := sponge.NewPool(512, 4)
	srv, err := ServeOptions(pool, "127.0.0.1:0", Options{ReadTimeout: 80 * time.Millisecond})
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

// TestTrackerServesFreeListOverBothFramings: the tracker's TCP face
// answers the v1-framed hello like a sponge server, then OpFreeList
// over the pipelined v2 connection, and OpStat reports the aggregate
// free count.
func TestTrackerServesFreeListOverBothFramings(t *testing.T) {
	poolA := sponge.NewPool(512, 8)
	poolB := sponge.NewPool(512, 8)
	srvA, err := Serve(poolA, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB, err := Serve(poolB, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	// Distinguish the pools: B gives up three chunks.
	direct, err := Dial(srvB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := direct.AllocWrite(sponge.TaskID{Node: 9, PID: 9}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	direct.Close()

	tr := NewTracker([]string{srvA.Addr(), srvB.Addr()}, time.Hour)
	defer tr.Close()
	ts, err := tr.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()

	check := func(name string, c *Client) {
		t.Helper()
		entries, err := c.FreeList()
		if err != nil {
			t.Fatalf("%s FreeList: %v", name, err)
		}
		if len(entries) != 2 {
			t.Fatalf("%s FreeList returned %d entries, want 2", name, len(entries))
		}
		if entries[0].Key != srvA.Addr() || entries[0].Free != 8 {
			t.Fatalf("%s first entry = %+v, want %s with 8 free", name, entries[0], srvA.Addr())
		}
		if entries[1].Key != srvB.Addr() || entries[1].Free != 5 {
			t.Fatalf("%s second entry = %+v, want %s with 5 free", name, entries[1], srvB.Addr())
		}
		free, total, size, err := c.Stat()
		if err != nil {
			t.Fatalf("%s Stat: %v", name, err)
		}
		if free != 13 || total != 0 || size != 0 {
			t.Fatalf("%s aggregate stat = (%d, %d, %d), want (13, 0, 0)", name, free, total, size)
		}
	}

	v2, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.Version() != ProtocolV2 {
		t.Fatalf("tracker dial negotiated v%d, want v2", v2.Version())
	}
	check("v2", v2)
}

// TestFreeListAgainstPoolServerDegrades: a sponge server (which doesn't
// speak OpFreeList) answers with its unknown-op verdict, so a caller
// probing an old peer gets a clean ErrBadRequest rather than a broken
// connection.
func TestFreeListAgainstPoolServerDegrades(t *testing.T) {
	pool := sponge.NewPool(512, 4)
	srv, err := Serve(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.FreeList(); err != ErrBadRequest {
		t.Fatalf("FreeList against a pool server = %v, want ErrBadRequest", err)
	}
	// The connection survives the refused op.
	if _, _, _, err := c.Stat(); err != nil {
		t.Fatalf("connection unusable after refused FreeList: %v", err)
	}
}

// TestServerCloseIdempotent: closing a server twice (test cleanups and
// failure injection both do it) must be a no-op the second time.
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := Serve(sponge.NewPool(512, 4), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}
