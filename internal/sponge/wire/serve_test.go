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
