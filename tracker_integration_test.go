package spongefiles_test

// Replicated-tracker integration over real TCP: a leader tracker polls
// live sponge servers and hands its snapshot to a standby each cycle;
// killing the leader mid-job lets the standby's lease expire and
// promote itself, and the job keeps allocating off the handed-off free
// list — every chunk written before and after the failover reads back
// intact, with zero lost chunks.

import (
	"bytes"
	"testing"
	"time"

	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

func TestTrackerFailoverMidJobOverTCP(t *testing.T) {
	const chunkSize = 512

	// Three sponge servers, each pushing delta reports at the tracker
	// group (leader first — the reporter sticks with whoever applies).
	var servers []*wire.Server
	var pools []*sponge.Pool
	var addrs []string

	// The tracker pair: leader (delta mode, handing off to the standby
	// every 30ms) and standby (promotes after a 150ms lease).
	standby := wire.NewTrackerOptions(nil, wire.TrackerOptions{
		Interval: 30 * time.Millisecond,
		Standby:  true,
		Lease:    150 * time.Millisecond,
	})
	defer standby.Close()
	ss, err := standby.Serve("127.0.0.1:0", wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	for i := 0; i < 3; i++ {
		pool := sponge.NewPool(chunkSize, 16)
		pools = append(pools, pool)
		srv, err := wire.Serve(pool, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}

	leader := wire.NewTrackerOptions(addrs, wire.TrackerOptions{
		Interval:    30 * time.Millisecond,
		Delta:       true,
		AntiEntropy: 5,
		Standbys:    []string{ss.Addr()},
	})
	ls, err := leader.Serve("127.0.0.1:0", wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	trackerAddrs := []string{ls.Addr(), ss.Addr()}

	// Wait for the standby to hold a handed-off snapshot covering all
	// three servers before the job starts.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(standby.Query()) < 3 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := standby.Query(); len(got) < 3 {
		t.Fatalf("standby snapshot before the job: %+v", got)
	}

	// freeList asks the tracker group, preferring whichever answers.
	freeList := func() []wire.TrackerEntry {
		for _, ta := range trackerAddrs {
			c, err := wire.Dial(ta)
			if err != nil {
				continue
			}
			entries, err := c.FreeList()
			c.Close()
			if err == nil && len(entries) > 0 {
				return entries
			}
		}
		return nil
	}

	// The job: 24 chunks, allocated greedily at the most-free server
	// from the tracker group's answer. The leader is killed after chunk
	// 8 — mid-job — and allocation must keep going off the standby's
	// handed-off state.
	type placed struct {
		addr   string
		handle int
		data   []byte
	}
	clients := make(map[string]*wire.Client)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	clientFor := func(addr string) *wire.Client {
		if c := clients[addr]; c != nil {
			return c
		}
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		clients[addr] = c
		return c
	}
	owner := sponge.TaskID{Node: 1, PID: 42}
	var chunks []placed
	for i := 0; i < 24; i++ {
		if i == 8 {
			ls.Close()
			leader.Close()
		}
		data := bytes.Repeat([]byte{byte(i + 1)}, chunkSize)
		entries := freeList()
		if entries == nil {
			// Mid-failover gap: the standby may not have promoted yet,
			// but its free list answers regardless of role; only a full
			// cluster returns nothing.
			t.Fatalf("chunk %d: no tracker answered with free servers", i)
		}
		var lastErr error
		stored := false
		for _, e := range entries {
			h, err := clientFor(e.Key).AllocWrite(owner, data)
			if err != nil {
				lastErr = err
				continue
			}
			chunks = append(chunks, placed{addr: e.Key, handle: h, data: data})
			stored = true
			break
		}
		if !stored {
			t.Fatalf("chunk %d found no home: %v", i, lastErr)
		}
	}

	// The standby must have taken over by now (the job outlived the
	// lease), under a bumped epoch, and seen delta churn of its own.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !standby.IsLeader() {
		time.Sleep(10 * time.Millisecond)
	}
	if !standby.IsLeader() {
		t.Fatal("standby never promoted after the leader died")
	}
	if standby.Epoch() < 2 {
		t.Fatalf("promoted epoch = %d, want >= 2", standby.Epoch())
	}
	if epoch, isLeader, err := clientFor(ss.Addr()).TrackerInfo(); err != nil || !isLeader || epoch != standby.Epoch() {
		t.Fatalf("TrackerInfo on promoted standby = (%d, %v, %v)", epoch, isLeader, err)
	}

	// Zero lost chunks: every chunk placed before and after the
	// failover reads back bit-exact.
	buf := make([]byte, chunkSize)
	for i, pc := range chunks {
		n, err := clientFor(pc.addr).ReadInto(pc.handle, buf)
		if err != nil {
			t.Fatalf("chunk %d lost after failover: %v", i, err)
		}
		if !bytes.Equal(buf[:n], pc.data) {
			t.Fatalf("chunk %d corrupt after failover", i)
		}
	}
	if len(chunks) != 24 {
		t.Fatalf("placed %d chunks, want 24", len(chunks))
	}

	// Sanity: the job really did spread across the cluster.
	used := 0
	for _, p := range pools {
		if p.Free() < p.Chunks() {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("job used %d servers, want >= 2", used)
	}
	if len(servers) != 3 {
		t.Fatalf("servers = %d, want 3", len(servers))
	}
}
