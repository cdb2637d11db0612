package wire

import (
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDeltaOpsRoundTrip exercises the three replication ops' framing
// against a served leader and standby: a delta's applied verdict, a
// state push carrying free count and acked sequence, and TrackerInfo's
// role and epoch all survive the round trip. (What the tracker does
// with them — sequence dedupe, role and term refusals — is the shared
// table's business; TestTrackerScriptBothDrivers checks those rules on
// this tracker and the simulated one, step for step.)
func TestDeltaOpsRoundTrip(t *testing.T) {
	leader := NewTrackerOptions(nil, TrackerOptions{Interval: time.Hour})
	defer leader.Close()
	ls, err := leader.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	standby := NewTrackerOptions(nil, TrackerOptions{Interval: time.Hour, Standby: true, Lease: time.Hour})
	defer standby.Close()
	ss, err := standby.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	lc, err := Dial(ls.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	sc, err := Dial(ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	if applied, err := lc.ReportDelta("node-a:1", 3, 7); err != nil || !applied {
		t.Fatalf("fresh delta: applied=%v err=%v", applied, err)
	}
	if got := leader.Query(); len(got) != 1 || got[0] != (TrackerEntry{Key: "node-a:1", Free: 7, Seq: 3}) {
		t.Fatalf("leader free list after the delta: %+v", got)
	}
	if err := sc.PushTrackerState(9, []TrackerEntry{{Key: "node-a:1", Free: 7, Seq: 3}}); err != nil {
		t.Fatalf("standby refused a state push: %v", err)
	}
	if got := standby.Query(); len(got) != 1 || got[0] != (TrackerEntry{Key: "node-a:1", Free: 7, Seq: 3}) {
		t.Fatalf("standby free list after push: %+v", got)
	}

	// TrackerInfo distinguishes the roles.
	if epoch, isLeader, err := lc.TrackerInfo(); err != nil || !isLeader || epoch != 1 {
		t.Fatalf("leader info = (%d, %v, %v)", epoch, isLeader, err)
	}
	if epoch, isLeader, err := sc.TrackerInfo(); err != nil || isLeader || epoch != 9 {
		t.Fatalf("standby info = (%d, %v, %v)", epoch, isLeader, err)
	}
}

// TestServerDeltaReporterFindsLeader wires a sponge server's reporter at
// a tracker pair listed standby-first: the reporter must rotate past the
// standby's refusal, land its report on the leader, and track later free
// -count changes without the leader ever polling.
func TestServerDeltaReporterFindsLeader(t *testing.T) {
	leader := NewTrackerOptions(nil, TrackerOptions{Interval: time.Hour, Delta: true})
	defer leader.Close()
	ls, err := leader.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	standby := NewTrackerOptions(nil, TrackerOptions{Interval: time.Hour, Standby: true, Lease: time.Hour})
	defer standby.Close()
	ss, err := standby.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	pool := sponge.NewPool(256, 4)
	srv, err := ServeOptions(pool, "127.0.0.1:0", Options{
		Trackers:       []string{ss.Addr(), ls.Addr()}, // standby first: forces a rotation
		ReportInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	waitFor(t, "first delta report", func() bool {
		got := leader.Query()
		return len(got) == 1 && got[0].Key == srv.Addr() && got[0].Free == 4
	})
	if got := standby.Query(); len(got) != 0 {
		t.Fatalf("standby applied a delta itself: %+v", got)
	}

	// Churn: allocations shrink the pool; the reporter pushes the change.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owner := sponge.TaskID{Node: 1, PID: 1}
	for i := 0; i < 3; i++ {
		if _, err := c.AllocWrite(owner, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "churn to reach the leader", func() bool {
		got := leader.Query()
		return len(got) == 1 && got[0].Free == 1
	})
	if applied, _ := leader.DeltaStats(); applied < 2 {
		t.Fatalf("delta updates applied = %d, want >= 2", applied)
	}
}

// TestStandbyPromotesOnLeaseExpiry runs the full replication loop over
// TCP: the leader polls a live sponge server, hands its snapshot to the
// standby each cycle, and dies; the standby's lease expires, it promotes
// itself under a bumped epoch, serves the handed-off free list, and
// goes on polling the servers it inherited; a delta report lands on it.
func TestStandbyPromotesOnLeaseExpiry(t *testing.T) {
	pool := sponge.NewPool(256, 8)
	srv, err := Serve(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	standby := NewTrackerOptions(nil, TrackerOptions{
		Interval: 30 * time.Millisecond,
		Standby:  true,
		Lease:    150 * time.Millisecond,
	})
	defer standby.Close()
	ss, err := standby.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	leader := NewTrackerOptions([]string{srv.Addr()}, TrackerOptions{
		Interval: 30 * time.Millisecond,
		Standbys: []string{ss.Addr()},
	})
	ls, err := leader.Serve("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// The standby receives state while the leader lives, and stays a
	// follower.
	waitFor(t, "first handoff", func() bool {
		got := standby.Query()
		return len(got) == 1 && got[0].Free == 8
	})
	if standby.IsLeader() {
		t.Fatal("standby promoted while the leader was alive")
	}
	epochBefore := standby.Epoch()

	// Kill the leader; the lease expires and the standby takes over,
	// serving the inherited snapshot.
	ls.Close()
	leader.Close()
	waitFor(t, "lease-expiry promotion", standby.IsLeader)
	if standby.Epoch() != epochBefore+1 {
		t.Fatalf("epoch after promotion = %d, want %d", standby.Epoch(), epochBefore+1)
	}
	if standby.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", standby.Promotions())
	}
	if got := standby.Query(); len(got) != 1 || got[0].Free != 8 {
		t.Fatalf("promoted tracker's free list: %+v", got)
	}

	// The standby was configured with no server addresses: what it polls
	// as leader is what the handoff named. A chunk allocated after the
	// promotion must show up in its answer.
	sc, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.AllocWrite(sponge.TaskID{Node: 1, PID: 1}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the promoted tracker's own poll to read 7", func() bool {
		got := standby.Query()
		return len(got) == 1 && got[0].Free == 7
	})

	// A delta report lands on the new leader now.
	c, err := Dial(ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if applied, err := c.ReportDelta(srv.Addr(), 100, 5); err != nil || !applied {
		t.Fatalf("delta to promoted leader: applied=%v err=%v", applied, err)
	}
}
