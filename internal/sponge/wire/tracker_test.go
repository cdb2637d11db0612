package wire

import (
	"testing"
	"time"

	"spongefiles/internal/sponge"
)

func TestTrackerPollsAndRanks(t *testing.T) {
	// Two servers with different pool sizes: the tracker must rank the
	// bigger pool first.
	small := sponge.NewPool(256, 2)
	big := sponge.NewPool(256, 8)
	s1, err := Serve(small, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := Serve(big, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	tr := NewTracker([]string{s1.Addr(), s2.Addr()}, 50*time.Millisecond)
	defer tr.Close()

	entries := tr.Query()
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Key != s2.Addr() || entries[0].Free != 8 {
		t.Fatalf("ranking wrong: %+v", entries)
	}

	// Drain the small pool; after a poll cycle it must drop out.
	c, err := Dial(s1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	owner := sponge.TaskID{Node: 1, PID: 1}
	for i := 0; i < 2; i++ {
		if _, err := c.AllocWrite(owner, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		entries = tr.Query()
		if len(entries) == 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(entries) != 1 || entries[0].Key != s2.Addr() {
		t.Fatalf("stale full server still advertised: %+v", entries)
	}
}

func TestTrackerSurvivesDeadServer(t *testing.T) {
	pool := sponge.NewPool(256, 4)
	srv, err := Serve(pool, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	tr := NewTracker([]string{addr}, 50*time.Millisecond)
	defer tr.Close()
	if len(tr.Query()) != 1 {
		t.Fatal("live server missing")
	}
	srv.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(tr.Unreachable()) == 1 && len(tr.Query()) == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("dead server never noticed: query=%v unreachable=%v",
		tr.Query(), tr.Unreachable())
}
