package simtime

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvances(t *testing.T) {
	s := New()
	var at Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		at = p.Now()
	})
	end := s.MustRun()
	if at != Time(5*Second) {
		t.Fatalf("woke at %v, want 5s", at)
	}
	if end != at {
		t.Fatalf("sim ended at %v, want %v", end, at)
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func() []int {
		s := New()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			s.Spawn("p", func(p *Proc) {
				p.Sleep(Duration(10-i) * Millisecond)
				order = append(order, i)
			})
		}
		s.MustRun()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
		if a[i] != 9-i {
			t.Fatalf("wrong order at %d: %v", i, a)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("p", func(p *Proc) { order = append(order, i) })
	}
	s.MustRun()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events ran out of spawn order: %v", order)
		}
	}
}

func TestAfterCallback(t *testing.T) {
	s := New()
	var fired Time = -1
	s.After(3*Second, func() { fired = s.Now() })
	s.MustRun()
	if fired != Time(3*Second) {
		t.Fatalf("callback fired at %v, want 3s", fired)
	}
}

func TestResourceSerializesHolders(t *testing.T) {
	s := New()
	r := NewResource(s, "disk", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Spawn("user", func(p *Proc) {
			r.Use(p, 10*Millisecond)
			ends = append(ends, p.Now())
		})
	}
	s.MustRun()
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	s := New()
	r := NewResource(s, "nic", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Spawn("user", func(p *Proc) {
			r.Use(p, 10*Millisecond)
			ends = append(ends, p.Now())
		})
	}
	s.MustRun()
	want := []Time{Time(10 * Millisecond), Time(10 * Millisecond), Time(20 * Millisecond), Time(20 * Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	var order []int
	for i := 0; i < 6; i++ {
		i := i
		s.Spawn("user", func(p *Proc) {
			// Stagger arrivals so the queue order is well defined.
			p.Sleep(Duration(i) * Millisecond)
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(50 * Millisecond)
			r.Release()
		})
	}
	s.MustRun()
	for i, v := range order {
		if v != i {
			t.Fatalf("resource served out of FIFO order: %v", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	var got []bool
	s.Spawn("p", func(p *Proc) {
		got = append(got, r.TryAcquire()) // true
		got = append(got, r.TryAcquire()) // false: full
		r.Release()
		got = append(got, r.TryAcquire()) // true again
		r.Release()
	})
	s.MustRun()
	want := []bool{true, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TryAcquire sequence = %v, want %v", got, want)
		}
	}
}

func TestResourceBusyTime(t *testing.T) {
	s := New()
	r := NewResource(s, "disk", 1)
	s.Spawn("a", func(p *Proc) { r.Use(p, 30*Millisecond) })
	s.Spawn("b", func(p *Proc) {
		p.Sleep(100 * Millisecond)
		r.Use(p, 20*Millisecond)
	})
	s.MustRun()
	if got := r.BusyTime(); got != 50*Millisecond {
		t.Fatalf("busy time = %v, want 50ms", got)
	}
	if r.Holds() != 2 {
		t.Fatalf("holds = %d, want 2", r.Holds())
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	s := New()
	sig := NewSignal("cond")
	woken := 0
	for i := 0; i < 4; i++ {
		s.Spawn("waiter", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(Second)
		sig.Broadcast()
	})
	s.MustRun()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestQueueBlockingGet(t *testing.T) {
	s := New()
	q := NewQueue("q")
	var got []interface{}
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Millisecond)
			q.Put(i)
		}
	})
	s.MustRun()
	for i := 0; i < 3; i++ {
		if got[i] != i {
			t.Fatalf("queue order = %v", got)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	r := NewResource(s, "r", 1)
	s.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		// never releases, but finishes; second proc parks forever
	})
	s.Spawn("starved", func(p *Proc) {
		p.Sleep(Millisecond)
		r.Acquire(p)
	})
	if _, err := s.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestDaemonParkedAtExitIsNotDeadlock(t *testing.T) {
	s := New()
	q := NewQueue("work")
	s.SpawnDaemon("flusher", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	s.Spawn("w", func(p *Proc) { p.Sleep(Second) })
	if _, err := s.Run(); err != nil {
		t.Fatalf("daemon should not deadlock the sim: %v", err)
	}
}

func TestKillUnwindsSleepingProc(t *testing.T) {
	s := New()
	reached := false
	victim := s.Spawn("victim", func(p *Proc) {
		p.Sleep(Hour)
		reached = true
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(Second)
		victim.Kill()
	})
	s.MustRun()
	if reached {
		t.Fatal("killed process ran past its sleep")
	}
}

func TestDurationConversions(t *testing.T) {
	if (1500 * Millisecond).Seconds() != 1.5 {
		t.Fatal("Seconds conversion wrong")
	}
	if Time(2*Second).Seconds() != 2.0 {
		t.Fatal("Time.Seconds conversion wrong")
	}
	if Time(5*Second).Sub(Time(2*Second)) != 3*Second {
		t.Fatal("Sub wrong")
	}
	if Time(1*Second).Add(500*Millisecond) != Time(1500*Millisecond) {
		t.Fatal("Add wrong")
	}
}

// Property: for any set of sleep durations, the simulation ends at the max
// duration, and each process wakes exactly at its own duration.
func TestPropertySleepEndsAtMax(t *testing.T) {
	f := func(ds []uint32) bool {
		if len(ds) == 0 {
			return true
		}
		s := New()
		var max Duration
		ok := true
		for _, d := range ds {
			d := Duration(d % 1e9)
			if d > max {
				max = d
			}
			s.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				if p.Now() != Time(d) {
					ok = false
				}
			})
		}
		end := s.MustRun()
		return ok && end == Time(max)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-1 resource used by n processes for duration d each
// finishes at exactly n*d, regardless of arrival order.
func TestPropertyResourceSerialization(t *testing.T) {
	f := func(n uint8, dRaw uint32) bool {
		count := int(n%20) + 1
		d := Duration(dRaw%1e6 + 1)
		s := New()
		r := NewResource(s, "r", 1)
		for i := 0; i < count; i++ {
			s.Spawn("u", func(p *Proc) { r.Use(p, d) })
		}
		end := s.MustRun()
		return end == Time(Duration(count)*d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnRunSteadyStateAllocationFree guards the engine's hot path:
// once the typed event heap and the process-reuse pool are warm, a full
// spawn → sleep → finish → run cycle must not touch the Go allocator.
func TestSpawnRunSteadyStateAllocationFree(t *testing.T) {
	s := New()
	cycle := func() {
		s.Spawn("w", func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(Millisecond)
			}
		})
		s.MustRun()
	}
	for i := 0; i < 16; i++ {
		cycle() // warm the heap, proc pool and procs map
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state spawn+run allocates %.2f objects per cycle, want 0", avg)
	}
	if spawns, reuses := s.ProcStats(); reuses < spawns-17 {
		t.Fatalf("process reuse not engaged: %d spawns, %d reuses", spawns, reuses)
	}
}

// TestCloseUnwindsEveryGoroutine builds a simulation that ends the way
// a cluster's does — daemons parked on a signal, a queue and in a sleep,
// finished processes pooled for reuse, one process spawned and never run
// — and requires Close to leave no goroutine behind and to run the
// processes' deferred calls, including one that blocks again and one
// that wakes a process Close has already unwound.
func TestCloseUnwindsEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	sig, q := NewSignal("never"), NewQueue("empty")
	res := NewResource(s, "held", 1)
	unwound := 0
	for i := 0; i < 4; i++ {
		s.SpawnDaemon("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			sig.Wait(p)
		})
	}
	s.SpawnDaemon("getter", func(p *Proc) {
		defer func() { unwound++ }()
		q.Get(p)
	})
	s.SpawnDaemon("holder", func(p *Proc) {
		res.Acquire(p)
		defer func() {
			res.Release() // hands the unit to a waiter that may be gone
			sig.Broadcast()
			unwound++
			p.Sleep(Second) // blocks again while being unwound
			t.Error("a killed process slept to completion")
		}()
		for {
			p.Sleep(Hour)
		}
	})
	s.SpawnDaemon("queued", func(p *Proc) {
		defer func() { unwound++ }()
		res.Acquire(p)
	})
	for i := 0; i < 8; i++ {
		s.Spawn("short", func(p *Proc) { p.Sleep(Millisecond) })
	}
	s.MustRun()
	s.Spawn("never-started", func(p *Proc) { t.Error("ran after Close") })
	if runtime.NumGoroutine() <= before {
		t.Fatal("the simulation parked no goroutines; the test proves nothing")
	}
	s.Close()
	if unwound != 7 {
		t.Errorf("%d of 7 deferred calls ran", unwound)
	}
	// Exiting goroutines need a moment to leave the count.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
