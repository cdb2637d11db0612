package simtime

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"strings"
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
	r := NewResource("disk", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Spawn("user", func(p *Proc) {
			use(r, p, 10*Millisecond)
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
	r := NewResource("nic", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Spawn("user", func(p *Proc) {
			use(r, p, 10*Millisecond)
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
	r := NewResource("r", 1)
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

func TestDeadlockDetection(t *testing.T) {
	s := New()
	r := NewResource("r", 1)
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
	q := newQueue("work")
	s.NewDaemon("flusher", func(p *Proc) {
		for {
			q.get(p)
		}
	}).Wake()
	s.Spawn("w", func(p *Proc) { p.Sleep(Second) })
	if _, err := s.Run(); err != nil {
		t.Fatalf("daemon should not deadlock the sim: %v", err)
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
		r := NewResource("r", 1)
		for i := 0; i < count; i++ {
			s.Spawn("u", func(p *Proc) { use(r, p, d) })
		}
		end := s.MustRun()
		return end == Time(Duration(count)*d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnRunSteadyStateAllocationFree guards the engine's hot path in
// the two shapes its drivers take. Spawn+Run cycles on one Sim — a spill
// loop's — must not touch the Go allocator once the typed event heap,
// the procs map and the process pools are warm, although every Run hands
// its finished processes to the package's pool and the next Spawn takes
// them back. A fresh Sim per cycle — a job loop's — pays for its own
// set-up, but no process: each comes back from the package's pool, and
// the goroutine count stays put.
func TestSpawnRunSteadyStateAllocationFree(t *testing.T) {
	body := func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(Millisecond)
		}
	}
	t.Run("one Sim", func(t *testing.T) {
		s := New()
		cycle := func() {
			s.Spawn("a", body)
			s.Spawn("b", body)
			s.MustRun()
		}
		for i := 0; i < 16; i++ {
			cycle() // warm the heap, the pools and the procs map
		}
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("steady-state spawn+run allocates %.2f objects per cycle, want 0", avg)
		}
		if s.procReuses < s.spawns-2 {
			t.Fatalf("process reuse not engaged: %d spawns, %d reuses", s.spawns, s.procReuses)
		}
	})
	t.Run("Sim per cycle", func(t *testing.T) {
		cycle := func() *Sim {
			s := New()
			s.Spawn("a", body)
			s.Spawn("b", body)
			s.MustRun()
			return s
		}
		cycle() // fill the package's pool
		before := liveGoroutines()
		for i := 0; i < 200; i++ {
			if s := cycle(); s.procReuses != s.spawns {
				t.Fatalf("cycle %d: a fresh Sim made %d of its %d processes", i, s.spawns-s.procReuses, s.spawns)
			}
		}
		waitGoroutines(t, before)
	})
}

// sleepLoop is the daemon Every replaced, kept as its model: one woken
// round that sleeps at the top of its loop.
func sleepLoop(s *Sim, name string, d Duration, round func(p *Proc) bool) {
	s.NewDaemon(name, func(p *Proc) {
		for {
			p.Sleep(d)
			if !round(p) {
				return
			}
		}
	}).Wake()
}

// tickScript logs every resumption, as (now, process, step), of two
// periodic daemons started by start among user processes that sleep to
// the very instants the daemons tick at: one spawned before the daemons
// and one after. One daemon's rounds yield at their own instant and it
// stops itself after three; the other's queue on a resource a user
// holds at a tick.
func tickScript(start func(s *Sim, name string, d Duration, round func(p *Proc) bool)) []string {
	s := New()
	defer s.Close()
	var log []string
	rec := func(p *Proc, step string) {
		log = append(log, fmt.Sprintf("%v %s %s", p.Now(), p.Name(), step))
	}
	disk := NewResource("disk", 1)
	s.Spawn("early", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(Second)
			rec(p, "woke")
			if i == 3 {
				use(disk, p, 300*Millisecond)
				rec(p, "used")
			}
		}
	})
	polls := 0
	start(s, "poller", Second, func(p *Proc) bool {
		rec(p, "poll")
		p.Sleep(0)
		rec(p, "polled")
		polls++
		return polls < 3
	})
	start(s, "sweeper", 2*Second, func(p *Proc) bool {
		rec(p, "sweep")
		use(disk, p, 500*Millisecond)
		rec(p, "swept")
		return true
	})
	s.Spawn("late", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * Second)
			rec(p, "woke")
		}
	})
	return append(log, fmt.Sprintf("end %v", s.MustRun()))
}

// TestEveryMatchesSleepLoop holds Every to the loop it replaced: same
// resumptions at the same instants in the same order, and a round that
// returns false ends its daemon as the loop's return did.
func TestEveryMatchesSleepLoop(t *testing.T) {
	want := tickScript(sleepLoop)
	got := tickScript((*Sim).Every)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Every's order differs from the sleep loop's:\n got %q\nwant %q", got, want)
	}
	polls, sweeps := 0, 0
	for _, line := range got {
		switch {
		case strings.HasSuffix(line, "poller poll"):
			polls++
		case strings.HasSuffix(line, "sweeper sweep"):
			sweeps++
		}
	}
	if polls != 3 || sweeps < 2 {
		t.Fatalf("%d polls and %d sweeps, want 3 and at least 2: %q", polls, sweeps, got)
	}
}

// TestRoundFalseStopsTick runs a daemon whose third round returns false
// under a user process that outlives it by far: no fourth round.
func TestRoundFalseStopsTick(t *testing.T) {
	s := New()
	defer s.Close()
	var at []Time
	s.Every("thrice", Second, func(p *Proc) bool {
		at = append(at, p.Now())
		return len(at) < 3
	})
	s.Spawn("user", func(p *Proc) { p.Sleep(Minute) })
	s.MustRun()
	if fmt.Sprint(at) != fmt.Sprint([]Time{Time(Second), Time(2 * Second), Time(3 * Second)}) {
		t.Fatalf("rounds at %v, want 1s 2s 3s", at)
	}
}

// collection returns a channel closed once s is garbage. The finalizer
// cannot go on s itself: a Sim is reachable from its own queue (a
// daemon's tick refers back to it), and the runtime never finalizes an
// object in a cycle. It goes on a tag that only a callback in s's queue
// refers to, which is garbage exactly when s is.
func collection(s *Sim) <-chan struct{} {
	done := make(chan struct{})
	tag := new([64]byte)
	runtime.SetFinalizer(tag, func(*[64]byte) { close(done) })
	s.AfterDaemon(1000*Hour, func() { runtime.KeepAlive(tag) })
	return done
}

// within reports whether done is closed within n collections.
func within(done <-chan struct{}, n int) bool {
	for i := 0; i < n; i++ {
		runtime.GC()
		select {
		case <-done:
			return true
		case <-time.After(100 * time.Millisecond):
		}
	}
	return false
}

// TestNoGoroutineBetweenRounds: between rounds a daemon — periodic or
// woken — holds no process. Once Run returns with the next tick queued,
// the live goroutine count is back where it started, and the Sim, never
// closed, is collected as soon as nothing references it. A round still
// asleep when Run returns does hold its process, until Close.
func TestNoGoroutineBetweenRounds(t *testing.T) {
	before := liveGoroutines()
	var collected <-chan struct{}
	func() {
		s := New()
		collected = collection(s)
		flushes := 0
		flusher := s.NewDaemon("flusher", func(p *Proc) {
			p.Sleep(Millisecond)
			flushes++
		})
		s.Every("poller", Second, func(p *Proc) bool {
			flusher.Wake()
			flusher.Wake() // busy: joins the first
			return true
		})
		s.Spawn("user", func(p *Proc) { p.Sleep(10*Second + Second/2) })
		s.MustRun()
		if flushes != 10 {
			t.Errorf("%d flushes, want 10", flushes)
		}
		waitGoroutines(t, before)
	}()
	if !within(collected, 3) {
		t.Fatal("a quiescent Sim was not collected")
	}

	s := New()
	s.NewDaemon("slow", func(p *Proc) { p.Sleep(Hour) }).Wake()
	s.Spawn("user", func(p *Proc) { p.Sleep(Second) })
	s.MustRun()
	if len(s.procs) != 1 {
		t.Fatalf("%d processes alive after Run, want the one asleep round", len(s.procs))
	}
	s.Close()
	if len(s.procs) != 0 {
		t.Fatalf("%d processes alive after Close", len(s.procs))
	}
	waitGoroutines(t, before)
}

// TestCloseUnwindsEveryGoroutine builds a simulation that ends the way
// a cluster's does — daemon rounds parked on a signal, a resource and a
// queue, and one asleep; finished processes pooled for reuse; one
// process spawned and never run — and requires Close to leave no goroutine behind and to run the
// processes' deferred calls, including one that blocks again and one
// that wakes a process Close has already unwound.
func TestCloseUnwindsEveryGoroutine(t *testing.T) {
	before := liveGoroutines()
	s := New()
	sig, q := NewSignal("never"), newQueue("empty")
	res := NewResource("held", 1)
	unwound := 0
	for i := 0; i < 4; i++ {
		s.NewDaemon("waiter", func(p *Proc) {
			defer func() { unwound++ }()
			sig.Wait(p)
		}).Wake()
	}
	s.NewDaemon("getter", func(p *Proc) {
		defer func() { unwound++ }()
		q.get(p)
	}).Wake()
	s.NewDaemon("holder", func(p *Proc) {
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
	}).Wake()
	s.NewDaemon("queued", func(p *Proc) {
		defer func() { unwound++ }()
		res.Acquire(p)
	}).Wake()
	for i := 0; i < 8; i++ {
		s.Spawn("short", func(p *Proc) { p.Sleep(Millisecond) })
	}
	s.MustRun()
	s.Spawn("never-started", func(p *Proc) { t.Error("ran after Close") })
	if liveGoroutines() <= before {
		t.Fatal("the simulation parked no goroutines; the test proves nothing")
	}
	s.Close()
	if unwound != 7 {
		t.Errorf("%d of 7 deferred calls ran", unwound)
	}
	waitGoroutines(t, before)
}

// TestGoroutinesLeavesOutTheIdlePool: Goroutines lists the caller and a
// process goroutine a Sim holds, spawned and never started included, and
// leaves out that same goroutine while it waits in the package's pool.
func TestGoroutinesLeavesOutTheIdlePool(t *testing.T) {
	s := New()
	defer s.Close()
	s.Spawn("short", func(p *Proc) {})
	s.MustRun() // the package's pool is not empty now
	idle := Goroutines()
	p := s.Spawn("never-started", func(p *Proc) { t.Error("ran after Close") })
	var head [32]byte
	if self := goroutineID(head[:runtime.Stack(head[:], false)]); !idle[self] {
		t.Errorf("the calling goroutine %d is not listed in %v", self, idle)
	}
	if idle[p.g] {
		t.Errorf("goroutine %d is listed while it waits in the idle pool", p.g)
	}
	if !Goroutines()[p.g] {
		t.Errorf("goroutine %d of a process spawned and never started is not listed", p.g)
	}
}

// liveGoroutines counts the goroutines outside the package's idle pool,
// which belong to no Sim.
func liveGoroutines() int { return len(Goroutines()) }

// waitGoroutines fails the test unless the live goroutine count falls
// back to before; exiting goroutines need a moment to leave the count.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; liveGoroutines() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines before, %d after", before, liveGoroutines())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCallbackRespawnsDispatchingProc covers the one resumption that
// involves no goroutine switch and no channel: a process ends its life,
// pools its Proc and dispatches a callback, and the callback's Spawn
// takes that very Proc back out of the pool. The next life must start
// on the goroutine that is still inside the dispatch.
func TestCallbackRespawnsDispatchingProc(t *testing.T) {
	s := New()
	defer s.Close()
	var first, second *Proc
	var order []string
	first = s.Spawn("first", func(p *Proc) {
		p.Sleep(Millisecond)
		s.After(0, func() {
			order = append(order, "callback")
			second = s.Spawn("second", func(p *Proc) {
				order = append(order, p.Name())
				p.Sleep(Millisecond)
				order = append(order, p.Name()+" woke")
			})
		})
		order = append(order, p.Name()+" done")
	})
	if end := s.MustRun(); end != Time(2*Millisecond) {
		t.Fatalf("ended at %v, want 2ms", end)
	}
	if second != first {
		t.Fatal("the callback's Spawn did not reuse the dispatching process; the test proves nothing")
	}
	want := []string{"first done", "callback", "second", "second woke"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestRunTwice runs one simulation in two instalments. The first Run
// returns with a daemon's wake-up still queued (daemon events alone do
// not keep Run going); the second must pick it up in order, and a Run
// with nothing to do must return at once.
func TestRunTwice(t *testing.T) {
	before := liveGoroutines()
	s := New()
	q := newQueue("work")
	var served []Time
	s.NewDaemon("server", func(p *Proc) {
		for {
			q.get(p)
			p.Sleep(Millisecond)
			served = append(served, p.Now())
		}
	}).Wake()
	s.Spawn("a", func(p *Proc) {
		p.Sleep(Second)
		q.put(1)
	})
	if end := s.MustRun(); end != Time(Second) || len(served) != 0 {
		t.Fatalf("first Run ended at %v with %d served, want 1s and 0", end, len(served))
	}
	s.Spawn("b", func(p *Proc) { p.Sleep(Second) })
	if end := s.MustRun(); end != Time(2*Second) {
		t.Fatalf("second Run ended at %v, want 2s", end)
	}
	if len(served) != 1 || served[0] != Time(Second+Millisecond) {
		t.Fatalf("served = %v, want [1.001s]", served)
	}
	if end := s.MustRun(); end != Time(2*Second) {
		t.Fatalf("idle Run ended at %v, want 2s", end)
	}
	s.Close()
	waitGoroutines(t, before)
}

// TestCloseAfterDeadlock pins the deadlock report's text and then has
// Close unwind what the deadlocked Run left behind, including a process
// whose deferred call sleeps again while it is being killed.
func TestCloseAfterDeadlock(t *testing.T) {
	before := liveGoroutines()
	s := New()
	r := NewResource("r", 1)
	sig := NewSignal("s")
	unwound := 0
	s.Spawn("holder", func(p *Proc) { r.Acquire(p) })
	s.Spawn("b", func(p *Proc) {
		defer func() {
			unwound++
			p.Sleep(Second)
			t.Error("a killed process slept to completion")
		}()
		sig.Wait(p)
	})
	s.Spawn("a", func(p *Proc) {
		defer func() { unwound++ }()
		p.Sleep(Millisecond)
		r.Acquire(p)
	})
	end, err := s.Run()
	const want = "simtime: deadlock, 2 process(es) parked: [a (waiting on resource r) b (waiting on signal s)]"
	if err == nil || err.Error() != want {
		t.Fatalf("Run error = %v, want %s", err, want)
	}
	if end != Time(Millisecond) {
		t.Fatalf("deadlocked at %v, want 1ms", end)
	}
	s.Close()
	if unwound != 2 {
		t.Errorf("%d of 2 deferred calls ran", unwound)
	}
	waitGoroutines(t, before)
}

// use holds r for d.
func use(r *Resource, p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// kill makes p unwind the next time it resumes, at once if it is parked;
// the pinned script's killers strike with it. It leaves a parked p in
// its waiter list, where the next wake would find it not parked and
// panic, so the script parks its victims on a signal nothing else waits
// on.
func kill(p *Proc) {
	switch p.state {
	case stateDone, stateRunning:
	case stateParked:
		p.killed = true
		p.unpark()
	default:
		p.killed = true
	}
}

// queue is an unbounded FIFO of values with blocking receive, the
// simulated analogue of a channel.
type queue struct {
	parkName string
	items    fifo[int]
	waiters  fifo[*Proc]
}

func newQueue(name string) *queue { return &queue{parkName: "queue " + name} }

// put appends v and wakes one waiting receiver, if any.
func (q *queue) put(v int) {
	q.items.push(v)
	if q.waiters.len() > 0 {
		q.waiters.pop().unpark()
	}
}

// get removes and returns the head item, blocking p until one is present.
func (q *queue) get(p *Proc) int {
	for q.items.len() == 0 {
		q.waiters.push(p)
		p.park(q.parkName)
	}
	v := q.items.pop()
	// If items remain and receivers are queued, keep the wake chain going.
	if q.items.len() > 0 && q.waiters.len() > 0 {
		q.waiters.pop().unpark()
	}
	return v
}

// eventScript is a seeded workload over every blocking primitive the
// package offers and a queue. Each resumption — a blocking call
// returning, a process starting, a callback firing, a killed process
// unwinding — is hashed as
// (now, name); the script draws its next step from one generator shared
// by all processes, so any change in event order changes every draw
// after it and the digest with them.
type eventScript struct {
	s     *Sim
	rng   uint64
	h     hash.Hash
	n     int // resumptions recorded
	res   []*Resource
	sigs  []*Signal
	q     *queue
	never *Signal // never broadcast: parks a process for good
	ids   int
}

// rand is splitmix64: the sequence must not depend on the Go release.
func (r *eventScript) rand(n int) int {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

func (r *eventScript) rec(now Time, name string) {
	fmt.Fprintf(r.h, "%d %s\n", now, name)
	r.n++
}

func (r *eventScript) at(p *Proc) { r.rec(p.Now(), p.Name()) }

func (r *eventScript) name(kind string) string {
	r.ids++
	return fmt.Sprintf("%s%d", kind, r.ids)
}

func (r *eventScript) dur(maxMicros int) Duration {
	return Duration(r.rand(maxMicros)) * Microsecond
}

// child is a short life: it exercises the process pool and, half the
// time, queues on a resource.
func (r *eventScript) child(p *Proc) {
	r.at(p)
	p.Sleep(r.dur(800))
	r.at(p)
	if r.rand(2) == 0 {
		use(r.res[r.rand(len(r.res))], p, r.dur(300))
		r.at(p)
	}
}

// victim blocks well past the moment its killer strikes, asleep or
// parked; only its deferred call sees the unwinding.
func (r *eventScript) victim(asleep bool) func(p *Proc) {
	return func(p *Proc) {
		defer r.at(p)
		r.at(p)
		if asleep {
			p.Sleep(200 * Millisecond)
		} else {
			NewSignal("victim").Wait(p)
		}
		panic("victim outlived its killer")
	}
}

func (r *eventScript) worker(ops int) func(p *Proc) {
	return func(p *Proc) {
		r.at(p)
		for i := 0; i < ops; i++ {
			switch r.rand(14) {
			case 0, 1:
				p.Sleep(r.dur(3000))
				r.at(p)
			case 2:
				p.Sleep(0)
				r.at(p)
			case 3:
				res := r.res[r.rand(len(r.res))]
				res.Acquire(p)
				r.at(p)
				p.Sleep(r.dur(500))
				r.at(p)
				res.Release()
			case 4:
				use(r.res[r.rand(len(r.res))], p, r.dur(500))
				r.at(p)
			case 5:
				r.sigs[r.rand(len(r.sigs))].Wait(p)
				r.at(p)
			case 6:
				r.sigs[r.rand(len(r.sigs))].Broadcast()
			case 7:
				r.q.put(i)
			case 8:
				r.q.get(p)
				r.at(p)
			case 9:
				sig := r.sigs[r.rand(len(r.sigs))]
				r.s.After(r.dur(2000), func() {
					r.rec(r.s.Now(), "cb.broadcast")
					sig.Broadcast()
				})
			case 10:
				r.s.After(r.dur(2000), func() {
					r.rec(r.s.Now(), "cb.spawn")
					r.q.put(-1)
					r.s.Spawn(r.name("cbchild"), r.child)
				})
			case 11:
				r.s.Spawn(r.name("child"), r.child)
			case 12:
				if r.rand(2) == 0 {
					r.s.NewDaemon(r.name("daemon"), func(p *Proc) {
						r.child(p)
						r.never.Wait(p)
					}).Wake()
				} else {
					r.s.NewDaemon(r.name("daemon"), r.child).Wake()
				}
			case 13:
				v := r.s.Spawn(r.name("victim"), r.victim(r.rand(2) == 0))
				if r.rand(2) == 0 {
					r.s.After(Millisecond+r.dur(5000), func() { kill(v) })
				} else {
					p.Sleep(Millisecond + r.dur(5000))
					r.at(p)
					kill(v)
				}
			}
		}
	}
}

// ticker keeps the script live: whatever is parked on a signal or the
// queue when the workers that would have woken it are done is woken
// here. As a daemon it does not keep Run from returning.
func (r *eventScript) ticker(p *Proc) {
	for {
		p.Sleep(Millisecond)
		r.at(p)
		for _, sig := range r.sigs {
			sig.Broadcast()
		}
		for n := r.q.waiters.len(); n > 0; n-- {
			r.q.put(0)
		}
	}
}

// TestEventOrderPinned pins the order in which the simulator resumes
// processes and fires callbacks. The digest was captured at commit
// 000d47f, where a scheduler goroutine dispatched every event; whoever
// dispatches now, the (time, sequence) order is total and the digest
// must not move.
func TestEventOrderPinned(t *testing.T) {
	const (
		workers = 20
		ops     = 600
		want    = "27b3890cd0aa0380054c1036569b0bb44cc2ab33e2f65639f2e509dd46d3ca20"
	)
	s := New()
	defer s.Close()
	r := &eventScript{s: s, rng: 2014, h: sha256.New(), q: newQueue("q"), never: NewSignal("never")}
	for i := 0; i < 3; i++ {
		r.res = append(r.res, NewResource(fmt.Sprintf("res%d", i), 1+i))
		r.sigs = append(r.sigs, NewSignal(fmt.Sprintf("sig%d", i)))
	}
	s.NewDaemon("ticker", r.ticker).Wake()
	for i := 0; i < workers; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), r.worker(ops))
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	r.rec(end, "end")
	if r.n < 10000 {
		t.Fatalf("script recorded %d resumptions, want at least 10000", r.n)
	}
	if got := hex.EncodeToString(r.h.Sum(nil)); got != want {
		t.Fatalf("event order moved: digest %s over %d resumptions ending at %v, want %s", got, r.n, end, want)
	}
}

// TestFIFONeverEmptyStaysBounded drives the waiter list the way a busy
// resource does — it never drains, so the rewind-on-empty never fires —
// and checks order and that the dead prefix is reclaimed without
// allocating.
func TestFIFONeverEmptyStaysBounded(t *testing.T) {
	var f fifo[int]
	next, want := 0, 0
	step := func() {
		for i := 0; i < 3; i++ {
			f.push(next)
			next++
		}
		for f.len() > 1 {
			if got := f.pop(); got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("a list that never exceeds 4 entries allocates %.2f times per step", avg)
	}
	if cap(f.items) > 16 {
		t.Fatalf("backing array grew to %d for at most 4 live entries", cap(f.items))
	}
}
