// Package simtime implements a deterministic discrete-event simulator.
//
// The simulator runs "processes" (goroutines that execute one at a time,
// interleaved only at explicit blocking points) against a virtual clock.
// It is the substrate on which the cluster, disk, network, and memory
// models in this repository charge time: engines move real bytes, but
// every I/O and CPU charge advances the virtual clock instead of the wall
// clock. Runs are fully deterministic: events are ordered by (time,
// sequence number), and exactly one process is runnable at any instant.
//
// There is no scheduler goroutine. Whichever goroutine gives up the clock
// — a process that blocks or ends, or Run at the start — dispatches the
// following events itself (Sim.next): it runs callbacks inline and then
// either carries on, when the next process due is the one that just
// blocked, or wakes that process's goroutine and goes to sleep. Run only
// starts the chain and waits to be told that it has ended.
//
// There are two kinds of process. Spawn starts an ordinary one, which
// keeps Run going until it ends. A Daemon — Every's periodic rounds,
// NewDaemon's woken ones — runs each round on a pooled process whose
// events do not keep Run going, and holds no process between rounds.
// Close is the one way to unwind a process that has not ended.
package simtime

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is convertible to
// and from time.Duration; a separate type keeps virtual and wall time from
// being mixed accidentally.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Std converts a virtual duration to a time.Duration for formatting.
func (d Duration) Std() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// Seconds returns the time as a floating-point number of seconds since the
// simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled resumption of a process or invocation of a callback.
// Events are stored by value in the queue: the hot path of the simulator is
// scheduling (every Sleep, every device charge), and boxing each event
// behind a pointer — as the original container/heap queue did — made the
// scheduler the single largest allocation site in the macro benchmarks.
type event struct {
	at      Time
	seq     uint64
	proc    *Proc   // non-nil: resume this process
	procGen uint64  // incarnation of proc this event targets (proc reuse)
	fn      func()  // non-nil: run this callback on the dispatching goroutine
	round   *Daemon // non-nil: start one of this daemon's rounds
	daemon  bool    // a daemon's event: it does not keep Run going
}

// before orders events by (time, sequence number); the sequence tiebreak
// keeps same-instant events in schedule order, which the determinism
// guarantee depends on.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a typed binary min-heap of events stored by value. Push
// and pop reuse the slice's capacity, so the steady state allocates
// nothing; a popped slot is zeroed to drop fn/proc references.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.ev[i].before(&q.ev[parent]) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{}
	q.ev = q.ev[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.ev[l].before(&q.ev[min]) {
			min = l
		}
		if r < n && q.ev[r].before(&q.ev[min]) {
			min = r
		}
		if min == i {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}

// maxProcFree bounds each pool of finished processes kept for reuse: a
// Sim's while it runs, and the package's between Runs. Every
// asynchronous chunk spill spawns a writer process and every daemon
// round takes one; recycling the Proc, its resume channel, and its
// goroutine keeps steady-state spawning allocation-free, across Runs and
// across Sims. Beyond the bound, finished goroutines simply exit.
const maxProcFree = 256

// idle is the package's pool. When Run returns, the Sim's finished
// processes move here with their sim cleared, so no goroutine refers to
// a simulation that is not running: a quiescent Sim nobody references is
// garbage, Close or no Close. The next Spawn on any Sim takes one back.
// Like a sync.Pool's, its goroutines are never stopped; the bound caps
// them.
var idle struct {
	sync.Mutex
	procs []*Proc
}

// takeIdle returns a process from the package's pool, or nil.
func takeIdle() *Proc {
	idle.Lock()
	defer idle.Unlock()
	n := len(idle.procs)
	if n == 0 {
		return nil
	}
	p := idle.procs[n-1]
	idle.procs[n-1] = nil
	idle.procs = idle.procs[:n-1]
	return p
}

// Goroutines returns the IDs of the program's goroutines, read from a
// dump of every stack, less those of the package's idle pool: they
// belong to no Sim, so a teardown that looks for leaked goroutines
// leaves them out. A Sim's own processes, finished, parked or never
// started, are all in it.
func Goroutines() map[uint64]bool {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) { // the dump may be cut short: grow and retake it
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	ids := map[uint64]bool{}
	for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
		ids[goroutineID(g)] = true
	}
	idle.Lock()
	defer idle.Unlock()
	for _, p := range idle.procs {
		delete(ids, p.g)
	}
	return ids
}

// goroutineID parses the ID from the head of a goroutine's stack trace,
// "goroutine 7 [running]:".
func goroutineID(trace []byte) uint64 {
	var id uint64
	for _, c := range bytes.TrimPrefix(trace, []byte("goroutine ")) {
		if c < '0' || c > '9' {
			break
		}
		id = 10*id + uint64(c-'0')
	}
	return id
}

// Sim is a discrete-event simulation instance. It is not safe for use from
// multiple OS threads except through the process mechanism it provides.
type Sim struct {
	now    Time
	events eventQueue
	seq    uint64
	// yield wakes whoever waits outside the simulation: Run, once there
	// is nothing left to dispatch, and Close, each time a process it
	// resumed blocks again or exits. One slot, so that Run finding nothing
	// to dispatch can tell itself.
	yield chan struct{}
	procs map[*Proc]struct{}
	// pending counts scheduled non-daemon events; parkedUser counts
	// parked non-daemon processes. Run halts when only daemon activity
	// remains (daemons typically loop forever and would otherwise keep
	// the clock advancing unboundedly).
	pending    int
	parkedUser int

	// procFree holds finished processes whose goroutines are parked
	// awaiting reuse by the next Spawn; Run hands them to the package's
	// pool when it returns.
	procFree []*Proc
	// closed makes every process goroutine exit the next time it is
	// resumed; see Close.
	closed bool

	// Process lives started (Spawns and daemon rounds), and how many of
	// them on a reused process.
	spawns, procReuses int64
}

// New returns a fresh simulation with the clock at zero and no processes.
func New() *Sim {
	return &Sim{
		yield: make(chan struct{}, 1),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// schedule enqueues an event.
func (s *Sim) schedule(at Time, p *Proc, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	daemon := p != nil && p.daemon
	if !daemon {
		s.pending++
	}
	var gen uint64
	if p != nil {
		gen = p.gen
	}
	s.events.push(event{at: at, seq: s.seq, proc: p, procGen: gen, fn: fn, daemon: daemon})
}

// After schedules fn to run after d elapses, on whichever goroutine is
// dispatching events then: a process's, inside its blocking call, or
// Run's. fn must not block; it may spawn processes or wake waiters.
func (s *Sim) After(d Duration, fn func()) {
	s.schedule(s.now.Add(d), nil, fn)
}

// procState describes where a process is in its lifecycle.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateParked // waiting on a resource or signal, no scheduled event
	stateDone
)

// Proc is a simulated process. All methods must be called from the
// process's own goroutine while it is running.
type Proc struct {
	sim    *Sim
	name   string
	resume chan struct{}
	state  procState
	daemon bool
	killed bool
	// parkedOn describes what a parked proc is waiting for (diagnostics).
	parkedOn string
	// fn is the body the goroutine runs on its next resumption; gen
	// counts incarnations so events scheduled for a finished life cannot
	// resume a reused Proc.
	fn  func(p *Proc)
	gen uint64
	// g is the ID of the goroutine that runs every life of the Proc.
	g uint64
}

// interrupted is the sentinel panic payload Close unwinds a process with.
type interrupted struct{}

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

// Spawn creates a process running fn and schedules it to start now. The
// name is used in diagnostics only. Finished processes (Proc, resume
// channel, goroutine) are reused by later Spawns, on this Sim or any
// other, so steady-state spawning — e.g. one writer process per spilled
// chunk — allocates nothing.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := s.proc(name, fn)
	s.schedule(s.now, p, nil)
	return p
}

// proc readies a process for a life running fn: one this Sim finished
// with, else one from the package's pool, else a new one.
func (s *Sim) proc(name string, fn func(p *Proc)) *Proc {
	s.spawns++
	var p *Proc
	if n := len(s.procFree); n > 0 {
		p = s.procFree[n-1]
		s.procFree[n-1] = nil
		s.procFree = s.procFree[:n-1]
		s.procReuses++
	} else if p = takeIdle(); p != nil {
		p.sim = s
		s.procReuses++
	} else {
		p = &Proc{sim: s, resume: make(chan struct{})}
		go p.loop()
	}
	p.name = name
	p.daemon = false
	p.parkedOn = ""
	p.gen++
	p.fn = fn
	p.state = stateRunnable
	s.procs[p] = struct{}{}
	return p
}

// loop is the body of a process goroutine: wait to be resumed, run one
// life, pool the Proc for the next Spawn, pass the clock on. Only one
// goroutine holds the clock at a time and it changes hands through a
// channel, so procFree and the Proc fields are handed over race-free.
// Between lives the Proc may change Sims, so sim is read afresh on every
// resume; nil means the package's pool dismissed it.
func (p *Proc) loop() {
	var head [32]byte
	p.g = goroutineID(head[:runtime.Stack(head[:], false)])
	own := false // the event that starts the next life was dispatched here
	for {
		if !own {
			<-p.resume // wait for first scheduling of this life
		}
		s := p.sim
		switch {
		case s == nil:
			return
		case s.closed:
			// Spawned and never started: nothing to unwind.
			delete(s.procs, p)
			s.yield <- struct{}{}
			return
		}
		p.runLife()
		switch {
		case s.closed:
			s.yield <- struct{}{}
			return
		case len(s.procFree) < maxProcFree:
			s.procFree = append(s.procFree, p)
			// A callback dispatched here may Spawn this very Proc back out
			// of the pool, or a daemon's round start on it; its next life
			// then starts without a receive.
			own = s.next(p)
		default:
			s.next(nil)
			return
		}
	}
}

// releaseIdle hands the Sim's finished processes to the package's pool,
// dismissing those past its bound. Their goroutines are all parked
// awaiting a resume, so nothing reads the cleared sim until the next
// Spawn hands them out again, or a dismissal makes them exit.
func (s *Sim) releaseIdle() {
	for _, p := range s.procFree {
		p.sim = nil
	}
	idle.Lock()
	keep := min(len(s.procFree), maxProcFree-len(idle.procs))
	idle.procs = append(idle.procs, s.procFree[:keep]...)
	idle.Unlock()
	for _, p := range s.procFree[keep:] {
		p.resume <- struct{}{}
	}
	clear(s.procFree)
	s.procFree = s.procFree[:0]
}

// Close ends the simulation: every process still alive — a daemon parked
// mid-round, a process a deadlocked Run left behind — is resumed into a
// sentinel panic that runs its deferred calls. Until then those
// goroutines pin everything the processes reference, the whole simulated
// cluster included. A Sim whose Run returned with no process alive needs no Close to be collected:
// Run already handed its idle goroutines to the package's pool, and
// daemons hold no process between rounds. Close must be called from
// outside the simulation, after Run has returned; the Sim must not be
// used afterwards.
func (s *Sim) Close() {
	s.closed = true
	// A process whose deferred calls block again is still in procs
	// after one round, and is killed again in the next.
	for len(s.procs) > 0 {
		for p := range s.procs {
			p.killed = true
			p.resume <- struct{}{}
			<-s.yield
		}
	}
	s.releaseIdle()
}

// runLife executes the process body, unwinding cleanly under Close.
func (p *Proc) runLife() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(interrupted); !ok {
				// Not Close's: the body's own panic crashes the program
				// from here, where its stack is.
				panic(r)
			}
		}
		p.state = stateDone
		p.fn = nil
		delete(p.sim.procs, p)
	}()
	p.state = stateRunning
	p.fn(p)
}

// Daemon is a background service — a writeback flusher, a poller, a
// sweeper — that holds no process between rounds. Each round is started
// by one daemon event and runs on a process from the pool, which goes
// back when the round returns. A round's events do not keep Run going,
// and a round parked when the queue drains is not a deadlock. A round
// that never returns — a benchmark's background load — holds its process,
// and through it the Sim, until Close.
type Daemon struct {
	sim   *Sim
	name  string
	every Duration           // Every's period
	round func(p *Proc) bool // true: tick again in every
	body  func(p *Proc)      // run, bound once: starting a round allocates nothing
	busy  bool               // a woken round is scheduled or running
}

func (s *Sim) daemon(name string, every Duration, round func(p *Proc) bool) *Daemon {
	d := &Daemon{sim: s, name: name, every: every, round: round}
	d.body = d.run
	return d
}

// Every runs round on a daemon process every d of virtual time, the
// first time d from now, until a round returns false. It matches the
// loop `for { p.Sleep(d); if !round(p) { return } }` run as one woken
// NewDaemon round event for event: its start takes the place in the
// queue that the round's start does (an ordinary event, though, which
// keeps Run going), each tick is scheduled where the loop's Sleep
// schedules its wake, and the tick hands the clock straight to the
// round's process.
func (s *Sim) Every(name string, d Duration, round func(p *Proc) bool) {
	s.After(0, s.daemon(name, d, round).arm)
}

// NewDaemon returns a daemon that runs round once each time it is woken.
func (s *Sim) NewDaemon(name string, round func(p *Proc)) *Daemon {
	return s.daemon(name, 0, func(p *Proc) bool { round(p); return false })
}

// Wake starts a round at the current instant, behind the events already
// due, unless one is scheduled or running — as a Signal broadcast
// resumes a service process parked at the top of its loop and passes
// over one that is busy.
func (d *Daemon) Wake() {
	if !d.busy {
		d.busy = true
		d.sim.scheduleDaemon(d.sim.now, d, nil)
	}
}

// arm schedules the daemon's next tick.
func (d *Daemon) arm() { d.sim.scheduleDaemon(d.sim.now.Add(d.every), d, nil) }

func (d *Daemon) run(p *Proc) {
	if d.round(p) {
		d.arm()
	} else {
		d.busy = false
	}
}

// AfterDaemon is After for a daemon's callback: it does not keep Run
// going.
func (s *Sim) AfterDaemon(d Duration, fn func()) {
	s.scheduleDaemon(s.now.Add(d), nil, fn)
}

// scheduleDaemon enqueues a daemon event: the start of one of d's
// rounds, or the callback fn.
func (s *Sim) scheduleDaemon(at Time, d *Daemon, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, fn: fn, round: d, daemon: true})
}

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now.Add(d), p, nil)
	p.state = stateRunnable
	p.switchOut()
}

// park blocks the process with no scheduled wakeup; some other process or
// callback must call unpark.
func (p *Proc) park(what string) {
	p.state = stateParked
	p.parkedOn = what
	if !p.daemon {
		p.sim.parkedUser++
	}
	p.switchOut()
}

// unpark schedules a parked process to resume at the current time.
func (p *Proc) unpark() {
	if p.sim.closed {
		// Close is unwinding every process; a deferred Release or
		// Broadcast may name one that is already gone.
		return
	}
	if p.state != stateParked {
		panic(fmt.Sprintf("simtime: unpark of non-parked proc %q", p.name))
	}
	p.state = stateRunnable
	p.parkedOn = ""
	if !p.daemon {
		p.sim.parkedUser--
	}
	p.sim.schedule(p.sim.now, p, nil)
}

// switchOut gives up the clock and returns once the process is resumed:
// at once if the next event due is its own, else after passing the clock
// on and being woken in turn. Under Close there is nothing to dispatch;
// the clock goes back to Close.
func (p *Proc) switchOut() {
	s := p.sim
	if s.closed {
		s.yield <- struct{}{}
		<-p.resume
	} else if !s.next(p) {
		<-p.resume
	}
	p.state = stateRunning
	if p.killed {
		p.killed = false
		panic(interrupted{})
	}
}

// next passes the clock on from the goroutine that holds it — self's,
// or with self nil one that has no process to be resumed as: Run's, or
// that of a process leaving the pool. It dispatches events in (time,
// sequence) order, advancing the clock: a callback runs here and now, a
// stale event is dropped, and the first event that resumes a process
// ends the dispatch. If that process is self, next reports true and the
// caller simply carries on: no goroutine was switched. Otherwise it has
// woken the process's goroutine, or Run's once only daemon activity
// remains, and the caller must touch no simulation state until it is
// resumed itself.
func (s *Sim) next(self *Proc) bool {
	for s.events.len() > 0 && (s.pending > 0 || s.parkedUser > 0) {
		e := s.events.pop()
		if !e.daemon {
			s.pending--
		}
		if e.at > s.now {
			s.now = e.at
		}
		switch {
		case e.fn != nil:
			e.fn()
		case e.round != nil:
			// The round starts here, on a pooled process, with no second
			// event: self, if it has just pooled itself.
			p := s.proc(e.round.name, e.round.body)
			p.daemon = true
			if p == self {
				return true
			}
			p.resume <- struct{}{}
			return false
		case e.proc.state == stateDone || e.proc.gen != e.procGen:
			// Stale event: the process finished (and possibly began a
			// new life via reuse) after this was scheduled.
		case e.proc == self:
			return true
		default:
			e.proc.resume <- struct{}{}
			return false
		}
	}
	s.yield <- struct{}{}
	return false
}

// Run executes the simulation until the event queue is exhausted or only
// daemon activity remains (daemon service loops would otherwise advance
// the clock forever). It returns the final virtual time. If non-daemon
// processes remain parked with nothing left to wake them, Run returns an
// error describing the deadlock.
//
// Run dispatches only until the first process is resumed; from there the
// processes pass the clock among themselves and the last one to find
// nothing left to dispatch wakes Run. No goroutine outlives Run on the
// Sim's behalf but a process still alive — parked, or asleep in a
// daemon's round: the finished ones go to the package's pool.
func (s *Sim) Run() (Time, error) {
	s.next(nil)
	<-s.yield
	s.releaseIdle()
	var stuck []string
	for p := range s.procs {
		if p.state == stateParked && !p.daemon {
			stuck = append(stuck, fmt.Sprintf("%s (waiting on %s)", p.name, p.parkedOn))
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return s.now, fmt.Errorf("simtime: deadlock, %d process(es) parked: %v", len(stuck), stuck)
	}
	return s.now, nil
}

// MustRun is Run but panics on deadlock; for tests and examples.
func (s *Sim) MustRun() Time {
	t, err := s.Run()
	if err != nil {
		panic(err)
	}
	return t
}
