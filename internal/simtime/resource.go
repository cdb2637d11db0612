package simtime

// fifo is a first-in-first-out list whose pop is O(1): the head is an
// index into the slice, not a shift of it. The backing array is rewound
// when the list empties and compacted once half of it is dead, so a list
// of bounded length stops allocating.
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int { return len(f.items) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.items) == cap(f.items) && f.head >= (len(f.items)+1)/2 {
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
	}
	f.items = append(f.items, v)
}

// pop removes and returns the head; the list must not be empty.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.items[f.head]
	f.items[f.head] = zero
	f.head++
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	}
	return v
}

// Resource is a FIFO server with fixed capacity: up to cap processes may
// hold it simultaneously; further acquirers queue in arrival order. It
// models contended devices (a disk arm, a NIC) and bounded pools (task
// slots).
type Resource struct {
	name     string
	parkName string // "resource <name>", precomputed: park happens per wait
	cap      int
	inUse    int
	waiters  fifo[*Proc]
}

// NewResource creates a named resource with the given capacity (>= 1);
// the name appears in deadlock reports.
func NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("simtime: resource capacity must be >= 1")
	}
	return &Resource{name: name, parkName: "resource " + name, cap: capacity}
}

// Acquire blocks p until a unit of the resource is available, then holds it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap && r.waiters.len() == 0 {
		r.inUse++
		return
	}
	r.waiters.push(p)
	p.park(r.parkName)
	// Release handed its unit over before unparking: it is already ours.
}

// Release returns one unit. If processes are queued, the unit passes
// directly to the first waiter (FIFO).
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("simtime: release of idle resource " + r.name)
	}
	if r.waiters.len() > 0 {
		r.waiters.pop().unpark()
		return
	}
	r.inUse--
}

// Signal is a broadcast-style condition: processes Wait on it and are all
// woken by Broadcast. There is no associated predicate; callers re-check
// their condition after waking, as with sync.Cond.
type Signal struct {
	name     string
	parkName string // "signal <name>", precomputed: park happens per wait
	waiters  []*Proc
}

// NewSignal creates a named signal; the name appears in deadlock reports.
func NewSignal(name string) *Signal {
	return &Signal{name: name, parkName: "signal " + name}
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park(s.parkName)
}

// Broadcast wakes every waiting process at the current time. The waiter
// slice keeps its capacity: unpark only schedules the process (nothing
// re-enters Wait during the loop), so clearing in place is safe and the
// next Wait after a wake does not reallocate — hot wait/broadcast pairs
// (the readahead window's delivery signal) stay allocation-free.
func (s *Signal) Broadcast() {
	for _, w := range s.waiters {
		w.unpark()
	}
	for i := range s.waiters {
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}
