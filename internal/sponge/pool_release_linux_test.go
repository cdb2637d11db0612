//go:build linux

package sponge

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"spongefiles/internal/leakcheck"
)

// writtenPool builds a pool of two segments with a chunk written in
// each, and returns it with the address of each of its mapped slabs:
// the generation table and both segments.
func writtenPool(t *testing.T) (*Pool, []uintptr) {
	t.Helper()
	p := NewPool(512, segmentChunks+2)
	owner := TaskID{Node: 1, PID: 21}
	for i := 0; i <= segmentChunks; i++ {
		if _, err := p.Alloc(owner); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []int{0, segmentChunks} {
		if err := p.Write(h, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	var addrs []uintptr
	for _, s := range []poolSlab{p.genSlab, p.segments[0], p.segments[1]} {
		if s.m == nil {
			t.Skip("pool not file-backed on this host")
		}
		addrs = append(addrs, uintptr(unsafe.Pointer(&s.data[0])))
	}
	for i, a := range addrs {
		if !leakcheck.Mapped(a) {
			t.Fatalf("slab %d at %#x is not in /proc/self/maps", i, a)
		}
	}
	return p, addrs
}

// collectUntil runs up to three collections, giving the finalizers each
// one queues a moment to run, until done reports true.
func collectUntil(done func() bool) {
	for round := 0; round < 3 && !done(); round++ {
		runtime.GC()
		for deadline := time.Now().Add(100 * time.Millisecond); !done() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
}

// A pool dropped without Close unmaps its slabs once it is collected:
// the collector cannot see a mapping, so without an owner that releases
// it every simulated node's pool outlived its simulation.
func TestDroppedPoolIsUnmapped(t *testing.T) {
	_, addrs := writtenPool(t)
	mapped := func() (n int) {
		for _, a := range addrs {
			if leakcheck.Mapped(a) {
				n++
			}
		}
		return n
	}
	collectUntil(func() bool { return mapped() == 0 })
	if n := mapped(); n > 0 {
		t.Fatalf("%d of %d slabs of a dropped pool still mapped after three collections", n, len(addrs))
	}
}

// Close releases the slabs itself and clears their finalizers, so a
// closed pool that is then dropped releases nothing a second time. A
// second munmap would take down whatever the kernel has since mapped at
// the address — here, most likely, the next pool's slabs.
func TestClosedPoolReleasesOnce(t *testing.T) {
	var collected atomic.Int32
	addrs := func() []uintptr {
		p, addrs := writtenPool(t)
		owners := []*slabMap{p.genSlab.m, p.segments[0].m, p.segments[1].m}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		for i, a := range addrs {
			if leakcheck.Mapped(a) {
				t.Fatalf("slab %d still mapped after Close", i)
			}
		}
		// SetFinalizer throws (a fatal error, not a failure) on an object
		// whose finalizer is still set: Close must have cleared each. The
		// probe in its place counts the owners' collection.
		for _, m := range owners {
			runtime.SetFinalizer(m, func(*slabMap) { collected.Add(1) })
		}
		return addrs
	}()
	q, qaddrs := writtenPool(t)
	defer q.Close()
	reused := 0
	for _, a := range addrs {
		for _, b := range qaddrs {
			if a == b {
				reused++
			}
		}
	}
	t.Logf("%d of %d slab addresses reused by the second pool", reused, len(addrs))

	collectUntil(func() bool { return collected.Load() == int32(len(addrs)) })
	if n := collected.Load(); n != int32(len(addrs)) {
		t.Fatalf("%d of %d slab owners collected after the closed pool was dropped", n, len(addrs))
	}
	for i, a := range qaddrs {
		if !leakcheck.Mapped(a) {
			t.Fatalf("the live pool's slab %d was unmapped when the closed pool was collected", i)
		}
	}
	buf := make([]byte, 16)
	for _, h := range []int{0, segmentChunks} {
		if n, err := q.Read(h, buf); err != nil || string(buf[:n]) != "payload" {
			t.Fatalf("live pool chunk %d after the closed pool was collected: %q, %v", h, buf[:n], err)
		}
	}
}
