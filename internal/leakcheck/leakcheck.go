// Package leakcheck reads the host resources a finished piece of work
// must give back — open descriptors and shared-memory file mappings —
// from /proc/self, and waits for them to settle back to a baseline. It
// is the one implementation behind every teardown invariant that counts
// them: the scenario runner's, and the tests that drop a simulation or
// a pool without closing it.
//
// Where the process has no /proc/self (off linux), nothing is counted
// and every check passes.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Counts is one reading of what the process holds.
type Counts struct {
	// FDs counts open descriptors, less anonymous inodes: the runtime's
	// poller (epoll, eventfd) appears with the first network or pipe use
	// and is never closed, so it is no case's leak.
	FDs int
	// Mappings counts mappings of shared-memory files: memfd_create
	// files and /dev/shm, which is what a sponge pool's slabs and a wire
	// client's passed generation table are.
	Mappings int
}

func (c Counts) String() string {
	return fmt.Sprintf("%d descriptors and %d shared-memory mappings", c.FDs, c.Mappings)
}

// Snapshot reads the process's counts; ok is false where there is no
// /proc/self to read them from.
func Snapshot() (c Counts, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return Counts{}, false
	}
	for _, e := range fds {
		// The directory's own descriptor is closed by now, and its
		// Readlink fails: it is not counted.
		if t, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && !strings.HasPrefix(t, "anon_inode:") {
			c.FDs++
		}
	}
	err = eachMapping(func(_, _ uintptr, path string) {
		if strings.HasPrefix(path, "/memfd:") || strings.HasPrefix(path, "/dev/shm/") {
			c.Mappings++
		}
	})
	return c, err == nil
}

// Settle collects garbage and waits up to timeout for the process to
// hold no more than base. Releases lag the code that drops a resource:
// a dropped pool's slabs go in a finalizer after the next collection,
// and a peer's connection closes when its goroutine sees the hang-up.
// It returns the last reading and whether it settled.
func Settle(base Counts, timeout time.Duration) (Counts, bool) {
	deadline := time.Now().Add(timeout)
	for {
		runtime.GC()
		now, ok := Snapshot()
		if !ok || (now.FDs <= base.FDs && now.Mappings <= base.Mappings) {
			return now, true
		}
		if time.Now().After(deadline) {
			return now, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Mapped reports whether any mapping of the process covers addr; false
// where there is no /proc/self.
func Mapped(addr uintptr) bool {
	found := false
	eachMapping(func(start, end uintptr, _ string) {
		found = found || (start <= addr && addr < end)
	})
	return found
}

// eachMapping calls fn with the range and path (empty when anonymous)
// of every line of /proc/self/maps.
func eachMapping(fn func(start, end uintptr, path string)) error {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(maps), "\n") {
		// start-end perms offset dev inode [path]
		f := strings.Fields(line)
		if len(f) < 5 {
			continue
		}
		lo, hi, _ := strings.Cut(f[0], "-")
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		path := ""
		if len(f) > 5 {
			path = f[5]
		}
		fn(uintptr(start), uintptr(end), path)
	}
	return nil
}
