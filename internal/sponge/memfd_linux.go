//go:build linux

package sponge

import (
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// memfdNR is the memfd_create(2) syscall number for this architecture;
// 0 means unknown (the tmpfs fallback below is used instead). The
// number is not in the std syscall package on every toolchain, so it is
// spelled out here.
var memfdNR = map[string]uintptr{
	"amd64":   319,
	"386":     356,
	"arm":     385,
	"arm64":   279,
	"riscv64": 279,
	"loong64": 279,
	"ppc64":   360,
	"ppc64le": 360,
	"s390x":   350,
}[runtime.GOARCH]

// memfdCloexec is MFD_CLOEXEC: the descriptor must not leak into
// spawned children (it is passed deliberately over SCM_RIGHTS instead).
const memfdCloexec = 0x1

// poolSlab is one pool segment's backing store, or the generation
// table's. On linux a slab is an anonymous memory file (memfd_create, or
// an unlinked tmpfs file where the syscall is unavailable) mapped
// MAP_SHARED into the process: writes through data are immediately
// visible to anyone who preads the descriptor, which is what lets
// same-host clients holding the fd read chunks without the payload ever
// crossing a socket. The mapping belongs to a slabMap, which releases it
// when the pool is closed or, unclosed, dropped. When no file backing
// can be obtained the slab degrades to a plain heap allocation and the
// pool simply is not fd-passable.
type poolSlab struct {
	data []byte
	m    *slabMap // owner of data's mapping; nil when data is heap memory
}

// slabMap owns one slab's mapping and the memory file behind it. The
// collector cannot see an mmap, so a slabMap nobody references unmaps
// and closes from its finalizer: a Pool that is dropped without Close —
// every simulated node's, once its simulation is garbage — gives its
// memory back. The finalizer sits here and not on the Pool because a
// Pool is in a cycle (its drained condition locks &p.mu), and the
// runtime never finalizes an object in a cycle. A slabMap is referenced
// only by its poolSlab, so it becomes unreachable exactly when the Pool
// does; a slice into data is kept valid by the bracket that handed it
// out, whose closing call uses the Pool.
type slabMap struct {
	data []byte
	f    *os.File
}

// release unmaps the slab and closes its file. It runs once: from
// poolSlab.close, which clears the finalizer first, or as the finalizer.
func (m *slabMap) release() {
	syscall.Munmap(m.data)
	m.f.Close()
}

// newPoolSlab obtains n bytes of slab, preferring file-backed memory.
func newPoolSlab(n int, name string) poolSlab {
	if f := memfdFile(n, name); f != nil {
		data, err := syscall.Mmap(int(f.Fd()), 0, n,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		if err == nil {
			m := &slabMap{data: data, f: f}
			runtime.SetFinalizer(m, (*slabMap).release)
			return poolSlab{data: data, m: m}
		}
		f.Close()
	}
	return poolSlab{data: make([]byte, n)}
}

// memfdFile creates an n-byte anonymous memory file, or nil when the
// host cannot provide one.
func memfdFile(n int, name string) *os.File {
	if n <= 0 {
		return nil
	}
	if memfdNR != 0 {
		if p, err := syscall.BytePtrFromString(name); err == nil {
			fd, _, errno := syscall.Syscall(memfdNR, uintptr(unsafe.Pointer(p)), memfdCloexec, 0)
			if errno == 0 {
				f := os.NewFile(fd, name)
				if f.Truncate(int64(n)) == nil {
					return f
				}
				f.Close()
				return nil
			}
		}
	}
	// No memfd_create on this kernel/arch: an unlinked tmpfs file is
	// the same thing for our purposes (fd-passable, page-cache backed).
	f, err := os.CreateTemp("/dev/shm", name+"-*")
	if err != nil {
		return nil
	}
	os.Remove(f.Name())
	if f.Truncate(int64(n)) != nil {
		f.Close()
		return nil
	}
	return f
}

// file returns the slab's backing descriptor, nil when heap-backed.
func (s *poolSlab) file() *os.File {
	if s.m == nil {
		return nil
	}
	return s.m.f
}

// uint64s views the slab's first n*8 bytes as a []uint64, for the
// generation table that must be visible to fd-holding peers. The mmap
// is page-aligned, so the view is safely aligned for atomics.
func (s *poolSlab) uint64s(n int) []uint64 {
	if len(s.data) < n*8 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s.data[0])), n)
}

// close unmaps and releases the slab now, in place of its finalizer. The
// backing pages survive in the kernel for as long as any passed
// descriptor stays open elsewhere; only this process's view goes away.
func (s *poolSlab) close() {
	if s.m != nil {
		runtime.SetFinalizer(s.m, nil)
		s.m.release()
	}
	*s = poolSlab{}
}

// newGenSlab builds the pool's generation table: one u64 per chunk,
// file-backed so it can be passed (and mmapped read-only) alongside the
// segment descriptors. Falls back to a heap table when no file-backed
// memory is available — the pool then refuses fd-passing but the
// in-process seqlock protocol is unchanged.
func newGenSlab(nchunks int) (poolSlab, []uint64) {
	if nchunks > 0 {
		slab := newPoolSlab(nchunks*8, "sponge-pool-meta")
		if slab.m != nil {
			return slab, slab.uint64s(nchunks)
		}
		slab.close()
	}
	return poolSlab{}, make([]uint64, nchunks)
}
