package wire

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"spongefiles/internal/sponge"
)

// Wall-clock benchmarks of the real TCP sponge protocol over loopback
// through one Client, which runs one exchange at a time. The Parallel
// variants sweep the number of goroutines that contend for that client
// (1, 4, 16 × GOMAXPROCS) via sub-benchmarks, so one run covers the
// contention ladder; at every rung one request is in flight.

func benchServer(b *testing.B, chunkSize, chunks int) *Server {
	b.Helper()
	srv, err := Serve(sponge.NewPool(chunkSize, chunks), "127.0.0.1:0", Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

// spillCycle is one unit of benchmark work: spill a chunk, read it
// back, release it — three round trips.
func spillCycle(c *Client, owner sponge.TaskID, data, readBuf []byte) error {
	h, err := c.AllocWrite(owner, data)
	if err != nil {
		return err
	}
	if n, err := c.ReadInto(h, readBuf); err != nil {
		return err
	} else if n != len(data) {
		return fmt.Errorf("read %d bytes, want %d", n, len(data))
	}
	return c.Free(h)
}

func benchSequential(b *testing.B, size int) {
	srv := benchServer(b, size, 64)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	owner := sponge.TaskID{Node: 1, PID: 1}
	data := make([]byte, size)
	readBuf := make([]byte, size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spillCycle(c, owner, data, readBuf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParallel runs spill cycles from conc × GOMAXPROCS goroutines
// sharing one client. Each goroutine holds at most one chunk, so the
// pool has one per goroutine; a worker's error ends that worker, and the
// first one fails the benchmark once every worker is done.
func benchParallel(b *testing.B, size, conc int) {
	srv := benchServer(b, size, conc*runtime.GOMAXPROCS(0))
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, size)
	var pid atomic.Int64
	failed := make(chan error, 1)
	b.SetBytes(int64(size))
	b.SetParallelism(conc)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		owner := sponge.TaskID{Node: 1, PID: pid.Add(1)}
		readBuf := make([]byte, size)
		for pb.Next() {
			if err := spillCycle(c, owner, data, readBuf); err != nil {
				select {
				case failed <- err:
				default:
				}
				return
			}
		}
	})
	select {
	case err := <-failed:
		b.Fatal(err)
	default:
	}
}

var benchSizes = []struct {
	name string
	size int
}{
	{"64KiB", 64 << 10},
	{"1MiB", 1 << 20},
}

var benchConcs = []int{1, 4, 16}

func BenchmarkWireAllocWriteReadFree(b *testing.B) {
	benchSequential(b, 64<<10)
}

// One client shared by contending goroutines: they take turns on one
// socket, one request in flight.
func BenchmarkWireAllocWriteReadFreeParallel(b *testing.B) {
	for _, s := range benchSizes {
		for _, conc := range benchConcs {
			b.Run(fmt.Sprintf("%s/conc%d", s.name, conc), func(b *testing.B) {
				benchParallel(b, s.size, conc)
			})
		}
	}
}
