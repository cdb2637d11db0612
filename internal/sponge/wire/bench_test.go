package wire

import (
	"fmt"
	"sync/atomic"
	"testing"

	"spongefiles/internal/sponge"
)

// Wall-clock benchmarks of the real TCP sponge protocol over loopback:
// the pipelined client (Dial, multiplexed request IDs). The Parallel
// variants sweep the number of concurrent requesters (1, 4, 16 ×
// GOMAXPROCS) via sub-benchmarks, so one run covers the concurrency
// ladder.

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

func benchParallel(b *testing.B, size, conc int) {
	srv := benchServer(b, size, 64)
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, size)
	var pid atomic.Int64
	b.SetBytes(int64(size))
	b.SetParallelism(conc)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		owner := sponge.TaskID{Node: 1, PID: pid.Add(1)}
		readBuf := make([]byte, size)
		for pb.Next() {
			if err := spillCycle(c, owner, data, readBuf); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// The pipelined client shared by concurrent goroutines: many requests
// in flight over one socket.
func BenchmarkWireAllocWriteReadFreeParallel(b *testing.B) {
	for _, s := range benchSizes {
		for _, conc := range benchConcs {
			b.Run(fmt.Sprintf("%s/conc%d", s.name, conc), func(b *testing.B) {
				benchParallel(b, s.size, conc)
			})
		}
	}
}
