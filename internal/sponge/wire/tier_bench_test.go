package wire

import (
	"bytes"
	"os"
	"testing"

	"spongefiles/internal/sponge"
)

// benchTierRead measures steady-state 64KiB chunk reads through one
// client against an in-process server, one rung of the transport tier
// ladder: same-host unix socket vs loopback TCP, pool-resident vs
// spill-file-backed (sendfile), vs the fd-passing pread fast path.
// `go test ./internal/sponge/wire -run '^$' -bench BenchmarkTier
// -benchtime 2s` (make bench-tier) prints the six rungs EXPERIMENTS.md's
// tier-ladder table is regenerated from.
func benchTierRead(b *testing.B, opts Options, dial func(*Server) (*Client, error), spill, fdPass bool) {
	const chunk = 64 << 10
	poolChunks := 4
	if spill {
		poolChunks = 1
	}
	srv, err := Serve(sponge.NewPool(chunk, poolChunks), "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := dial(srv)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	owner := sponge.TaskID{Node: 1, PID: 41}
	data := bytes.Repeat([]byte{0x5A}, chunk)
	var h int
	if spill {
		for i := 0; i < poolChunks; i++ {
			if _, err := c.AllocWrite(owner, data); err != nil {
				b.Fatal(err)
			}
		}
		if h, err = c.AllocWrite(owner, data); err != nil {
			b.Fatal(err)
		}
		if h&SpillHandleBit == 0 {
			b.Fatal("expected a spill handle")
		}
	} else if h, err = c.AllocWrite(owner, data); err != nil {
		b.Fatal(err)
	}
	if fdPass {
		if err := c.FetchPoolFDs(); err != nil {
			b.Skipf("fd passing unavailable: %v", err)
		}
	}
	buf := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := c.ReadInto(h, buf); err != nil || n != chunk {
			b.Fatalf("ReadInto = (%d, %v)", n, err)
		}
	}
}

func benchSockDir(b *testing.B) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "sp")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

func BenchmarkTierReadTCPLoopback(b *testing.B) {
	benchTierRead(b, Options{}, func(s *Server) (*Client, error) { return Dial(s.Addr()) }, false, false)
}

func BenchmarkTierReadUnixLocal(b *testing.B) {
	dir := benchSockDir(b)
	benchTierRead(b, Options{LocalSocketDir: dir},
		func(s *Server) (*Client, error) { return DialLocal(s.LocalSocket()) }, false, false)
}

func BenchmarkTierReadSpillTCPSendfile(b *testing.B) {
	benchTierRead(b, Options{SpillDir: os.TempDir()},
		func(s *Server) (*Client, error) { return Dial(s.Addr()) }, true, false)
}

func BenchmarkTierReadSpillUnixSendfile(b *testing.B) {
	dir := benchSockDir(b)
	benchTierRead(b, Options{LocalSocketDir: dir, SpillDir: os.TempDir()},
		func(s *Server) (*Client, error) { return DialLocal(s.LocalSocket()) }, true, false)
}

func BenchmarkTierReadSpillFDPread(b *testing.B) {
	dir := benchSockDir(b)
	benchTierRead(b, Options{LocalSocketDir: dir, SpillDir: os.TempDir()},
		func(s *Server) (*Client, error) { return DialLocal(s.LocalSocket()) }, true, true)
}

func BenchmarkTierReadPoolFDPread(b *testing.B) {
	dir := benchSockDir(b)
	benchTierRead(b, Options{LocalSocketDir: dir},
		func(s *Server) (*Client, error) { return DialLocal(s.LocalSocket()) }, false, true)
}
