package spongefiles_test

// Integration of the simulated sponge service with the zero-copy local
// transport tier: every wire server also listens on a per-node unix
// socket, the transport auto-selects the socket for these same-host
// peers, and (on linux) spilled chunks come back via sendfile or the
// fd-passing pread fast path. The SpongeFile API on top must not be
// able to tell the difference — same data, same bookkeeping.

import (
	"bytes"
	"os"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// tierStack mirrors wireStack, but its servers carry the full local
// tier: unix sockets in one shared directory plus a spill file each, so
// overflow past the tiny server pools lands on disk and reads exercise
// the zero-copy serve path.
type tierStack struct {
	sim     *simtime.Sim
	c       *cluster.Cluster
	svc     *sponge.Service
	servers map[int]*wire.Server
	tr      *wire.Transport
}

func newTierStack(t *testing.T, chunksPerServer int) *tierStack {
	t.Helper()
	sockDir, err := os.MkdirTemp("", "sp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(sockDir) })

	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	cfg.SpongeMemory = 2 * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.LocalDiskEnabled = false
	svc := sponge.Start(c, scfg)

	s := &tierStack{sim: sim, c: c, svc: svc, servers: make(map[int]*wire.Server)}
	addrs := make(map[int]string)
	for n := 1; n <= 3; n++ {
		pool := sponge.NewPool(svc.ChunkReal(), chunksPerServer)
		srv, err := wire.Serve(pool, "127.0.0.1:0", wire.Options{
			LocalSocketDir: sockDir,
			SpillDir:       t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		s.servers[n] = srv
		addrs[n] = srv.Addr()
	}
	s.tr = wire.NewTransportOptions(addrs, svc.Transport(), wire.TransportOptions{
		SocketDir: sockDir,
	})
	t.Cleanup(func() { s.tr.Close() })
	svc.SetTransport(s.tr)
	return s
}

func (s *tierStack) tierCount(t *testing.T, tier string) int64 {
	t.Helper()
	samples, err := obs.ParseText(s.tr.Metrics().Text())
	if err != nil {
		t.Fatal(err)
	}
	return samples[`sponge_transport_tier_total{tier="`+tier+`"}`]
}

// TestTierIntegrationUnixRoundTrip drives a SpongeFile create → write →
// read → delete where every remote chunk crosses a unix socket instead
// of TCP, spilling past the tiny server pools into the servers' disk
// tier, and verifies the data survives and every wire operation rode
// the unix tier.
func TestTierIntegrationUnixRoundTrip(t *testing.T) {
	s := newTierStack(t, 2) // 2 chunks of pool per server: most chunks spill to disk
	chunk := s.svc.ChunkReal()
	data := make([]byte, 18*chunk+chunk/3)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}

	s.sim.Spawn("task", func(p *simtime.Proc) {
		agent := s.svc.NewAgent(s.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "tier-it")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		got := make([]byte, 0, len(data))
		buf := make([]byte, chunk)
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Error("read-back corrupt across the unix tier")
		}
		f.Delete(p)
	})
	s.sim.MustRun()

	if n := s.tierCount(t, "unix"); n == 0 {
		t.Error("no operations took the unix tier")
	}
	if n := s.tierCount(t, "tcp"); n != 0 {
		t.Errorf("%d operations leaked onto TCP despite live sockets", n)
	}

	// The tiny pools forced overflow: some chunks really lived in the
	// spill files and were served back zero-copy (or via the portable
	// fallback off-linux). Delete then freed everything.
	var spillAllocs int64
	for n, srv := range s.servers {
		samples, err := obs.ParseText(srv.Metrics().Text())
		if err != nil {
			t.Fatal(err)
		}
		listen := `{listen="` + srv.Addr() + `"}`
		spillAllocs += samples["spongewire_spill_allocs_total"+listen]
		if live := samples["spongewire_spill_chunks"+listen]; live != 0 {
			t.Errorf("server %d: %d spill chunks leaked", n, live)
		}
	}
	if spillAllocs == 0 {
		t.Error("no chunk overflowed into the disk tier; the stack under-fills its pools")
	}
	if out := s.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Errorf("%d service buffers leaked", out)
	}
}

// TestTierIntegrationPoolFDNoPayloadOnSocket drives a SpongeFile round
// trip where every remote chunk stays pool-resident (ample pools, no
// spill tier) over same-host unix sockets. With the pool descriptors
// passed at dial time, the clients pread every chunk straight from the
// mapped segments: the servers must see only pool_loc exchanges — not a
// single OpRead — proving the payloads never crossed the socket.
func TestTierIntegrationPoolFDNoPayloadOnSocket(t *testing.T) {
	sockDir, err := os.MkdirTemp("", "sp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(sockDir) })

	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	cfg.SpongeMemory = 2 * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.LocalDiskEnabled = false
	svc := sponge.Start(c, scfg)

	servers := make(map[int]*wire.Server)
	addrs := make(map[int]string)
	for n := 1; n <= 3; n++ {
		pool := sponge.NewPool(svc.ChunkReal(), 32) // ample: nothing spills
		srv, err := wire.Serve(pool, "127.0.0.1:0", wire.Options{
			LocalSocketDir: sockDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[n] = srv
		addrs[n] = srv.Addr()
	}
	tr := wire.NewTransportOptions(addrs, svc.Transport(), wire.TransportOptions{
		SocketDir: sockDir,
	})
	t.Cleanup(func() { tr.Close() })
	svc.SetTransport(tr)

	chunk := svc.ChunkReal()
	data := make([]byte, 9*chunk+chunk/2)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	sim.Spawn("task", func(p *simtime.Proc) {
		agent := svc.NewAgent(c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "poolfd-it")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		got := make([]byte, 0, len(data))
		buf := make([]byte, chunk)
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Error("read-back corrupt across the pool-fd tier")
		}
		f.Delete(p)
	})
	sim.MustRun()

	samples, err := obs.ParseText(tr.Metrics().Text())
	if err != nil {
		t.Fatal(err)
	}
	if n := samples[`sponge_transport_tier_total{tier="tcp"}`]; n != 0 {
		t.Errorf("%d operations leaked onto TCP despite live sockets", n)
	}
	if samples[`sponge_transport_tier_total{tier="unix"}`] == 0 {
		t.Fatal("no operations took the unix tier")
	}
	if samples[`sponge_transport_tier_total{tier="pool_fd"}`] == 0 {
		// Portable build, or a host whose pool cannot be file-backed:
		// the reads were still correct, just served over the socket.
		t.Skip("pool-fd fast path unavailable on this host")
	}
	if n := samples[`sponge_poolfd_gen_miss_total`]; n != 0 {
		t.Errorf("%d generation misses in an uncontended run, want 0", n)
	}
	// Placement may favour one remote node, so pool_loc traffic is
	// asserted in aggregate; OpRead must be absent on every server.
	var locs int64
	for n, srv := range servers {
		ss, err := obs.ParseText(srv.Metrics().Text())
		if err != nil {
			t.Fatal(err)
		}
		labels := `{listen="` + srv.Addr() + `",op="`
		if reads := ss["spongewire_requests_total"+labels+`read"}`]; reads != 0 {
			t.Errorf("server %d answered %d OpReads; pool payloads crossed the socket", n, reads)
		}
		locs += ss["spongewire_requests_total"+labels+`pool_loc"}`]
	}
	if locs == 0 {
		t.Error("no server saw a pool_loc exchange despite pool-fd preads")
	}
}
