package spongefiles_test

// Integration of the simulated sponge service with the real TCP wire
// transport: the allocator chain, tracker polling, and chunk reads all
// cross live sockets against wire servers, including the failure path
// where a server dies and its chunks surface ErrChunkLost after the
// retry budget.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// wireStack is a 4-node simulated service whose nodes 1..3 are backed
// by real TCP sponge servers; node 0 (the task's node) stays on the
// simulated fallback with a deliberately tiny local pool.
type wireStack struct {
	sim     *simtime.Sim
	c       *cluster.Cluster
	svc     *sponge.Service
	pools   map[int]*sponge.Pool
	servers map[int]*wire.Server
	tr      *wire.Transport
}

func newWireStack(t *testing.T, chunksPerServer int) *wireStack {
	t.Helper()
	cfg := cluster.PaperConfig()
	cfg.Workers = 4
	cfg.SpongeMemory = 2 * media.MB // two local chunks, the rest spills remote
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.LocalDiskEnabled = false // force the remote-memory path to carry the load
	svc := sponge.Start(c, scfg)

	s := &wireStack{
		sim: sim, c: c, svc: svc,
		pools:   make(map[int]*sponge.Pool),
		servers: make(map[int]*wire.Server),
	}
	addrs := make(map[int]string)
	for n := 1; n <= 3; n++ {
		pool := sponge.NewPool(svc.ChunkReal(), chunksPerServer)
		srv, err := wire.Serve(pool, "127.0.0.1:0", wire.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		s.pools[n] = pool
		s.servers[n] = srv
		addrs[n] = srv.Addr()
	}
	s.tr = wire.NewTransportOptions(addrs, svc.Transport(), wire.TransportOptions{})
	t.Cleanup(func() { s.tr.Close() })
	svc.SetTransport(s.tr)
	return s
}

// TestWireTransportRoundTrip drives a SpongeFile create → write → read
// → delete through three real TCP sponge servers and verifies the data
// and the pools' bookkeeping end to end.
func TestWireTransportRoundTrip(t *testing.T) {
	s := newWireStack(t, 8)
	chunk := s.svc.ChunkReal()
	data := make([]byte, 18*chunk+chunk/2)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}

	s.sim.Spawn("task", func(p *simtime.Proc) {
		agent := s.svc.NewAgent(s.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "tcp-spill")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write over wire: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		st := f.Stats()
		if st.ByKind[sponge.RemoteMem] == 0 {
			t.Errorf("no chunks went remote: stats %+v", st)
		}
		got := make([]byte, 0, len(data))
		buf := make([]byte, chunk)
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Errorf("read over wire: %v", err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("round trip corrupt: %d bytes back, want %d", len(got), len(data))
		}
		f.Delete(p)
	})
	s.sim.MustRun()

	// After Delete every pool is whole again: the frees crossed the
	// sockets too.
	for n := 1; n <= 3; n++ {
		if s.pools[n].Free() != s.pools[n].Chunks() {
			t.Errorf("node %d pool not drained after delete: %d/%d free",
				n, s.pools[n].Free(), s.pools[n].Chunks())
		}
	}
	// And every chunk buffer the windowed read checked out over the wire
	// came back to the service pool.
	if out := s.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Errorf("chunk buffers leaked across the wire path: outstanding = %d", out)
	}
}

// TestWireTransportGCSparesLiveTask puts a task on a wire-mapped node
// and two of its chunks in a simulated peer's pool. That peer's garbage
// collector delegates the liveness check to the owner's node, and a
// daemon knows no tasks: the fallback answers, so the chunks of a live
// task outlive the sweeps and those of a dead one — and only those — are
// reclaimed.
func TestWireTransportGCSparesLiveTask(t *testing.T) {
	cfg := cluster.PaperConfig()
	cfg.Workers = 2
	cfg.SpongeMemory = 2 * media.MB
	sim := simtime.New()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.LocalDiskEnabled = false
	svc := sponge.Start(c, scfg)
	srv, err := wire.Serve(sponge.NewPool(svc.ChunkReal(), 2), "127.0.0.1:0", wire.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := wire.NewTransportOptions(map[int]string{1: srv.Addr()}, svc.Transport(), wire.TransportOptions{})
	defer tr.Close()
	svc.SetTransport(tr)

	data := make([]byte, 4*svc.ChunkReal())
	for i := range data {
		data[i] = byte(i*11 + 7)
	}
	// spill writes the four chunks from node 1: two fill its own
	// simulated pool, two go to node 0's through the fallback.
	spill := func(p *simtime.Proc, agent *sponge.Agent) *sponge.File {
		f := agent.Create(p, "gc-over-tcp")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if st := f.Stats(); st.ByKind[sponge.LocalMem] != 2 || st.ByKind[sponge.RemoteMem] != 2 {
			t.Errorf("placement %+v, want 2 local and 2 remote", st.ByKind)
		}
		if free := svc.Servers[0].Pool().Free(); free != 0 {
			t.Errorf("node 0's simulated pool has %d chunks free, want 0", free)
		}
		return f
	}
	sim.Spawn("tasks", func(p *simtime.Proc) {
		live := svc.NewAgent(c.Nodes[1])
		f := spill(p, live)
		p.Sleep(2 * sponge.GCInterval)
		got := make([]byte, 0, len(data))
		buf := make([]byte, svc.ChunkReal())
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				t.Errorf("read at byte %d after two GC sweeps: %v", len(got), err)
				return
			}
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, data) {
			t.Error("live task's data corrupted across the GC sweeps")
		}
		f.Delete(p)
		live.Close()
		gcFreed := func() int64 {
			v, _ := svc.Metrics().Lookup(`sponge_gc_freed_chunks_total{node="0"}`)
			return v
		}
		if freed := gcFreed(); freed != 0 {
			t.Errorf("GC freed %d chunks of a live task", freed)
		}

		p.Sleep(2 * svc.Config.PollInterval)
		dead := svc.NewAgent(c.Nodes[1])
		spill(p, dead)
		dead.Close() // exits without deleting: four orphans, two on each node
		p.Sleep(2 * sponge.GCInterval)
		if freed := gcFreed(); freed != 2 {
			t.Errorf("GC freed %d chunks on node 0, want exactly the dead task's 2", freed)
		}
		if free := svc.TotalFreeChunks(); free != 4 {
			t.Errorf("%d of 4 simulated chunks free after the orphans were swept", free)
		}
	})
	sim.MustRun()
}

// TestWireTransportServerFailure kills one TCP server mid-read: its
// chunks must surface ErrChunkLost only after the retry budget is
// spent, while the tracker's next poll writes the dead server off.
func TestWireTransportServerFailure(t *testing.T) {
	s := newWireStack(t, 8)
	chunk := s.svc.ChunkReal()
	data := make([]byte, 18*chunk)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}

	s.sim.Spawn("task", func(p *simtime.Proc) {
		agent := s.svc.NewAgent(s.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "doomed")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write over wire: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}

		// Kill a server that actually holds chunks.
		victim := 0
		for n := 1; n <= 3; n++ {
			if s.pools[n].Free() < s.pools[n].Chunks() {
				victim = n
			}
		}
		if victim == 0 {
			t.Error("no server holds chunks; nothing to kill")
			return
		}
		s.servers[victim].Close()

		retriesBefore := f.Stats().Retries
		buf := make([]byte, chunk)
		var err error
		for {
			var n int
			n, err = f.Read(p, buf)
			if err != nil || n == 0 {
				break
			}
		}
		if !errors.Is(err, sponge.ErrChunkLost) {
			t.Errorf("read after server death = %v, want ErrChunkLost", err)
		}
		if f.Stats().Retries <= retriesBefore {
			t.Errorf("chunk declared lost without spending the retry budget (retries %d -> %d)",
				retriesBefore, f.Stats().Retries)
		}

		// The tracker's next poll sees the dead server as unreachable and
		// records zero free space for it.
		p.Sleep(2 * s.svc.Config.PollInterval)
		if v, _ := s.svc.Metrics().Lookup(fmt.Sprintf(`sponge_tracker_poll_drops_total{node="%d"}`, victim)); v == 0 {
			t.Error("tracker never recorded the dead server's poll as dropped")
		}
		// Delete with the dead server still down: its frees are lost (the
		// GC would reclaim them in a full deployment), but every locally
		// checked-out chunk buffer must still return to the pool.
		f.Delete(p)
	})
	s.sim.MustRun()
	if out := s.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Errorf("chunk buffers leaked on the failure path: outstanding = %d", out)
	}
}
