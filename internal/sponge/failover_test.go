package sponge

import (
	"bytes"
	"testing"

	"spongefiles/internal/simtime"
)

func TestTrackerFailover(t *testing.T) {
	r := newRig(t, 4, 8, func(c *ServiceConfig) { c.PollInterval = 500 * simtime.Millisecond })
	if r.svc.Tracker.Node().ID != 0 {
		t.Fatal("tracker should start on node 0")
	}
	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		p.Sleep(simtime.Second)
		r.svc.FailNode(0)
	})
	var st FileStats
	r.sim.Spawn("task", func(p *simtime.Proc) {
		// Wait until after the failure plus a watchdog cycle, then
		// spill from node 1: remote allocation must still work via the
		// re-elected tracker.
		p.Sleep(3 * simtime.Second)
		agent := r.svc.NewAgent(r.c.Nodes[1])
		defer agent.Close()
		f := agent.Create(p, "post-failover")
		if err := f.Write(p, pattern(12*r.svc.ChunkReal(), 1)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		st = f.Stats()
		f.Delete(p)
	})
	r.sim.MustRun()
	if got := metricOf(t, r.svc, "sponge_tracker_failovers_total"); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	if got := r.svc.Tracker.Node().ID; got != 1 {
		t.Fatalf("new tracker on node %d, want 1 (lowest live)", got)
	}
	if e := r.svc.Tracker.LeaderEpoch(); e != 2 {
		t.Fatalf("leader epoch = %d, want 2 (the dead leader's 1, plus one)", e)
	}
	// 8 local + 4 remote; the dead node 0 must not hold any chunk.
	if st.ByKind[RemoteMem] != 4 || st.ByKind[LocalDisk] != 0 {
		t.Fatalf("post-failover placement: %+v", st.ByKind)
	}
}

func TestDeadTrackerQueryDegradesToDisk(t *testing.T) {
	// With the tracker dead and the watchdog too slow to help, file
	// creation times out on the query and spills fall back to disk once
	// local memory is gone — the system degrades, never blocks.
	r := newRig(t, 3, 2, func(c *ServiceConfig) { c.PollInterval = simtime.Hour })
	var st FileStats
	r.sim.Spawn("task", func(p *simtime.Proc) {
		r.svc.FailNode(0) // tracker host
		agent := r.svc.NewAgent(r.c.Nodes[1])
		defer agent.Close()
		start := p.Now()
		f := agent.Create(p, "degraded")
		if p.Now().Sub(start) < queryTimeout {
			t.Error("create should wait out the query timeout")
		}
		if err := f.Write(p, pattern(5*r.svc.ChunkReal(), 2)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		st = f.Stats()
		f.Delete(p)
	})
	r.sim.MustRun()
	if st.ByKind[LocalMem] != 2 || st.ByKind[LocalDisk] != 3 || st.ByKind[RemoteMem] != 0 {
		t.Fatalf("degraded placement: %+v", st.ByKind)
	}
}

func TestEncryptionRoundTripAndConfidentiality(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	data := pattern(6*r.svc.ChunkReal()+99, 3)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		agent.EnableEncryption([]byte("task secret"))
		if !agent.EncryptionEnabled() {
			t.Error("encryption not enabled")
		}
		f := agent.Create(p, "sealed")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		// Confidentiality: the bytes at rest in any pool must not match
		// the plaintext.
		probe := make([]byte, r.svc.ChunkReal())
		for _, srv := range r.svc.Servers {
			for h := 0; h < srv.Pool().Chunks(); h++ {
				n, err := srv.Pool().Read(h, probe)
				if err != nil || n == 0 {
					continue
				}
				if bytes.Contains(data, probe[:min(n, 64)]) && n >= 64 {
					t.Error("plaintext visible in a sponge pool")
				}
			}
		}
		// Round trip: the owner still reads its data back intact.
		got := make([]byte, 0, len(data))
		buf := make([]byte, 4096)
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
			t.Error("encrypted round trip corrupt")
		}
		f.Delete(p)
	})
	r.sim.MustRun()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestEncryptionCostsCPU(t *testing.T) {
	measure := func(enc bool) simtime.Duration {
		r := newRig(t, 1, 64, func(c *ServiceConfig) { c.AsyncWriteDepth = 0 })
		var d simtime.Duration
		r.sim.Spawn("t", func(p *simtime.Proc) {
			agent := r.svc.NewAgent(r.c.Nodes[0])
			defer agent.Close()
			if enc {
				agent.EnableEncryption([]byte("k"))
			}
			f := agent.Create(p, "m")
			start := p.Now()
			if err := f.Write(p, pattern(16*r.svc.ChunkReal(), 1)); err != nil {
				t.Errorf("write: %v", err)
			}
			if err := f.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
			d = p.Now().Sub(start)
			f.Delete(p)
		})
		r.sim.MustRun()
		return d
	}
	plain, sealed := measure(false), measure(true)
	if sealed <= plain {
		t.Fatalf("encryption should cost virtual CPU: plain=%v sealed=%v", plain, sealed)
	}
}

func TestQuotaSweepReclaimsAndReports(t *testing.T) {
	r := newRig(t, 2, 8, func(c *ServiceConfig) {
		c.GCInterval = simtime.Second
		c.QuotaChunksPerTask = 6
	})
	var violators []TaskID
	r.svc.OnQuotaViolation = func(id TaskID) { violators = append(violators, id) }
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "hog")
		if err := f.Write(p, pattern(6*r.svc.ChunkReal(), 4)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		// An operator tightens the quota below the task's holdings; the
		// next sweep must reclaim the task's chunks and report it.
		r.svc.Config.QuotaChunksPerTask = 2
		p.Sleep(3 * simtime.Second)
	})
	r.sim.MustRun()
	if len(violators) == 0 {
		t.Fatal("quota sweep reported no violators")
	}
	if free := r.svc.Servers[0].Pool().Free(); free != 8 {
		t.Fatalf("free = %d, want all 8 reclaimed", free)
	}
}
