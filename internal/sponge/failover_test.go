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

// TestWatchdogPromotesStandbyOnHostDeath: the leader's host dies mid-run
// and the watchdog promotes the next node in line within one poll
// interval. The successor is elected cold — it carries no table over —
// so it polls every server before it answers: its table is full the
// moment the election lands, and a task spilling right then still
// reaches remote memory and never the dead node.
func TestWatchdogPromotesStandbyOnHostDeath(t *testing.T) {
	r := newRig(t, 4, 8, func(c *ServiceConfig) { c.PollInterval = simtime.Second })
	death := simtime.Second + simtime.Second/2
	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		p.Sleep(death)
		r.svc.FailNode(0)
	})
	var st FileStats
	r.sim.Spawn("task", func(p *simtime.Proc) {
		for metricOf(t, r.svc, "sponge_tracker_failovers_total") == 0 {
			p.Sleep(10 * simtime.Millisecond)
		}
		if lag := p.Now().Sub(simtime.Time(death)); lag > r.svc.Config.PollInterval+10*simtime.Millisecond {
			t.Errorf("successor elected %v after the host death, want within one poll interval", lag)
		}
		nt := r.svc.Tracker
		if got := nt.Advertised(0); got != 0 {
			t.Errorf("successor advertises %d chunks on the dead node 0", got)
		}
		for _, n := range []int{1, 2, 3} {
			if got := nt.Advertised(n); got != 8 {
				t.Errorf("successor advertises %d chunks on live node %d, want 8 from its own poll", got, n)
			}
		}
		agent := r.svc.NewAgent(r.c.Nodes[2])
		defer agent.Close()
		f := agent.Create(p, "post-failover")
		if err := f.Write(p, pattern(12*r.svc.ChunkReal(), 5)); err != nil {
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
		t.Fatalf("promoted tracker on node %d, want 1 (lowest live)", got)
	}
	if e := r.svc.Tracker.LeaderEpoch(); e != 2 {
		t.Fatalf("leader epoch = %d, want 2", e)
	}
	// 8 local + 4 remote, nothing on disk: the successor's first poll served.
	if st.ByKind[RemoteMem] != 4 || st.ByKind[LocalDisk] != 0 {
		t.Fatalf("post-failover placement: %+v", st.ByKind)
	}
}

// recordingRevoker wraps a transport and records peer revocations,
// standing in for the wire transport's fd/mmap teardown.
type recordingRevoker struct {
	Transport
	revoked []int
}

func (rt *recordingRevoker) RevokePeer(node int) { rt.revoked = append(rt.revoked, node) }

// TestMembershipChangeRevokesPeer: every node failure must tear down the
// dead peer's cached transport state, in the order the nodes die.
func TestMembershipChangeRevokesPeer(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	rec := &recordingRevoker{Transport: r.svc.Transport()}
	r.svc.SetTransport(rec)
	r.svc.FailNode(2)
	r.svc.FailNode(1)
	r.sim.MustRun()
	if len(rec.revoked) != 2 || rec.revoked[0] != 2 || rec.revoked[1] != 1 {
		t.Fatalf("revocations = %v, want [2 1]", rec.revoked)
	}
	// FaultTransport must forward revocations to its inner transport.
	r2 := newRig(t, 2, 4, nil)
	rec2 := &recordingRevoker{Transport: r2.svc.Transport()}
	r2.svc.SetTransport(NewFaultTransport(rec2, FaultConfig{Seed: 1}))
	r2.svc.FailNode(1)
	if len(rec2.revoked) != 1 || rec2.revoked[0] != 1 {
		t.Fatalf("revocations through FaultTransport = %v, want [1]", rec2.revoked)
	}
	r2.sim.MustRun()
}
