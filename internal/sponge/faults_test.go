package sponge

import (
	"bytes"
	"errors"
	"testing"

	"spongefiles/internal/cluster"
	"spongefiles/internal/simtime"
)

// flakyTransport fails the first failN exchanges of each operation kind
// with ErrPeerUnreachable, then delivers — the deterministic way to
// exercise the retry loop without probability.
type flakyTransport struct {
	inner Transport
	failN int
	fails int
}

func (ft *flakyTransport) Peer(node int) Peer {
	return flakyPeer{ft: ft, inner: ft.inner.Peer(node)}
}

type flakyPeer struct {
	ft    *flakyTransport
	inner Peer
}

func (fp flakyPeer) lose() error {
	if fp.ft.fails < fp.ft.failN {
		fp.ft.fails++
		return ErrPeerUnreachable
	}
	return nil
}

func (fp flakyPeer) AllocWrite(p *simtime.Proc, from *cluster.Node, owner TaskID, data []byte) (int, error) {
	if err := fp.lose(); err != nil {
		return 0, err
	}
	return fp.inner.AllocWrite(p, from, owner, data)
}

func (fp flakyPeer) Read(p *simtime.Proc, to *cluster.Node, handle int, buf []byte) (int, error) {
	if err := fp.lose(); err != nil {
		return 0, err
	}
	return fp.inner.Read(p, to, handle, buf)
}

func (fp flakyPeer) Free(p *simtime.Proc, from *cluster.Node, handle int) error {
	if err := fp.lose(); err != nil {
		return err
	}
	return fp.inner.Free(p, from, handle)
}

func (fp flakyPeer) FreeSpace(p *simtime.Proc, from *cluster.Node) (int, error) {
	if err := fp.lose(); err != nil {
		return 0, err
	}
	return fp.inner.FreeSpace(p, from)
}

func (fp flakyPeer) TaskAlive(p *simtime.Proc, from *cluster.Node, pid int64) (bool, error) {
	if err := fp.lose(); err != nil {
		return false, err
	}
	return fp.inner.TaskAlive(p, from, pid)
}

// TestRetryRecoversLostExchange loses the first two alloc exchanges;
// the retry budget (retryLimit, 2) absorbs them and the chunk still lands
// in remote memory, with the retries counted.
func TestRetryRecoversLostExchange(t *testing.T) {
	r := newRig(t, 2, 2, nil) // two local chunks; the rest must go remote
	r.svc.SetTransport(&flakyTransport{inner: r.svc.Transport(), failN: 2})
	data := pattern(4*r.svc.ChunkReal(), 3)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	if st.ByKind[RemoteMem] == 0 {
		t.Fatalf("no remote chunks despite retries: %+v", st)
	}
	if st.ByKind[LocalDisk] != 0 {
		t.Fatalf("fell to disk although the retry budget covered the faults: %+v", st)
	}
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

// TestExhaustedRetriesBlacklistCandidate drops more exchanges than the
// retry budget: the lone remote candidate is written off and the file
// degrades to local disk, exactly like a stale free-list entry.
func TestExhaustedRetriesBlacklistCandidate(t *testing.T) {
	r := newRig(t, 2, 2, nil)
	r.svc.SetTransport(&flakyTransport{inner: r.svc.Transport(), failN: 100})
	data := pattern(4*r.svc.ChunkReal(), 4)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	if st.ByKind[RemoteMem] != 0 {
		t.Fatalf("chunks went remote through a dead link: %+v", st)
	}
	if st.ByKind[LocalDisk] == 0 {
		t.Fatalf("no disk fallback after blacklisting: %+v", st)
	}
	// At least one full retry budget was spent before the blacklist
	// (concurrent async writers may each spend their own before the
	// first one's verdict lands).
	if st.Retries < retryLimit {
		t.Fatalf("retries = %d, want >= %d", st.Retries, retryLimit)
	}
}

// TestPartitionForcesDiskFallback cuts the link to the only remote node
// in the fault transport: every exchange to it times out, the write path
// blacklists it, and the data lands on disk. Healing the partition
// lets a later file spill remote again.
func TestPartitionForcesDiskFallback(t *testing.T) {
	r := newRig(t, 2, 2, nil)
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 1})
	r.svc.SetTransport(faults)
	faults.Cut(0, 1)

	data := pattern(4*r.svc.ChunkReal(), 5)
	f := writeReadDelete(t, r, 0, data)
	st := f.Stats()
	if st.ByKind[RemoteMem] != 0 {
		t.Fatalf("chunks crossed a partition: %+v", st)
	}
	if st.ByKind[LocalDisk] == 0 {
		t.Fatalf("no disk fallback under partition: %+v", st)
	}
	if metricOf(t, r.svc, "sponge_fault_blocked_total") == 0 {
		t.Fatal("partition never blocked an exchange")
	}

	faults.Heal(0, 1)
	f2 := writeReadDelete(t, r, 0, data)
	if st2 := f2.Stats(); st2.ByKind[RemoteMem] == 0 {
		t.Fatalf("no remote chunks after healing the partition: %+v", st2)
	}
}

// TestSeededDropsRoundTripAndDeterminism runs a spill under a 20% drop
// rate: the data must still round-trip bit-exactly (retries and disk
// fallback absorb the losses), and the same seed must inject exactly
// the same faults on a rerun.
func TestSeededDropsRoundTripAndDeterminism(t *testing.T) {
	type faultCounts struct{ exchanges, drops int64 }
	run := func() (FileStats, faultCounts) {
		r := newRig(t, 4, 2, nil)
		r.svc.SetTransport(NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 42, DropRate: 0.2}))
		data := pattern(6*r.svc.ChunkReal(), 6)
		f := writeReadDelete(t, r, 0, data)
		return f.Stats(), faultCounts{
			metricOf(t, r.svc, "sponge_fault_exchanges_total"),
			metricOf(t, r.svc, "sponge_fault_drops_total"),
		}
	}
	st1, fs1 := run()
	st2, fs2 := run()
	if fs1.drops == 0 {
		t.Fatalf("a 20%% drop rate dropped nothing over %d exchanges", fs1.exchanges)
	}
	if st1 != st2 || fs1 != fs2 {
		t.Fatalf("same seed diverged:\nrun1 %+v %+v\nrun2 %+v %+v", st1, fs1, st2, fs2)
	}
}

// TestLinkDropOverride cuts only one link: traffic to the other remote
// node is untouched, so chunks land there.
func TestLinkDropOverride(t *testing.T) {
	r := newRig(t, 3, 2, nil)
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 7})
	faults.Cut(0, 1)
	r.svc.SetTransport(faults)

	data := pattern(4*r.svc.ChunkReal(), 8)
	var file *File
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "spill")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		got := make([]byte, 0, len(data))
		buf := make([]byte, 1000)
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
			t.Error("round trip corrupt")
		}
		f.Delete(p)
		file = f
	})
	r.sim.MustRun()
	st := file.Stats()
	if st.ByKind[RemoteMem] == 0 {
		t.Fatalf("no remote chunks although node 2's link is clean: %+v", st)
	}
	if r.svc.Servers[1].Pool().Free() != r.svc.Servers[1].Pool().Chunks() {
		t.Fatal("chunks crossed the cut link to node 1")
	}
}

// TestElectTrackerAllNodesDead: with every node failed, election must
// report failure rather than install a tracker on a corpse.
func TestElectTrackerAllNodesDead(t *testing.T) {
	r := newRig(t, 3, 8, nil)
	for i := range r.svc.Servers {
		r.svc.FailNode(i)
	}
	before := metricOf(t, r.svc, "sponge_tracker_failovers_total")
	r.sim.Spawn("probe", func(p *simtime.Proc) {
		if r.svc.electTracker(p) {
			t.Error("electTracker found a live node in a fully dead cluster")
		}
	})
	r.sim.MustRun()
	if after := metricOf(t, r.svc, "sponge_tracker_failovers_total"); after != before {
		t.Fatalf("failover count moved on a failed election: %d -> %d", before, after)
	}
}

// TestWatchdogReelectionUnderPollDrops kills the tracker's host while
// the fault transport has cut the link to one server: the
// watchdog must still elect a successor, the successor's first poll
// records the unreachable server as empty, and after healing the next
// poll sees it again.
func TestWatchdogReelectionUnderPollDrops(t *testing.T) {
	r := newRig(t, 3, 8, nil)
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 3})
	r.svc.SetTransport(faults)

	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		// Node 2 becomes unreachable (polls to it drop), then the
		// tracker's own host dies.
		faults.Cut(1, 2)
		r.svc.FailNode(0)
		// The dead leader polls no more: every drop from here on is the
		// successor's.
		before := perNode(t, r.svc, "sponge_tracker_poll_drops_total")
		p.Sleep(3 * r.svc.Config.PollInterval)

		if metricOf(t, r.svc, "sponge_tracker_failovers_total") == 0 {
			t.Error("watchdog never re-elected a tracker")
		}
		nt := r.svc.Tracker
		if nt.Node().ID != 1 {
			t.Errorf("tracker elected on node %d, want 1 (lowest live)", nt.Node().ID)
		}
		// Per-node attribution: every drop belongs to node 2 (the cut
		// link). Node 0 is dead and skipped, node 1 is the tracker's own
		// loopback poll, so neither may accumulate drops.
		after := perNode(t, r.svc, "sponge_tracker_poll_drops_total")
		if after[2] == before[2] {
			t.Error("dropped polls to node 2 went uncounted")
		}
		if got := after[0] - before[0]; got != 0 {
			t.Errorf("dead node 0 attributed %d poll drops", got)
		}
		if got := after[1] - before[1]; got != 0 {
			t.Errorf("loopback poll to node 1 attributed %d drops", got)
		}
		if nt.Advertised(2) != 0 {
			t.Errorf("unreachable server advertised %d free chunks", nt.Advertised(2))
		}

		faults.Heal(1, 2)
		p.Sleep(2 * r.svc.Config.PollInterval)
		if nt.Advertised(2) == 0 {
			t.Error("healed server still invisible to the tracker")
		}
	})
	r.sim.MustRun()
}

// TestSimultaneousTrackerAndStorageDeath kills the tracker's host and a
// storage node in the same instant, under a seeded drop schedule: the
// watchdog must still elect a successor, chunks on the dead storage node
// are reported lost (and only those), and a job started after the
// double failure completes using the survivors.
func TestSimultaneousTrackerAndStorageDeath(t *testing.T) {
	r := newRig(t, 4, 4, func(c *ServiceConfig) { c.PollInterval = 500 * simtime.Millisecond })
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 11, DropRate: 0.05})
	r.svc.SetTransport(faults)

	data := pattern(8*r.svc.ChunkReal(), 10)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "before")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		if f.Stats().ByKind[RemoteMem] != 4 {
			t.Errorf("placement before the failures: %+v", f.Stats().ByKind)
		}
		// Affinity put the remote chunks on node 1; the local chunks and
		// the tracker share node 0. Kill both hosts at once.
		r.svc.FailNode(0) // tracker host and the file's local chunks
		r.svc.FailNode(1) // the file's remote chunks
		p.Sleep(3 * r.svc.Config.PollInterval)

		if got := metricOf(t, r.svc, "sponge_tracker_failovers_total"); got != 1 {
			t.Errorf("failovers = %d, want 1", got)
		}
		if got := r.svc.Tracker.Node().ID; got != 2 {
			t.Errorf("tracker elected on node %d, want 2 (lowest live)", got)
		}
		// Every chunk of the old file is gone with its hosts.
		buf := make([]byte, 100)
		if _, err := f.Read(p, buf); !errors.Is(err, ErrChunkLost) {
			t.Errorf("read of doubly-orphaned file = %v, want ErrChunkLost", err)
		}

		// A fresh job on a survivor must complete: 4 local on node 2,
		// 4 remote on node 3, zero lost.
		agent2 := r.svc.NewAgent(r.c.Nodes[2])
		defer agent2.Close()
		f2 := agent2.Create(p, "after")
		if err := f2.Write(p, data); err != nil {
			t.Errorf("write after double death: %v", err)
			return
		}
		if err := f2.Close(p); err != nil {
			t.Errorf("close after double death: %v", err)
			return
		}
		st := f2.Stats()
		if st.ByKind[RemoteMem] != 4 || st.ByKind[LocalDisk] != 0 {
			t.Errorf("post-failure placement: %+v", st.ByKind)
		}
		f2.Delete(p)
	})
	r.sim.MustRun()
}

// TestAsymmetricPartitionReelection: the tracker host dies while the
// surviving cluster is asymmetrically partitioned — the successor can
// reach one server but not the other, while a third node reaches both.
// Election must proceed from the successor's partial view: the
// unreachable server drops off the free list (drops attributed to it),
// the reachable one stays, and healing restores the full view.
func TestAsymmetricPartitionReelection(t *testing.T) {
	r := newRig(t, 4, 8, func(c *ServiceConfig) { c.PollInterval = 500 * simtime.Millisecond })
	faults := NewFaultTransport(r.svc.Transport(), FaultConfig{Seed: 13})
	r.svc.SetTransport(faults)

	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		// Node 1 (next in election order) cannot reach node 2; node 3
		// still reaches everyone — the classic asymmetric split-view.
		faults.Cut(1, 2)
		r.svc.FailNode(0)
		before := perNode(t, r.svc, "sponge_tracker_poll_drops_total") // the successor's drops start here
		p.Sleep(3 * r.svc.Config.PollInterval)

		nt := r.svc.Tracker
		if metricOf(t, r.svc, "sponge_tracker_failovers_total") == 0 {
			t.Error("watchdog never re-elected under the asymmetric partition")
		}
		if nt.Node().ID != 1 {
			t.Errorf("tracker elected on node %d, want 1", nt.Node().ID)
		}
		// The successor's view: node 2 invisible, node 3 visible.
		if nt.Advertised(2) != 0 {
			t.Errorf("unreachable node 2 advertises %d chunks", nt.Advertised(2))
		}
		if nt.Advertised(3) == 0 {
			t.Error("reachable node 3 missing from the free list")
		}
		var total int64
		after := perNode(t, r.svc, "sponge_tracker_poll_drops_total")
		for i := range after {
			total += after[i] - before[i]
		}
		if got := after[2] - before[2]; got == 0 || got != total {
			t.Errorf("node 2 attributed %d of %d poll drops", got, total)
		}

		// A task on node 3 (which reaches both) allocates remotely via
		// the tracker's partial view: chunks go to node 2? No — the
		// tracker cannot advertise what it cannot see. They go to node 1.
		agent := r.svc.NewAgent(r.c.Nodes[3])
		defer agent.Close()
		f := agent.Create(p, "partial-view")
		if err := f.Write(p, pattern(10*r.svc.ChunkReal(), 11)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		st := f.Stats()
		if st.ByKind[RemoteMem] != 2 {
			t.Errorf("placement under partial view: %+v", st.ByKind)
		}
		if used := r.svc.Servers[1].Pool().Chunks() - r.svc.Servers[1].Pool().Free(); used != 2 {
			t.Errorf("node 1 holds %d chunks, want 2 (the only advertised server)", used)
		}
		f.Delete(p)

		// Heal: the next poll restores node 2 to the free list.
		faults.Heal(1, 2)
		p.Sleep(2 * r.svc.Config.PollInterval)
		if nt.Advertised(2) == 0 {
			t.Error("healed node 2 still invisible")
		}
	})
	r.sim.MustRun()
}

// TestReadSurfacesChunkLostAfterRetries: a remote chunk whose host
// stays unreachable through the retry budget is reported lost with
// ErrChunkLost, the same verdict a failed node gets.
func TestReadSurfacesChunkLostAfterRetries(t *testing.T) {
	r := newRig(t, 2, 2, nil)
	flaky := &flakyTransport{inner: r.svc.Transport()}
	r.svc.SetTransport(flaky)

	data := pattern(4*r.svc.ChunkReal(), 9)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "spill")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		if f.Stats().ByKind[RemoteMem] == 0 {
			t.Error("no remote chunks to lose")
			return
		}
		flaky.failN = 1 << 30 // every exchange from now on is lost
		buf := make([]byte, 1000)
		var err error
		for {
			var n int
			n, err = f.Read(p, buf)
			if err != nil || n == 0 {
				break
			}
		}
		if !errors.Is(err, ErrChunkLost) {
			t.Errorf("read over dead link = %v, want ErrChunkLost", err)
		}
	})
	r.sim.MustRun()
}
