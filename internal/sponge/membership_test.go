package sponge

import (
	"bytes"
	"testing"

	"spongefiles/internal/simtime"
)

// readAll drains a closed SpongeFile through a small buffer.
func readAll(t *testing.T, p *simtime.Proc, f *File, size int) []byte {
	t.Helper()
	got := make([]byte, 0, size)
	buf := make([]byte, 1000)
	for {
		n, err := f.Read(p, buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if n == 0 {
			return got
		}
		got = append(got, buf[:n]...)
	}
}

// TestJoinNodeMidRun grows a full cluster by one node mid-run: the epoch
// bumps, every registry covers the new ID, the tracker advertises the
// newcomer immediately, and the very next spill lands chunks there.
func TestJoinNodeMidRun(t *testing.T) {
	r := newRig(t, 2, 4, nil) // 4 chunks per node
	if e := r.svc.MembershipEpoch(); e != 0 {
		t.Fatalf("epoch = %d before any change, want 0", e)
	}
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		// Fill both original pools: 4 local + 4 remote on node 1.
		f := agent.Create(p, "fill")
		if err := f.Write(p, pattern(8*r.svc.ChunkReal(), 1)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		defer f.Delete(p)

		n := r.svc.JoinNode()
		if n.ID != 2 {
			t.Errorf("joined node ID = %d, want 2", n.ID)
		}
		if e := r.svc.MembershipEpoch(); e != 1 {
			t.Errorf("epoch after join = %d, want 1", e)
		}
		if st := r.svc.NodeState(2); st != NodeLive {
			t.Errorf("joined node state = %s, want live", st)
		}
		if len(r.svc.Servers) != 3 {
			t.Errorf("servers = %d, want 3", len(r.svc.Servers))
		}
		// The tracker must advertise the newcomer before its next poll:
		// with nodes 0 and 1 full, a fresh spill's remote chunks can only
		// land on node 2.
		f2 := agent.Create(p, "after-join")
		if err := f2.Write(p, pattern(4*r.svc.ChunkReal(), 2)); err != nil {
			t.Errorf("write after join: %v", err)
		}
		if err := f2.Close(p); err != nil {
			t.Errorf("close after join: %v", err)
		}
		st := f2.Stats()
		if st.ByKind[RemoteMem] != 4 || st.ByKind[LocalDisk] != 0 {
			t.Errorf("post-join placement: %+v", st.ByKind)
		}
		if used := r.svc.Servers[2].Pool().Chunks() - r.svc.Servers[2].Pool().Free(); used != 4 {
			t.Errorf("new node holds %d chunks, want 4", used)
		}
		f2.Delete(p)
	})
	r.sim.MustRun()
}

// TestLeaveNodeEvacuatesAndForwards drains a node holding live remote
// chunks: the chunks move to another live server, stale references
// follow the forwarding table, and the file round-trips bit-exactly
// with zero lost chunks.
func TestLeaveNodeEvacuatesAndForwards(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	data := pattern(8*r.svc.ChunkReal(), 3)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "spill")
		if err := f.Write(p, data); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if f.Stats().ByKind[RemoteMem] != 4 {
			t.Fatalf("placement before leave: %+v", f.Stats().ByKind)
		}
		// Affinity put all 4 remote chunks on node 1; drain it.
		if err := r.svc.LeaveNode(p, 1); err != nil {
			t.Fatalf("leave: %v", err)
		}
		if st := r.svc.NodeState(1); st != NodeDeparted {
			t.Errorf("state after leave = %s, want departed", st)
		}
		if e := r.svc.MembershipEpoch(); e != 1 {
			t.Errorf("epoch after leave = %d, want 1", e)
		}
		if free := r.svc.Servers[2].Pool().Free(); free != 0 {
			t.Errorf("node 2 free = %d after evacuation, want 0", free)
		}
		// The file still holds (node 1, handle) references; reads must
		// chase the forwards to node 2.
		got := readAll(t, p, f, len(data))
		if !bytes.Equal(got, data) {
			t.Error("round trip corrupt after evacuation")
		}
		// Delete must free the evacuated chunks at their new home too.
		f.Delete(p)
		if free := r.svc.Servers[2].Pool().Free(); free != 4 {
			t.Errorf("node 2 free = %d after delete, want 4", free)
		}
	})
	r.sim.MustRun()
}

// TestLeaveOverlappingOwnerDelete: the owner deletes its file 1 ms into
// a planned leave of the node holding its remote chunks. The chunk being
// copied is freed under the copy; the evacuation must notice, free the
// copy at the target and move on — not free the original a second time.
func TestLeaveOverlappingOwnerDelete(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "spill")
		if err := f.Write(p, pattern(8*r.svc.ChunkReal(), 7)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		if f.Stats().ByKind[RemoteMem] != 4 {
			t.Errorf("placement before leave: %+v", f.Stats().ByKind)
			return
		}
		r.sim.Spawn("leave", func(p *simtime.Proc) {
			if err := r.svc.LeaveNode(p, 1); err != nil {
				t.Errorf("leave: %v", err)
			}
		})
		p.Sleep(simtime.Millisecond)
		f.Delete(p)
	})
	r.sim.MustRun()
	if st := r.svc.NodeState(1); st != NodeDeparted {
		t.Errorf("state after leave = %s, want departed", st)
	}
	for i, srv := range r.svc.Servers {
		if free := srv.Pool().Free(); free != 4 {
			t.Errorf("node %d: %d chunks free, want all 4", i, free)
		}
	}
	if out := r.svc.BufPoolStats().Outstanding(); out != 0 {
		t.Errorf("chunk buffers leaked: outstanding = %d", out)
	}
}

// TestLeaveNodeAbortsWithoutCapacity: when no live server can absorb the
// draining chunks, the leave reports the failure and the node returns to
// live service instead of stranding data.
func TestLeaveNodeAbortsWithoutCapacity(t *testing.T) {
	r := newRig(t, 2, 2, nil) // 2 chunks per node, nowhere to evacuate to
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "spill")
		if err := f.Write(p, pattern(4*r.svc.ChunkReal(), 4)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		defer f.Delete(p)
		if err := r.svc.LeaveNode(p, 1); err == nil {
			t.Fatal("leave succeeded with nowhere to evacuate to")
		}
		if st := r.svc.NodeState(1); st != NodeLive {
			t.Errorf("state after aborted leave = %s, want live", st)
		}
		// The node serves again: its chunks stay readable.
		got := readAll(t, p, f, 4*r.svc.ChunkReal())
		if len(got) != 4*r.svc.ChunkReal() {
			t.Errorf("read %d bytes after aborted leave", len(got))
		}
	})
	r.sim.MustRun()
}

// TestLeaveRejectsWrongState: draining, departed, and dead nodes cannot
// leave (again).
func TestLeaveRejectsWrongState(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		r.svc.FailNode(2)
		if err := r.svc.LeaveNode(p, 2); err == nil {
			t.Error("leave of a dead node succeeded")
		}
		if err := r.svc.LeaveNode(p, 1); err != nil {
			t.Errorf("leave of empty live node: %v", err)
		}
		if err := r.svc.LeaveNode(p, 1); err == nil {
			t.Error("second leave of a departed node succeeded")
		}
		if err := r.svc.LeaveNode(p, 99); err == nil {
			t.Error("leave of unknown node succeeded")
		}
		// Two state changes: one fail, one leave.
		if e := r.svc.MembershipEpoch(); e != 2 {
			t.Errorf("epoch = %d, want 2", e)
		}
	})
	r.sim.MustRun()
}

// TestDrainedNodeCannotReadvertiseByDelta: a server's free count reaches
// the tracker only by the poll, so the poll holds the draining rule. A
// planned leave frees chunks on the draining node as it evacuates them;
// every poll cycle that starts during the leave must still advertise 0
// for it, however much of its pool has come free. (A cycle already under
// way when the drain begins may still write the count it read before —
// the stale-free-list trade of §3.1.1, which AllocWrite's refusal covers.)
func TestDrainedNodeCannotReadvertiseByDelta(t *testing.T) {
	r := newRig(t, 3, 8, func(c *ServiceConfig) { c.PollInterval = simtime.Millisecond })
	// checked counts the watcher's samples taken after a full cycle that
	// began during the drain, with more of node 1's pool free than before.
	checked := 0
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "spill")
		if err := f.Write(p, pattern(14*r.svc.ChunkReal(), 9)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		defer f.Delete(p)
		if got := f.Stats().ByKind[RemoteMem]; got != 6 {
			t.Fatalf("placement before leave: %+v", f.Stats().ByKind)
		}
		p.Sleep(2 * r.svc.Config.PollInterval)
		if got := r.svc.Tracker.Advertised(1); got != 2 {
			t.Fatalf("before the leave node 1 advertises %d, want 2", got)
		}
		done := false
		r.sim.Spawn("watch", func(p *simtime.Proc) {
			drainSeen := int64(-1) // poll count when the drain was first seen
			for ; !done; p.Sleep(simtime.Millisecond / 2) {
				if !r.svc.retiring(1) {
					continue
				}
				polls := metricOf(t, r.svc, "sponge_tracker_polls_total")
				if drainSeen < 0 {
					drainSeen = polls
				}
				if polls < drainSeen+2 { // the second completion on began after the flip
					continue
				}
				if got := r.svc.Tracker.Advertised(1); got != 0 {
					t.Errorf("draining node 1 advertised %d chunks at %v", got, p.Now())
				}
				if r.svc.Servers[1].Pool().Free() > 2 {
					checked++
				}
			}
		})
		if err := r.svc.LeaveNode(p, 1); err != nil {
			t.Errorf("leave: %v", err)
		}
		done = true
	})
	r.sim.MustRun()
	if checked == 0 {
		t.Fatal("no poll cycle ran while node 1 drained with chunks come free; nothing was tested")
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

// recordingRevoker wraps a transport and records membership revocations,
// standing in for the wire transport's fd/mmap teardown.
type recordingRevoker struct {
	Transport
	revoked []int
}

func (rt *recordingRevoker) RevokePeer(node int) { rt.revoked = append(rt.revoked, node) }

// TestMembershipChangeRevokesPeer: both failure and planned departure
// must tear down the departed peer's cached transport state.
func TestMembershipChangeRevokesPeer(t *testing.T) {
	r := newRig(t, 3, 4, nil)
	rec := &recordingRevoker{Transport: r.svc.Transport()}
	r.svc.SetTransport(rec)
	r.sim.Spawn("task", func(p *simtime.Proc) {
		r.svc.FailNode(2)
		if err := r.svc.LeaveNode(p, 1); err != nil {
			t.Errorf("leave: %v", err)
		}
	})
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
