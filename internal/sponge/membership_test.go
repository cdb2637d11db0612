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

// TestWarmStandbyPromotion: with TrackerReplicas, a tracker-process
// crash promotes the standby, which serves from its handed-off snapshot
// immediately — zero polls of its own — under a bumped leader epoch.
func TestWarmStandbyPromotion(t *testing.T) {
	r := newRig(t, 3, 8, func(c *ServiceConfig) {
		c.TrackerReplicas = 1
		c.PollInterval = simtime.Hour // keep the daemons out of the way
	})
	if got := len(r.svc.Standbys()); got != 1 {
		t.Fatalf("standbys at start = %d, want 1", got)
	}
	if got := r.svc.Standbys()[0].Node().ID; got != 1 {
		t.Fatalf("standby on node %d, want 1", got)
	}
	r.sim.Spawn("probe", func(p *simtime.Proc) {
		r.svc.FailTracker()
		if !r.svc.electTracker(p) {
			t.Fatal("election failed with a live standby")
		}
		nt := r.svc.Tracker
		if nt.Node().ID != 1 {
			t.Errorf("promoted tracker on node %d, want 1", nt.Node().ID)
		}
		if nt.LeaderEpoch() != 2 {
			t.Errorf("leader epoch = %d, want 2", nt.LeaderEpoch())
		}
		if polls, _ := nt.Stats(); polls != 0 {
			t.Errorf("promoted standby polled %d times — promotion should be warm", polls)
		}
		// The handed-off snapshot serves allocation without any re-poll.
		if got := len(nt.Query(p, r.c.Nodes[2])); got == 0 {
			t.Error("promoted tracker's snapshot is empty")
		}
		// The replica set is topped back up from the survivors (node 0's
		// host is still alive — only the tracker process died).
		if got := len(r.svc.Standbys()); got != 1 {
			t.Errorf("standbys after promotion = %d, want 1", got)
		}
		if r.svc.Failovers() != 1 {
			t.Errorf("failovers = %d, want 1", r.svc.Failovers())
		}
	})
	r.sim.MustRun()
}

// TestWatchdogPromotesStandbyOnHostDeath is the end-to-end version: the
// leader's host dies mid-run, the watchdog promotes the standby, and a
// task spilling right after still reaches remote memory.
func TestWatchdogPromotesStandbyOnHostDeath(t *testing.T) {
	r := newRig(t, 4, 8, func(c *ServiceConfig) {
		c.TrackerReplicas = 2
		c.PollInterval = 500 * simtime.Millisecond
	})
	r.sim.Spawn("chaos", func(p *simtime.Proc) {
		p.Sleep(simtime.Second)
		r.svc.FailNode(0)
	})
	var st FileStats
	r.sim.Spawn("task", func(p *simtime.Proc) {
		p.Sleep(3 * simtime.Second)
		agent := r.svc.NewAgent(r.c.Nodes[1])
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
	if r.svc.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", r.svc.Failovers())
	}
	if got := r.svc.Tracker.Node().ID; got != 1 {
		t.Fatalf("promoted tracker on node %d, want 1 (first standby)", got)
	}
	if e := r.svc.Tracker.LeaderEpoch(); e != 2 {
		t.Fatalf("leader epoch = %d, want 2", e)
	}
	// 8 local + 4 remote, nothing on disk: the promoted tracker served.
	if st.ByKind[RemoteMem] != 4 || st.ByKind[LocalDisk] != 0 {
		t.Fatalf("post-failover placement: %+v", st.ByKind)
	}
}

// TestDeltaDisseminationConvergesWithoutPolling: under delta mode the
// tracker's snapshot follows pool churn via pushed reports while full
// polls stay parked until the anti-entropy cycle.
func TestDeltaDisseminationConverges(t *testing.T) {
	r := newRig(t, 3, 4, func(c *ServiceConfig) {
		c.DeltaDissemination = true
		// Anti-entropy runs every tenth cycle, past this run's end.
		c.PollInterval = 500 * simtime.Millisecond
	})
	r.sim.Spawn("task", func(p *simtime.Proc) {
		agent := r.svc.NewAgent(r.c.Nodes[0])
		defer agent.Close()
		f := agent.Create(p, "churn")
		if err := f.Write(p, pattern(8*r.svc.ChunkReal(), 6)); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
		defer f.Delete(p)
		// Two report intervals later the tracker must have heard that
		// node 1 is full — via deltas, not polls.
		p.Sleep(2 * r.svc.Config.PollInterval)
		nt := r.svc.Tracker
		if applied, _ := nt.DeltaStats(); applied == 0 {
			t.Error("no delta updates applied")
		}
		if polls, _ := nt.Stats(); polls != 0 {
			t.Errorf("tracker polled %d times in delta mode before anti-entropy", polls)
		}
		entries := nt.Query(p, r.c.Nodes[2])
		for _, e := range entries {
			if e.Key == 1 && e.Free > 0 {
				t.Errorf("tracker still advertises full node 1: %+v", entries)
			}
		}
	})
	r.sim.MustRun()
}

// TestDrainedNodeCannotReadvertiseByDelta: the simulated driver's own
// rule on top of the shared table — a report from a node that is no
// longer live is acked but not advertised. (That a duplicate or
// reordered sequence is dropped is the table's rule; the both-drivers
// script in wire/tracker_script_test.go checks it on both trackers.)
func TestDrainedNodeCannotReadvertiseByDelta(t *testing.T) {
	r := newRig(t, 2, 4, func(c *ServiceConfig) { c.PollInterval = simtime.Hour })
	r.sim.Spawn("probe", func(p *simtime.Proc) {
		nt := r.svc.Tracker
		if !nt.ReportDelta(p, r.c.Nodes[1], 5, 3) || nt.Advertised(1) != 3 {
			t.Errorf("live node's report: advertised %d, want 3", nt.Advertised(1))
		}
		r.svc.memberState[1] = NodeLeaving
		nt.table.Set(1, 0)
		if !nt.ReportDelta(p, r.c.Nodes[1], 6, 4) {
			t.Error("a live tracker must take (ack) a drained node's report")
		}
		if nt.Advertised(1) != 0 {
			t.Errorf("retired node re-advertised %d chunks via delta", nt.Advertised(1))
		}
		// Acked all the same: the report's duplicate is stale.
		nt.ReportDelta(p, r.c.Nodes[1], 6, 4)
		if applied, stale := nt.DeltaStats(); applied != 1 || stale != 1 {
			t.Errorf("delta stats = (%d applied, %d stale), want (1, 1)", applied, stale)
		}
	})
	r.sim.MustRun()
}

// TestDeltaLostToDeadLeaderIsResent: a free-count change reported while
// the tracker process is down reaches nobody, so the reporter must not
// mark it sent. Once the watchdog promotes the standby, the reporter's
// next cycle pushes the count again and the successor's row shows it —
// by delta, with no poll (anti-entropy runs every tenth cycle; this run
// sees five).
func TestDeltaLostToDeadLeaderIsResent(t *testing.T) {
	r := newRig(t, 3, 4, func(c *ServiceConfig) {
		c.DeltaDissemination = true
		c.TrackerReplicas = 1
		c.PollInterval = 500 * simtime.Millisecond
	})
	polls := r.svc.metrics.trackerPolls
	r.sim.Spawn("probe", func(p *simtime.Proc) {
		tick := r.svc.Config.PollInterval
		// The watchdog wakes at whole ticks; a reporter that has pushed
		// once wakes a round trip later. One nanosecond past a tick is
		// after the first and before the second.
		p.Sleep(3*tick + 1)
		if got := r.svc.Tracker.Advertised(2); got != 4 {
			t.Fatalf("before the failure node 2 advertises %d, want 4", got)
		}
		pollsBefore := polls.Value()
		r.svc.FailTracker()
		// Inside the gap: node 2's free count changes, and its reporter's
		// cycle finds no live leader.
		if _, err := r.svc.Servers[2].Pool().Alloc(TaskID{Node: 0, PID: 1}); err != nil {
			t.Fatalf("alloc: %v", err)
		}
		p.Sleep(tick) // the lost report, then the watchdog's promotion
		if r.svc.Failovers() != 1 || r.svc.Tracker.Node().ID != 1 {
			t.Fatalf("failovers = %d, leader on node %d; want the standby on node 1 promoted",
				r.svc.Failovers(), r.svc.Tracker.Node().ID)
		}
		if got := r.svc.Tracker.Advertised(2); got != 4 {
			t.Fatalf("successor already advertises %d on node 2: the report was not lost, the test missed the gap", got)
		}
		p.Sleep(tick) // two intervals after the change
		if got := r.svc.Tracker.Advertised(2); got != 3 {
			t.Errorf("successor advertises %d chunks on node 2, want 3 (the change made while no leader was up)", got)
		}
		if polls.Value() != pollsBefore {
			t.Errorf("sponge_tracker_polls_total grew %d -> %d: the count must arrive by delta", pollsBefore, polls.Value())
		}
	})
	r.sim.MustRun()
}
