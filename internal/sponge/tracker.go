package sponge

import (
	"errors"

	"spongefiles/internal/cluster"
	"spongefiles/internal/simtime"
)

// Tracker is the cluster's memory tracking server (§3.1.1): a daemon,
// hosted on one node, that maintains a per-server free-space snapshot
// and answers SpongeFile queries with the latest (possibly stale) list
// of servers that had free memory. Staleness is the design's deliberate
// trade: lightweight allocation over a perfectly consistent global view.
//
// The snapshot refreshes one of two ways. The paper's full poll stats
// every server each PollInterval. With ServiceConfig.DeltaDissemination
// the servers push sequence-numbered incremental reports instead —
// only when their count changed — and the poll degrades to a periodic
// anti-entropy sweep, so tracker traffic scales with churn rather than
// cluster size.
//
// With ServiceConfig.TrackerReplicas the tracker is replicated: the
// leader hands its state off to warm standbys every cycle, and a
// failover promotes one under a new leader epoch instead of cold-
// starting with a full re-poll.
//
// The table and its rules — sequence dedupe, term fencing, ranking —
// are the FreeTable's; this type is the simulator's driver for it: it
// charges each exchange's virtual time, skips servers membership says
// are gone or draining, and leaves leadership to the service's watchdog.
type Tracker struct {
	svc  *Service
	node *cluster.Node

	// table is the per-node free-chunk snapshot with each node's acked
	// delta sequence, plus this tracker's term and role. A new tracker is
	// a follower at term 0 until it is promoted.
	table   FreeTable
	polls   int64
	queries int64
	// down marks a crashed tracker process (the host may still serve
	// chunks).
	down bool
	// pollDrops counts per-server polls lost in the network even after
	// retrying; the server is recorded as having no free space until a
	// later poll reaches it (the stale-free-list trade of §3.1.1).
	// pollDropsNode attributes the same drops to the polled node.
	pollDrops     int64
	pollDropsNode map[int]int64
}

func newTracker(svc *Service, node *cluster.Node) *Tracker {
	return &Tracker{svc: svc, node: node, pollDropsNode: make(map[int]int64)}
}

// Node returns the tracker's host.
func (t *Tracker) Node() *cluster.Node { return t.node }

// LeaderEpoch returns the leadership term this tracker serves under;
// every promotion starts a new one.
func (t *Tracker) LeaderEpoch() int64 { return int64(t.table.Epoch()) }

// IsLeader reports whether this tracker leads (false for a standby).
func (t *Tracker) IsLeader() bool { return t.table.Leader() }

// Advertised returns the free-chunk count the tracker currently holds
// for a node — what a query would be answered from.
func (t *Tracker) Advertised(node int) int { return t.table.Free(node) }

// unavailable reports whether the tracker process or its host is down.
func (t *Tracker) unavailable() bool { return t.down || t.svc.nodeDown(t.node.ID) }

// trackerLoop is the polling daemon. It drives whatever tracker is
// currently installed, so a failover (Service.electTracker) transfers
// the loop to the replacement transparently; while the tracker (or its
// host) is down it idles and lets the watchdog elect a successor. Under
// delta dissemination the periodic poll runs only every
// antiEntropyEvery cycles — the steady flow of updates arrives as
// server-pushed deltas instead.
func (s *Service) trackerLoop(p *simtime.Proc) {
	cycle := 0
	for {
		p.Sleep(s.Config.PollInterval)
		t := s.Tracker
		if t.unavailable() {
			continue
		}
		if s.Config.DeltaDissemination {
			cycle++
			if cycle >= antiEntropyEvery {
				cycle = 0
				t.pollOnce(p)
			}
		} else {
			t.pollOnce(p)
		}
		s.handoff(p, t)
	}
}

// pollOnce refreshes the snapshot immediately, skipping dead, departed,
// and draining servers. A poll lost in the network (ErrPeerUnreachable)
// is retried up to the service's retry limit; a server that stays
// unreachable is recorded as having no free space — allocation simply
// stops considering it until a later poll gets through, the same
// degradation a stale free list gives.
func (t *Tracker) pollOnce(p *simtime.Proc) {
	m := t.svc.metrics
	for i := range t.svc.Servers {
		if t.svc.nodeDown(i) || t.svc.retiring(i) {
			t.table.Set(i, 0)
			continue
		}
		m.trackerMsgsPoll.Inc()
		free, err := t.pollServer(p, i)
		if err != nil {
			t.table.Set(i, 0)
			t.pollDrops++
			t.pollDropsNode[i]++
			m.trackerDrops[i].Inc()
			continue
		}
		t.table.Set(i, free)
		m.trackerUpdatesFull.Inc()
	}
	t.polls++
	m.trackerPolls.Inc()
	m.trackerLastPoll.Set(int64(p.Now()))
}

// pollServer stats one server over the transport, retrying lost
// exchanges with backoff.
func (t *Tracker) pollServer(p *simtime.Proc, node int) (int, error) {
	peer := t.svc.peer(node)
	for attempt := 0; ; attempt++ {
		free, err := peer.FreeSpace(p, t.node)
		if err == nil {
			return free, nil
		}
		if !errors.Is(err, ErrPeerUnreachable) || attempt >= retryLimit {
			return 0, err
		}
		t.svc.metrics.retriesPoll.Inc()
		p.Sleep(retryBackoff)
	}
}

// ReportDelta delivers one sequence-numbered incremental free-space
// report pushed by a server (the delta-dissemination successor of the
// full poll), charging the control round trip from the reporting node.
// The table drops a stale sequence and acks a fresh one; the count is
// installed only while the reporter is live, so a drained node cannot
// re-advertise itself. It reports whether a live tracker took the
// report — applied or deduplicated, either way it holds that state;
// false means the report was lost and the reporter must push again.
func (t *Tracker) ReportDelta(p *simtime.Proc, from *cluster.Node, seq uint64, free int) bool {
	if t.unavailable() {
		return false
	}
	t.svc.Cluster.RPC(p, from, t.node, ctlBytes, ctlBytes)
	m := t.svc.metrics
	m.trackerMsgsDelta.Inc()
	applied0, stale0 := t.table.DeltaStats()
	t.table.Delta(from.ID, seq, free, t.svc.NodeState(from.ID) == NodeLive)
	applied, stale := t.table.DeltaStats()
	m.trackerUpdatesDelta.Add(applied - applied0)
	m.trackerDeltaStale.Add(stale - stale0)
	return true
}

// InstallState delivers a leader's handed-off state (FreeTable.State)
// to this tracker, charging the replication traffic from the leader's
// node: 12 bytes per row (free count + acked sequence) plus a control
// header out, a control ack back. It reports whether the state was
// installed: not on a tracker that is down, that leads, or that is
// already on a later term.
func (t *Tracker) InstallState(p *simtime.Proc, from *cluster.Node, epoch uint64, rows []FreeRow) bool {
	if t.unavailable() {
		return false
	}
	t.svc.Cluster.RPC(p, from, t.node, ctlBytes+12*len(rows), ctlBytes)
	return t.table.Install(epoch, rows)
}

// deltaReportLoop is the per-server push daemon under delta
// dissemination: each interval it reports the node's free count to the
// current tracker leader, but only when the count differs from the last
// one a leader took — an idle node costs the tracker nothing, and a
// report lost to a dead leader goes out again to its successor.
func (srv *Server) deltaReportLoop(p *simtime.Proc) {
	var src DeltaSource
	for {
		p.Sleep(srv.svc.Config.PollInterval)
		s := srv.svc
		if s.nodeDown(srv.node.ID) || srv.pool.Failed() {
			return
		}
		free := srv.FreeChunks()
		if seq, send := src.Next(free); send && s.Tracker.ReportDelta(p, srv.node, seq, free) {
			src.Acked(free)
		}
	}
}

// queryTimeout is what a task waits before giving up on a dead tracker.
const queryTimeout = 100 * simtime.Millisecond

// Query returns the servers that had free memory at the last update,
// sorted by free space (descending, node ID tiebreak), charging the
// control round trip from the asking node. The answer can be stale by up
// to PollInterval; callers must tolerate allocation failures.
func (t *Tracker) Query(p *simtime.Proc, from *cluster.Node) []FreeRow {
	if t.unavailable() {
		// Dead tracker: the request times out and the file proceeds
		// with no remote candidates (it will spill to disk until the
		// watchdog elects a replacement).
		p.Sleep(queryTimeout)
		return nil
	}
	t.svc.Cluster.RPC(p, from, t.node, ctlBytes, ctlBytes)
	t.queries++
	t.svc.metrics.trackerQueries.Inc()
	return t.table.Query()
}

// Stats returns (polls completed, queries served).
func (t *Tracker) Stats() (polls, queries int64) { return t.polls, t.queries }

// DeltaStats returns (incremental updates applied, stale reports
// dropped).
func (t *Tracker) DeltaStats() (applied, stale int64) { return t.table.DeltaStats() }

// PollDrops returns how many per-server polls were lost in the network
// even after retrying.
func (t *Tracker) PollDrops() int64 { return t.pollDrops }

// PollDropsFor returns how many of this tracker's lost polls were
// directed at one node, attributing drops to the unreachable server
// rather than only to the aggregate.
func (t *Tracker) PollDropsFor(node int) int64 { return t.pollDropsNode[node] }
