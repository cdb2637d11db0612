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
// The snapshot is the paper's full poll: every server is asked for its
// free count each PollInterval. The tracker is stateless — a successor
// the watchdog elects (Service.electTracker) starts cold and rebuilds
// the table from its first poll.
//
// The table and its ranking are the FreeTable's; this type is the
// simulator's driver for it: it charges each exchange's virtual time,
// retries lost polls, writes off dead servers, and leaves leadership to
// the service's watchdog.
type Tracker struct {
	svc  *Service
	node *cluster.Node

	// table is the per-node free-chunk snapshot; epoch is the leadership
	// term this tracker serves under.
	table FreeTable
	epoch int64
	// down marks a crashed tracker process (the host may still serve
	// chunks).
	down bool
}

func newTracker(svc *Service, node *cluster.Node, epoch int64) *Tracker {
	return &Tracker{svc: svc, node: node, table: make(FreeTable, len(svc.Cluster.Nodes)), epoch: epoch}
}

// Node returns the tracker's host.
func (t *Tracker) Node() *cluster.Node { return t.node }

// LeaderEpoch returns the leadership term this tracker serves under;
// every election starts a new one.
func (t *Tracker) LeaderEpoch() int64 { return t.epoch }

// Advertised returns the free-chunk count the tracker currently holds
// for a node — what a query would be answered from.
func (t *Tracker) Advertised(node int) int { return t.table.Free(node) }

// unavailable reports whether the tracker process or its host is down.
func (t *Tracker) unavailable() bool { return t.down || t.svc.nodeDown(t.node.ID) }

// trackerRound is one round of the polling daemon. It drives whatever
// tracker is currently installed, so a failover (Service.electTracker)
// transfers the polling to the replacement transparently; while the
// tracker (or its host) is down it idles and lets the watchdog elect a
// successor.
func (s *Service) trackerRound(p *simtime.Proc) bool {
	if t := s.Tracker; !t.unavailable() {
		t.pollOnce(p)
	}
	return true
}

// pollOnce refreshes the snapshot immediately, skipping dead servers. A
// poll lost in the network (ErrPeerUnreachable) is retried up to the
// service's retry limit; a server that stays unreachable is recorded as
// having no free space — allocation simply stops considering it until a
// later poll gets through, the same degradation a stale free list gives.
func (t *Tracker) pollOnce(p *simtime.Proc) {
	m := t.svc.metrics
	for i := range t.svc.Servers {
		if t.svc.nodeDown(i) {
			t.table.Set(i, 0)
			continue
		}
		free, err := t.pollServer(p, i)
		if err != nil {
			t.table.Set(i, 0)
			m.trackerDrops[i].Inc()
			continue
		}
		t.table.Set(i, free)
		m.trackerUpdatesFull.Inc()
	}
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
	t.svc.metrics.trackerQueries.Inc()
	return t.table.Query()
}
