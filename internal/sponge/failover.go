package sponge

import (
	"spongefiles/internal/simtime"
)

// Tracker failover (§3.1.1, footnote 8): the paper's memory tracking
// server is stateless, so when its host dies any node can take over —
// the paper suggests leader election via a coordination service. We
// model the election directly: a watchdog detects the dead tracker and
// elects a cold successor (electTracker).

// FailNode kills a node: its sponge pool loses every chunk, its server
// stops answering, and — if it hosted the tracker — the watchdog elects
// a replacement. Tasks running there are the engine's concern; tasks
// elsewhere that stored chunks there will see ErrChunkLost. The
// membership epoch bumps and the peer's cached transport state
// (including any passed fds) is revoked.
func (s *Service) FailNode(node int) {
	s.memberState[node] = NodeDead
	s.Servers[node].Pool().Fail()
	s.revokePeer(node)
	s.bumpEpoch()
	s.metrics.membershipFails.Inc()
}

// FailTracker kills the tracker process alone — a daemon crash rather
// than a machine failure: the host keeps serving chunks, but queries
// time out until the watchdog installs a successor.
func (s *Service) FailTracker() {
	s.Tracker.down = true
}

// electTracker installs a successor tracker on the lowest-numbered live
// node that is not draining. It inherits the dead leader's term plus one
// and nothing else — the stateless restart of footnote 8 — and polls
// every server before it answers a query. Returns false if no node is
// left to host one.
func (s *Service) electTracker(p *simtime.Proc) bool {
	for i := range s.Servers {
		if s.nodeDown(i) || s.retiring(i) {
			continue
		}
		t := newTracker(s, s.Cluster.Nodes[i], s.Tracker.epoch+1)
		t.pollOnce(p)
		s.Tracker = t
		s.metrics.trackerFailovers.Inc()
		s.metrics.trackerLeaderEpoch.Set(t.epoch)
		return true
	}
	return false
}

// watchdogRound is one round of the daemon that monitors the tracker: it
// re-elects on failure of either the tracker process or its host, and
// ends the daemon when no node is left to host one.
func (s *Service) watchdogRound(p *simtime.Proc) bool {
	return !s.Tracker.unavailable() || s.electTracker(p)
}
