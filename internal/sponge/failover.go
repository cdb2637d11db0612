package sponge

import (
	"spongefiles/internal/simtime"
)

// Tracker failover (§3.1.1, footnote 8): the paper's memory tracking
// server is stateless, so when its host dies any node can take over —
// the paper suggests leader election via a coordination service. We
// model the election directly: a watchdog detects the dead tracker and
// installs a successor under a new leader epoch.
//
// Without replicas (the default) the successor is the lowest-numbered
// live node, cold-started by re-polling everyone — the seed behaviour.
// With ServiceConfig.TrackerReplicas warm standbys shadow the leader:
// each poll cycle the leader hands its snapshot (and delta sequence
// state) off to every standby, and a failover promotes the first live
// standby, which serves from the handed-off state immediately instead
// of re-polling a cluster that may be thousands of nodes wide.

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

// Standbys returns the warm tracker replicas in succession order.
func (s *Service) Standbys() []*Tracker { return s.standbys }

// electTracker installs a successor tracker under a new leader epoch.
// With warm standbys available the first live one is promoted and
// serves from its handed-off snapshot; otherwise the lowest-numbered
// live node cold-starts a fresh tracker by polling. Returns false if no
// node is left to host one.
func (s *Service) electTracker(p *simtime.Proc) bool {
	for len(s.standbys) > 0 {
		st := s.standbys[0]
		s.standbys = s.standbys[1:]
		if st.unavailable() {
			continue
		}
		st.table.Promote()
		s.Tracker = st
		s.failovers++
		s.metrics.trackerFailovers.Inc()
		s.metrics.trackerPromotions.Inc()
		s.metrics.trackerLeaderEpoch.Set(st.LeaderEpoch())
		// Keep the replica count topped up from the surviving nodes.
		s.recruitStandbys()
		return true
	}
	for i := range s.Servers {
		if s.nodeDown(i) || s.retiring(i) {
			continue
		}
		// A cold successor inherits the dead leader's term and nothing
		// else: the stateless restart of footnote 8.
		t := newTracker(s, s.Cluster.Nodes[i])
		t.table.Install(s.Tracker.table.Epoch(), nil)
		t.table.Promote()
		t.pollOnce(p)
		s.Tracker = t
		s.failovers++
		s.metrics.trackerFailovers.Inc()
		s.metrics.trackerLeaderEpoch.Set(t.LeaderEpoch())
		return true
	}
	return false
}

// recruitStandbys tops the standby set up to TrackerReplicas, placing
// replicas on live nodes that host neither the leader nor another
// standby, in node order. A fresh recruit copies the leader's current
// state; the per-cycle handoff keeps it warm from then on.
func (s *Service) recruitStandbys() {
	for i := range s.Servers {
		if len(s.standbys) >= s.Config.TrackerReplicas {
			return
		}
		if s.nodeDown(i) || s.retiring(i) || i == s.Tracker.node.ID || s.standbyOn(i) {
			continue
		}
		st := newTracker(s, s.Cluster.Nodes[i])
		st.table.Install(s.Tracker.table.State())
		s.standbys = append(s.standbys, st)
	}
}

func (s *Service) standbyOn(node int) bool {
	for _, st := range s.standbys {
		if st.node.ID == node {
			return true
		}
	}
	return false
}

// handoff pushes the leader's state to every live standby. A no-op
// without replicas, so the default single-tracker runs are untouched.
func (s *Service) handoff(p *simtime.Proc, t *Tracker) {
	if len(s.standbys) == 0 {
		return
	}
	epoch, rows := t.table.State()
	for _, st := range s.standbys {
		if st.InstallState(p, t.node, epoch, rows) {
			s.metrics.trackerHandoffs.Inc()
		}
	}
}

// Failovers returns how many times the tracker has been re-elected.
func (s *Service) Failovers() int { return s.failovers }

// watchdogLoop monitors the tracker and re-elects on failure of either
// the tracker process or its host.
func (s *Service) watchdogLoop(p *simtime.Proc) {
	for {
		p.Sleep(s.Config.PollInterval)
		if s.Tracker.unavailable() {
			if !s.electTracker(p) {
				return
			}
		}
	}
}
