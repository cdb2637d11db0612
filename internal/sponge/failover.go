package sponge

import (
	"spongefiles/internal/simtime"
)

// Node failure and tracker failover. The paper's deployment is static:
// a node is live or dead, and FailNode is the only way it changes. A
// dead node's chunks are lost and the task that stored them is
// restarted (§3.1, §4.3). The paper's memory tracking server is
// stateless, so when its host dies any node can take over (§3.1.1,
// footnote 8) — the paper suggests leader election via a coordination
// service. We model the election directly: a watchdog detects the dead
// tracker and elects a cold successor (electTracker).

// FailNode kills a node: its sponge pool loses every chunk, its server
// stops answering, and — if it hosted the tracker — the watchdog elects
// a replacement. Tasks running there are the engine's concern; tasks
// elsewhere that stored chunks there will see ErrChunkLost. The peer's
// cached transport state (including any passed fds) is revoked.
func (s *Service) FailNode(node int) {
	s.Servers[node].Pool().Fail()
	s.revokePeer(node)
	s.metrics.membershipFails.Inc()
}

// nodeDown reports whether a node has failed and no longer serves
// chunks: its pool's failed flag is the one record of the death.
func (s *Service) nodeDown(node int) bool { return s.Servers[node].Pool().Failed() }

// peerRevoker is implemented by transports that hold per-peer resources
// worth tearing down when a node dies — the wire transport's cached
// clients carry passed spill/pool descriptors and their mappings.
// Revocation makes any later same-host read of that peer re-negotiate
// (and, with the daemon gone, fall back to TCP) instead of preading
// dead segments.
type peerRevoker interface {
	RevokePeer(node int)
}

// revokePeer drops every cached handle on a dead peer: the service's
// own Peer cache and, when the installed transport holds revocable
// per-peer state (descriptors, mmaps, connections), that too.
func (s *Service) revokePeer(node int) {
	s.peers[node] = nil
	if r, ok := s.transport.(peerRevoker); ok {
		r.RevokePeer(node)
	}
	s.metrics.peerRevocations.Inc()
}

// FailTracker kills the tracker process alone — a daemon crash rather
// than a machine failure: the host keeps serving chunks, but queries
// time out until the watchdog installs a successor.
func (s *Service) FailTracker() {
	s.Tracker.down = true
}

// electTracker installs a successor tracker on the lowest-numbered live
// node. It inherits the dead leader's term plus one and nothing else —
// the stateless restart of footnote 8 — and polls every server before
// it answers a query. Returns false if no node is left to host one.
func (s *Service) electTracker(p *simtime.Proc) bool {
	for i := range s.Servers {
		if s.nodeDown(i) {
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
