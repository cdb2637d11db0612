package sponge

import (
	"fmt"

	"spongefiles/internal/cluster"
	"spongefiles/internal/simtime"
)

// Elastic cluster membership. The paper's deployment is static — every
// per-node structure in the seed was sized once at construction — but a
// production sponge cluster grows and shrinks under load. Membership is
// tracked as a per-node lifecycle state plus a monotonically increasing
// epoch that bumps on every join, planned leave, or failure; every
// fixed-at-construction registry (tracker snapshot, per-node metrics,
// transport peer caches) grows on join and tolerates departed IDs.
//
// A planned leave evacuates the node's live chunks to other servers
// before the node departs, recording a forwarding entry per moved chunk
// so readers holding stale (node, handle) references chase the chunk to
// its new home instead of losing it. Departure also revokes the
// departed peer's cached transport state — including any passed spill
// or pool descriptors and their mappings, so same-host readers fall
// back to TCP rather than preading a dead daemon's segments.

// NodeState is one node's membership lifecycle state.
type NodeState uint8

const (
	// NodeLive serves allocations, reads, and polls.
	NodeLive NodeState = iota
	// NodeLeaving is draining: existing chunks stay readable while they
	// are evacuated, but new allocations are refused and the tracker
	// stops advertising the node.
	NodeLeaving
	// NodeDead crashed: its pool's chunks are lost (ErrChunkLost).
	NodeDead
	// NodeDeparted left cleanly after evacuation; reads of its former
	// chunks follow the forwarding table.
	NodeDeparted
)

// String names a state for diagnostics.
func (s NodeState) String() string {
	switch s {
	case NodeLive:
		return "live"
	case NodeLeaving:
		return "leaving"
	case NodeDead:
		return "dead"
	case NodeDeparted:
		return "departed"
	}
	return "unknown"
}

// chunkAddr names a chunk by its hosting node and handle; the
// forwarding table maps evacuated chunks to their new address.
type chunkAddr struct {
	node   int
	handle int
}

// MembershipEpoch returns the current membership epoch; it bumps on
// every join, planned leave, or node failure.
func (s *Service) MembershipEpoch() int64 { return s.memberEpoch }

// NodeState returns a node's membership lifecycle state.
func (s *Service) NodeState(node int) NodeState {
	if node < 0 || node >= len(s.memberState) {
		return NodeDead
	}
	return s.memberState[node]
}

// nodeDown reports whether a node no longer serves chunks (crashed or
// cleanly departed). It is the membership-aware successor of the seed's
// dead[] slice.
func (s *Service) nodeDown(node int) bool {
	st := s.NodeState(node)
	return st == NodeDead || st == NodeDeparted
}

// retiring reports whether a node is draining for a planned leave.
func (s *Service) retiring(node int) bool { return s.NodeState(node) == NodeLeaving }

// bumpEpoch advances the membership epoch and mirrors it to the gauge.
func (s *Service) bumpEpoch() {
	s.memberEpoch++
	s.metrics.membershipEpoch.Set(s.memberEpoch)
}

// peerRevoker is implemented by transports that hold per-peer resources
// worth tearing down when a node leaves the cluster — the wire
// transport's cached clients carry passed spill/pool descriptors and
// their mappings. Revocation makes any later same-host read of that
// peer re-negotiate (and, with the daemon gone, fall back to TCP)
// instead of preading dead segments.
type peerRevoker interface {
	RevokePeer(node int)
}

// revokePeer drops every cached handle on a departed peer: the
// service's own Peer cache and, when the installed transport holds
// revocable per-peer state (descriptors, mmaps, connections), that too.
func (s *Service) revokePeer(node int) {
	if node >= 0 && node < len(s.peers) {
		s.peers[node] = nil
	}
	if r, ok := s.transport.(peerRevoker); ok {
		r.RevokePeer(node)
	}
	s.metrics.peerRevocations.Inc()
}

// resolveChunk follows the forwarding table from a possibly-evacuated
// chunk address to its current home. The table is nil until the first
// planned leave, so static-membership runs pay one nil check.
func (s *Service) resolveChunk(node, handle int) (int, int) {
	if s.forwards == nil {
		return node, handle
	}
	for {
		next, ok := s.forwards[chunkAddr{node, handle}]
		if !ok {
			return node, handle
		}
		node, handle = next.node, next.handle
	}
}

// JoinNode grows the live deployment by one node: the cluster gains a
// worker, the service deploys a pool and server on it, every per-node
// registry (tracker snapshot, metrics, peer cache) grows to cover the
// new ID, and the membership epoch bumps. The tracker advertises the
// newcomer's free space immediately, so allocation can land there
// without waiting for the next poll cycle.
func (s *Service) JoinNode() *cluster.Node {
	n := s.Cluster.AddNode()
	pool := NewPool(s.chunkReal, int(s.Cluster.Cfg.SpongeMemory/s.Config.ChunkVirtual))
	if s.Config.QuotaChunksPerTask > 0 {
		pool.SetQuota(s.Config.QuotaChunksPerTask)
	}
	srv := newServer(s, n, pool)
	s.Servers = append(s.Servers, srv)
	s.memberState = append(s.memberState, NodeLive)
	s.peers = append(s.peers, nil)
	s.metrics.ensureNodes(len(s.Servers))
	s.metrics.registerNodeGauges(n.ID, srv)
	s.Cluster.Sim.Every(fmt.Sprintf("spongegc@%s", n.Name()), s.Config.GCInterval, srv.gcRound)
	s.Tracker.table.Set(n.ID, srv.FreeChunks())
	s.bumpEpoch()
	s.metrics.membershipJoins.Inc()
	return n
}

// LeaveNode removes a node from the cluster cleanly: the node drains —
// the tracker stops advertising it and new allocations are refused —
// while every live chunk in its pool is evacuated to another live
// server, each move recorded in the forwarding table so readers chase
// relocated chunks transparently. Once the pool is empty the node
// departs: its pool is retired, its gc daemon exits, its cached
// transport state (including passed fds and mappings) is revoked, and
// the membership epoch bumps.
//
// If no live server can absorb a chunk (no free space anywhere), the
// leave aborts: the node returns to live service and the error reports
// how many chunks could not move. Chunks evacuated before the abort
// stay at their new homes — the forwarding table covers them.
func (s *Service) LeaveNode(p *simtime.Proc, node int) error {
	if node < 0 || node >= len(s.Servers) {
		return fmt.Errorf("sponge: leave of unknown node %d", node)
	}
	if st := s.NodeState(node); st != NodeLive {
		return fmt.Errorf("sponge: leave of node %d in state %s", node, st)
	}
	s.memberState[node] = NodeLeaving
	s.Tracker.table.Set(node, 0)
	srv := s.Servers[node]
	// Drain until a pass finds the pool empty. Allocations granted
	// before the state flip may still land between passes; the loop
	// catches them, and the final empty check runs without yielding
	// before the state flips to departed.
	for {
		handles := srv.Pool().LiveHandles()
		if len(handles) == 0 {
			break
		}
		if err := s.evacuate(p, node, handles); err != nil {
			s.memberState[node] = NodeLive
			return err
		}
	}
	s.memberState[node] = NodeDeparted
	srv.Pool().Fail() // empty: retires the pool and stops the gc daemon
	s.revokePeer(node)
	s.bumpEpoch()
	s.metrics.membershipLeaves.Inc()
	return nil
}

// evacuate moves one batch of chunks off a draining node, recording a
// forwarding entry per move. The copy yields virtual time, and the owner
// may free the chunk meanwhile (its Delete finds no forward yet and frees
// the original): the chunk's generation, read before the copy and again
// after, tells. Such a chunk gets no forward, and its copy is freed at
// the target.
func (s *Service) evacuate(p *simtime.Proc, node int, handles []int) error {
	srv := s.Servers[node]
	pool := srv.Pool()
	from := s.Cluster.Nodes[node]
	failed := 0
	for _, h := range handles {
		owner, err := pool.Owner(h)
		if err != nil {
			continue // freed since the pass started
		}
		_, _, n, gen, err := pool.Loc(h)
		if err != nil {
			continue
		}
		buf := s.getBuf()[:n]
		if _, err := pool.Read(h, buf); err != nil {
			s.putBuf(buf)
			continue
		}
		p.Sleep(PoolLockCost)
		from.ChargeCopy(p, n)
		target, handle, err := s.evacuateChunk(p, from, owner, buf)
		s.putBuf(buf)
		if err != nil {
			failed++
			continue
		}
		if _, _, _, now, err := pool.Loc(h); err != nil || now != gen {
			_ = s.peer(target).Free(p, from, handle)
			continue
		}
		if s.forwards == nil {
			s.forwards = make(map[chunkAddr]chunkAddr)
		}
		s.forwards[chunkAddr{node, h}] = chunkAddr{target, handle}
		pool.FreeChunk(h)
		s.metrics.evacuatedChunks.Inc()
	}
	if failed > 0 {
		return fmt.Errorf("sponge: leave of node %d: %d chunks could not be evacuated", node, failed)
	}
	return nil
}

// evacuateChunk places one draining chunk on the best live server:
// most advertised-free first (ground truth, not the tracker's stale
// view), lowest ID on ties, same-rack only when the service is
// configured rack-local. Transfers ride the normal transport path, so
// they are charged — and fault-injected — like any remote allocation.
func (s *Service) evacuateChunk(p *simtime.Proc, from *cluster.Node, owner TaskID, payload []byte) (int, int, error) {
	var cands FreeTable
	for i, srv := range s.Servers {
		if i == from.ID || s.NodeState(i) != NodeLive {
			continue
		}
		if s.Config.RackLocalOnly && !s.Cluster.SameRack(from, s.Cluster.Nodes[i]) {
			continue
		}
		cands.Set(i, srv.FreeChunks())
	}
	var lastErr error = ErrNoFreeChunk
	for _, c := range cands.Query() {
		h, err := s.peer(c.Key).AllocWrite(p, from, owner, payload)
		if err == nil {
			return c.Key, h, nil
		}
		lastErr = err
	}
	return 0, 0, lastErr
}
