package sponge

import (
	"cmp"
	"slices"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

// Server is the per-node sponge server (§3.1.1): it shares the node's
// sponge pool with local tasks, exports the pool's free space to the
// memory tracker, serves allocation/read/write requests from remote
// SpongeFiles, answers liveness queries about local tasks, and runs a
// periodic garbage collection that frees chunks owned by dead tasks.
//
// It is the simulated Peer: the five remote operations are its methods,
// each charging the exchange's network cost in virtual time.
type Server struct {
	svc  *Service
	node *cluster.Node
	pool *Pool

	// live is the node's task liveness registry: the execution framework
	// registers a task's PID when it starts and unregisters it at exit.
	live map[int64]bool
}

func newServer(svc *Service, node *cluster.Node, pool *Pool) *Server {
	return &Server{svc: svc, node: node, pool: pool, live: make(map[int64]bool)}
}

// Node returns the server's host.
func (s *Server) Node() *cluster.Node { return s.node }

// Pool returns the server's sponge memory.
func (s *Server) Pool() *Pool { return s.pool }

// RegisterTask marks a local task live; the MapReduce framework calls
// this when it launches a task on the node.
func (s *Server) RegisterTask(pid int64) { s.live[pid] = true }

// UnregisterTask marks a local task dead (normal exit or kill).
func (s *Server) UnregisterTask(pid int64) { delete(s.live, pid) }

// taskAlive reports whether a local PID is registered.
func (s *Server) taskAlive(pid int64) bool { return s.live[pid] }

// FreeChunks returns the pool's current free chunk count (what the
// server exports to the tracker).
func (s *Server) FreeChunks() int { return s.pool.Free() }

// --- Remote operations (Peer) -----------------------------------------
//
// Each remote operation is invoked by a task running on another node and
// charges the network cost of the exchange: a small control message both
// ways plus the data payload where applicable. Allocation and the first
// write are combined in one exchange, as storing a chunk remotely in the
// paper is "find a server with free space, write the data, get back a
// handle".

const ctlBytes = 256 // real bytes of a control message at scale 1:1

// AllocWrite allocates a chunk for owner and stores data in it, all in
// one exchange from the caller's node. On success it returns the chunk
// handle. On a full pool the caller has wasted only a control round trip
// (the stale-free-list case of §3.1.1).
func (s *Server) AllocWrite(p *simtime.Proc, from *cluster.Node, owner TaskID, data []byte) (int, error) {
	if s.pool.Failed() {
		return 0, ErrChunkLost
	}
	// Control query first: "do you still have space?" — cheap when the
	// tracker's information was stale.
	s.svc.Cluster.RPC(p, from, s.node, ctlBytes, ctlBytes)
	h, err := s.pool.Alloc(owner)
	if err != nil {
		s.svc.metrics.remoteAllocFails[s.node.ID].Inc()
		return 0, err
	}
	// Data transfer; the server-side copy into the pool overlaps the
	// trailing edge of the transfer and is not charged separately.
	s.svc.Cluster.Transfer(p, from, s.node, len(data))
	if err := s.pool.Write(h, data); err != nil {
		s.pool.FreeChunk(h)
		return 0, err
	}
	s.svc.metrics.remoteAllocs[s.node.ID].Inc()
	return h, nil
}

// Read fetches a chunk's contents back to the caller's node.
func (s *Server) Read(p *simtime.Proc, to *cluster.Node, h int, buf []byte) (int, error) {
	if s.pool.Failed() {
		return 0, ErrChunkLost
	}
	n, err := s.pool.Read(h, buf)
	if err != nil {
		return 0, err
	}
	// Request out, data back.
	s.svc.Cluster.Transfer(p, to, s.node, ctlBytes)
	s.svc.Cluster.Transfer(p, s.node, to, n)
	return n, nil
}

// Free releases a chunk on behalf of a remote task. The handle is the
// caller's word, not the server's: a chunk that a GC sweep reclaimed
// first is reported (ErrNoFreeChunk), as the wire server reports it,
// not taken for a double free.
func (s *Server) Free(p *simtime.Proc, from *cluster.Node, h int) error {
	if s.pool.Failed() {
		return ErrChunkLost
	}
	s.svc.Cluster.RPC(p, from, s.node, ctlBytes, ctlBytes)
	return s.pool.TryFree(h)
}

// FreeSpace answers a free-space poll from another node (what the
// memory tracker sends every PollInterval), charging the control round
// trip.
func (s *Server) FreeSpace(p *simtime.Proc, from *cluster.Node) (int, error) {
	s.svc.Cluster.RPC(p, from, s.node, ctlBytes, ctlBytes)
	return s.pool.Free(), nil
}

// TaskAlive answers a delegated liveness check from another node's
// garbage collector (§3.1.3), charging the control round trip.
func (s *Server) TaskAlive(p *simtime.Proc, from *cluster.Node, pid int64) (bool, error) {
	s.svc.Cluster.RPC(p, from, s.node, ctlBytes, ctlBytes)
	return s.taskAlive(pid), nil
}

// --- Local (via-server) operation ---------------------------------------

// AllocWriteLocalIPC allocates and writes a local chunk through the
// sponge server's socket interface instead of shared memory. Tasks use
// the shared-memory path for local chunks; going through the local server
// costs an extra message exchange and copy, and is what a non-collocated
// runtime would pay. This is Table 1's column 2, which the microbenchmark
// calls directly.
func (s *Server) AllocWriteLocalIPC(p *simtime.Proc, owner TaskID, data []byte) (int, error) {
	if s.pool.Failed() {
		return 0, ErrChunkLost
	}
	p.Sleep(media.IPCOpTime)
	h, err := s.pool.Alloc(owner)
	if err != nil {
		return 0, err
	}
	// Two copies: task -> socket, socket -> pool.
	s.node.ChargeCopy(p, len(data))
	s.node.ChargeCopy(p, len(data))
	if err := s.pool.Write(h, data); err != nil {
		s.pool.FreeChunk(h)
		return 0, err
	}
	return h, nil
}

// --- Garbage collection -------------------------------------------------

// gcSweep frees chunks whose owner task is dead. Liveness of local owners
// is checked directly; liveness of remote owners is delegated to the
// owner node's server (§3.1.3), costing a control round trip. A liveness
// query lost in the network is treated as "alive": freeing a live task's
// chunks on a dropped message would corrupt it, while an orphan merely
// waits for the next sweep. Owners are visited in (Node, PID) order: each
// remote check is an exchange on the NICs, and under a fault transport a
// draw from its seeded stream, so map order would make the timing and
// every later fault decision vary from run to run.
func (s *Server) gcSweep(p *simtime.Proc) {
	held := s.pool.Owners()
	owners := make([]TaskID, 0, len(held))
	for owner := range held {
		owners = append(owners, owner)
	}
	slices.SortFunc(owners, func(a, b TaskID) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.PID, b.PID))
	})
	for _, owner := range owners {
		alive := false
		if owner.Node == s.node.ID {
			alive = s.taskAlive(owner.PID)
		} else if owner.Node >= 0 && owner.Node < len(s.svc.Servers) {
			var err error
			alive, err = s.svc.peer(owner.Node).TaskAlive(p, s.node, owner.PID)
			if err != nil {
				alive = true
			}
		}
		if !alive {
			s.svc.metrics.gcFreed[s.node.ID].Add(int64(s.pool.FreeOwnedBy(owner)))
		}
	}
}

// gcRound is one round of the server's periodic garbage collection
// daemon; a failed pool ends the daemon.
func (s *Server) gcRound(p *simtime.Proc) bool {
	if s.pool.Failed() {
		return false
	}
	s.gcSweep(p)
	return true
}
