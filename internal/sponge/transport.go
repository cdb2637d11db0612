package sponge

import (
	"spongefiles/internal/cluster"
	"spongefiles/internal/simtime"
)

// Peer is a task-side handle on one node's sponge server: the five
// remote operations every node-to-node exchange in the system reduces to
// (§3.1.1). The allocator chain uses AllocWrite/Read/Free, the memory
// tracker polls FreeSpace, and the garbage collector delegates liveness
// checks with TaskAlive.
//
// Implementations decide what "remote" means. The simulated peer is the
// node's *Server itself, charging virtual network time; the
// wire transport (internal/sponge/wire) performs the same operations
// over real TCP. Errors split into two classes that callers must treat
// differently:
//
//   - Application errors (ErrNoFreeChunk, ErrQuotaExceeded,
//     ErrChunkLost) mean the exchange completed and the server said no.
//     Retrying the same peer is pointless; the caller blacklists it.
//   - Transport errors wrap ErrPeerUnreachable: the exchange itself was
//     lost (timeout, dropped message, partition, dead connection). The
//     request may or may not have executed; callers retry a bounded
//     number of times before giving the peer up.
type Peer interface {
	// AllocWrite allocates a chunk for owner on the peer and stores data
	// in it, in one exchange from the caller's node, returning the chunk
	// handle.
	AllocWrite(p *simtime.Proc, from *cluster.Node, owner TaskID, data []byte) (int, error)
	// Read fetches a chunk's contents back to the caller's node.
	Read(p *simtime.Proc, to *cluster.Node, handle int, buf []byte) (int, error)
	// Free releases a chunk on the peer on behalf of the caller's task.
	Free(p *simtime.Proc, from *cluster.Node, handle int) error
	// FreeSpace asks the peer's server for its current free chunk count
	// (the tracker's poll, §3.1.1).
	FreeSpace(p *simtime.Proc, from *cluster.Node) (int, error)
	// TaskAlive asks the peer whether the given local PID is still
	// registered (the garbage collector's delegated liveness check,
	// §3.1.3).
	TaskAlive(p *simtime.Proc, from *cluster.Node, pid int64) (bool, error)
}

// Transport hands out Peer handles by node ID. It is the seam between
// the sponge service's logic (allocator chain, tracker polling, GC,
// failover) and whatever actually moves the bytes; install one with
// Service.SetTransport.
type Transport interface {
	Peer(node int) Peer
}

// simTransport is the default transport: every remote operation is a
// direct method call on the peer's Server object, with the network cost
// of the exchange charged in virtual time. It reproduces the
// pre-transport-seam behaviour exactly — same charges in the same order
// — so simulations are bit-identical to the direct-call implementation.
type simTransport struct{ svc *Service }

func (t simTransport) Peer(node int) Peer { return t.svc.Servers[node] }
