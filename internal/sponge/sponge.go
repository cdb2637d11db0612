// Package sponge implements SpongeFiles, the paper's distributed-memory
// spill abstraction: a logical byte array made of large chunks that live
// in local sponge memory, remote sponge memory, the local disk, or a
// distributed filesystem as a last resort.
//
// The package provides the full system described in §3 of the paper:
//
//   - Pool: a node's shared sponge memory, divided into fixed equal-size
//     chunks plus a metadata region recording each chunk's owner task.
//   - Server: the per-node sponge server, which shares the local pool,
//     exports its free space, serves remote allocation, and garbage
//     collects chunks orphaned by dead tasks.
//   - Tracker: the cluster-wide memory tracking server that periodically
//     polls sponge servers and hands out (possibly stale) free lists.
//   - File: the SpongeFile itself — create/write/read/delete, single
//     writer then single reader, strictly sequential, with asynchronous
//     writes and prefetching of non-local chunks.
//
// All operations charge virtual time on the cluster's devices; payloads
// are real bytes, so data integrity is testable end to end.
package sponge

import (
	"errors"
	"fmt"

	"spongefiles/internal/cluster"
	"spongefiles/internal/simtime"
)

// TaskID identifies the task owning a chunk, cluster-wide. The paper
// stores the process ID and machine IP in each chunk's metadata entry;
// we store the node ID and a per-node process identifier. The zero value
// marks a free chunk.
type TaskID struct {
	Node int
	PID  int64
}

// IsZero reports whether the ID is the free-chunk marker.
func (t TaskID) IsZero() bool { return t == TaskID{} }

func (t TaskID) String() string { return fmt.Sprintf("task(n%d/p%d)", t.Node, t.PID) }

// ChunkKind says where a SpongeFile chunk physically lives.
type ChunkKind int

const (
	// LocalMem is a chunk in this node's sponge pool, accessed through
	// shared memory.
	LocalMem ChunkKind = iota
	// RemoteMem is a chunk in another node's sponge pool, accessed via
	// that node's sponge server over the network.
	RemoteMem
	// LocalDisk is a chunk in a file on the node's local filesystem.
	LocalDisk
	// RemoteFS is a chunk in the distributed filesystem (last resort).
	RemoteFS
)

func (k ChunkKind) String() string {
	switch k {
	case LocalMem:
		return "local-mem"
	case RemoteMem:
		return "remote-mem"
	case LocalDisk:
		return "local-disk"
	case RemoteFS:
		return "remote-fs"
	}
	return "unknown"
}

// Errors returned by sponge operations.
var (
	// ErrNoFreeChunk reports that a pool has no free chunk.
	ErrNoFreeChunk = errors.New("sponge: no free chunk")
	// ErrChunkLost reports that a chunk's hosting node failed before the
	// chunk was read back; the owning task must fail and be restarted by
	// the framework (§3.1).
	ErrChunkLost = errors.New("sponge: chunk lost to node failure")
	// ErrQuotaExceeded reports that a task hit its per-node chunk quota.
	ErrQuotaExceeded = errors.New("sponge: per-node quota exceeded")
	// ErrPeerUnreachable reports that a transport-level exchange with a
	// peer was lost — timeout, dropped message, network partition, or a
	// dead connection. Unlike the application errors above, the request
	// may or may not have executed on the peer; callers retry a bounded
	// number of times (retryLimit) before blacklisting the peer.
	ErrPeerUnreachable = errors.New("sponge: peer unreachable")
)

// RemoteStore is the distributed-filesystem hook used for last-resort
// chunk storage; internal/dfs provides the production implementation.
type RemoteStore interface {
	// CreateSpill creates a spill file owned by the given task, created
	// from the given node (locality determines replica placement cost).
	CreateSpill(p *simtime.Proc, from *cluster.Node, owner TaskID) RemoteSpill
}

// RemoteSpill is an append-then-scan byte stream in the remote store.
type RemoteSpill interface {
	Append(p *simtime.Proc, data []byte)
	// Open resets the read cursor to the beginning.
	Open()
	// Read fills buf from the cursor, returning bytes read; 0 at EOF.
	Read(p *simtime.Proc, buf []byte) int
	Delete(p *simtime.Proc)
}
