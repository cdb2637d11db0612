package spill

import (
	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

// PagingTarget is the remote-paging baseline the paper's introduction
// argues against: kernel-level remote memory moves one page (a few KB)
// per network round trip, with no application knowledge to batch or
// prefetch. Spills through this target behave like paging a task's
// overflow to a remote host — every page in or out pays a full round
// trip — so it demonstrates why SpongeFiles use large, sequentially
// streamed chunks instead.
type PagingTarget struct {
	c      *cluster.Cluster
	node   *cluster.Node
	remote *cluster.Node
	stats  Stats
}

// pageVirtual is the paging granularity: one kernel page.
const pageVirtual = 4 * media.KB

// NewPagingTarget pages between node and a remote host.
func NewPagingTarget(c *cluster.Cluster, node, remote *cluster.Node) *PagingTarget {
	return &PagingTarget{
		c: c, node: node, remote: remote,
		stats: Stats{Machines: 2, RemoteMode: true},
	}
}

// Create opens a paging-backed spill file.
func (t *PagingTarget) Create(p *simtime.Proc, name string) File {
	t.stats.Files++
	return &pagedFile{t: t}
}

// Stats implements Target.
func (t *PagingTarget) Stats() Stats { return t.stats }

// Close implements Target.
func (t *PagingTarget) Close() {}

type pagedFile struct {
	t      *PagingTarget
	data   []byte
	pos    int
	synced int // real bytes already paged out
	closed bool
}

// pageOut sends full pages one round trip at a time (the kernel cannot
// know more data is coming).
func (f *pagedFile) pageOut(p *simtime.Proc, all bool) {
	pageReal := f.t.node.RealOf(pageVirtual)
	for len(f.data)-f.synced >= pageReal || (all && f.synced < len(f.data)) {
		n := pageReal
		if n > len(f.data)-f.synced {
			n = len(f.data) - f.synced
		}
		// Control + payload out, ack back: one RTT per page.
		f.t.c.Transfer(p, f.t.node, f.t.remote, n)
		f.t.c.Transfer(p, f.t.remote, f.t.node, 64)
		f.synced += n
	}
}

func (f *pagedFile) Write(p *simtime.Proc, data []byte) error {
	if f.closed {
		panic("spill: write after close")
	}
	f.data = append(f.data, data...)
	f.t.stats.BytesReal += int64(len(data))
	f.pageOut(p, false)
	return nil
}

func (f *pagedFile) Close(p *simtime.Proc) error {
	f.pageOut(p, true)
	f.closed = true
	return nil
}

func (f *pagedFile) Read(p *simtime.Proc, buf []byte) (int, error) {
	if !f.closed {
		panic("spill: read before close")
	}
	if f.pos >= len(f.data) {
		return 0, nil
	}
	// Page-fault semantics: fetch one page per fault, round trip each,
	// regardless of how much the caller asked for.
	pageReal := f.t.node.RealOf(pageVirtual)
	n := pageReal
	if n > len(f.data)-f.pos {
		n = len(f.data) - f.pos
	}
	if n > len(buf) {
		n = len(buf)
	}
	f.t.c.Transfer(p, f.t.node, f.t.remote, 64)
	f.t.c.Transfer(p, f.t.remote, f.t.node, n)
	copy(buf, f.data[f.pos:f.pos+n])
	f.pos += n
	return n, nil
}

func (f *pagedFile) Rewind() { f.pos = 0 }

func (f *pagedFile) Delete(p *simtime.Proc) { f.data = nil }

func (f *pagedFile) Size() int64 { return int64(len(f.data)) }
