// Package spill abstracts where a task's spilled data goes. The MapReduce
// reduce-side merger and Pig's data bags write spills through a Target;
// swapping the DiskTarget (stock Hadoop behaviour — local files through
// the node's page cache) for the SpongeTarget (the paper's contribution)
// is the entire integration, mirroring §3.2.
package spill

import (
	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// File is one spill: written once, closed, read back (possibly in several
// passes with Rewind), and deleted. *sponge.File implements it directly.
// Write copies what it is given: the caller may reuse data once it
// returns.
type File interface {
	Write(p *simtime.Proc, data []byte) error
	Close(p *simtime.Proc) error
	Read(p *simtime.Proc, buf []byte) (int, error)
	Rewind()
	Delete(p *simtime.Proc)
	Size() int64
}

// Target creates spill files for one task.
type Target interface {
	Create(p *simtime.Proc, name string) File
	// Stats reports cumulative spill activity across the task's files.
	Stats() Stats
	// Close releases task-level resources (the sponge agent).
	Close()
}

// Stats describes a task's total spill activity in real bytes.
type Stats struct {
	Files      int
	BytesReal  int64
	Chunks     int64  // sponge chunk spills; 0 for the disk target
	ByKind     [4]int // per sponge.ChunkKind; zero for the disk target
	Machines   int    // distinct machines holding spill data
	RemoteMode bool   // true when the target is sponge-backed
}

// --- Disk target ---------------------------------------------------------

// DiskTarget spills to local files on the task's node, the stock Hadoop
// behaviour the paper compares against. Payload bytes are retained
// in-process (the simulated disk charges time but stores nothing).
type DiskTarget struct {
	node  *cluster.Node
	stats Stats
}

// NewDiskTarget returns a disk spill target on the given node.
func NewDiskTarget(node *cluster.Node) *DiskTarget {
	return &DiskTarget{node: node, stats: Stats{Machines: 1}}
}

// Create opens a new spill file backed by one local disk stream.
func (t *DiskTarget) Create(p *simtime.Proc, name string) File {
	t.stats.Files++
	return &diskFile{t: t, stream: t.node.Disk.NewStream()}
}

// Stats implements Target.
func (t *DiskTarget) Stats() Stats { return t.stats }

// Close implements Target; the disk target holds no task resources.
func (t *DiskTarget) Close() {}

type diskFile struct {
	t      *DiskTarget
	stream media.StreamID
	data   []byte
	pos    int
	closed bool
}

func (f *diskFile) Write(p *simtime.Proc, data []byte) error {
	if f.closed {
		panic("spill: write after close")
	}
	f.t.node.WriteFile(p, f.stream, len(data))
	f.data = append(f.data, data...)
	f.t.stats.BytesReal += int64(len(data))
	return nil
}

func (f *diskFile) Close(p *simtime.Proc) error {
	f.closed = true
	return nil
}

func (f *diskFile) Read(p *simtime.Proc, buf []byte) (int, error) {
	if !f.closed {
		panic("spill: read before close")
	}
	n := copy(buf, f.data[f.pos:])
	if n > 0 {
		f.t.node.ReadFile(p, f.stream, n)
		f.pos += n
	}
	return n, nil
}

func (f *diskFile) Rewind() { f.pos = 0 }

func (f *diskFile) Delete(p *simtime.Proc) {
	f.t.node.Disk.Delete(f.stream)
	f.data = nil
}

func (f *diskFile) Size() int64 { return int64(len(f.data)) }

// --- Sponge target -------------------------------------------------------

// SpongeTarget spills through SpongeFiles: the paper's modified Hadoop
// and Pig write each spilled object into its own SpongeFile.
type SpongeTarget struct {
	agent *sponge.Agent
	files []*sponge.File
}

// NewSpongeTarget registers a task with the sponge service and returns
// its spill target.
func NewSpongeTarget(svc *sponge.Service, node *cluster.Node) *SpongeTarget {
	return &SpongeTarget{agent: svc.NewAgent(node)}
}

// Agent exposes the underlying sponge agent (for failure-surface stats).
func (t *SpongeTarget) Agent() *sponge.Agent { return t.agent }

// Create opens a new SpongeFile.
func (t *SpongeTarget) Create(p *simtime.Proc, name string) File {
	f := t.agent.Create(p, name)
	t.files = append(t.files, f)
	return f
}

// Stats implements Target.
func (t *SpongeTarget) Stats() Stats {
	s := Stats{
		Files:      len(t.files),
		BytesReal:  t.agent.BytesSpilled,
		Chunks:     t.agent.ChunksSpilled,
		Machines:   t.agent.MachinesUsed(),
		RemoteMode: true,
	}
	for _, f := range t.files {
		fs := f.Stats()
		for k := range s.ByKind {
			s.ByKind[k] += fs.ByKind[k]
		}
	}
	return s
}

// Close unregisters the task from the sponge service.
func (t *SpongeTarget) Close() { t.agent.Close() }

// Factory builds one Target per task; the engines call it when a task
// starts on a node.
type Factory func(node *cluster.Node) Target

// DiskFactory returns a Factory producing disk targets.
func DiskFactory() Factory {
	return func(node *cluster.Node) Target { return NewDiskTarget(node) }
}

// SpongeFactory returns a Factory producing sponge targets on svc.
func SpongeFactory(svc *sponge.Service) Factory {
	return func(node *cluster.Node) Target { return NewSpongeTarget(svc, node) }
}
