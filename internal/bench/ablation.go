package bench

import (
	"fmt"

	"spongefiles/internal/cluster"
	"spongefiles/internal/failure"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// The ablations quantify the design choices §3 of the paper argues for:
// the 1 MB chunk size (setup-cost amortization versus fragmentation),
// the 1 s tracker poll (staleness versus allocation failures), server
// affinity (failure surface), and prefetch/async writes (latency
// masking).

// ChunkSizeRow is one point of the chunk-size sweep.
type ChunkSizeRow struct {
	ChunkVirtual  int64
	RemoteSpillMs float64 // avg time to spill 1 MB to remote memory
	Fragmentation float64 // wasted fraction for a 10.25 MB spill
}

// ChunkSizeAblation sweeps the in-memory chunk size over the remote
// spill path, reporting per-MB spill cost (small chunks pay the network
// round trip more often) and internal fragmentation for a spill that is
// not chunk-aligned.
func ChunkSizeAblation(sizes []int64, spills int) []ChunkSizeRow {
	if len(sizes) == 0 {
		sizes = []int64{64 * media.KB, 256 * media.KB, 1 * media.MB, 4 * media.MB, 16 * media.MB}
	}
	var rows []ChunkSizeRow
	for _, cs := range sizes {
		rows = append(rows, ChunkSizeRow{
			ChunkVirtual:  cs,
			RemoteSpillMs: chunkRemoteCost(cs, spills),
			Fragmentation: chunkFragmentation(cs),
		})
	}
	return rows
}

func chunkRemoteCost(chunkVirtual int64, spills int) float64 {
	cfg := cluster.PaperConfig()
	cfg.Workers = 2
	cfg.SpongeMemory = 4 * media.GB
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.ChunkVirtual = chunkVirtual
	svc := sponge.Start(c, scfg)
	var avg float64
	sim.Spawn("micro", func(p *simtime.Proc) {
		agent := svc.NewAgent(c.Nodes[0])
		defer agent.Close()
		buf := make([]byte, c.Cfg.R(1*media.MB))
		remote := svc.Servers[1]
		start := p.Now()
		for i := 0; i < spills; i++ {
			// Spill 1 MB as ceil(1MB/chunk) remote chunks.
			left := len(buf)
			chunkReal := svc.ChunkReal()
			for left > 0 {
				n := chunkReal
				if n > left {
					n = left
				}
				h, err := remote.AllocWrite(p, c.Nodes[0], agent.Task(), buf[:n])
				if err != nil {
					panic(err)
				}
				remote.Pool().FreeChunk(h)
				left -= n
			}
		}
		avg = p.Now().Sub(start).Seconds() * 1e3 / float64(spills)
	})
	sim.MustRun()
	return avg
}

// chunkFragmentation computes wasted memory for a 10.25 MB spill: the
// final partial chunk wastes chunk−(size mod chunk) bytes.
func chunkFragmentation(chunkVirtual int64) float64 {
	spill := 10*media.MB + 256*media.KB
	chunks := (spill + chunkVirtual - 1) / chunkVirtual
	return float64(chunks*chunkVirtual-spill) / float64(chunks*chunkVirtual)
}

// StalenessRow is one point of the tracker-staleness sweep.
type StalenessRow struct {
	PollInterval   simtime.Duration
	RemoteFailures int64 // allocation attempts that hit stale entries
	DiskChunks     int   // chunks that fell back to disk
}

// StalenessAblation runs many concurrent spilling tasks against a nearly
// full sponge while sweeping the tracker's poll interval: the staler the
// free list, the more allocation attempts land on full servers and the
// more chunks fall back to disk (§3.1.1's deliberate trade).
func StalenessAblation(intervals []simtime.Duration) []StalenessRow {
	if len(intervals) == 0 {
		intervals = []simtime.Duration{
			100 * simtime.Millisecond, simtime.Second, 10 * simtime.Second, simtime.Hour,
		}
	}
	var rows []StalenessRow
	for _, iv := range intervals {
		rows = append(rows, stalenessRun(iv))
	}
	return rows
}

func stalenessRun(poll simtime.Duration) StalenessRow {
	cfg := cluster.PaperConfig()
	cfg.Workers = 6
	cfg.SpongeMemory = 8 * media.MB // 8 chunks per node: tight
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	scfg := sponge.DefaultConfig()
	scfg.PollInterval = poll
	svc := sponge.Start(c, scfg)

	// Six tasks each create a sequence of files over several seconds,
	// deleting older files as they go. A SpongeFile's candidate list is
	// fixed at creation from the tracker's snapshot, so a fresh tracker
	// lets later files see memory that churn has freed, while a stale
	// one sends them chasing full servers and falling back to disk.
	disk := 0
	for t := 0; t < 6; t++ {
		t := t
		sim.Spawn(fmt.Sprintf("task%d", t), func(p *simtime.Proc) {
			p.Sleep(simtime.Duration(t) * 150 * simtime.Millisecond)
			agent := svc.NewAgent(c.Nodes[t])
			defer agent.Close()
			var prev *sponge.File
			for fi := 0; fi < 4; fi++ {
				f := agent.Create(p, fmt.Sprintf("s%d-%d", t, fi))
				data := make([]byte, 5*svc.ChunkReal())
				if err := f.Write(p, data); err != nil {
					panic(err)
				}
				if err := f.Close(p); err != nil {
					panic(err)
				}
				disk += f.Stats().ByKind[sponge.LocalDisk]
				if prev != nil {
					prev.Delete(p) // churn: free the previous spill
				}
				prev = f
				p.Sleep(1200 * simtime.Millisecond)
			}
			if prev != nil {
				prev.Delete(p)
			}
		})
	}
	sim.MustRun()
	var fails int64
	for i := range svc.Servers {
		f, _ := svc.Metrics().Lookup(fmt.Sprintf(`sponge_remote_alloc_fails_total{node="%d"}`, i))
		fails += f
	}
	return StalenessRow{PollInterval: poll, RemoteFailures: fails, DiskChunks: disk}
}

// AffinityRow compares the failure surface with and without affinity.
type AffinityRow struct {
	Affinity     bool
	MachinesUsed int
	FailureProb  float64 // per §4.3's model, t = 120 min
}

// AffinityAblation spills several files from one task across a large
// rack while other tenants churn the free-space ranking, and reports how
// many machines end up holding the task's data — the failure-surface
// argument for affinity in §3.1.1. Without affinity every new file
// chases whichever server currently advertises the most free memory;
// with affinity the task keeps returning to servers it already uses.
func AffinityAblation() []AffinityRow {
	var rows []AffinityRow
	for _, aff := range []bool{true, false} {
		cfg := cluster.PaperConfig()
		cfg.Workers = 20
		cfg.SpongeMemory = 64 * media.MB
		sim := simtime.New()
		c := cluster.New(sim, cfg)
		scfg := sponge.DefaultConfig()
		scfg.Affinity = aff
		scfg.PollInterval = 200 * simtime.Millisecond
		svc := sponge.Start(c, scfg)
		machines := 0
		// Churn: a rotating tenant occupies and releases pool space so
		// the tracker's most-free ranking changes between files.
		sim.NewDaemon("tenant", func(p *simtime.Proc) {
			var held []int
			heldNode := -1
			for i := 0; ; i++ {
				node := 1 + i%19
				if heldNode >= 0 {
					for _, h := range held {
						svc.Servers[heldNode].Pool().FreeChunk(h)
					}
				}
				held = held[:0]
				pool := svc.Servers[node].Pool()
				owner := sponge.TaskID{Node: node, PID: 999}
				for j := 0; j < 48; j++ {
					if h, err := pool.Alloc(owner); err == nil {
						held = append(held, h)
					}
				}
				heldNode = node
				p.Sleep(simtime.Second)
			}
		}).Wake()
		sim.Spawn("task", func(p *simtime.Proc) {
			agent := svc.NewAgent(c.Nodes[0])
			defer agent.Close()
			// The task's own node is out of sponge memory (the skew
			// case): every chunk must go remote.
			pool0 := svc.Servers[0].Pool()
			squatter := sponge.TaskID{Node: 0, PID: 998}
			svc.Servers[0].RegisterTask(squatter.PID)
			for {
				if _, err := pool0.Alloc(squatter); err != nil {
					break
				}
			}
			for i := 0; i < 12; i++ {
				f := agent.Create(p, fmt.Sprintf("f%d", i))
				if err := f.Write(p, make([]byte, 4*svc.ChunkReal())); err != nil {
					panic(err)
				}
				if err := f.Close(p); err != nil {
					panic(err)
				}
				p.Sleep(simtime.Second)
			}
			machines = agent.MachinesUsed()
		})
		sim.MustRun()
		sim.Close()
		rows = append(rows, AffinityRow{
			Affinity:     aff,
			MachinesUsed: machines,
			// §4.3, at the paper's MTTF and a 120-minute task.
			FailureProb: failure.TaskFailureProbability(machines, 120*simtime.Minute, failure.PaperMTTF()),
		})
	}
	return rows
}

// RackRow is one mode of the rack-locality ablation.
type RackRow struct {
	RackLocalOnly  bool
	SpillMs        float64
	CrossRackBytes int64
	DiskChunks     int
}

// RackLocalityAblation demonstrates §3.1.1's rack restriction: a task on
// a rack whose sponge memory is exhausted either falls back to its local
// disk (rack-local policy) or spills across the oversubscribed uplink —
// competing with the cross-rack traffic the paper worries about.
func RackLocalityAblation() []RackRow {
	var rows []RackRow
	for _, local := range []bool{true, false} {
		cfg := cluster.PaperConfig()
		cfg.Workers = 12
		cfg.NodesPerRack = 6
		cfg.SpongeMemory = 16 * media.MB
		sim := simtime.New()
		c := cluster.New(sim, cfg)
		scfg := sponge.DefaultConfig()
		scfg.RackLocalOnly = local
		svc := sponge.Start(c, scfg)

		// Fill rack 0's pools so remote allocation must leave the rack.
		for i := 0; i < 6; i++ {
			pool := svc.Servers[i].Pool()
			owner := sponge.TaskID{Node: i, PID: 900}
			svc.Servers[i].RegisterTask(owner.PID)
			for {
				if _, err := pool.Alloc(owner); err != nil {
					break
				}
			}
		}
		// Steady cross-rack background traffic congests the uplink.
		sim.NewDaemon("xrack", func(p *simtime.Proc) {
			for {
				c.Transfer(p, c.Nodes[1], c.Nodes[7], c.Cfg.R(32*media.MB))
			}
		}).Wake()
		row := RackRow{RackLocalOnly: local}
		sim.Spawn("task", func(p *simtime.Proc) {
			p.Sleep(simtime.Second)
			agent := svc.NewAgent(c.Nodes[0])
			defer agent.Close()
			f := agent.Create(p, "spill")
			start := p.Now()
			if err := f.Write(p, make([]byte, 32*svc.ChunkReal())); err != nil {
				panic(err)
			}
			if err := f.Close(p); err != nil {
				panic(err)
			}
			row.SpillMs = p.Now().Sub(start).Seconds() * 1e3
			row.DiskChunks = f.Stats().ByKind[sponge.LocalDisk]
			f.Delete(p)
		})
		sim.MustRun()
		sim.Close()
		row.CrossRackBytes = c.Net.CrossRackBytes
		rows = append(rows, row)
	}
	return rows
}

// OverlapRow compares read/write throughput with the §3.1.2
// optimizations on and off.
type OverlapRow struct {
	Prefetch   bool
	AsyncDepth int
	WriteMs    float64 // spill 32 MB to remote memory
	ReadMs     float64 // read it back with per-chunk compute
}

// OverlapAblation measures the benefit of asynchronous chunk writes and
// read prefetching on a remote-heavy spill.
func OverlapAblation() []OverlapRow {
	var rows []OverlapRow
	for _, on := range []bool{false, true} {
		cfg := cluster.PaperConfig()
		cfg.Workers = 3
		cfg.SpongeMemory = 64 * media.MB
		sim := simtime.New()
		c := cluster.New(sim, cfg)
		scfg := sponge.DefaultConfig()
		if !on {
			scfg.AsyncWriteDepth = 0
			scfg.ReadAheadDepth = 0
		}
		svc := sponge.Start(c, scfg)
		row := OverlapRow{Prefetch: on, AsyncDepth: scfg.AsyncWriteDepth}
		sim.Spawn("task", func(p *simtime.Proc) {
			agent := svc.NewAgent(c.Nodes[0])
			defer agent.Close()
			// Exhaust local memory first so the file is remote-heavy.
			hog := agent.Create(p, "hog")
			if err := hog.Write(p, make([]byte, 64*svc.ChunkReal())); err != nil {
				panic(err)
			}
			if err := hog.Close(p); err != nil {
				panic(err)
			}
			f := agent.Create(p, "spill")
			start := p.Now()
			data := make([]byte, svc.ChunkReal())
			for i := 0; i < 32; i++ {
				if err := f.Write(p, data); err != nil {
					panic(err)
				}
				p.Sleep(3 * simtime.Millisecond) // producing compute
			}
			if err := f.Close(p); err != nil {
				panic(err)
			}
			row.WriteMs = p.Now().Sub(start).Seconds() * 1e3
			start = p.Now()
			buf := make([]byte, svc.ChunkReal())
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					panic(err)
				}
				if n == 0 {
					break
				}
				p.Sleep(3 * simtime.Millisecond) // consuming compute
			}
			row.ReadMs = p.Now().Sub(start).Seconds() * 1e3
			f.Delete(p)
			hog.Delete(p)
		})
		sim.MustRun()
		sim.Close()
		rows = append(rows, row)
	}
	return rows
}
