package bench

import (
	"fmt"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// ReadAheadConfig selects the readahead experiment's grid: one task
// reading a fully remote SpongeFile back while the window depth and the
// per-exchange network latency vary, once over the simulated direct-call
// transport and once over the real TCP wire transport.
type ReadAheadConfig struct {
	// Workers is the cluster size (node 0 runs the task; the rest serve
	// remote memory).
	Workers int
	// FileChunks is the length of the measured file. Every one of its
	// chunks lands in remote memory: a decoy file pins the local pool
	// first, and the peer pools are sized to hold the whole file.
	FileChunks int
	// Depths is the sweep of ReadAheadDepth values; the first is the
	// speedup baseline.
	Depths []int
	// DelaysMs is the sweep of injected per-exchange delays (virtual
	// milliseconds, via the fault transport). Depth pays off exactly when
	// the delay exceeds the path's serial floor: the reader's ~1 ms/chunk
	// memcpy charge on the wire transport (whose exchanges cost no
	// virtual time), plus the ~8.4 ms/chunk NIC serialization on the
	// simulated one. 0 shows that floor.
	DelaysMs []int
	// Seed drives the fault transport (which injects no faults here, only
	// delay, but keeps its deterministic stream).
	Seed int64
}

// DefaultReadAhead is the configuration of EXPERIMENTS.md's readahead
// table.
func DefaultReadAhead() ReadAheadConfig {
	return ReadAheadConfig{
		Workers:    4,
		FileChunks: 24,
		Depths:     []int{1, 2, 4, 8},
		DelaysMs:   []int{0, 1, 5, 10},
		Seed:       1,
	}
}

// ReadAheadCell is one (transport, delay, depth) measurement.
type ReadAheadCell struct {
	Transport string
	DelayMs   int
	Depth     int
	// Chunks and RemoteMem confirm the intended placement: every
	// measured chunk should be remote memory.
	Chunks    int
	RemoteMem int
	// ReadVirtualMs is the virtual time the sequential read-back took;
	// ThroughputMBs is virtual file megabytes over that time.
	ReadVirtualMs float64
	ThroughputMBs float64
	// Speedup is this cell's read throughput over the depth-1 cell of the
	// same transport and delay.
	Speedup float64
	// WallMs is host time for the whole cell (the TCP round trips live
	// here on the wire transport).
	WallMs float64
}

// RunReadAhead sweeps depth × injected delay over both transports. Cells
// are ordered transport-major, then by delay, then by depth, and each
// (transport, delay) group's speedups are relative to its depth-1 cell.
func RunReadAhead(cfg ReadAheadConfig) []ReadAheadCell {
	var cells []ReadAheadCell
	for _, transport := range []string{"sim", "wire"} {
		for _, delay := range cfg.DelaysMs {
			base := -1.0
			for _, depth := range cfg.Depths {
				cell := runReadAheadCell(transport, delay, depth, cfg)
				if base < 0 {
					base = cell.ReadVirtualMs
				}
				if cell.ReadVirtualMs > 0 {
					cell.Speedup = base / cell.ReadVirtualMs
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// runReadAheadCell builds a fresh cluster whose peer pools hold the whole
// measured file, pins node 0's local pool with a decoy file so every
// measured chunk spills to remote memory, injects the cell's per-exchange
// delay, and times the sequential read-back.
func runReadAheadCell(transport string, delayMs, depth int, cfg ReadAheadConfig) ReadAheadCell {
	ccfg := cluster.PaperConfig()
	ccfg.Workers = cfg.Workers
	// Every pool holds peerChunks chunks: the peers jointly fit the whole
	// measured file, and the decoy file fills node 0's pool exactly.
	peerChunks := (cfg.FileChunks + cfg.Workers - 2) / (cfg.Workers - 1)
	ccfg.SpongeMemory = int64(peerChunks) * media.MB
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, ccfg)
	scfg := sponge.DefaultConfig()
	scfg.ReadAheadDepth = depth
	svc := sponge.Start(c, scfg)

	base, stopWire := svc.Transport(), func() {}
	if transport == "wire" {
		base, stopWire = frontWithWire(svc, cfg.Workers, peerChunks)
	}
	// The fault wrapper injects no faults here — only the per-exchange
	// delivery delay the window is supposed to hide.
	svc.SetTransport(sponge.NewFaultTransport(base, sponge.FaultConfig{
		Seed:  cfg.Seed,
		Delay: simtime.Duration(delayMs) * simtime.Millisecond,
	}))

	cell := ReadAheadCell{Transport: transport, DelayMs: delayMs, Depth: depth}
	chunk := svc.ChunkReal()
	data := make([]byte, cfg.FileChunks*chunk)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	start := time.Now()
	sim.Spawn("readahead", func(p *simtime.Proc) {
		agent := svc.NewAgent(c.Nodes[0])
		defer agent.Close()
		// Fill the local pool so the measured file has nowhere local to go.
		// Wire peers see no decoy traffic: its chunks are all local.
		decoy := agent.Create(p, "decoy")
		if err := decoy.Write(p, make([]byte, peerChunks*chunk)); err != nil {
			panic(fmt.Sprintf("bench: decoy write: %v", err))
		}
		decoy.Close(p)
		f := agent.Create(p, "measured")
		if err := f.Write(p, data); err != nil {
			panic(fmt.Sprintf("bench: readahead write: %v", err))
		}
		f.Close(p)
		st := f.Stats()
		cell.Chunks = st.Chunks
		cell.RemoteMem = st.ByKind[sponge.RemoteMem]

		buf := make([]byte, chunk)
		readStart := p.Now()
		for {
			n, err := f.Read(p, buf)
			if err != nil {
				panic(fmt.Sprintf("bench: readahead read: %v", err))
			}
			if n == 0 {
				break
			}
		}
		readTime := p.Now().Sub(readStart)
		cell.ReadVirtualMs = float64(readTime) / float64(simtime.Millisecond)
		if readTime > 0 {
			virtualMB := float64(int64(cfg.FileChunks) * svc.Config.ChunkVirtual / media.MB)
			cell.ThroughputMBs = virtualMB / readTime.Seconds()
		}
		f.Delete(p)
		decoy.Delete(p)
	})
	sim.MustRun()
	stopWire()
	cell.WallMs = float64(time.Since(start).Microseconds()) / 1000
	return cell
}

// ReadAheadHeader labels ReadAheadRows' columns.
var ReadAheadHeader = []string{
	"transport", "delay", "depth", "chunks", "remote",
	"read ms", "MB/s", "speedup", "wall ms",
}

// ReadAheadRows formats the cells for FormatTable.
func ReadAheadRows(cells []ReadAheadCell) [][]string {
	var out [][]string
	for _, c := range cells {
		out = append(out, []string{
			c.Transport,
			fmt.Sprintf("%dms", c.DelayMs),
			fmt.Sprintf("%d", c.Depth),
			fmt.Sprintf("%d", c.Chunks),
			fmt.Sprintf("%d", c.RemoteMem),
			fmt.Sprintf("%.2f", c.ReadVirtualMs),
			fmt.Sprintf("%.1f", c.ThroughputMBs),
			fmt.Sprintf("%.2fx", c.Speedup),
			fmt.Sprintf("%.1f", c.WallMs),
		})
	}
	return out
}
