package bench

import (
	"fmt"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
	"spongefiles/internal/sponge/wire"
)

// FaultsConfig selects the fault-injection experiment's grid: a small
// cluster spilling a fixed stream of SpongeFiles while the transport
// loses an increasing fraction of exchanges, once over the simulated
// direct-call transport and once over the real TCP wire transport.
type FaultsConfig struct {
	// Workers is the cluster size (node 0 runs the task; the rest serve
	// remote memory).
	Workers int
	// Files and FileChunks shape the workload: Files sequential
	// SpongeFiles of FileChunks chunks each, written, read back, and
	// deleted.
	Files      int
	FileChunks int
	// DropRates is the sweep of exchange-loss probabilities.
	DropRates []float64
	// Seed drives the deterministic fault stream.
	Seed int64
}

// DefaultFaults is the configuration of EXPERIMENTS.md's fault-injection
// table.
func DefaultFaults() FaultsConfig {
	return FaultsConfig{
		Workers:    4,
		Files:      6,
		FileChunks: 8,
		DropRates:  []float64{0, 0.05, 0.1, 0.2},
		Seed:       1,
	}
}

// FaultCell is one (transport, drop rate) measurement.
type FaultCell struct {
	Transport string
	DropRate  float64
	// Chunk placement summed over every file of the run.
	Chunks     int
	RemoteMem  int
	DiskChunks int
	// SpillSuccess is the fraction of chunks that stayed in memory
	// (local or remote) instead of degrading to disk.
	SpillSuccess float64
	// Retries are lost exchanges re-sent by the retry loop; LostReads
	// counts files whose read-back hit ErrChunkLost after the budget.
	Retries   int
	LostReads int
	// Exchanges/Drops are the fault wrapper's counters.
	Exchanges int64
	Drops     int64
	// VirtualMs is simulated time (timeouts and backoff are charged
	// there); WallMs is host time, where the TCP round trips live.
	VirtualMs int64
	WallMs    float64
}

// RunFaults sweeps the drop rates over both transports. Cells are
// ordered transport-major: all simulated rates, then all wire rates.
func RunFaults(cfg FaultsConfig) []FaultCell {
	var cells []FaultCell
	for _, transport := range []string{"sim", "wire"} {
		for _, rate := range cfg.DropRates {
			cells = append(cells, runFaultCell(transport, rate, cfg))
		}
	}
	return cells
}

// runFaultCell builds a fresh cluster, optionally fronts nodes 1..N-1
// with real TCP wire servers, wraps whichever transport in the seeded
// fault injector, and drives the file workload through it.
func runFaultCell(transport string, drop float64, cfg FaultsConfig) FaultCell {
	ccfg := cluster.PaperConfig()
	ccfg.Workers = cfg.Workers
	ccfg.SpongeMemory = 2 * media.MB // two chunks per node: remote capacity is tight
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, ccfg)
	svc := sponge.Start(c, sponge.DefaultConfig())

	base, stopWire := svc.Transport(), func() {}
	if transport == "wire" {
		// The TCP servers mirror the simulated pools' capacity so the
		// two transports face the same allocation problem.
		base, stopWire = frontWithWire(svc, cfg.Workers, int(ccfg.SpongeMemory/svc.Config.ChunkVirtual))
	}
	faults := sponge.NewFaultTransport(base, sponge.FaultConfig{Seed: cfg.Seed, DropRate: drop})
	svc.SetTransport(faults)

	cell := FaultCell{Transport: transport, DropRate: drop}
	chunk := svc.ChunkReal()
	data := make([]byte, cfg.FileChunks*chunk)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	start := time.Now()
	sim.Spawn("faultdriver", func(p *simtime.Proc) {
		buf := make([]byte, chunk)
		for i := 0; i < cfg.Files; i++ {
			agent := svc.NewAgent(c.Nodes[0])
			f := agent.Create(p, fmt.Sprintf("fault-%d", i))
			if err := f.Write(p, data); err != nil {
				panic(fmt.Sprintf("bench: fault-cell write: %v", err))
			}
			f.Close(p)
			for {
				n, err := f.Read(p, buf)
				if err != nil {
					cell.LostReads++
					break
				}
				if n == 0 {
					break
				}
			}
			st := f.Stats()
			cell.Chunks += st.Chunks
			cell.RemoteMem += st.ByKind[sponge.RemoteMem]
			cell.DiskChunks += st.ByKind[sponge.LocalDisk] + st.ByKind[sponge.RemoteFS]
			cell.Retries += st.Retries
			f.Delete(p)
			agent.Close()
		}
	})
	sim.MustRun()
	stopWire()
	cell.WallMs = float64(time.Since(start).Microseconds()) / 1000
	cell.VirtualMs = simtime.Duration(sim.Now()).Std().Milliseconds()
	cell.Exchanges, _ = svc.Metrics().Lookup("sponge_fault_exchanges_total")
	cell.Drops, _ = svc.Metrics().Lookup("sponge_fault_drops_total")
	if cell.Chunks > 0 {
		cell.SpillSuccess = float64(cell.Chunks-cell.DiskChunks) / float64(cell.Chunks)
	}
	return cell
}

// frontWithWire fronts nodes 1..workers-1 of a simulated service with
// in-process TCP sponge servers holding chunks chunks each. It returns
// the wire transport that reaches them (node 0 stays on the service's
// own transport) and the function that closes the transport and the
// servers.
func frontWithWire(svc *sponge.Service, workers, chunks int) (sponge.Transport, func()) {
	addrs := make(map[int]string)
	var servers []*wire.Server
	for n := 1; n < workers; n++ {
		srv, err := wire.Serve(sponge.NewPool(svc.ChunkReal(), chunks), "127.0.0.1:0", wire.Options{})
		if err != nil {
			panic(fmt.Sprintf("bench: wire serve: %v", err))
		}
		servers = append(servers, srv)
		addrs[n] = srv.Addr()
	}
	wt := wire.NewTransportOptions(addrs, svc.Transport(), wire.TransportOptions{})
	return wt, func() {
		wt.Close()
		for i := len(servers) - 1; i >= 0; i-- {
			servers[i].Close()
		}
	}
}

// FaultsHeader labels FaultsRows' columns.
var FaultsHeader = []string{
	"transport", "drop", "chunks", "remote", "disk",
	"mem success", "retries", "lost reads", "drops/exch", "virt ms", "wall ms",
}

// FaultsRows formats the cells for FormatTable.
func FaultsRows(cells []FaultCell) [][]string {
	var out [][]string
	for _, c := range cells {
		out = append(out, []string{
			c.Transport,
			fmt.Sprintf("%.0f%%", c.DropRate*100),
			fmt.Sprintf("%d", c.Chunks),
			fmt.Sprintf("%d", c.RemoteMem),
			fmt.Sprintf("%d", c.DiskChunks),
			fmt.Sprintf("%.0f%%", c.SpillSuccess*100),
			fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d", c.LostReads),
			fmt.Sprintf("%d/%d", c.Drops, c.Exchanges),
			fmt.Sprintf("%d", c.VirtualMs),
			fmt.Sprintf("%.1f", c.WallMs),
		})
	}
	return out
}
