package bench

import (
	"fmt"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// Table1Row is one spill-medium measurement: the average time to spill a
// 1 MB buffer.
type Table1Row struct {
	Medium string
	AvgMs  float64
}

// Table1Media are the six configurations of §4.1, in the paper's order.
var Table1Media = []string{
	"local shared memory",
	"local memory (local sponge server)",
	"remote memory, over the network",
	"disk",
	"disk with background IO",
	"disk with background IO and memory pressure",
}

// Table1 runs the §4.1 microbenchmark: spill a 1 MB buffer `spills`
// times to each medium (the paper uses 10,000) and report the average
// spill time. The paper's measured row is 1 / 7 / 9 / 25 / 174 / 499 ms.
func Table1(spills int) []Table1Row {
	if spills <= 0 {
		spills = 10000
	}
	rows := make([]Table1Row, 0, len(Table1Media))
	for i := range Table1Media {
		rows = append(rows, Table1Row{Medium: Table1Media[i], AvgMs: table1Medium(i, spills)})
	}
	return rows
}

func table1Medium(medium, spills int) float64 {
	cfg := cluster.PaperConfig()
	cfg.Workers = 2
	// Enough sponge that memory media never run out across the run,
	// leaving a healthy page cache for the background-load cases.
	cfg.SpongeMemory = 2 * media.GB
	if medium == 5 {
		// Memory pressure: on a 4 GB node the heaps, the sponge and the
		// OS reserve leave nothing, so the page cache shrinks to its
		// floor.
		cfg.NodeMemory = 4 * media.GB
	}
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, cfg)
	svc := sponge.Start(c, sponge.DefaultConfig())
	node := c.Nodes[0]
	disk := node.Disk
	oneMBReal := c.Cfg.R(1 * media.MB)

	// Background disk load (media 4 and 5): two tasks of a running grep
	// job stream the disk, as in the paper's setup. With abundant
	// memory the OS reorders around the streams in moderate readahead
	// windows; under pressure the windows grow ineffective and requests
	// serialize in full-size bursts.
	if medium >= 4 {
		grepOp := 4 * media.MB
		if medium == 5 {
			grepOp = media.ReadAhead
		}
		for g := 0; g < 2; g++ {
			stream := disk.NewStream()
			sim.NewDaemon(fmt.Sprintf("grep%d", g), func(p *simtime.Proc) {
				for {
					disk.Read(p, stream, grepOp)
				}
			}).Wake()
		}
	}
	// Memory pressure additionally induces kernel swap and dirty-page
	// writeback storms: long scattered bursts with a seek each.
	if medium == 5 {
		sim.NewDaemon("swapper", func(p *simtime.Proc) {
			for {
				disk.ReadRandom(p, 16*media.MB)
				disk.WriteRandom(p, 16*media.MB)
			}
		}).Wake()
	}

	var avg float64
	sim.Spawn("micro", func(p *simtime.Proc) {
		// Let background load reach steady state.
		p.Sleep(2 * simtime.Second)
		start := p.Now()
		switch medium {
		case 0, 1: // local shared memory / via local sponge server
			agent := svc.NewAgent(node)
			defer agent.Close()
			pool := svc.Servers[0].Pool()
			buf := make([]byte, oneMBReal)
			for i := 0; i < spills; i++ {
				if medium == 1 {
					h, err := svc.Servers[0].AllocWriteLocalIPC(p, agent.Task(), buf)
					if err != nil {
						panic(err)
					}
					svc.Servers[0].Pool().FreeChunk(h)
				} else {
					p.Sleep(sponge.PoolLockCost)
					h, err := pool.Alloc(agent.Task())
					if err != nil {
						panic(err)
					}
					node.ChargeCopy(p, len(buf))
					if err := pool.Write(h, buf); err != nil {
						panic(err)
					}
					p.Sleep(sponge.PoolLockCost)
					pool.FreeChunk(h)
				}
			}
		case 2: // remote memory over the network
			agent := svc.NewAgent(node)
			defer agent.Close()
			buf := make([]byte, oneMBReal)
			remote := svc.Servers[1]
			for i := 0; i < spills; i++ {
				h, err := remote.AllocWrite(p, node, agent.Task(), buf)
				if err != nil {
					panic(err)
				}
				remote.Pool().FreeChunk(h)
			}
		default: // disk variants: random-offset 1 MB writes (§4.1)
			for i := 0; i < spills; i++ {
				disk.WriteRandom(p, 1*media.MB)
			}
		}
		avg = p.Now().Sub(start).Seconds() * 1e3 / float64(spills)
	})
	sim.MustRun()
	return avg
}
