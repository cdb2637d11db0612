package bench

import (
	"fmt"
	"time"

	"spongefiles/internal/cluster"
	"spongefiles/internal/media"
	"spongefiles/internal/obs"
	"spongefiles/internal/simtime"
	"spongefiles/internal/sponge"
)

// TrackerConfig selects the tracker-dissemination scale sweep: clusters
// of increasing size run the same churn workload under the paper's full
// poll (§3.1.1) and under delta dissemination, and the sweep records
// how much tracker traffic each node costs. Full polling charges every
// node one Stat exchange per interval regardless of activity, so
// per-node traffic is constant and total traffic grows linearly with
// the cluster. Deltas are pushed only by nodes whose free count
// changed, plus an anti-entropy poll every ten intervals, so total
// traffic scales with churn (plus a tenth of the cluster) instead of
// cluster size.
type TrackerConfig struct {
	// Nodes is the sweep of simulated cluster sizes.
	Nodes []int
	// Seconds is each cell's virtual running time after the warm-up
	// tick.
	Seconds int
	// ChurnPerSec is how many alloc-or-free operations the churn driver
	// issues per virtual second, spread round-robin over the cluster —
	// the knob that decouples activity from cluster size.
	ChurnPerSec int
}

// DefaultTracker is the configuration of EXPERIMENTS.md's tracker table:
// 100- and 1000-node clusters under identical churn.
func DefaultTracker() TrackerConfig {
	return TrackerConfig{
		Nodes:       []int{100, 1000},
		Seconds:     30,
		ChurnPerSec: 8,
	}
}

// TrackerCell is one (mode, cluster size) measurement.
type TrackerCell struct {
	Mode  string // "poll" or "delta"
	Nodes int
	// PollMsgs counts per-server Stat exchanges (full polls and, under
	// delta, the anti-entropy sweeps); DeltaMsgs counts server-pushed
	// incremental reports. Msgs is their sum — every tracker-bound
	// message on the control plane.
	PollMsgs  int64
	DeltaMsgs int64
	Msgs      int64
	// PerNodePerSec normalises Msgs by cluster size and virtual
	// duration — the acceptance number: delta mode's value must stay
	// well under full polling's 1.0 as the cluster grows.
	PerNodePerSec float64
	// Snapshot-entry refreshes by source, and stale delta drops.
	UpdatesFull  int64
	UpdatesDelta int64
	StaleDeltas  int64
	// Polls is how many full sweep cycles the tracker completed.
	Polls    int64
	VirtualS float64
	WallMs   float64
}

// RunTracker sweeps cluster sizes under both dissemination modes.
// Cells are ordered mode-major: all poll sizes, then all delta sizes.
func RunTracker(cfg TrackerConfig) []TrackerCell {
	var cells []TrackerCell
	for _, mode := range []string{"poll", "delta"} {
		for _, nodes := range cfg.Nodes {
			cells = append(cells, runTrackerCell(mode, nodes, cfg))
		}
	}
	return cells
}

// runTrackerCell builds a fresh cluster of the given size and drives
// the churn workload: one driver task alternately allocates and frees a
// remote chunk on a round-robin subset of nodes, so exactly
// ChurnPerSec free counts change per second no matter how large the
// cluster is.
func runTrackerCell(mode string, nodes int, cfg TrackerConfig) TrackerCell {
	ccfg := cluster.PaperConfig()
	ccfg.Workers = nodes
	ccfg.SpongeMemory = 4 * media.MB // four chunks per node is plenty: churn only needs one
	sim := simtime.New()
	defer sim.Close()
	c := cluster.New(sim, ccfg)
	reg := obs.NewRegistry()
	scfg := sponge.DefaultConfig()
	scfg.Metrics = reg
	scfg.DeltaDissemination = mode == "delta"
	svc := sponge.Start(c, scfg)

	start := time.Now()
	sim.Spawn("churndriver", func(p *simtime.Proc) {
		owner := sponge.TaskID{Node: 0, PID: 1}
		svc.Servers[0].RegisterTask(owner.PID)
		data := make([]byte, 64)
		handles := make(map[int]int)
		next := 1
		for sec := 0; sec < cfg.Seconds; sec++ {
			p.Sleep(simtime.Second)
			for j := 0; j < cfg.ChurnPerSec; j++ {
				n := next
				if next++; next >= nodes {
					next = 1
				}
				if h, ok := handles[n]; ok {
					svc.Servers[n].Free(p, c.Nodes[0], h)
					delete(handles, n)
					continue
				}
				h, err := svc.Servers[n].AllocWrite(p, c.Nodes[0], owner, data)
				if err != nil {
					panic(fmt.Sprintf("bench: tracker churn alloc on node %d: %v", n, err))
				}
				handles[n] = h
			}
		}
	})
	sim.MustRun()

	cell := TrackerCell{Mode: mode, Nodes: nodes}
	cell.WallMs = float64(time.Since(start).Microseconds()) / 1000
	cell.VirtualS = simtime.Duration(sim.Now()).Std().Seconds()
	cell.PollMsgs = reg.Counter("sponge_tracker_msgs_total", obs.L("kind", "poll")).Value()
	cell.DeltaMsgs = reg.Counter("sponge_tracker_msgs_total", obs.L("kind", "delta")).Value()
	cell.Msgs = cell.PollMsgs + cell.DeltaMsgs
	if cell.VirtualS > 0 {
		cell.PerNodePerSec = float64(cell.Msgs) / float64(nodes) / cell.VirtualS
	}
	cell.UpdatesFull = reg.Counter("sponge_tracker_updates_total", obs.L("kind", "full")).Value()
	cell.UpdatesDelta, cell.StaleDeltas = svc.Tracker.DeltaStats()
	cell.Polls, _ = svc.Tracker.Stats()
	return cell
}

// TrackerHeader labels TrackerRows' columns.
var TrackerHeader = []string{
	"mode", "nodes", "poll msgs", "delta msgs", "total", "msgs/node/s",
	"updates", "stale", "polls", "virt s", "wall ms",
}

// TrackerRows formats the cells for FormatTable.
func TrackerRows(cells []TrackerCell) [][]string {
	var out [][]string
	for _, c := range cells {
		out = append(out, []string{
			c.Mode,
			fmt.Sprintf("%d", c.Nodes),
			fmt.Sprintf("%d", c.PollMsgs),
			fmt.Sprintf("%d", c.DeltaMsgs),
			fmt.Sprintf("%d", c.Msgs),
			fmt.Sprintf("%.3f", c.PerNodePerSec),
			fmt.Sprintf("%d", c.UpdatesFull+c.UpdatesDelta),
			fmt.Sprintf("%d", c.StaleDeltas),
			fmt.Sprintf("%d", c.Polls),
			fmt.Sprintf("%.1f", c.VirtualS),
			fmt.Sprintf("%.1f", c.WallMs),
		})
	}
	return out
}
