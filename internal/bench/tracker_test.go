package bench

import "testing"

// testTrackerConfig is small enough for CI: two cluster sizes an order
// of magnitude apart, a short run, constant churn.
func testTrackerConfig() TrackerConfig {
	return TrackerConfig{
		Nodes:       []int{10, 100},
		Seconds:     10,
		ChurnPerSec: 4,
	}
}

func findTrackerCell(t *testing.T, cells []TrackerCell, mode string, nodes int) TrackerCell {
	t.Helper()
	for _, c := range cells {
		if c.Mode == mode && c.Nodes == nodes {
			return c
		}
	}
	t.Fatalf("no cell for (%s, %d)", mode, nodes)
	return TrackerCell{}
}

// TestTrackerSweepShape checks the experiment's claim at small scale:
// full polling costs every node one message per interval (per-node
// traffic ~1/s regardless of size, total linear in the cluster), while
// delta dissemination's total traffic is dominated by churn and
// anti-entropy, so its per-node rate is a fraction of polling's and
// shrinks as the cluster grows.
func TestTrackerSweepShape(t *testing.T) {
	cfg := testTrackerConfig()
	cells := RunTracker(cfg)
	if len(cells) != 2*len(cfg.Nodes) {
		t.Fatalf("got %d cells, want %d", len(cells), 2*len(cfg.Nodes))
	}

	for _, nodes := range cfg.Nodes {
		poll := findTrackerCell(t, cells, "poll", nodes)
		delta := findTrackerCell(t, cells, "delta", nodes)
		if poll.DeltaMsgs != 0 {
			t.Errorf("poll mode at %d nodes saw delta messages: %+v", nodes, poll)
		}
		if poll.PerNodePerSec < 0.8 {
			t.Errorf("poll mode at %d nodes: %.3f msgs/node/s, want ~1", nodes, poll.PerNodePerSec)
		}
		if delta.DeltaMsgs == 0 || delta.UpdatesDelta == 0 {
			t.Errorf("delta mode at %d nodes pushed nothing: %+v", nodes, delta)
		}
		if delta.Msgs >= poll.Msgs {
			t.Errorf("delta mode at %d nodes cost %d msgs vs polling's %d",
				nodes, delta.Msgs, poll.Msgs)
		}
	}

	// Sublinear growth: growing the cluster 10x under constant churn
	// must grow delta traffic far less than the 10x full polling pays.
	pollSmall := findTrackerCell(t, cells, "poll", cfg.Nodes[0])
	pollBig := findTrackerCell(t, cells, "poll", cfg.Nodes[1])
	deltaSmall := findTrackerCell(t, cells, "delta", cfg.Nodes[0])
	deltaBig := findTrackerCell(t, cells, "delta", cfg.Nodes[1])
	pollGrowth := float64(pollBig.Msgs) / float64(pollSmall.Msgs)
	deltaGrowth := float64(deltaBig.Msgs) / float64(deltaSmall.Msgs)
	if deltaGrowth >= pollGrowth {
		t.Errorf("delta traffic grew %.1fx over a 10x cluster, polling grew %.1fx",
			deltaGrowth, pollGrowth)
	}
	if deltaBig.PerNodePerSec >= pollBig.PerNodePerSec/2 {
		t.Errorf("delta per-node rate %.3f not well under polling's %.3f at %d nodes",
			deltaBig.PerNodePerSec, pollBig.PerNodePerSec, cfg.Nodes[1])
	}
}

// TestTrackerSweepDeterminism reruns one delta cell: everything but
// wall time must repeat.
func TestTrackerSweepDeterminism(t *testing.T) {
	cfg := testTrackerConfig()
	cfg.Nodes = []int{10}
	a := runTrackerCell("delta", 10, cfg)
	b := runTrackerCell("delta", 10, cfg)
	a.WallMs, b.WallMs = 0, 0
	if a != b {
		t.Errorf("delta cell diverged:\nrun1 %+v\nrun2 %+v", a, b)
	}
}
