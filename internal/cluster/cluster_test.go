package cluster

import (
	"testing"
	"testing/quick"

	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

func TestPaperConfigCarveUp(t *testing.T) {
	noSpill := PaperConfig() // Figure 6's baseline: a 12 GB reduce JVM
	noSpill.ReduceHeap = 12 * media.GB
	noSpill.SpongeMemory = 0
	for _, tc := range []struct {
		name string
		cfg  Config
		want int64
	}{
		// 16 GB - 3 GB heaps - 1 GB sponge - 0.5 GB OS = 11.5 GB cache.
		{"paper", PaperConfig(), 16*media.GB - 3*media.GB - 1*media.GB - 512*media.MB},
		// 16 GB - 2×1 GB map heaps - 12 GB reduce heap - 0.5 GB OS.
		{"no-spill", noSpill, 1536 * media.MB},
	} {
		if got := tc.cfg.CacheBytes(); got != tc.want {
			t.Errorf("%s: cache = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCacheFloor(t *testing.T) {
	cfg := PaperConfig()
	cfg.NodeMemory = 4 * media.GB // low-memory configuration
	if got := cfg.CacheBytes(); got != 64*media.MB {
		t.Fatalf("low-memory cache = %d, want the 64 MB floor", got)
	}
}

func TestScaleRoundTrip(t *testing.T) {
	cfg := PaperConfig()
	if cfg.V(1024) != 1024*64 {
		t.Fatalf("V(1024) = %d", cfg.V(1024))
	}
	if cfg.R(media.MB) != int(media.MB/64) {
		t.Fatalf("R(1MB) = %d", cfg.R(media.MB))
	}
	// R rounds up: a single virtual byte still needs one real byte.
	if cfg.R(1) != 1 {
		t.Fatalf("R(1) = %d", cfg.R(1))
	}
}

func TestPropertyScaleNeverUnderRepresents(t *testing.T) {
	cfg := PaperConfig()
	f := func(v uint32) bool {
		virtual := int64(v)
		real := cfg.R(virtual)
		return cfg.V(real) >= virtual
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRackAssignment(t *testing.T) {
	cfg := PaperConfig()
	cfg.Workers = 90
	cfg.NodesPerRack = 40
	sim := simtime.New()
	c := New(sim, cfg)
	if c.Nodes[0].Rack != 0 || c.Nodes[39].Rack != 0 || c.Nodes[40].Rack != 1 || c.Nodes[89].Rack != 2 {
		t.Fatal("rack assignment wrong")
	}
	if !c.SameRack(c.Nodes[0], c.Nodes[39]) || c.SameRack(c.Nodes[0], c.Nodes[40]) {
		t.Fatal("SameRack wrong")
	}
}

func TestNodeTransferChargesScaledBytes(t *testing.T) {
	cfg := PaperConfig()
	cfg.Workers = 2
	sim := simtime.New()
	c := New(sim, cfg)
	var d simtime.Duration
	sim.Spawn("t", func(p *simtime.Proc) {
		start := p.Now()
		// 16 KiB real = 1 MB virtual at scale 64 → ≈ 8.6 ms on 1 GbE.
		c.Transfer(p, c.Nodes[0], c.Nodes[1], 16*1024)
		d = p.Now().Sub(start)
	})
	sim.MustRun()
	ms := d.Seconds() * 1e3
	if ms < 7.5 || ms > 10 {
		t.Fatalf("scaled transfer = %.2f ms, want ≈ 8.6", ms)
	}
}
