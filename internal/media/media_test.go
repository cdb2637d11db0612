package media

import (
	"testing"
	"testing/quick"

	"spongefiles/internal/simtime"
)

func msBetween(t *testing.T, got simtime.Duration, loMs, hiMs float64) {
	t.Helper()
	ms := got.Seconds() * 1e3
	if ms < loMs || ms > hiMs {
		t.Fatalf("duration = %.2f ms, want in [%.2f, %.2f]", ms, loMs, hiMs)
	}
}

func TestMemCopyCost(t *testing.T) {
	msBetween(t, CopyTime(1*MB), 0.8, 1.2) // paper Table 1: local shared memory ≈ 1 ms
}

func TestNetworkTransferCost(t *testing.T) {
	sim := simtime.New()
	net := NewNetwork()
	a, b := net.NewNIC("a"), net.NewNIC("b")
	var d simtime.Duration
	sim.Spawn("t", func(p *simtime.Proc) {
		start := p.Now()
		net.Transfer(p, a, b, 1*MB)
		d = p.Now().Sub(start)
	})
	sim.MustRun()
	msBetween(t, d, 7.5, 10.0) // 1 Gb/s + RTT ≈ 8.6 ms
}

func TestNetworkLoopbackIsMemcpy(t *testing.T) {
	sim := simtime.New()
	net := NewNetwork()
	a := net.NewNIC("a")
	var d simtime.Duration
	sim.Spawn("t", func(p *simtime.Proc) {
		start := p.Now()
		net.Transfer(p, a, a, 1*MB)
		d = p.Now().Sub(start)
	})
	sim.MustRun()
	msBetween(t, d, 0.8, 1.2)
}

func TestNetworkNICSerializesFlows(t *testing.T) {
	sim := simtime.New()
	net := NewNetwork()
	src := net.NewNIC("src")
	d1, d2 := net.NewNIC("d1"), net.NewNIC("d2")
	var end simtime.Time
	done := 0
	for _, dst := range []*NIC{d1, d2} {
		dst := dst
		sim.Spawn("flow", func(p *simtime.Proc) {
			net.Transfer(p, src, dst, 10*MB)
			done++
			end = p.Now()
		})
	}
	sim.MustRun()
	if done != 2 {
		t.Fatal("flows did not complete")
	}
	// Two 10 MB flows through one tx side must serialize: ≈ 2 × 84 ms.
	if end.Seconds() < 0.15 {
		t.Fatalf("flows overlapped on a single NIC: end = %v", end)
	}
}

func TestDiskRandomWriteCost(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 0)
	var d simtime.Duration
	sim.Spawn("t", func(p *simtime.Proc) {
		start := p.Now()
		disk.WriteRandom(p, 1*MB)
		d = p.Now().Sub(start)
	})
	sim.MustRun()
	msBetween(t, d, 20, 30) // paper Table 1: uncontended disk ≈ 25 ms
	if disk.Stats().Seeks != 1 {
		t.Fatalf("seeks = %d, want 1", disk.Stats().Seeks)
	}
}

func TestDiskSequentialSameStreamSeeksOnce(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 0) // no cache: all ops hit the platter
	s := disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		for i := 0; i < 10; i++ {
			disk.Write(p, s, 1*MB)
		}
	})
	sim.MustRun()
	if got := disk.Stats().Seeks; got != 1 {
		t.Fatalf("sequential stream seeks = %d, want 1", got)
	}
	if disk.Stats().ThroughBytes != 10*MB {
		t.Fatalf("through bytes = %d", disk.Stats().ThroughBytes)
	}
}

func TestDiskStreamSwitchSeeks(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 0)
	a, b := disk.NewStream(), disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		for i := 0; i < 5; i++ {
			disk.Write(p, a, 1*MB)
			disk.Write(p, b, 1*MB)
		}
	})
	sim.MustRun()
	// Every op switches streams (≥1 seek each); with no cache to back
	// readahead, interleaving further fragments each op into 256 KB
	// bursts, so the total lands well above the 10 switch seeks.
	if got := disk.Stats().Seeks; got < 10 || got > 40 {
		t.Fatalf("alternating streams seeks = %d, want within [10, 40]", got)
	}
}

func TestCacheAbsorbsWriteAndServesRead(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 1*GB)
	s := disk.NewStream()
	var wd, rd simtime.Duration
	sim.Spawn("t", func(p *simtime.Proc) {
		start := p.Now()
		disk.Write(p, s, 1*MB)
		wd = p.Now().Sub(start)
		start = p.Now()
		disk.Read(p, s, 1*MB)
		rd = p.Now().Sub(start)
	})
	sim.MustRun()
	msBetween(t, wd, 0.8, 1.2) // absorbed: memcpy speed
	msBetween(t, rd, 0.8, 1.2) // fully resident: memcpy speed
	st := disk.Stats()
	if st.AbsorbedBytes != 1*MB || st.CacheHitBytes != 1*MB {
		t.Fatalf("stats = %+v", st)
	}
	if !disk.FullyResident(s) {
		t.Fatal("stream should be fully resident")
	}
}

func TestCacheEvictionDemotesStream(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 10*MB)
	old, young := disk.NewStream(), disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		disk.Write(p, old, 4*MB)
		p.Sleep(simtime.Second)
		// Flusher has cleaned `old` by now; writing 8 MB must evict it.
		disk.Write(p, young, 8*MB)
		if disk.FullyResident(old) {
			t.Error("old stream should have been evicted")
		}
		if !disk.FullyResident(young) {
			t.Error("young stream should be resident")
		}
		// Reading the evicted stream hits the platter.
		before := disk.Stats().PlatterReadBytes
		disk.Read(p, old, 4*MB)
		if disk.Stats().PlatterReadBytes-before != 4*MB {
			t.Error("evicted read should hit the platter")
		}
	})
	sim.MustRun()
}

func TestDirtyThrottling(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 64*MB)
	s := disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		// Write 256 MB through a 64 MB cache: must throttle on flusher.
		for i := 0; i < 256; i++ {
			disk.Write(p, s, 1*MB)
		}
	})
	sim.MustRun()
	st := disk.Stats()
	if st.ThrottleTime == 0 {
		t.Fatal("expected writer throttling")
	}
	if st.PlatterWriteBytes == 0 {
		t.Fatal("expected flusher writeback")
	}
}

func TestDeleteDropsDirtyWithoutWriteback(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 1*GB)
	s := disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		disk.Write(p, s, 4*MB) // absorbed; flusher start threshold is 100 MB
		disk.Delete(s)
	})
	sim.MustRun()
	if disk.CacheDirty() != 0 {
		t.Fatalf("dirty = %d after delete", disk.CacheDirty())
	}
	if disk.Stats().PlatterWriteBytes != 0 {
		t.Fatal("deleted-before-flush spill should cost no disk I/O")
	}
}

func TestContendedDiskSlowerThanIdle(t *testing.T) {
	run := func(background bool) simtime.Duration {
		sim := simtime.New()
		defer sim.Close()
		// A healthy cache keeps the background stream's readahead
		// bursts full-size, so the spiller queues behind long ops.
		disk := NewDisk(sim, "d", 1*GB)
		if background {
			bg := disk.NewStream()
			sim.NewDaemon("grep", func(p *simtime.Proc) {
				for {
					disk.Read(p, bg, ReadAhead)
				}
			}).Wake()
		}
		var d simtime.Duration
		sim.Spawn("spill", func(p *simtime.Proc) {
			p.Sleep(100 * simtime.Millisecond)
			start := p.Now()
			for i := 0; i < 20; i++ {
				disk.WriteRandom(p, 1*MB)
			}
			d = simtime.Duration(int64(p.Now().Sub(start)) / 20)
		})
		sim.MustRun()
		return d
	}
	idle, contended := run(false), run(true)
	if contended < 3*idle {
		t.Fatalf("contention should slow spills ≥3×: idle=%v contended=%v", idle, contended)
	}
}

// Property: disk read of a never-cached stream always charges at least the
// bandwidth time, and platter bytes equal requested bytes.
func TestPropertyUncachedReadCharges(t *testing.T) {
	f := func(kb uint16) bool {
		n := int64(kb%4096+1) * KB
		sim := simtime.New()
		disk := NewDisk(sim, "d", 0)
		s := disk.NewStream()
		ok := true
		sim.Spawn("t", func(p *simtime.Proc) {
			start := p.Now()
			disk.Read(p, s, n)
			if p.Now().Sub(start) < bwTime(n, diskBW) {
				ok = false
			}
		})
		sim.MustRun()
		return ok && disk.Stats().PlatterReadBytes == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
