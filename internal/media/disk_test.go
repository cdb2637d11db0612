package media

import (
	"testing"

	"spongefiles/internal/simtime"
)

func TestStreamingReadsEvictOtherStreams(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 100*MB)
	spillStream := disk.NewStream()
	grep := disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		// A small spill is absorbed and fully resident.
		disk.Write(p, spillStream, 20*MB)
		p.Sleep(5 * simtime.Second) // flusher cleans it
		if !disk.FullyResident(spillStream) {
			t.Error("spill should be resident before the scan")
		}
		// A large streaming read floods the cache (the 1 TB grep
		// effect): the spill's pages are evicted.
		disk.Read(p, grep, 500*MB)
		if disk.FullyResident(spillStream) {
			t.Error("streaming reads should evict the idle spill")
		}
		// Reading the spill now hits the platter.
		before := disk.Stats().PlatterReadBytes
		disk.Read(p, spillStream, 20*MB)
		if disk.Stats().PlatterReadBytes == before {
			t.Error("evicted spill read should hit the platter")
		}
	})
	sim.MustRun()
}

func TestEffectiveReadaheadShrinksWithInterleaving(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 64*MB)
	if got := disk.effectiveReadahead(); got != ReadAhead {
		t.Fatalf("single-stream readahead = %d, want full %d", got, ReadAhead)
	}
	streams := []StreamID{disk.NewStream(), disk.NewStream(), disk.NewStream(), disk.NewStream()}
	sim.Spawn("t", func(p *simtime.Proc) {
		for round := 0; round < 10; round++ {
			for _, s := range streams {
				disk.Read(p, s, 1*MB)
			}
		}
		got := disk.effectiveReadahead()
		if got >= ReadAhead {
			t.Errorf("interleaved readahead = %d, want < %d", got, ReadAhead)
		}
		if got < 256*KB {
			t.Errorf("readahead below the floor: %d", got)
		}
	})
	sim.MustRun()
}

func TestInsertCleanRespectsCapacity(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 10*MB)
	s := disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		// Reading far more than the cache holds must not blow the
		// accounting past capacity.
		disk.Read(p, s, 100*MB)
		if disk.used > disk.capacity {
			t.Errorf("cache used %d exceeds capacity %d", disk.used, disk.capacity)
		}
	})
	sim.MustRun()
}

func TestZeroCapacityCacheWritesThrough(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 0)
	s := disk.NewStream()
	sim.Spawn("t", func(p *simtime.Proc) {
		disk.Write(p, s, 5*MB)
	})
	sim.MustRun()
	st := disk.Stats()
	if st.AbsorbedBytes != 0 || st.ThroughBytes != 5*MB {
		t.Fatalf("zero-cache write stats: %+v", st)
	}
}

func TestDeleteUnknownStreamIsNoop(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", MB)
	disk.Delete(StreamID(999)) // must not panic or corrupt accounting
	if disk.CacheDirty() != 0 {
		t.Fatal("dirty changed by deleting a missing stream")
	}
}

func TestReadRandomAlwaysSeeks(t *testing.T) {
	sim := simtime.New()
	disk := NewDisk(sim, "d", 0)
	sim.Spawn("t", func(p *simtime.Proc) {
		for i := 0; i < 5; i++ {
			disk.ReadRandom(p, 1*MB)
		}
	})
	sim.MustRun()
	if got := disk.Stats().Seeks; got != 5 {
		t.Fatalf("random reads seeks = %d, want 5", got)
	}
}
