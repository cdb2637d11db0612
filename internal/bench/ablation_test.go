package bench

import (
	"math"
	"testing"

	"spongefiles/internal/media"
	"spongefiles/internal/simtime"
)

func TestChunkSizeAblationTradeoff(t *testing.T) {
	rows := ChunkSizeAblation(nil, 20)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Smaller chunks pay the per-chunk setup more often: the 64 KB point
	// must be clearly slower per spilled MB than the 1 MB point.
	var small, oneMB, big *ChunkSizeRow
	for i := range rows {
		switch rows[i].ChunkVirtual {
		case 64 * media.KB:
			small = &rows[i]
		case 1 * media.MB:
			oneMB = &rows[i]
		case 16 * media.MB:
			big = &rows[i]
		}
	}
	if small.RemoteSpillMs <= oneMB.RemoteSpillMs {
		t.Fatalf("64KB chunks should cost more per MB: %.2f vs %.2f",
			small.RemoteSpillMs, oneMB.RemoteSpillMs)
	}
	// Bigger chunks waste more memory on the final partial chunk.
	if big.Fragmentation <= oneMB.Fragmentation {
		t.Fatalf("16MB chunks should fragment more: %.3f vs %.3f",
			big.Fragmentation, oneMB.Fragmentation)
	}
	// The paper's choice: 1 MB keeps fragmentation well below 1% for a
	// ~10 MB spill while staying within ~15% of the big-chunk cost.
	if oneMB.Fragmentation > 0.08 {
		t.Fatalf("1MB fragmentation = %.3f", oneMB.Fragmentation)
	}
}

func TestStalenessAblationMonotone(t *testing.T) {
	rows := StalenessAblation([]simtime.Duration{
		100 * simtime.Millisecond, simtime.Hour,
	})
	fresh, stale := rows[0], rows[1]
	// An hour-stale tracker must cause at least as many stale-entry
	// failures as a 100 ms one, and at least as much disk fallback.
	if stale.RemoteFailures < fresh.RemoteFailures {
		t.Fatalf("stale tracker should fail more: %d vs %d",
			stale.RemoteFailures, fresh.RemoteFailures)
	}
	if stale.DiskChunks < fresh.DiskChunks {
		t.Fatalf("stale tracker should spill more to disk: %d vs %d",
			stale.DiskChunks, fresh.DiskChunks)
	}
}

func TestAffinityShrinksFailureSurface(t *testing.T) {
	rows := AffinityAblation()
	var with, without AffinityRow
	for _, r := range rows {
		if r.Affinity {
			with = r
		} else {
			without = r
		}
	}
	if with.MachinesUsed > without.MachinesUsed {
		t.Fatalf("affinity should not touch more machines: %d vs %d",
			with.MachinesUsed, without.MachinesUsed)
	}
	if with.FailureProb > without.FailureProb {
		t.Fatal("failure probability should follow machine count")
	}
	// The column is §4.3's formula at the paper's parameters:
	// P = 1 − e^(−N·(120 min in months)/100 months), 2.777e-5 a machine.
	if p := with.FailureProb; math.Abs(p-2.777e-5*float64(with.MachinesUsed)) > 1e-6 {
		t.Fatalf("P(task failure) over %d machines = %g", with.MachinesUsed, p)
	}
}

func TestOverlapAblationHelps(t *testing.T) {
	rows := OverlapAblation()
	off, on := rows[0], rows[1]
	if on.WriteMs >= off.WriteMs {
		t.Fatalf("async writes should hide network time: on=%.1f off=%.1f",
			on.WriteMs, off.WriteMs)
	}
	if on.ReadMs >= off.ReadMs {
		t.Fatalf("prefetch should hide fetch latency: on=%.1f off=%.1f",
			on.ReadMs, off.ReadMs)
	}
}
