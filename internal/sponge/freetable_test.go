package sponge

import (
	"math/rand"
	"slices"
	"testing"
)

// tableModel is the reference FreeTable is compared against — by the
// property test directly, by the tracker script through the simulated
// tracker: free counts by key in a plain map, ranked the obvious way.
type tableModel map[int]int

func (m tableModel) query() []FreeRow {
	var out []FreeRow
	for k, f := range m {
		if f > 0 {
			out = append(out, FreeRow{Key: k, Free: f})
		}
	}
	slices.SortFunc(out, func(a, b FreeRow) int {
		if a.Free != b.Free {
			return b.Free - a.Free
		}
		return a.Key - b.Key
	})
	return out
}

// TestFreeTableProperties drives a nine-row FreeTable with seeded random
// Sets of keys 0–7 and checks, after every one, that Free answers every
// key — zero for one never set — and that Query is free-only, sorted most-free-first with
// keys ascending on ties, and agrees with the model.
func TestFreeTableProperties(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := make(FreeTable, 9)
		m := tableModel{}
		for step := 0; step < 400; step++ {
			k, free := rng.Intn(8), rng.Intn(5)
			tab.Set(k, free)
			m[k] = free
			for k := 0; k < 9; k++ {
				if got := tab.Free(k); got != m[k] {
					t.Fatalf("seed %d step %d: Free(%d) = %d, want %d", seed, step, k, got, m[k])
				}
			}
			if got, want := tab.Query(), m.query(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Query = %+v, want %+v", seed, step, got, want)
			}
		}
	}
}

// TestFreeTableQueryAllocatesOnce pins the answer at one allocation:
// File.Create asks once per SpongeFile, so Query's allocations are part
// of every spill's cost and of the benchmark's allocs_per_iter.
func TestFreeTableQueryAllocatesOnce(t *testing.T) {
	tab := make(FreeTable, 40)
	for k := range tab {
		tab.Set(k, k%5)
	}
	var got []FreeRow
	if avg := testing.AllocsPerRun(100, func() { got = tab.Query() }); avg > 1 {
		t.Errorf("Query allocates %.1f times, want at most 1", avg)
	}
	if len(got) != 32 {
		t.Fatalf("Query returned %d rows, want the 32 with free chunks", len(got))
	}
}
